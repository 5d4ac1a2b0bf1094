"""The benchmark's workloads.

Each workload turns a seed into a fixed cycle of cells and runs one cell per
op through the package's public entry point (``run``, the part that is
timed). ``outcome`` then reduces what the op produced to an
:class:`Outcome`: a digest of every output byte except timings, and the
output numbers that are compared with a tolerance. The traced run calls the
same ``run`` with the package's layer functions wrapped in spans (see
``bench_hooks``), so traced and untraced ops must produce the same outcome.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np
from bench_hooks import collection_bytes, collection_counts

from multigraphon import cli
from multigraphon.bench import (
    RESULT_COLUMNS,
    ExperimentConfig,
    SizeSpec,
    collection_seed,
    run_benchmark,
)
from multigraphon.collection import load_collection, sample_collection, save_collection
from multigraphon.estimates import load_estimate
from multigraphon.evaluation import mae_latent, mise
from multigraphon.graphons import Graphon
from multigraphon.jgs import joint_sort, normalized_degrees

JGS_METHODS = ("jgs", "jgs-smooth")
LAM = 0.05  # TV weight of jgs-smooth and sas-pool, the package default
SECONDS_COLUMN = RESULT_COLUMNS.index("seconds")


@dataclass
class Outcome:
    """What one op produced, reduced to what the benchmark checks and reports."""

    digest: str
    numbers: list  # output values checked against recorded ones with a tolerance
    estimator_s: float
    rows: int = 1
    failed_rows: int = 0
    errors: list = field(default_factory=list)
    scores: list = field(default_factory=list)  # (graphon id, method, mise, mae) per row


def failed_outcome(error: str) -> Outcome:
    return Outcome(digest="error", numbers=[], estimator_s=0.0, failed_rows=1, errors=[error])


def cell_seed(seed: int, trial: int) -> int:
    """Master seed of one cell: trial ``trial`` of the workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def _sampled_as_bench_does(cfg: ExperimentConfig, gid: int):
    """The collection and latent positions ``run_benchmark`` draws for
    graphon ``gid`` in trial 0 of ``cfg`` (seeding as documented in
    :mod:`multigraphon.bench`)."""
    sizes = cfg.sizes.draw(np.random.default_rng([cfg.seed, gid, 0, 0]), cfg.num_graphs)
    return sample_collection(Graphon.analytic(gid), sizes, collection_seed(cfg.seed, gid, 0))


@dataclass(frozen=True)
class CellWorkload:
    """One op is one ``bench.run_benchmark`` call with ``trials=1``: every
    graphon of the workload is sampled once and estimated and scored by
    every method, so every op does the same mix of work.

    The cycle holds ``trials`` cells; cell t of workload seed s runs with
    master seed ``cell_seed(s, t)``.
    """

    name: str
    graphon_ids: tuple
    num_graphs: int
    sizes: str
    methods: tuple
    trials: int
    resolution: int
    # (graphon id, method, lo, hi, label): band on the mean MISE over the cycle
    bands: tuple = ()

    def cells(self) -> list:
        return list(range(self.trials))

    def setup(self, workdir, seed: int, tracer=None) -> dict:
        return {"seed": seed}

    def config(self, fixture: dict, cell) -> ExperimentConfig:
        return ExperimentConfig(
            graphon_ids=self.graphon_ids, num_graphs=self.num_graphs,
            sizes=SizeSpec.parse(self.sizes), trials=1, seed=cell_seed(fixture["seed"], cell),
            methods=self.methods, k="auto", lam=LAM, resolution=self.resolution,
        )

    def run(self, fixture, cell):
        return run_benchmark(self.config(fixture, cell))

    def outcome(self, fixture, cell, records) -> Outcome:
        h = hashlib.sha256()
        for rec in records:
            row = rec.row()
            row[SECONDS_COLUMN] = ""
            h.update((",".join(row) + "|" + (rec.error or "") + "\n").encode())
        return Outcome(
            digest=h.hexdigest()[:16],
            numbers=[x for r in records for x in (r.mise, r.mae)],
            estimator_s=sum(r.seconds or 0.0 for r in records),
            rows=len(records),
            failed_rows=sum(r.error is not None for r in records),
            errors=[f"{r.method}: {r.error}" for r in records if r.error is not None],
            scores=[(r.graphon_id, r.method, r.mise, r.mae) for r in records if r.error is None],
        )

    def accuracy(self, fixture, cell, outcome) -> tuple[list, list, str | None]:
        """MISE and MAE values of one cell, plus a note on where the MAE
        comes from when the op does not produce it."""
        mises = [m for _, _, m, _ in outcome.scores]
        maes = [a for _, _, _, a in outcome.scores if a is not None]
        if any(m in JGS_METHODS for m in self.methods):
            return mises, maes, None
        cfg = self.config(fixture, cell)
        for gid in self.graphon_ids:
            coll, latent = _sampled_as_bench_does(cfg, gid)
            maes.append(mae_latent(joint_sort(normalized_degrees(coll).per_graph), latent))
        return mises, maes, ("computed by the benchmark, not by the op: latent MAE of the "
                             "joint degree ordering of each sampled collection")

    def band_checks(self, outcomes: dict) -> list:
        checks = []
        for gid, method, lo, hi, label in self.bands:
            vals = [m for out in outcomes.values() for g, meth, m, _ in out.scores
                    if g == gid and meth == method]
            mean = float(np.mean(vals)) if vals else float("nan")
            ok = bool(vals) and (lo is None or mean >= lo) and (hi is None or mean <= hi)
            checks.append((f"{label}: graphon {gid} {method} mean MISE in [{lo}, {hi}]", ok,
                           f"mean {mean!r} over {len(vals)} rows"))
        return checks


@dataclass(frozen=True)
class EstimateWorkload:
    """One op is ``multigraphon estimate --method jgs --k auto`` on a JSONL
    collection written in setup: load, estimate, write CSV and meta."""

    name: str
    graphon_id: int
    num_graphs: int
    n: int
    resolution: int = 1000

    def cells(self) -> list:
        return [0]

    def setup(self, workdir, seed: int, tracer=None) -> dict:
        spec = Graphon.analytic(self.graphon_id)
        sub = collection_seed(seed, self.graphon_id, 0)
        path = workdir / "collection.jsonl"
        with _span(tracer, "collection.sample_collection"):
            coll, latent = sample_collection(spec, [self.n] * self.num_graphs, sub)
        with _span(tracer, "collection.save_collection"):
            save_collection(coll, path, latent=latent, graphon_id=self.graphon_id, seed=sub)
        if tracer is not None:
            collection_counts(tracer, coll)
            tracer.count("collection.save_bytes", collection_bytes(path))
        return {"seed": seed, "collection": path, "out": workdir / "estimate.csv"}

    def run(self, fixture, cell):
        argv = ["estimate", "--collection", str(fixture["collection"]), "--method", "jgs",
                "--k", "auto", "--out", str(fixture["out"])]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def outcome(self, fixture, cell, status) -> Outcome:
        path = fixture["out"]
        with open(path, "rb") as fh:
            csv_bytes = fh.read()
        with open(f"{path}.meta.json") as fh:
            meta = json.load(fh)
        elapsed = float(meta.pop("elapsed_seconds"))
        digest = hashlib.sha256(csv_bytes + b"\n" + json.dumps(meta, sort_keys=True).encode())
        values = load_estimate(path).values
        return Outcome(
            digest=digest.hexdigest()[:16],
            numbers=[float(values.shape[0]), float(values.sum()), float((values ** 2).sum())],
            estimator_s=elapsed,
            failed_rows=int(status != 0),
            errors=[f"cli exit status {status}"] if status != 0 else [],
        )

    def accuracy(self, fixture, cell, outcome) -> tuple[list, list, str | None]:
        """MISE of the estimate the op wrote, and the latent MAE of the joint
        ordering of the collection it read (as ``multigraphon evaluate --mae``)."""
        spec = Graphon.analytic(self.graphon_id)
        score = mise(load_estimate(fixture["out"]), spec, resolution=self.resolution)
        coll, latent, _ = load_collection(fixture["collection"])
        mae = mae_latent(joint_sort(normalized_degrees(coll).per_graph), latent)
        return [score], [mae], None

    def band_checks(self, outcomes: dict) -> list:
        return []


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


WORKLOADS = {
    wl.name: wl
    for wl in (
        CellWorkload(
            "table1", graphon_ids=(1, 10), num_graphs=200, sizes="uniform:10:100",
            methods=("jgs", "jgs-smooth"), trials=8, resolution=1000,
            bands=((1, "jgs", None, 1.5e-3, "criterion 1"),
                   (10, "jgs", 0.030, 0.060, "criterion 2")),
        ),
        EstimateWorkload("many_graphs", graphon_id=1, num_graphs=5000, n=10),
        CellWorkload(
            "large_graphs", graphon_ids=(1,), num_graphs=4, sizes="fixed:1000",
            methods=("jgs", "jgs-smooth"), trials=8, resolution=1000,
        ),
        CellWorkload(
            "baselines", graphon_ids=(1, 10), num_graphs=2, sizes="fixed:24",
            methods=("sas-pool", "usvt-pool"), trials=16, resolution=250,
        ),
    )
}
