"""Benchmark harness: declarative experiment configs, seeded trial loops,
long-format CSV results, and summary tables.

Seeding: the collection for (graphon g, trial t) under master seed s is
drawn with the 64-bit sub-seed SeedSequence([s, g, t]); random sizes use the
stream SeedSequence([s, g, t, 0]). Graph m inside a collection then uses
SeedSequence([sub-seed, m]) (see :mod:`multigraphon.collection`), so adding
or removing methods never perturbs the sampled data, and identical configs
reproduce identical result rows byte for byte (timing column aside).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

import numpy as np

from .baselines import estimate_sas_pool, estimate_usvt_pool
from .collection import GraphCollection, sample_collection
from .estimates import StepEstimate
from .evaluation import evaluate_estimate
from .graphons import Graphon
from .jgs import estimate_jgs, joint_sort, normalized_degrees, smooth_estimate
from .tv import TvParams, _require_int

__all__ = [
    "JGS_METHODS",
    "METHODS",
    "SizeSpec",
    "ExperimentConfig",
    "ResultRecord",
    "collection_seed",
    "estimate",
    "sample_cell",
    "run_benchmark",
    "write_results_csv",
    "summarize",
    "format_summary",
    "RESULT_COLUMNS",
]

# the methods that take k and score the joint ordering's latent MAE
JGS_METHODS = ("jgs", "jgs-smooth")
METHODS = JGS_METHODS + ("sas-pool", "usvt-pool")

RESULT_COLUMNS = (
    "graphon_id", "M", "size_spec", "seed", "k", "method",
    "mise", "mae", "empty_frac", "seconds",
)


def _parse_int(text: str) -> int:
    """The integer ``text`` spells in ASCII digits, after an optional minus
    sign (so that range checks can report a negative value); ValueError for
    any other text, where int() would also take "1_0", " 3 ", "+3" and "٣"."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_float(text: str) -> float:
    """The number ``text`` spells in ASCII, as float() reads it; ValueError
    for a "_", a leading "+" or surrounding whitespace, which float() would
    also take in "1_0", "+0.05" and " 0.05". "nan", "inf" and negative
    values are read, so that range checks can report them."""
    try:
        if text.isascii() and "_" not in text and not text.startswith("+") and text == text.strip():
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"expected a number, got {text!r}")


@dataclass(frozen=True)
class SizeSpec:
    """Graph-size rule: every graph has ``n`` nodes, or sizes are drawn
    uniformly from the integers lo..hi (inclusive)."""

    kind: str
    n: int = 0
    lo: int = 0
    hi: int = 0

    def __post_init__(self):
        if self.kind == "fixed":
            _require_int("fixed size n", self.n)
        elif self.kind == "uniform":
            _require_int("uniform size lo", self.lo)
            _require_int("uniform size hi", self.hi, least=self.lo)
        else:
            raise ValueError(f"unknown size spec kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "SizeSpec":
        bad = ValueError(f"bad size spec {text!r}; expected fixed:N or uniform:LO:HI")
        kind, *fields = text.split(":")
        try:
            numbers = [_parse_int(x) for x in fields]
        except ValueError:
            raise bad from None
        if kind == "fixed" and len(numbers) == 1:
            return cls("fixed", n=numbers[0])
        if kind == "uniform" and len(numbers) == 2:
            return cls("uniform", lo=numbers[0], hi=numbers[1])
        raise bad

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.n}"
        return f"uniform:{self.lo}:{self.hi}"

    def draw(self, rng: np.random.Generator, count: int) -> list[int]:
        if self.kind == "fixed":
            return [self.n] * count
        return [int(x) for x in rng.integers(self.lo, self.hi + 1, size=count)]


@dataclass(frozen=True)
class ExperimentConfig:
    graphon_ids: tuple[int, ...]
    num_graphs: int
    sizes: SizeSpec
    trials: int = 20
    seed: int = 0
    methods: tuple[str, ...] = ("jgs",)
    k: int | str = "auto"
    lam: float = 0.05
    resolution: int = 1000

    def __post_init__(self):
        # every bad value fails here, before any cell runs
        _require_int("M", self.num_graphs)
        _require_int("trials", self.trials)
        _require_int("seed", self.seed, least=0)
        _require_int("resolution", self.resolution)
        _check_k(self.k)
        if not self.graphon_ids:
            raise ValueError("need at least one graphon id")
        for gid in self.graphon_ids:
            Graphon.analytic(gid)  # raises on an unknown id
        if not self.methods:
            raise ValueError("need at least one method")
        TvParams(lam=self.lam)  # raises on a TV weight that is not finite and >= 0
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        # a repeated entry would run its cells twice and count them twice in the summary
        for name, values in (("graphon id", self.graphon_ids), ("method", self.methods)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} {value!r} given more than once")


@dataclass(frozen=True)
class ResultRecord:
    graphon_id: int | None
    num_graphs: int | None
    size_label: str
    seed: int | None
    k: int | None
    method: str
    mise: float | None
    mae: float | None
    empty_frac: float | None
    seconds: float | None
    error: str | None = None

    def row(self) -> list[str]:
        def fmt(x):
            return "" if x is None else (repr(x) if isinstance(x, float) else str(x))

        return [
            fmt(self.graphon_id), fmt(self.num_graphs), self.size_label,
            fmt(self.seed), fmt(self.k), self.method,
            fmt(self.mise), fmt(self.mae), fmt(self.empty_frac), fmt(self.seconds),
        ]


def _check_k(k) -> None:
    if k != "auto":
        _require_int("k", k)


def collection_seed(master: int, graphon_id: int, trial: int) -> int:
    """Documented 64-bit sub-seed mix for one (graphon, trial) cell."""
    return int(np.random.SeedSequence([master, graphon_id, trial]).generate_state(1, np.uint64)[0])


def sample_cell(seed: int, graphon_id: int, trial: int, sizes: SizeSpec,
                num_graphs: int) -> tuple[GraphCollection, list, int]:
    """The collection of one (graphon, trial) cell under master seed ``seed``,
    drawn by the seeding rule of this module's docstring.

    Returns the collection, its latent positions and its sub-seed. A seed
    below 0 or a graph count below 1 raises ValueError before any sampling.
    """
    _require_int("seed", seed, least=0)
    _require_int("M", num_graphs)
    sub = collection_seed(seed, graphon_id, trial)
    drawn = sizes.draw(np.random.default_rng([seed, graphon_id, trial, 0]), num_graphs)
    coll, latent = sample_collection(Graphon.analytic(graphon_id), drawn, sub)
    return coll, latent, sub


def estimate(method: str, coll: GraphCollection, k: int | str = "auto", lam: float = 0.05,
             jgs: StepEstimate | None = None) -> StepEstimate:
    """Run one of :data:`METHODS` on a collection.

    ``k`` is the jgs block count and ``lam`` the TV weight of ``jgs-smooth``
    and ``sas-pool``. A ``lam`` that is not finite and >= 0 or a ``k`` that
    is neither "auto" nor an integer >= 1 raises ValueError before any work,
    whatever the method.

    ``jgs``, if given, is the ``jgs`` estimate of ``coll`` with this ``k``,
    already built: the jgs methods then start from it instead of building
    it again (``jgs`` returns it, ``jgs-smooth`` smooths it), so their
    elapsed times are its time, plus the smoothing's for ``jgs-smooth``.
    """
    smoothing = TvParams(lam=lam)
    _check_k(k)
    if method in JGS_METHODS:
        if jgs is None:
            jgs = estimate_jgs(coll, k=k)
        return jgs if method == "jgs" else smooth_estimate(jgs, smoothing)
    if method == "sas-pool":
        return estimate_sas_pool(coll, lam=lam)
    if method == "usvt-pool":
        return estimate_usvt_pool(coll)
    raise ValueError(f"unknown method {method!r}")


def _run_cell(cfg: ExperimentConfig, graphon_id: int, trial: int) -> list[ResultRecord]:
    """All methods for one (graphon, trial): simulate once, then estimate
    and evaluate per method. The jgs methods share one ``jgs`` estimate,
    built by the first of them to run; a failed build is not kept, so each
    jgs method then fails alike."""
    coll, latent, sub = sample_cell(cfg.seed, graphon_id, trial, cfg.sizes, cfg.num_graphs)
    spec = Graphon.analytic(graphon_id)
    row = partial(ResultRecord, graphon_id=graphon_id, num_graphs=cfg.num_graphs,
                  size_label=cfg.sizes.label(), seed=sub)
    records = []
    jgs = None  # the cell's jgs estimate
    ordering = None  # the joint ordering MAE scores; shared by the jgs methods
    for method in cfg.methods:
        try:
            is_jgs = method in JGS_METHODS
            if is_jgs and jgs is None:
                jgs = estimate("jgs", coll, cfg.k, cfg.lam)
            est = estimate(method, coll, cfg.k, cfg.lam, jgs=jgs)
            if is_jgs and ordering is None:
                ordering = joint_sort(normalized_degrees(coll))
            scores = evaluate_estimate(est, spec, resolution=cfg.resolution,
                                       ordering=ordering if is_jgs else None, latent=latent)
        except Exception as exc:  # record the failure, keep the run going
            records.append(row(method=method, k=None, mise=None, mae=None, empty_frac=None,
                               seconds=None, error=f"{type(exc).__name__}: {exc}"))
        else:
            records.append(row(method=method, **scores))
    return records


def run_benchmark(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Run every (graphon x trial x method) cell, serially in one process,
    returning the rows in (graphon, trial, method) order.
    """
    return [rec for g in cfg.graphon_ids for t in range(cfg.trials) for rec in _run_cell(cfg, g, t)]


def write_results_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())


def summarize(records) -> list[dict]:
    """Mean and standard deviation per (graphon, M, sizes, method) group.

    In a run that scores a collection more than once within a group (a
    ``--k`` list does, once per k value), groups are split by ``k`` and each
    row carries its ``k``. The summary view reports MISE scaled by 10^3 (raw
    rows keep unscaled values); groups follow first-appearance order.
    """
    scored = [r for r in records if r.mise is not None]
    by_k = len({(r.graphon_id, r.num_graphs, r.size_label, r.method, r.seed) for r in scored}) < len(scored)
    groups: dict[tuple, list[ResultRecord]] = {}
    for rec in scored:
        key = (rec.graphon_id, rec.num_graphs, rec.size_label, rec.method) + ((rec.k,) if by_k else ())
        groups.setdefault(key, []).append(rec)
    out = []
    for (gid, m, sizes, method, *k), recs in groups.items():
        mises = np.asarray([r.mise for r in recs])
        maes = [r.mae for r in recs if r.mae is not None]
        out.append({
            "graphon_id": gid,
            "M": m,
            "size_spec": sizes,
            "method": method,
            **({"k": k[0]} if by_k else {}),
            "trials": len(recs),
            "mise_mean_x1e3": float(mises.mean() * 1e3),
            "mise_sd_x1e3": float(mises.std(ddof=1) * 1e3) if len(recs) > 1 else 0.0,
            "mae_mean": float(np.mean(maes)) if maes else None,
            "seconds_mean": float(np.mean([r.seconds for r in recs])),
        })
    return out


def format_summary(summary) -> str:
    """The summary as a table, with a ``k`` column after the method when
    the groups were split by ``k``."""
    by_k = any("k" in row for row in summary)
    k_head = f" {'k':>4}" if by_k else ""
    header = f"{'graphon':>7} {'M':>5} {'sizes':>16} {'method':>11}{k_head} {'trials':>6} {'MISE x1e-3':>14} {'MAE':>9} {'sec':>8}"
    lines = [header, "-" * len(header)]
    for row in summary:
        mae = f"{row['mae_mean']:.4f}" if row["mae_mean"] is not None else "-"
        k = f" {'-' if row.get('k') is None else row['k']:>4}" if by_k else ""
        lines.append(
            f"{row['graphon_id']:>7} {row['M']:>5} {row['size_spec']:>16} {row['method']:>11}{k} "
            f"{row['trials']:>6} {row['mise_mean_x1e3']:>7.3f} ± {row['mise_sd_x1e3']:<5.3f}"
            f"{mae:>9} {row['seconds_mean']:>8.3f}"
        )
    return "\n".join(lines)
