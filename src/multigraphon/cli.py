"""Command-line front end: simulate collections, run estimators, smooth,
evaluate against a reference graphon, and drive full benchmarks.

File formats are owned by the library modules: collections are JSON Lines
(one graph per line) with an optional latent sidecar, estimates are CSV
matrices with a JSON metadata sidecar, and benchmark results are long-format
CSV with one row per (graphon, trial, method).
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench
from .baselines import estimate_sas_pool, estimate_usvt_pool
from .bench import ExperimentConfig, ResultRecord, SizeSpec, collection_seed
from .collection import load_collection, sample_collection, save_collection
from .estimates import StepEstimate, load_estimate, save_estimate
from .evaluation import mae_latent, mise
from .graphons import ANALYTIC_IDS, Graphon
from .jgs import estimate_jgs, joint_sort, normalized_degrees
from .tv import TvParams, tv_smooth


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(",", " ").split())


def _parse_k(text: str):
    return "auto" if text == "auto" else int(text)


def cmd_simulate(args) -> int:
    spec = Graphon.analytic(args.graphon)
    sizes_spec = SizeSpec.parse(args.sizes)
    seed = collection_seed(args.seed, args.graphon, 0)
    sizes = sizes_spec.draw(np.random.default_rng([args.seed, args.graphon, 0, 0]), args.M)
    coll, latent = sample_collection(spec, sizes, seed)
    save_collection(coll, args.out, latent=latent, graphon_id=args.graphon, seed=seed)
    print(f"wrote {coll.num_graphs} graphs ({coll.total_nodes} nodes) to {args.out}")
    return 0


def _run_method(args, coll) -> StepEstimate:
    if args.method == "jgs":
        return estimate_jgs(coll, k=args.k)
    if args.method == "jgs-smooth":
        return estimate_jgs(coll, k=args.k, smoothing=TvParams(lam=getattr(args, "lam")))
    if args.method == "sas-pool":
        return estimate_sas_pool(coll, lam=getattr(args, "lam"), resolution=args.pool_res)
    return estimate_usvt_pool(coll, resolution=args.pool_res)


def cmd_estimate(args) -> int:
    coll, _, sidecar = load_collection(args.collection)
    est = replace(_run_method(args, coll), seed=sidecar.get("seed"))
    save_estimate(est, args.out)
    print(f"method {est.method}: k={est.params.get('k', est.k)} elapsed {est.elapsed_seconds:.4f}s -> {args.out}")
    return 0


def cmd_smooth(args) -> int:
    est = load_estimate(args.estimate)
    smoothed = tv_smooth(est.values, TvParams(lam=args.lam))
    method = est.method if est.method.endswith("-smooth") else est.method + "-smooth"
    params = dict(est.params)
    params["lambda"] = args.lam
    out = replace(est, values=smoothed, method=method, params=params)
    save_estimate(out, args.out)
    print(f"smoothed {args.estimate} (lambda={args.lam}) -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    est = load_estimate(args.estimate)
    if args.graphon is not None:
        truth = Graphon.analytic(args.graphon)
        gid = args.graphon
    else:
        truth = Graphon.step(np.loadtxt(args.truth, delimiter=",", ndmin=2))
        gid = -1
    value = mise(est, truth, resolution=args.res)
    mae = None
    if args.mae:
        if args.collection is None:
            raise SystemExit("--mae requires --collection")
        coll, latent, _ = load_collection(args.collection)
        if latent is None:
            raise SystemExit(f"--mae requested but no latent sidecar found for {args.collection}")
        ordering = joint_sort(normalized_degrees(coll))
        mae = mae_latent(ordering, latent)
    rec = ResultRecord(
        graphon_id=gid,
        num_graphs=est.n_graphs,
        size_label="",
        seed=est.seed if est.seed is not None else 0,
        k=est.params.get("k", est.k),
        method=est.method,
        mise=value,
        mae=mae,
        empty_frac=est.empty_blocks / est.k**2,
        seconds=est.elapsed_seconds,
    )
    exists = os.path.exists(args.out)
    with open(args.out, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(bench.RESULT_COLUMNS)
        writer.writerow(rec.row())
    print(f"mise {value:.6g}" + (f" mae {mae:.6g}" if mae is not None else "") + f" -> {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    try:
        cfg = ExperimentConfig(
            graphon_ids=args.graphon,
            num_graphs=args.M,
            sizes=SizeSpec.parse(args.sizes),
            trials=args.trials,
            seed=args.seed,
            methods=tuple(args.method),
            k=args.k,
            lam=args.lam,
            resolution=args.res,
            sweep=args.sweep,
            sweep_values=_int_list(args.values) if args.values else (),
            pool_resolution=args.pool_res,
        )
        for gid in cfg.graphon_ids:
            Graphon.analytic(gid)
        bench.jobs_setting()
    except ValueError as exc:  # an input error: one line, like argparse's, and no work
        print(f"multigraphon: error: {exc}", file=sys.stderr)
        return 2
    records = bench.run_benchmark(cfg)
    bench.write_results_csv(records, args.out)
    failures = [r for r in records if r.error]
    for r in failures:
        print(f"failed: graphon {r.graphon_id} method {r.method}: {r.error}", file=sys.stderr)
    print(bench.format_summary(bench.summarize(records)))
    print(f"{len(records)} rows ({len(failures)} failed) -> {args.out}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multigraphon",
        description="Graphon estimation from collections of unaligned networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a synthetic collection to JSONL")
    p.add_argument("--graphon", type=int, required=True, choices=ANALYTIC_IDS)
    p.add_argument("--M", type=int, required=True, help="number of graphs")
    p.add_argument("--sizes", required=True, help="fixed:N or uniform:LO:HI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run one estimator on a collection file")
    p.add_argument("--collection", required=True)
    p.add_argument("--method", required=True, choices=bench.METHODS)
    p.add_argument("--k", type=_parse_k, default="auto", help="block count or 'auto'")
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--pool-res", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("smooth", help="TV-smooth an estimate file")
    p.add_argument("--estimate", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("evaluate", help="score an estimate against a reference graphon")
    p.add_argument("--estimate", required=True)
    ref = p.add_mutually_exclusive_group(required=True)
    ref.add_argument("--graphon", type=int, choices=ANALYTIC_IDS)
    ref.add_argument("--truth", help="CSV file holding a symmetric step grid")
    p.add_argument("--res", type=int, default=1000)
    p.add_argument("--collection", help="collection file (for --mae)")
    p.add_argument("--mae", action="store_true", help="also report latent-position MAE")
    p.add_argument("--out", required=True, help="results CSV (appended)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="full simulate/estimate/evaluate loops")
    p.add_argument("--graphon", type=_int_list, required=True, help="comma-separated ids")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--sizes", required=True, help="fixed:N or uniform:LO:HI")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", action="append", choices=bench.METHODS, required=True,
                   help="repeatable; subset of " + ", ".join(bench.METHODS))
    p.add_argument("--k", type=_parse_k, default="auto")
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--res", type=int, default=1000)
    p.add_argument("--sweep", choices=("n", "M", "k"), default=None)
    p.add_argument("--values", default=None, help="comma-separated sweep values")
    p.add_argument("--pool-res", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
