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
import sys
from dataclasses import replace

from . import bench
from .bench import ExperimentConfig, ResultRecord, SizeSpec, _parse_int
from .collection import load_collection, save_collection
from .estimates import load_estimate, read_grid, save_estimate
from .evaluation import evaluate_estimate
from .graphons import ANALYTIC_IDS, Graphon
from .jgs import joint_sort, normalized_degrees, smooth_estimate
from .tv import TvParams


def _int_list(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"{option} expects comma-separated integers, got {text!r}") from None


def _int_arg(text: str) -> int:
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_k(text: str):
    # no sign: "-3" is refused here, while "0" reaches the range check
    if text == "auto":
        return text
    try:
        if not text.startswith("-"):
            return _parse_int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1 or 'auto', got {text!r}")


def cmd_simulate(args) -> int:
    coll, latent, seed = bench.sample_cell(args.seed, args.graphon, 0, SizeSpec.parse(args.sizes), args.M)
    save_collection(coll, args.out, latent=latent, graphon_id=args.graphon, seed=seed)
    print(f"wrote {coll.num_graphs} graphs ({coll.total_nodes} nodes) to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    coll, _, sidecar = load_collection(args.collection, latent=False)
    est = replace(bench.estimate(args.method, coll, args.k, args.lam), seed=sidecar.get("seed"))
    save_estimate(est, args.out)
    print(f"method {est.method}: k={est.params.get('k', est.k)} elapsed {est.elapsed_seconds:.4f}s -> {args.out}")
    return 0


def cmd_smooth(args) -> int:
    est = load_estimate(args.estimate)
    if est.method.endswith("-smooth"):
        raise ValueError(f"{args.estimate}: estimate of method {est.method!r} is already smoothed")
    save_estimate(smooth_estimate(est, TvParams(lam=args.lam)), args.out)
    print(f"smoothed {args.estimate} (lambda={args.lam}) -> {args.out}")
    return 0


def _results_header(path) -> bool:
    """Whether ``path`` already starts with the results header: False for a
    missing or empty file, ValueError naming the file for any other first
    line, so no row is appended to a file that is not a results CSV."""
    header = ",".join(bench.RESULT_COLUMNS)
    try:
        with open(path, newline="", errors="replace") as fh:
            first = fh.readline()
    except FileNotFoundError:
        return False
    if first and first.rstrip("\r\n") != header:
        raise ValueError(f"{path}: not a results CSV (its first line is not the header {header})")
    return bool(first)


def cmd_evaluate(args) -> int:
    has_header = _results_header(args.out)
    est = load_estimate(args.estimate)
    truth = Graphon.analytic(args.graphon) if args.graphon is not None else read_grid(args.truth, Graphon.step)
    ordering = latent = None
    if args.mae:
        if est.method not in bench.JGS_METHODS:
            raise ValueError(f"{args.estimate}: --mae scores the joint ordering of a jgs method "
                             f"({', '.join(bench.JGS_METHODS)}), not of method {est.method!r}")
        if args.collection is None:
            raise ValueError("--mae requires --collection")
        coll, latent, sidecar = load_collection(args.collection)
        if latent is None:
            raise ValueError(f"--mae requested but no latent sidecar found for {args.collection}")
        # a meta without N or M reads as 0, which describes no collection
        recorded = {"N": est.n_total or None, "M": est.n_graphs or None, "seed": est.seed}
        actual = {"N": coll.total_nodes, "M": coll.num_graphs, "seed": sidecar.get("seed")}
        differ = [name for name, value in recorded.items() if value is not None and value != actual[name]]
        if differ:
            raise ValueError(f"{args.estimate} is not an estimate of {args.collection}: its meta records "
                             + ", ".join(f"{name}={recorded[name]}" for name in differ) + ", the collection has "
                             + ", ".join(f"{name}={actual[name]}" for name in differ))
        ordering = joint_sort(normalized_degrees(coll))
    scores = evaluate_estimate(est, truth, resolution=args.res, ordering=ordering, latent=latent)
    rec = ResultRecord(graphon_id=args.graphon, num_graphs=est.n_graphs or None, size_label="", seed=est.seed,
                       method=est.method, **scores)
    with open(args.out, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not has_header:
            writer.writerow(bench.RESULT_COLUMNS)
        writer.writerow(rec.row())
    mae = "" if rec.mae is None else f" mae {rec.mae:.6g}"
    print(f"mise {rec.mise:.6g}{mae} -> {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = ExperimentConfig(
        graphon_ids=_int_list(args.graphon, "--graphon"),
        num_graphs=args.M,
        sizes=SizeSpec.parse(args.sizes),
        trials=args.trials,
        seed=args.seed,
        methods=tuple(args.method),
        k=args.k,
        lam=args.lam,
        resolution=args.res,
        sweep=args.sweep,
        sweep_values=_int_list(args.values, "--values") if args.values else (),
    )
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
    p.add_argument("--graphon", type=_int_arg, required=True, choices=ANALYTIC_IDS)
    p.add_argument("--M", type=_int_arg, required=True, help="number of graphs")
    p.add_argument("--sizes", required=True, help="fixed:N or uniform:LO:HI")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run one estimator on a collection file")
    p.add_argument("--collection", required=True)
    p.add_argument("--method", required=True, choices=bench.METHODS)
    p.add_argument("--k", type=_parse_k, default="auto", help="block count or 'auto'")
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
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
    ref.add_argument("--graphon", type=_int_arg, choices=ANALYTIC_IDS)
    ref.add_argument("--truth", help="CSV file holding a symmetric step grid")
    p.add_argument("--res", type=_int_arg, default=1000)
    p.add_argument("--collection", help="collection file (for --mae)")
    p.add_argument("--mae", action="store_true", help="also report latent-position MAE")
    p.add_argument("--out", required=True, help="results CSV (appended)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="full simulate/estimate/evaluate loops")
    p.add_argument("--graphon", required=True, help="comma-separated ids")
    p.add_argument("--M", type=_int_arg, required=True)
    p.add_argument("--sizes", required=True, help="fixed:N or uniform:LO:HI")
    p.add_argument("--trials", type=_int_arg, default=20)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--method", action="append", choices=bench.METHODS, required=True,
                   help="repeatable; subset of " + ", ".join(bench.METHODS))
    p.add_argument("--k", type=_parse_k, default="auto")
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--res", type=_int_arg, default=1000)
    p.add_argument("--sweep", choices=("n", "M", "k"), default=None)
    p.add_argument("--values", default=None, help="comma-separated sweep values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. Bad input (a ValueError or OSError from any
    subcommand) is reported on one line, ``multigraphon: error: <message>``,
    with exit status 2, as argparse reports its own errors."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"multigraphon: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
