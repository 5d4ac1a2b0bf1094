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


def _comma_list(text: str, option: str, parse) -> list:
    """The entries of the comma-separated list ``text``, each read by
    ``parse``. An entry ``parse`` refuses (so also an empty entry or one
    with spaces) or an entry given twice is a ValueError naming the option
    and the text as written."""
    values = []
    for entry in text.split(","):
        try:
            value = parse(entry)
        except ValueError as exc:
            raise ValueError(f"{option} {text!r}: {exc}") from None
        if value in values:
            raise ValueError(f"{option} {text!r}: {entry!r} given more than once")
        values.append(value)
    return values


def _int_arg(text: str) -> int:
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _block_count(text: str) -> int:
    # no sign: "-3" is refused here, while "0" reaches the range check
    if text.startswith("-") or not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_k(text: str):
    if text == "auto":
        return text
    try:
        return _block_count(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1 or 'auto', got {text!r}") from None


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


def benchmark_configs(args) -> list[ExperimentConfig]:
    """The configs of a ``benchmark`` command: one per (graphon, M, sizes,
    k), in that nesting order, all built and checked before any work."""
    graphons = _comma_list(args.graphon, "--graphon", _parse_int)
    counts = _comma_list(args.M, "--M", _parse_int)
    sizes = _comma_list(args.sizes, "--sizes", SizeSpec.parse)
    ks = ["auto"] if args.k == "auto" else _comma_list(args.k, "--k", _block_count)
    # a pooled baseline takes no k: a --k list would score its collection once per value
    pooled = [m for m in args.method if m not in bench.JGS_METHODS]
    if len(ks) > 1 and pooled:
        raise ValueError(f"a --k list does not apply to method {pooled[0]!r}, which takes no k")
    return [ExperimentConfig(graphon_ids=(gid,), num_graphs=m, sizes=spec, trials=args.trials, seed=args.seed,
                             methods=tuple(args.method), k=k, lam=args.lam, resolution=args.res)
            for gid in graphons for m in counts for spec in sizes for k in ks]


def _failure_line(cfg: ExperimentConfig, rec: ResultRecord) -> str:
    """The stderr line of a failed row, naming its cell: graphon, M, sizes,
    collection seed and k. A failed row has no k of its own; a jgs method's
    block count given in the config stands in for it."""
    k = rec.k
    if k is None and rec.method in bench.JGS_METHODS and cfg.k != "auto":
        k = cfg.k
    cell = f"graphon {rec.graphon_id} M {rec.num_graphs} sizes {rec.size_label} seed {rec.seed}"
    return f"failed: {cell}{'' if k is None else f' k {k}'} method {rec.method}: {rec.error}"


def cmd_benchmark(args) -> int:
    """Run every config of :func:`benchmark_configs`; their rows are concatenated."""
    runs = [(cfg, rec) for cfg in benchmark_configs(args) for rec in bench.run_benchmark(cfg)]
    records = [rec for _, rec in runs]
    bench.write_results_csv(records, args.out)
    failures = [_failure_line(cfg, rec) for cfg, rec in runs if rec.error]
    for line in failures:
        print(line, file=sys.stderr)
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
    p.add_argument("--M", required=True, help="comma-separated graph counts")
    p.add_argument("--sizes", required=True, help="comma-separated fixed:N or uniform:LO:HI")
    p.add_argument("--trials", type=_int_arg, default=20)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--method", action="append", choices=bench.METHODS, required=True,
                   help="repeatable; subset of " + ", ".join(bench.METHODS))
    p.add_argument("--k", default="auto", help="'auto' or comma-separated block counts")
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--res", type=_int_arg, default=1000)
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
