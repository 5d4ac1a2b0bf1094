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
from .bench import ExperimentConfig, ResultRecord, SizeSpec, _parse_float, _parse_int
from .collection import load_collection, save_collection
from .estimates import load_estimate, read_grid, save_estimate
from .evaluation import evaluate_estimate
from .graphons import Graphon
from .jgs import joint_sort, normalized_degrees, smooth_estimate
from .tv import TvParams, _require_int


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports argparse's refusals as it reports every other bad input
        raise ValueError(message)


def _arg(parse):
    """The argparse type reading an option with ``parse``; its ValueError text is argparse's message."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _comma_list(parse):
    """A parser of comma-separated lists of entries that ``parse`` reads. An entry ``parse``
    refuses (so also an empty one or one with spaces) or given twice is a ValueError."""
    def read(text):
        values = []
        for entry in text.split(","):
            try:
                value = parse(entry)
            except ValueError as exc:
                raise ValueError(f"{text!r}: {exc}") from None
            if value in values:
                raise ValueError(f"{text!r}: {entry!r} given more than once")
            values.append(value)
        return values
    return read


def _auto_or(parse):
    return lambda text: text if text == "auto" else parse(text)


def cmd_simulate(args) -> int:
    coll, latent, seed = bench.sample_cell(args.seed, args.graphon, 0, args.sizes, args.M)
    save_collection(coll, args.out, latent=latent, graphon_id=args.graphon, seed=seed)
    print(f"wrote {coll.num_graphs} graphs ({coll.total_nodes} nodes) to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    TvParams(lam=args.lam)  # the options bench.estimate checks, before the collection is read
    bench._check_k(args.k)
    coll, _, sidecar = load_collection(args.collection, latent=False)
    est = replace(bench.estimate(args.method, coll, args.k, args.lam), seed=sidecar.get("seed"))
    save_estimate(est, args.out)
    print(f"method {est.method}: k={est.params.get('k', est.k)} elapsed {est.elapsed_seconds:.4f}s -> {args.out}")
    return 0


def cmd_smooth(args) -> int:
    params = TvParams(lam=args.lam)
    est = load_estimate(args.estimate)
    if est.method.endswith("-smooth"):
        raise ValueError(f"{args.estimate}: estimate of method {est.method!r} is already smoothed")
    save_estimate(smooth_estimate(est, params), args.out)
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
    _require_int("resolution", args.res)  # as benchmark does, before any file is read
    truth = Graphon.analytic(args.graphon) if args.graphon is not None else read_grid(args.truth, Graphon.step)
    has_header = _results_header(args.out)
    est = load_estimate(args.estimate)
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
    ks = ["auto"] if args.k == "auto" else args.k
    # a pooled baseline takes no k: a --k list would score its collection once per value
    pooled = [m for m in args.method if m not in bench.JGS_METHODS]
    if len(ks) > 1 and pooled:
        raise ValueError(f"a --k list does not apply to method {pooled[0]!r}, which takes no k")
    return [ExperimentConfig(graphon_ids=(gid,), num_graphs=m, sizes=spec, trials=args.trials, seed=args.seed,
                             methods=tuple(args.method), k=k, lam=args.lam, resolution=args.res)
            for gid in args.graphon for m in args.M for spec in args.sizes for k in ks]


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
    configs = benchmark_configs(args)
    open(args.out, "w").close()  # an --out that cannot be written is refused before the first cell
    runs = [(cfg, rec) for cfg in configs for rec in bench.run_benchmark(cfg)]
    records = [rec for _, rec in runs]
    bench.write_results_csv(records, args.out)
    failures = [_failure_line(cfg, rec) for cfg, rec in runs if rec.error]
    for line in failures:
        print(line, file=sys.stderr)
    print(bench.format_summary(bench.summarize(records)))
    print(f"{len(records)} rows ({len(failures)} failed) -> {args.out}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multigraphon",
        description="Graphon estimation from collections of unaligned networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    integer, integers, number = _arg(_parse_int), _arg(_comma_list(_parse_int)), _arg(_parse_float)

    p = sub.add_parser("simulate", help="sample a synthetic collection to JSONL")
    p.add_argument("--graphon", type=integer, required=True)
    p.add_argument("--M", type=integer, required=True, help="number of graphs")
    p.add_argument("--sizes", type=_arg(SizeSpec.parse), required=True, help="fixed:N or uniform:LO:HI")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run one estimator on a collection file")
    p.add_argument("--collection", required=True)
    p.add_argument("--method", required=True, choices=bench.METHODS)
    p.add_argument("--k", type=_arg(_auto_or(_parse_int)), default="auto", help="block count or 'auto'")
    p.add_argument("--lambda", dest="lam", type=number, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("smooth", help="TV-smooth an estimate file")
    p.add_argument("--estimate", required=True)
    p.add_argument("--lambda", dest="lam", type=number, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("evaluate", help="score an estimate against a reference graphon")
    p.add_argument("--estimate", required=True)
    ref = p.add_mutually_exclusive_group(required=True)
    ref.add_argument("--graphon", type=integer)
    ref.add_argument("--truth", help="CSV file holding a symmetric step grid")
    p.add_argument("--res", type=integer, default=1000)
    p.add_argument("--collection", help="collection file (for --mae)")
    p.add_argument("--mae", action="store_true", help="also report latent-position MAE")
    p.add_argument("--out", required=True, help="results CSV (appended)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="full simulate/estimate/evaluate loops")
    p.add_argument("--graphon", type=integers, required=True, help="comma-separated ids")
    p.add_argument("--M", type=integers, required=True, help="comma-separated graph counts")
    p.add_argument("--sizes", type=_arg(_comma_list(SizeSpec.parse)), required=True,
                   help="comma-separated fixed:N or uniform:LO:HI")
    p.add_argument("--trials", type=integer, default=20)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--method", action="append", choices=bench.METHODS, required=True,
                   help="repeatable; subset of " + ", ".join(bench.METHODS))
    p.add_argument("--k", type=_arg(_auto_or(_comma_list(_parse_int))), default="auto",
                   help="'auto' or comma-separated block counts")
    p.add_argument("--lambda", dest="lam", type=number, default=0.05)
    p.add_argument("--res", type=integer, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A refused command line (argparse's refusal of an
    option, or a ValueError or OSError from the subcommand) is reported on
    one line, ``multigraphon: error: <message>``, with exit status 2."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"multigraphon: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
