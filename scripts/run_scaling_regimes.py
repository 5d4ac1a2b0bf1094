#!/usr/bin/env python3
"""Estimator behaviour in the two multi-network asymptotic regimes.

Regime 1 fixes the number of graphs and grows every graph (consistency:
MISE and latent MAE both head to zero). Regime 2 fixes the graph size and
grows the number of graphs (MISE plateaus at a non-zero floor because
per-node degree noise never shrinks). Emits one plot-ready CSV per regime.

A preset of two ``multigraphon benchmark`` runs, one per regime; it exits
with the worse of their statuses (1 if a row failed, 2 on bad input). The
configs of both regimes are built and checked before either runs, so bad
input stops it before any work, with one error line.
"""
import argparse
import sys

from multigraphon import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graphon", default="1")
    parser.add_argument("--fixed-M", default="30")
    parser.add_argument("--n-values", default="30,100,300,1000")
    parser.add_argument("--fixed-n", default="30")
    parser.add_argument("--M-values", default="10,30,100,300,1000")
    parser.add_argument("--trials", default="5")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--res", default="1000")
    parser.add_argument("--out-prefix", default="scaling")
    args = parser.parse_args()

    common = ["benchmark", "--graphon", args.graphon, "--trials", args.trials, "--seed", args.seed,
              "--method", "jgs", "--res", args.res]
    regimes = [
        (f"regime 1 (M={args.fixed_M} fixed)", "growing_n",
         ["--M", args.fixed_M, "--sizes", ",".join(f"fixed:{n}" for n in args.n_values.split(","))]),
        (f"regime 2 (n={args.fixed_n} fixed)", "growing_M",
         ["--M", args.M_values, "--sizes", f"fixed:{args.fixed_n}"]),
    ]
    runs = [(title, common + axis + ["--out", f"{args.out_prefix}_{name}.csv"]) for title, name, axis in regimes]
    parser = cli.build_parser()
    try:
        for _, argv in runs:
            cli.benchmark_configs(parser.parse_args(argv))
    except ValueError as exc:
        print(f"multigraphon: error: {exc}", file=sys.stderr)
        return 2
    status = 0
    for title, argv in runs:
        print(title)
        status = max(status, cli.main(argv))
        if status == 2:  # an output file that cannot be written
            break
    return status


if __name__ == "__main__":
    sys.exit(main())
