#!/usr/bin/env python3
"""MISE benchmark over a set of synthetic graphons and estimation methods.

Defaults reproduce the headline protocol: collections of 200 graphs with
sizes drawn uniformly from 10..100, 20 trials per graphon, errors reported
as mean +/- sd scaled by 10^3. A preset of ``multigraphon benchmark``: it
writes the long-format rows CSV, prints the summary table and exits with
the benchmark's status (1 if a row failed, 2 on bad input).
"""
import argparse
import sys

from multigraphon import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graphons", default="1,2,3,4,5,6,7,8,9,10,11,12,13",
                        help="comma-separated graphon ids")
    parser.add_argument("--methods", default="jgs,jgs-smooth",
                        help="comma-separated subset of jgs,jgs-smooth,sas-pool,usvt-pool")
    parser.add_argument("--M", default="200")
    parser.add_argument("--sizes", default="uniform:10:100")
    parser.add_argument("--trials", default="20")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--lambda", dest="lam", default="0.05")
    parser.add_argument("--res", default="1000")
    parser.add_argument("--out", default="mise_table_rows.csv")
    args = parser.parse_args()
    methods = [word for method in args.methods.split(",") for word in ("--method", method)]
    return cli.main(["benchmark", "--graphon", args.graphons, "--M", args.M, "--sizes", args.sizes,
                     "--trials", args.trials, "--seed", args.seed, "--lambda", args.lam,
                     "--res", args.res, "--out", args.out] + methods)


if __name__ == "__main__":
    sys.exit(main())
