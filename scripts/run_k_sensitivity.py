#!/usr/bin/env python3
"""Sensitivity of the block histogram to the number of blocks k.

Each trial samples one collection and evaluates the same data at every k in
the sweep, plus the automatic selection rule; identifiable kernels show a
U-shaped error curve with a broad basin around the automatic choice.

A preset of two ``multigraphon benchmark`` runs on the same collections:
one over the ``--k-values`` list (rows to ``--out``) and one with
``--k auto`` (rows to ``<stem>_auto<suffix>`` next to ``--out``), whose
``k`` column gives the automatic choice. It exits with the worse of their
statuses (1 if a row failed, 2 on bad input, which stops it before the
second run).
"""
import argparse
import csv
import sys
from pathlib import Path

from multigraphon import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graphon", default="1")
    parser.add_argument("--M", default="50")
    parser.add_argument("--sizes", default="uniform:80:120")
    parser.add_argument("--k-values", default="4,8,16,24,32,48,64")
    parser.add_argument("--trials", default="5")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--res", default="1000")
    parser.add_argument("--out", default="k_sensitivity.csv")
    args = parser.parse_args()

    out = Path(args.out)
    auto_out = out.with_name(f"{out.stem}_auto{out.suffix}")
    common = ["benchmark", "--graphon", args.graphon, "--M", args.M, "--sizes", args.sizes,
              "--trials", args.trials, "--seed", args.seed, "--method", "jgs", "--res", args.res]
    status = cli.main(common + ["--k", args.k_values, "--out", str(out)])
    if status == 2:
        return status
    status = max(status, cli.main(common + ["--k", "auto", "--out", str(auto_out)]))
    if status == 2:
        return status
    with open(auto_out, newline="") as fh:
        chosen = {row["k"] for row in csv.DictReader(fh) if row["k"]}
    # k is a count in ASCII digits: order by length, then by text
    print(f"automatic rule selects k = [{', '.join(sorted(chosen, key=lambda k: (len(k), k)))}]")
    return status


if __name__ == "__main__":
    sys.exit(main())
