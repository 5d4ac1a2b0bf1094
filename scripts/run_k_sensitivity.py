#!/usr/bin/env python3
"""Sensitivity of the block histogram to the number of blocks k.

Each trial samples one collection and evaluates the same data at every k in
the sweep, plus the automatic selection rule; identifiable kernels show a
U-shaped error curve with a broad basin around the automatic choice.
"""
import argparse

import numpy as np

from multigraphon.bench import (
    ExperimentConfig,
    SizeSpec,
    estimate,
    run_benchmark,
    sample_cell,
    write_results_csv,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graphon", type=int, default=1)
    parser.add_argument("--M", type=int, default=50)
    parser.add_argument("--sizes", default="uniform:80:120")
    parser.add_argument("--k-values", default="4,8,16,24,32,48,64")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--res", type=int, default=1000)
    parser.add_argument("--out", default="k_sensitivity.csv")
    args = parser.parse_args()

    cfg = ExperimentConfig(
        graphon_ids=(args.graphon,),
        num_graphs=args.M,
        sizes=SizeSpec.parse(args.sizes),
        trials=args.trials,
        seed=args.seed,
        methods=("jgs",),
        resolution=args.res,
        sweep="k",
        sweep_values=tuple(int(x) for x in args.k_values.split(",")),
    )
    records = run_benchmark(cfg)
    write_results_csv(records, args.out)

    by_k: dict[int, list[float]] = {}
    for rec in records:
        by_k.setdefault(rec.k, []).append(rec.mise)
    print(f"{'k':>4} {'mean MISE x1e-3':>16}")
    for k in sorted(by_k):
        print(f"{k:>4} {np.mean(by_k[k]) * 1e3:>16.3f}")

    auto_ks = []
    for trial in range(args.trials):
        coll, _, _ = sample_cell(args.seed, args.graphon, trial, cfg.sizes, args.M)
        auto_ks.append(estimate("jgs", coll).params["k"])
    print(f"automatic rule selects k = {sorted(set(auto_ks))}")
    print(f"{len(records)} rows -> {args.out}")


if __name__ == "__main__":
    main()
