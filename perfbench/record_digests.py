"""Record the per-cell outputs that run.py checks, for a set of seeds.

    python3 perfbench/record_digests.py --seeds 0-31

Each cell of each workload runs once through its public entry point. Its
digest and output numbers are stored in ``digests.json`` together with the
numeric fingerprint of this environment; run.py compares the numbers with a
tolerance everywhere and the digests only where the fingerprint matches.
Recording under another fingerprint starts a new book.
"""
import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_env  # noqa: E402
import bench_workloads  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def book_text(book) -> str:
    """JSON text of the book with one line per cell, so that a re-recording
    reads as a diff of the cells that changed."""
    workloads = []
    for name in sorted(book["cells"]):
        seeds = []
        for seed in sorted(book["cells"][name], key=int):
            cells = ",\n".join(f"    {json.dumps(c, sort_keys=True)}"
                               for c in book["cells"][name][seed])
            seeds.append(f'   "{seed}": [\n{cells}\n   ]')
        workloads.append(f'  "{name}": {{\n' + ",\n".join(seeds) + "\n  }")
    return ('{\n "fingerprint": ' + json.dumps(book["fingerprint"], sort_keys=True)
            + ',\n "cells": {\n' + ",\n".join(workloads) + "\n }\n}\n")


def main(argv=None):
    p = argparse.ArgumentParser(description="record per-cell output digests")
    p.add_argument("--seeds", type=seed_range, required=True, help="LO-HI, inclusive")
    args = p.parse_args(argv)
    bench_env.drop_jobs_var()
    path = HERE / "digests.json"
    with open(path) as fh:
        book = json.load(fh)
    fingerprint = bench_env.numeric_fingerprint()
    if book["fingerprint"] != fingerprint:
        book = {"fingerprint": fingerprint, "cells": {}}
    scratch = HERE.parent / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    for name, wl in bench_workloads.WORKLOADS.items():
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
            try:
                fixture = wl.setup(workdir, seed)
                outs = [wl.outcome(fixture, cell, wl.run(fixture, cell)) for cell in wl.cells()]
            finally:
                shutil.rmtree(workdir)
            book["cells"].setdefault(name, {})[str(seed)] = [
                {"digest": out.digest, "numbers": out.numbers} for out in outs]
            print(name, seed, [out.digest for out in outs], flush=True)
    with open(path, "w") as fh:
        fh.write(book_text(book))


if __name__ == "__main__":
    main()
