"""multigraphon benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the metric names and units are read from ``BENCHMARK.json``.
Ops run back to back in one process; ``MULTIGRAPHON_JOBS`` is removed from
the environment so no worker pool is started. A run

1. builds the fixture files three times, then runs one warm-up op, and
   reports import time plus the median build plus the warm-up as ``setup_s``;
2. runs the workload's cells in cycle order until ``--seconds`` have passed
   and every cell has run at least once, timing only the public call;
3. checks every op's outputs: each op must repeat the first run of its cell
   byte for byte outside timings; for a seed recorded in ``digests.json``
   the first run of each cell must reproduce the recorded output numbers
   within a relative 1e-9 and, in the numeric environment they were
   recorded in, the recorded digest; the Table-1 MISE bands must hold.

With ``--trace 1`` every op runs twice in a row, untraced and then with
the package's layer functions wrapped in spans (see ``bench_hooks``); the
result then holds the per-layer metrics and the spans are written to the
run's work directory. The last line of standard output is the JSON result;
the exit status is 1 when any check failed and 2 on a usage or checkout
error.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_env  # noqa: E402
from bench_hooks import instrument  # noqa: E402
from bench_trace import Tracer, aggregate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# per-layer metric -> (source kind, span or counter name, median over single calls)
LAYER_SOURCES = {
    "collection.sample_s": ("span", "collection.sample_collection", False),
    "collection.graphs": ("count", "collection.graphs", False),
    "collection.dyads": ("count", "collection.dyads", False),
    "collection.edges": ("count", "collection.edges", False),
    "collection.load_s": ("span", "collection.load_collection", False),
    "collection.load_bytes": ("count", "collection.load_bytes", False),
    "collection.save_s": ("span", "collection.save_collection", False),
    "collection.save_bytes": ("count", "collection.save_bytes", False),
    "jgs.degrees_s": ("span", "jgs.normalized_degrees", False),
    "jgs.sort_s": ("span", "jgs.joint_sort", False),
    "jgs.histogram_s": ("span", "jgs.jgs_histogram", False),
    "jgs.nodes": ("count", "jgs.nodes", False),
    "jgs.edges_touched": ("count", "jgs.edges_touched", False),
    "jgs.k": ("count", "jgs.k", True),
    "jgs.empty_blocks": ("count", "jgs.empty_blocks", False),
    "tv.smooth_s": ("span", "tv.tv_smooth", False),
    "tv.calls": ("count", "tv.calls", False),
    "tv.iterations": ("count", "tv.iterations", True),
    "evaluation.mise_s": ("span", "evaluation.mise", False),
    "evaluation.mise_calls": ("count", "evaluation.mise_calls", False),
    "evaluation.mae_s": ("span", "evaluation.mae_latent", False),
    "graphons.canonical_s": ("span", "graphons.canonical_rearrangement", False),
    "baselines.sas_single_s": ("span", "baselines.sas_single", False),
    "baselines.usvt_single_s": ("span", "baselines.usvt_single", False),
    "baselines.pool_s": ("span", "baselines.pool_estimates", False),
    "baselines.graphs": ("count", "baselines.graphs", False),
    "baselines.skipped_singletons": ("count", "baselines.skipped_singletons", False),
    "estimates.save_s": ("span", "estimates.save_estimate", False),
    "bench.self_s": ("span", "bench.cell", False),
    "bench.mae_resort_s": ("span", "bench.mae_resort", False),
    "bench.rows": ("count", "bench.rows", False),
    "bench.rows_failed": ("count", "bench.rows_failed", False),
}


class UsageError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise UsageError("--seed must be >= 0 and --seconds > 0")
    return args


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "multigraphon" / "__init__.py").is_file() or not path.is_file():
        raise UsageError(f"{ROOT} is not a multigraphon source checkout with a BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def op_tail(times):
    """Highest order statistic with at least ten samples beyond it, never
    below the median; returns (value, percentile)."""
    xs = sorted(times)
    j = max(len(xs) - 11, len(xs) // 2)
    return xs[j], 100.0 * (j + 1) / len(xs)


def numbers_close(got, recorded) -> bool:
    """Equal length and every pair equal within a relative 1e-9 (None for None)."""
    return len(got) == len(recorded) and all(
        a is None and b is None
        or a is not None and b is not None and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        for a, b in zip(got, recorded))


class Runner:
    def __init__(self, wl, seed, workdir, tracer, recorded, bitwise, failed_outcome):
        self.wl, self.seed, self.workdir, self.tracer = wl, seed, workdir, tracer
        self.failed_outcome = failed_outcome
        self.cells = wl.cells()
        self.recorded = recorded  # per cell {"digest", "numbers"}, or None
        self.bitwise = bitwise  # recorded under this numeric fingerprint
        self.reference = {}  # cell index -> digest of its first run in this process
        self.first = {}  # cell index -> outcome of its first run
        self.checks = []  # (name, ok, detail)
        self.rows = self.failed_rows = 0
        self.errors = []
        self.notes = {}

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def op(self, fixture, idx, label):
        """Run cell ``idx`` once, timing only the public call; returns the
        elapsed seconds and the checked outcome."""
        cell = self.cells[idx]
        t0 = time.perf_counter()
        try:
            raw = self.wl.run(fixture, cell)
            elapsed = time.perf_counter() - t0
            out = self.wl.outcome(fixture, cell, raw)
        except Exception:  # one broken op must not hide the metrics of the rest
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            out = self.failed_outcome(traceback.format_exc(limit=1).strip())
        self.verify(idx, out, label)
        return elapsed, out

    def verify(self, idx, out, label):
        self.rows += out.rows
        self.failed_rows += out.failed_rows
        self.errors.extend(out.errors)
        if idx in self.reference:
            self.check(f"{label} cell {idx} repeats first run", out.digest == self.reference[idx],
                       f"got {out.digest}, first {self.reference[idx]}")
            return
        self.reference[idx] = out.digest
        self.first[idx] = out
        if self.recorded is None:
            return
        if idx >= len(self.recorded):
            self.check(f"cell {idx} has a recorded output", False,
                       "digests.json predates this cycle: re-record it")
            return
        rec = self.recorded[idx]
        self.check(f"cell {idx} output numbers match recorded",
                   numbers_close(out.numbers, rec["numbers"]),
                   f"got {out.numbers}, recorded {rec['numbers']}")
        if self.bitwise:
            self.check(f"cell {idx} matches recorded digest", out.digest == rec["digest"],
                       f"got {out.digest}, recorded {rec['digest']}")

    def setup(self):
        """Build the fixture ``SETUP_REPEATS`` times, then run one warm-up op;
        returns the fixture, the median build time and the warm-up time."""
        times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            scope = self.tracer.in_op(f"setup-{rep}") if self.tracer else contextlib.nullcontext()
            with scope:
                fixture = self.wl.setup(self.workdir, self.seed, self.tracer)
            times.append(time.perf_counter() - t0)
        warm_up, _ = self.op(fixture, 0, "warm-up")
        return fixture, statistics.median(times), warm_up

    def measure(self, fixture, budget):
        """Ops in cycle order until ``budget`` seconds have passed and every
        cell has run at least once."""
        times, estimator = [], []
        t_end = time.perf_counter() + budget
        while len(times) < len(self.cells) or time.perf_counter() < t_end:
            elapsed, out = self.op(fixture, len(times) % len(self.cells), "timed")
            times.append(elapsed)
            estimator.append(out.estimator_s)
        return times, estimator

    def measure_traced(self, fixture, budget):
        """Each cell in cycle order runs twice in a row, untraced and then
        traced, until ``budget`` seconds have passed and every cell has run;
        the pairs keep a drift of the machine's speed out of the tracing
        overhead. Returns both lists of op times and the hooks that could
        not be installed."""
        untraced, traced, missing = [], [], []
        t_end = time.perf_counter() + budget
        while len(traced) < len(self.cells) or time.perf_counter() < t_end:
            idx = len(traced) % len(self.cells)
            untraced.append(self.op(fixture, idx, "untraced")[0])
            with self.tracer.in_op(f"op-{len(traced)}"), instrument(self.tracer) as missing:
                traced.append(self.op(fixture, idx, "traced")[0])
        return untraced, traced, missing

    def accuracy(self, fixture):
        mises, maes = [], []
        for idx, cell in enumerate(self.cells):
            try:
                m, a, note = self.wl.accuracy(fixture, cell, self.first[idx])
            except Exception:  # e.g. the op failed and wrote nothing to score
                self.check(f"cell {idx} can be scored", False,
                           traceback.format_exc(limit=1).strip())
                continue
            mises += m
            maes += a
            if note:
                self.notes["mae_mean"] = note
        for check in self.wl.band_checks(self.first):
            self.check(*check)
        # a run with nothing to score has failed checks already; report 0 then
        return (statistics.fmean(mises) if mises else 0.0,
                statistics.fmean(maes) if maes else 0.0)

    @property
    def failed(self):
        return self.failed_rows + sum(not ok for _, ok, _ in self.checks)

    @property
    def attempted(self):
        return self.rows + len(self.checks)


def layer_metrics(tracer, missing_hooks, times_untraced, times_traced):
    values, notes = {}, {}
    for name, (kind, source, per_call) in LAYER_SOURCES.items():
        values[name], where = aggregate(tracer, kind, source, per_call)
        if where is None:
            notes[name] = f"not applicable: no {source} {kind} in this workload"
            if missing_hooks:
                notes[name] += f" (hooks not installed: {', '.join(missing_hooks)})"
        elif where != "op":
            notes[name] = f"measured in {where} calls, outside the timed ops"
    values["trace.overhead_frac"] = (
        statistics.median(times_traced) / statistics.median(times_untraced) - 1.0)
    return values, notes


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        spec = load_spec()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    jobs = bench_env.drop_jobs_var()
    import bench_workloads

    import_s = time.perf_counter() - T_START
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = bench_workloads.WORKLOADS[args.workload]

    env = bench_env.environment(ROOT, jobs)
    with open(Path(__file__).with_name("digests.json")) as fh:
        book = json.load(fh)
    recorded = book["cells"].get(wl.name, {}).get(str(args.seed))
    bitwise = book["fingerprint"] == env["fingerprint"]
    if recorded is None:
        digest_note = "no outputs recorded for this seed: within-run repeats only"
    elif bitwise:
        digest_note = "recorded digests and output numbers checked"
    else:
        digest_note = ("recorded output numbers checked; digests were recorded in another "
                       "numeric environment and are not compared")

    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = ROOT / ".perfbench-work" / run_id
    fixture_dir = workdir / "fixture"
    fixture_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    runner = Runner(wl, args.seed, fixture_dir, tracer, recorded, bitwise,
                    bench_workloads.failed_outcome)
    try:
        fixture, build_s, warm_up_s = runner.setup()
        if args.trace:
            times_u, times_t, missing_hooks = runner.measure_traced(fixture, args.seconds)
            runner.accuracy(fixture)
            values, notes = layer_metrics(tracer, missing_hooks, times_u, times_t)
            declared = spec["per_layer"]
            op_seconds = {"untraced": times_u, "traced": times_t}
        else:
            times, estimator = runner.measure(fixture, args.seconds)
            mise_mean, mae_mean = runner.accuracy(fixture)
            tail, tail_pct = op_tail(times)
            values = {
                "setup_s": import_s + build_s + warm_up_s,
                "op_p50_s": statistics.median(times),
                "op_tail_s": tail,
                "ops_per_s": len(times) / sum(times),
                "estimator_p50_s": statistics.median(estimator),
                "failed_frac": runner.failed / runner.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "mise_mean": mise_mean,
                "mae_mean": mae_mean,
            }
            notes = {
                "setup_s": f"import {import_s:.4f} s + fixture build {build_s:.4f} s (median of "
                           f"{SETUP_REPEATS}) + warm-up op {warm_up_s:.4f} s",
                "op_tail_s": f"p{tail_pct:.1f} of {len(times)} ops",
                **runner.notes,
            }
            declared = spec["end_to_end"]
            op_seconds = {"untraced": times}
    finally:
        shutil.rmtree(fixture_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    failures = [(name, detail) for name, ok, detail in runner.checks if not ok]
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "op_seconds": op_seconds, "digests": digest_note, "environment": env,
        "metrics": {n: {"value": v, "unit": units.get(n, "frac")} for n, v in values.items()},
        "notes": notes, "failed_checks": failures, "row_errors": runner.errors,
    }
    with open(workdir / "result.json", "w") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.dump(workdir / "spans.json")

    print("environment " + json.dumps(env))
    counts = ", ".join(f"{len(v)} {k} ops" for k, v in op_seconds.items())
    print(f"workload {wl.name} seed {args.seed}: {counts}, {runner.attempted} attempted, "
          f"{runner.failed} failed; {digest_note}")
    for name, detail in failures:
        print(f"FAILED check {name}: {detail}")
    for err in runner.errors:
        print(f"FAILED row {err}")
    for name, v in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {v!r} {units.get(name, 'frac')}{note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
