"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). Expensive protocols are shared through module-scoped fixtures;
all seeds are fixed, so the suite is deterministic.
"""
import csv
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from multigraphon.baselines import jacobi_eigh, usvt_single
from multigraphon.bench import ExperimentConfig, SizeSpec, run_benchmark
from multigraphon.cli import main
from multigraphon.collection import sample_collection
from multigraphon.evaluation import mae_latent, mise
from multigraphon.graphons import Graphon
from multigraphon.jgs import (
    estimate_jgs,
    jgs_histogram,
    joint_sort,
    normalized_degrees,
    select_k,
)
from multigraphon.tv import TvParams, rof_energy, tv_denoise, tv_smooth
from oracles import jgs_histogram_naive

MASTER_SEED = 1001


def check(cid: int, ok: bool, detail: str) -> None:
    print(f"[criterion {cid:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def table1_config(gid: int, methods) -> ExperimentConfig:
    return ExperimentConfig(
        graphon_ids=(gid,),
        num_graphs=200,
        sizes=SizeSpec("uniform", lo=10, hi=100),
        trials=20,
        seed=MASTER_SEED,
        methods=methods,
        k="auto",
        lam=0.05,
        resolution=1000,
    )


@pytest.fixture(scope="module")
def table1_graphon1():
    t0 = time.perf_counter()
    records = run_benchmark(table1_config(1, ("jgs", "jgs-smooth")))
    elapsed = time.perf_counter() - t0
    plain = [r.mise for r in records if r.method == "jgs"]
    smooth = [r.mise for r in records if r.method == "jgs-smooth"]
    return plain, smooth, elapsed


@pytest.fixture(scope="module")
def table1_graphon10():
    records = run_benchmark(table1_config(10, ("jgs",)))
    return [r.mise for r in records]


def regime_sweep(fixed_m, n_levels, m_levels, trials=5):
    """Mean MISE/MAE per level for growing-n (fixed M) or growing-M (fixed n)."""
    spec = Graphon.analytic(1)
    out = {}
    levels = [("n", n) for n in n_levels] + [("M", m) for m in m_levels]
    for axis, value in levels:
        m_count, n = (fixed_m, value) if axis == "n" else (value, 30)
        mises, maes = [], []
        for trial in range(trials):
            seed = int(np.random.SeedSequence([MASTER_SEED, axis == "M", value, trial]).generate_state(1, np.uint64)[0])
            coll, latent = sample_collection(spec, [n] * m_count, seed)
            est = estimate_jgs(coll, k="auto")
            mises.append(mise(est, spec))
            ordering = joint_sort(normalized_degrees(coll).per_graph)
            maes.append(mae_latent(ordering, latent))
        out[(axis, value)] = (float(np.mean(mises)), float(np.mean(maes)))
    return out


@pytest.fixture(scope="module")
def regime_n():
    return regime_sweep(30, (30, 100, 300, 1000), ())


@pytest.fixture(scope="module")
def regime_m():
    return regime_sweep(30, (), (10, 100, 1000))


def test_c01_table1_graphon1(table1_graphon1):
    plain, _, elapsed = table1_graphon1
    mean = float(np.mean(plain))
    check(1, mean <= 1.5e-3 and elapsed < 60.0,
          f"graphon 1 mean MISE {mean:.5f} (<= 0.0015), 20 trials in {elapsed:.1f}s (< 60s)")


def test_c02_table1_graphon10(table1_graphon10):
    mean = float(np.mean(table1_graphon10))
    check(2, 0.030 <= mean <= 0.060, f"graphon 10 mean MISE {mean:.5f} in [0.030, 0.060]")


def test_c03_growing_sizes_consistency(regime_n):
    means = [regime_n[("n", n)][0] for n in (30, 100, 300, 1000)]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    check(3, decreasing and means[-1] < 1e-3,
          f"MISE by n: {['%.5f' % m for m in means]} strictly decreasing, final < 0.001")


def test_c04_growing_count_plateau(regime_m):
    m100 = regime_m[("M", 100)][0]
    m1000 = regime_m[("M", 1000)][0]
    check(4, m1000 > 0.5 * m100 and m1000 > 1e-3,
          f"MISE M=1000 {m1000:.5f} > 0.5 x MISE M=100 {m100:.5f} and > 0.001")


def test_c05_latent_mae(regime_n, regime_m):
    mae_big = regime_n[("n", 1000)][1]
    mae100 = regime_m[("M", 100)][1]
    mae1000 = regime_m[("M", 1000)][1]
    within = abs(mae1000 - mae100) <= 0.20 * mae100
    check(5, mae_big < 0.02 and within,
          f"MAE(n=1000) {mae_big:.4f} < 0.02; MAE(M=1000) {mae1000:.4f} within 20% of MAE(M=100) {mae100:.4f}")


def test_c06_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    mismatches = 0
    for trial in range(100):
        m_count = int(rng.integers(1, 6))
        sizes = rng.integers(1, 41, m_count)
        gid = int(rng.integers(1, 14))
        coll, _ = sample_collection(Graphon.analytic(gid), sizes, int(rng.integers(2**31)))
        ordering = joint_sort(normalized_degrees(coll).per_graph)
        k = int(rng.integers(1, 11))
        fast = jgs_histogram(coll, ordering, k).values
        slow = jgs_histogram_naive(coll, ordering, k).values
        mismatches += not np.array_equal(fast, slow)
    check(6, mismatches == 0, f"streaming vs merged-matrix histogram: {100 - mismatches}/100 exactly equal")


def test_c07_block_count_rule():
    got = (select_k(100, 1, 10_000), select_k(200, 4, 10_000), select_k(2, 1, 4))
    check(7, got == (8, 10, 1), f"select_k unit values {got} == (8, 10, 1)")


def test_c08_k_sweep_shape():
    spec = Graphon.analytic(1)
    ks = (4, 8, 16, 24, 32, 48, 64)
    per_k = {k: [] for k in ks}
    autos = []
    for trial in range(5):
        seed = int(np.random.SeedSequence([MASTER_SEED, 8, trial]).generate_state(1, np.uint64)[0])
        sizes = np.random.default_rng([MASTER_SEED, 8, trial, 0]).integers(80, 121, 50)
        coll, _ = sample_collection(spec, sizes, seed)
        ordering = joint_sort(normalized_degrees(coll).per_graph)
        for k in ks:
            per_k[k].append(mise(jgs_histogram(coll, ordering, k), spec))
        est = estimate_jgs(coll, k="auto")
        autos.append(mise(est, spec))
        k_auto = est.params["k"]
    means = {k: float(np.mean(v)) for k, v in per_k.items()}
    best = min(means.values())
    auto_mean = float(np.mean(autos))
    u_shape = best < means[4] and best < means[64]
    in_basin = auto_mean <= 1.5 * best
    check(8, u_shape and in_basin,
          f"sweep {[f'{means[k]:.4f}' for k in ks]}: U-shape {u_shape}, "
          f"auto k={k_auto} MISE {auto_mean:.5f} <= 1.5 x best {best:.5f}")


def test_c09_tv_smoothing(table1_graphon1):
    h = np.random.default_rng(0).random((7, 7))
    identity_gap = float(np.max(np.abs(tv_smooth(h, TvParams(lam=0.0)) - h)))

    monotone = True
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(2, 20))
        res = tv_denoise(rng.random((k, k)), TvParams(lam=float(rng.uniform(0.01, 1.0)), max_iters=300))
        monotone &= bool(np.all(np.diff(res.energies) <= 1e-12))

    checker = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam = 50.0
    out = tv_smooth(checker, TvParams(lam=lam, max_iters=5000))
    oracle = minimize(lambda x: rof_energy(x.reshape(2, 2), checker, lam), np.full(4, 0.5),
                      method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
    checker_ok = (np.max(np.abs(out - 0.5)) < 1e-3) and (np.max(np.abs(oracle.x - 0.5)) < 1e-3)

    plain, smooth, _ = table1_graphon1
    improves = float(np.mean(smooth)) <= float(np.mean(plain))
    check(9, identity_gap <= 1e-12 and monotone and checker_ok and improves,
          f"lam=0 gap {identity_gap:.1e}; energies non-increasing {monotone}; "
          f"checkerboard -> 0.5 {checker_ok}; smooth {np.mean(smooth):.5f} <= plain {np.mean(plain):.5f}")


def test_c10_eigensolver_oracle():
    k3 = np.ones((3, 3)) - np.eye(3)
    recon = usvt_single(k3, tau=0.2 * np.sqrt(3))
    k3_exact = np.allclose(recon, k3, atol=1e-8)

    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((20, 20))
        a = 0.5 * (a + a.T)
        w, v = jacobi_eigh(a)
        worst = max(worst, float(np.linalg.norm((v * w) @ v.T - a)))
    check(10, k3_exact and worst <= 1e-8,
          f"K3 reconstruction exact {k3_exact}; worst 20x20 Frobenius error {worst:.2e} <= 1e-8")


def test_c11_benchmark_determinism(tmp_path):
    args = ["benchmark", "--graphon", "1,10", "--M", "5", "--sizes", "uniform:8:20",
            "--trials", "2", "--seed", "17", "--method", "jgs", "--method", "jgs-smooth",
            "--res", "200", "--out"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    main(args + [str(out1)])
    main(args + [str(out2)])

    def stripped(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("seconds")
        return [tuple(c for i, c in enumerate(r) if i != drop) for r in rows]

    same = stripped(out1) == stripped(out2)
    check(11, same, "two benchmark runs byte-identical outside the timing column")


def test_c12_near_linear_scaling():
    spec = Graphon.analytic(1)
    colls = {n: sample_collection(spec, [n] * 10, MASTER_SEED + n)[0] for n in (1000, 2000)}
    times = {1000: [], 2000: []}
    for n in colls:
        estimate_jgs(colls[n], k="auto")  # warm-up outside the timed runs
    for _ in range(5):  # interleaved so load drift hits both sizes alike
        for n in (1000, 2000):
            t0 = time.perf_counter()
            estimate_jgs(colls[n], k="auto")
            times[n].append(time.perf_counter() - t0)
    medians = {n: float(np.median(ts)) for n, ts in times.items()}
    ratio = medians[2000] / medians[1000]
    check(12, ratio <= 6.0,
          f"median estimator time {medians[1000]:.4f}s (n=1000) vs {medians[2000]:.4f}s (n=2000), ratio {ratio:.2f} <= 6")
