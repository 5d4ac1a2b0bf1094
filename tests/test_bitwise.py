"""Byte-level oracles for the eigensolver and the TV iteration.

``frozen_jacobi_eigh`` and ``frozen_tv_denoise`` are verbatim copies of the
straightforward implementations the package once shipped: one rotation at
a time on separate row and column copies, and one grid at a time with fresh
temporaries. The package's versions must reproduce them byte for byte,
which pins every rounding step of the cyclic Jacobi sweep and of the
Chambolle iteration, including when and how a grid stops.
"""
import math

import numpy as np
import pytest

from multigraphon import tv
from multigraphon.baselines import estimate_sas_pool, jacobi_eigh, pool_estimates, sas_single
from multigraphon.collection import Graph, GraphCollection, sample_collection
from multigraphon.graphons import Graphon
from multigraphon.tv import TvParams, TvResult, tv_denoise, tv_smooth


def frozen_jacobi_eigh(a, tol=1e-10, max_sweeps=100):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    a = a.copy()
    v = np.eye(n)
    if n == 1:
        return np.diag(a).copy(), v

    def off_norm(m):
        od = m.copy()
        np.fill_diagonal(od, 0.0)
        return float(np.linalg.norm(od))

    for _ in range(max_sweeps):
        if off_norm(a) <= tol:
            return np.diag(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                phi = 0.5 * math.atan2(2.0 * apq, a[q, q] - a[p, p])
                c, s = math.cos(phi), math.sin(phi)
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if off_norm(a) <= tol:
        return np.diag(a).copy(), v
    raise ArithmeticError("no convergence")


def _grad(u):
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:-1, :] = u[1:, :] - u[:-1, :]
    gy[:, :-1] = u[:, 1:] - u[:, :-1]
    return gx, gy


def _div(px, py):
    out = np.zeros_like(px)
    if px.shape[0] >= 2:
        out[0, :] += px[0, :]
        out[1:-1, :] += px[1:-1, :] - px[:-2, :]
        out[-1, :] -= px[-2, :]
    if px.shape[1] >= 2:
        out[:, 0] += py[:, 0]
        out[:, 1:-1] += py[:, 1:-1] - py[:, :-2]
        out[:, -1] -= py[:, -2]
    return out


def frozen_rof_energy(u, ref, lam):
    gx, gy = _grad(u)
    tv_term = float(np.sum(np.hypot(gx, gy)))
    return float(np.sum((u - ref) ** 2)) / (2.0 * lam) + tv_term


def frozen_tv_denoise(h, params=TvParams()):
    h = np.asarray(h, dtype=float)
    if params.lam == 0.0:
        return TvResult(h.copy(), np.array([frozen_rof_energy(h, h, 1.0)]), 0)
    lam, tau = params.lam, params.tau
    px = np.zeros_like(h)
    py = np.zeros_like(h)
    u = h.copy()
    energies = [frozen_rof_energy(u, h, lam)]
    iterations = 0
    for _ in range(params.max_iters):
        gx, gy = _grad(_div(px, py) - h / lam)
        scale = 1.0 + tau * np.hypot(gx, gy)
        px_new = (px + tau * gx) / scale
        py_new = (py + tau * gy) / scale
        change = max(np.max(np.abs(px_new - px)), np.max(np.abs(py_new - py)))
        u_new = h - lam * _div(px_new, py_new)
        energy_new = frozen_rof_energy(u_new, h, lam)
        if energy_new > energies[-1]:
            break
        px, py, u = px_new, py_new, u_new
        energies.append(energy_new)
        iterations += 1
        if change <= params.tol * max(1.0, float(np.max(np.abs(px)))):
            break
    return TvResult(u, np.asarray(energies), iterations)


def frozen_tv_smooth(h, params=TvParams()):
    u = frozen_tv_denoise(h, params).values
    return np.clip(0.5 * (u + u.T), 0.0, 1.0)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_result(got, want):
    assert same_bytes(got.values, want.values)
    assert same_bytes(got.energies, want.energies)
    assert got.iterations == want.iterations


def symmetric(rng, n, scale=1.0):
    a = scale * rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestJacobiBytes:
    @pytest.mark.parametrize("n", [1, 2, 3, 24, 40])
    def test_random_symmetric(self, n):
        rng = np.random.default_rng(100 + n)
        a = symmetric(rng, n)
        w, v = jacobi_eigh(a)
        w0, v0 = frozen_jacobi_eigh(a)
        assert same_bytes(w, w0) and same_bytes(v, v0)

    @pytest.mark.parametrize("n", [2, 3, 7, 24])
    def test_adjacency(self, n):
        rng = np.random.default_rng(n)
        a = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
        a = a + a.T
        for got, want in zip(jacobi_eigh(a), frozen_jacobi_eigh(a)):
            assert same_bytes(got, want)

    @pytest.mark.parametrize("a", [
        np.diag([3.0, -1.0, 2.0, 0.0]),  # no off-diagonal entry: no rotation
        np.zeros((5, 5)),
        np.array([[1.0, 0.0, 2.0], [0.0, 5.0, 0.0], [2.0, 0.0, 1.0]]),  # skipped pairs
        np.array([[2.0, -0.0], [-0.0, 1.0]]),
    ])
    def test_zero_off_diagonals(self, a):
        for got, want in zip(jacobi_eigh(a), frozen_jacobi_eigh(a)):
            assert same_bytes(got, want)

    def test_eigenvectors_are_c_contiguous(self):
        _, v = jacobi_eigh(symmetric(np.random.default_rng(1), 6))
        assert v.flags.c_contiguous

    def test_off_diagonal_norm_in_message(self):
        a = symmetric(np.random.default_rng(6), 8)
        with pytest.raises(ArithmeticError, match=r"sweeps .*off-diagonal norm"):
            jacobi_eigh(a, max_sweeps=1, tol=1e-300)


def energy_stop_grid():
    # a symmetric 6x6 grid whose run ends after 11 steps because the 12th
    # would raise the energy
    rng = np.random.default_rng(11)
    for _ in range(4):
        h = rng.random((6, 6))
    return 0.5 * (h + h.T)


def stop_reason(h, params):
    res = frozen_tv_denoise(h, params)
    if res.iterations == params.max_iters:
        return "cap"
    # with no tolerance the run goes on unless the next step raises the energy
    more = frozen_tv_denoise(h, TvParams(lam=params.lam, tol=0.0, max_iters=res.iterations + 1))
    return "energy" if more.iterations == res.iterations else "tolerance"


def tv_cases():
    rng = np.random.default_rng(7)
    cases = [
        ("square", rng.random((6, 6)), TvParams()),
        ("rectangular", rng.random((4, 9)), TvParams(lam=0.3)),
        ("one column", rng.random((5, 1)), TvParams(lam=0.2)),
        ("one cell", np.array([[0.4]]), TvParams()),
        ("constant", np.full((4, 4), 0.37), TvParams(lam=0.5)),
        # loose tolerance: stops by tolerance long before max_iters
        ("tolerance stop", rng.random((6, 6)), TvParams(lam=0.05, tol=1e-2)),
        ("energy stop", energy_stop_grid(), TvParams()),
        ("one row, energy stop", rng.random((1, 7)), TvParams(lam=0.2)),
        ("checkerboard", np.indices((6, 6)).sum(axis=0) % 2 * 1.0, TvParams(lam=50.0, max_iters=5000)),
        ("max iters", rng.random((8, 8)), TvParams(lam=2.0, max_iters=3)),
        ("lambda zero", rng.random((3, 3)), TvParams(lam=0.0)),
        ("large", rng.random((120, 90)), TvParams(lam=0.1, max_iters=20)),
        # more steps than the energy record first holds
        ("long run", rng.random((9, 9)), TvParams(lam=2.0, max_iters=1000, tol=1e-9)),
    ]
    return cases


class TestTvBytes:
    @pytest.mark.parametrize("name, h, params", tv_cases(), ids=[c[0] for c in tv_cases()])
    def test_single_grid(self, name, h, params):
        assert_same_result(tv_denoise(h, params), frozen_tv_denoise(h, params))

    def test_stop_reasons_covered(self):
        reasons = {name: stop_reason(h, p) for name, h, p in tv_cases() if p.lam > 0}
        assert reasons["square"] == reasons["tolerance stop"] == "tolerance"
        assert reasons["energy stop"] == reasons["one row, energy stop"] == "energy"
        assert reasons["max iters"] == reasons["rectangular"] == "cap"
        assert reasons["long run"] == "tolerance"
        long_run = next(frozen_tv_denoise(h, p) for name, h, p in tv_cases() if name == "long run")
        assert 257 < long_run.iterations < 1000

    def test_random_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            r, c = (int(x) for x in rng.integers(1, 12, size=2))
            p = TvParams(lam=float(rng.uniform(0.005, 3.0)), max_iters=int(rng.integers(1, 400)),
                         tol=float(10.0 ** rng.uniform(-8, -2)))
            h = rng.random((r, c))
            assert_same_result(tv_denoise(h, p), frozen_tv_denoise(h, p))

    def test_mixed_stack_equals_each_grid(self):
        # grids of one stack stop at different steps and for different reasons
        rng = np.random.default_rng(9)
        grids = [rng.random((6, 6)) for _ in range(5)]
        grids += [np.full((6, 6), 0.2), np.indices((6, 6)).sum(axis=0) % 2 * 1.0, energy_stop_grid()]
        grids += [np.clip(0.5 + 0.01 * rng.standard_normal((6, 6)), 0, 1) for _ in range(3)]
        stack = np.stack([0.5 * (g + g.T) for g in grids])
        for p in (TvParams(), TvParams(lam=0.02, tol=1e-3), TvParams(lam=5.0, max_iters=40)):
            results = tv._denoise_stack(stack, p)
            for g, res in zip(stack, results):
                assert_same_result(res, frozen_tv_denoise(g, p))
            assert len({res.iterations for res in results}) > 1
            out = tv_smooth(stack, p)
            assert out.shape == stack.shape
            for g, o in zip(stack, out):
                assert same_bytes(o, frozen_tv_smooth(g, p))
                assert same_bytes(o, tv_smooth(g, p))

    def test_nonfinite_stack_rejected(self):
        stack = np.zeros((3, 4, 4))
        stack[2, 1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            tv_smooth(stack)

    def test_rof_energy(self):
        rng = np.random.default_rng(10)
        for shape in ((1, 1), (1, 5), (6, 1), (7, 4), (40, 40)):
            u, ref = rng.random(shape), rng.random(shape)
            assert tv.rof_energy(u, ref, 0.3) == frozen_rof_energy(u, ref, 0.3)


def test_sas_pool_equals_per_graph_pooling():
    # several block shapes (n from 2 to 40 with a shared bin width) plus singletons
    sizes = [1, 2, 3, 5, 8, 9, 9, 12, 20, 1, 33, 40, 40, 17]
    coll, _ = sample_collection(Graphon.analytic(4), sizes, seed=21)
    coll = GraphCollection(list(coll.graphs) + [Graph(6, np.empty((0, 2), dtype=np.int64))])
    for h, lam in ((None, 0.05), (4, 0.3), (1, 0.01)):
        est = estimate_sas_pool(coll, h=h, lam=lam)
        width = est.params["h"]
        singles = [sas_single(g, h=width, lam=lam) for g in coll.graphs if g.n >= 2]
        assert len({s.shape for s in singles}) > 2
        want = pool_estimates(singles, max(s.shape[0] for s in singles))
        assert same_bytes(est.values, want)
        assert est.params["skipped_singletons"] == 2
