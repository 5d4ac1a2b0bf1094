"""Byte-level oracles for the eigensolver, the TV iteration and the
per-graph degree-sorted histogram.

``frozen_jacobi_eigh``, ``frozen_tv_denoise`` and ``frozen_sas_single`` are
verbatim copies of the straightforward implementations the package once
shipped: one rotation at a time on separate row and column copies, one grid
at a time with fresh temporaries, and one block at a time on a dense
degree-sorted adjacency. The package's versions must reproduce them byte for
byte, which pins every rounding step of the cyclic Jacobi sweep and of the
Chambolle iteration, including when and how a grid stops, and every count
and division of the histogram. Pinned sha256 prefixes hold the bytes of the
jgs estimates of a Table-1 cell, and of every graphon's sampled collection,
point values and canonical truth grids.
"""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigraphon import baselines, tv
from multigraphon.baselines import estimate_sas_pool, jacobi_eigh, pool_estimates
from multigraphon.bench import SizeSpec, estimate, sample_cell
from multigraphon.collection import _graph_edges, sample_collection
from multigraphon.graphons import Graphon, canonical_rearrangement, degree_function, eval_grid, graphon_eval
from multigraphon.jgs import joint_sort, normalized_degrees
from multigraphon.tv import TvParams, TvResult, tv_denoise, tv_smooth
from oracles import NO_EDGES, adjacency, collection_of, frozen_joint_rank


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


def frozen_sas_single(graph, h=None, lam=0.05, smooth=True):
    n, edges = graph
    if n < 2:
        raise ValueError("single-graph histogram needs at least 2 nodes")
    if h is None:
        h = max(1, math.ceil(math.log(n)))
    degrees = np.bincount(np.asarray(edges).ravel(), minlength=n).astype(np.int64)
    order = np.argsort(degrees / (n - 1), kind="stable")
    a = adjacency(n, edges)[np.ix_(order, order)]
    nb = max(1, math.ceil(n / h))
    bounds = [min(b * h, n) for b in range(nb + 1)]
    bounds[-1] = n
    blocks = np.zeros((nb, nb))
    for s in range(nb):
        rs = slice(bounds[s], bounds[s + 1])
        ns = bounds[s + 1] - bounds[s]
        for t in range(s, nb):
            ct = slice(bounds[t], bounds[t + 1])
            nt = bounds[t + 1] - bounds[t]
            total = float(a[rs, ct].sum())
            pairs = ns * nt - (ns if s == t else 0)
            blocks[s, t] = blocks[t, s] = total / max(1, pairs)
    if smooth:
        blocks = tv_smooth(blocks, TvParams(lam=lam))
    return blocks


def graphs_of(coll):
    """The (n, edges) pairs of a collection's graphs, local node ids."""
    return list(zip(coll.sizes, _graph_edges(coll)))


def frozen_sas_pool(coll, h, lam):
    """``estimate_sas_pool``'s values: the frozen histogram of every graph of
    >= 2 nodes at the pool's bin width, pooled on the finest grid."""
    singles = [frozen_sas_single(g, h=h, lam=lam) for g in graphs_of(coll) if g[0] >= 2]
    return pool_estimates(singles, max(s.shape[0] for s in singles))


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


def random_adjacency(rng, prob):
    """A simple graph's adjacency with independent edges of probability ``prob[i, j]``."""
    a = np.triu((rng.random(prob.shape) < prob).astype(float), 1)
    return a + a.T


class TestJacobiBytes:
    @pytest.mark.parametrize("n", [1, 2, 3, 24, 40])
    def test_random_symmetric(self, n):
        rng = np.random.default_rng(100 + n)
        a = symmetric(rng, n)
        w, v = jacobi_eigh(a)
        w0, v0 = frozen_jacobi_eigh(a)
        assert same_bytes(w, w0) and same_bytes(v, v0)

    @pytest.mark.parametrize("a", [
        *[pytest.param(random_adjacency(np.random.default_rng(n), np.full((n, n), 0.4)), id=str(n))
          for n in (2, 3, 7, 24)],
        # Table-1 size: two communities of 50 nodes
        pytest.param(random_adjacency(np.random.default_rng(100),
                                      np.kron([[0.5, 0.1], [0.1, 0.3]], np.ones((50, 50)))),
                     id="two-community-100"),
        # K25: the default USVT threshold is exactly 1, and -1 is an eigenvalue
        pytest.param(np.ones((25, 25)) - np.eye(25), id="K25"),
        # isolated nodes 0, 4 and 8 and a path 3-5-6-7 hanging off a
        # triangle: zero pairs are skipped mid-sweep
        pytest.param(adjacency(9, [[1, 2], [1, 3], [2, 3], [3, 5], [5, 6], [6, 7]]),
                     id="isolated-and-pendant"),
    ])
    def test_adjacency(self, a):
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
    """Why ``frozen_tv_denoise`` stops: its loop replayed step for step, each
    exit named; the replay must end where the frozen run ends."""
    h = np.asarray(h, dtype=float)
    res = frozen_tv_denoise(h, params)
    if params.lam == 0.0:
        return "tolerance"  # u = h is the exact minimizer
    lam, tau = params.lam, params.tau
    px, py, u = np.zeros_like(h), np.zeros_like(h), h.copy()
    energy, reason = frozen_rof_energy(u, h, lam), "cap"
    for _ in range(params.max_iters):
        gx, gy = _grad(_div(px, py) - h / lam)
        scale = 1.0 + tau * np.hypot(gx, gy)
        px_new, py_new = (px + tau * gx) / scale, (py + tau * gy) / scale
        change = max(np.max(np.abs(px_new - px)), np.max(np.abs(py_new - py)))
        u_new = h - lam * _div(px_new, py_new)
        energy_new = frozen_rof_energy(u_new, h, lam)
        if energy_new > energy:
            reason = "energy"
            break
        px, py, u, energy = px_new, py_new, u_new, energy_new
        if change <= params.tol * max(1.0, float(np.max(np.abs(px)))):
            reason = "tolerance"
            break
    assert same_bytes(u, res.values) and energy == res.energies[-1]
    return reason


def signed_zero_grid():
    h = symmetric(np.random.default_rng(13), 6)
    h[0, 3], h[3, 0] = -0.0, 0.0
    h[2, 2] = -0.0
    return h


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
        # symmetric grids, which run with one dual component ("energy stop"
        # is symmetric too)
        ("symmetric, tolerance stop", symmetric(rng, 7), TvParams(lam=0.05, tol=1e-2)),
        ("symmetric, cap", symmetric(rng, 8), TvParams(lam=2.0, max_iters=3)),
        ("symmetric, long run", symmetric(rng, 9), TvParams(lam=2.0, max_iters=1000, tol=1e-9)),
        # equal to its transpose under ==, but -0.0 faces 0.0: two components
        ("signed zeros", signed_zero_grid(), TvParams(lam=0.1)),
    ]
    return cases


def mixed_stack():
    rng = np.random.default_rng(9)
    grids = [rng.random((6, 6)) for _ in range(5)]
    grids += [np.full((6, 6), 0.2), np.indices((6, 6)).sum(axis=0) % 2 * 1.0, energy_stop_grid()]
    grids += [np.clip(0.5 + 0.01 * rng.standard_normal((6, 6)), 0, 1) for _ in range(3)]
    return np.stack([0.5 * (g + g.T) for g in grids])


MIXED_STACK_PARAMS = (TvParams(), TvParams(lam=0.02, tol=1e-3), TvParams(lam=5.0, max_iters=40))


class TestTvBytes:
    @pytest.mark.parametrize("name, h, params", tv_cases(), ids=[c[0] for c in tv_cases()])
    def test_single_grid(self, name, h, params):
        res = tv_denoise(h, params)
        assert_same_result(res, frozen_tv_denoise(h, params))
        if same_bytes(h, h.T):
            assert same_bytes(res.values, res.values.T)

    def test_stop_reasons_covered(self):
        reasons = {name: stop_reason(h, p) for name, h, p in tv_cases() if p.lam > 0}
        assert reasons["square"] == reasons["tolerance stop"] == "tolerance"
        assert reasons["energy stop"] == reasons["one row, energy stop"] == "energy"
        assert reasons["max iters"] == reasons["rectangular"] == "cap"
        assert reasons["long run"] == reasons["symmetric, long run"] == "tolerance"
        assert reasons["symmetric, tolerance stop"] == "tolerance"
        assert reasons["symmetric, cap"] == "cap"
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
        stack = mixed_stack()
        for p in MIXED_STACK_PARAMS:
            results = tv._denoise_stack(stack, p)
            for g, res in zip(stack, results):
                assert_same_result(res, frozen_tv_denoise(g, p))
                assert same_bytes(res.values, res.values.T)
            assert len({res.iterations for res in results}) > 1
            out = tv_smooth(stack, p)
            assert out.shape == stack.shape
            for g, o in zip(stack, out):
                assert same_bytes(o, frozen_tv_smooth(g, p))
                assert same_bytes(o, tv_smooth(g, p))

    def test_symmetric_and_asymmetric_grids_in_one_stack(self):
        # one asymmetric grid sends the whole stack down the two-component path
        rng = np.random.default_rng(14)
        stack = np.stack([symmetric(rng, 6), rng.random((6, 6)), energy_stop_grid(), signed_zero_grid()])
        for p in MIXED_STACK_PARAMS:
            assert_same_as_frozen(stack, p)
            for g, o in zip(stack, tv_smooth(stack, p)):
                assert same_bytes(o, frozen_tv_smooth(g, p))

    @pytest.mark.parametrize("graphon_id, seed, sizes, M, k", [
        (1, 7, "uniform:10:100", 200, 25),  # the Table-1 cells of the ROADMAP
        (10, 7, "uniform:10:100", 200, 25),
        (1, 1, "fixed:1000", 4, 44),  # a large_graphs cell
    ])
    def test_jgs_histograms(self, graphon_id, seed, sizes, M, k):
        coll, _, _ = sample_cell(seed, graphon_id, 0, SizeSpec.parse(sizes), M)
        h = estimate("jgs", coll).values
        assert h.shape == (k, k)
        res = tv_denoise(h)
        assert_same_result(res, frozen_tv_denoise(h))
        assert res.stop == stop_reason(h, TvParams())
        assert same_bytes(res.values, res.values.T)
        assert same_bytes(tv_smooth(h), frozen_tv_smooth(h))

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


def assert_same_as_frozen(stack, params):
    """Each grid of the batched run equals its frozen run, stop reason included."""
    results = tv._denoise_stack(stack, params)
    for g, res in zip(stack, results):
        assert_same_result(res, frozen_tv_denoise(g, params))
        assert res.stop == stop_reason(g, params)
    return results


class TestTvBlocks:
    """The iteration runs in blocks of ``tv._BLOCK`` steps; none of its
    outputs may depend on where a block boundary falls."""

    @pytest.mark.parametrize("name, h, params", tv_cases(), ids=[c[0] for c in tv_cases()])
    def test_stop_reason(self, name, h, params):
        assert tv_denoise(h, params).stop == stop_reason(h, params)

    def test_mixed_stack_stop_reasons(self):
        stack = mixed_stack()
        for p in MIXED_STACK_PARAMS:
            results = assert_same_as_frozen(stack, p)
            assert len({res.stop for res in results}) > 1

    @pytest.mark.parametrize("max_iters", [1, 15, 16, 17, 33, 200])
    def test_cap_around_block_boundaries(self, max_iters):
        # grids that run to the cap, stop on the tolerance or stop on an energy
        # rise (after 11 steps), each with the cap before, on and after a boundary
        rng = np.random.default_rng(40 + max_iters)
        grids = [rng.random((6, 6)), energy_stop_grid(), np.full((6, 6), 0.4),
                 np.clip(0.5 + 0.01 * rng.standard_normal((6, 6)), 0, 1)]
        stack = np.stack([0.5 * (g + g.T) for g in grids])
        for p in (TvParams(max_iters=max_iters), TvParams(lam=0.02, tol=1e-3, max_iters=max_iters)):
            assert_same_as_frozen(stack, p)
        # without a tolerance the first grid runs ~500 steps before its energy rises
        results = assert_same_as_frozen(stack, TvParams(lam=2.0, tol=0.0, max_iters=max_iters))
        assert results[0].iterations == max_iters and results[0].stop == "cap"

    def test_stops_in_different_blocks_and_offsets(self):
        rng = np.random.default_rng(12)
        grids = [rng.random((5, 5)) for _ in range(6)] + [energy_stop_grid()[:5, :5], np.full((5, 5), 0.3)]
        stack = np.stack([0.5 * (g + g.T) for g in grids])
        for p in (TvParams(lam=0.1, tol=1e-4), TvParams(lam=0.05, tol=3e-4)):
            results = assert_same_as_frozen(stack, p)
            steps = [res.iterations for res in results]
            assert len({s // tv._BLOCK for s in steps}) > 2
            assert len({s % tv._BLOCK for s in steps}) > 2
            assert {res.stop for res in results} == {"tolerance", "energy"}
        # under the second parameters one grid meets the tolerance on the last
        # step of the first block
        assert tv._BLOCK in steps

    @pytest.mark.parametrize("shape", [(4, 1, 7), (4, 7, 1), (3, 1, 1), (5, 1, 2)])
    def test_one_row_or_column_stack(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = rng.random(shape)
        for p in (TvParams(lam=0.2), TvParams(lam=0.05, tol=1e-3, max_iters=30), TvParams(lam=2.0, max_iters=17)):
            assert_same_as_frozen(stack, p)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
        lam=st.floats(0.005, 5.0),
        tol=st.floats(1e-8, 1e-2),
        max_iters=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
        symmetrize=st.booleans(),
    )
    def test_any_stack_matches_frozen(self, shape, lam, tol, max_iters, seed, symmetrize):
        if symmetrize:
            shape = shape[:2] + shape[1:2]
        stack = np.random.default_rng(seed).random(shape)
        if symmetrize:
            stack = 0.5 * (stack + stack.swapaxes(1, 2))
        assert_same_as_frozen(stack, TvParams(lam=lam, tol=tol, max_iters=max_iters))


def test_sas_pool_equals_per_graph_pooling():
    # several block shapes (n from 2 to 40 with a shared bin width) plus singletons
    sizes = [1, 2, 3, 5, 8, 9, 9, 12, 20, 1, 33, 40, 40, 17]
    coll, _ = sample_collection(Graphon.analytic(4), sizes, seed=21)
    graphs = graphs_of(coll) + [(6, NO_EDGES)]
    coll = collection_of(graphs)
    for lam in (0.05, 0.3, 0.01):
        est = estimate_sas_pool(coll, lam=lam)
        width = est.params["h"]
        assert len({frozen_sas_single(g, h=width, smooth=False).shape for g in graphs if g[0] >= 2}) > 2
        assert same_bytes(est.values, frozen_sas_pool(coll, width, lam))
        assert est.params["skipped_singletons"] == 2


@st.composite
def graph_lists(draw):
    """1 to 30 graphs of 1 to 60 nodes; each is edgeless, complete or
    Erdos-Renyi at a drawn density, so degrees tie often."""
    graphs = []
    for _ in range(draw(st.integers(1, 30))):
        n = draw(st.integers(1, 60))
        p = draw(st.sampled_from([0.0, 1.0, 0.05, 0.3, 0.5, 0.9]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        i, j = np.triu_indices(n, 1)
        hit = rng.random(i.size) < p
        graphs.append((n, np.stack([i[hit], j[hit]], axis=1)))
    return graphs


@settings(max_examples=30, deadline=None)
@given(graphs=graph_lists(), data=st.data())
def test_sas_matches_frozen_double_loop(graphs, data):
    n_max = max(n for n, _ in graphs)
    h = data.draw(st.one_of(st.none(), st.integers(1, n_max + 3)), label="h")
    lam = data.draw(st.sampled_from([0.05, 0.3]), label="lam")
    for g in graphs:
        if g[0] >= 2:
            width = max(1, math.ceil(math.log(g[0]))) if h is None else h
            blocks = baselines._sas_blocks(collection_of([g]), width)[0]
            assert same_bytes(blocks, frozen_sas_single(g, h=h, smooth=False))
            want = frozen_sas_single(g, h=h, lam=lam)
            assert same_bytes(tv_smooth(blocks, TvParams(lam=lam)), want)
    if n_max >= 2:
        coll = collection_of(graphs)
        est = estimate_sas_pool(coll, lam=lam)
        width = max(1, math.ceil(math.log(n_max)))
        assert est.params["h"] == width
        assert same_bytes(est.values, frozen_sas_pool(coll, width, lam))
        assert est.params["skipped_singletons"] == sum(n < 2 for n, _ in graphs)


@pytest.mark.parametrize("graphon_id", [1, 10])
def test_sas_pool_matches_frozen_on_table1_cell(graphon_id):
    # the Table-1 cell of the ROADMAP: M=200, n ~ U(10, 100), master seed 7, trial 0
    coll, _, _ = sample_cell(7, graphon_id, 0, SizeSpec.parse("uniform:10:100"), 200)
    est = estimate_sas_pool(coll)
    assert same_bytes(est.values, frozen_sas_pool(coll, est.params["h"], 0.05))


def test_sas_blocks_with_more_than_65536_nodes():
    # N > 2**16: the (graph, degree) rank key takes both 16-bit radix passes;
    # sparse graphs leave many degree ties for the index tie-break
    rng = np.random.default_rng(21)
    graphs = []
    for n in rng.integers(150, 300, 300):
        i, j = np.triu_indices(n, 1)
        hit = rng.random(i.size) < 4 / n
        graphs.append((int(n), np.stack([i[hit], j[hit]], axis=1)))
    coll = collection_of(graphs)
    assert coll.total_nodes > 1 << 16
    for g, table in zip(graphs, baselines._sas_blocks(coll, 40)):
        assert same_bytes(table, frozen_sas_single(g, h=40, smooth=False))


@pytest.mark.parametrize("graphon_id, digests", [
    (1, ("70528ba4611d7d86", "51bc730df887953a", "f5093e7bec5afee6")),
    (10, ("ce3f316bd5049c3e", "72087eaa28cacf77", "ac6e73366e611b21")),
])
def test_jgs_bytes_pinned_on_table1_cell(graphon_id, digests):
    # sha256 prefixes of the jgs and jgs-smooth values and the joint ranks,
    # recorded with the comparison sort that preceded the degree-level sort
    coll, _, _ = sample_cell(7, graphon_id, 0, SizeSpec.parse("uniform:10:100"), 200)
    report = normalized_degrees(coll)
    rank = joint_sort(report).rank
    assert rank.tobytes() == frozen_joint_rank(report.per_graph).tobytes()
    got = [estimate(m, coll).values.tobytes() for m in ("jgs", "jgs-smooth")] + [rank.tobytes()]
    assert tuple(hashlib.sha256(b).hexdigest()[:16] for b in got) == digests


def test_sas_tables_are_ragged():
    # 500 graphs of 3 nodes and one of 600 at the default bin width 7: ragged
    # tables hold 500 + 86**2 = 7,896 cells, while tables padded to the largest
    # graph's would hold 501 * 86**2 = 3.7M cells, 29.6 MB per float array
    rng = np.random.default_rng(3)
    i, j = np.triu_indices(600, 1)
    hit = rng.random(i.size) < 0.05
    graphs = [(3, [[0, 1], [1, 2]])] * 500 + [(600, np.stack([i[hit], j[hit]], axis=1))]
    coll = collection_of(graphs)
    tracemalloc.start()
    try:
        tables = baselines._sas_blocks(coll, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.size for t in tables) == 500 + 86**2
    assert peak < 4 * 2**20


STEP_SPEC = Graphon.step([[0.7, 0.1, 0.3], [0.1, 0.4, 0.0], [0.3, 0.0, 0.9]])


@pytest.mark.parametrize("graphon_id, digests", [
    (1, ("06d92c731f74b273", "cc102d5dd890f715", "b9b6f79bda731c6d", "09dd958059f1b3f6")),
    (2, ("ba67b6f62d587dee", "4bc29dafbf2d465a", "2e76380fbded749b", "13c68db873846808")),
    (3, ("4feea49072879b83", "9dec5236e97931b9", "cede441cb138c765", "122a4643ce86ce2d")),
    (4, ("c6df7b6bd8387e49", "2290295d7a1c3839", "b23a57aa7550a3ed", "c94e8341043e24fd")),
    (5, ("458bfa814227a277", "566d11830afa455d", "3f6457adf25252ff", "1d7ad7c4135c6a05")),
    (6, ("87358e37f7f648c0", "68e5968b3ac871de", "5885c84a88c9aa1b", "b999817889f155ec")),
    (7, ("38bf62c989d9ee7b", "163dfd7de1d5034d", "b24889a939464324", "11ab533daf8bea36")),
    (8, ("c7f54ad9d0cde0a8", "71b02bd3e8db3c0b", "3b3c79ee2de7a303", "7499bbf339f003f4")),
    (9, ("9f3ac534fb1208bf", "fb09cd1152ff5cb4", "3fce82400c4a1138", "f283710db72a5e21")),
    (10, ("546d6a2f8114f6c0", "85c4be9b0d548109", "ace40049231148bb", "15dee8865deea008")),
    (11, ("0ee10e0265cd0879", "3c1f2a1cd18aaa37", "9e51ab01d1755ca9", "b9a2dc340be232c8")),
    (12, ("7d0c7d19a5138506", "7260a5b00856ea0a", "adb064048b0c998e", "56f0490be6df0464")),
    (13, ("5068742165b7c859", "0c4d3de8f168c970", "7bff63e0c2958d27", "948d79f0a10d5300")),
    ("step", ("383fa351bb34e7b9", "24214da0e6c6f455", "a20bc2a61e132a04", "2f097835e6629435")),
])
def test_graphon_bytes_pinned(graphon_id, digests):
    # sha256 prefixes, recorded at commit ed7f997, of: a sampled collection
    # (edge offsets, global edges, latents; n=363 puts a chunk boundary of the
    # pair stream inside a graph); W on a 7x7 midpoint grid, the degree
    # function at 9 points and W at 1000 random pairs in either order; and
    # the canonical truth grids at R=250 and R=1000
    spec = STEP_SPEC if graphon_id == "step" else Graphon.analytic(graphon_id)
    coll, latent = sample_collection(spec, [1, 2, 3, 17, 60, 363, 100], seed=31)
    u, v = np.random.default_rng(0).random((2, 1000))
    parts = [
        (coll.edge_offsets, coll.edges, np.concatenate(latent)),
        (eval_grid(spec, 7), degree_function(spec, (np.arange(9) + 0.25) / 9, resolution=250),
         graphon_eval(spec, u, v)),
        (canonical_rearrangement(spec, 250).grid,),
        (canonical_rearrangement(spec, 1000).grid,),
    ]
    got = []
    for arrays in parts:
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
        got.append(digest.hexdigest()[:16])
    assert tuple(got) == digests
