import math
import re

import numpy as np
import pytest

from multigraphon.baselines import (
    _sas_blocks,
    estimate_sas_pool,
    estimate_usvt_pool,
    jacobi_eigh,
    pool_estimates,
    usvt_single,
)
from multigraphon.bench import SizeSpec, sample_cell
from multigraphon.collection import Graph, GraphCollection, sample_collection
from multigraphon.graphons import Graphon
from multigraphon.tv import TvParams, tv_smooth

NO_EDGES = np.empty((0, 2), dtype=np.int64)


def complete_graph(n):
    edges = [[i, j] for i in range(n) for j in range(i + 1, n)]
    return Graph(n, np.array(edges))


def sas_blocks(graph, h):
    """The unsmoothed degree-sorted histogram of one graph, as sas-pool
    builds it for every graph of a collection."""
    return _sas_blocks(GraphCollection((graph,)), h)[0]


def char_poly_roots_3x3(a):
    # eigenvalues from the characteristic cubic via companion-matrix roots;
    # independent of the Jacobi iteration
    tr = np.trace(a)
    minors = (
        a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    )
    det = np.linalg.det(a)
    return np.sort(np.roots([-1.0, tr, -minors, det]).real)


class TestJacobi:
    def test_k3_reconstruction_and_spectrum(self):
        a = complete_graph(3).adjacency()
        w, v = jacobi_eigh(a)
        assert np.allclose((v * w) @ v.T, a, atol=1e-12)
        assert np.allclose(np.sort(w), [-1.0, -1.0, 2.0], atol=1e-12)

    def test_random_20x20_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal((20, 20))
            a = 0.5 * (a + a.T)
            w, v = jacobi_eigh(a)
            assert np.linalg.norm((v * w) @ v.T - a) <= 1e-8
            assert np.allclose(v @ v.T, np.eye(20), atol=1e-10)

    def test_3x3_against_characteristic_polynomial(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            a = 0.5 * (a + a.T)
            w, _ = jacobi_eigh(a)
            assert np.max(np.abs(np.sort(w) - char_poly_roots_3x3(a))) < 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("a", [
        [[np.nan, 1.0], [1.0, 0.0]],
        [[np.inf, 1.0], [1.0, 0.0]],
        np.full((6, 6), np.inf),
    ], ids=["nan", "inf-diagonal", "all-inf"])
    def test_nonfinite_rejected(self, a):
        # these were refused as asymmetric, returned, or ran every sweep on NaNs
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            jacobi_eigh(np.array(a))

    def test_nonconvergence_diagnostics(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((8, 8))
        a = 0.5 * (a + a.T)
        with pytest.raises(ArithmeticError, match="sweeps"):
            jacobi_eigh(a, max_sweeps=0)


def usvt_eigh(graph):
    """``usvt_single``'s reconstruction from LAPACK's eigensolver, keeping
    every eigenvalue whose modulus equals 0.2 sqrt(n) up to roundoff."""
    tau = 0.2 * math.sqrt(graph.n)
    w, v = np.linalg.eigh(graph.adjacency())
    keep = np.abs(w) >= tau * (1 - 1e-9)
    recon = (v[:, keep] * w[keep]) @ v[:, keep].T
    return np.clip(0.5 * (recon + recon.T), 0.0, 1.0)


class TestUsvt:
    @pytest.mark.parametrize("seed, index", [(1, 6), (1, 9), (2, 4), (2, 17)])
    def test_exact_tie_with_threshold_kept(self, seed, index):
        # n = 25 puts tau at exactly 1, and these graphs have eigenvalues of
        # exactly -1; the Jacobi and LAPACK solvers round them to either side
        coll, _, _ = sample_cell(seed, 12, 0, SizeSpec.parse("uniform:2:40"), 20)
        g = coll.graphs[index]
        assert g.n == 25
        w = np.linalg.eigvalsh(g.adjacency())
        assert np.any(np.abs(np.abs(w) - 1.0) < 1e-12)
        assert np.max(np.abs(usvt_single(g) - usvt_eigh(g))) < 1e-9

    def test_k3_exact(self):
        g = complete_graph(3)
        out = usvt_single(g, tau=0.2 * math.sqrt(3))
        assert np.allclose(out, g.adjacency(), atol=1e-8)

    def test_empty_graph_zero(self):
        out = usvt_single(Graph(5, NO_EDGES))
        assert np.array_equal(out, np.zeros((5, 5)))

    def test_all_retained_threshold_drop(self):
        # complete-graph spectrum is {n-1, -1}; tau above n-1 kills everything
        n = 6
        out = usvt_single(complete_graph(n), tau=n - 1 + 0.5)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_default_threshold_uses_own_size(self):
        g = complete_graph(4)
        assert np.allclose(usvt_single(g), usvt_single(g, tau=0.2 * 2.0), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            usvt_single(Graph(1, NO_EDGES))
        with pytest.raises(ValueError):
            usvt_single(complete_graph(3), tau=0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_threshold_rejected(self, tau):
        # nan and inf used to pass the old tau <= 0 test and return all zeros
        with pytest.raises(ValueError, match=f"threshold tau must be finite and > 0, got {tau!r}"):
            usvt_single(complete_graph(3), tau=tau)


class TestSas:
    def test_k4_two_bins_all_ones(self):
        blocks = tv_smooth(sas_blocks(complete_graph(4), 2), TvParams())
        assert np.array_equal(blocks, np.ones((2, 2)))

    def test_empty_graph_zero(self):
        blocks = tv_smooth(sas_blocks(Graph(6, NO_EDGES), 2), TvParams())
        assert np.array_equal(blocks, np.zeros((3, 3)))

    def test_two_block_sbm_separates(self):
        # p=1 within, 0 across, balanced 20+20: all degrees tie at 19/39 and
        # the stable index tie-break keeps the contiguous labels together, so
        # the raw histogram is the exact identity pattern; TV smoothing then
        # shrinks the contrast slightly, so the smoothed version is only
        # checked against the pattern within tolerance
        edges = [[i, j] for i in range(20) for j in range(i + 1, 20)]
        edges += [[i, j] for i in range(20, 40) for j in range(i + 1, 40)]
        g = Graph(40, np.array(edges))
        raw = sas_blocks(g, 20)
        assert np.array_equal(raw, np.eye(2))
        smoothed = tv_smooth(raw, TvParams())
        assert np.max(np.abs(smoothed - np.eye(2))) < 0.15

    def test_wide_bin_gives_global_density(self):
        g = Graph(4, np.array([[0, 1], [2, 3]]))
        blocks = sas_blocks(g, 10)
        assert blocks.shape == (1, 1)
        assert blocks[0, 0] == pytest.approx(4 / 12)  # ordered pairs, no self-pairs

    def test_default_bin_width(self):
        # the pool's width for a one-graph collection is ceil(ln n)
        g = complete_graph(9)
        est = estimate_sas_pool(GraphCollection((g,)))
        assert est.params["h"] == math.ceil(math.log(9))
        assert est.k == math.ceil(9 / math.ceil(math.log(9)))

    def test_relabeling_invariance_distinct_degrees(self):
        # threshold-style graph with distinct degree multiset per class
        edges = [[0, 3], [1, 3], [2, 3], [1, 2]]
        g = Graph(4, np.array(edges))
        perm = np.array([2, 0, 3, 1])
        relabeled = Graph(4, np.sort(perm[g.edges], axis=1))
        a = sas_blocks(g, 2)
        b = sas_blocks(relabeled, 2)
        assert np.array_equal(a, b)

    def test_numpy_integer_bin_width_accepted(self):
        g = complete_graph(5)
        assert np.array_equal(sas_blocks(g, np.int64(2)), sas_blocks(g, 2))


class TestPooling:
    def test_single_input_is_resampled_input(self):
        e = np.array([[0.1, 0.4], [0.4, 0.8]])
        pooled = pool_estimates([e], 4)
        assert np.array_equal(pooled, np.repeat(np.repeat(e, 2, 0), 2, 1))

    def test_constant_average(self):
        pooled = pool_estimates([np.full((2, 2), 0.2), np.full((3, 3), 0.6)], 6)
        assert np.allclose(pooled, 0.4)

    def test_one_cell_to_grid(self):
        pooled = pool_estimates([np.array([[0.5]])], 4)
        assert np.array_equal(pooled, np.full((4, 4), 0.5))

    def test_pooled_is_exact_mean_of_resampled(self):
        rng = np.random.default_rng(9)
        mats = []
        for k in (2, 3, 5):
            m = rng.random((k, k))
            mats.append(0.5 * (m + m.T))
        pooled = pool_estimates(mats, 15)
        from multigraphon.estimates import resample_grid

        manual = np.zeros((15, 15))
        for m in mats:
            order = np.argsort(m.mean(axis=1), kind="stable")
            manual += resample_grid(m[np.ix_(order, order)], 15)
        manual /= len(mats)
        assert np.array_equal(pooled, manual)
        assert np.allclose(pooled, pooled.T)

    def test_degree_sorting_applied(self):
        e = np.array([[0.9, 0.5], [0.5, 0.1]])  # decreasing row means
        pooled = pool_estimates([e], 2)
        assert np.array_equal(pooled, e[::-1, ::-1].copy())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_estimates([], 4)


class TestPooledEstimators:
    def test_usvt_pool_empty_graphs_zero(self):
        coll = GraphCollection((Graph(4, NO_EDGES), Graph(6, NO_EDGES)))
        est = estimate_usvt_pool(coll)
        assert np.array_equal(est.values, np.zeros((6, 6)))
        assert est.method == "usvt-pool"

    def test_sas_pool_runs_on_sampled_collection(self):
        coll, _ = sample_collection(Graphon.analytic(4), [12, 20, 9], seed=14)
        est = estimate_sas_pool(coll)
        assert est.method == "sas-pool"
        assert est.params["h"] == math.ceil(math.log(20))
        assert np.all((est.values >= 0) & (est.values <= 1))
        assert np.allclose(est.values, est.values.T)

    def test_singletons_skipped(self):
        coll = GraphCollection((Graph(1, NO_EDGES), Graph(5, np.array([[0, 1], [1, 2]]))))
        est = estimate_usvt_pool(coll)
        assert est.params["skipped_singletons"] == 1

    def test_all_singletons_rejected(self):
        coll = GraphCollection((Graph(1, NO_EDGES),))
        with pytest.raises(ValueError):
            estimate_sas_pool(coll)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_sas_pool_bad_lambda_rejected_before_any_graph(self, monkeypatch, lam):
        def refuse(*args, **kwargs):
            raise AssertionError("per-graph work started")

        monkeypatch.setattr("multigraphon.baselines._sas_blocks", refuse)
        coll, _ = sample_collection(Graphon.analytic(4), [12, 20], seed=14)
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            estimate_sas_pool(coll, lam=lam)

    def test_sas_pool_needs_no_dense_adjacency_or_graph_views(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense adjacency or per-graph views built")

        coll, _ = sample_collection(Graphon.analytic(4), [12, 20, 1], seed=14)
        want = estimate_sas_pool(coll)
        monkeypatch.setattr(Graph, "adjacency", refuse)
        monkeypatch.setattr(GraphCollection, "graphs", property(refuse))
        est = estimate_sas_pool(coll)
        assert np.array_equal(est.values, want.values) and est.params["skipped_singletons"] == 1
        assert sas_blocks(Graph(4, np.array([[0, 1], [1, 2]])), 2).shape == (2, 2)
