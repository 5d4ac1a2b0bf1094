import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multigraphon.collection import sample_collection
from multigraphon.estimates import resample_grid
from multigraphon.evaluation import (
    eta_bound,
    evaluate_estimate,
    mae_latent,
    mise,
    rank_discrepancy,
)
from multigraphon.graphons import ANALYTIC_IDS, Graphon, canonical_rearrangement, eval_grid
from multigraphon.jgs import estimate_jgs, joint_sort, normalized_degrees


@st.composite
def symmetric_grids(draw):
    k = draw(st.integers(1, 12))
    upper = np.triu(draw(arrays(float, (k, k), elements=st.floats(0.0, 1.0))))
    return upper + np.triu(upper, 1).T


def random_symmetric(k):
    upper = np.triu(np.random.default_rng(k).random((k, k)))
    return upper + np.triu(upper, 1).T


def ordering_from_degrees(degs):
    return joint_sort(degs)


class TestMise:
    def test_matching_constants_zero(self):
        assert mise(np.array([[0.5]]), Graphon.step([[0.5]]), 50) == 0.0

    def test_zero_vs_constant(self):
        assert mise(np.array([[0.0]]), Graphon.step([[0.3]]), 50) == pytest.approx(0.09, abs=1e-15)

    def test_midpoint_grid_of_increasing_kernel_exact(self):
        r = 200
        est = eval_grid(Graphon.analytic(1), r)
        assert mise(est, Graphon.analytic(1), r) <= 1e-12

    def test_canonical_truth_grid_scores_zero(self):
        truth = Graphon.analytic(3)
        grid = canonical_rearrangement(truth, 120).grid
        assert mise(grid, truth, 120) <= 1e-12

    def test_refinement_invariance_on_dividing_grids(self):
        rng = np.random.default_rng(0)
        t = rng.random((4, 4))
        truth = Graphon.step(0.5 * (t + t.T))
        e = rng.random((3, 3))
        est = 0.5 * (e + e.T)
        m12 = mise(est, truth, 12)
        m24 = mise(est, truth, 24)
        assert abs(m12 - m24) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(gid=st.sampled_from(ANALYTIC_IDS), values=symmetric_grids(), r=st.integers(2, 160))
    # resolutions above one block of 2**16 cells, from the least (257): blocks
    # that start and end inside a row, r not a multiple of 8, primes (257,
    # 1021, 1499) and the benchmarks' r=1000
    @example(gid=1, values=random_symmetric(1), r=257)
    @example(gid=2, values=random_symmetric(7), r=999)
    @example(gid=7, values=random_symmetric(44), r=1000)
    @example(gid=10, values=random_symmetric(30), r=1021)
    @example(gid=12, values=random_symmetric(12), r=1024)
    @example(gid=10, values=random_symmetric(3), r=1499)
    @example(gid=1, values=random_symmetric(40), r=1500)
    def test_equals_resampled_squared_difference(self, gid, values, r):
        # bit for bit, not approx: mise sums the blocks where np.mean splits its sum
        assume(r >= values.shape[0])
        truth = Graphon.analytic(gid)
        expected = float(np.mean((resample_grid(values, r) - canonical_rearrangement(truth, r).grid) ** 2))
        assert mise(values, truth, r) == expected

    def test_scratch_memory_bounded(self):
        # the full R x R difference grid alone is 8 MB at R=1000
        truth = Graphon.analytic(10)
        canonical_rearrangement(truth, 1000)  # the truth grid is cached, not scratch
        values = np.full((44, 44), 0.5)
        tracemalloc.start()
        try:
            mise(values, truth, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_resolution_precondition(self):
        with pytest.raises(ValueError):
            mise(np.zeros((10, 10)), Graphon.step([[0.1]]), 5)

    @pytest.mark.parametrize("values, message", [
        # the first returned nan, the next two raised numpy's broadcast
        # error and the last numpy's AxisError
        (np.full((3, 3), np.nan), "estimate values must be finite"),
        (np.zeros((3, 4)), "estimate values must be a square matrix"),
        (np.zeros((2, 2, 2)), "estimate values must be a square matrix"),
        (np.zeros(3), "estimate values must be a square matrix"),
        (np.array([[0.1, 0.2], [0.3, 0.4]]), "estimate values must be symmetric"),
        (np.array([[1.5]]), "estimate values must lie in [0, 1]"),
    ], ids=["nan", "3x4", "2x2x2", "1-d", "asymmetric", "above-one"])
    def test_raw_array_is_grid_checked(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            mise(values, Graphon.analytic(1), 10)


class TestMaeLatent:
    def test_exact_recovery_zero(self):
        # single node: Uhat = 0.5 by construction
        ordering = ordering_from_degrees([[0.3]])
        assert mae_latent(ordering, [np.array([0.5])]) == 0.0

    def test_midpoint_against_extremes(self):
        ordering = ordering_from_degrees([[0.3]])
        assert mae_latent(ordering, [np.array([0.0])]) == 0.5
        assert mae_latent(ordering, [np.array([1.0])]) == 0.5

    def test_orientation_flip(self):
        ordering = ordering_from_degrees([[0.1, 0.6, 0.9]])
        u = np.array([0.833333, 0.5, 0.166667])  # reversed layout
        direct = mae_latent(ordering, [u])
        best = mae_latent(ordering, [u], orientation="best")
        assert best < direct
        assert best == pytest.approx(0.0, abs=1e-6)

    def test_simulated_recovery(self):
        # product kernel, one mid-size collection: empirical oracle run
        coll, latent = sample_collection(Graphon.analytic(1), [400] * 5, seed=77)
        ordering = joint_sort(normalized_degrees(coll).per_graph)
        assert mae_latent(ordering, latent) < 0.04

    def test_mismatch_rejected(self):
        ordering = ordering_from_degrees([[0.1, 0.2]])
        with pytest.raises(ValueError):
            mae_latent(ordering, [np.array([0.5])])

    def test_same_node_count_other_graph_sizes_rejected(self):
        ordering = ordering_from_degrees([[0.1, 0.2], [0.3, 0.4, 0.5]])
        with pytest.raises(ValueError, match="does not match"):
            mae_latent(ordering, [np.full(3, 0.5), np.full(2, 0.5)])

    def test_always_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sizes = rng.integers(1, 20, rng.integers(1, 4))
            coll, latent = sample_collection(Graphon.analytic(int(rng.integers(1, 14))), sizes, int(rng.integers(2**31)))
            ordering = joint_sort(normalized_degrees(coll).per_graph)
            assert 0.0 <= mae_latent(ordering, latent) <= 1.0


class TestEtaBound:
    def test_hand_value(self):
        # M=1, n=101, delta=2/e makes the log term exactly 1:
        # eta = 2 (sqrt(1/200) + (100/101) sqrt(1/200)) + sqrt(1/202)
        expected = 2 * (math.sqrt(1 / 200) * (1 + 100 / 101)) + math.sqrt(1 / 202)
        got = eta_bound([101], target=(0, 0), delta=2 / math.e, l1=1.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.3518, abs=1e-4)

    def test_large_l1_leaves_global_term(self):
        delta = 0.1
        eps_n = math.sqrt(math.log(2 / delta) / (2 * 150))
        got = eta_bound([100, 50], target=(3, 0), delta=delta, l1=1e12)
        assert got == pytest.approx(eps_n, rel=1e-9)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            eta_bound([10], target=(0, 0), delta=2.0, l1=1.0)
        with pytest.raises(ValueError):
            eta_bound([10], target=(0, 0), delta=0.0, l1=1.0)
        with pytest.raises(ValueError):
            eta_bound([10], target=(0, 0), delta=0.5, l1=0.0)
        with pytest.raises(ValueError):
            eta_bound([1], target=(0, 0), delta=0.5, l1=1.0)
        with pytest.raises(ValueError):
            eta_bound([10], target=(11, 0), delta=0.5, l1=1.0)

    @pytest.mark.parametrize("sizes, bad", [([2.5, 3.9], 2.5), ([4, 3.0], 3.0), ([True, 3], True), ([4, 1], 1)])
    def test_sizes_must_be_integers_of_at_least_two(self, sizes, bad):
        # [2.5, 3.9] used to give the bound of [2, 3]
        with pytest.raises(ValueError, match=re.escape(f"graph size must be an integer >= 2, got {bad!r}")):
            eta_bound(sizes, target=(0, 0), delta=0.1, l1=1.0)

    def test_numpy_integer_sizes_accepted(self):
        want = eta_bound([20, 30], target=(1, 1), delta=0.1, l1=1.0)
        assert eta_bound(np.array([20, 30]), target=(1, 1), delta=0.1, l1=1.0) == want

    def test_monotone_in_sizes_and_delta(self):
        small = eta_bound([50, 50], target=(0, 0), delta=0.1, l1=1.0)
        bigger_graphs = eta_bound([200, 200], target=(0, 0), delta=0.1, l1=1.0)
        assert bigger_graphs < small
        tighter_delta = eta_bound([50, 50], target=(0, 0), delta=0.01, l1=1.0)
        assert tighter_delta > small


class TestEvaluateEstimate:
    def test_full_report(self):
        spec = Graphon.analytic(1)
        coll, latent = sample_collection(spec, [25] * 4, seed=55)
        est = estimate_jgs(coll, k="auto")
        ordering = joint_sort(normalized_degrees(coll).per_graph)
        report = evaluate_estimate(est, spec, resolution=200, ordering=ordering, latent=latent)
        assert report["mise"] == mise(est, spec, resolution=200)
        assert report["mae"] == mae_latent(ordering, latent)
        assert report["empty_frac"] == est.empty_blocks / est.k**2

    def test_mae_optional(self):
        spec = Graphon.analytic(1)
        coll, _ = sample_collection(spec, [10], seed=1)
        est = estimate_jgs(coll, k=2)
        report = evaluate_estimate(est, spec, resolution=100)
        assert report["mae"] is None


class TestRankDiscrepancy:
    def test_matching_order_zero(self):
        ordering = ordering_from_degrees([[0.0, 0.5, 1.0]])
        latent = [np.array([0.1, 0.4, 0.8])]
        assert rank_discrepancy(ordering, latent, Graphon.analytic(1)) == 0.0

    def test_two_node_reversal(self):
        ordering = ordering_from_degrees([[1.0, 0.0]])
        latent = [np.array([0.2, 0.8])]
        assert rank_discrepancy(ordering, latent, Graphon.analytic(1)) == 0.5

    def test_simulated_single_graph(self):
        coll, latent = sample_collection(Graphon.analytic(1), [500], seed=13)
        ordering = joint_sort(normalized_degrees(coll).per_graph)
        assert rank_discrepancy(ordering, latent, Graphon.analytic(1)) < 0.05

    def test_mismatch_rejected(self):
        ordering = ordering_from_degrees([[0.1, 0.2]])
        with pytest.raises(ValueError):
            rank_discrepancy(ordering, [np.array([0.5])], Graphon.analytic(1))
