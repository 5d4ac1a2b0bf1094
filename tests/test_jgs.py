import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigraphon.collection import _graph_edges, sample_collection
from multigraphon import jgs
from multigraphon.graphons import Graphon
from multigraphon.jgs import (
    estimate_jgs,
    jgs_histogram,
    joint_sort,
    normalized_degrees,
    select_k,
    smooth_estimate,
)
from multigraphon.tv import TvParams
from oracles import collection_of, frozen_joint_rank, jgs_histogram_naive


def ordering_of(coll):
    return joint_sort(normalized_degrees(coll).per_graph)


K2 = (2, [[0, 1]])
EMPTY2 = (2, np.empty((0, 2)))


class TestNormalizedDegrees:
    def test_path3(self):
        coll = collection_of([(3, [[0, 1], [1, 2]])])
        assert normalized_degrees(coll).per_graph[0].tolist() == [0.5, 1.0, 0.5]

    def test_complete4(self):
        coll = collection_of([(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])])
        assert normalized_degrees(coll).per_graph[0].tolist() == [1.0] * 4

    def test_empty5(self):
        coll = collection_of([(5, np.empty((0, 2)))])
        assert normalized_degrees(coll).per_graph[0].tolist() == [0.0] * 5

    def test_singleton_flagged(self):
        coll = collection_of([(1, np.empty((0, 2))), K2])
        rep = normalized_degrees(coll)
        assert rep.per_graph[0].tolist() == [0.0]
        assert rep.singleton_graphs == (0,)


class TestJointSort:
    def test_two_graph_example(self):
        ordering = joint_sort([[0.5, 1.0], [0.0, 0.75]])
        assert ordering.node_offsets.tolist() == [0, 2, 4]
        assert ordering.rank.tolist() == [2, 4, 1, 3]
        off = ordering.node_offsets
        uhat = {(g, i): ordering.uhat[off[g] + i] for g in (0, 1) for i in (0, 1)}
        assert uhat[(1, 0)] == pytest.approx(0.125)
        assert uhat[(0, 0)] == pytest.approx(0.375)
        assert uhat[(1, 1)] == pytest.approx(0.625)
        assert uhat[(0, 1)] == pytest.approx(0.875)

    def test_single_node(self):
        assert joint_sort([[0.7]]).uhat.tolist() == [0.5]

    def test_tie_break_follows_enumeration(self):
        ordering = joint_sort([[0.5, 0.5], [0.5, 0.5]])
        assert ordering.rank.tolist() == [1, 2, 3, 4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            joint_sort([])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        )
    )
    def test_invariants(self, degs):
        ordering = joint_sort(degs)
        n = ordering.n_total
        assert ordering.node_offsets.tolist() == np.cumsum([0] + [len(d) for d in degs]).tolist()
        assert sorted(ordering.rank.tolist()) == list(range(1, n + 1))
        by_rank = np.concatenate(degs)[np.argsort(ordering.rank)]
        assert np.all(np.diff(by_rank) >= 0)
        uhat = np.sort(ordering.uhat)
        assert np.all((uhat > 0) & (uhat < 1))
        assert np.allclose(np.diff(uhat), 1.0 / n)


def graph_of_kind(n, kind, seed=0, p=0.5):
    i, j = np.triu_indices(n, 1)
    if kind == "edgeless":
        keep = np.zeros(i.size, dtype=bool)
    elif kind == "complete":
        keep = np.ones(i.size, dtype=bool)
    else:
        keep = np.random.default_rng(seed).random(i.size) < p
    return n, np.stack([i[keep], j[keep]], axis=1)


@st.composite
def mixed_collections(draw):
    graphs = []
    for _ in range(draw(st.integers(1, 30))):
        n = draw(st.one_of(st.just(1), st.integers(1, 60)))
        kind = draw(st.sampled_from(["edgeless", "complete", "random"]))
        graphs.append(graph_of_kind(n, kind, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0, 1))))
    return collection_of(graphs)


class TestDegreeLevels:
    """``joint_sort`` orders by a radix sort of exact degree levels; its ranks
    must be those of the frozen comparison sort of the degree floats."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_collections())
    def test_ranks_equal_frozen_sort(self, coll):
        report = normalized_degrees(coll)
        want = frozen_joint_rank(report.per_graph).tobytes()
        assert joint_sort(report).rank.tobytes() == want
        assert joint_sort(report.per_graph).rank.tobytes() == want
        level, levels = jgs._degree_levels(report)
        assert np.array_equal(np.unique(report.degree, return_inverse=True)[1],
                              np.unique(level, return_inverse=True)[1])
        assert level.max() < levels

    def test_more_than_65536_levels(self):
        # the values d/(n-1) of sizes 1..470 hold more than 2**16 distinct
        # fractions; the dense graphs put nodes on levels on both sides of 2**16
        graphs = [graph_of_kind(n, "edgeless") for n in range(1, 471)]
        graphs += [graph_of_kind(470, "complete"), graph_of_kind(469, "random", 1, 0.995),
                   graph_of_kind(467, "random", 2, 0.5)]
        report = normalized_degrees(collection_of(graphs))
        level, levels = jgs._degree_levels(report)
        assert levels > 1 << 16
        assert level.min() == 0 and np.count_nonzero(level >= 1 << 16) > 100
        want = frozen_joint_rank(report.per_graph).tobytes()
        assert joint_sort(report).rank.tobytes() == want
        assert joint_sort(report.per_graph).rank.tobytes() == want

    def test_sequence_with_more_than_65536_levels(self):
        rng = np.random.default_rng(12)
        per_graph = [rng.integers(0, 90_000, n) / 90_000 for n in rng.integers(1, 2000, 150)]
        assert np.unique(np.concatenate(per_graph)).size > 1 << 16
        assert joint_sort(per_graph).rank.tobytes() == frozen_joint_rank(per_graph).tobytes()

    @pytest.mark.parametrize("bound", [1, 2, 1 << 16, (1 << 16) + 1, 1 << 20, 1 << 33])
    def test_stable_order_equals_stable_argsort(self, bound):
        # few distinct keys as well as many: ties must keep index order
        rng = np.random.default_rng(bound)
        for distinct in (3, 5000):
            key = rng.choice(rng.integers(0, bound, distinct), 5000)
            assert np.array_equal(jgs._stable_order(key, bound), np.argsort(key, kind="stable"))


class TestSelectK:
    def test_hand_values(self):
        assert select_k(100, 1, 10_000) == 8
        assert select_k(200, 4, 10_000) == 10
        assert select_k(2, 1, 4) == 1

    def test_exact_integer_fourth_root(self):
        # 10^4 and (10^4 - 1): the S^(1/4) branch must floor exactly
        assert select_k(10_000, 1, 10_000) == 10
        assert select_k(10_000, 1, 9_999) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            select_k(0, 1, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20))
    def test_bounds(self, sizes):
        N, M, S = sum(sizes), len(sizes), sum(n * n for n in sizes)
        k = select_k(N, M, S)
        assert 1 <= k <= N


class TestHistogram:
    def test_k2_single_block(self):
        coll = collection_of([K2])
        est = jgs_histogram(coll, ordering_of(coll), 1)
        # ordered pairs: 2 edges observed out of 4 dyads (2 self-pairs count)
        assert est.values.tolist() == [[0.5]]

    def test_k2_plus_empty(self):
        coll = collection_of([K2, EMPTY2])
        est = jgs_histogram(coll, ordering_of(coll), 1)
        assert est.values.tolist() == [[0.25]]

    def test_k2_two_blocks(self):
        coll = collection_of([K2])
        est = jgs_histogram(coll, ordering_of(coll), 2)
        assert est.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_all_missing_block_is_zero(self):
        # two 2-node graphs and k=4: several blocks see no within-graph dyad
        coll = collection_of([K2, EMPTY2])
        est = jgs_histogram(coll, ordering_of(coll), 4)
        assert est.empty_blocks > 0
        assert np.all(est.values >= 0) and np.all(est.values <= 1)

    def test_k_exceeding_n_allowed(self):
        coll = collection_of([K2])
        est = jgs_histogram(coll, ordering_of(coll), 5)
        assert est.empty_blocks > 0

    def test_symmetry_and_range_random(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            sizes = rng.integers(1, 30, rng.integers(1, 5))
            coll, _ = sample_collection(Graphon.analytic(int(rng.integers(1, 14))), sizes, int(rng.integers(2**31)))
            est = jgs_histogram(coll, ordering_of(coll), int(rng.integers(1, 12)))
            assert np.array_equal(est.values, est.values.T)
            assert np.all((est.values >= 0) & (est.values <= 1))

    def test_one_pass_counters(self):
        coll, _ = sample_collection(Graphon.analytic(1), [10, 20, 30], seed=4)
        est = jgs_histogram(coll, ordering_of(coll), 5)
        assert est.params["edges_touched"] == coll.edge_count
        assert est.params["nodes_touched"] == coll.total_nodes

    def test_ordering_mismatch_rejected(self):
        coll = collection_of([K2])
        other = ordering_of(collection_of([(3, [[0, 1]])]))
        with pytest.raises(ValueError):
            jgs_histogram(coll, other, 2)

    def test_same_node_count_other_graph_sizes_rejected(self):
        coll = collection_of([(3, [[0, 1]]), K2])
        other = ordering_of(collection_of([K2, (3, [[0, 1]])]))
        assert other.n_total == coll.total_nodes
        with pytest.raises(ValueError, match="does not cover exactly"):
            jgs_histogram(coll, other, 2)

    def test_estimate_type_invariants_enforced(self):
        from multigraphon.estimates import StepEstimate

        with pytest.raises(ValueError):
            StepEstimate(np.array([[0.1, 0.2], [0.3, 0.1]]), "x", 1, 1, 1)
        with pytest.raises(ValueError):
            StepEstimate(np.array([[1.5]]), "x", 1, 1, 1)
        with pytest.raises(ValueError):
            StepEstimate(np.zeros((0, 0)), "x", 1, 1, 1)

    @pytest.mark.parametrize("text", ["0.1,nan\nnan,0.2\n", "0.1,inf\ninf,0.2\n", "nan\n"])
    def test_non_finite_estimate_file_rejected_as_such(self, tmp_path, text):
        from multigraphon.estimates import load_estimate

        path = tmp_path / "est.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="estimate values must be finite"):
            load_estimate(path)


class TestNaiveOracle:
    def test_matches_examples(self):
        for graphs, k in [((K2,), 1), ((K2, EMPTY2), 1), ((K2,), 2)]:
            coll = collection_of(graphs)
            o = ordering_of(coll)
            assert np.array_equal(jgs_histogram(coll, o, k).values, jgs_histogram_naive(coll, o, k).values)

    def test_k_equals_n_diagonal_zero(self):
        coll = collection_of([K2, (3, [[0, 1], [1, 2], [0, 2]])])
        o = ordering_of(coll)
        est = jgs_histogram_naive(coll, o, coll.total_nodes)
        assert np.all(np.diag(est.values) == 0.0)

    def test_size_cap(self):
        coll = collection_of([(5, np.empty((0, 2)))])
        with pytest.raises(ValueError):
            jgs_histogram_naive(coll, ordering_of(coll), 2, max_nodes=4)

    def test_oracle_equivalence_random(self):
        # exact equality on random collections; the full 100-collection run
        # lives in the acceptance suite
        rng = np.random.default_rng(123)
        for trial in range(40):
            M = int(rng.integers(1, 6))
            sizes = rng.integers(1, 41, M)
            gid = int(rng.integers(1, 14))
            coll, _ = sample_collection(Graphon.analytic(gid), sizes, int(rng.integers(2**31)))
            o = ordering_of(coll)
            k = int(rng.integers(1, 11))
            fast = jgs_histogram(coll, o, k)
            slow = jgs_histogram_naive(coll, o, k)
            assert np.array_equal(fast.values, slow.values)
            assert fast.empty_blocks == slow.empty_blocks


    def test_chunked_edge_pass(self, monkeypatch):
        # chunks far smaller than the edge count: the summed chunks must
        # still equal the oracle bit for bit
        monkeypatch.setattr(jgs, "_EDGE_CHUNK", 5)
        coll, _ = sample_collection(Graphon.analytic(3), [1, 9, 30, 2, 17], seed=8)
        o = ordering_of(coll)
        for k in (1, 4, 13):
            fast = jgs_histogram(coll, o, k)
            assert np.array_equal(fast.values, jgs_histogram_naive(coll, o, k).values)
            assert fast.params["edges_touched"] == coll.edge_count


class TestPermutationInvariance:
    def test_regular_class_aligned_collection(self):
        # three 4-regular-degree classes (0, 1/3, 2/3), each filling exactly
        # one block of k=3: block membership is then a function of a node's
        # degree alone, so any relabeling/reordering leaves the histogram
        # unchanged
        empty4 = (4, np.empty((0, 2)))
        matching4 = (4, [[0, 1], [2, 3]])
        cycle4 = (4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        coll = collection_of([empty4, matching4, cycle4])
        base = jgs_histogram(coll, ordering_of(coll), 3)

        rng = np.random.default_rng(0)
        for graph_order in ([2, 0, 1], [1, 2, 0]):
            relabeled = []
            for m in graph_order:
                n, edges = coll.sizes[m], _graph_edges(coll)[m]
                perm = rng.permutation(n)
                relabeled.append((n, np.sort(perm[edges], axis=1) if edges.size else edges))
            shuffled = collection_of(relabeled)
            est = jgs_histogram(shuffled, ordering_of(shuffled), 3)
            assert np.array_equal(est.values, base.values)

    def test_k1_always_invariant(self):
        rng = np.random.default_rng(7)
        coll, _ = sample_collection(Graphon.analytic(6), [8, 13], seed=19)
        base = jgs_histogram(coll, ordering_of(coll), 1)
        perms = [rng.permutation(n) for n in coll.sizes]
        relabeled = collection_of(
            (n, np.sort(p[e], axis=1)) for n, e, p in zip(coll.sizes, _graph_edges(coll), perms)
        )
        est = jgs_histogram(relabeled, ordering_of(relabeled), 1)
        assert np.array_equal(est.values, base.values)


class TestEstimateJgs:
    def test_k2_singleton(self):
        est = estimate_jgs(collection_of([K2]), k=1)
        assert est.values.tolist() == [[0.5]]
        assert est.method == "jgs"
        assert est.params["degree_divisor"] == "n-1"

    def test_k1_reduces_to_global_density_with_self_pairs(self):
        coll, _ = sample_collection(Graphon.analytic(5), [7, 12, 3], seed=31)
        est = estimate_jgs(coll, k=1)
        expected = 2 * coll.edge_count / coll.total_dyads
        assert est.values[0, 0] == expected

    def test_constant_half_block_structure(self):
        # pure-noise degree sort: the global mean stays near 1/2, but a
        # +/-0.05 bound per entry does NOT hold (verified by simulation).
        # Sorting by noisy degrees tilts the edge frequency of any block pair
        # on the same side of the median (compounding at the corners), while
        # the tilts cancel for opposite-quantile pairs; diagonal blocks are
        # further deflated by the self-pair denominator (factor ~ 1 - kN/S).
        coll, _ = sample_collection(Graphon.step([[0.5]]), [50] * 50, seed=42)
        est = estimate_jgs(coll, k="auto")
        k = est.k
        assert abs(est.values.mean() - 0.5) < 0.02
        anti_diag = est.values[np.arange(k), k - 1 - np.arange(k)]
        assert np.all(np.abs(anti_diag - 0.5) < 0.1)
        assert est.values[0, 0] < 0.35  # corner selection bias is real

    def test_params_are_those_recorded(self):
        # the exact params, in order and type, that saved estimate metas hold
        coll, _ = sample_collection(Graphon.analytic(1), [1, 15, 15, 15], seed=2)
        assert json.dumps(estimate_jgs(coll, k="auto").params) == (
            '{"k": 2, "k_mode": "auto", "c": 2.0, "degree_divisor": "n-1", '
            '"singleton_graphs": 1, "tie_break": "index"}')
        assert json.dumps(smooth_estimate(estimate_jgs(coll, k=3), TvParams(lam=0.05)).params) == (
            '{"k": 3, "k_mode": "fixed", "c": 2.0, "degree_divisor": "n-1", '
            '"singleton_graphs": 1, "tie_break": "index", "lambda": 0.05}')

    def test_auto_k_recorded(self):
        coll, _ = sample_collection(Graphon.analytic(1), [20] * 4, seed=1)
        est = estimate_jgs(coll, k="auto")
        assert est.params["k"] == select_k(coll.total_nodes, 4, coll.total_dyads)
        assert est.params["k_mode"] == "auto"

    def test_smoothing_switches_method(self):
        coll, _ = sample_collection(Graphon.analytic(1), [15] * 3, seed=2)
        plain = estimate_jgs(coll, k=3)
        smooth = smooth_estimate(plain, TvParams(lam=0.05))
        assert smooth.method == "jgs-smooth"
        assert smooth.params["lambda"] == 0.05
        assert not np.array_equal(plain.values, smooth.values)
        assert "lambda" not in plain.params  # the params are copied, not updated
        assert smooth.elapsed_seconds >= plain.elapsed_seconds

    @pytest.mark.parametrize("k", [2.7, 2.0, True, "3"])
    def test_non_integer_k_rejected(self, k):
        # int(k) used to estimate with k=2 for k=2.7
        coll, _ = sample_collection(Graphon.analytic(1), [15] * 3, seed=2)
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer >= 1, got {k!r}")):
            estimate_jgs(coll, k=k)

    def test_numpy_integer_k_accepted(self):
        coll, _ = sample_collection(Graphon.analytic(1), [15] * 3, seed=2)
        est = estimate_jgs(coll, k=np.int64(2))
        assert np.array_equal(est.values, estimate_jgs(coll, k=2).values)
        assert type(est.params["k"]) is int

    def test_singleton_graph_participates(self):
        coll = collection_of([(1, np.empty((0, 2))), K2])
        est = estimate_jgs(coll, k=1)
        # numerator 2, denominator 1 + 4
        assert est.values[0, 0] == pytest.approx(2 / 5)

    def test_empty_block_guard_rate(self):
        # when N / (2 (M + ln N)) >= 1, the selected k leaves no block empty
        # in at least 95 of 100 sampled collections
        rng = np.random.default_rng(5)
        ok = tried = 0
        while tried < 100:
            M = int(rng.integers(1, 6))
            sizes = rng.integers(20, 61, M)
            N = int(sizes.sum())
            if N / (2 * (M + np.log(N))) < 1:
                continue
            coll, _ = sample_collection(Graphon.analytic(int(rng.integers(1, 10))), sizes, 1000 + tried)
            tried += 1
            ok += estimate_jgs(coll, k="auto").empty_blocks == 0
        assert ok >= 95
