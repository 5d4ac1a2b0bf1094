import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multigraphon import collection
from multigraphon.collection import (
    Graph,
    GraphCollection,
    load_collection,
    sample_collection,
    save_collection,
)
from multigraphon.graphons import Graphon, graphon_eval
from multigraphon.jgs import jgs_histogram, jgs_histogram_naive, joint_sort, normalized_degrees

NO_EDGES = np.empty((0, 2), dtype=np.int64)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[1, 1]]))

    def test_unordered_pair_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[2, 1]]))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[0, 1], [0, 1]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[0, 3]]))

    def test_counts(self):
        coll = GraphCollection((Graph(2, np.array([[0, 1]])), Graph(3, NO_EDGES)))
        assert coll.num_graphs == 2
        assert coll.total_nodes == 5
        assert coll.total_dyads == 4 + 9
        assert coll.sizes == (2, 3)


class TestSampling:
    def test_all_one_gives_complete_graph(self):
        coll, _ = sample_collection(Graphon.constant(1.0), [4], seed=0)
        assert coll.graphs[0].edge_count == 6

    def test_all_zero_gives_empty_graph(self):
        coll, _ = sample_collection(Graphon.constant(0.0), [4], seed=0)
        assert coll.graphs[0].edge_count == 0

    def test_half_density_concentrates(self):
        # direct edge count as the oracle: density of W=1/2 on n=2000
        coll, _ = sample_collection(Graphon.constant(0.5), [2000], seed=3)
        density = coll.graphs[0].edge_count / (2000 * 1999 / 2)
        assert 0.47 <= density <= 0.53

    def test_seed_reproducibility(self):
        a, ua = sample_collection(Graphon.analytic(3), [5, 9], seed=11)
        b, ub = sample_collection(Graphon.analytic(3), [5, 9], seed=11)
        for ga, gb in zip(a.graphs, b.graphs):
            assert np.array_equal(ga.edges, gb.edges)
        for x, y in zip(ua, ub):
            assert np.array_equal(x, y)

    def test_per_graph_substreams_are_isolated(self):
        # graph m depends on (seed, m) only: changing graph 0's size must not
        # perturb graph 1
        a, ua = sample_collection(Graphon.analytic(3), [5, 9], seed=11)
        b, ub = sample_collection(Graphon.analytic(3), [17, 9], seed=11)
        assert np.array_equal(a.graphs[1].edges, b.graphs[1].edges)
        assert np.array_equal(ua[1], ub[1])

    def test_latents_match_sizes_and_range(self):
        _, latent = sample_collection(Graphon.analytic(5), [3, 1, 7], seed=2)
        assert [u.size for u in latent] == [3, 1, 7]
        assert all(np.all((u >= 0) & (u <= 1)) for u in latent)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sample_collection(Graphon.analytic(1), [0], seed=1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=25), seed=st.integers(min_value=0, max_value=2**32))
    def test_edge_count_bound(self, n, seed):
        coll, _ = sample_collection(Graphon.analytic(11), [n], seed=seed)
        assert coll.graphs[0].edge_count <= n * (n - 1) // 2


def reference_sample(spec, sizes, seed):
    """The sampler by its definition: one rng.random call per graph over
    np.triu_indices, probabilities from the range-checked graphon_eval."""
    latents, edges = [], []
    for m, n in enumerate(sizes):
        rng = np.random.default_rng([seed, m])
        u = rng.uniform(size=n)
        iu, ju = np.triu_indices(n, k=1)
        hit = rng.random(iu.size) < np.asarray(graphon_eval(spec, u[iu], u[ju]))
        latents.append(u)
        edges.append(np.column_stack([iu[hit], ju[hit]]))
    return latents, edges


@pytest.mark.parametrize(
    "spec",
    [Graphon.analytic(1), Graphon.analytic(10), Graphon.analytic(12), Graphon.step([[0.7, 0.1], [0.1, 0.4]])],
    ids=["w1", "w10", "w12", "step"],
)
def test_sampler_matches_reference(spec):
    # n=363 has 65703 dyads: one chunk boundary of the sampler
    sizes = [1, 2, 3, 362, 363, 1000]
    coll, latent = sample_collection(spec, sizes, seed=21)
    ref_latent, ref_edges = reference_sample(spec, sizes, 21)
    for m in range(len(sizes)):
        assert np.array_equal(latent[m], ref_latent[m])
        assert np.array_equal(coll.graphs[m].edges, ref_edges[m])


# pairs per graph 0,6,1,0,10,1,1,3,0,435,0,1,136,0 (offsets 0,0,6,7,7,17,...):
# a chunk of 7 ends on the boundary after graph 2 (and the singleton graph 3)
# and inside graph 4; a chunk of 100 spans graphs 0-8 and part of graph 9
MIXED_SIZES = [1, 4, 2, 1, 5, 2, 2, 3, 1, 30, 1, 2, 17, 1]


def assert_matches_reference(spec, sizes, seed):
    coll, latent = sample_collection(spec, sizes, seed=seed)
    ref_latent, ref_edges = reference_sample(spec, sizes, seed)
    assert coll.sizes == tuple(sizes) and len(latent) == len(sizes)
    for m in range(len(sizes)):
        assert latent[m].tobytes() == ref_latent[m].tobytes()
        assert coll.graphs[m].edges.tobytes() == ref_edges[m].astype(np.int64).tobytes()


class TestChunkedStream:
    """The sampler walks the pairs of all graphs as one stream in chunks;
    where the chunk boundaries fall must not move any output byte."""

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("spec", [Graphon.analytic(1), Graphon.analytic(10),
                                      Graphon.step([[0.7, 0.1], [0.1, 0.4]])], ids=["w1", "w10", "step"])
    def test_chunk_boundaries(self, monkeypatch, chunk, spec):
        monkeypatch.setattr(collection, "_DYAD_CHUNK", chunk)
        assert_matches_reference(spec, MIXED_SIZES, seed=5)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=30),
        chunk=st.integers(min_value=1, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**32),
        spec=st.sampled_from([Graphon.analytic(1), Graphon.analytic(10), Graphon.analytic(12)]),
    )
    @example(sizes=[1], chunk=1, seed=0, spec=Graphon.analytic(1))
    @example(sizes=[2, 1, 1], chunk=1, seed=0, spec=Graphon.analytic(12))
    def test_any_chunk_matches_reference(self, sizes, chunk, seed, spec):
        old = collection._DYAD_CHUNK
        collection._DYAD_CHUNK = chunk
        try:
            assert_matches_reference(spec, sizes, seed)
        finally:
            collection._DYAD_CHUNK = old

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError, match="collection must contain at least one graph"):
            sample_collection(Graphon.analytic(1), [], seed=0)


def seed_sequence_state(seed, m):
    return np.random.SeedSequence([seed, m]).generate_state(4, np.uint64)


class TestVectorizedSeeding:
    """The sampler seeds every graph's PCG64 from one vectorized pass of the
    SeedSequence algorithm; each state must be SeedSequence([seed, m])'s."""

    # 1 to 5 entropy words from the seed, and graph indices up to 2**32 - 1
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 5]
    GRAPHS = [0, 1, 2, 1000, 2**31, 2**32 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_equal_seed_sequence(self, seed):
        states = collection._seed_states(seed, np.array(self.GRAPHS))
        assert states.dtype == np.uint64 and states.shape == (len(self.GRAPHS), 4)
        for row, m in zip(states, self.GRAPHS):
            assert row.tobytes() == seed_sequence_state(seed, m).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_equal_default_rng(self, seed):
        seeded = collection._precomputed_seed()
        for row, m in zip(collection._seed_states(seed, np.array(self.GRAPHS)), self.GRAPHS):
            rng = np.random.Generator(np.random.PCG64(seeded(row)))
            ref = np.random.default_rng([seed, m])
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.random(33).tobytes() == ref.random(33).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**130), count=st.integers(min_value=1, max_value=50))
    def test_any_seed_and_count(self, seed, count):
        states = collection._seed_states(seed, np.arange(count))
        expected = np.array([seed_sequence_state(seed, m) for m in range(count)])
        assert states.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_words, dtype", [(2, np.uint64), (4, np.uint32), (8, np.uint32)])
    def test_other_requests_refused(self, n_words, dtype):
        seeded = collection._precomputed_seed()(collection._seed_states(3, np.arange(1))[0])
        with pytest.raises(RuntimeError, match="precomputed seed state holds 4 words of uint64"):
            seeded.generate_state(n_words, dtype)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            sample_collection(Graphon.analytic(1), [3, 4], seed=-1)


class TestSidecar:
    @staticmethod
    def write(tmp_path, latent):
        path = tmp_path / "c.jsonl"
        coll, _ = sample_collection(Graphon.analytic(1), [3, 2], seed=0)
        save_collection(coll, path)
        (tmp_path / "c.jsonl.sidecar.json").write_text(json.dumps({"latent": latent, "seed": 0}))
        return path

    def test_numbers_in_unit_interval_accepted(self, tmp_path):
        _, latent, _ = load_collection(self.write(tmp_path, [[0, 0.25, 1], [1.0, 0.5]]))
        assert [u.tolist() for u in latent] == [[0.0, 0.25, 1.0], [1.0, 0.5]]
        assert all(u.dtype == np.float64 for u in latent)

    @pytest.mark.parametrize(
        "latent, message",
        [
            pytest.param([[0.1, 0.2, 0.3], ["0.5", 0.2]], "graph 1 must hold numbers in [0, 1], got '0.5'",
                         id="string"),
            pytest.param([[0.1, True, 0.3], [0.5, 0.2]], "graph 0 must hold numbers in [0, 1], got True",
                         id="bool"),
            pytest.param([[0.1], [0.5, 0.2]], "graph 0 must be a list of its 3 positions", id="too-few"),
            pytest.param([[0.1, 0.2, 0.3], [0.5, 0.2, 0.3, 0.4]], "graph 1 must be a list of its 2 positions",
                         id="too-many"),
            pytest.param([[0.1, 0.2, 0.3], [2.0, 0.2]], "graph 1 must hold numbers in [0, 1], got 2.0",
                         id="above-one"),
            pytest.param([[0.1, -1, 0.3], [0.5, 0.2]], "graph 0 must hold numbers in [0, 1], got -1",
                         id="negative"),
            pytest.param([[0.1, 0.2, 0.3], [float("nan"), 0.2]], "graph 1 must hold numbers in [0, 1], got nan",
                         id="nan"),
            pytest.param([[0.1, 0.2, 0.3], [0.5, [0.2]]], "graph 1 must hold numbers in [0, 1], got [0.2]",
                         id="nested"),
        ],
    )
    def test_bad_latent_rejected(self, tmp_path, latent, message):
        path = self.write(tmp_path, latent)
        with pytest.raises(ValueError, match=re.escape(f"{path}: sidecar latent of {message}")):
            load_collection(path)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        coll, latent = sample_collection(Graphon.analytic(4), [4, 6], seed=9)
        path = tmp_path / "coll.jsonl"
        save_collection(coll, path, latent=latent, graphon_id=4, seed=9)
        loaded, lat2, sidecar = load_collection(path)
        assert loaded.sizes == coll.sizes
        for ga, gb in zip(coll.graphs, loaded.graphs):
            assert np.array_equal(ga.edges, gb.edges)
        for ua, ub in zip(latent, lat2):
            assert np.allclose(ua, ub)
        assert sidecar["graphon_id"] == 4 and sidecar["seed"] == 9

    def test_rewrite_is_byte_identical(self, tmp_path):
        coll, latent = sample_collection(Graphon.analytic(4), [4, 6], seed=9)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_collection(coll, p1, latent=latent, graphon_id=4, seed=9)
        save_collection(coll, p2, latent=latent, graphon_id=4, seed=9)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.jsonl.sidecar.json").read_bytes() == (tmp_path / "b.jsonl.sidecar.json").read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": 0, "n": 2, "edges": [[0, 1]]})
        path.write_text(good + "\n{not json}\n")
        with pytest.raises(ValueError, match="line 2"):
            load_collection(path)

    def test_edge_format_is_zero_based_sorted(self, tmp_path):
        coll, _ = sample_collection(Graphon.analytic(1), [5], seed=21)
        path = tmp_path / "c.jsonl"
        save_collection(coll, path)
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec["id"] == 0 and rec["n"] == 5
        for i, j in rec["edges"]:
            assert 0 <= i < j < 5

    @pytest.mark.parametrize(
        "records, line",
        [
            pytest.param(['{"id":0,"n":2.9,"edges":[[0,1]]}'], 1, id="float-n"),
            pytest.param(['{"id":0,"n":3,"edges":[]}', '{"id":1,"n":3,"edges":[[0,1.7]]}'], 2,
                         id="float-endpoint"),
            pytest.param(['{"id":0,"n":3,"edges":[[0,true]]}'], 1, id="bool-endpoint"),
            pytest.param(['{"id":0,"n":"3","edges":[[0,1]]}'], 1, id="string-n"),
            pytest.param(['{"id":0,"n":2,"edges":[]}', '{"id":2,"n":2,"edges":[]}'], 2,
                         id="id-gap"),
            # checked over the whole edge array after parsing, reported by line
            pytest.param(['{"id":0,"n":2,"edges":[]}', "", '{"id":1,"n":2,"edges":[[0,2]]}'], 3,
                         id="endpoint-out-of-range"),
        ],
    )
    def test_strict_records_rejected_with_line(self, tmp_path, records, line):
        path = tmp_path / "strict.jsonl"
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(ValueError, match=f"line {line}:"):
            load_collection(path)


class TestFlatLayout:
    """GraphCollection(graphs), sample_collection and save + load must build
    the same flat collection."""

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32),
        spec=st.sampled_from([Graphon.constant(0.0), Graphon.constant(1.0),
                              Graphon.analytic(1), Graphon.analytic(10)]),
        extra_k=st.integers(min_value=-6, max_value=3),
    )
    # M = 1 with a singleton and k > N; identical complete graphs around a
    # singleton; edgeless graphs
    @example(sizes=[1], seed=0, spec=Graphon.constant(0.0), extra_k=2)
    @example(sizes=[3, 1, 3], seed=1, spec=Graphon.constant(1.0), extra_k=3)
    @example(sizes=[4, 2], seed=2, spec=Graphon.constant(0.0), extra_k=0)
    def test_three_constructions_agree(self, tmp_path_factory, sizes, seed, spec, extra_k):
        sampled, _ = sample_collection(spec, sizes, seed)
        rebuilt = GraphCollection(tuple(Graph(g.n, g.edges.copy()) for g in sampled.graphs))
        path = tmp_path_factory.mktemp("flat") / "c.jsonl"
        save_collection(sampled, path)
        loaded, _, _ = load_collection(path)

        N = sampled.total_nodes
        k = max(1, N + extra_k)  # k > N when extra_k > 0
        ordering = joint_sort(normalized_degrees(sampled))
        reference = jgs_histogram_naive(sampled, ordering, k).values.tobytes()
        for coll in (sampled, rebuilt, loaded):
            assert coll.sizes == tuple(sizes)
            assert coll.edge_count == sum(g.edge_count for g in sampled.graphs)
            for g, h in zip(coll.graphs, sampled.graphs):
                assert g.n == h.n and g.edges.dtype == np.int64
                assert np.array_equal(g.edges, h.edges)
            report = normalized_degrees(coll)
            for g, d in zip(coll.graphs, report.per_graph):  # per-graph loop reference
                assert np.array_equal(d, g.degrees() / max(g.n - 1, 1))
            coll_ordering = joint_sort(report)
            assert np.array_equal(coll_ordering.rank, joint_sort(report.per_graph).rank)
            assert jgs_histogram(coll, coll_ordering, k).values.tobytes() == reference

    def test_identical_graphs_are_not_duplicates(self, tmp_path):
        triangle = np.array([[0, 1], [0, 2], [1, 2]])
        coll = GraphCollection((Graph(3, triangle), Graph(3, triangle)))
        assert coll.edges.tolist() == [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]
        sampled, _ = sample_collection(Graphon.constant(1.0), [3, 3], seed=0)
        assert np.array_equal(sampled.edges, coll.edges)
        save_collection(coll, tmp_path / "c.jsonl")
        assert np.array_equal(load_collection(tmp_path / "c.jsonl")[0].edges, coll.edges)

    def test_unsorted_duplicate_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="graph 1: duplicate edges"):
            GraphCollection.from_edge_lists([2, 3], [1, 3], np.array([[0, 1], [1, 2], [0, 1], [1, 2]]))
        path = tmp_path / "dup.jsonl"
        path.write_text('{"id":0,"n":2,"edges":[[0,1]]}\n{"id":1,"n":3,"edges":[[1,2],[0,1],[1,2]]}\n')
        with pytest.raises(ValueError, match="line 2: duplicate edges"):
            load_collection(path)

    def test_flat_arrays_and_local_views(self):
        coll = GraphCollection((Graph(2, np.array([[0, 1]])), Graph(3, np.array([[1, 2]]))))
        assert coll.edges.tolist() == [[0, 1], [3, 4]]
        assert coll.node_offsets.tolist() == [0, 2, 5]
        assert coll.edge_offsets.tolist() == [0, 1, 2]
        views = GraphCollection.from_edge_lists([2, 3], [1, 1], np.array([[0, 1], [1, 2]])).graphs
        assert [g.edges.tolist() for g in views] == [[[0, 1]], [[1, 2]]]
