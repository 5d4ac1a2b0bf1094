"""Graph collections: storage, validation, sampling from a graphon, JSONL I/O.

A collection holds M undirected simple graphs with disjoint node sets and
heterogeneous sizes. Each graph is a node count plus an edge list of
unordered pairs (i, j), i < j, 0-based. A :class:`GraphCollection` stores
all of them in one flat layout: node offsets, edge offsets and a single
edge array of global node ids.

Reproducibility contract: graph ``m`` of a collection sampled with seed ``s``
is drawn from ``numpy.random.default_rng([s, m])``, i.e. the sub-stream is
derived from (seed, graph index) through numpy's SeedSequence mixing. The
same (seed, m) always yields the same graph, and distinct graphs use
statistically independent streams, so determinism holds no matter which
thread draws which graph.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graphons import Graphon, _kernel

__all__ = [
    "Graph",
    "GraphCollection",
    "InvalidGraph",
    "graph_rng",
    "sample_collection",
    "save_collection",
    "load_collection",
]

_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


class InvalidGraph(ValueError):
    """A graph of a collection failed validation; ``graph`` is its index."""

    def __init__(self, graph: int, reason: str):
        super().__init__(f"graph {graph}: {reason}")
        self.graph = graph
        self.reason = reason


def _offsets(counts) -> np.ndarray:
    """Exclusive prefix sums: (M,) counts -> (M+1,) offsets starting at 0."""
    return np.concatenate(([0], np.cumsum(np.asarray(counts, dtype=np.int64))))


def _graph_of(offsets: np.ndarray, position) -> int:
    """Index of the graph whose range in ``offsets`` holds ``position``."""
    return int(np.searchsorted(offsets, position, side="right")) - 1


def _global_edges(node_offsets: np.ndarray, edge_offsets: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Check the local edge lists of M graphs, concatenated in graph order,
    and turn them in place into global endpoints (node offset + local id).

    Raises :class:`InvalidGraph` naming the first graph with fewer than one
    node, an edge with i >= j, an endpoint outside [0, n) or a repeated edge.
    """
    sizes = np.diff(node_offsets)
    if np.any(sizes < 1):
        raise InvalidGraph(int(np.argmax(sizes < 1)), "graph must have at least one node")
    counts = np.diff(edge_offsets)
    u, v = local[:, 0], local[:, 1]
    bad = u >= v
    if bad.any():
        raise InvalidGraph(_graph_of(edge_offsets, np.argmax(bad)), "edges must satisfy i < j (no self-loops)")
    bad = (u < 0) | (v >= np.repeat(sizes, counts))
    if bad.any():
        raise InvalidGraph(_graph_of(edge_offsets, np.argmax(bad)), "edge endpoints must lie in [0, n)")
    local += np.repeat(node_offsets[:-1], counts)[:, None]
    # graphs own increasing node ranges, so edge lists in lexicographic order
    # (as the sampler and saved files have them) give strictly increasing keys
    n_total = node_offsets[-1]
    keys = u * n_total
    keys += v
    if not np.all(keys[1:] > keys[:-1]):
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            node = keys[np.argmax(repeated)] // n_total
            raise InvalidGraph(_graph_of(node_offsets, node), "duplicate edges")
    return local


@dataclass(frozen=True, eq=False)
class Graph:
    """One undirected simple graph: ``n`` nodes, edges as an (E, 2) array, i < j."""

    n: int
    edges: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        try:
            _global_edges(np.array([0, self.n], dtype=np.int64), np.array([0, e.shape[0]]), e.copy())
        except InvalidGraph as exc:
            raise ValueError(exc.reason) from None
        object.__setattr__(self, "edges", e)

    @classmethod
    def _view(cls, n: int, edges: np.ndarray) -> "Graph":
        """A graph over edges a collection has already validated."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        """Raw degree of every node."""
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        if self.edges.size:
            a[self.edges[:, 0], self.edges[:, 1]] = 1.0
            a[self.edges[:, 1], self.edges[:, 0]] = 1.0
        return a


class GraphCollection:
    """M graphs in one flat (CSR) layout, validated once at construction.

    Graph m owns the global node ids ``node_offsets[m]`` to
    ``node_offsets[m+1] - 1`` and the rows ``edge_offsets[m]`` to
    ``edge_offsets[m+1] - 1`` of ``edges``, an (E, 2) int64 array of global
    endpoints (node offset + local id) with i < j in every row; treat the
    arrays as read-only. ``GraphCollection(graphs)`` builds the layout from
    :class:`Graph` objects; :attr:`graphs` gives per-graph views with local ids.
    """

    def __init__(self, graphs):
        graphs = tuple(graphs)
        local = np.concatenate([g.edges for g in graphs]) if graphs else _EMPTY_EDGES
        self._build([g.n for g in graphs], [g.edge_count for g in graphs], local)
        self._graphs = graphs

    @classmethod
    def from_edge_lists(cls, sizes, edge_counts, local_edges: np.ndarray) -> "GraphCollection":
        """Build from graph sizes, per-graph edge counts and the local edge
        lists of all graphs concatenated in graph order, an (E, 2) int64
        array that the collection takes over and rewrites in place."""
        coll = cls.__new__(cls)
        coll._build(sizes, edge_counts, local_edges)
        coll._graphs = None
        return coll

    def _build(self, sizes, edge_counts, local: np.ndarray) -> None:
        if len(sizes) == 0:
            raise ValueError("collection must contain at least one graph")
        self.node_offsets = _offsets(sizes)
        self.edge_offsets = _offsets(edge_counts)
        local = np.asarray(local, dtype=np.int64).reshape(-1, 2)
        if len(edge_counts) != len(sizes) or self.edge_offsets[-1] != local.shape[0]:
            raise ValueError("need one edge count per graph, adding up to the number of edges")
        self.edges = _global_edges(self.node_offsets, self.edge_offsets, local)

    @property
    def graphs(self) -> tuple[Graph, ...]:
        """Per-graph views with local node ids, built on first access."""
        if self._graphs is None:
            counts = np.diff(self.edge_offsets)
            local = self.edges - np.repeat(self.node_offsets[:-1], counts)[:, None]
            bounds = self.edge_offsets.tolist()
            self._graphs = tuple(
                Graph._view(n, local[a:b]) for n, a, b in zip(self.sizes, bounds[:-1], bounds[1:])
            )
        return self._graphs

    @property
    def num_graphs(self) -> int:
        """M, the number of graphs."""
        return self.node_offsets.size - 1

    @property
    def total_nodes(self) -> int:
        """N = sum of graph sizes."""
        return int(self.node_offsets[-1])

    @property
    def total_dyads(self) -> int:
        """S = sum of squared graph sizes (observed entries of the merged matrix)."""
        sizes = np.diff(self.node_offsets)
        return int(sizes @ sizes)

    @property
    def edge_count(self) -> int:
        """E, the number of edges over all graphs."""
        return self.edges.shape[0]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self.node_offsets).tolist())


def graph_rng(seed: int, m: int) -> np.random.Generator:
    """The documented sub-stream for graph ``m`` under collection seed ``seed``."""
    return np.random.default_rng([int(seed), int(m)])


# dyads drawn per rng.random call; bounds the sampler's temporaries to a few
# MB (a single pass over an n=1000 graph's 499500 dyads needs ~32 MB)
_DYAD_CHUNK = 1 << 16


def _sample_graph(spec: Graphon, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latent positions and the edges' endpoint columns (i, j) of one graph.

    Pairs i < j are visited in row-major order, one chunk of dyads at a
    time; chunked ``rng.random`` calls draw the same stream as one call.
    """
    latent = rng.uniform(size=n)
    # pairs (i, i+1..n-1) of row i sit at positions row_start[i]..row_start[i+1]-1
    row_start = _offsets(np.arange(n - 1, 0, -1))
    total = int(row_start[-1])
    heads, tails = [_EMPTY_EDGES[:, 0]], [_EMPTY_EDGES[:, 1]]
    for start in range(0, total, _DYAD_CHUNK):
        stop = min(start + _DYAD_CHUNK, total)
        first = int(np.searchsorted(row_start, start, side="right")) - 1
        last = int(np.searchsorted(row_start, stop - 1, side="right"))
        counts = np.diff(np.clip(row_start[first:last + 1], start, stop))
        i = np.repeat(np.arange(first, last), counts)
        j = np.arange(start, stop) - row_start[i] + i + 1
        # latents come from rng.uniform, inside [0, 1): no range check needed
        hit = rng.random(stop - start) < _kernel(spec, latent[i], latent[j])
        heads.append(i[hit])
        tails.append(j[hit])
    return latent, np.concatenate(heads), np.concatenate(tails)


def sample_collection(spec: Graphon, sizes, seed: int) -> tuple[GraphCollection, tuple]:
    """Sample one graph per entry of ``sizes`` from the graphon.

    For each graph: latent positions are i.i.d. Uniform[0,1]; each pair
    i < j is an edge independently with probability W(U_i, U_j).
    Returns the collection together with the true latent positions
    (one array per graph).
    """
    sizes = [int(n) for n in sizes]
    if any(n < 1 for n in sizes):
        raise ValueError("all graph sizes must be >= 1")
    latents, heads, tails = [], [], []
    for m, n in enumerate(sizes):
        latent, i, j = _sample_graph(spec, n, graph_rng(seed, m))
        latents.append(latent)
        heads.append(i)
        tails.append(j)
    counts = [i.size for i in heads]
    local = np.empty((sum(counts), 2), dtype=np.int64)
    if heads:
        np.concatenate(heads, out=local[:, 0])
        np.concatenate(tails, out=local[:, 1])
    del heads, tails
    return GraphCollection.from_edge_lists(sizes, counts, local), tuple(latents)


def save_collection(
    collection: GraphCollection,
    path,
    latent=None,
    graphon_id: int | None = None,
    seed: int | None = None,
) -> None:
    """Write the collection as JSON Lines, one graph object per line.

    With ``latent`` given, a provenance sidecar ``<path>.sidecar.json`` is
    written holding the true latent positions (plus graphon id and seed).
    Output bytes are a pure function of the arguments.
    """
    with open(path, "w") as fh:
        for m, g in enumerate(collection.graphs):
            rec = {"id": m, "n": g.n, "edges": g.edges.tolist()}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    if latent is not None:
        sidecar = {
            "latent": [np.asarray(u).tolist() for u in latent],
            "graphon_id": graphon_id,
            "seed": seed,
        }
        with open(str(path) + ".sidecar.json", "w") as fh:
            json.dump(sidecar, fh, separators=(",", ":"))
            fh.write("\n")


def _parse_record(line: str, m: int) -> tuple[int, list]:
    """``n`` and the flattened edge endpoints of the record for graph ``m``."""
    rec = json.loads(line)
    n, rec_id, edges = rec["n"], rec["id"], rec["edges"]
    # type(x) is int, not isinstance: bools are ints to Python but not here
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if type(rec_id) is not int or rec_id != m:
        raise ValueError(f"id must be {m} (records are numbered 0..M-1 in file order), got {rec_id!r}")
    if type(edges) is not list or not set(map(len, edges)) <= {2}:
        raise ValueError("edges must be a list of [i, j] pairs")
    endpoints = list(chain.from_iterable(edges))
    if not set(map(type, endpoints)) <= {int}:
        raise ValueError("edge endpoints must be integers")
    return n, endpoints


def load_collection(path) -> tuple[GraphCollection, tuple | None, dict]:
    """Read a JSONL collection; returns (collection, latent or None, sidecar dict).

    Every record must carry an integer ``n``, integer edge endpoints and an
    ``id`` equal to its position among the records (0..M-1); any other
    record is rejected with its line number.
    """
    sizes, counts, endpoints, linenos = [], [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                n, ends = _parse_record(line, len(sizes))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: malformed collection record on line {lineno}: {exc}") from exc
            sizes.append(n)
            counts.append(len(ends) // 2)
            endpoints += ends
            linenos.append(lineno)
    try:
        local = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
        collection = GraphCollection.from_edge_lists(sizes, counts, local)
    except InvalidGraph as exc:
        raise ValueError(
            f"{path}: malformed collection record on line {linenos[exc.graph]}: {exc.reason}"
        ) from exc
    except OverflowError as exc:
        raise ValueError(f"{path}: integer out of range: {exc}") from exc
    latent = None
    sidecar: dict = {}
    try:
        with open(str(path) + ".sidecar.json") as fh:
            sidecar = json.load(fh)
        latent = tuple(np.asarray(u, dtype=float) for u in sidecar.get("latent", []))
        if len(latent) != collection.num_graphs:
            raise ValueError(f"{path}: sidecar latent count does not match collection")
    except FileNotFoundError:
        pass
    return collection, latent, sidecar
