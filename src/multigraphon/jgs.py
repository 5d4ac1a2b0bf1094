"""Joint degree sorting estimator for a graphon shared by many graphs.

The pipeline: per-graph normalized degrees -> one global ascending sort of
all N nodes in the collection -> equally spaced latent-position estimates
(rank - 1/2) / N -> a k x k block histogram of observed edge frequencies,
where only within-graph dyads are observed.

Block membership uses exact integer arithmetic: the node with rank r lands
in block floor((2r - 1) k / (2N)), which is precisely the index s-1 of the
interval I_s = [(s-1)/k, s/k) (last interval closed) containing
(r - 1/2)/N.

The joint sort never compares floats: a normalized degree d/(n-1) takes one
of T = sum over the distinct graph sizes n of n values, so every node gets
the dense rank of its value in that table (its level), and a stable radix
sort of the levels gives the order of a stable float sort in O(N + T log T).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .collection import GraphCollection, _offsets, _split
from .estimates import StepEstimate
from .tv import TvParams, _require_int, tv_smooth

__all__ = [
    "DegreeReport",
    "JointOrdering",
    "normalized_degrees",
    "joint_sort",
    "select_k",
    "jgs_histogram",
    "estimate_jgs",
]


@dataclass(frozen=True, eq=False)
class DegreeReport:
    """Integer degree of every node, graph-major, plus which graphs hit the
    size-1 convention. Graph m's nodes are
    ``count[node_offsets[m]:node_offsets[m+1]]``."""

    count: np.ndarray = field(repr=False)
    node_offsets: np.ndarray = field(repr=False)
    singleton_graphs: tuple[int, ...]

    @property
    def degree(self) -> np.ndarray:
        """Normalized degree of every node: its count divided by n - 1 (by 1
        in a single-node graph)."""
        sizes = np.diff(self.node_offsets)
        return self.count / np.repeat(np.maximum(sizes - 1, 1), sizes)

    @property
    def per_graph(self) -> tuple[np.ndarray, ...]:
        """Per-graph views of ``degree``."""
        return _split(self.degree, self.node_offsets)


def normalized_degrees(collection: GraphCollection) -> DegreeReport:
    """Degree of every node divided by n - 1 (its number of potential neighbours).

    A single-node graph has no well-defined divisor; its node gets degree 0
    by convention and the graph index is flagged in the report.
    """
    offsets = collection.node_offsets
    count = np.bincount(collection.edges.ravel(), minlength=collection.total_nodes)
    singletons = np.flatnonzero(np.diff(offsets) == 1)
    return DegreeReport(count, offsets, tuple(singletons.tolist()))


def _degree_levels(report: DegreeReport) -> tuple[np.ndarray, int]:
    """Dense rank of every node's normalized degree among all values the
    collection's graph sizes allow, and the number of distinct values.

    The table holds d/(n-1) for d = 0..n-1 of each distinct size n (0/1 for
    n = 1), divided as ``DegreeReport.degree`` divides, so equal levels mean
    equal floats and levels ascend as the floats do.
    """
    sizes = np.diff(report.node_offsets)
    distinct = np.flatnonzero(np.bincount(sizes))
    start = _offsets(distinct)
    table = np.arange(start[-1]) - np.repeat(start[:-1], distinct)
    values, table_level = np.unique(table / np.repeat(np.maximum(distinct - 1, 1), distinct),
                                    return_inverse=True)
    slot = np.repeat(start[np.searchsorted(distinct, sizes)], sizes)
    slot += report.count
    # levels that fit 16 bits are gathered as such: the radix sort's own key
    dtype = np.uint16 if values.size <= 1 << 16 else np.int64
    return table_level.astype(dtype)[slot], values.size


def _stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """Stable ascending argsort of non-negative integer keys below ``bound``.

    numpy sorts 16-bit keys with a radix sort, so keys are sorted one 16-bit
    digit at a time, least significant first: one pass for ``bound <= 2**16``,
    two up to 2**32.
    """
    # the uint16 cast keeps the low 16 bits of each shifted key
    order = np.argsort(key.astype(np.uint16, copy=False), kind="stable")
    shift = 16
    while bound > 1 << shift:
        order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return order


@dataclass(frozen=True, eq=False)
class JointOrdering:
    """Global ascending ordering of all nodes by normalized degree.

    ``rank`` holds the 1-based position of every node in the sorted order,
    in graph-major node enumeration: graph m's nodes are
    ``rank[node_offsets[m]:node_offsets[m+1]]``.
    """

    rank: np.ndarray = field(repr=False)
    node_offsets: np.ndarray = field(repr=False)

    @property
    def n_total(self) -> int:
        return self.rank.size

    @property
    def uhat(self) -> np.ndarray:
        """Latent-position estimates (rank - 1/2) / N, graph-major order."""
        return (self.rank - 0.5) / self.n_total


def joint_sort(degrees) -> JointOrdering:
    """Stable ascending sort of all (graph, node) entries by normalized degree.

    ``degrees`` is a :class:`DegreeReport` or a sequence of per-graph degree
    arrays; a report is ordered by its exact degree levels, a sequence by
    the levels ``np.unique`` finds in its floats, both with a radix sort.
    Ties are broken by (graph, node) enumeration order.
    """
    if isinstance(degrees, DegreeReport):
        offsets = degrees.node_offsets
        level, levels = _degree_levels(degrees)
    else:
        per_graph = [np.asarray(d, dtype=float) for d in degrees]
        offsets = _offsets([d.size for d in per_graph])
        values, level = np.unique(np.concatenate(per_graph) if per_graph else np.empty(0),
                                  return_inverse=True)
        levels = values.size
    if level.size == 0:
        raise ValueError("need at least one node")
    rank = np.empty(level.size, dtype=np.int64)
    rank[_stable_order(level, levels)] = np.arange(1, level.size + 1)
    return JointOrdering(rank, offsets)


def select_k(N: int, M: int, S: int) -> int:
    """Number of histogram blocks: min(S^(1/4), N / (2 (M + ln N))), floored, >= 1.

    The first branch balances squared bias against variance for smooth
    kernels; the second guards against blocks that receive no observed
    dyads. The S^(1/4) branch uses exact integer fourth roots.
    """
    if N < 1 or M < 1 or S < 1:
        raise ValueError("N, M, S must all be >= 1")
    rate_k = math.isqrt(math.isqrt(S))
    guard_k = math.floor(N / (2.0 * (M + math.log(N))))
    return max(1, min(rate_k, guard_k))


# Edges per histogram pass. Chunks keep the pass's temporaries under 4 MB:
# numpy backs larger arrays with huge pages, and faulting those in made a
# single pass over 500k edges about twice as slow as chunked passes.
_EDGE_CHUNK = 1 << 16


def _block_of_rank(rank: np.ndarray, N: int, k: int) -> np.ndarray:
    # exact integer form of: index of the interval containing (rank - 1/2)/N
    return ((2 * rank.astype(np.int64) - 1) * k) // (2 * N)


def _edge_counts(edges: np.ndarray, row_key: np.ndarray, col_key: np.ndarray, size: int) -> np.ndarray:
    """Histogram over ``size`` cells of the key ``row_key[i] + col_key[j]``
    of every stored edge (i, j), one chunk of edges at a time."""
    counts = np.zeros(size, dtype=np.int64)
    for start in range(0, edges.shape[0], _EDGE_CHUNK):
        e = edges[start:start + _EDGE_CHUNK]
        counts += np.bincount(row_key[e[:, 0]] + col_key[e[:, 1]], minlength=size)
    return counts


def _check_ordering(collection: GraphCollection, ordering: JointOrdering) -> None:
    if not np.array_equal(ordering.node_offsets, collection.node_offsets):
        raise ValueError("ordering does not cover exactly the collection's nodes")


def jgs_histogram(collection: GraphCollection, ordering: JointOrdering, k: int) -> StepEstimate:
    """Block histogram of observed edge frequencies under the joint ordering.

    Block (s, t) averages the merged adjacency over all ordered within-graph
    pairs (i, j) whose latent estimates fall in I_s x I_t; self-pairs i = j
    are part of the denominator (the merged diagonal is an observed zero).
    Blocks with no observed dyads are 0 through the max(1, .) guard.
    Runs in one pass over the collection's edge array (in fixed-size
    chunks) plus one pass over the nodes.
    """
    _require_int("k", k)
    _check_ordering(collection, ordering)
    N = collection.total_nodes
    M = collection.num_graphs
    node_blocks = _block_of_rank(ordering.rank, N, k)
    half = _edge_counts(collection.edges, node_blocks * k, node_blocks, k * k).reshape(k, k)
    graph_key = np.repeat(np.arange(0, M * k, k), np.diff(collection.node_offsets))
    counts = np.bincount(graph_key + node_blocks, minlength=M * k).reshape(M, k)
    num = half + half.T  # each stored edge stands for two ordered entries
    denom = counts.T @ counts

    values = num / np.maximum(1, denom)
    return StepEstimate(
        values=values,
        method="jgs",
        n_total=N,
        n_graphs=M,
        dyad_count=collection.total_dyads,
        params={
            "k": k,
            "edges_touched": collection.edge_count,
            "nodes_touched": int(N),
        },
        empty_blocks=int(np.count_nonzero(denom == 0)),
    )


def estimate_jgs(
    collection: GraphCollection,
    k: int | str = "auto",
    smoothing: TvParams | None = None,
) -> StepEstimate:
    """Full estimation pipeline: degrees, joint sort, block count, histogram.

    ``k="auto"`` applies :func:`select_k`; ``smoothing`` (a TvParams) adds
    the total-variation post-smoothing step. Elapsed wall time covers the
    estimator only.
    """
    t0 = time.perf_counter()
    report = normalized_degrees(collection)
    ordering = joint_sort(report)
    N, M, S = collection.total_nodes, collection.num_graphs, collection.total_dyads
    if k == "auto":
        k_val, k_mode = select_k(N, M, S), "auto"
    else:
        k_val, k_mode = k, "fixed"
    hist = jgs_histogram(collection, ordering, k_val)
    values = hist.values
    method = "jgs"
    params = {
        "k": int(k_val),
        "k_mode": k_mode,
        "c": 2.0,
        "degree_divisor": "n-1",
        "singleton_graphs": len(report.singleton_graphs),
        "tie_break": "index",
    }
    if smoothing is not None:
        values = tv_smooth(values, smoothing)
        method = "jgs-smooth"
        params["lambda"] = smoothing.lam
    elapsed = time.perf_counter() - t0
    return StepEstimate(
        values=values,
        method=method,
        n_total=N,
        n_graphs=M,
        dyad_count=S,
        params=params,
        elapsed_seconds=elapsed,
        empty_blocks=hist.empty_blocks,
    )
