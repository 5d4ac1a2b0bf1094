"""Test oracles: slow, literal forms of what the package computes faster.

``jgs_histogram_naive`` is the merged-matrix histogram the streaming
``jgs_histogram`` must equal bit for bit (acceptance criterion 6).
``frozen_joint_rank`` is a frozen copy of ``joint_sort`` from before it
ordered nodes by a radix sort of exact degree levels: a comparison sort of
the degree floats.
"""
import numpy as np

from multigraphon.collection import GraphCollection
from multigraphon.estimates import StepEstimate
from multigraphon.jgs import JointOrdering, _block_of_rank, _check_ordering
from multigraphon.tv import _require_int


def frozen_joint_rank(degrees) -> np.ndarray:
    """1-based ranks of ``joint_sort(degrees)`` for a sequence of per-graph
    degree arrays."""
    d_all = np.concatenate([np.asarray(d, dtype=float) for d in degrees])
    order = np.argsort(d_all, kind="stable")
    rank = np.empty(d_all.size, dtype=np.int64)
    rank[order] = np.arange(1, d_all.size + 1)
    return rank


def jgs_histogram_naive(
    collection: GraphCollection, ordering: JointOrdering, k: int, max_nodes: int = 2000
) -> StepEstimate:
    """Literal merged-matrix histogram; quadratic memory, test oracle only.

    Materializes the N x N sorted adjacency with missing entries wherever a
    pair spans two graphs, then sums observed entries block by block. Blocks
    are the contiguous rank ranges induced by the shared membership rule.
    """
    _require_int("k", k)
    _check_ordering(collection, ordering)
    N = collection.total_nodes
    if N > max_nodes:
        raise ValueError(f"naive histogram is oracle-scale only (N={N} > {max_nodes})")

    merged = np.full((N, N), np.nan)
    offsets = collection.node_offsets
    for m, g in enumerate(collection.graphs):
        pos = ordering.rank[offsets[m]:offsets[m + 1]] - 1
        merged[np.ix_(pos, pos)] = g.adjacency()

    observed = ~np.isnan(merged)
    block_by_rank = _block_of_rank(np.arange(1, N + 1), N, k)
    # membership blocks are non-decreasing in rank, hence contiguous ranges
    bounds = np.searchsorted(block_by_rank, np.arange(k + 1))
    num = np.zeros((k, k), dtype=np.int64)
    denom = np.zeros((k, k), dtype=np.int64)
    for s in range(k):
        rs = slice(bounds[s], bounds[s + 1])
        for t in range(k):
            ct = slice(bounds[t], bounds[t + 1])
            cell = merged[rs, ct]
            obs = observed[rs, ct]
            num[s, t] = int(np.nansum(cell))
            denom[s, t] = int(np.count_nonzero(obs))

    values = num / np.maximum(1, denom)
    return StepEstimate(
        values=values,
        method="jgs-naive",
        n_total=N,
        n_graphs=collection.num_graphs,
        dyad_count=collection.total_dyads,
        params={"k": k},
        empty_blocks=int(np.count_nonzero(denom == 0)),
    )
