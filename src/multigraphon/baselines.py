"""Classical per-graph graphon estimators and their pooled multi-graph versions.

Two per-graph methods are pooled: a degree-sorted histogram with TV
smoothing, and spectral truncation of the adjacency matrix (keep eigenpairs
above a universal threshold, clip the reconstruction). The multi-graph
protocol degree-sorts each per-graph estimate, resamples all of them to a
common grid, and averages with equal weight per graph.
"""
from __future__ import annotations

import math
import time

import numpy as np

from .collection import GraphCollection, _graph_edges, _offsets, _split
from .estimates import StepEstimate, resample_grid
from .jgs import _edge_counts, _stable_order
from .tv import TvParams, tv_smooth

__all__ = [
    "jacobi_eigh",
    "usvt_single",
    "pool_estimates",
    "estimate_sas_pool",
    "estimate_usvt_pool",
]

DEFAULT_SAS_LAMBDA = 0.05


def jacobi_eigh(a: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with a ~ V @ diag(w) @ V.T.
    Sweeps rotate every upper-triangle pair; convergence is declared when
    the off-diagonal Frobenius norm drops below ``tol``.

    The input must be finite and exactly symmetric, and every rotation keeps
    it so: the row update of pair (p, q) repeats, value for value, the column
    update just made outside the 2x2 block. So only columns are rotated,
    those of ``a`` and ``v`` together as rows of one transposed stack. A
    rotation scales and combines the two rows in place through preallocated
    views and two scratch rows, writes the 2x2 block from Python floats, and
    copies the two rows into the matching columns. The cyclic pair order and
    every rounding step are those of the plain row-and-column update.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    n = a.shape[0]
    if n == 1:
        return np.diag(a).copy(), np.eye(1)
    # row j holds column j of a, then column j of v
    cols = np.concatenate([a.T, np.eye(n)], axis=1)
    at = cols[:, :n]
    rows, a_rows, a_cols = list(cols), list(at), list(at.T)
    sp, sq = np.empty(2 * n), np.empty(2 * n)
    # c and s enter the ufuncs as 0-d arrays: a Python float operand costs a
    # conversion on every call. In-place operators and slice assignment
    # dispatch faster than the equivalent np.multiply(..., out=) and
    # np.copyto calls, with the same IEEE operations.
    c0, s0 = np.empty(()), np.empty(())

    def off_norm(m):
        # summed directly over off-diagonal entries; subtracting the diagonal
        # from the total would cancel catastrophically near convergence
        od = m.copy()
        np.fill_diagonal(od, 0.0)
        return float(np.linalg.norm(od))

    for _ in range(max_sweeps):
        if off_norm(at) <= tol:
            return np.diag(at).copy(), cols[:, n:].T.copy()
        for p in range(n - 1):
            rp = rows[p]
            for q in range(p + 1, n):
                apq = rp.item(q)
                if apq == 0.0:
                    continue
                rq = rows[q]
                phi = 0.5 * math.atan2(2.0 * apq, rq.item(q) - rp.item(p))
                c, s = math.cos(phi), math.sin(phi)
                c0[()], s0[()] = c, s
                # rp, rq = c rp - s rq, s rp + c rq
                np.multiply(rp, s0, out=sp)
                np.multiply(rq, s0, out=sq)
                rp *= c0
                rp -= sq
                rq *= c0
                rq += sp
                app = c * rp.item(p) - s * rp.item(q)
                aqq = s * rq.item(p) + c * rq.item(q)
                rp[p], rp[q] = app, 0.0
                rq[p], rq[q] = 0.0, aqq
                a_cols[p][...] = a_rows[p]
                a_cols[q][...] = a_rows[q]
    if off_norm(at) <= tol:
        return np.diag(at).copy(), cols[:, n:].T.copy()
    raise ArithmeticError(
        f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
        f"(n={n}, off-diagonal norm {off_norm(at):.3e}, tol {tol:.1e})"
    )


def _sas_blocks(collection: GraphCollection, h: int) -> list[np.ndarray]:
    """Unsmoothed degree-sorted histogram of every graph of the collection.

    Graph m ranks its nodes by degree (stable, index tie-break) and cuts
    them into ceil(n_m / h) bins of ``h`` nodes; its table of bin pairs sits
    at its own offset in one array of cells, which the jgs edge pass counts
    for all graphs at once. Block (s, t) divides the edges between bins s
    and t by their node pairs, self-pairs excluded.
    """
    sizes = np.diff(collection.node_offsets)
    graph = np.repeat(np.arange(sizes.size), sizes)
    degree = np.bincount(collection.edges.ravel(), minlength=graph.size)
    rank = np.empty_like(degree)
    # degree < n, so the key orders as (graph, degree) and stays below N
    order = _stable_order(collection.node_offsets[graph] + degree, graph.size)
    rank[order] = np.arange(graph.size) - collection.node_offsets[graph]
    bins = rank // h
    nb = -(-sizes // h)
    cells, bin_offsets = _offsets(nb * nb), _offsets(nb)
    half = _edge_counts(collection.edges, cells[graph] + bins * nb[graph], bins, cells[-1])
    counts = np.bincount(bin_offsets[graph] + bins, minlength=bin_offsets[-1])
    # cell (s, t) of graph m's table, with the counts c_s, c_t of its bins
    cell_graph = np.repeat(np.arange(nb.size), nb * nb)
    s, t = np.divmod(np.arange(cells[-1]) - cells[cell_graph], nb[cell_graph])
    cs, ct = counts[bin_offsets[cell_graph] + s], counts[bin_offsets[cell_graph] + t]
    num = half + half[cells[cell_graph] + t * nb[cell_graph] + s]
    values = num / np.maximum(1, cs * ct - np.where(s == t, cs, 0))
    return [v.reshape(n, n) for v, n in zip(_split(values, cells), nb.tolist())]


def usvt_single(adjacency: np.ndarray, tau: float | None = None) -> np.ndarray:
    """Spectral-threshold probability matrix for one graph, from its n x n
    adjacency matrix.

    Eigenpairs of the adjacency with |eigenvalue| >= tau are retained and
    the reconstruction is clipped to [0, 1]. Default threshold is
    0.2 sqrt(n); a given ``tau`` must be finite and > 0. A modulus within a
    relative 1e-9 below tau counts as a tie and is kept, so an exact tie
    (tau = 1 at n = 25 against an eigenvalue of -1) does not hang on roundoff.
    """
    n = len(adjacency)
    if n < 2:
        raise ValueError("spectral estimate needs at least 2 nodes")
    if tau is None:
        tau = 0.2 * math.sqrt(n)
    # NaN fails both comparisons; an infinite threshold would keep nothing
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"threshold tau must be finite and > 0, got {tau!r}")
    w, v = jacobi_eigh(adjacency)
    keep = np.abs(w) >= tau * (1 - 1e-9)
    recon = (v[:, keep] * w[keep]) @ v[:, keep].T
    recon = 0.5 * (recon + recon.T)
    return np.clip(recon, 0.0, 1.0)


def _adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    """The n x n 0/1 adjacency matrix of a graph with local edge rows ``edges``."""
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    return a


def pool_estimates(per_graph, resolution: int) -> np.ndarray:
    """Average per-graph step estimates on a common grid.

    Each input is degree-sorted (rows and columns ordered by ascending row
    mean), resampled to resolution x resolution piecewise-constantly, and
    the results are averaged with equal weight per graph into the returned
    resolution x resolution array.
    """
    mats = [np.asarray(e, dtype=float) for e in per_graph]
    if not mats:
        raise ValueError("need at least one per-graph estimate")
    acc = np.zeros((resolution, resolution))
    for e in mats:
        order = np.argsort(e.mean(axis=1), kind="stable")
        acc += resample_grid(e[np.ix_(order, order)], resolution)
    return acc / len(mats)


def _poolable(collection: GraphCollection, per_graph) -> list:
    kept = [x for x, n in zip(per_graph, collection.sizes) if n >= 2]
    if not kept:
        raise ValueError("no graph with >= 2 nodes to estimate from")
    return kept


def _pooled_estimate(collection: GraphCollection, ests: list, method: str, params: dict,
                     t0: float) -> StepEstimate:
    """The pooled estimate of the collection from per-graph estimates, on a
    grid as fine as the finest of them; the elapsed time counts from ``t0``."""
    resolution = max(e.shape[0] for e in ests)
    return StepEstimate(
        values=pool_estimates(ests, resolution),
        method=method,
        n_total=collection.total_nodes,
        n_graphs=collection.num_graphs,
        dyad_count=collection.total_dyads,
        params={**params, "resolution": resolution, "skipped_singletons": collection.num_graphs - len(ests)},
        elapsed_seconds=time.perf_counter() - t0,
    )


def _smooth_by_shape(blocks: list[np.ndarray], params: TvParams) -> list[np.ndarray]:
    """``tv_smooth`` of every matrix, in one batched call per shape."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, b in enumerate(blocks):
        groups.setdefault(b.shape, []).append(i)
    out = [None] * len(blocks)
    for members in groups.values():
        for i, smoothed in zip(members, tv_smooth(np.stack([blocks[i] for i in members]), params)):
            out[i] = smoothed
    return out


def estimate_sas_pool(collection: GraphCollection, lam: float = DEFAULT_SAS_LAMBDA) -> StepEstimate:
    """Pooled degree-sorted histogram baseline over the whole collection.

    Every graph is cut into bins of ceil(ln n_max) nodes, one width shared
    by all graphs, and its block matrix is TV-smoothed, one batched call
    per block shape. Size-1 graphs carry no dyad information and are
    skipped. The common grid is the finest per-graph estimate.
    """
    t0 = time.perf_counter()
    smoothing = TvParams(lam=lam)  # bad parameters fail before any per-graph work
    h = max(1, math.ceil(math.log(max(collection.sizes))))
    ests = _smooth_by_shape(_poolable(collection, _sas_blocks(collection, h)), smoothing)
    return _pooled_estimate(collection, ests, "sas-pool", {"h": h, "lambda": lam}, t0)


def estimate_usvt_pool(collection: GraphCollection) -> StepEstimate:
    """Pooled spectral-threshold baseline over the whole collection: each
    graph is thresholded at 0.2 sqrt(n) with its own size."""
    t0 = time.perf_counter()
    graphs = _poolable(collection, zip(collection.sizes, _graph_edges(collection)))
    ests = [usvt_single(_adjacency(n, edges)) for n, edges in graphs]
    return _pooled_estimate(collection, ests, "usvt-pool", {"tau": None, "use_nmax": False}, t0)
