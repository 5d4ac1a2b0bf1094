"""Classical per-graph graphon estimators and their pooled multi-graph versions.

Two single-graph methods are provided: a degree-sorted histogram with TV
smoothing, and spectral truncation of the adjacency matrix (keep eigenpairs
above a universal threshold, clip the reconstruction). The multi-graph
protocol degree-sorts each per-graph estimate, resamples all of them to a
common grid, and averages with equal weight per graph.
"""
from __future__ import annotations

import math
import time

import numpy as np

from .collection import Graph, GraphCollection
from .estimates import StepEstimate, resample_grid
from .tv import TvParams, _require_int, tv_smooth

__all__ = [
    "jacobi_eigh",
    "sas_single",
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

    The input must be exactly symmetric, and every rotation keeps it so: the
    row update of pair (p, q) repeats, value for value, the column update
    just made outside the 2x2 block. So only columns are rotated, those of
    ``a`` and ``v`` together as rows of one transposed stack, and the rows
    are copied from them.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=0.0, rtol=0.0, equal_nan=False):
        raise ValueError("matrix must be symmetric")
    if n == 1:
        return np.diag(a).copy(), np.eye(1)
    # row j holds column j of a, then column j of v
    cols = np.concatenate([a.T, np.eye(n)], axis=1)
    at = cols[:, :n]

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
            for q in range(p + 1, n):
                apq = at[p, q]
                if apq == 0.0:
                    continue
                phi = 0.5 * math.atan2(2.0 * apq, at[q, q] - at[p, p])
                c, s = math.cos(phi), math.sin(phi)
                col_p, col_q = cols[p], cols[q]
                cols[p], cols[q] = c * col_p - s * col_q, s * col_p + c * col_q
                app = c * at[p, p] - s * at[p, q]
                aqq = s * at[q, p] + c * at[q, q]
                at[:, p] = at[p]
                at[:, q] = at[q]
                at[p, p], at[q, q] = app, aqq
                at[p, q] = at[q, p] = 0.0
    if off_norm(at) <= tol:
        return np.diag(at).copy(), cols[:, n:].T.copy()
    raise ArithmeticError(
        f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
        f"(n={n}, off-diagonal norm {off_norm(at):.3e}, tol {tol:.1e})"
    )


def sas_single(
    graph: Graph,
    h: int | None = None,
    lam: float = DEFAULT_SAS_LAMBDA,
    smooth: bool = True,
) -> np.ndarray:
    """Single-graph degree-sorted histogram with TV smoothing.

    Nodes are sorted by normalized degree (stable, index tie-break) and
    partitioned into consecutive bins of ``h`` nodes (the last bin may be
    smaller). Block values average the adjacency entries between the two
    bins excluding self-pairs; the block matrix is then TV-smoothed.
    Default bin width is ceil(ln n); a given ``h`` must be an integer >= 1.
    ``h >= n`` collapses to the global edge density.
    """
    if graph.n < 2:
        raise ValueError("single-graph histogram needs at least 2 nodes")
    n = graph.n
    if h is None:
        h = max(1, math.ceil(math.log(n)))
    _require_int("bin width h", h)
    order = np.argsort(graph.degrees() / (n - 1), kind="stable")
    a = graph.adjacency()[np.ix_(order, order)]
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


def usvt_single(graph: Graph, tau: float | None = None, n_ref: int | None = None) -> np.ndarray:
    """Spectral-threshold probability matrix for one graph.

    Eigenpairs of the adjacency with |eigenvalue| >= tau are retained and
    the reconstruction is clipped to [0, 1]. Default threshold is
    0.2 sqrt(n) with the graph's own size; pass ``n_ref`` to use a
    collection-level reference size instead. A given ``tau`` must be finite
    and > 0.
    """
    if graph.n < 2:
        raise ValueError("spectral estimate needs at least 2 nodes")
    if tau is None:
        tau = 0.2 * math.sqrt(n_ref if n_ref is not None else graph.n)
    _check_tau(tau)
    w, v = jacobi_eigh(graph.adjacency())
    keep = np.abs(w) >= tau
    recon = (v[:, keep] * w[keep]) @ v[:, keep].T
    recon = 0.5 * (recon + recon.T)
    return np.clip(recon, 0.0, 1.0)


def _check_tau(tau: float) -> None:
    # NaN fails both comparisons; an infinite threshold would keep nothing
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"threshold tau must be finite and > 0, got {tau!r}")


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


def _poolable_graphs(collection: GraphCollection) -> list[Graph]:
    graphs = [g for g in collection.graphs if g.n >= 2]
    if not graphs:
        raise ValueError("no graph with >= 2 nodes to estimate from")
    return graphs


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


def estimate_sas_pool(
    collection: GraphCollection,
    h: int | None = None,
    lam: float = DEFAULT_SAS_LAMBDA,
    resolution: int | None = None,
) -> StepEstimate:
    """Pooled degree-sorted histogram baseline over the whole collection.

    Bin width defaults to ceil(ln n_max) shared by every graph. Size-1
    graphs carry no dyad information and are skipped. The common grid
    defaults to the finest per-graph estimate. Equal to pooling
    ``sas_single`` of every graph, byte for byte; the TV smoothing of
    same-shape block matrices runs as one batch.
    """
    t0 = time.perf_counter()
    smoothing = TvParams(lam=lam)  # bad parameters fail before any per-graph work
    if h is not None:
        _require_int("bin width h", h)
    graphs = _poolable_graphs(collection)
    n_max = max(g.n for g in graphs)
    if h is None:
        h = max(1, math.ceil(math.log(n_max)))
    ests = _smooth_by_shape([sas_single(g, h=h, smooth=False) for g in graphs], smoothing)
    if resolution is None:
        resolution = max(e.shape[0] for e in ests)
    pooled = pool_estimates(ests, resolution)
    elapsed = time.perf_counter() - t0
    return StepEstimate(
        values=pooled,
        method="sas-pool",
        n_total=collection.total_nodes,
        n_graphs=collection.num_graphs,
        dyad_count=collection.total_dyads,
        params={"h": int(h), "lambda": lam, "resolution": int(resolution),
                "skipped_singletons": collection.num_graphs - len(graphs)},
        elapsed_seconds=elapsed,
    )


def estimate_usvt_pool(
    collection: GraphCollection,
    tau: float | None = None,
    use_nmax: bool = False,
    resolution: int | None = None,
) -> StepEstimate:
    """Pooled spectral-threshold baseline over the whole collection.

    By default each graph is thresholded at 0.2 sqrt(n) with its own size;
    ``use_nmax`` switches to the largest size in the collection.
    """
    t0 = time.perf_counter()
    if tau is not None:
        _check_tau(tau)  # before any per-graph work
    graphs = _poolable_graphs(collection)
    n_max = max(g.n for g in graphs)
    ests = [usvt_single(g, tau=tau, n_ref=n_max if use_nmax else None) for g in graphs]
    if resolution is None:
        resolution = max(e.shape[0] for e in ests)
    pooled = pool_estimates(ests, resolution)
    elapsed = time.perf_counter() - t0
    return StepEstimate(
        values=pooled,
        method="usvt-pool",
        n_total=collection.total_nodes,
        n_graphs=collection.num_graphs,
        dyad_count=collection.total_dyads,
        params={"tau": tau, "use_nmax": use_nmax, "resolution": int(resolution),
                "skipped_singletons": collection.num_graphs - len(graphs)},
        elapsed_seconds=elapsed,
    )
