"""Accuracy metrics: squared-error against the degree-sorted truth, latent
position error, rank diagnostics, and the high-probability latent error bound.

Graphons are only identified up to measure-preserving rearrangement, so the
squared error compares every estimate against the degree-increasing
canonical representative of the truth on a common fine grid.
"""
from __future__ import annotations

import math

import numpy as np

from .estimates import StepEstimate, _source_cells
from .graphons import Graphon, canonical_rearrangement, check_grid, degree_function
from .jgs import JointOrdering
from .tv import _require_int

__all__ = ["mise", "mae_latent", "eta_bound", "rank_discrepancy", "evaluate_estimate"]


# cells of the squared-difference grid summed at once (512 KB of float64).
# numpy sums a contiguous array pairwise: a range of more than 128 cells is
# split at half its length rounded down to a multiple of 8, at every level.
# Blocks that are nodes of that tree, each summed by np.add.reduce and added
# back in tree order, give the float np.mean gives for the whole grid.
_MISE_BLOCK_CELLS = 1 << 16


def mise(estimate, truth: Graphon, resolution: int = 1000) -> float:
    """Mean integrated squared error of a step estimate against a graphon.

    The truth is rearranged to its degree-increasing representative on a
    resolution x resolution midpoint grid; the estimate is resampled to the
    same grid piecewise-constantly; the result is the mean of the squared
    cellwise differences. A raw array must pass the grid check of
    ``StepEstimate`` values.

    The grid of squared differences is never built whole: it is summed in
    blocks of at most ``_MISE_BLOCK_CELLS`` cells split as numpy's pairwise
    sum splits it, so the result equals ``np.mean`` of that grid bit for bit.
    """
    if isinstance(estimate, StepEstimate):
        values = estimate.values
    else:
        values = check_grid(estimate, "estimate values", "estimate values")
    k = values.shape[0]
    truth_k = truth.grid.shape[0] if truth.is_step else 1
    if resolution < max(k, truth_k):
        raise ValueError("resolution must be at least as fine as both grids")
    truth_grid = canonical_rearrangement(truth, resolution).grid
    cell = _source_cells(k, resolution)
    # the estimate resampled along columns: grid row i is cols[cell[i]]. take
    # returns C order (values[:, cell] is Fortran order, which each gather
    # below would copy)
    cols = values.take(cell, axis=1)
    # a block starting at the end of a row touches at most this many rows
    buf = np.empty((min(_MISE_BLOCK_CELLS // resolution + 2, resolution), resolution))
    total = _tree_sum(cols, cell, truth_grid, buf, 0, resolution * resolution)
    return float(total / resolution**2)


def _tree_sum(cols, cell, truth_grid, buf, start, stop):
    """Sum of the squared differences over the flat grid cells start:stop,
    split where numpy's pairwise sum splits a range of that length."""
    n = stop - start
    if n <= _MISE_BLOCK_CELLS:
        return _block_sum(cols, cell, truth_grid, buf, start, stop)
    half = n // 2 - (n // 2) % 8
    left = _tree_sum(cols, cell, truth_grid, buf, start, start + half)
    return left + _tree_sum(cols, cell, truth_grid, buf, start + half, stop)


def _block_sum(cols, cell, truth_grid, buf, start, stop):
    """np.add.reduce of the squared differences over the flat grid cells
    start:stop, after filling ``buf`` with the differences on the whole grid
    rows they lie in."""
    width = truth_grid.shape[1]
    first, last = start // width, -(-stop // width)
    rows = buf[:last - first]
    # mode="clip" gathers straight into rows; the default mode gathers into
    # a temporary first (the cells are in range, so nothing is clipped)
    np.take(cols, cell[first:last], axis=0, out=rows, mode="clip")
    np.subtract(rows, truth_grid[first:last], out=rows)
    block = buf.reshape(-1)[start - first * width:stop - first * width]
    block *= block
    return np.add.reduce(block)


def mae_latent(ordering: JointOrdering, truth, orientation: str = "direct") -> float:
    """Mean absolute error of the latent-position estimates.

    ``truth`` is the per-graph sequence of true latent positions. With
    ``orientation="best"`` the error is also evaluated against the mirrored
    positions 1 - U and the smaller value is returned (useful when the
    generating kernel has a decreasing degree function).
    """
    truth = [np.asarray(u, dtype=float) for u in truth]
    if not np.array_equal(np.diff(ordering.node_offsets), [u.size for u in truth]):
        raise ValueError("latent assignment does not match the ordering's node sets")
    u_true = np.concatenate(truth)
    u_hat = ordering.uhat
    direct = float(np.mean(np.abs(u_hat - u_true)))
    if orientation == "direct":
        return direct
    if orientation == "best":
        return min(direct, float(np.mean(np.abs(u_hat - (1.0 - u_true)))))
    raise ValueError(f"unknown orientation {orientation!r}")


def eta_bound(n_sizes, target: tuple[int, int], delta: float, l1: float) -> float:
    """High-probability bound on |Uhat - U| for one node of one graph.

    ``target`` is (node i, graph m). With eps_l = sqrt(log(2/delta) /
    (2 (n_l - 1))) and eps_N = sqrt(log(2/delta) / (2 N)):

        eta = (2/l1) * (eps_m + mean of eps over all other nodes) + eps_N.

    The bound is identical for every node of the same graph; the node index
    is accepted for interface symmetry and validated only.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly inside (0, 1)")
    if l1 <= 0:
        raise ValueError("l1 must be positive")
    sizes = list(n_sizes)
    _require_int("graph size", *sizes, least=2)
    i, m = target
    if not 0 <= m < len(sizes) or not 0 <= i < sizes[m]:
        raise ValueError("target node out of range")
    big_n = sum(sizes)
    log_term = math.log(2.0 / delta)
    eps = [math.sqrt(log_term / (2.0 * (n - 1))) for n in sizes]
    eps_n = math.sqrt(log_term / (2.0 * big_n))
    others = sum(n * e for n, e in zip(sizes, eps)) - eps[m]
    return (2.0 / l1) * (eps[m] + others / big_n) + eps_n


def rank_discrepancy(
    ordering: JointOrdering, truth, spec: Graphon, resolution: int = 1000
) -> float:
    """Mean normalized gap between empirical ranks and degree-oracle ranks.

    The oracle rank of a node counts the nodes whose theoretical degree
    g(U) (midpoint quadrature at ``resolution``) does not exceed its own.
    """
    truth = [np.asarray(u, dtype=float) for u in truth]
    u_true = np.concatenate(truth)
    if u_true.size != ordering.n_total:
        raise ValueError("latent assignment does not match the ordering's node count")
    g = np.asarray(degree_function(spec, u_true, resolution=resolution))
    oracle = np.searchsorted(np.sort(g), g, side="right")
    big_n = ordering.n_total
    return float(np.mean(np.abs(ordering.rank / big_n - oracle / big_n)))


def evaluate_estimate(
    estimate: StepEstimate,
    truth: Graphon,
    resolution: int = 1000,
    ordering: JointOrdering | None = None,
    latent=None,
) -> dict:
    """The score columns of one result row, keyed by ``ResultRecord``'s
    field names: the jgs ``k`` (None when the params record none), MISE,
    latent MAE (when both the joint ordering and the true positions are
    given, else None), empty-block fraction and the estimator's time."""
    return {
        "k": estimate.params.get("k"),
        "mise": mise(estimate, truth, resolution=resolution),
        "mae": None if ordering is None or latent is None else mae_latent(ordering, latent),
        "empty_frac": estimate.empty_blocks / estimate.k**2,
        "seconds": estimate.elapsed_seconds,
    }
