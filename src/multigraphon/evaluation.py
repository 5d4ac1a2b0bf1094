"""Accuracy metrics: squared-error against the degree-sorted truth, latent
position error, rank diagnostics, and the high-probability latent error bound.

Graphons are only identified up to measure-preserving rearrangement, so the
squared error compares every estimate against the degree-increasing
canonical representative of the truth on a common fine grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import StepEstimate, _source_cells
from .graphons import Graphon, canonical_rearrangement, degree_function
from .jgs import JointOrdering

__all__ = ["mise", "mae_latent", "eta_bound", "rank_discrepancy", "EvalReport", "evaluate_estimate"]


def mise(estimate, truth: Graphon, resolution: int = 1000) -> float:
    """Mean integrated squared error of a step estimate against a graphon.

    The truth is rearranged to its degree-increasing representative on a
    resolution x resolution midpoint grid; the estimate is resampled to the
    same grid piecewise-constantly; the result is the mean of the squared
    cellwise differences.
    """
    values = estimate.values if isinstance(estimate, StepEstimate) else np.asarray(estimate, dtype=float)
    k = values.shape[0]
    truth_k = truth.grid.shape[0] if truth.is_step else 1
    if resolution < max(k, truth_k):
        raise ValueError("resolution must be at least as fine as both grids")
    truth_grid = canonical_rearrangement(truth, resolution).grid
    # resample_grid(values, resolution) - truth_grid, squared, in one buffer
    counts = np.bincount(_source_cells(k, resolution), minlength=k)
    sq = np.repeat(np.repeat(values, counts, axis=0), counts, axis=1)
    sq -= truth_grid
    sq *= sq
    return float(np.mean(sq))


def mae_latent(ordering: JointOrdering, truth, orientation: str = "direct") -> float:
    """Mean absolute error of the latent-position estimates.

    ``truth`` is the per-graph sequence of true latent positions. With
    ``orientation="best"`` the error is also evaluated against the mirrored
    positions 1 - U and the smaller value is returned (useful when the
    generating kernel has a decreasing degree function).
    """
    truth = [np.asarray(u, dtype=float) for u in truth]
    counts = np.bincount(ordering.graph_index, minlength=len(truth))
    if len(truth) != np.max(ordering.graph_index) + 1 or not np.array_equal(
        counts, np.asarray([u.size for u in truth])
    ):
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
    sizes = [int(n) for n in n_sizes]
    if any(n < 2 for n in sizes):
        raise ValueError("all graph sizes must be >= 2")
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


@dataclass(frozen=True)
class EvalReport:
    """One evaluated trial: its accuracy metrics and the estimator's time."""

    mise: float
    mae_latent: float | None
    empty_block_fraction: float
    elapsed_seconds: float


def evaluate_estimate(
    estimate: StepEstimate,
    truth: Graphon,
    resolution: int = 1000,
    ordering: JointOrdering | None = None,
    latent=None,
) -> EvalReport:
    """Score one step estimate; latent MAE is included when both the joint
    ordering and the true positions are available."""
    mae = None
    if ordering is not None and latent is not None:
        mae = mae_latent(ordering, latent)
    return EvalReport(
        mise=mise(estimate, truth, resolution=resolution),
        mae_latent=mae,
        empty_block_fraction=estimate.empty_blocks / estimate.k**2,
        elapsed_seconds=estimate.elapsed_seconds,
    )
