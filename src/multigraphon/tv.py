"""Total-variation (ROF) denoising of a block estimate.

Approximately minimizes  ||u - H||^2 / (2 lam) + TV(u)  with isotropic
discrete TV (forward differences, reflecting boundary) via the dual
fixed-point projection iteration of Chambolle. Used as the optional
post-smoothing step of histogram estimates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TvParams", "TvResult", "rof_energy", "tv_denoise", "tv_smooth"]


@dataclass(frozen=True)
class TvParams:
    lam: float = 0.05
    tau: float = 0.25
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not 0 < self.tau <= 0.25:
            raise ValueError("tau must lie in (0, 0.25]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True, eq=False)
class TvResult:
    values: np.ndarray
    energies: np.ndarray
    iterations: int


def _energies(u: np.ndarray, ref: np.ndarray, lam: float, gx, gy, tmp) -> np.ndarray:
    # per-grid ROF energy of a (B, r, c) stack; gx and gy are scratch buffers
    # whose last row (gx) and last column (gy) are zero, the reflecting boundary
    np.subtract(u[:, 1:], u[:, :-1], out=gx[:, :-1])
    np.subtract(u[:, :, 1:], u[:, :, :-1], out=gy[:, :, :-1])
    np.hypot(gx, gy, out=tmp)
    tv = tmp.sum(axis=(1, 2))
    np.subtract(u, ref, out=tmp)
    np.square(tmp, out=tmp)
    return tmp.sum(axis=(1, 2)) / (2.0 * lam) + tv


def rof_energy(u: np.ndarray, ref: np.ndarray, lam: float) -> float:
    """||u - ref||^2 / (2 lam) + isotropic TV(u)."""
    u = np.asarray(u, dtype=float)[None]
    gx, gy, tmp = np.zeros_like(u), np.zeros_like(u), np.empty_like(u)
    return float(_energies(u, ref, lam, gx, gy, tmp)[0])


def _denoise_stack(h: np.ndarray, params: TvParams) -> list[TvResult]:
    """The dual projection iteration on a (B, r, c) stack of grids, one result per grid.

    Every grid follows its own iteration exactly as if run alone; a grid
    leaves the batch when it stops.
    """
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    if params.lam == 0.0:
        return [TvResult(g.copy(), np.array([rof_energy(g, g, 1.0)]), 0) for g in h]

    lam, tau, tol = params.lam, params.tau, params.tol
    b, r, c = h.shape
    hl = h / lam
    # the dual pair keeps one leading zero row (px) or column (py), so div is
    # two subtractions; px's last row and py's last column stay zero, since the
    # forward differences vanish there
    px, px_new = np.zeros((b, r + 1, c)), np.zeros((b, r + 1, c))
    py, py_new = np.zeros((b, r, c + 1)), np.zeros((b, r, c + 1))
    u, u_new = h.copy(), np.empty_like(h)
    div, div_new = np.zeros_like(h), np.empty_like(h)  # div(p), reused at the next step
    gx, gy, scale, tmp = np.zeros_like(h), np.zeros_like(h), np.empty_like(h), np.empty_like(h)
    history = np.empty((min(params.max_iters, 256) + 1, b))  # energies by step, one column per grid
    history[0] = _energies(u, h, lam, gx, gy, tmp)
    results = [None] * b
    ids = np.arange(b)  # the grids still in the batch
    for t in range(params.max_iters):
        np.subtract(div, hl, out=tmp)
        np.subtract(tmp[:, 1:], tmp[:, :-1], out=gx[:, :-1])
        np.subtract(tmp[:, :, 1:], tmp[:, :, :-1], out=gy[:, :, :-1])
        np.hypot(gx, gy, out=scale)
        scale *= tau
        scale += 1.0
        change = np.zeros(len(ids))
        for p, p_new, g in ((px[:, 1:], px_new[:, 1:], gx), (py[:, :, 1:], py_new[:, :, 1:], gy)):
            np.multiply(g, tau, out=p_new)
            p_new += p
            p_new /= scale
            np.subtract(p_new, p, out=tmp)
            np.abs(tmp, out=tmp)
            np.maximum(change, tmp.max(axis=(1, 2)), out=change)
        np.subtract(px_new[:, 1:], px_new[:, :-1], out=div_new)
        np.subtract(py_new[:, :, 1:], py_new[:, :, :-1], out=tmp)
        div_new += tmp
        np.multiply(div_new, lam, out=u_new)
        np.subtract(h, u_new, out=u_new)
        if t + 1 == len(history):
            history = np.concatenate([history, np.empty_like(history)])
        history[t + 1, ids] = energy = _energies(u_new, h, lam, gx, gy, tmp)
        # a step that would raise the energy is discarded and ends the grid's run
        rose = energy > history[t, ids]
        np.abs(px_new[:, 1:], out=tmp)
        converged = ~rose & (change <= tol * np.maximum(1.0, tmp.max(axis=(1, 2))))
        done = rose | converged
        for j in np.flatnonzero(done):
            steps = t + 1 if converged[j] else t
            final = u_new if converged[j] else u
            results[ids[j]] = TvResult(final[j].copy(), history[:steps + 1, ids[j]].copy(), steps)
        px, px_new, py, py_new = px_new, px, py_new, py
        u, u_new, div, div_new = u_new, u, div_new, div
        if done.any():
            keep = ~done
            ids = ids[keep]
            if not ids.size:
                break
            h, hl, px, px_new, py, py_new, u, u_new, div, div_new, gx, gy, scale, tmp = (
                a[keep] for a in (h, hl, px, px_new, py, py_new, u, u_new, div, div_new,
                                  gx, gy, scale, tmp))
    for j, g in enumerate(ids):  # still running after max_iters steps
        results[g] = TvResult(u[j].copy(), history[:params.max_iters + 1, g].copy(), params.max_iters)
    return results


def tv_denoise(h: np.ndarray, params: TvParams = TvParams()) -> TvResult:
    """Run the dual projection iteration; returns the raw (unclipped) solution.

    The primal iterate is u = h - lam * div(p). Iterations stop on the dual
    change tolerance, on max_iters, or as soon as a step would increase the
    ROF energy (the last iterate is then discarded), so the recorded energy
    sequence is non-increasing by construction.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return _denoise_stack(h[None], params)[0]


def tv_smooth(h: np.ndarray, params: TvParams = TvParams()) -> np.ndarray:
    """Denoise, then symmetrize as (u + u.T)/2 and clip to [0, 1].

    ``h`` is one square matrix or a (B, k, k) stack of them; a stack is
    denoised in one batched iteration and each of its grids comes out
    bit-identical to smoothing that grid alone. Symmetrization precedes
    clipping because clipping alone can break the symmetry of a
    near-symmetric solution. lam = 0 returns the input as is.
    """
    h = np.asarray(h, dtype=float)
    if params.lam == 0.0:
        return h.copy()
    if h.ndim == 3:
        u = np.stack([res.values for res in _denoise_stack(h, params)])
    else:
        u = tv_denoise(h, params).values
    u = 0.5 * (u + np.swapaxes(u, -1, -2))
    return np.clip(u, 0.0, 1.0)
