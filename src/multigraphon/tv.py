"""Total-variation (ROF) denoising of a block estimate.

Approximately minimizes  ||u - H||^2 / (2 lam) + TV(u)  with isotropic
discrete TV (forward differences, reflecting boundary) via the dual
fixed-point projection iteration of Chambolle. Used as the optional
post-smoothing step of histogram estimates.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["TvParams", "TvResult", "rof_energy", "tv_denoise", "tv_smooth"]

_BLOCK = 16  # steps per block of the iteration; the stop tests run once per block


def _require_int(name: str, *values, least: int = 1) -> None:
    """Raise ValueError, naming ``name`` and the first bad value, unless every
    value is an integer >= ``least``; bools and floats are refused whatever
    their value. The type test runs once per distinct type of the values."""
    types = set(map(type, values))
    if any(t is bool or not issubclass(t, numbers.Integral) for t in types) or min(values, default=least) < least:
        bad = next(v for v in values if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least)
        raise ValueError(f"{name} must be an integer >= {least}, got {bad!r}")


@dataclass(frozen=True)
class TvParams:
    lam: float = 0.05
    tau: float = 0.25
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if not 0 < self.tau <= 0.25:
            raise ValueError("tau must lie in (0, 0.25]")
        _require_int("max_iters", self.max_iters)
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")


@dataclass(frozen=True, eq=False)
class TvResult:
    """``stop`` names the test that ended the iteration: ``"tolerance"`` (the
    last step met the dual change tolerance; also lam = 0, solved exactly),
    ``"energy"`` (the next step would raise the ROF energy) or ``"cap"``
    (max_iters steps ran and neither test fired); it is None only on a
    result built outside this module."""

    values: np.ndarray
    energies: np.ndarray
    iterations: int
    stop: str | None = None


@functools.lru_cache(maxsize=16)
def _triangles(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the upper triangle (diagonal included) of a k x k grid and of
    the lower triangle below it."""
    upper = np.triu(np.ones((k, k), dtype=bool))
    lower = ~upper
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def _energies(u: np.ndarray, ref: np.ndarray, lam: float, g, tmp) -> np.ndarray:
    # ROF energy of each grid of a (..., r, c) stack; g is a (..., m, r, c)
    # scratch buffer for the forward differences, x (rows) and y (columns)
    # for m = 2, whose last row (x) and last column (y) are zero, the
    # reflecting boundary. With m = 1 every grid of u is symmetric, so its
    # y differences are x's transposed and are never built.
    gx = g[..., 0, :, :]
    np.subtract(u[..., 1:, :], u[..., :-1, :], out=gx[..., :-1, :])
    if g.shape[-3] == 2:
        gy = g[..., 1, :, :]
        np.subtract(u[..., 1:], u[..., :-1], out=gy[..., :-1])
        np.hypot(gx, gy, out=tmp)
    else:  # hypot(a, b) == hypot(b, a) bit for bit: |g| is symmetric too
        upper, lower = _triangles(gx.shape[-1])
        np.hypot(gx, np.swapaxes(gx, -1, -2), out=tmp, where=upper)
        np.copyto(tmp, np.swapaxes(tmp, -1, -2), where=lower)
    tv = tmp.sum(axis=(-2, -1))
    np.subtract(u, ref, out=tmp)
    np.square(tmp, out=tmp)
    return tmp.sum(axis=(-2, -1)) / (2.0 * lam) + tv


def rof_energy(u: np.ndarray, ref: np.ndarray, lam: float) -> float:
    """||u - ref||^2 / (2 lam) + isotropic TV(u)."""
    u = np.asarray(u, dtype=float)[None]
    return float(_energies(u, ref, lam, np.zeros((1, 2) + u.shape[1:]), np.empty_like(u))[0])


def _denoise_stack(h: np.ndarray, params: TvParams) -> list[TvResult]:
    """The dual projection iteration on a (B, r, c) stack of grids, one result per grid.

    Every grid follows its own iteration exactly as if run alone; a grid
    leaves the batch when it stops. The steps run in blocks of ``_BLOCK``:
    the energies and stop tests of a block are computed together after its
    last step, and each grid then stops at the first step of the block that
    fails a test, so the steps it took after that one are simply dropped.

    When every grid is square and bitwise symmetric (compared as integers,
    so the sign of zero counts), the dual's y component is its x component
    transposed at every step, bit for bit: the column differences of a
    symmetric grid are its row differences transposed, hypot is symmetric
    in its arguments and addition commutes. The iteration then stores and
    updates the x component alone, with the same operations and so the same
    values; any other stack runs with both components.
    """
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    if params.lam == 0.0:
        return [TvResult(g.copy(), np.array([rof_energy(g, g, 1.0)]), 0, "tolerance") for g in h]

    lam, tau, tol, cap = params.lam, params.tau, params.tol, params.max_iters
    b, r, c = h.shape
    bits = h.view(np.uint64)
    m = 1 if r == c and np.array_equal(bits, bits.swapaxes(1, 2)) else 2  # dual components
    upper, lower = _triangles(r + 1)
    size = min(_BLOCK, cap)
    hl = h / lam
    # p[s] holds the dual pair (px, py), or px alone, after step s of the
    # block, p[0] the pair before it, and div[s] its divergence. Each
    # component sits on an (r+1, c+1) grid whose first row and column stay
    # zero, so div is two subtractions; px's last row and py's last column
    # stay zero too, since the forward differences vanish there. The
    # gradient pair g is padded alike, so one projection updates every
    # stored component.
    p = np.zeros((size + 1, b, m, r + 1, c + 1))
    div = np.zeros((size + 1, b, r, c))
    g = np.zeros((b, m, r + 1, c + 1))
    scale = np.empty((b, 1, r + 1, c + 1))
    # block scratch: the primal iterates, the energy terms, the dual change
    u, tmp = np.empty((2, size, b, r, c))
    grads = np.zeros((size, b, m, r, c))
    dp = np.empty((size, b, m, r + 1, c + 1))
    history = np.empty((min(cap, 256) + 1, b))  # energies by step, one column per grid
    history[0] = _energies(h, h, lam, grads[0], tmp[0])
    results = [None] * b
    ids = np.arange(b)  # the grids still in the batch
    t = 0  # steps taken before the block
    while t < cap:
        n = min(size, cap - t)
        w, grad_x, norm = tmp[0], g[:, 0], scale[:, 0]
        grad_xt, norm_t, w_t = grad_x.swapaxes(1, 2), norm.swapaxes(1, 2), w.swapaxes(1, 2)
        for s in range(n):
            q, q_new = p[s], p[s + 1]
            np.subtract(div[s], hl, out=w)
            np.subtract(w[:, 1:], w[:, :-1], out=grad_x[:, 1:-1, 1:])
            if m == 2:
                np.subtract(w[:, :, 1:], w[:, :, :-1], out=g[:, 1, 1:, 1:-1])
                np.hypot(grad_x, g[:, 1], out=norm)
            else:  # the y gradient is grad_xt: hypot on the upper triangle, mirrored
                np.hypot(grad_x, grad_xt, out=norm, where=upper)
                np.copyto(norm, norm_t, where=lower)
            scale *= tau
            scale += 1.0
            np.multiply(g, tau, out=q_new)
            q_new += q
            q_new /= scale
            np.subtract(q_new[:, 0, 1:, 1:], q_new[:, 0, :-1, 1:], out=w)
            if m == 2:
                np.subtract(q_new[:, 1, 1:, 1:], q_new[:, 1, 1:, :-1], out=div[s + 1])
                div[s + 1] += w
            else:  # py's differences are w transposed
                np.add(w, w_t, out=div[s + 1])
        np.multiply(div[1:n + 1], lam, out=u[:n])
        np.subtract(h, u[:n], out=u[:n])
        if t + n >= len(history):
            history = np.concatenate([history, np.empty_like(history)])
        history[t + 1:t + n + 1, ids] = energy = _energies(u[:n], h, lam, grads[:n], tmp[:n])
        np.subtract(p[1:n + 1], p[:n], out=dp[:n])
        np.abs(dp[:n], out=dp[:n])
        change = dp[:n].max(axis=(2, 3, 4))
        # a step that would raise the energy is discarded and ends the grid's
        # run; so does a step that meets the tolerance, which is kept
        rose = energy > history[t:t + n, ids]
        converged = ~rose & (change <= tol)
        done = rose | converged
        stopped = done.any(axis=0)
        for j in np.flatnonzero(stopped):
            s = int(done[:, j].argmax())  # the block's first step to fail a test
            steps = t + s + 1 if converged[s, j] else t + s
            results[ids[j]] = TvResult(h[j] - lam * div[steps - t, j], history[:steps + 1, ids[j]].copy(),
                                       steps, "tolerance" if converged[s, j] else "energy")
        t += n
        p[0], div[0] = p[n], div[n]
        if stopped.any():
            keep = ~stopped
            ids = ids[keep]
            if not ids.size:
                break
            # the grids still running move to the front of the buffers
            h, hl = h[keep], hl[keep]
            p[0, :ids.size], div[0, :ids.size] = p[0, keep], div[0, keep]
            g, scale = g[:ids.size], scale[:ids.size]
            p, div, u, grads, tmp, dp = (a[:, :ids.size] for a in (p, div, u, grads, tmp, dp))
    for j, i in enumerate(ids):  # still running after max_iters steps
        results[i] = TvResult(h[j] - lam * div[0, j], history[:cap + 1, i].copy(), cap, "cap")
    return results


def tv_denoise(h: np.ndarray, params: TvParams = TvParams()) -> TvResult:
    """Run the dual projection iteration; returns the raw (unclipped) solution.

    The primal iterate is u = h - lam * div(p). Iterations stop on the dual
    change tolerance, on max_iters, or as soon as a step would increase the
    ROF energy (the last iterate is then discarded), so the recorded energy
    sequence is non-increasing by construction; the result's ``stop`` says
    which.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return _denoise_stack(h[None], params)[0]


def tv_smooth(h: np.ndarray, params: TvParams = TvParams()) -> np.ndarray:
    """Denoise, then symmetrize as (u + u.T)/2 and clip to [0, 1].

    ``h`` is one square matrix or a (B, k, k) stack of them; any other
    shape is refused before any work. A stack is denoised in one batched
    iteration and each of its grids comes out bit-identical to smoothing
    that grid alone. A symmetric input gives an exactly symmetric
    solution, which the symmetrization leaves as it is; for an asymmetric
    one, symmetrization precedes clipping because clipping alone can break
    the symmetry of a near-symmetric solution. lam = 0 returns the input
    as is.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"tv_smooth expects a square matrix or a (B, k, k) stack of them, got shape {h.shape}")
    if params.lam == 0.0:
        return h.copy()
    if h.ndim == 3:
        u = np.stack([res.values for res in _denoise_stack(h, params)])
    else:
        u = tv_denoise(h, params).values
    u = 0.5 * (u + np.swapaxes(u, -1, -2))
    return np.clip(u, 0.0, 1.0)
