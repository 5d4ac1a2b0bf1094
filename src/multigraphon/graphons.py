"""Graphon representations: analytic formulas, step grids, sampling-free kernels.

A graphon here is a symmetric function W: [0,1]^2 -> [0,1]. Two concrete
representations are supported:

* ``analytic`` -- one of 13 named closed-form kernels (ids 1..13, the usual
  synthetic benchmark family: monotone-degree kernels 1..9, non-monotone
  10..13),
* ``step`` -- a k x k symmetric grid of probabilities, interpreted as a
  piecewise-constant function on half-open cells [lo, hi) with the last
  cell closed.

Every kernel is symmetric bit for bit: W(u, v) and W(v, u) are the same
float. Eleven formulas are so by their operations alone (a product, a sum
of two terms, the absolute value of a difference, an explicit minimum or
maximum, comparisons). Formulas 3 and 8 add three or four terms, and float
addition is not associative, so they evaluate on the canonical pair
(min(u, v), max(u, v)) themselves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Graphon",
    "ANALYTIC_IDS",
    "graphon_eval",
    "degree_function",
    "canonical_rearrangement",
]


def _w1(u, v):
    return u * v


def _w2(u, v):
    return np.exp(-(u**0.7 + v**0.7))


def _w3(u, v):
    lo, hi = np.minimum(u, v), np.maximum(u, v)  # the canonical pair: see the module docstring
    return 0.25 * (lo**2 + hi**2 + np.sqrt(lo) + np.sqrt(hi))


def _w4(u, v):
    return 0.5 * (u + v)


def _w5(u, v):
    return 1.0 / (1.0 + np.exp(-2.0 * (u**2 + v**2)))


def _w6(u, v):
    return 1.0 / (1.0 + np.exp(-(np.maximum(u, v) ** 2 + np.minimum(u, v) ** 4)))


def _w7(u, v):
    return np.exp(-np.maximum(u, v) ** 0.75)


def _w8(u, v):
    lo, hi = np.minimum(u, v), np.maximum(u, v)  # as in _w3
    return np.exp(-0.5 * (lo + np.sqrt(lo) + np.sqrt(hi)))


def _w9(u, v):
    return np.log1p(np.maximum(u, v))


def _w10(u, v):
    return np.abs(u - v)


def _w11(u, v):
    return 1.0 - np.abs(u - v)


# ids 12/13 are two-community block kernels on the halves of [0,1]:
# 0.8 on the diagonal blocks (12) or on the off-diagonal blocks (13), 0 elsewhere.
def _w12(u, v):
    same = (np.asarray(u) < 0.5) == (np.asarray(v) < 0.5)
    return np.where(same, 0.8, 0.0)


def _w13(u, v):
    same = (np.asarray(u) < 0.5) == (np.asarray(v) < 0.5)
    return np.where(same, 0.0, 0.8)


_FORMULAS = {
    1: _w1, 2: _w2, 3: _w3, 4: _w4, 5: _w5, 6: _w6, 7: _w7,
    8: _w8, 9: _w9, 10: _w10, 11: _w11, 12: _w12, 13: _w13,
}

ANALYTIC_IDS = tuple(sorted(_FORMULAS))


def check_grid(values, name: str, entries: str) -> np.ndarray:
    """``values`` as a float array, or ValueError unless it is a finite,
    symmetric square matrix with entries in [0, 1]; the messages begin with
    ``name`` (``entries`` for the range)."""
    g = np.asarray(values, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} must be finite")
    if not np.array_equal(g, g.T):
        raise ValueError(f"{name} must be symmetric")
    if np.any(g < 0.0) or np.any(g > 1.0):
        raise ValueError(f"{entries} must lie in [0, 1]")
    return g


@dataclass(frozen=True, eq=False)
class Graphon:
    """A symmetric edge-probability kernel on the unit square.

    Exactly one of ``graphon_id`` (analytic kind) or ``grid`` (step kind)
    is set. Use :meth:`analytic` / :meth:`step` to construct.
    """

    graphon_id: int | None = None
    grid: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.graphon_id is None) == (self.grid is None):
            raise ValueError("exactly one of graphon_id or grid must be given")
        if self.graphon_id is not None and self.graphon_id not in _FORMULAS:
            raise ValueError(f"unknown analytic graphon id {self.graphon_id}")
        if self.grid is not None:
            object.__setattr__(self, "grid", check_grid(self.grid, "step grid", "step grid entries"))

    @classmethod
    def analytic(cls, graphon_id: int) -> "Graphon":
        return cls(graphon_id=graphon_id)

    @classmethod
    def step(cls, grid) -> "Graphon":
        return cls(grid=np.asarray(grid, dtype=float))

    @property
    def is_step(self) -> bool:
        return self.grid is not None


def _cell_index(x: np.ndarray, k: int) -> np.ndarray:
    # half-open cells [s/k, (s+1)/k), last cell closed at 1
    idx = np.floor(np.asarray(x) * k).astype(np.int64)
    return np.minimum(idx, k - 1)


def graphon_eval(spec: Graphon, u, v):
    """Evaluate W(u, v); u, v may be scalars or broadcastable arrays in [0,1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0) or np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("graphon arguments must lie in [0, 1]")
    out = _kernel(spec, u, v)
    if out.ndim == 0:
        return float(out)
    return out


def _kernel(spec: Graphon, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W(u, v) for float arrays the caller knows to lie in [0, 1].

    The arguments go to the formula as given, in either order: only
    formulas 3 and 8 sum terms in an order that depends on the argument
    order, and those two take the canonical (min, max) pair themselves
    (see the module docstring), so no other formula pays for it.
    """
    if spec.is_step:
        k = spec.grid.shape[0]
        return spec.grid[_cell_index(u, k), _cell_index(v, k)]
    return _FORMULAS[spec.graphon_id](u, v)


def _midpoints(resolution: int) -> np.ndarray:
    return (np.arange(resolution) + 0.5) / resolution


def eval_grid(spec: Graphon, resolution: int) -> np.ndarray:
    """W sampled on the midpoint grid: entry (i,j) = W((i+.5)/R, (j+.5)/R)."""
    xs = _midpoints(resolution)
    return np.asarray(graphon_eval(spec, xs[:, None], xs[None, :]), dtype=float)


def degree_function(spec: Graphon, u, resolution: int = 1000):
    """Normalized degree g(u) = integral of W(u, v) over v in [0,1].

    Step kinds are integrated exactly (equal-width cells, so a row average);
    analytic kinds use midpoint quadrature on ``resolution`` cells, which
    avoids evaluating piecewise formulas exactly on their discontinuities.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    u = np.asarray(u, dtype=float)
    if spec.is_step:
        k = spec.grid.shape[0]
        row_means = spec.grid.mean(axis=1)
        out = row_means[_cell_index(u, k)]
    else:
        vs = _midpoints(resolution)
        out = np.asarray(graphon_eval(spec, u[..., None], vs), dtype=float).mean(axis=-1)
    if out.ndim == 0:
        return float(out)
    return out


def canonical_rearrangement(spec: Graphon, resolution: int) -> Graphon:
    """Degree-increasing representative of W as a step graphon.

    Samples W on a resolution x resolution midpoint grid, sorts the grid
    indices by the grid degree function (row means) in ascending order with
    a stable index tie-break, and permutes rows and columns accordingly.
    For a W whose degree function is already strictly increasing this is
    just the sampled grid.

    Analytic kinds at resolutions up to ``_CACHE_MAX_RESOLUTION`` are cached
    per (graphon id, resolution) for the two most recent keys: every call for
    a cached key returns the same object, whose grid is read-only. Results
    may be shared, so callers copy the grid before writing to it.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if spec.is_step or resolution > _CACHE_MAX_RESOLUTION:
        return _rearranged(spec, resolution)
    return _cached_rearrangement(spec.graphon_id, resolution)


# cells of the midpoint grid evaluated at once (whole rows, 128 KB), so no
# temporary reaches the R x R size. Measured on the R=250 baselines benchmark:
# chunks of 1 << 16 cells left the peak RSS 0.3 MB above rebuilding the grid
# on every call, chunks of 1 << 14 leave it 1 MB below.
_GRID_CHUNK_CELLS = 1 << 14

# a cache entry holds 8 R^2 bytes (8 MB at R=1000); above 32 MB a one-off
# fine grid is built and dropped rather than kept for the life of the process
_CACHE_MAX_RESOLUTION = 2048


def _rearranged(spec: Graphon, resolution: int) -> Graphon:
    xs = _midpoints(resolution)
    rows = max(1, _GRID_CHUNK_CELLS // resolution)
    chunks = range(0, resolution, rows)
    # pass 1: row means of the sampled grid, one chunk of rows at a time
    means = np.concatenate(
        [_kernel(spec, xs[a:a + rows, None], xs[None, :]).mean(axis=1) for a in chunks]
    )
    # pass 2: W straight at the permuted midpoints, i.e. grid[order][:, order]
    xs = xs[np.argsort(means, kind="stable")]
    grid = np.empty((resolution, resolution))
    for a in chunks:
        grid[a:a + rows] = _kernel(spec, xs[a:a + rows, None], xs[None, :])
    return Graphon.step(grid)


# two entries: a benchmark run scores graphon by graphon, or alternates two
@lru_cache(maxsize=2)
def _cached_rearrangement(graphon_id: int, resolution: int) -> Graphon:
    out = _rearranged(Graphon.analytic(graphon_id), resolution)
    out.grid.flags.writeable = False
    return out
