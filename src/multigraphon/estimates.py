"""Step-function estimates of a graphon and their on-disk format.

A step estimate is a k x k symmetric matrix of block edge probabilities on
the uniform k-partition of [0,1]^2. On disk it is a plain CSV of k rows of
full-precision decimals, plus a JSON metadata sidecar ``<path>.meta.json``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphons import check_grid
from .tv import _require_int

__all__ = ["StepEstimate", "resample_grid", "save_estimate", "load_estimate", "read_grid"]


@dataclass(frozen=True, eq=False)
class StepEstimate:
    """Block edge-probability estimate with provenance metadata."""

    values: np.ndarray = field(repr=False)
    method: str
    n_total: int
    n_graphs: int
    dyad_count: int
    params: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    empty_blocks: int = 0
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", check_grid(self.values, "estimate values", "estimate values"))

    @property
    def k(self) -> int:
        return self.values.shape[0]


def _source_cells(k: int, resolution: int) -> np.ndarray:
    """The source cell of each of ``resolution`` target midpoints on a
    ``k``-cell step grid; the cells do not decrease."""
    mids = (np.arange(resolution) + 0.5) / resolution
    return np.minimum((mids * k).astype(np.int64), k - 1)


def resample_grid(values: np.ndarray, resolution: int) -> np.ndarray:
    """Piecewise-constant resampling of a square step grid to resolution x resolution.

    Target cell (a, b) takes the source value at the target cell's midpoint,
    treating the source as a step function on equal-width cells. The source
    cells of the midpoints do not decrease, so each source row and column
    is repeated once per target cell it holds.
    """
    values = np.asarray(values, dtype=float)
    k = values.shape[0]
    runs = np.bincount(_source_cells(k, resolution), minlength=k)
    return np.repeat(np.repeat(values, runs, axis=0), runs, axis=1)


def save_estimate(est: StepEstimate, path) -> None:
    with open(path, "w") as fh:
        for row in est.values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    meta = {
        "k": est.k,
        "N": est.n_total,
        "M": est.n_graphs,
        "S": est.dyad_count,
        "method": est.method,
        "params": est.params,
        "seed": est.seed,
        "elapsed_seconds": est.elapsed_seconds,
        "empty_blocks": est.empty_blocks,
    }
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, separators=(",", ":"))
        fh.write("\n")


def _check_meta(meta, where: str, rows: int) -> None:
    """Raise ValueError, naming ``where`` and the field, unless ``meta`` is an
    object whose present fields have the types ``save_estimate`` writes, whose
    ``k`` matches the ``rows`` of the CSV and whose ``params.k``, if present,
    is an integer >= 1."""
    if not isinstance(meta, dict):
        raise ValueError(f"{where}: metadata must be a JSON object, got {type(meta).__name__}")
    for name in ("k", "N", "M", "S", "empty_blocks"):
        if name in meta:
            _require_int(f"{where}: {name}", meta[name], least=0)
    if meta.get("seed") is not None:
        _require_int(f"{where}: seed", meta["seed"], least=0)
    if meta.get("k", rows) != rows:
        raise ValueError(f"{where}: k is {meta['k']} but the estimate has {rows} rows")
    if not isinstance(meta.get("method", ""), str):
        raise ValueError(f"{where}: method must be a string, got {meta['method']!r}")
    params = meta.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{where}: params must be a JSON object, got {params!r}")
    if "k" in params:
        _require_int(f"{where}: params.k", params["k"])
    elapsed = meta.get("elapsed_seconds", 0.0)
    if not (type(elapsed) is int or (type(elapsed) is float and math.isfinite(elapsed))):
        raise ValueError(f"{where}: elapsed_seconds must be a finite number, got {elapsed!r}")


def read_grid(path, build=np.asarray):
    """``build`` applied to the CSV matrix in ``path``; a ValueError from
    parsing the file (not a numeric CSV matrix) or from ``build`` (a grid
    check) names the file."""
    try:
        return build(np.loadtxt(path, delimiter=",", ndmin=2))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_estimate(path) -> StepEstimate:
    values = read_grid(path)
    where = f"{path}.meta.json"
    try:
        with open(where) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not valid JSON ({exc})") from None
    _check_meta(meta, where, values.shape[0])
    try:
        return StepEstimate(
            values=values,
            method=meta.get("method", "unknown"),
            n_total=meta.get("N", 0),
            n_graphs=meta.get("M", 0),
            dyad_count=meta.get("S", 0),
            params=meta.get("params", {}),
            elapsed_seconds=meta.get("elapsed_seconds", 0.0),
            empty_blocks=meta.get("empty_blocks", 0),
            seed=meta.get("seed"),
        )
    except ValueError as exc:  # the values' grid check
        raise ValueError(f"{path}: {exc}") from None
