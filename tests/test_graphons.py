import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from multigraphon import graphons
from multigraphon.graphons import (
    ANALYTIC_IDS,
    Graphon,
    canonical_rearrangement,
    degree_function,
    eval_grid,
    graphon_eval,
)


def test_analytic_spot_values():
    assert graphon_eval(Graphon.analytic(1), 0.5, 0.5) == pytest.approx(0.25, abs=1e-12)
    assert graphon_eval(Graphon.analytic(10), 0.2, 0.7) == pytest.approx(0.5, abs=1e-12)
    assert graphon_eval(Graphon.analytic(4), 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_block_kernels_12_13():
    w12, w13 = Graphon.analytic(12), Graphon.analytic(13)
    assert graphon_eval(w12, 0.1, 0.3) == 0.8
    assert graphon_eval(w12, 0.1, 0.7) == 0.0
    assert graphon_eval(w12, 0.6, 0.9) == 0.8
    assert graphon_eval(w13, 0.1, 0.3) == 0.0
    assert graphon_eval(w13, 0.1, 0.7) == 0.8


def test_out_of_range_rejected():
    spec = Graphon.analytic(1)
    for u, v in [(-0.1, 0.5), (0.5, 1.1), (2.0, 2.0)]:
        with pytest.raises(ValueError):
            graphon_eval(spec, u, v)


def test_step_cell_boundaries():
    grid = np.array([[0.1, 0.2], [0.2, 0.9]])
    spec = Graphon.step(grid)
    # cells are [0, .5) and [.5, 1]; boundary points go right, 1.0 stays in the last cell
    assert graphon_eval(spec, 0.49, 0.49) == 0.1
    assert graphon_eval(spec, 0.5, 0.5) == 0.9
    assert graphon_eval(spec, 1.0, 1.0) == 0.9
    assert graphon_eval(spec, 0.0, 1.0) == 0.2


def test_step_validation():
    with pytest.raises(ValueError):
        Graphon.step([[0.1, 0.2], [0.3, 0.4]])  # asymmetric
    with pytest.raises(ValueError):
        Graphon.step([[1.5]])  # out of range
    with pytest.raises(ValueError):
        Graphon.step(np.zeros((2, 3)))  # not square
    with pytest.raises(ValueError):
        Graphon(graphon_id=1, grid=np.zeros((1, 1)))  # both kinds at once


@pytest.mark.parametrize("grid", [[[np.nan]], [[0.5, np.nan], [np.nan, 0.5]], [[np.inf]]])
def test_non_finite_step_grid_rejected_as_such(grid):
    # a nan grid used to be refused as asymmetric, an inf one as out of range
    with pytest.raises(ValueError, match=r"^step grid must be finite$"):
        Graphon.step(grid)


@settings(max_examples=200, deadline=None)
@given(
    gid=st.sampled_from(ANALYTIC_IDS),
    u=st.floats(min_value=0.0, max_value=1.0),
    v=st.floats(min_value=0.0, max_value=1.0),
)
def test_symmetry_and_range(gid, u, v):
    spec = Graphon.analytic(gid)
    a, b = graphon_eval(spec, u, v), graphon_eval(spec, v, u)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_symmetry_and_range_dense():
    # the bulk version of the invariant: 10^4 random pairs for every id
    rng = np.random.default_rng(0)
    u, v = rng.random(10_000), rng.random(10_000)
    for gid in ANALYTIC_IDS:
        spec = Graphon.analytic(gid)
        a, b = graphon_eval(spec, u, v), graphon_eval(spec, v, u)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a <= 1.0))


class TestDegreeFunction:
    def test_linear_kernels_exact(self):
        # int_0^1 0.5 v dv = 0.25 and int_0^1 (0 + v)/2 dv = 0.25; the midpoint
        # rule integrates linear functions exactly
        assert degree_function(Graphon.analytic(1), 0.5, 1000) == pytest.approx(0.25, abs=1e-12)
        assert degree_function(Graphon.analytic(4), 0.0, 1000) == pytest.approx(0.25, abs=1e-12)

    def test_step_exact(self):
        spec = Graphon.step(np.full((3, 3), 0.3))
        for u in (0.0, 0.37, 1.0):
            assert degree_function(spec, u) == 0.3

    def test_midpoint_convergence_quadratic(self):
        # nonlinear kernel: compare against adaptive quadrature and check the
        # error drops by (at least) half when the resolution doubles
        u = 0.3
        exact, _ = quad(lambda v: np.exp(-(u**0.7 + v**0.7)), 0.0, 1.0, epsabs=1e-13)
        errs = [abs(degree_function(Graphon.analytic(2), u, res) - exact) for res in (50, 100, 200)]
        assert errs[1] <= 0.5 * errs[0] + 1e-14
        assert errs[2] <= 0.5 * errs[1] + 1e-14

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            degree_function(Graphon.analytic(1), 0.5, 0)


class TestCanonicalRearrangement:
    def test_increasing_degree_unchanged(self):
        # g(u) = u/2 is strictly increasing, so the grid is untouched
        spec = Graphon.analytic(1)
        out = canonical_rearrangement(spec, 4)
        assert np.array_equal(out.grid, eval_grid(spec, 4))

    def test_decreasing_degree_reverses(self):
        # id 2 has strictly decreasing degrees; sorting must equal reversal
        spec = Graphon.analytic(2)
        mids = (np.arange(1000) + 0.5) / 1000
        g = np.asarray(degree_function(spec, mids, 400))
        assert np.all(np.diff(g) < 0)
        out = canonical_rearrangement(spec, 1000)
        assert np.array_equal(out.grid, eval_grid(spec, 1000)[::-1, ::-1])

    def test_constant_unchanged(self):
        spec = Graphon.step([[0.42]])
        out = canonical_rearrangement(spec, 8)
        assert np.array_equal(out.grid, np.full((8, 8), 0.42))

    @pytest.mark.parametrize("gid", ANALYTIC_IDS)
    def test_row_means_sorted(self, gid):
        out = canonical_rearrangement(Graphon.analytic(gid), 64)
        means = out.grid.mean(axis=1)
        assert np.all(np.diff(means) >= 0)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            canonical_rearrangement(Graphon.analytic(1), 1)


def _reference_rearrangement(spec, resolution):
    # the uncached definition: full grid, stable argsort of row means, permute
    grid = eval_grid(spec, resolution)
    order = np.argsort(grid.mean(axis=1), kind="stable")
    return grid[np.ix_(order, order)]


@pytest.mark.parametrize("resolution", [2, 3, 250, 1000])
def test_cached_rearrangement_matches_reference(resolution):
    for gid in ANALYTIC_IDS:
        out = canonical_rearrangement(Graphon.analytic(gid), resolution)
        assert np.array_equal(out.grid, _reference_rearrangement(Graphon.analytic(gid), resolution))
        assert canonical_rearrangement(Graphon.analytic(gid), resolution) is out
        with pytest.raises(ValueError):
            out.grid[0, 0] = 0.5


@pytest.mark.parametrize("resolution", [4, 7, 300])
def test_step_rearrangement_not_cached(resolution):
    rng = np.random.default_rng(5)
    for grid in ([[0.9, 0.2], [0.2, 0.1]], rng.random((5, 5))):
        spec = Graphon.step((np.asarray(grid) + np.asarray(grid).T) / 2)
        first = canonical_rearrangement(spec, resolution)
        second = canonical_rearrangement(spec, resolution)
        assert first is not second
        assert first.grid.flags.writeable
        assert np.array_equal(first.grid, _reference_rearrangement(spec, resolution))


def test_fine_resolution_not_cached(monkeypatch):
    monkeypatch.setattr(graphons, "_CACHE_MAX_RESOLUTION", 8)
    first = canonical_rearrangement(Graphon.analytic(3), 9)
    assert first is not canonical_rearrangement(Graphon.analytic(3), 9)
    assert first.grid.flags.writeable
    assert np.array_equal(first.grid, _reference_rearrangement(Graphon.analytic(3), 9))
