import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from multigraphon import tv
from multigraphon.tv import TvParams, rof_energy, tv_denoise, tv_smooth

CHECKER = np.array([[0.0, 1.0], [1.0, 0.0]])


def square(side, lo=0.0, hi=1.0):
    return arrays(float, (side, side), elements=st.floats(min_value=lo, max_value=hi))


def test_params_validated():
    with pytest.raises(ValueError):
        TvParams(lam=-0.1)
    with pytest.raises(ValueError):
        TvParams(tau=0.3)
    with pytest.raises(ValueError):
        TvParams(tau=0.0)
    with pytest.raises(ValueError):
        TvParams(max_iters=0)


@pytest.mark.parametrize("kwargs", [
    dict(lam=float("nan")), dict(lam=float("inf")), dict(lam=-float("inf")),
    dict(tol=float("nan")), dict(tol=float("inf")), dict(tol=-1e-6),
    dict(max_iters=2.5), dict(max_iters=200.0), dict(max_iters="200"), dict(max_iters=True),
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_nonfinite_or_noninteger_params_rejected(kwargs):
    with pytest.raises(ValueError):
        TvParams(**kwargs)


def test_numpy_scalars_accepted():
    p = TvParams(lam=np.float64(0.1), max_iters=np.int64(5), tol=np.float32(1e-3))
    assert tv_denoise(np.eye(3), p).iterations <= 5


def test_lambda_zero_is_identity():
    rng = np.random.default_rng(0)
    h = rng.random((6, 6))
    out = tv_smooth(h, TvParams(lam=0.0))
    assert np.max(np.abs(out - h)) <= 1e-12
    assert out is not h


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (2, 2, 3, 3)])
def test_smooth_refuses_shape_before_any_work(monkeypatch, shape):
    # a non-square input used to run the whole iteration before failing
    # to broadcast u against its transpose; a 4-d one was called "not 2-d"
    def no_work(*args):
        raise AssertionError("the iteration ran")

    monkeypatch.setattr(tv, "_denoise_stack", no_work)
    with pytest.raises(ValueError, match=r"square matrix or a \(B, k, k\) stack .*got shape "
                                         + re.escape(str(shape))):
        tv_smooth(np.random.default_rng(0).random(shape))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        tv_denoise(np.array([[np.nan, 0.0], [0.0, 1.0]]), TvParams(lam=0.1))


def test_constant_stays_constant():
    h = np.full((5, 5), 0.37)
    for lam in (0.01, 0.5, 10.0):
        assert np.array_equal(tv_smooth(h, TvParams(lam=lam)), h)


def test_checkerboard_strong_smoothing_hits_mean():
    # 4-variable direct minimization of the exact ROF objective as the oracle
    lam = 50.0

    def energy(x):
        return rof_energy(x.reshape(2, 2), CHECKER, lam)

    best = None
    for start in (CHECKER.ravel(), np.full(4, 0.5), np.zeros(4)):
        res = minimize(energy, start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
        if best is None or res.fun < best.fun:
            best = res
    oracle = best.x.reshape(2, 2)
    assert np.max(np.abs(oracle - 0.5)) < 1e-3

    out = tv_smooth(CHECKER, TvParams(lam=lam, max_iters=5000))
    assert np.max(np.abs(out - 0.5)) < 1e-3
    assert np.max(np.abs(out - oracle)) < 2e-3


def test_energy_never_increases():
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = int(rng.integers(1, 25))
        h = rng.random((k, k))
        res = tv_denoise(h, TvParams(lam=float(rng.uniform(0.005, 2.0)), max_iters=300))
        assert np.all(np.diff(res.energies) <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(h=square(5), lam=st.floats(min_value=1e-3, max_value=5.0))
def test_mean_preserved_before_clipping(h, lam):
    res = tv_denoise(h, TvParams(lam=lam))
    assert res.values.mean() == pytest.approx(h.mean(), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(h=square(6), lam=st.floats(min_value=1e-3, max_value=5.0))
def test_output_symmetric_and_in_range(h, lam):
    h = 0.5 * (h + h.T)
    out = tv_smooth(h, TvParams(lam=lam))
    assert np.max(np.abs(out - out.T)) <= 1e-12
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_tiny_lambda_changes_little():
    rng = np.random.default_rng(2)
    h = rng.random((8, 8))
    out = tv_smooth(0.5 * (h + h.T), TvParams(lam=1e-6))
    assert np.max(np.abs(out - 0.5 * (h + h.T))) < 1e-5


def test_energy_decreases_on_noisy_blocks():
    rng = np.random.default_rng(3)
    h = np.clip(0.3 + 0.1 * rng.standard_normal((12, 12)), 0, 1)
    h = 0.5 * (h + h.T)
    res = tv_denoise(h, TvParams(lam=0.05))
    assert res.energies[-1] < res.energies[0]
    assert res.iterations >= 1
