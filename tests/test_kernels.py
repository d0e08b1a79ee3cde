"""Stable exponential kernels: series/direct agreement, limits."""

import math
import struct
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorbd._kernels import (
    f1,
    f2,
    g4,
    h3,
    one_minus_q_over_x,
)

# mpmath-free reference: direct formulas in float are exact enough away from 0
def _f1_naive(x):
    return (math.exp(x) - 1.0) / x


def _f2_naive(x):
    return (math.exp(x) - 1.0 - x) / x**2


def _g4_naive(x):
    return (math.exp(x) - 1.0) ** 2 / (2.0 * x**2)


def _h3_naive(x):
    return (math.exp(2.0 * x) - 1.0 - 2.0 * x * math.exp(x)) / (2.0 * x**3)


VALUES_AT_ZERO = [(f1, 1.0), (f2, 0.5), (g4, 0.5), (h3, 1.0 / 6.0)]


@pytest.mark.parametrize("fn,val", VALUES_AT_ZERO)
def test_values_at_zero(fn, val):
    assert fn(0.0) == val


@pytest.mark.parametrize(
    "fn,naive", [(f1, _f1_naive), (f2, _f2_naive), (g4, _g4_naive), (h3, _h3_naive)]
)
@pytest.mark.parametrize("x", [-30.0, -2.0, -0.7, 0.7, 2.0, 30.0])
def test_direct_region_matches_naive(fn, naive, x):
    assert fn(x) == pytest.approx(naive(x), rel=1e-13)


@pytest.mark.parametrize(
    "fn,naive", [(f1, _f1_naive), (f2, _f2_naive), (g4, _g4_naive), (h3, _h3_naive)]
)
def test_series_joins_direct_smoothly(fn, naive):
    # just inside and outside the series radius, both branches must agree with
    # the naive form (which is still well-conditioned at |x| = 0.5)
    for x in (0.5 - 1e-9, 0.5 + 1e-9, -0.5 + 1e-9, -0.5 - 1e-9):
        assert fn(x) == pytest.approx(naive(x), rel=5e-13)


@given(st.floats(min_value=-0.49, max_value=0.49, allow_nan=False))
def test_series_region_accuracy_f2(x):
    # compare against a slow but exact-enough reference: 60-term plain series
    acc = 0.0
    term = 1.0  # x^m / (m+2)! at m=0 is 1/2; build iteratively
    fact = 2.0
    pw = 1.0
    for m in range(60):
        acc += pw / fact
        pw *= x
        fact *= m + 3
    assert f2(x) == pytest.approx(acc, rel=1e-14, abs=1e-300)


def test_g4_is_half_f1_squared():
    for x in (-40.0, -3.0, -0.2, 0.0, 0.2, 3.0, 40.0):
        assert g4(x) == pytest.approx(0.5 * f1(x) ** 2, rel=1e-15)


@given(st.floats(min_value=-700.0, max_value=700.0, allow_nan=False))
def test_kernels_positive(x):
    assert f1(x) > 0.0
    assert f2(x) > 0.0
    assert g4(x) > 0.0
    assert h3(x) > 0.0


def test_one_minus_q_over_x():
    assert one_minus_q_over_x(0.0) == 0.5
    for x in (-20.0, -1.0, -1e-2, 1e-2, 1.0, 20.0):
        direct = (1.0 - x / math.expm1(x)) / x
        assert one_minus_q_over_x(x) == pytest.approx(direct, rel=1e-12)
    # tiny |x|: series 1/2 - x/12 + x^3/720
    for x in (1e-6, -1e-6):
        assert one_minus_q_over_x(x) == pytest.approx(0.5 - x / 12.0, rel=1e-13)
    # huge x: tends to 0 like 1/x, stays finite and positive
    assert one_minus_q_over_x(1e4) == pytest.approx(1e-4, rel=1e-10)


def test_one_minus_q_ratio_identity():
    # equals f2/f1 wherever both are representable
    for x in (-5.0, -0.3, 0.4, 5.0, 50.0):
        assert one_minus_q_over_x(x) == pytest.approx(f2(x) / f1(x), rel=1e-13)


def _one_minus_q_over_x_exact(x: float) -> float:
    """(1 - x/(e^x - 1))/x in 60-digit decimal arithmetic, rounded once."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(x)
        return float((1 - d / (d.exp() - 1)) / d)


def test_one_minus_q_over_x_full_precision_in_series_radius():
    # the direct form lost 2-3 digits just outside its old 1e-3 series radius
    xs = [1.001e-3, -1.001e-3, 1e-3, -1e-3, 1e-9, -1e-9, 0.5, -0.5]
    xs += np.linspace(-0.5, 0.5, 401).tolist()
    for x in xs:
        if x == 0.0:
            continue
        want = _one_minus_q_over_x_exact(x)
        assert one_minus_q_over_x(x) == pytest.approx(want, rel=1e-15, abs=0.0), x


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in np.asarray(values, dtype=float).ravel()]


EDGE_XS = [
    -800.0, -1.0, -0.5, 0.0, 1e-3, 0.25, 0.5, 1.0, 40.0, 354.0, 709.0, 745.0, 800.0,
    math.nan,
]
EDGE_XS += [np.nextafter(v, s) for v in (-0.5, 0.5, 709.0) for s in (-math.inf, math.inf)]
EDGE_XS += [-1e-3, 1e-300]


@pytest.mark.parametrize("fn", [f1, f2, g4, h3, one_minus_q_over_x])
def test_kernels_take_arrays_bit_for_bit(fn):
    xs = np.array(EDGE_XS)
    got = fn(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    scalars = [fn(float(x)) for x in xs]
    assert all(type(v) is float for v in scalars)
    assert _bits(got) == _bits(scalars)
    assert _bits(fn(xs.reshape(2, -1))) == _bits(got)
    assert fn(np.array([])).shape == (0,)


def test_kernels_overflow_to_inf_past_the_threshold():
    over = np.nextafter(709.0, math.inf)
    for fn in (f1, f2):
        assert math.isfinite(fn(709.0))
        assert fn(over) == math.inf
    assert g4(over) == math.inf
    assert math.isfinite(h3(354.5))  # h3 grows like e^{2x}
    assert h3(np.nextafter(354.5, math.inf)) == math.inf
    assert one_minus_q_over_x(1e4) > 0.0
