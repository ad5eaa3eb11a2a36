import pytest
from hypothesis import given, strategies as st

from currentrep.errors import NotInvertible
from currentrep.truncpoly import TruncPoly


def poly(coeffs, p=3, m=None):
    m = len(coeffs) - 1 if m is None else m
    return TruncPoly(tuple(coeffs), p, m)


def test_telescoping_product():
    # (1+t)(1-t) = 1 in F_3[t]/(t^2)
    a = poly([1, 1])
    b = poly([1, 2])
    assert a * b == poly([1, 0])


def test_truncation_kills_top():
    m = 3
    t = TruncPoly.t_power(1, 3, m)
    tm = TruncPoly.t_power(m, 3, m)
    assert (t * tm).is_zero()


def test_geometric_series_inverse():
    # invert(1+t) = 1 - t + t^2 in R_2
    a = TruncPoly((1, 1, 0), 3, 2)
    assert a.invert() == TruncPoly((1, 2, 1), 3, 2)


def test_non_invertible_constant_term():
    with pytest.raises(NotInvertible):
        TruncPoly((0, 1), 3, 1).invert()


@st.composite
def truncpolys(draw, p=5, m=2):
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=m + 1, max_size=m + 1))
    return TruncPoly(tuple(coeffs), p, m)


@given(truncpolys(), truncpolys(), truncpolys())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(truncpolys())
def test_inverse_roundtrip(a):
    if a.coeffs[0] == 0:
        with pytest.raises(NotInvertible):
            a.invert()
    else:
        assert a * a.invert() == TruncPoly.one(a.p, a.m)
