import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compib.errors import InternalInvariantError, PrecisionError
from compib.intervals import (RealInterval, escalate, int_combination,
                              sqrt_int)

from conftest import contains_fraction

rationals = st.fractions(min_value=-1000, max_value=1000,
                         max_denominator=997)


def test_from_fraction_contains():
    iv = RealInterval.from_fraction(Fraction(1, 3), 64)
    assert contains_fraction(iv, Fraction(1, 3))
    assert iv.width() < Fraction(1, 2**60)


def test_exact_int_has_zero_width():
    iv = RealInterval.from_int(7, 32)
    assert iv.lo == iv.hi
    assert iv.certify_integer() == 7


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rationals, rationals)
def test_arithmetic_containment(a, b):
    prec = 80
    ia = RealInterval.from_fraction(a, prec)
    ib = RealInterval.from_fraction(b, prec)
    assert contains_fraction(ia + ib, a + b)
    assert contains_fraction(ia - ib, a - b)
    assert contains_fraction(ia * ib, a * b)
    assert contains_fraction(ia * 3, 3 * a)
    assert contains_fraction(ia + Fraction(1, 7), a + Fraction(1, 7))
    assert contains_fraction(-ia, -a)


def test_recip():
    iv = RealInterval.from_fraction(Fraction(1, 3), 96)
    assert contains_fraction(iv.recip(), Fraction(3))
    zero = RealInterval.from_int(0, 32)
    with pytest.raises(InternalInvariantError):
        zero.recip()


def test_certify_integer():
    wide = RealInterval.from_fraction(Fraction(1, 2), 8) + RealInterval(-64, 64, 8)
    assert wide.certify_integer() is None
    narrow = RealInterval.from_fraction(Fraction(5, 1), 64)
    assert narrow.certify_integer() == 5
    # narrow but containing no integer: the promise of an integer is broken
    third = RealInterval.from_fraction(Fraction(1, 3), 64)
    with pytest.raises(InternalInvariantError):
        third.certify_integer()


def test_sqrt_int():
    for m in (1, 2, 1957, 10**12):
        iv = sqrt_int(m, 128)
        sq = iv * iv
        assert contains_fraction(sq, Fraction(m))
        assert iv.width() < Fraction(1, 2**100)


def test_escalate_raises_at_cap():
    calls = []

    def task(prec):
        calls.append(prec)

    with pytest.raises(PrecisionError, match="8192-bit"):
        escalate(task)
    assert calls == [128, 256, 512, 1024, 2048, 4096, 8192]


def test_escalate_returns_first_success():
    calls = []

    def task(prec):
        calls.append(prec)
        return prec if prec >= 256 else None

    assert escalate(task) == 256
    assert calls == [128, 256]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(rationals, st.integers(-10**6, 10**6) | st.just(0)),
                min_size=1, max_size=6))
def test_int_combination_contains(terms):
    vals = [RealInterval.from_fraction(q, 128) for q, _ in terms]
    coeffs = [c for _, c in terms]
    acc = int_combination(vals, coeffs)
    assert contains_fraction(acc, sum(c * q for q, c in terms))


# -- the product kernel against the four-product hull ---------------------------


def four_product_hull(x, y):
    """(min(c) >> p, ceil(max(c) / 2^p)) over the four endpoint products c."""
    p = x.prec
    c = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return min(c) >> p, -(-max(c) // (1 << p))


def assert_product_is_hull(x, y):
    z = x * y
    assert (z.lo, z.hi) == four_product_hull(x, y)
    for u in (x.lo, x.hi):
        for v in (y.lo, y.hi):
            assert contains_fraction(z, Fraction(u * v, 1 << (2 * x.prec)))


# endpoints at 64 bits with odd offsets, so that the shifts round; each sign
# class has a zero endpoint and a point interval
UNIT = 1 << 64
SIGN_CLASSES = {
    "nonneg": [(0, 0), (0, 6 * UNIT + 3), (2 * UNIT + 5, 9 * UNIT - 7), (5 * UNIT + 1,) * 2],
    "nonpos": [(0, 0), (-5 * UNIT - 3, 0), (-7 * UNIT - 9, -3 * UNIT + 1), (-4 * UNIT - 1,) * 2],
    "straddle": [(-3 * UNIT - 1, 5 * UNIT + 7), (-6 * UNIT + 5, 2 * UNIT - 3), (-1, 1)],
}


@pytest.mark.parametrize("sx", sorted(SIGN_CLASSES))
@pytest.mark.parametrize("sy", sorted(SIGN_CLASSES))
def test_product_sign_cases_match_hull(sx, sy):
    for a, b in SIGN_CLASSES[sx]:
        for c, d in SIGN_CLASSES[sy]:
            assert_product_is_hull(RealInterval(a, b, 64), RealInterval(c, d, 64))


@st.composite
def dyadic_pairs(draw):
    prec = draw(st.sampled_from([64, 128]))
    ends = st.integers(min_value=-(1 << (prec + 8)), max_value=1 << (prec + 8))
    x = sorted(draw(st.lists(ends, min_size=2, max_size=2)))
    y = sorted(draw(st.lists(ends, min_size=2, max_size=2)))
    return RealInterval(*x, prec), RealInterval(*y, prec)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dyadic_pairs())
def test_product_matches_hull_on_random_endpoints(pair):
    # random integer endpoints straddle zero often, unlike from_fraction points
    x, y = pair
    assert_product_is_hull(x, y)
    s = x + y
    assert (s.lo, s.hi) == (x.lo + y.lo, x.hi + y.hi)


def test_mixed_precision_raises():
    x, y = RealInterval(-1, 3, 64), RealInterval(-1, 3, 128)
    for op in (operator.add, operator.mul, operator.sub):
        with pytest.raises(InternalInvariantError, match="mixed-precision"):
            op(x, y)
