"""Certified interval arithmetic on the dyadic grid.

A ``RealInterval`` stores integer endpoints ``lo <= hi`` at a fixed scale
``2**-prec``, so every operation is plain integer arithmetic with outward
rounding: the true value is always contained.  A value known in advance to
be an integer is resolved exactly once the enclosure has width < 1/2.

The product of two intervals is the nine-case product of interval analysis
(Moore, Kearfott and Cloud, 2009): the signs of the four endpoints name the
two endpoint products that bound the hull, and only when both factors
straddle zero are two candidates compared for each end.  The endpoints are
the same as the min and max of all four products.  The product at scale
``2**-2prec`` goes back to ``2**-prec`` by shifts that round outward,
``lo >> prec`` and ``-((-hi) >> prec)``.  Every result goes through the one
constructor, which checks ``lo <= hi``.

Precision policy, fixed for the whole library: ``escalate`` evaluates at
``PREC_START`` = 128 bits and doubles the precision on every failed integer
certification, up to ``PREC_CAP`` = 8192 bits; past the cap a
``PrecisionError`` is raised rather than ever rounding silently.  Its users
are ``eq1`` and ``F`` in ``composite`` and the y1 windows of
``solver.solve_norm_unit_y1``.  The box sweep works at ``PREC_START`` only
to exclude vectors, and the root-subset irreducibility test of
``numberfield`` keeps its own ladder, from 32 bits with no cap.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalInvariantError, PrecisionError

PREC_START = 128
PREC_CAP = 8192


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class RealInterval:
    """Enclosure [lo/2^prec, hi/2^prec] of a real number."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo: int, hi: int, prec: int):
        if lo > hi:
            raise InternalInvariantError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi
        self.prec = prec

    @classmethod
    def from_int(cls, k: int, prec: int) -> RealInterval:
        v = k << prec
        return cls(v, v, prec)

    @classmethod
    def from_fraction(cls, fr: Fraction, prec: int) -> RealInterval:
        num = fr.numerator << prec
        den = fr.denominator
        return cls(num // den, _ceil_div(num, den), prec)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is RealInterval:
            if other.prec != self.prec:
                raise InternalInvariantError("mixed-precision interval arithmetic")
            return RealInterval(self.lo + other.lo, self.hi + other.hi, self.prec)
        if isinstance(other, int):
            k = other << self.prec
            return RealInterval(self.lo + k, self.hi + k, self.prec)
        if isinstance(other, Fraction):
            return self + RealInterval.from_fraction(other, self.prec)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RealInterval(-self.hi, -self.lo, self.prec)

    def __sub__(self, other):
        if isinstance(other, (RealInterval, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self.prec
        if type(other) is RealInterval:
            if other.prec != p:
                raise InternalInvariantError("mixed-precision interval arithmetic")
            a, b, c, d = self.lo, self.hi, other.lo, other.hi
            # the sign pattern names the endpoint products that bound the hull
            if a >= 0:
                if c >= 0:
                    lo, hi = a * c, b * d
                elif d <= 0:
                    lo, hi = b * c, a * d
                else:
                    lo, hi = b * c, b * d
            elif b <= 0:
                if c >= 0:
                    lo, hi = a * d, b * c
                elif d <= 0:
                    lo, hi = b * d, a * c
                else:
                    lo, hi = a * d, a * c
            elif c >= 0:
                lo, hi = a * d, b * d
            elif d <= 0:
                lo, hi = b * c, a * c
            else:
                lo, hi = min(a * d, b * c), max(a * c, b * d)
            # products live at scale 2^(2p); shift back with outward rounding
            return RealInterval(lo >> p, -((-hi) >> p), p)
        if isinstance(other, int):
            if other >= 0:
                return RealInterval(self.lo * other, self.hi * other, p)
            return RealInterval(self.hi * other, self.lo * other, p)
        if isinstance(other, Fraction):
            num, den = other.numerator, other.denominator
            a, b = self.lo * num, self.hi * num
            if a > b:
                a, b = b, a
            return RealInterval(a // den, _ceil_div(b, den), p)
        return NotImplemented

    __rmul__ = __mul__

    def recip(self) -> RealInterval:
        """1/self for an interval not containing zero."""
        if self.lo > 0:
            one = 1 << (2 * self.prec)
            return RealInterval(one // self.hi, _ceil_div(one, self.lo), self.prec)
        if self.hi < 0:
            return -((-self).recip())
        raise InternalInvariantError("reciprocal of interval containing zero")

    # -- queries ------------------------------------------------------------

    def width(self) -> Fraction:
        return Fraction(self.hi - self.lo, 1 << self.prec)

    def mid(self) -> Fraction:
        return Fraction(self.lo + self.hi, 1 << (self.prec + 1))

    def integer_range(self) -> tuple[int, int]:
        """Smallest and largest integers inside (empty when klo > khi)."""
        klo = _ceil_div(self.lo, 1 << self.prec)
        khi = self.hi >> self.prec
        return klo, khi

    def certify_integer(self) -> int | None:
        """The unique integer inside, provided the width is < 1/2.

        Returns None when the interval is still too wide.  An interval that
        is narrow enough but excludes all integers raises: the true value was
        promised to be an integer, so the enclosure or the promise is wrong.
        """
        if self.hi - self.lo >= 1 << (self.prec - 1):
            return None
        klo, khi = self.integer_range()
        if klo > khi:
            raise InternalInvariantError(
                "narrow enclosure excludes all integers for an integer-valued quantity"
            )
        if klo != khi:
            raise InternalInvariantError("width < 1/2 cannot contain two integers")
        return klo

    def __repr__(self):
        return f"RealInterval({float(self.mid()):.6g} ± {float(self.width()) / 2:.3g} @{self.prec}b)"


def sqrt_int(m: int, prec: int) -> RealInterval:
    """Certified enclosure of sqrt(m) for an integer m >= 0."""
    if m < 0:
        raise InternalInvariantError("sqrt of negative integer")
    s = math.isqrt(m << (2 * prec))
    hi = s if s * s == m << (2 * prec) else s + 1
    return RealInterval(s, hi, prec)


def int_combination(vals, coeffs) -> RealInterval:
    """Enclosure of sum(vals[k] * coeffs[k]) for integer coefficients.

    Scaling by an integer and adding are exact on the dyadic grid, so the
    result is as tight as its terms.  The first term is always formed, so an
    all-zero combination gives the zero interval.
    """
    acc = vals[0] * coeffs[0]
    for k in range(1, len(coeffs)):
        if coeffs[k]:
            acc = acc + vals[k] * coeffs[k]
    return acc


def escalate(task):
    """Run task(prec) at 128, 256, ... bits while it returns None.

    Raises PrecisionError once the 8192-bit ``PREC_CAP`` is exceeded;
    enclosures are never silently rounded.
    """
    prec = PREC_START
    while prec <= PREC_CAP:
        out = task(prec)
        if out is not None:
            return out
        prec *= 2
    raise PrecisionError(f"integer certification failed below the {PREC_CAP}-bit precision cap")
