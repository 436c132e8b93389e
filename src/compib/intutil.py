"""Small exact integer utilities: 2-adic valuation, squarefree tests, integer square root."""

from __future__ import annotations

import itertools
import math

from .errors import ValidationError


def v2(m: int) -> int:
    """Exponent of 2 in m (m nonzero)."""
    if m == 0:
        raise ValidationError("v2(0) is undefined")
    return (m & -m).bit_length() - 1


# trial division stops here; a fixed constant, like numberfield.MAX_BOX_VECTORS
SQUAREFREE_TRIAL_MAX = 10**6


def is_squarefree(m: int) -> bool:
    """True iff no prime square divides m; m >= 1.

    Trial division by 2, 3 and the numbers 6k +- 1 runs only while p^3 <= m
    for the cofactor m left so far; each candidate costs one remainder, and
    only a divisor is tested for its square.  The cofactor then has no prime
    factor below p, so it has at most two, and it is squarefree unless it is
    the square of a prime.  Division stops at p = ``SQUAREFREE_TRIAL_MAX``;
    a cofactor still above 10^18 there is undecided, and raises
    ValidationError.
    """
    if m < 1:
        raise ValidationError("squarefree test expects m >= 1")
    m0 = m
    six_k_pm_1 = itertools.chain.from_iterable(zip(itertools.count(5, 6), itertools.count(7, 6)))
    for p in itertools.chain((2, 3), six_k_pm_1):
        if p * p * p > m:
            return m == 1 or exact_sqrt(m) is None
        if p >= SQUAREFREE_TRIAL_MAX:
            raise ValidationError(
                f"cannot decide whether {m0} is squarefree: a cofactor above 10^18 "
                f"has no prime factor below {SQUAREFREE_TRIAL_MAX}")
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False


def odd_square_free(m: int) -> bool:
    """True iff no odd prime square divides m (even squares are allowed)."""
    if m < 1:
        raise ValidationError("odd-squarefree test expects m >= 1")
    return is_squarefree(m >> v2(m))


def exact_sqrt(m: int) -> int | None:
    """Integer square root of m if m is a perfect square, else None."""
    if m < 0:
        return None
    r = math.isqrt(m)
    return r if r * r == m else None


def floor_sqrt_fraction(fr) -> int:
    """floor(sqrt(p/q)) for a non-negative rational, by integer search."""
    num, den = fr.numerator, fr.denominator
    if num < 0:
        raise ValidationError("square root of a negative rational")
    k = math.isqrt(num // den)
    while (k + 1) * (k + 1) * den <= num:
        k += 1
    return k


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    p = 3
    while p * p <= m:
        if m % p == 0:
            return False
        p += 2
    return True
