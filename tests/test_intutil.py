import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compib.errors import ValidationError
from compib.intutil import (exact_sqrt, floor_sqrt_fraction, is_prime,
                            is_squarefree, odd_square_free, v2)


def test_v2():
    assert v2(1) == 0
    assert v2(2) == 1
    assert v2(4) == 2
    assert v2(12) == 2
    assert v2(96) == 5


def test_is_squarefree():
    assert is_squarefree(1)
    assert is_squarefree(30)
    assert not is_squarefree(4)
    assert not is_squarefree(18)
    assert not is_squarefree(49)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=10**16 - 1))
@example(10000019**2)
@example(10000019 * 10000079)
@example(2 * 10000019**2)
def test_is_squarefree_matches_factorint(m):
    # trial division stops at the cube root; the cofactor is then 1, a prime,
    # a product of two distinct primes or a prime square
    assert is_squarefree(m) == all(e == 1 for e in sympy.factorint(m).values())


def test_is_squarefree_stops_trial_division():
    # no prime factor below 10^6 and a cofactor above 10^18: undecided, at once
    t0 = time.perf_counter()
    for m in (10**24 + 7, 10**30 + 57):
        with pytest.raises(ValidationError, match="cannot decide"):
            is_squarefree(m)
    assert time.perf_counter() - t0 < 5.0
    # above 10^18 with only small factors: decided as before
    primorial = math.prod(p for p in range(2, 54) if is_prime(p))
    assert primorial > 10**19
    assert is_squarefree(primorial)
    assert not is_squarefree(primorial * 53)
    # a cofactor below 10^18 after the trial bound is still decided
    assert is_squarefree(10**18 + 9) == all(e == 1 for e in sympy.factorint(10**18 + 9).values())


def test_odd_square_free():
    # 500 = 4 * 125 carries the odd square 25
    assert odd_square_free(20)
    assert odd_square_free(64)
    assert not odd_square_free(500)
    assert not odd_square_free(25)
    assert not odd_square_free(18)


def test_exact_sqrt():
    assert exact_sqrt(0) == 0
    assert exact_sqrt(1) == 1
    assert exact_sqrt(144) == 12
    assert exact_sqrt(2) is None
    assert exact_sqrt(145) is None


def test_floor_sqrt_fraction():
    assert floor_sqrt_fraction(Fraction(4096, 729)) == 2
    assert floor_sqrt_fraction(Fraction(1)) == 1
    assert floor_sqrt_fraction(Fraction(4096, 117649)) == 0
    assert floor_sqrt_fraction(Fraction(0)) == 0
    with pytest.raises(ValidationError):
        floor_sqrt_fraction(Fraction(-1, 4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=10**6))
def test_floor_sqrt_fraction_is_floor(num, den):
    fr = Fraction(num, den)
    k = floor_sqrt_fraction(fr)
    assert k * k <= fr < (k + 1) * (k + 1)


def test_is_prime():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(91)
