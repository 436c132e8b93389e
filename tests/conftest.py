import itertools
from fractions import Fraction

import pytest

from compib import make_composite, make_field, make_imq, make_simplest_quartic

IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# base field of the degree-8 worked example: x^4 - 4x^2 - x + 1, disc 1957
OCTIC_POLY = (1, -1, -4, 0, 1)

# x^5 - 5x^3 + 4x - 1: totally real with squarefree discriminant
QUINTIC_POLY = (-1, 4, 0, -5, 0, 1)


def canonical_box(n, radius):
    """Nonzero vectors of the box |x_i| <= radius in Z^(n-1), one per sign orbit
    (first nonzero coordinate positive), in lexicographic order."""
    for vec in itertools.product(range(-radius, radius + 1), repeat=n - 1):
        lead = next((v for v in vec if v != 0), None)
        if lead is not None and lead > 0:
            yield vec


def fraction_det(rows) -> Fraction:
    """Determinant of a rational matrix by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return det


@pytest.fixture(scope="session")
def octic_L():
    return make_field(OCTIC_POLY, IDENTITY4, expected_disc=1957)


@pytest.fixture(scope="session")
def K_octic(octic_L):
    return make_composite(octic_L, make_imq(1))


@pytest.fixture(scope="session")
def fam1():
    return make_simplest_quartic(1)


@pytest.fixture(scope="session")
def fam2():
    return make_simplest_quartic(2)


@pytest.fixture(scope="session")
def fam4():
    return make_simplest_quartic(4)
