import pytest

from compib import make_composite, make_field, make_imq, make_simplest_quartic

IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# base field of the degree-8 worked example: x^4 - 4x^2 - x + 1, disc 1957
OCTIC_POLY = (1, -1, -4, 0, 1)

# x^5 - 5x^3 + 4x - 1: totally real with squarefree discriminant
QUINTIC_POLY = (-1, 4, 0, -5, 0, 1)


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
