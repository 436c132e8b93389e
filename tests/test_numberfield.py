import random
from fractions import Fraction

import pytest
import sympy

from compib.errors import ValidationError
from compib.numberfield import field_from_dict, make_field
from compib.polynomials import Poly, discriminant

from conftest import OCTIC_POLY, QUINTIC_POLY

X = sympy.Symbol("x")
T = sympy.Symbol("t")


def test_make_field_validations():
    with pytest.raises(ValidationError):
        make_field([1, 0, 2], ((1, 0), (0, 1)))  # not monic
    with pytest.raises(ValidationError):
        make_field([1, 0, 1], ((1, 0), (0, 1)))  # no real roots
    with pytest.raises(ValidationError):
        make_field([-1, 0, 1], ((1, 0), (0, 1)))  # reducible
    with pytest.raises(ValidationError):
        make_field([-2, 0, 1], ((0, 1), (1, 0)))  # first basis row must be 1
    with pytest.raises(ValidationError):
        make_field([-2, 0, 1], ((1, 0), (0, 1)), expected_disc=5)
    with pytest.raises(ValidationError):
        # (1, x/3) does not span a ring: (x/3)^2 = 2/9 is not in the lattice
        make_field([-2, 0, 1], ((1, 0), (0, Fraction(1, 3))))


def test_sqrt2_field():
    L = make_field([-2, 0, 1], ((1, 0), (0, 1)))
    assert L.n == 2 and L.disc == 8 and L.denom == 1
    assert L.element_norm((0, 1)) == -2
    assert L.element_index((1,)) == 1
    assert L.element_index((3,)) == 3


def test_coordinate_roundtrip(fam2):
    rng = random.Random(7)
    for _ in range(20):
        coords = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(4))
        assert fam2.from_power_coeffs(fam2.to_power_coeffs(coords)) == coords


def test_multiply_coords_matches_sympy(fam2):
    f = X**4 - 2 * X**3 - 6 * X**2 + 2 * X + 1
    rng = random.Random(11)
    rows = [[sympy.Rational(c) for c in row] for row in fam2.basis]
    for _ in range(10):
        a = tuple(rng.randint(-5, 5) for _ in range(4))
        b = tuple(rng.randint(-5, 5) for _ in range(4))
        got = fam2.multiply_coords(a, b)
        pa = sum(c * sum(r * X**i for i, r in enumerate(rows[j])) for j, c in enumerate(a))
        pb = sum(c * sum(r * X**i for i, r in enumerate(rows[j])) for j, c in enumerate(b))
        prod = sympy.rem(sympy.expand(pa * pb), f, X)
        back = sum(c * sum(r * X**i for i, r in enumerate(rows[j])) for j, c in enumerate(got))
        assert sympy.expand(prod - back) == 0


def test_char_poly_of_xi_squared(octic_L):
    char = octic_L.char_poly((0, 0, 1, 0))
    assert [c for c in char.coeffs] == [1, -9, 18, -8, 1]
    # same element through the power-coefficient converter
    coords = octic_L.from_power_coeffs((0, 0, 1, 0))
    assert coords == (0, 0, 1, 0)


def test_char_poly_matches_sympy_resultant(octic_L):
    rng = random.Random(3)
    f = X**4 - 4 * X**2 - X + 1
    for _ in range(8):
        coords = tuple(rng.randint(-4, 4) for _ in range(4))
        char = octic_L.char_poly(coords)
        p = sum(c * X**j for j, c in enumerate(coords))
        expect = sympy.Poly(sympy.resultant(f, T - p, X), T).monic()
        got = sum(sympy.Rational(c) * T**j for j, c in enumerate(char.coeffs))
        assert sympy.expand(got - expect.as_expr()) == 0


def test_norm_is_multiplicative(fam4):
    rng = random.Random(5)
    for _ in range(12):
        a = tuple(rng.randint(-6, 6) for _ in range(4))
        b = tuple(rng.randint(-6, 6) for _ in range(4))
        ab = fam4.multiply_coords(a, b)
        assert all(c.denominator == 1 for c in ab)
        ab = tuple(int(c) for c in ab)
        assert fam4.element_norm(ab) == fam4.element_norm(a) * fam4.element_norm(b)


def test_element_index_known_values(fam2):
    for v in ((4, 2, -1), (0, 1, 0), (-13, -9, 4)):
        assert fam2.element_index(v) == 1
    # multiples of (3,2,-1) generate the quadratic subfield: index form vanishes
    assert fam2.element_index((3, 2, -1)) == 0
    assert fam2.element_index((6, 4, -2)) == 0
    with pytest.raises(ValidationError):
        fam2.element_index((1, 2))
    with pytest.raises(ValidationError):
        fam2.element_index((1, 2, Fraction(1, 2)))


def test_index_interval_certifies_exact(fam1):
    rng = random.Random(13)
    for _ in range(25):
        xs = tuple(rng.randint(-7, 7) for _ in range(3))
        certified = fam1._certified_index_value(xs)
        assert abs(certified) == fam1.element_index(xs)


def test_enumerate_bounded_index(fam2):
    hits = fam2.enumerate_bounded_index(1, 8)
    assert all(idx == 1 for _, idx in hits)
    assert ((0, 1, 0), 1) in hits
    assert ((1, 1, 0), 1) in hits
    # canonical sign: first nonzero coordinate positive
    assert all(next(c for c in v if c) > 0 for v, _ in hits)


def test_zero_index_vectors(fam2):
    assert fam2.zero_index_vectors(10) == ((3, 2, -1), (6, 4, -2), (9, 6, -3))


def test_describe_roundtrip(octic_L):
    data = octic_L.describe()
    again = field_from_dict({"poly": data["poly"], "basis": data["basis"],
                             "expected_disc": data["disc"]})
    assert again.disc == octic_L.disc
    assert again.basis == octic_L.basis
    assert data["real_roots"][0].startswith("-1.7")


def test_octic_base_field(octic_L):
    assert octic_L.n == 4
    assert octic_L.disc == 1957
    assert discriminant(Poly(list(OCTIC_POLY))) == 1957
    assert [r.lo < r.hi or r.exact for r in octic_L.roots] == [True] * 4


def test_quintic_field():
    disc = discriminant(Poly(list(QUINTIC_POLY)))
    basis = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    L = make_field(QUINTIC_POLY, basis, expected_disc=disc)
    assert L.n == 5
    assert L.element_index((1, 0, 0, 0)) == 1
