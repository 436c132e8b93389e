import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from compib import make_field
from compib.composite import make_composite
from compib.errors import CoprimalityError, ValidationError
from compib.imquad import make_imq
from compib.polynomials import Poly, resultant
from compib.simplest_quartic import make_simplest_quartic
from compib.solver import bounds_hold, solve_norm_unit_y1

from conftest import (IDENTITY4, OCTIC_POLY, reference_discriminant, reference_norm,
                      to_power_coeffs)


def _char_poly_reference(K, xs, ys) -> Poly:
    """Oracle for char_poly: eliminate omega-first, literally, over Q[y][t]."""
    xs, ys = K._check_coords(xs, ys)
    n = K.n
    beta = to_power_coeffs(K.L, xs)
    gamma = to_power_coeffs(K.L, ys)

    def t_const(fr):
        return Poly([Fraction(fr)])

    def yt_const(fr):
        return Poly([t_const(fr)])

    # t - beta(x) - y*gamma(x) as an x-polynomial over Q[y][t]
    coeffs_x = []
    for i in range(n):
        c0 = Poly([Fraction(-beta[i]), Fraction(1)]) if i == 0 else t_const(-beta[i])
        coeffs_x.append(Poly([c0, t_const(-gamma[i])]))
    f_lift = Poly([yt_const(c) for c in K.L.f.coeffs])
    inner = resultant(f_lift, Poly(coeffs_x))
    if not isinstance(inner, Poly):
        inner = Poly([t_const(inner)])
    M = K.M
    g_lift = Poly([t_const(c) for c in (M.omega_norm, -M.omega_trace, 1)])
    outer = resultant(g_lift, inner)
    if not isinstance(outer, Poly):
        outer = Poly([Fraction(outer)])
    return outer.map_coeffs(Fraction)


def test_disc_law(octic_L, fam1, K_octic):
    # D_K = D_M^n * D_L^2
    assert K_octic.disc == (-4) ** 4 * 1957**2 == 980441344
    K = make_composite(fam1, make_imq(2))
    assert K.disc == (-8) ** 4 * 4913**2


def test_coprimality_enforced(fam2):
    with pytest.raises(CoprimalityError):
        make_composite(fam2, make_imq(1))  # gcd(2000, -4) = 4


def test_octic_char_poly(K_octic):
    char = K_octic.char_poly((0, 0, 0, 0), (0, 1, 0, 0))
    assert list(char.coeffs) == [1, 0, 9, 0, 18, 0, 8, 0, 1]
    assert all(type(c) is int for c in char.coeffs)


def test_octic_generator_index(K_octic):
    assert K_octic.composite_index((0, 0, 0, 0), (0, 1, 0, 0)) == 1


def test_non_primitive_elements_have_index_zero(K_octic):
    # omega alone and xi alone generate proper subfields
    assert K_octic.composite_index((0, 0, 0, 0), (1, 0, 0, 0)) == 0
    assert K_octic.composite_index((0, 1, 0, 0), (0, 0, 0, 0)) == 0


def test_translation_invariance(K_octic):
    xs, ys = (0, 2, -1, 0), (1, 0, 1, 0)
    base = K_octic.composite_index(xs, ys)
    shifted = K_octic.composite_index((5, 2, -1, 0), ys)
    assert base == shifted


def test_factorization_identity_random(K_octic, fam1):
    rng = random.Random(99)
    K2 = make_composite(fam1, make_imq(2))
    for K in (K_octic, K2):
        for _ in range(15):
            xs = tuple(rng.randint(-3, 3) for _ in range(4))
            ys = tuple(rng.randint(-3, 3) for _ in range(4))
            rep = K.factorization(xs, ys)
            assert rep["index"] == abs(rep["eq1"]) * abs(rep["eq2"]) * abs(rep["F"])
            assert rep["eq1"] >= 0


def test_factor_eq2_is_norm(K_octic, octic_L):
    for ys in ((1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 3, 1)):
        assert K_octic.factor_eq2(ys) == octic_L.element_norm(ys)


def test_reference_char_poly_agrees(K_octic):
    rng = random.Random(4)
    cases = [((0, 0, 0, 0), (0, 1, 0, 0))]
    for _ in range(3):
        cases.append((tuple(rng.randint(-2, 2) for _ in range(4)),
                      tuple(rng.randint(-2, 2) for _ in range(4))))
    for xs, ys in cases:
        assert _char_poly_reference(K_octic, xs, ys) == K_octic.char_poly(xs, ys)


def test_char_poly_matches_sympy(K_octic):
    # independent route: adjoin omega = i symbolically, eliminate with resultants
    x, t = sympy.symbols("x t")
    f = x**4 - 4 * x**2 - x + 1
    xs, ys = (0, 1, 0, -1), (2, 0, 1, 0)
    alpha = sum(c * x**j for j, c in enumerate(xs)) + sympy.I * sum(
        c * x**j for j, c in enumerate(ys))
    inner = sympy.resultant(f, t - alpha, x)
    expect = sympy.expand(inner * inner.subs(sympy.I, -sympy.I))
    expect = sympy.Poly(expect, t).monic().all_coeffs()
    got = K_octic.char_poly(xs, ys)
    assert [sympy.Rational(c) for c in reversed(got.coeffs)] == [
        sympy.nsimplify(c) for c in expect]


def test_coordinate_validation(K_octic):
    with pytest.raises(ValidationError):
        K_octic.composite_index((0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValidationError):
        K_octic.factor_eq2((1, 0, 0))


@pytest.mark.parametrize("call", [
    lambda L, K: L.element_index((True, 0, 0)),
    lambda L, K: L.element_norm((1, True, 0, 0)),
    lambda L, K: L.char_poly((0, 1.5, 0, 0)),
    lambda L, K: L.char_poly((0, True, 0, 0)),
    lambda L, K: L.cross_sum_square((0, True, 0, 0)),
    lambda L, K: K.factorization((0, 0, 0, 0), (False, True, 0, 0)),
    lambda L, K: K.composite_index((0, True, 0, 0), (1, 0, 0, 0)),
    lambda L, K: K.factor_eq2((0, 1, False, 0)),
    lambda L, K: solve_norm_unit_y1(L, (True, 0, 0)),
    lambda L, K: bounds_hold(K, (0, 0, 0, 0), (0, True, 0, 0)),
], ids=["index-bool", "norm-bool", "char-poly-float", "char-poly-bool", "cross-sum-bool",
        "factorization-bool", "composite-index-bool", "eq2-bool", "unit-y1-bool",
        "bounds-hold-bool"])
def test_coordinates_must_be_integers(call):
    # bool is not read as an integer, and no other number is either
    L = make_simplest_quartic(2)
    with pytest.raises(ValidationError, match="coordinates must be integers"):
        call(L, make_composite(L, make_imq(7)))


@pytest.mark.parametrize("bound, top_prec", [(10**4, 256), (10**6, 512), (10**30, 2048)],
                         ids=["1e4", "1e6", "1e30"])
def test_factorization_identity_large_coordinates(bound, top_prec):
    # coordinates of magnitude about the bound over the octic example's base
    # field (d = 1), L_2 (d = 7) and L_8 (d = 3): the identity, eq2 against
    # the resultant reference, and the Sylvester discriminant reference; eq1 and F
    # escalate to top_prec bits to certify these values
    rng = random.Random(bound)
    for L, d in ((make_field(OCTIC_POLY, IDENTITY4), 1), (make_simplest_quartic(2), 7),
                 (make_simplest_quartic(8), 3)):
        K = make_composite(L, make_imq(d))
        for _ in range(3):
            xs, ys = [tuple(rng.choice((-1, 1)) * rng.randint(bound // 2, bound)
                            for _ in range(4)) for _ in range(2)]
            xs = (0, *xs[1:])
            fac = K.factorization(xs, ys)
            assert fac["index"] == fac["eq1"] * abs(fac["eq2"]) * abs(fac["F"])
            assert fac["eq2"] == reference_norm(L, ys)
            assert reference_discriminant(K.char_poly(xs, ys)) == fac["index"] ** 2 * K.disc
        assert max(L._emb) == top_prec


# sha256 of the factorizations below: eq1, eq2, F and the index bit for bit,
# so a refactor of any of their routes must keep it
FACTORIZATION_SHA256 = "5c5efa6510d7e4365e7427f9fef63312b66987d09da0e155ba7a55d02d230af9"


def test_factorization_is_pinned():
    # the octic example's base field and L_1, L_2, L_4, L_8; every d in
    # (1, 2, 3, 7) coprime to D_L, so both residue classes of d; coordinates
    # up to 4, 10^4 and 10^6, two seeded elements per bound
    rng = random.Random(2025)
    fields = [make_field(OCTIC_POLY, IDENTITY4)] + [make_simplest_quartic(a) for a in (1, 2, 4, 8)]
    rows = []
    for L in fields:
        for d in (1, 2, 3, 7):
            M = make_imq(d)
            if math.gcd(L.disc, abs(M.disc)) != 1:
                continue
            K = make_composite(L, M)
            for bound in (4, 10**4, 10**6):
                for _ in range(2):
                    xs, ys = [tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(2)]
                    rows.append([L.disc, d, xs, ys, K.factorization(xs, ys)])
    assert {d for _, d, *_ in rows} == {1, 2, 3, 7}
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == FACTORIZATION_SHA256
