import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from compib import make_composite, make_imq, numberfield
from compib.errors import ValidationError
from compib.intervals import PREC_START
from compib.intutil import odd_square_free
from compib.numberfield import (_irreducible_mod_p, _multiplication_table, _root_subset_factor,
                                _scaled_inverse, field_from_dict, make_field)
from compib.polynomials import Poly, discriminant, isolate_real_roots, poly_mod_monic
from compib.simplest_quartic import family_poly_coeffs, make_simplest_quartic

from conftest import (CYCLO17_BASIS, CYCLO17_POLY, IDENTITY4, OCTIC_POLY, QUINTIC_POLY,
                      canonical_box, reference_char_poly, reference_cross_sum_square,
                      reference_discriminant, reference_index, reference_norm)

X = sympy.Symbol("x")
T = sympy.Symbol("t")


# -- the Fraction coordinate route, kept as the oracle for ring closure ----------


def _invert_reference(rows):
    """Gauss-Jordan inverse of a rational matrix over Fractions."""
    n = len(rows)
    aug = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _from_power_reference(basis, pcoeffs):
    n = len(basis)
    inv = _invert_reference(basis)
    pc = list(pcoeffs) + [Fraction(0)] * (n - len(pcoeffs))
    return tuple(sum((pc[i] * inv[i][j] for i in range(n)), Fraction(0)) for j in range(n))


def _multiply_coords_reference(f, basis, c1, c2):
    """Product of two elements given by basis coordinates, over Fractions."""
    def power(coords):
        return Poly([sum((c * row[i] for c, row in zip(coords, basis)), Fraction(0))
                     for i in range(len(basis))])

    rem = poly_mod_monic(power(c1) * power(c2), f)
    return _from_power_reference(basis, rem.coeffs)


def _closure_reference(f, basis):
    """First pair (i, j), i <= j, with b_i*b_j off the lattice, else None."""
    n = len(basis)
    for i in range(n):
        for j in range(i, n):
            unit = [[int(k == m) for k in range(n)] for m in (i, j)]
            if any(c.denominator != 1 for c in _multiply_coords_reference(f, basis, *unit)):
                return i, j
    return None


def _closure_integer(f, basis):
    """The pair that the integer table build names as unclosed, else None."""
    denom = math.lcm(*(Fraction(c).denominator for row in basis for c in row))
    scaled = [[int(Fraction(c) * denom) for c in row] for row in basis]
    inv, det = _scaled_inverse(scaled)
    try:
        _multiplication_table(f, scaled, inv, denom * det)
    except ValidationError as exc:
        pair = re.fullmatch(r"integral basis is not multiplicatively closed \(product (\d+),(\d+)\)",
                            str(exc))
        return int(pair[1]), int(pair[2])
    return None


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
    with pytest.raises(ValidationError, match="integral discriminant"):
        # (1, x/3) spans a lattice of discriminant 8/9
        make_field([-2, 0, 1], ((1, 0), (0, Fraction(1, 3))))
    with pytest.raises(ValidationError, match=r"not multiplicatively closed \(product 1,1\)"):
        # (1, x/2) has discriminant 2 but (x/2)^2 = 1/2 is not in the lattice
        make_field([-2, 0, 1], ((1, 0), (0, Fraction(1, 2))))


def test_triquadratic_field_builds():
    # Q(sqrt2, sqrt3, sqrt5): x^8 - 40x^6 + 352x^4 - 960x^2 + 576, 8 real roots;
    # reducible mod every prime, so only the root subsets certify it
    f = [576, 0, -960, 0, 352, 0, -40, 0, 1]
    assert sympy.Poly(list(reversed(f)), sympy.Symbol("x")).is_irreducible
    assert not any(_irreducible_mod_p(Poly(f), p) for p in (2, 3, 5, 7, 11, 13))
    L = make_field(f, [[int(i == j) for j in range(8)] for i in range(8)])
    assert L.n == 8


def test_large_constant_term_skips_the_divisor_scans(monkeypatch):
    # beyond the scan bound the divisors of f(0) are never listed: the scans
    # took about a second on x^4 - 10^8 x^2 + (10^14 + 31)
    def refuse(f):
        raise AssertionError("divisor scan beyond the bound")

    monkeypatch.setattr(numberfield, "_has_rational_root", refuse)
    monkeypatch.setattr(numberfield, "_quartic_has_quadratic_factor", refuse)
    f0 = 10**14 + 31
    assert sympy.Poly([1, 0, -10**8, 0, f0], X).is_irreducible
    assert make_field([f0, 0, -10**8, 0, 1], IDENTITY4).n == 4
    # (x^2 - 2*10^6)(x^2 - 3*10^6) and (x - 10^7)(x^2 - 2) are refused by their factors
    with pytest.raises(ValidationError, match="factor of degree 2"):
        make_field([6 * 10**12, 0, -5 * 10**6, 0, 1], IDENTITY4)
    with pytest.raises(ValidationError, match="factor of degree 1"):
        make_field([2 * 10**7, -2, -10**7, 1], [[int(i == j) for j in range(3)] for i in range(3)])


def _spread_poly(roots, shift):
    """prod (x - 3*r) + shift: distinct integer roots 3 apart leave every local
    extremum at least 9/4 from 0, so |shift| <= 2 keeps all roots real."""
    f = Poly([1])
    for r in roots:
        f = f * Poly([-3 * r, 1])
    return f + Poly([shift])


def _spread_polys(max_roots):
    return st.builds(
        _spread_poly,
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=max_roots,
                 unique=True),
        st.integers(min_value=-2, max_value=2))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_spread_polys(8).filter(lambda f: f.degree >= 2),
                 st.builds(operator.mul, _spread_polys(4), _spread_polys(4))))
def test_root_subsets_decide_irreducibility_like_sympy(f):
    # totally real of degree 2..8: one spread polynomial, or a product of two
    try:
        roots = isolate_real_roots(f)
    except ValidationError:
        assume(False)       # the two factors share a root: f is not squarefree
    assert len(roots) == f.degree
    expect = sympy.Poly(list(reversed(f.coeffs)), X).is_irreducible
    assert (_root_subset_factor(f, roots) == 0) == expect


def test_sqrt2_field():
    L = make_field([-2, 0, 1], ((1, 0), (0, 1)))
    assert L.n == 2 and L.disc == 8 and L.denom == 1
    assert L.element_norm((0, 1)) == -2
    assert L.element_index((1,)) == 1
    assert L.element_index((3,)) == 3


def test_coordinate_roundtrip():
    # the one integer matrix, denom * basis, read through K's power
    # coordinates, against the Fraction inverse of the rational rows; the
    # members 1, 2, 4, 8 have denominators 2, 2, 4, 4
    rng = random.Random(7)
    for a in (1, 2, 4, 8):
        L = make_simplest_quartic(a)
        assert L.scaled_basis == tuple(tuple(int(c * L.denom) for c in row) for row in L.basis)
        K = make_composite(L, make_imq(3))
        for _ in range(20):
            coords = tuple(rng.randint(-9, 9) for _ in range(4))
            power = [Fraction(c, L.denom) for c in K._int_scaled_power(coords).coeffs]
            assert _from_power_reference(L.basis, power) == coords


def test_multiply_coords_matches_sympy(fam2):
    f = X**4 - 2 * X**3 - 6 * X**2 + 2 * X + 1
    rng = random.Random(11)
    rows = [[sympy.Rational(c) for c in row] for row in fam2.basis]
    for _ in range(10):
        a = tuple(rng.randint(-5, 5) for _ in range(4))
        b = tuple(rng.randint(-5, 5) for _ in range(4))
        got = _multiply_coords_reference(fam2.f, fam2.basis, a, b)
        pa = sum(c * sum(r * X**i for i, r in enumerate(rows[j])) for j, c in enumerate(a))
        pb = sum(c * sum(r * X**i for i, r in enumerate(rows[j])) for j, c in enumerate(b))
        prod = sympy.rem(sympy.expand(pa * pb), f, X)
        back = sum(c * sum(r * X**i for i, r in enumerate(rows[j])) for j, c in enumerate(got))
        assert sympy.expand(prod - back) == 0


def test_scaled_inverse_matches_sympy():
    rng = random.Random(17)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            m = sympy.Matrix(rows)
            if m.det() == 0:
                with pytest.raises(ValidationError, match="linearly dependent"):
                    _scaled_inverse(rows)
                continue
            inv, d = _scaled_inverse(rows)
            assert abs(d) == abs(m.det())
            assert m * sympy.Matrix(inv) == d * sympy.eye(n)


def _unimodular(rng, n, steps):
    # a product of elementary integer row operations that leave row 0 alone
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(1, n)
        j = rng.randrange(n)
        if i != j:
            k = rng.randint(-3, 3)
            t[i] = [a + k * b for a, b in zip(t[i], t[j])]
        else:
            t[i] = [-a for a in t[i]]
    return t


def _order(which):
    """(defining polynomial, basis of an order), rows over the power basis."""
    if which < 4:
        a = (2, 4, 8, 1)[which]
        return family_poly_coeffs(a), make_simplest_quartic(a).basis
    poly = (OCTIC_POLY, QUINTIC_POLY, (-2, 0, 1))[which - 4]
    n = len(poly) - 1
    return poly, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**32),
       st.sampled_from([1, 2, 3]), st.booleans())
def test_integer_closure_matches_reference(which, seed, m, perturb):
    # an order, a sub-order Z + m*O, the same lattices under a unimodular
    # change of basis (all closed), and perturbed rational bases (mostly not)
    poly, order = _order(which)
    f = Poly(list(poly))
    n = len(order)
    rng = random.Random(seed)
    rows = [list(order[0])] + [[Fraction(c) * m for c in row] for row in order[1:]]
    t = _unimodular(rng, n, 2 * n)
    rows = [[sum((t[i][k] * rows[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]
    if perturb:
        # divide a row, or add a fraction of another row to it
        i, k = rng.sample(range(1, n), 2) if n > 2 else (1, 0)
        q = Fraction(rng.randint(1, 3), rng.choice((2, 3, 4)))
        if rng.random() < 0.5:
            rows[i] = [c * q for c in rows[i]]
        else:
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
    expect = _closure_reference(f, rows)
    assert _closure_integer(f, rows) == expect
    if not perturb:
        assert expect is None
    # make_field gives the same verdict, unless a non-integral discriminant
    # stops it first
    try:
        make_field(poly, rows)
    except ValidationError as exc:
        if "discriminant" not in str(exc):
            assert str(exc) == f"integral basis is not multiplicatively closed (product {expect[0]},{expect[1]})"
    else:
        assert expect is None


def test_closure_verdicts_both_ways():
    # the sweep above must see both verdicts; here one fixed case of each
    f = Poly(list(family_poly_coeffs(2)))
    basis = make_simplest_quartic(2).basis
    assert _closure_integer(f, basis) is None is _closure_reference(f, basis)
    halved = basis[:3] + (tuple(c / 2 for c in basis[3]),)
    assert _closure_integer(f, halved) == _closure_reference(f, halved) == (1, 3)


def _power_basis_field(poly):
    n = len(poly) - 1
    return make_field(poly, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def _cyclo17():
    return make_field(CYCLO17_POLY, CYCLO17_BASIS, expected_disc=17**7)


@pytest.mark.parametrize("build", [
    lambda: make_field((-5, 0, 1), ((1, 0), (Fraction(1, 2), Fraction(1, 2)))),
    lambda: make_simplest_quartic(8),
    lambda: make_field(OCTIC_POLY, IDENTITY4),
    lambda: make_field(QUINTIC_POLY, tuple(tuple(int(i == j) for j in range(5)) for i in range(5))),
    _cyclo17,
], ids=["sqrt5-half-basis", "L_8-denominator-4", "octic-base", "quintic", "conductor-17"])
def test_table_reproduces_products(build):
    # column j of mult_table[i] is b_i*b_j in basis coordinates, as the
    # power-basis product reduced mod f and mapped back over Fractions says
    L = build()
    units = [tuple(int(k == i) for k in range(L.n)) for i in range(L.n)]
    for i, j in itertools.product(range(L.n), repeat=2):
        column = tuple(row[j] for row in L.mult_table[i])
        assert column == _multiply_coords_reference(L.f, L.basis, units[i], units[j])


def test_char_poly_of_xi_squared(octic_L):
    char = octic_L.char_poly((0, 0, 1, 0))
    assert [c for c in char.coeffs] == [1, -9, 18, -8, 1]
    # same element through the power-coefficient converter
    coords = _from_power_reference(octic_L.basis, (0, 0, 1, 0))
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
        ab = _multiply_coords_reference(fam4.f, fam4.basis, a, b)
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
        certified = fam1.index_form_interval(xs, PREC_START).certify_integer()
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


@pytest.mark.parametrize("query", [
    lambda L: L.zero_index_vectors(True),
    lambda L: L.zero_index_vectors(0),
    lambda L: L.zero_index_vectors(-3),
    lambda L: L.zero_index_vectors(2.5),
    lambda L: L.enumerate_bounded_index(1, True),
    lambda L: L.enumerate_bounded_index(1, 0),
    lambda L: L.enumerate_bounded_index(1, -3),
    lambda L: L.enumerate_bounded_index(1, 2.5),
    lambda L: L.enumerate_bounded_index(True, 3),
    lambda L: L.enumerate_bounded_index(1.5, 3),
    lambda L: L.enumerate_bounded_index(0, 3),
], ids=["zero-True", "zero-0", "zero-neg", "zero-float", "radius-True", "radius-0",
        "radius-neg", "radius-float", "bound-True", "bound-float", "bound-0"])
def test_sweep_queries_validate(query):
    L = make_simplest_quartic(2)
    with pytest.raises(ValidationError, match="must be a positive integer"):
        query(L)
    assert L._sweep_cache == {}


def _brute_index_table(L, radius):
    """Canonical box vectors with |index| <= the index limit, by exact index alone."""
    out = []
    for xs in canonical_box(L.n, radius):
        k = L.element_index(xs)
        if k <= L._index_limit:
            out.append((xs, k))
    return tuple(out)


def _real_quadratic(m):
    # Z[(1 + sqrt m)/2] for m = 1 mod 4, else Z[sqrt m]
    basis = ((1, 0), (Fraction(1, 2), Fraction(1, 2))) if m % 4 == 1 else ((1, 0), (0, 1))
    return make_field((-m, 0, 1), basis)


def _simplest_cubic(a):
    # x^3 - a*x^2 - (a+3)*x - 1 with its power basis
    return make_field((-1, -(a + 3), -a, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _quartic(a):
    # a = 0 stands for the octic example's base field
    if a == 0:
        return make_field(OCTIC_POLY, IDENTITY4, expected_disc=1957)
    return make_simplest_quartic(a)


def _random_quartic(roots, shift):
    # a spread quartic with its power basis, or None when it is reducible
    try:
        return _power_basis_field(_spread_poly(roots, shift).coeffs)
    except ValidationError:
        return None


RANDOM_QUARTICS = st.builds(
    _random_quartic,
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4, unique=True),
    st.sampled_from((-2, -1, 1, 2))).filter(lambda L: L is not None)


# prefixes of length 0 (n = 2), 1 (n = 3) and 2 (n = 4) along the sweep's line walk
FIELD_KINDS = {
    "real-quadratic": st.integers(min_value=2, max_value=300).filter(
        lambda m: all(m % (p * p) for p in range(2, 18))).map(_real_quadratic),
    "simplest-cubic": st.integers(min_value=-1, max_value=30).map(_simplest_cubic),
    "quartic": st.sampled_from([0] + [a for a in range(1, 13)
                                      if a != 3 and odd_square_free(a * a + 16)]).map(_quartic),
    # the zeros (0, k, 0), k = 1..4, put multiples of a zero inside radius 4
    "V4-power-basis": st.just((1, 0, -10, 0, 1)).map(_power_basis_field),
    "random-quartic": RANDOM_QUARTICS,
}


@pytest.mark.parametrize("kind", FIELD_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), radius=st.integers(min_value=1, max_value=4))
def test_sweep_matches_exact_index(kind, data, radius):
    L = data.draw(FIELD_KINDS[kind])
    assert L._small_index_table(radius) == _brute_index_table(L, radius)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=RANDOM_QUARTICS, v=st.tuples(*[st.integers(min_value=-5, max_value=5)] * 3),
       g=st.integers(min_value=2, max_value=4), c=st.integers(min_value=-3, max_value=3))
def test_index_laws_on_random_quartics(L, v, g, c):
    # disc(char alpha) = I(alpha)^2 * D by the Sylvester reference; I(g*x) =
    # g^6 * I(x), the premise of the primitive-vector sweep; x_1 is free
    idx = L.element_index(v)
    d_alpha = reference_discriminant(L.char_poly((0, *v)))
    assert d_alpha == idx * idx * L.disc
    assert L.element_index(tuple(g * x for x in v)) == g**6 * idx
    assert reference_discriminant(L.char_poly((c, *v))) == d_alpha


def test_sweep_tests_only_primitive_vectors(monkeypatch):
    # I_L(g*y) = g^e * I_L(y) with 2^e above the index limit: only primitive
    # vectors get an exact index, and the multiples in the table are exactly
    # those of the primitive zeros
    L = _power_basis_field((1, 0, -10, 0, 1))
    tested = []
    index = L.element_index

    def counted(xs):
        tested.append(xs)
        return index(xs)

    monkeypatch.setattr(L, "element_index", counted)
    table = L._small_index_table(4)
    assert tested and all(math.gcd(*xs) == 1 for xs in tested)
    primitive_zeros = {xs for xs, k in table if k == 0 and math.gcd(*xs) == 1}
    multiples = [(xs, k) for xs, k in table if math.gcd(*xs) > 1]
    assert multiples == [((0, g, 0), 0) for g in (2, 3, 4)]
    for xs, _ in multiples:
        g = math.gcd(*xs)
        assert tuple(x // g for x in xs) in primitive_zeros
    monkeypatch.undo()
    assert table == _brute_index_table(L, 4)


def test_sweep_box_is_bounded_up_front():
    # (13^7 - 1)/2 canonical vectors at radius 6 in degree 8: refused before
    # any embedding is built; (11^7 - 1)/2 = 9,743,585 at radius 5 is allowed
    L = _cyclo17()
    with pytest.raises(ValidationError, match="31374258 vectors"):
        L.zero_index_vectors(6)
    assert L._emb == {} and L._sweep_cache == {}
    numberfield.validate_box_radius(5, 8)
    assert numberfield.MAX_BOX_VECTORS == 10**7


# fields for the reference test, with the coordinate bound drawn over each
ORACLE_FIELDS = {
    "power-basis": (st.sampled_from([(-1, -1, 1), (-1, -5, -2, 1), (1, 0, -10, 0, 1)])
                    .map(_power_basis_field), 10**30),
    "quartic": (st.sampled_from([0] + [a for a in range(1, 13)
                                       if a != 3 and odd_square_free(a * a + 16)])
                .map(_quartic), 10**30),
    "conductor-17": (st.just(None).map(lambda _: _cyclo17()), 10**3),
}


@pytest.mark.parametrize("kind", ORACLE_FIELDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_invariants_match_resultant_reference(kind, data):
    # the table's characteristic polynomial against Res_x(f, t - D*h(x)):
    # x^2 - x - 1, the Shanks cubic x^3 - 2x^2 - 5x - 1 and the V4 quartic
    # x^4 - 10x^2 + 1 with their power bases, the family members a <= 12 and
    # the octic example's base field, and the conductor-17 octic field
    fields, bound = ORACLE_FIELDS[kind]
    L = data.draw(fields)
    coords = tuple(data.draw(st.lists(st.integers(min_value=-bound, max_value=bound),
                                      min_size=L.n, max_size=L.n)))
    char = L.char_poly(coords)
    assert char == reference_char_poly(L, coords)
    assert all(isinstance(c, int) for c in char.coeffs)
    assert L.element_norm(coords) == reference_norm(L, coords)
    assert L.element_index(coords[1:]) == reference_index(L, coords[1:])
    assert L.cross_sum_square(coords) == reference_cross_sum_square(L, coords)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=8).flatmap(
           lambda n: st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n)),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_irreducible_mod_p_matches_sympy(low, p):
    # monic f of degree 2..8: the distinct-degree test against sympy's factoring
    f = Poly(low + [1])
    expect = sympy.Poly(list(reversed(f.coeffs)), X, modulus=p).is_irreducible
    assert _irreducible_mod_p(f, p) == expect
