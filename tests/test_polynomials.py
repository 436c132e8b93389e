from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from compib.errors import InternalInvariantError, ValidationError
from compib.intervals import RealInterval
from compib.numberfield import make_field
from compib.polynomials import (IsolatedRoot, Poly, cauchy_root_bound,
                                discriminant, divmod_q, gcd_q,
                                is_squarefree_poly, isolate_real_roots,
                                poly_mod_monic, resultant,
                                sturm_real_root_count, to_fraction_poly)
from compib.simplest_quartic import make_simplest_quartic, validate_parameter

from conftest import IDENTITY4, OCTIC_POLY, QUINTIC_POLY

X = sympy.Symbol("x")


def _to_sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)], X)


def test_poly_basics():
    p = Poly([1, 2, 3])
    assert p.degree == 2 and p.lc == 3
    assert Poly([0]).degree == -1
    assert Poly([1, 0, 0]).degree == 0
    assert p.evaluate(2) == 1 + 4 + 12
    assert (p * Poly([0])).degree == -1
    assert p + 1 == Poly([2, 2, 3])
    assert (p - p).degree == -1


def test_poly_pow_and_derivative():
    p = Poly([1, 1])
    assert p**3 == Poly([1, 3, 3, 1])
    assert Poly([5, -2, 0, 7]).derivative() == Poly([-2, 0, 21])


def test_exact_div():
    p = Poly([1, 1]) * Poly([-2, 3]) * Poly([4, 0, 1])
    assert p.exact_div(Poly([1, 1])) == Poly([-2, 3]) * Poly([4, 0, 1])
    with pytest.raises(InternalInvariantError):
        Poly([1, 1, 1]).exact_div(Poly([1, 1]))


def test_divmod_q():
    p = to_fraction_poly(Poly([3, 0, -2, 5]))
    d = to_fraction_poly(Poly([1, 2]))
    q, r = divmod_q(p, d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_poly_mod_monic():
    f = Poly([1, 0, -4, 0, 1])
    p = Poly([0, 0, 0, 0, 0, 0, 1])  # x^6
    r = poly_mod_monic(p, f)
    assert r.degree < 4
    # cross-check with sympy remainder
    expect = sympy.rem(X**6, X**4 - 4 * X**2 + 1, X)
    assert _to_sympy(to_fraction_poly(r)).as_expr().expand() == expect.expand()


def test_resultant_examples():
    assert resultant(Poly([-1, 1]), Poly([1, 1])) == 2
    p = Poly([1, 3, 0, 1])
    assert resultant(p, p) == 0
    with pytest.raises(ValidationError):
        resultant(Poly([0]), Poly([0]))
    assert resultant(Poly([0]), Poly([1, 1])) == 0
    assert resultant(Poly([2]), Poly([3])) == 1


def test_discriminant_examples():
    assert discriminant(Poly([-1, 0, 1])) == 4
    assert discriminant(Poly([1, 0, -4, -1, 1])) == 1957
    assert discriminant(Poly([1, 2, -6, -2, 1])) == 32000
    assert discriminant(Poly([1, -2, 1])) == 0
    with pytest.raises(ValidationError):
        discriminant(Poly([3]))


int_polys = st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=6).filter(
    lambda c: any(v for v in c[1:]))


def _sylvester_det(ca, cb):
    """Textbook Sylvester determinant; sympy.resultant itself flips sign on
    some degenerate inputs (e.g. x+1 vs x^3), so the matrix is the oracle."""
    ca, cb = list(ca), list(cb)
    while len(ca) > 1 and ca[-1] == 0:
        ca.pop()
    while len(cb) > 1 and cb[-1] == 0:
        cb.pop()
    m, n = len(ca) - 1, len(cb) - 1
    size = m + n
    rows = []
    desc_a, desc_b = list(reversed(ca)), list(reversed(cb))
    for i in range(n):
        rows.append([0] * i + desc_a + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + desc_b + [0] * (size - n - 1 - i))
    return sympy.Matrix(rows).det() if size else sympy.Integer(1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(int_polys, int_polys)
def test_resultant_matches_sylvester_det(ca, cb):
    ra = resultant(Poly(ca), Poly(cb))
    assert ra == _sylvester_det(ca, cb)


def test_resultant_degenerate_signs():
    # the case where the naive PRS convention goes wrong
    assert resultant(Poly([1, 1]), Poly([0, 0, 0, 1])) == -1
    assert resultant(Poly([0, 0, 0, 1]), Poly([1, 1])) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(int_polys, int_polys, int_polys)
def test_resultant_multiplicative(ca, cb, cc):
    a, b, c = Poly(ca), Poly(cb), Poly(cc)
    assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)


def test_discriminant_matches_sympy():
    for coeffs in ([1, 1, 1, 1, 1], [2, -3, 0, 5], [1, 2, -6, -2, 1], [-7, 0, 0, 1, 3]):
        p = Poly(coeffs)
        assert discriminant(p) == sympy.discriminant(_to_sympy(to_fraction_poly(p)).as_expr(), X)


def test_sturm_counts():
    assert sturm_real_root_count(Poly([1, 0, 1])) == 0
    assert sturm_real_root_count(Poly([-2, 0, 1])) == 2
    assert sturm_real_root_count(Poly([1, 2, -6, -2, 1])) == 4
    assert sturm_real_root_count(Poly([1, 0, -4, -1, 1])) == 4
    with pytest.raises(ValidationError):
        sturm_real_root_count(Poly([1, -2, 1]))


def test_gcd_and_squarefree():
    p = Poly([1, 1]) * Poly([1, 1]) * Poly([-3, 1])
    g = gcd_q(to_fraction_poly(p), to_fraction_poly(p.derivative()))
    assert g.degree == 1
    assert not is_squarefree_poly(p)
    assert is_squarefree_poly(Poly([1, 1]) * Poly([-3, 1]))


def test_isolate_real_roots_sqrt2():
    roots = isolate_real_roots(Poly([-2, 0, 1]))
    assert len(roots) == 2
    lo_root, hi_root = roots
    assert lo_root.hi < hi_root.lo
    for r, sign in ((lo_root, -1), (hi_root, 1)):
        r.refine_to(Fraction(1, 10**12))
        mid = (r.lo + r.hi) / 2
        assert abs(mid * mid - 2) < Fraction(1, 10**5)
        assert (mid > 0) == (sign > 0)


def test_isolate_handles_exact_roots():
    # x^3 - 2x has the exact root 0 between two irrational ones
    roots = isolate_real_roots(Poly([0, -2, 0, 1]))
    assert len(roots) == 3
    assert roots[1].exact and roots[1].lo == roots[1].hi == 0
    assert roots[0].hi < 0 < roots[2].lo


def test_isolate_sorted_disjoint():
    p = Poly([1, 2, -6, -2, 1])
    roots = isolate_real_roots(p)
    assert len(roots) == 4
    for a, b in zip(roots, roots[1:]):
        assert a.hi < b.lo
    with pytest.raises(ValidationError):
        isolate_real_roots(Poly([1, -2, 1]))


def test_isolated_root_to_interval():
    root = isolate_real_roots(Poly([-2, 0, 1]))[1]
    iv = root.to_interval(64)
    assert iv.width() < Fraction(2, 2**64)
    sq = iv * iv
    assert sq.contains_fraction(Fraction(2))


def test_cauchy_root_bound():
    p = Poly([-100, 0, 1])
    b = cauchy_root_bound(p)
    assert b >= 11
    for r in isolate_real_roots(p):
        assert -b < r.lo and r.hi < b


# -- root refinement against the Fraction bisection ---------------------------


def _sign_reference(coeffs, fr: Fraction) -> int:
    # den^deg * p(num/den) by Horner, an integer with the sign of p(fr)
    acc, dp = 0, 1
    for c in reversed(coeffs):
        acc = acc * fr.numerator + c * dp
        dp *= fr.denominator
    return (acc > 0) - (acc < 0)


def _refine_reference(coeffs, lo, hi, exact, width):
    """Oracle for IsolatedRoot.refine_to: the bisection over Fractions that it
    replaced, one midpoint (lo + hi)/2 per step.  Returns (lo, hi, exact)."""
    sign_lo = 0 if exact else _sign_reference(coeffs, lo)
    while not exact and hi - lo > width:
        mid = (lo + hi) / 2
        s = _sign_reference(coeffs, mid)
        if s == 0:
            return mid, mid, True
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, exact


def _state(r: IsolatedRoot):
    return r.lo, r.hi, r.exact


def _squarefree(coeffs) -> bool:
    p = Poly(coeffs)
    return p.degree >= 1 and is_squarefree_poly(p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=7).filter(_squarefree),
       st.sampled_from([1, 3, 5, 12]),
       st.lists(st.tuples(st.integers(min_value=1, max_value=999),
                          st.integers(min_value=0, max_value=300)), min_size=1, max_size=3))
def test_refine_matches_fraction_bisection(coeffs, scale, widths):
    # roots of p(scale*y) are the roots of p over scale, so dividing the
    # dyadic enclosures by 3, 5 or 12 gives denominators that are not powers of 2
    scaled = [c * scale**i for i, c in enumerate(coeffs)]
    for root in isolate_real_roots(Poly(coeffs), target_width=Fraction(1)):
        lo, hi, exact = root.lo / scale, root.hi / scale, root.exact
        r = IsolatedRoot(scaled, lo, hi, exact)
        assert _state(r) == (lo, hi, exact)
        for num, k in widths:
            w = Fraction(num, 1 << k)
            lo, hi, exact = _refine_reference(scaled, lo, hi, exact, w)
            r.refine_to(w)
            assert _state(r) == (lo, hi, exact)
        lo, hi, exact = _refine_reference(scaled, lo, hi, exact, Fraction(1, 1 << 64))
        iv = r.to_interval(64)
        assert _state(r) == (lo, hi, exact)
        assert (iv.lo, iv.hi) == (RealInterval.from_fraction(lo, 64).lo,
                                  RealInterval.from_fraction(hi, 64).hi)


def test_rational_root_on_a_midpoint_becomes_exact():
    # (4x - 1)(x^2 - 2): 1/4 is the second midpoint of [0, 1]
    coeffs = [2, -8, -1, 4]
    r = IsolatedRoot(coeffs, Fraction(0), Fraction(1), False)
    r.refine_to(Fraction(1, 1000))
    assert _state(r) == (Fraction(1, 4), Fraction(1, 4), True)
    assert _state(r) == _refine_reference(coeffs, Fraction(0), Fraction(1), False, Fraction(1, 1000))
    assert r.width() == 0 and not r.excludes(Fraction(1, 4))
    assert r.to_interval(32).lo == r.to_interval(32).hi == 1 << 30
    # (12x - 5)(x^2 - 2) on [1/3, 1/2]: the first midpoint is 5/12, over an odd base 3
    coeffs = [10, -24, -5, 12]
    r = IsolatedRoot(coeffs, Fraction(1, 3), Fraction(1, 2), False)
    r.refine_to(Fraction(1, 10**6))
    assert _state(r) == (Fraction(5, 12), Fraction(5, 12), True)


def test_refine_to_rejects_non_positive_width():
    root = isolate_real_roots(Poly([-2, 0, 1]))[1]
    before = _state(root)
    for width in (0, Fraction(0), Fraction(-1, 8), -1):
        with pytest.raises(ValidationError):
            root.refine_to(width)
    assert _state(root) == before


def _embedding_fields():
    for a in range(1, 41):
        try:
            validate_parameter(a)
        except ValidationError:
            continue
        yield f"a = {a}", make_simplest_quartic(a)
    yield "octic", make_field(OCTIC_POLY, IDENTITY4, expected_disc=1957)
    basis5 = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    yield "quintic", make_field(QUINTIC_POLY, basis5)


def _value_key(v):
    # basis value at one root: an interval, or a rational for a constant row
    return (v.lo, v.hi, v.prec) if isinstance(v, RealInterval) else v


def test_embeddings_match_fraction_bisection():
    # every family member a <= 40, the octic base field and the quintic
    for name, L in _embedding_fields():
        states = [_state(r) for r in L.roots]
        for prec in (128, 256, 512, 1024):
            w = Fraction(1, 1 << prec)
            states = [_refine_reference(r.coeffs, *st_, w) for r, st_ in zip(L.roots, states)]
            ivs = [RealInterval(RealInterval.from_fraction(lo, prec).lo,
                                RealInterval.from_fraction(hi, prec).hi, prec)
                   for lo, hi, _ in states]
            expect = [[_value_key(Poly(row).evaluate(iv)) for row in L.basis] for iv in ivs]
            got = [[_value_key(v) for v in row] for row in L.embeddings(prec).basis_vals]
            assert got == expect, (name, prec)
            assert [_state(r) for r in L.roots] == states, (name, prec)
