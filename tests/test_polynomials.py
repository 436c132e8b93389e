from fractions import Fraction

import hashlib
import math
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from compib.errors import InternalInvariantError, ValidationError
from compib.intervals import RealInterval
from compib.numberfield import make_field
from compib import polynomials
from compib.polynomials import (IsolatedRoot, Poly, _sturm_chain_int,
                                cauchy_root_bound, discriminant,
                                isolate_real_roots, poly_mod_monic, resultant)
from compib.simplest_quartic import make_simplest_quartic, validate_parameter

from conftest import (IDENTITY4, OCTIC_POLY, QUINTIC_POLY, contains_fraction,
                      reference_discriminant)

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


# -- the rational Sturm chain, kept as the oracle for the integer one -----------


def _divmod_q(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over the rationals."""
    rem = [Fraction(c) for c in p.coeffs]
    dc = [Fraction(c) for c in d.coeffs]
    dd = len(dc) - 1
    qs = [Fraction(0)] * max(len(rem) - dd, 0)
    while len(rem) - 1 >= dd:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        shift = len(rem) - 1 - dd
        q = rem[-1] / dc[-1]
        qs[shift] = q
        for i, c in enumerate(dc):
            rem[shift + i] -= q * c
    return Poly(qs), Poly(rem)


def _primitive_reference(p: Poly) -> list[int]:
    # the primitive integer polynomial with the sign of p's leading coefficient
    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    ints = [int(Fraction(c) * den) for c in p.coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _sturm_chain_reference(coeffs) -> list[list[int]]:
    """Sturm chain by Euclid's remainders over Q, f, f', -rem, ..., as the
    integer route replaced it, each member reported as its primitive part."""
    chain = [Poly(coeffs), Poly(coeffs).derivative()]
    while chain[-1].degree > 0:
        rem = _divmod_q(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [_primitive_reference(m) for m in chain]


def _reference_root_count(coeffs) -> int:
    # Sturm's theorem: sign variations at -infinity minus those at +infinity
    chain = _sturm_chain_reference(coeffs)
    at_neg = polynomials._variations([c[-1] * (-1) ** (len(c) - 1) for c in chain])
    at_pos = polynomials._variations([c[-1] for c in chain])
    return at_neg - at_pos


def test_divmod_q():
    p = Poly([Fraction(c) for c in (3, 0, -2, 5)])
    d = Poly([Fraction(1), Fraction(2)])
    q, r = _divmod_q(p, d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_poly_mod_monic():
    f = Poly([1, 0, -4, 0, 1])
    p = Poly([0, 0, 0, 0, 0, 0, 1])  # x^6
    r = poly_mod_monic(p, f)
    assert r.degree < 4
    # cross-check with sympy remainder
    expect = sympy.rem(X**6, X**4 - 4 * X**2 + 1, X)
    assert _to_sympy(r).as_expr().expand() == expect.expand()


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
        assert discriminant(p) == sympy.discriminant(_to_sympy(p).as_expr(), X)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                min_size=2, max_size=9).filter(lambda c: c[-1] != 0))
def test_rational_discriminant_matches_sympy(coeffs):
    # the denominators are cleared before the elimination
    p = Poly(coeffs)
    assert discriminant(p) == sympy.discriminant(_to_sympy(p).as_expr(), X)


big_ints = st.integers(min_value=-10**30, max_value=10**30)


@st.composite
def disc_polys(draw):
    """(p, square) with p of degree 1..8, monic or not, integral or rational;
    when square, p has a repeated factor and discriminant 0."""
    n = draw(st.integers(min_value=1, max_value=8))
    square = n >= 2 and draw(st.booleans())
    k = draw(st.integers(min_value=1, max_value=n // 2)) if square else 0
    rational = draw(st.booleans())
    dens = st.integers(min_value=1, max_value=10**30) if rational else st.just(1)
    parts = []
    for deg in ((k, n - 2 * k) if square else (n,)):
        lead = 1 if draw(st.booleans()) else draw(big_ints.filter(bool))
        coeffs = draw(st.lists(big_ints, min_size=deg, max_size=deg)) + [lead]
        parts.append(Poly([Fraction(c, draw(dens)) if rational else c for c in coeffs]))
    p = parts[0] * parts[0] * parts[1] if square else parts[0]
    return p, square


@settings(max_examples=150, deadline=None, derandomize=True)
@given(disc_polys())
def test_discriminant_matches_sylvester_reference(case):
    # the Hankel route against the Sylvester route it replaced
    p, square = case
    disc = discriminant(p)
    assert disc == reference_discriminant(p)
    assert disc == 0 or not square


def test_sturm_counts():
    for coeffs, count in (([1, 0, 1], 0), ([-2, 0, 1], 2), ([1, 2, -6, -2, 1], 4),
                          ([1, 0, -4, -1, 1], 4), ([1, 0, 0, 0, 1], 0), ([-2, 0, 0, 1], 1)):
        assert len(isolate_real_roots(Poly(coeffs))) == count
        assert _reference_root_count(coeffs) == count
    with pytest.raises(ValidationError, match="squarefree"):
        isolate_real_roots(Poly([1, -2, 1]))


def test_gcd_and_squarefree():
    # the last chain member is gcd(f, f') up to a constant
    p = Poly([1, 1]) * Poly([1, 1]) * Poly([-3, 1])
    assert _sturm_chain_int(list(p.coeffs))[-1] == [1, 1]
    assert _sturm_chain_reference(p.coeffs)[-1] == [1, 1]
    with pytest.raises(ValidationError, match="squarefree"):
        isolate_real_roots(p)
    q = Poly([1, 1]) * Poly([-3, 1])
    assert len(_sturm_chain_int(list(q.coeffs))[-1]) == 1
    assert len(isolate_real_roots(q)) == 2
    # a double root at zero is caught like any other
    with pytest.raises(ValidationError, match="squarefree"):
        isolate_real_roots(Poly([0, 0, -2, 0, 1]))


def _with_rational_roots(base, factors):
    p = Poly(base)
    for num, den in factors:
        p = p * Poly([-num, den])
    return list(p.coeffs)


def _squarefree(coeffs) -> bool:
    return len(coeffs) >= 2 and any(coeffs[1:]) and len(_sturm_chain_reference(coeffs)[-1]) == 1


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-12, max_value=12), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3, 4])),
                max_size=3))
@example([-2, 0, 1], [(1, 1), (-1, 2)])
def test_integer_sturm_chain_matches_rational_chain(base, factors):
    # the chain that root isolation builds equals the rational chain of the
    # same polynomial
    coeffs = _with_rational_roots(base, factors)
    assume(3 <= len(coeffs) <= 9 and _squarefree(coeffs))
    assert _sturm_chain_int(_primitive_reference(Poly(coeffs))) == _sturm_chain_reference(coeffs)
    built = []

    def record(cs):
        chain = _sturm_chain_int(cs)
        built.append((list(cs), chain))
        return chain

    with mock.patch.object(polynomials, "_sturm_chain_int", record):
        roots = isolate_real_roots(Poly(coeffs))
    for cs, chain in built:
        assert chain == _sturm_chain_reference(cs)
    assert len(roots) == _reference_root_count(coeffs)
    # a rational root is an exact point when bisection hit it, else enclosed
    rational = {Fraction(int(r.p), int(r.q)) for r in sympy.Poly(list(reversed(coeffs)), X).ground_roots()}
    assert {r.lo for r in roots if r.exact} <= rational
    for q in rational:
        assert sum(r.lo <= q <= r.hi for r in roots) == 1
    if factors == [(1, 1), (-1, 2)]:
        # (x^2 - 2)(x - 1)(2x + 1): the subdivision lands on 1, an exact root in place
        assert any(r.exact and r.lo == 1 for r in roots)


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
    assert contains_fraction(sq, Fraction(2))


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=7).filter(_squarefree),
       st.integers(min_value=0, max_value=4),
       st.lists(st.tuples(st.integers(min_value=1, max_value=999),
                          st.integers(min_value=0, max_value=300)), min_size=1, max_size=3))
def test_refine_matches_fraction_bisection(coeffs, j, widths):
    # roots of p(2^j*y) are the roots of p over 2^j, so the build cells moved
    # j levels down the grid start the refinement at several depths
    scaled = [c << (j * i) for i, c in enumerate(coeffs)]
    for root in isolate_real_roots(Poly(coeffs)):
        lo, hi, exact = root.lo / (1 << j), root.hi / (1 << j), root.exact
        r = IsolatedRoot(scaled, root._lo, root._hi, root._shift + j, exact)
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
    r = IsolatedRoot(coeffs, 0, 1, 0, False)
    r.refine_to(Fraction(1, 1000))
    assert _state(r) == (Fraction(1, 4), Fraction(1, 4), True)
    assert _state(r) == _refine_reference(coeffs, Fraction(0), Fraction(1), False, Fraction(1, 1000))
    assert r.width() == 0 and r.lo <= Fraction(1, 4) <= r.hi
    assert r.to_interval(32).lo == r.to_interval(32).hi == 1 << 30
    # (8x - 3)(x^2 - 2) on [5/16, 7/16]: the first midpoint is 3/8, one level down
    coeffs = [6, -16, -3, 8]
    r = IsolatedRoot(coeffs, 5, 7, 4, False)
    r.refine_to(Fraction(1, 10**6))
    assert _state(r) == (Fraction(3, 8), Fraction(3, 8), True)


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


def test_root_states_fingerprint():
    # every root's reduced endpoints after make_field and refinement to
    # 2^-32, pinned bit for bit: root isolation must keep the same cells
    states = []
    for _, L in _embedding_fields():
        for r in L.roots:
            r.refine_to(Fraction(1, 1 << 32))
            states.append(_state(r))
    assert len(states) == 157
    digest = hashlib.sha256(repr(states).encode()).hexdigest()
    assert digest == "c34413c14c3b2e6e009c284fc9afa50771b1c6f80f6cfb1b11e81c5547c5b44a"


# -- checked jumps against the integer bisection -------------------------------


def _int_state(r: IsolatedRoot):
    return r._lo, r._hi, r._shift, r.exact


def _bisect_reference(coeffs, state, width):
    """Oracle for the checked jumps: the integer bisection loop that
    IsolatedRoot.refine_to ran before it jumped, on (_lo, _hi, _shift,
    exact).  Returns the same tuple."""
    lo, hi, shift, exact = state
    if exact:
        return state
    sign_lo = polynomials._sign_at(coeffs, lo, shift)
    gap = (hi - lo) * width.denominator
    limit = width.numerator << shift
    while gap > limit:
        mid = lo + hi
        shift += 1
        limit <<= 1
        s = polynomials._sign_at(coeffs, mid, shift)
        if s == 0:
            return mid, mid, shift, True
        if s == sign_lo:
            lo, hi = mid, hi << 1
        else:
            lo, hi = lo << 1, mid
    return lo, hi, shift, exact


def _as_fractions(state):
    lo, hi, shift, exact = state
    q = 1 << shift
    return Fraction(lo, q), Fraction(hi, q), exact


def _jump_fields():
    yield "a = 1", make_simplest_quartic(1)
    yield "a = 20", make_simplest_quartic(20)
    yield "octic", make_field(OCTIC_POLY, IDENTITY4, expected_disc=1957)


def test_bisect_reference_matches_fraction_bisection():
    for name, L in _jump_fields():
        for r in L.roots:
            state = _int_state(r)
            frs = _state(r)
            for prec in (128, 256, 512, 1024):
                w = Fraction(1, 1 << prec)
                state = _bisect_reference(r.coeffs, state, w)
                frs = _refine_reference(r.coeffs, *frs, w)
                assert _as_fractions(state) == frs, (name, prec)


def test_jumps_match_bisection_chained():
    # one root refined 128 -> 256 -> ... -> 4096 bits ends every stage in the
    # exact integer state of the bisection
    for name, L in _jump_fields():
        for r in L.roots:
            state = _int_state(r)
            for prec in (128, 256, 512, 1024, 2048, 4096):
                w = Fraction(1, 1 << prec)
                state = _bisect_reference(r.coeffs, state, w)
                r.refine_to(w)
                assert _int_state(r) == state, (name, prec)


def test_rational_root_on_a_deep_grid_point():
    # (2^40 x - 1)(x^2 - 2): the root 2^-40 of [0, 1] is a grid point at level 40;
    # a jump that meets it at a cell end leaves the last levels to bisection
    coeffs = [2, -(1 << 41), -1, 1 << 40]
    start = (0, 1, 0, False)
    for k in (39, 40, 100, 8192):
        w = Fraction(1, 1 << k)
        r = IsolatedRoot(coeffs, 0, 1, 0, False)
        r.refine_to(w)
        assert _int_state(r) == _bisect_reference(coeffs, start, w), k
        assert _state(r) == _refine_reference(coeffs, Fraction(0), Fraction(1), False, w), k
    assert _state(r) == (Fraction(1, 1 << 40), Fraction(1, 1 << 40), True)
    assert r._shift == 40


def test_refinement_to_8192_bits_costs_few_evaluations():
    # bisection takes about 8,160 steps from the build state; the jumps take
    # a few dozen evaluations, counted here rather than timed
    L = make_simplest_quartic(1)
    for r in L.roots:
        with mock.patch.object(polynomials, "_value_at", wraps=polynomials._value_at) as evals:
            r.refine_to(Fraction(1, 1 << 8192))
        assert r._shift >= 8192 and not r.exact
        assert evals.call_count <= 64
