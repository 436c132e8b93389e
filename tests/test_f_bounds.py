"""The two bounds from the factor F, and the solver's use of them.

``old_candidates`` is the solver's candidate loop as it was before these
bounds existed: the paper's two eq1 bounds and the box sweeps, nothing else.
It is the oracle for the new rule, which must never be weaker: every
candidate it produces in a cell that the new solver certifies with no
search fails one of the new bounds, and in the cells that still search,
the new candidates are exactly the old ones that pass both.
"""

import functools
import math

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from compib import (bounds_hold, make_composite, make_field, make_imq, make_simplest_quartic,
                    solve, verify_theorem_cq)
from compib.intutil import is_prime, is_squarefree, odd_square_free
from compib.polynomials import Poly, poly_mod_monic
from compib.simplest_quartic import olajos_generators
from compib.solver import (_canonical_candidate, _signed, _validated_pib, solve_norm_unit_y1,
                           theorem_main_bounds)

from conftest import CYCLO17_BASIS, CYCLO17_POLY, IDENTITY4, OCTIC_POLY, canonical_box


@functools.lru_cache(maxsize=None)
def _exact_index_pool(L, bound, radius):
    """Canonical box vectors with 1 <= index <= bound, by exact index.

    The library sweeps only up to the largest bound the new rule uses, so
    the old z-pool up to 2^e is built here.  An interval enclosure of the
    index form skips only the vectors whose index is certainly above bound.
    """
    out = []
    for xs in canonical_box(L.n, radius):
        iv = L.index_form_interval(xs, 128)
        far = bound << iv.prec
        if iv.lo <= far and iv.hi >= -far and 1 <= L.element_index(xs) <= bound:
            out.append(xs)
    return tuple(out)


def old_candidates(K, pib_source, radius):
    """Candidate set (x-tail, y) of the eq1-bounds-only loop, one per sign orbit."""
    L, n = K.L, K.n
    b = theorem_main_bounds(K)
    d_gt3 = K.M.residue and K.M.d != 3
    pib = (_validated_pib(L, pib_source) if pib_source != "box"
           else tuple(v for v, _ in L.enumerate_bounded_index(1, radius)))
    zero_idx = () if is_prime(n) else L.zero_index_vectors(radius)
    zero_vec = (0,) * (n - 1)
    if b.forces_zero_y:
        y_units = ()
    elif K.M.residue:
        y_units = tuple(v for v, _ in L.enumerate_bounded_index(b.bound_y_floor, radius))
    else:
        y_units = pib
    y_tails = [zero_vec, *_signed(y_units), *_signed(zero_idx)]
    x_units = [zero_vec, *_signed(pib), *_signed(zero_idx)]
    z_pool = [zero_vec, *_signed(_exact_index_pool(L, b.bound_main, radius)), *_signed(zero_idx)]
    out = set()
    for ytail in y_tails:
        if not K.M.residue or (d_gt3 and ytail == zero_vec):
            xs_tails = x_units
        else:
            xs_tails = [tuple((zi - yi) // 2 for zi, yi in zip(z, ytail)) for z in z_pool
                        if not any((zi - yi) % 2 for zi, yi in zip(z, ytail))]
        if xs_tails:
            for y1 in solve_norm_unit_y1(L, ytail):
                for xs_tail in xs_tails:
                    out.add(_canonical_candidate(xs_tail, (y1, *ytail)))
    return out


# -- the exact cross-sum product and the bounds on random elements ---------------


@functools.lru_cache(maxsize=None)
def _base_field(label):
    if label == "octic":
        return make_field(OCTIC_POLY, IDENTITY4, expected_disc=1957)
    return make_simplest_quartic(label)


def _square_tail(L, ys):
    """Basis coordinates of y^2 (without the first), by arithmetic in Q[x]/(f)."""
    h = Poly(L.to_power_coeffs(ys))
    sq = poly_mod_monic(h * h, L.f).coeffs
    sq = [sympy.Rational(c.numerator, c.denominator) for c in sq]
    sq += [0] * (L.n - len(sq))
    basis = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                          for row in L.basis])
    coords = basis.T.LUsolve(sympy.Matrix(sq))
    assert all(c.is_integer for c in coords)
    return tuple(int(c) for c in coords[1:])


MEMBERS = [a for a in range(1, 13) if a != 3 and odd_square_free(a * a + 16)]
coords = st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(["octic", *MEMBERS]), st.integers(min_value=1, max_value=30),
       coords, coords)
def test_f_bounds_on_random_elements(label, d, xs, ys):
    L = _base_field(label)
    assume(is_squarefree(d))
    M = make_imq(d)
    assume(math.gcd(L.disc, M.disc) == 1)
    K = make_composite(L, M)
    xs, ys = (0, *xs[1:]), tuple(ys)
    e = L.n * (L.n - 1) // 2
    f_abs = abs(K.factor_F(xs, ys))
    p_sq = L.cross_sum_square(ys)
    # cross-sum bound: |F| >= v^(2e) * P(y)^2
    assert f_abs >= M.im_omega_sq ** e * p_sq
    # real-part bound
    if M.residue:
        iz = L.element_index(tuple(2 * x + y for x, y in zip(xs[1:], ys[1:])))
        assert f_abs * 4**e >= iz * iz * L.disc
    else:
        ix = L.element_index(xs[1:])
        assert f_abs >= ix * ix * L.disc
    # the shipped P(y) route against |I_L(y^2)| / |I_L(y)|
    iy = L.element_index(ys[1:])
    if iy:
        iy2 = L.element_index(_square_tail(L, ys))
        assert iy2 % iy == 0 and (iy2 // iy) ** 2 == p_sq
    if not any(ys):
        assert p_sq == 0


# -- the solver against the old loop -----------------------------------------------


def test_old_candidates_fail_a_new_bound():
    # a <= 6 at box 8: at every d the new candidates are the old ones that pass
    # both F bounds, and away from d = 1 none passes
    checked = 0
    for a in MEMBERS:
        if a > 6:
            continue
        L, pib = make_simplest_quartic(a), olajos_generators(a)
        for d in range(1, 31):
            if not is_squarefree(d) or math.gcd(L.disc, make_imq(d).disc) != 1:
                continue
            K = make_composite(L, make_imq(d))
            new = {(t.xs_tail, t.ys) for t in solve(K, pib_source=pib, box_radius=8).traces}
            old = old_candidates(K, pib, 8)
            passing = set()
            for xs_tail, ys in old:
                held = bounds_hold(K, (0, *xs_tail), ys)
                if held["real_part"] and held["cross_sum"]:
                    passing.add((xs_tail, ys))
            assert new == passing
            assert d == 1 or not new
            checked += len(old)
    assert checked > 300


# -- labels ------------------------------------------------------------------------


def test_wide_grid_needs_no_search():
    rep = verify_theorem_cq(a_max=200, d_max=100, box_radius=1)
    ran = [r for r in rep["rows"] if r["status"] == "OK"]
    assert rep["all_not_monogenic"] and len(ran) > 6000
    for r in ran:
        if r["d"] >= 2:
            assert (r["verdict"], r["completeness"], r["candidates_tested"]) == (
                "NOT_MONOGENIC", "COMPLETE", 0), r
        else:
            assert r["completeness"] == "BOX_LIMITED"
    # the paper's grid a <= 20, d <= 30: 181 cells COMPLETE, the 9 cells d = 1 box-limited
    paper = [r for r in ran if r["a"] <= 20 and r["d"] <= 30]
    assert len(paper) == 190
    assert sum(r["completeness"] == "COMPLETE" for r in paper) == 181


def test_degree_8_base_field_stays_a_search():
    # n = 8 has the proper divisor 4, so the theorem does not apply: the subfield
    # zeros are swept, and the F bounds filter what the sweep finds
    L = make_field(CYCLO17_POLY, CYCLO17_BASIS, expected_disc=17**7)
    # the sweep keeps indices up to floor(2^28 / sqrt(17^7)), the real-part floor at d = 3
    assert L._index_limit == 13251
    for d in (7, 2):
        r = solve(make_composite(L, make_imq(d)), box_radius=1, collect_traces=False)
        assert (r.verdict, r.completeness) == ("NOT_MONOGENIC", "BOX_LIMITED")
        assert any(a.startswith("nonzero index-form zeros found") for a in r.assumptions)
        assert any(a.endswith("filter the candidates") for a in r.assumptions)
    assert L.zero_index_vectors(1)
