import time
from fractions import Fraction

import pytest

from compib.composite import make_composite
from compib.errors import PrecisionError, ValidationError
from compib.imquad import make_imq
from compib.numberfield import make_field
from compib.simplest_quartic import make_simplest_quartic, olajos_generators
from compib.solver import (bounds_hold, solve, solve_norm_unit_y1,
                           theorem_main_bounds)

from conftest import IDENTITY4, OCTIC_POLY


def test_bounds_d3(fam1):
    b = theorem_main_bounds(make_composite(fam1, make_imq(3)))
    assert b.regime == "RES_D3"
    assert b.e == 6
    assert b.bound_main == 64
    assert b.bound_y_sq == Fraction(4096, 729)
    assert b.bound_y_floor == 2
    assert not b.forces_zero_y


def test_bounds_d7(fam1):
    b = theorem_main_bounds(make_composite(fam1, make_imq(7)))
    assert b.regime == "RES_DGT3"
    assert b.bound_main == 64
    # (2/sqrt 7)^6 squared: (64/343)^2 < 1, so the y-part index form vanishes
    assert b.bound_y_sq == Fraction(4096, 117649) == Fraction(64, 343) ** 2
    assert b.forces_zero_y


def test_bounds_nonres(fam1, octic_L):
    b = theorem_main_bounds(make_composite(octic_L, make_imq(1)))
    assert b.regime == "NONRES_D1"
    assert b.bound_main == 1 and b.bound_y_sq == 1 and not b.forces_zero_y
    b = theorem_main_bounds(make_composite(fam1, make_imq(2)))
    assert b.regime == "NONRES_DGT1"
    assert b.bound_y_sq == Fraction(1, 64)
    assert b.forces_zero_y


def test_bounds_hold_at_generator(K_octic):
    held = bounds_hold(K_octic, (0, 0, 0, 0), (0, 1, 0, 0))
    assert held == {"p1": True, "p2": True, "real_part": True, "cross_sum": True}
    # a y-part of large index violates p2, and a large cross-sum product the F bound
    held = bounds_hold(K_octic, (0, 0, 0, 0), (0, 5, 3, 2))
    assert held["p2"] is False and held["cross_sum"] is False
    # a generator of L as x-part has I_L(x)^2 * D_L = 1957 > 1
    held = bounds_hold(K_octic, (0, 1, 0, 0), (0, 1, 0, 0))
    assert held["p1"] is True and held["real_part"] is False


def test_norm_unit_y1_frozen(octic_L):
    assert solve_norm_unit_y1(octic_L, (1, 0, 0)) == (-2, 0, 1)
    assert solve_norm_unit_y1(octic_L, (0, 0, 0)) == (-1, 1)


def _power(L, coords, k):
    """Coordinates of the k-th power of an element, by L's multiplication table."""
    out = (1,) + (0,) * (L.n - 1)
    for _ in range(k):
        out = tuple(sum(out[i] * coords[j] * L.mult_table[i][r][j]
                        for i in range(L.n) for j in range(L.n)) for r in range(L.n))
    return out


def test_norm_unit_y1_climbs_the_precision_ladder(fam1):
    # xi^200 is a unit with coordinates near 10^55: at 128 bits the windows
    # around its tail's conjugates are about 10^17 wide, so the enclosures
    # climb until each is narrower than 1, and y1 is still found exactly
    unit = _power(fam1, (0, 1, 0, 0), 200)
    assert abs(fam1.element_norm(unit)) == 1 and max(map(abs, unit)) > 10**50
    assert unit[0] in solve_norm_unit_y1(fam1, unit[1:])
    t0 = time.perf_counter()
    assert solve_norm_unit_y1(fam1, (10**60, 0, 0)) == ()
    assert time.perf_counter() - t0 < 1.0
    # past the 8192-bit cap the call refuses instead of running on
    with pytest.raises(PrecisionError, match="8192-bit"):
        solve_norm_unit_y1(fam1, (10**3000, 0, 0))


def test_second_solve_reuses_field_memos(monkeypatch):
    # the y1 solutions and the validated generator table are memoised on L
    def calls_of(L, name):
        seen = []
        inner = getattr(L, name)
        monkeypatch.setattr(L, name, lambda coords: seen.append(tuple(coords)) or inner(coords))
        return seen

    L = make_field(OCTIC_POLY, IDENTITY4, expected_disc=1957)
    pib = [v for v, _ in L.enumerate_bounded_index(1, 4)]
    first = calls_of(L, "char_poly")
    solve(make_composite(L, make_imq(1)), pib_source=pib, box_radius=4)
    assert first
    second = calls_of(L, "char_poly")
    indices = calls_of(L, "element_index")
    report = solve(make_composite(L, make_imq(3)), pib_source=pib, box_radius=4)
    assert report.candidates_tested > 0
    assert not set(second) & set(first)
    assert indices == []
    fresh = make_field(OCTIC_POLY, IDENTITY4, expected_disc=1957)
    assert report.to_dict() == solve(make_composite(fresh, make_imq(3)), pib_source=pib,
                                     box_radius=4).to_dict()


def test_norm_unit_y1_brute_force(octic_L, fam1):
    for L, tail in ((octic_L, (1, 0, 0)), (octic_L, (2, -1, 0)),
                    (fam1, (1, 1, 0)), (fam1, (0, 0, 0))):
        got = solve_norm_unit_y1(L, tail)
        brute = tuple(t for t in range(-60, 61)
                      if abs(L.element_norm((t, *tail))) == 1)
        assert got == brute


@pytest.mark.parametrize("base, d, regime, candidates, verdict, completeness", [
    ("octic", 1, "NONRES_D1", 4, "MONOGENIC", "BOX_LIMITED"),
    ("octic", 2, "NONRES_DGT1", 0, "NOT_MONOGENIC", "COMPLETE"),
    ("octic", 3, "RES_D3", 12, "INCONCLUSIVE", "BOX_LIMITED"),
    ("octic", 7, "RES_DGT3", 0, "NOT_MONOGENIC", "COMPLETE"),
    ("fam2", 3, "RES_D3", 0, "INCONCLUSIVE", "BOX_LIMITED"),
    ("fam2", 7, "RES_DGT3", 0, "NOT_MONOGENIC", "COMPLETE"),
    ("quadratic", 1, "NONRES_D1", 2, "MONOGENIC", "COMPLETE"),
    ("quadratic", 3, "RES_D3", 0, "NOT_MONOGENIC", "COMPLETE"),
])
def test_regime_candidate_sets(request, base, d, regime, candidates, verdict, completeness):
    # octic and fam2 at box 6, the quadratic field Q(sqrt 5) at box 8
    if base == "octic":
        L, pib, box = request.getfixturevalue("octic_L"), "box", 6
    elif base == "fam2":
        L, pib, box = request.getfixturevalue("fam2"), olajos_generators(2), 6
    else:
        L, pib, box = make_field([-1, -1, 1], ((1, 0), (0, 1)), expected_disc=5), [(1,)], 8
    r = solve(make_composite(L, make_imq(d)), pib_source=pib, box_radius=box,
              collect_traces=False)
    assert (r.regime, r.candidates_tested, r.verdict, r.completeness) == (
        regime, candidates, verdict, completeness)


def test_sqrt5_sqrt_minus3_has_no_generator_in_a_box():
    # the COMPLETE label above: no element of Q(sqrt 5, sqrt -3) with x1 = 0 and
    # coordinates at most 6 in absolute value has index 1
    L = make_field([-1, -1, 1], ((1, 0), (0, 1)), expected_disc=5)
    K = make_composite(L, make_imq(3))
    rng = range(-6, 7)
    assert not any(K.composite_index((0, x2), (y1, y2)) == 1
                   for x2 in rng for y1 in rng for y2 in rng)


def test_octic_composite_is_monogenic(K_octic):
    report = solve(K_octic, box_radius=12)
    assert report.verdict == "MONOGENIC"
    gens = [(g.xs_tail, g.ys) for g in report.generators]
    assert ((0, 0, 0), (0, 1, 0, 0)) in gens
    for g in report.generators:
        assert g.index == 1 and g.eq1 == 1 and abs(g.eq2) == 1 and abs(g.f_value) == 1
    # orbit representatives only
    for xs_tail, ys in gens:
        assert next(c for c in (*xs_tail, *ys) if c) > 0


def test_family_composites_not_monogenic(fam1, fam2):
    K = make_composite(fam1, make_imq(1))
    r = solve(K, box_radius=10)
    assert r.verdict == "NOT_MONOGENIC"
    K = make_composite(fam2, make_imq(7))
    r = solve(K, pib_source=olajos_generators(2), box_radius=10)
    assert r.verdict == "NOT_MONOGENIC"
    # the bounds from F settle the quartic cell, subfield vectors in the box or not
    assert r.completeness == "COMPLETE"


def test_quartic_cell_is_complete_without_a_sweep():
    # the subfield line (3, 21, -2) of L_20 lies outside any small box; no sweep is needed
    L = make_simplest_quartic(20)
    for pib in (olajos_generators(20), "box"):
        r = solve(make_composite(L, make_imq(7)), pib_source=pib, box_radius=5,
                  collect_traces=False)
        assert (r.verdict, r.completeness, r.candidates_tested) == ("NOT_MONOGENIC", "COMPLETE", 0)
        assert any("(cross sum)" in a and "(real part)" in a for a in r.assumptions)
    assert L._sweep_cache == {}


def test_settled_cell_answers_beyond_the_sweep_limit():
    # Q(zeta_13)^+ has degree 6 and no subfield of even degree >= 4, so with
    # d = 2 the theorem settles the cell; the default box (5.8e7 vectors) is
    # over the sweep limit but no sweep is needed
    L = make_field([-1, 3, 6, -4, -5, 1, 1], [[int(i == j) for j in range(6)] for i in range(6)],
                   expected_disc=13**5)
    r = solve(make_composite(L, make_imq(2)), collect_traces=False)
    assert (r.verdict, r.completeness, r.candidates_tested) == ("NOT_MONOGENIC", "COMPLETE", 0)
    assert L._sweep_cache == {} and L._emb == {}
    with pytest.raises(ValidationError, match="57928100 vectors"):
        L.zero_index_vectors(20)


def test_d3_is_inconclusive(fam1):
    K = make_composite(fam1, make_imq(3))
    r = solve(K, box_radius=5)
    assert r.verdict == "INCONCLUSIVE"
    assert r.completeness == "BOX_LIMITED"
    assert all(not t.accepted for t in r.traces)


def test_prime_degree_completeness():
    # quadratic base field: index form is x2 itself, so (1,) is complete
    L = make_field([-1, -1, 1], ((1, 0), (0, 1)), expected_disc=5)
    K = make_composite(L, make_imq(1))
    r = solve(K, pib_source=[(1,)], box_radius=8)
    assert r.completeness == "COMPLETE"
    assert r.verdict in ("MONOGENIC", "NOT_MONOGENIC")
    for g in r.generators:
        assert K.composite_index((0, *g.xs_tail), g.ys) == 1


def test_pib_source_validation(fam2):
    K = make_composite(fam2, make_imq(7))
    with pytest.raises(ValidationError):
        solve(K, pib_source=[(3, 2, -1)])  # index 0, not a generator
    with pytest.raises(ValidationError):
        solve(K, pib_source=[(1, 0)])
    with pytest.raises(ValidationError):
        solve(K, box_radius=0)
    # only "box" or integer vectors: no bare ValueError, and no silent int()
    for bad in ("boxes", "", [(4.9, 2, -1)], [(0, True, 0)], [("4", 2, -1)], [4], 5):
        with pytest.raises(ValidationError):
            solve(K, pib_source=bad)


def test_box_radius_must_be_a_positive_int(fam2):
    K = make_composite(fam2, make_imq(7))
    for bad in (0, -1, 2.7, 2.0, "3", True, False, None):
        with pytest.raises(ValidationError, match="box radius must be a positive integer"):
            solve(K, pib_source=olajos_generators(2), box_radius=bad)
    assert solve(K, pib_source=olajos_generators(2), box_radius=1).verdict == "NOT_MONOGENIC"


def test_report_dict_shape(K_octic):
    r = solve(K_octic, box_radius=6)
    d = r.to_dict()
    for key in ("verdict", "completeness", "regime", "d", "bounds",
                "generators", "assumptions", "candidates_tested", "candidates"):
        assert key in d
    assert d["bounds"]["e"] == 6
    r2 = solve(K_octic, box_radius=6, collect_traces=False)
    assert "candidates" not in r2.to_dict()


def test_rejection_reasons(octic_L):
    r = solve(make_composite(octic_L, make_imq(3)), box_radius=4)
    reasons = {t.reason for t in r.traces if not t.accepted}
    assert reasons <= {"eq1 != +-1", "eq2 != +-1", "F != +-1"}
    assert "eq1 != +-1" in reasons
