from fractions import Fraction

import pytest

from compib.composite import make_composite
from compib.errors import ValidationError
from compib.imquad import make_imq
from compib.numberfield import make_field
from compib.simplest_quartic import make_simplest_quartic, olajos_generators
from compib.solver import (bounds_hold, solve, solve_norm_unit_y1,
                           theorem_main_bounds)


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
    assert held == {"p1": True, "p2": True}
    # a y-part of large index violates p2
    held = bounds_hold(K_octic, (0, 0, 0, 0), (0, 5, 3, 2))
    assert held["p2"] is False


def test_norm_unit_y1_frozen(octic_L):
    assert solve_norm_unit_y1(octic_L, (1, 0, 0)) == (-2, 0, 1)
    assert solve_norm_unit_y1(octic_L, (0, 0, 0)) == (-1, 1)


def test_second_solve_reuses_field_memos(monkeypatch):
    # the y1 solutions and the validated generator table are memoised on L
    def calls_of(L, name):
        seen = []
        inner = getattr(L, name)
        monkeypatch.setattr(L, name, lambda coords: seen.append(tuple(coords)) or inner(coords))
        return seen

    L = make_simplest_quartic(2)
    pib = olajos_generators(2)
    first = calls_of(L, "char_poly")
    solve(make_composite(L, make_imq(7)), pib_source=pib, box_radius=4)
    assert first
    second = calls_of(L, "char_poly")
    indices = calls_of(L, "element_index")
    report = solve(make_composite(L, make_imq(11)), pib_source=pib, box_radius=4)
    assert not set(second) & set(first)
    assert indices == []
    fresh = make_simplest_quartic(2)
    assert report.to_dict() == solve(make_composite(fresh, make_imq(11)), pib_source=pib,
                                     box_radius=4).to_dict()


def test_norm_unit_y1_brute_force(octic_L, fam1):
    for L, tail in ((octic_L, (1, 0, 0)), (octic_L, (2, -1, 0)),
                    (fam1, (1, 1, 0)), (fam1, (0, 0, 0))):
        got = solve_norm_unit_y1(L, tail)
        brute = tuple(t for t in range(-60, 61)
                      if abs(L.element_norm((t, *tail))) == 1)
        assert got == brute


@pytest.mark.parametrize("base, d, regime, candidates, verdict, completeness", [
    ("octic", 1, "NONRES_D1", 506, "MONOGENIC", "BOX_LIMITED"),
    ("octic", 2, "NONRES_DGT1", 23, "NOT_MONOGENIC", "BOX_LIMITED"),
    ("octic", 3, "RES_D3", 207, "INCONCLUSIVE", "BOX_LIMITED"),
    ("octic", 7, "RES_DGT3", 23, "NOT_MONOGENIC", "BOX_LIMITED"),
    ("fam2", 3, "RES_D3", 173, "INCONCLUSIVE", "BOX_LIMITED"),
    ("fam2", 7, "RES_DGT3", 55, "NOT_MONOGENIC", "BOX_LIMITED"),
    ("quadratic", 1, "NONRES_D1", 15, "MONOGENIC", "COMPLETE"),
    ("quadratic", 3, "RES_D3", 11, "INCONCLUSIVE", "BOX_LIMITED"),
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
    assert r.completeness == "BOX_LIMITED"  # the zero sweep finds subfield vectors


def test_composite_degree_without_zeros_in_box_is_box_limited():
    # the subfield line (3, 21, -2) of L_20 lies outside the box
    L = make_simplest_quartic(20)
    r = solve(make_composite(L, make_imq(7)), pib_source=olajos_generators(20),
              box_radius=5, collect_traces=False)
    assert L.zero_index_vectors(5) == ()
    assert r.completeness == "BOX_LIMITED"
    assert not any("forcing the zero vector" in a for a in r.assumptions)


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


def test_report_dict_shape(K_octic):
    r = solve(K_octic, box_radius=6)
    d = r.to_dict()
    for key in ("verdict", "completeness", "regime", "d", "bounds",
                "generators", "assumptions", "candidates_tested", "candidates"):
        assert key in d
    assert d["bounds"]["e"] == 6
    r2 = solve(K_octic, box_radius=6, collect_traces=False)
    assert "candidates" not in r2.to_dict()


def test_rejection_reasons(K_octic):
    r = solve(K_octic, box_radius=6)
    reasons = {t.reason for t in r.traces if not t.accepted}
    assert reasons <= {"eq1 != +-1", "eq2 != +-1", "F != +-1"}
    assert "eq1 != +-1" in reasons
