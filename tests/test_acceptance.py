"""Acceptance suite: one test per shipped guarantee.

Every check here is exact integer or rational arithmetic; there are no
tolerances anywhere.  Each test prints a single summary line so a verbose
run reads as a checklist.
"""

import filecmp
import hashlib
import json
import random
import time
from fractions import Fraction

from compib import (bounds_hold, make_composite, make_imq,
                    make_simplest_quartic, theorem_main_bounds,
                    verify_theorem_cq)
from compib.cli import main
from compib.errors import ValidationError
from compib.intutil import odd_square_free
from compib.numberfield import make_field
from compib.polynomials import Poly, discriminant
from compib.simplest_quartic import (OLAJOS_A2, OLAJOS_A4, d3_partial_search,
                                     family_poly_coeffs, validate_parameter)

from conftest import fraction_det, reference_discriminant

IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _octic_field():
    return make_field((1, -1, -4, 0, 1), IDENTITY4, expected_disc=1957)


def test_criterion_1_octic_example(capsys):
    t0 = time.perf_counter()
    assert main(["check-example5"]) == 0
    elapsed = time.perf_counter() - t0
    capsys.readouterr()

    L = _octic_field()
    assert L.disc == 1957
    K = make_composite(L, make_imq(1))
    cp = K.char_poly((0, 0, 0, 0), (0, 1, 0, 0))
    assert cp.coeffs == (1, 0, 9, 0, 18, 0, 8, 0, 1)
    assert K.composite_index((0, 0, 0, 0), (0, 1, 0, 0)) == 1
    assert bounds_hold(K, (0, 0, 0, 0), (0, 1, 0, 0)) == {
        "p1": True, "p2": True, "real_part": True, "cross_sum": True}
    assert elapsed < 1.0
    print(f"criterion 1: PASS  octic example validated in {elapsed:.3f}s")


def _canonical(v):
    lead = next((c for c in v if c), 0)
    return tuple(-c for c in v) if lead < 0 else tuple(v)


def test_criterion_2_table_regeneration():
    t0 = time.perf_counter()
    fam2 = make_simplest_quartic(2)
    found2 = fam2.enumerate_bounded_index(1, 15)
    assert {v for v, _ in found2} == {_canonical(v) for v in OLAJOS_A2}
    assert len(found2) == 10
    fam4 = make_simplest_quartic(4)
    found4 = fam4.enumerate_bounded_index(1, 10)
    assert {v for v, _ in found4} == {_canonical(v) for v in OLAJOS_A4}
    assert len(found4) == 6
    for L, found in ((fam2, found2), (fam4, found4)):
        for v, idx in found:
            assert idx == 1 and L.element_index(v) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 2: PASS  16 generators regenerated in {elapsed:.2f}s")


GRID_SHA256 = "e3665b2c00fd5d43f487786d601343784ebf4dfd2efd2bd655330d82ceb015a6"
D3_SHA256 = "75bed018634e5dc322f9ad6611f599899184b6b9f131edfb70664588b0f0ca3f"


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()


def test_d3_reports_are_pinned():
    # the refactor guard for d = 3: the 19 members a <= 20 at box 8
    members = [a for a in range(1, 21) if a != 3 and odd_square_free(a * a + 16)]
    assert len(members) == 19
    assert _sha256_json([d3_partial_search(a, 8) for a in members]) == D3_SHA256


def test_criterion_3_grid():
    t0 = time.perf_counter()
    rep = verify_theorem_cq(a_max=20, d_max=30, box_radius=20, jobs=4)
    elapsed = time.perf_counter() - t0
    assert rep["cells"] == 600
    assert rep["ran"] > 0
    ran = [r for r in rep["rows"] if r["status"] == "OK"]
    assert len(ran) == rep["ran"]
    assert all(r["verdict"] == "NOT_MONOGENIC" for r in ran)
    assert rep["counterexamples"] == []
    assert rep["all_not_monogenic"] is True
    # the refactor guard: the north-star grid's JSON is byte-identical
    assert _sha256_json(rep) == GRID_SHA256
    assert elapsed < 600.0
    print(f"criterion 3: PASS  {rep['ran']} cells all NOT_MONOGENIC"
          f" in {elapsed:.1f}s")


def test_criterion_4_factorization_identity():
    pairs = [
        (_octic_field(), 1),
        (make_simplest_quartic(1), 2),
        (make_simplest_quartic(2), 7),
        (make_simplest_quartic(4), 7),
        (make_simplest_quartic(5), 13),
        (make_simplest_quartic(7), 3),
    ]
    rng = random.Random(20260816)
    total = 0
    for L, d in pairs:
        K = make_composite(L, make_imq(d))
        for _ in range(167):
            xs = (0,) + tuple(rng.randint(-4, 4) for _ in range(3))
            ys = tuple(rng.randint(-4, 4) for _ in range(4))
            fac = K.factorization(xs, ys)
            assert fac["eq1"] >= 0
            assert fac["index"] == fac["eq1"] * abs(fac["eq2"]) * abs(fac["F"])
            # interval-certified route against the Sylvester discriminant reference
            assert reference_discriminant(K.char_poly(xs, ys)) == fac["index"] ** 2 * K.disc
            total += 1
    assert total >= 1000 and len(pairs) >= 5
    print(f"criterion 4: PASS  {total} elements across {len(pairs)} fields")


def test_criterion_5_family_discriminants():
    checked = 0
    for a in range(1, 51):
        try:
            validate_parameter(a)
        except ValidationError:
            continue
        f = Poly(family_poly_coeffs(a))
        assert discriminant(f) == 4 * (a * a + 16) ** 3
        L = make_simplest_quartic(a)
        det = fraction_det(L.basis)
        assert det * det * discriminant(L.f) == L.disc
        checked += 1
    assert checked >= 40
    print(f"criterion 5: PASS  discriminant laws hold for {checked} parameters")


def test_criterion_6_index_form_laws():
    fields = (make_simplest_quartic(1), make_simplest_quartic(2))
    rng = random.Random(616)
    n_disc = n_hom = n_trans = 0
    for k in range(520):
        L = fields[k % 2]
        v = tuple(rng.randint(-5, 5) for _ in range(3))
        idx = L.element_index(v)

        d_alpha = discriminant(L.char_poly((0, *v)))
        assert d_alpha == idx * idx * L.disc
        n_disc += 1

        lam = rng.choice((2, 3, 4))
        scaled = tuple(lam * c for c in v)
        assert L.element_index(scaled) == lam**6 * idx
        n_hom += 1

        c = rng.randint(-3, 3)
        assert discriminant(L.char_poly((c, *v))) == d_alpha
        n_trans += 1
    assert min(n_disc, n_hom, n_trans) >= 500
    print(f"criterion 6: PASS  three index laws on {n_disc} vectors each")


def test_criterion_7_bound_values():
    fam1 = make_simplest_quartic(1)
    b3 = theorem_main_bounds(make_composite(fam1, make_imq(3)))
    assert b3.bound_main == 64
    assert b3.bound_y_sq == Fraction(4096, 729)
    assert b3.bound_y_floor == 2
    assert not b3.forces_zero_y

    b7 = theorem_main_bounds(make_composite(fam1, make_imq(7)))
    assert b7.bound_y_sq == Fraction(4096, 117649)
    assert b7.bound_y_sq == Fraction(64, 343) ** 2
    assert b7.bound_y_floor == 0
    assert b7.forces_zero_y
    print("criterion 7: PASS  d=3 bounds are 64 and 2; d=7 forces a zero y-part")


def test_criterion_8_deterministic_output(tmp_path, capsys):
    runs = [
        ["solve", "--a", "2", "--d", "7", "--box", "8"],
        ["d3-search", "--a", "1", "--box", "4"],
        ["field-info", "--a", "2"],
        ["check-example5"],
        ["verify-cq", "--a-max", "2", "--d-max", "6", "--box", "6"],
    ]
    for i, argv in enumerate(runs):
        p1 = tmp_path / f"r{i}_1.json"
        p2 = tmp_path / f"r{i}_2.json"
        assert main(argv + ["--json", str(p1)]) == 0
        assert main(argv + ["--json", str(p2)]) == 0
        assert filecmp.cmp(p1, p2, shallow=False), argv

    pj1 = tmp_path / "jobs1.json"
    pj2 = tmp_path / "jobs2.json"
    base = ["verify-cq", "--a-max", "3", "--d-max", "6", "--box", "6"]
    assert main(base + ["--jobs", "1", "--json", str(pj1)]) == 0
    assert main(base + ["--jobs", "2", "--json", str(pj2)]) == 0
    assert filecmp.cmp(pj1, pj2, shallow=False)
    capsys.readouterr()
    print("criterion 8: PASS  byte-identical JSON across reruns and job counts")
