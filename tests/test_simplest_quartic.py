import itertools
import json
import math
import multiprocessing

import pytest
import sympy

from compib import simplest_quartic
from compib.errors import ValidationError
from compib.intutil import odd_square_free
from compib.numberfield import validate_box_radius
from compib.polynomials import Poly, discriminant, isolate_real_roots
from compib.simplest_quartic import (OLAJOS_A2, OLAJOS_A4, d3_partial_search,
                                     family_discriminant, family_poly_coeffs,
                                     make_simplest_quartic, olajos_generators,
                                     verify_theorem_cq)

from conftest import canonical_box, fraction_det


def test_parameter_validation():
    for bad in (3, 22, 0, -5, "2", 2.0):
        with pytest.raises(ValidationError):
            make_simplest_quartic(bad)
    for bad in (3, 22):
        with pytest.raises(ValidationError):
            olajos_generators(bad)


def test_known_discriminants():
    for a, dl in ((1, 17**3), (2, 2000), (4, 2048), (5, 41**3), (7, 65**3), (8, 8000)):
        assert family_discriminant(a) == dl
        assert make_simplest_quartic(a).disc == dl


def test_poly_discriminant_law():
    for a in (1, 2, 4, 5, 6, 7):
        f = Poly(family_poly_coeffs(a))
        assert discriminant(f) == 4 * (a * a + 16) ** 3
        assert len(isolate_real_roots(f)) == 4


def test_basis_determinant_law():
    # det(B)^2 * disc(f) = D_L for every constructed field
    for a in (1, 2, 4, 5, 6, 8, 16):
        L = make_simplest_quartic(a)
        det = fraction_det(L.basis)
        assert det * det * discriminant(L.f) == L.disc


def test_generator_tables():
    g2 = olajos_generators(2)
    assert len(g2) == 10 and g2 == OLAJOS_A2
    assert (4, 2, -1) in g2 and (0, 1, 0) in g2
    g4 = olajos_generators(4)
    assert len(g4) == 6 and g4 == OLAJOS_A4
    assert (3, 2, -1) in g4
    assert olajos_generators(5) == ()
    assert olajos_generators(1) == ()


def test_tables_have_index_one(fam2, fam4):
    for L, table in ((fam2, OLAJOS_A2), (fam4, OLAJOS_A4)):
        for v in table:
            assert L.element_index(v) == 1


def _canonical(v):
    lead = next((c for c in v if c), 0)
    return tuple(-c for c in v) if lead < 0 else tuple(v)


def test_box_search_regenerates_tables(fam2, fam4):
    got = {v for v, _ in fam2.enumerate_bounded_index(1, 15)}
    assert got == {_canonical(v) for v in OLAJOS_A2}
    got = {v for v, _ in fam4.enumerate_bounded_index(1, 10)}
    assert got == {_canonical(v) for v in OLAJOS_A4}


def test_other_parameters_have_no_generators_in_box(fam1):
    assert fam1.enumerate_bounded_index(1, 10) == ()
    L6 = make_simplest_quartic(6)
    assert L6.enumerate_bounded_index(1, 10) == ()


def _numeric_index_oracle(a, radius, bound):
    """Box vectors with 0 <= index <= bound, as (xs, index), via 60-digit numerics.

    Fully independent route: sympy nroots for the conjugates, the index-form
    product formula evaluated in mpmath, rounded to the nearest integer.
    True values are integers and the precision is far beyond the rounding
    gap, so the count is exact.
    """
    import mpmath

    mpmath.mp.dps = 60
    x = sympy.Symbol("x")
    f = sympy.Poly(sum(c * x**j for j, c in enumerate(family_poly_coeffs(a))), x)
    roots = [mpmath.mpf(str(r)) for r in f.nroots(n=60, maxsteps=200)]
    L = make_simplest_quartic(a)
    basis_vals = [
        [sum(mpmath.mpf(str(c)) * r**j for j, c in enumerate(row)) for row in L.basis]
        for r in roots
    ]
    sqrt_disc = mpmath.sqrt(L.disc)
    hits = []
    rng = range(-radius, radius + 1)
    for vec in itertools.product(rng, repeat=3):
        lead = next((c for c in vec if c), 0)
        if lead <= 0:
            continue
        prod = mpmath.mpf(1)
        for j1, j2 in itertools.combinations(range(4), 2):
            prod *= sum(vec[k] * (basis_vals[j1][k + 1] - basis_vals[j2][k + 1])
                        for k in range(3))
        val = abs(prod) / sqrt_disc
        k = int(mpmath.nint(val))
        assert abs(val - k) < mpmath.mpf("1e-30")
        if k <= bound:
            hits.append((vec, k))
    return hits


def test_index_limit_is_two_for_the_family(octic_L):
    # max(1, floor(2^6 / sqrt(D_L)), floor((4/3)^3)): D_L > 4096 except at a = 2, 4,
    # where 2^6 / sqrt(D_L) is below 2, so the d = 3 y-part floor 2 is the largest;
    # the same holds for the octic example's base field, D_L = 1957
    assert octic_L._index_limit == 2
    for a in range(1, 21):
        if a != 3 and odd_square_free(a * a + 16):
            assert make_simplest_quartic(a)._index_limit == 2


def test_bounded_enumeration_against_numeric_oracle(fam1):
    limit = fam1._index_limit
    oracle = _numeric_index_oracle(1, 5, limit)
    assert fam1.zero_index_vectors(5) == tuple(sorted(v for v, k in oracle if k == 0))
    for bound in range(1, limit + 1):
        got = fam1.enumerate_bounded_index(bound, 5)
        assert got == tuple(sorted((v, k) for v, k in oracle if 1 <= k <= bound))
    with pytest.raises(ValidationError, match="exceeds the limit"):
        fam1.enumerate_bounded_index(limit + 1, 5)


def test_one_sweep_serves_every_query(monkeypatch):
    L = make_simplest_quartic(1)
    box = list(canonical_box(L.n, 3))
    assert len(box) == 171          # (7^3 - 1) / 2 canonical vectors
    small = [xs for xs in box if L.element_index(xs) <= L._index_limit]
    calls = []
    index = L.element_index

    def counted(xs):
        calls.append(xs)
        return index(xs)

    monkeypatch.setattr(L, "element_index", counted)
    L.zero_index_vectors(3)
    L.enumerate_bounded_index(L._index_limit, 3)
    L.enumerate_bounded_index(1, 3)
    with pytest.raises(ValidationError, match="exceeds the limit"):
        L.enumerate_bounded_index(L._index_limit + 1, 3)
    # one pass over the box: the interval step excludes every vector above the
    # limit, and each of the others is confirmed exactly once (the radius-3 box
    # has no small-index vector that is not primitive, so none is left out)
    assert calls == small


def test_box_bound_checked_before_any_field(monkeypatch):
    # (273^3 - 1)/2 = 10,173,208 vectors at radius 136 is over the sweep
    # limit; no family member is built before the refusal
    def refuse(a):
        raise AssertionError("field built before the box check")

    monkeypatch.setattr(simplest_quartic, "make_simplest_quartic", refuse)
    for run in (lambda: verify_theorem_cq(1, 1, 136), lambda: d3_partial_search(1, 136)):
        with pytest.raises(ValidationError, match="10173208 vectors"):
            run()
    validate_box_radius(135, 4)


def test_grid_small():
    rep = verify_theorem_cq(a_max=2, d_max=7, box_radius=8, jobs=1)
    by_cell = {(r["a"], r["d"]): r for r in rep["rows"]}
    assert rep["cells"] == 14
    assert by_cell[(2, 1)]["status"] == "SKIPPED"
    assert "not coprime" in by_cell[(2, 1)]["reason"]
    assert by_cell[(1, 3)]["status"] == "SKIPPED"
    assert "d3_partial_search" in by_cell[(1, 3)]["reason"]
    assert by_cell[(1, 4)]["reason"] == "d is not squarefree"
    ran = [r for r in rep["rows"] if r["status"] == "OK"]
    assert ran and all(r["verdict"] == "NOT_MONOGENIC" for r in ran)
    assert rep["all_not_monogenic"] and rep["counterexamples"] == []
    assert all("ms" not in r for r in ran)


def test_grid_parallel_matches_serial():
    serial = verify_theorem_cq(a_max=5, d_max=6, box_radius=6, jobs=1)
    parallel = verify_theorem_cq(a_max=5, d_max=6, box_radius=6, jobs=3)
    assert serial == parallel


def test_grid_json_identical_across_jobs():
    # the report is byte for byte the same whether the a-groups run in one
    # process or in a pool of two workers
    dumps = [json.dumps(verify_theorem_cq(a_max=4, d_max=10, box_radius=3, jobs=jobs), sort_keys=True)
             for jobs in (1, 2)]
    assert dumps[0] == dumps[1]


def test_grid_pool_clamped_to_cpu_count(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(simplest_quartic.os, "cpu_count", lambda: 2)
    rep = verify_theorem_cq(a_max=3, d_max=2, box_radius=2, jobs=64)
    assert sizes == [2]
    assert rep == verify_theorem_cq(a_max=3, d_max=2, box_radius=2, jobs=1)


def test_grid_validation():
    with pytest.raises(ValidationError):
        verify_theorem_cq(a_max=0)
    with pytest.raises(ValidationError):
        verify_theorem_cq(jobs=0)
    with pytest.raises(ValidationError):
        verify_theorem_cq(a_max=1, d_max=1, box_radius=0)


def test_grid_refuses_undecidable_parameters(monkeypatch):
    # d >= 10^18 or a > 10^9 could leave a squarefree test undecided
    monkeypatch.setattr(simplest_quartic, "make_simplest_quartic", lambda a: 1 / 0)
    for a_max, d_max in ((1, 10**18), (10**9 + 1, 1)):
        with pytest.raises(ValidationError, match="below 10\\^18"):
            verify_theorem_cq(a_max=a_max, d_max=d_max, box_radius=2)


def test_d3_partial_search(fam1):
    rep = d3_partial_search(1, box_radius=5)
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["completeness"] == "BOX_LIMITED"
    assert rep["regime"] == "RES_D3"
    assert rep["a"] == 1 and rep["box_radius"] == 5
    with pytest.raises(ValidationError):
        d3_partial_search(3)


def test_d3_search_validates_before_any_field_build(monkeypatch):
    builds = []
    monkeypatch.setattr(simplest_quartic, "make_field", lambda *a, **k: builds.append(a))
    for bad in (0, -2, 2.5, 2.0, "3", True):
        with pytest.raises(ValidationError, match="box radius"):
            d3_partial_search(1, box_radius=bad)
    assert builds == []


def test_grid_rejects_bool_arguments():
    for kw in ({"a_max": True}, {"d_max": True}, {"jobs": True}, {"box_radius": True}):
        with pytest.raises(ValidationError, match="must be a positive integer"):
            verify_theorem_cq(**{"a_max": 1, "d_max": 1, "box_radius": 2, **kw})


def test_invalid_parameter_gives_skip_rows():
    rep = verify_theorem_cq(a_max=3, d_max=2, box_radius=5)
    rows3 = [r for r in rep["rows"] if r["a"] == 3]
    assert len(rows3) == 2
    assert all(r["status"] == "SKIPPED" and "excluded" in r["reason"] for r in rows3)
