"""The cyclic quartic family L_a = Q(xi), xi a root of x^4 - ax^3 - 6x^2 + ax + 1.

The defining polynomial has discriminant 4(a^2 + 16)^3 and four real roots
for every a >= 1, a != 3.  When a^2 + 16 has no odd square factor, an
integral basis and the field discriminant depend only on v_2(a); the four
cases are tabulated in _BASIS_BY_V2.  Power integral bases of L_a exist
only for a = 2 and a = 4, with the known complete generator lists embedded
below, so composite fields built on this family can be solved with an
explicit, assumed-complete generator table instead of a box sweep.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction

from .composite import CompositeField, make_composite
from .errors import ValidationError
from .imquad import make_imq
from .intutil import is_squarefree, odd_square_free, v2
from .numberfield import NumberField, make_field, validate_box_radius
from .solver import solve

# Generators of power integral bases, as coordinates (x, y, z) in the
# non-constant integral basis elements; complete up to sign and translation.
# The family admits none for any other parameter value.
OLAJOS_A2 = (
    (4, 2, -1), (-13, -9, 4), (-2, 1, 0), (1, 1, 0), (-8, -3, 2),
    (-12, -4, 3), (0, -4, 1), (6, 5, -2), (-1, 1, 0), (0, 1, 0),
)
OLAJOS_A4 = (
    (3, 2, -1), (-2, -2, 1), (4, 8, -3), (-6, -7, 3), (0, 3, -1), (1, 3, -1),
)

_H = Fraction(1, 2)
_Q = Fraction(1, 4)
_BASIS_BY_V2 = {
    0: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (_H, 0, 0, _H)),
    1: ((1, 0, 0, 0), (0, 1, 0, 0), (_H, 0, _H, 0), (0, _H, 0, _H)),
    2: ((1, 0, 0, 0), (0, 1, 0, 0), (_H, 0, _H, 0), (_Q, _Q, _Q, _Q)),
    3: ((1, 0, 0, 0), (0, 1, 0, 0), (_Q, _H, -_Q, 0), (_Q, _Q, _Q, _Q)),
}
_DISC_DIV_BY_V2 = {0: 1, 1: 4, 2: 16, 3: 64}


def family_poly_coeffs(a: int) -> list[int]:
    """Coefficients of x^4 - ax^3 - 6x^2 + ax + 1, constant term first."""
    return [1, a, -6, -a, 1]


def validate_parameter(a) -> int:
    if not isinstance(a, int) or isinstance(a, bool):
        raise ValidationError("family parameter a must be an integer")
    if a < 1:
        raise ValidationError("family parameter a must be positive")
    if a == 3:
        raise ValidationError("a = 3 is excluded: the defining polynomial is reducible")
    if not odd_square_free(a * a + 16):
        raise ValidationError(
            f"a = {a} is not supported: a^2 + 16 = {a * a + 16} has an odd square factor"
        )
    return a


def family_discriminant(a: int) -> int:
    k = min(v2(a), 3) if a % 2 == 0 else 0
    return (a * a + 16) ** 3 // _DISC_DIV_BY_V2[k]


def make_simplest_quartic(a: int) -> NumberField:
    """Field of the family member at parameter a, with full construction checks."""
    validate_parameter(a)
    k = min(v2(a), 3) if a % 2 == 0 else 0
    return make_field(
        family_poly_coeffs(a),
        _BASIS_BY_V2[k],
        expected_disc=family_discriminant(a),
    )


def olajos_generators(a: int) -> tuple[tuple[int, int, int], ...]:
    """Complete generator table for power integral bases of the family field.

    Empty for every parameter except 2 and 4: those fields are the only
    monogenic members of the family.
    """
    validate_parameter(a)
    if a == 2:
        return OLAJOS_A2
    if a == 4:
        return OLAJOS_A4
    return ()


# -- composite grid verification -------------------------------------------------


def _cell_skip_reason(L: NumberField, d: int) -> str | None:
    if not is_squarefree(d):
        return "d is not squarefree"
    if d == 3:
        return "ramified case d = 3: handled separately by d3_partial_search"
    m_disc = -d if d % 4 == 3 else -4 * d
    g = math.gcd(L.disc, abs(m_disc))
    if g != 1:
        return f"discriminants not coprime: gcd(D_L, D_M) = {g}"
    return None


def _solve_a_group(args) -> tuple[int, list[dict], float]:
    a, d_values, box_radius = args
    t0 = time.monotonic()
    rows: list[dict] = []
    try:
        L = make_simplest_quartic(a)
    except ValidationError as exc:
        for d in d_values:
            rows.append({"a": a, "d": d, "status": "SKIPPED", "reason": str(exc)})
        return a, rows, time.monotonic() - t0
    pib = olajos_generators(a)
    for d in d_values:
        reason = _cell_skip_reason(L, d)
        if reason is not None:
            rows.append({"a": a, "d": d, "status": "SKIPPED", "reason": reason})
            continue
        K = make_composite(L, make_imq(d))
        report = solve(K, pib_source=pib, box_radius=box_radius, collect_traces=False)
        rows.append({
            "a": a,
            "d": d,
            "status": "OK",
            "regime": report.regime,
            "verdict": report.verdict,
            "completeness": report.completeness,
            "generators": [g.to_dict() for g in report.generators],
            "candidates_tested": report.candidates_tested,
        })
    return a, rows, time.monotonic() - t0


# the most cells (a_max * d_max) a grid may hold, a fixed constant like
# MAX_BOX_VECTORS: 10^5 cells at box 2 took 1-3 s and about 45 MB, and every
# d stays far below 10^18, where a squarefree test could be undecided
MAX_GRID_CELLS = 10**5


def verify_theorem_cq(a_max: int = 20, d_max: int = 30, box_radius: int = 20,
                      jobs: int = 1, progress=None) -> dict:
    """Solve the composite field for every a <= a_max and squarefree d <= d_max.

    Cells with invalid a, non-squarefree d, shared discriminant factors, or
    d = 3 are skipped with a reason.  Any MONOGENIC cell is reported as a
    counterexample; the expected outcome is NOT_MONOGENIC everywhere.  A
    grid of more than ``MAX_GRID_CELLS`` cells is refused before any field
    is built.  ``progress``, if given, receives one line per finished a-group.
    """
    for name, val in (("a_max", a_max), ("d_max", d_max), ("jobs", jobs),
                      ("box_radius", box_radius)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise ValidationError(f"{name} must be a positive integer")
    if a_max * d_max > MAX_GRID_CELLS:
        raise ValidationError(f"a_max * d_max = {a_max * d_max} cells is above the grid limit "
                              f"of {MAX_GRID_CELLS}")
    validate_box_radius(box_radius, 4)
    d_values = list(range(1, d_max + 1))
    tasks = [(a, d_values, box_radius) for a in range(1, a_max + 1)]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing  # here, so serial callers skip loading the pool (about 0.8 MB RSS)
        with multiprocessing.Pool(min(jobs, len(tasks), os.cpu_count() or 1)) as pool:
            grouped = pool.map(_solve_a_group, tasks)
        if progress is not None:
            for a, rows, secs in sorted(grouped):
                progress(f"a = {a}: {len(rows)} cells in {secs:.1f}s")
    else:
        grouped = []
        for t in tasks:
            grouped.append(_solve_a_group(t))
            if progress is not None:
                a, rows, secs = grouped[-1]
                progress(f"a = {a}: {len(rows)} cells in {secs:.1f}s")
    rows = [row for _, group, _ in sorted(grouped) for row in group]
    ran = [r for r in rows if r["status"] == "OK"]
    verdicts: dict[str, int] = {}
    for r in ran:
        verdicts[r["verdict"]] = verdicts.get(r["verdict"], 0) + 1
    counterexamples = [
        {"a": r["a"], "d": r["d"], "verdict": r["verdict"]}
        for r in ran if r["verdict"] != "NOT_MONOGENIC"
    ]
    return {
        "a_max": a_max,
        "d_max": d_max,
        "box_radius": box_radius,
        "cells": len(rows),
        "ran": len(ran),
        "skipped": len(rows) - len(ran),
        "verdicts": verdicts,
        "counterexamples": counterexamples,
        "all_not_monogenic": not counterexamples and bool(ran),
        "rows": rows,
    }


def d3_partial_search(a: int, box_radius: int = 10) -> dict:
    """Bounded search in the ramified case d = 3 (never conclusive beyond the box).

    The y part has index at most 2, and its units of index 2 are swept only
    inside the coordinate box, so the report stays BOX_LIMITED and a negative
    search is INCONCLUSIVE rather than NOT_MONOGENIC.
    """
    validate_box_radius(box_radius, 4)
    L = make_simplest_quartic(a)
    K = make_composite(L, make_imq(3))
    report = solve(K, pib_source=olajos_generators(a), box_radius=box_radius)
    out = report.to_dict()
    out["a"] = a
    out["box_radius"] = box_radius
    return out
