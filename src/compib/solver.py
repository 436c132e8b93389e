"""Bound reduction and case procedure for power integral bases of K = L*M.

Any generator of a power integral basis must satisfy the two index-form
bounds of the composite construction:

    -d = 2, 3 (mod 4):  |I_L(x)| <= 1          and |I_L(y)| <= (1/sqrt(d))^e
    -d = 1     (mod 4): |I_L(2x+y)| <= 2^e      and |I_L(y)| <= (2/sqrt(d))^e

with e = n(n-1)/2.  The right-hand side of the y-bound drops below 1 for
every d except 1 and 3, which splits the search into four regimes:

  NONRES_D1    d = 1:     x- and y-parts are 0 or index-form units.
  NONRES_DGT1  d >= 2:    y-part index form vanishes; x-part as above.
  RES_D3       d = 3:     bounded box search over z = 2x + y and y.
  RES_DGT3     d >= 7:    y-part index form vanishes; z = 2x + y reduces
                          to an index-form unit condition on x.

A vanishing index form means the element lies in a proper subfield; for
prime n that forces the zero vector, while for composite n the nonzero
solutions are swept inside the coordinate box and reported as a
completeness caveat.  Candidates surviving the case analysis are tested
through the exact factor chain (eq1, eq2, F) and the exact index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .composite import CompositeField
from .errors import InternalInvariantError, ValidationError
from .intervals import int_combination
from .intutil import floor_sqrt_fraction, is_prime
from .numberfield import NumberField
from .polynomials import Poly

NONRES_D1 = "NONRES_D1"
NONRES_DGT1 = "NONRES_DGT1"
RES_D3 = "RES_D3"
RES_DGT3 = "RES_DGT3"

MONOGENIC = "MONOGENIC"
NOT_MONOGENIC = "NOT_MONOGENIC"
INCONCLUSIVE = "INCONCLUSIVE"

COMPLETE = "COMPLETE"
BOX_LIMITED = "BOX_LIMITED"


def regime_of(K: CompositeField) -> str:
    if K.M.residue:
        return RES_D3 if K.M.d == 3 else RES_DGT3
    return NONRES_D1 if K.M.d == 1 else NONRES_DGT1


@dataclass(frozen=True)
class BoundsRecord:
    """Exact content of the two index-form bounds for one composite field."""

    regime: str
    d: int
    e: int
    bound_main: int          # RHS of the x-bound (d = 2,3 mod 4) or z-bound
    bound_y_sq: Fraction     # exact square of the RHS of the y-bound
    bound_y_floor: int
    forces_zero_y: bool

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "d": self.d,
            "e": self.e,
            "bound_main": self.bound_main,
            "bound_y_squared": str(self.bound_y_sq),
            "bound_y_floor": self.bound_y_floor,
            "forces_zero_y": self.forces_zero_y,
        }


def theorem_main_bounds(K: CompositeField) -> BoundsRecord:
    n, d = K.n, K.M.d
    e = n * (n - 1) // 2
    regime = regime_of(K)
    if K.M.residue:
        bound_main = 2**e
        bound_y_sq = Fraction(4, d) ** e
    else:
        bound_main = 1
        bound_y_sq = Fraction(1, d**e)
    return BoundsRecord(
        regime=regime,
        d=d,
        e=e,
        bound_main=bound_main,
        bound_y_sq=bound_y_sq,
        bound_y_floor=floor_sqrt_fraction(bound_y_sq),
        forces_zero_y=bound_y_sq < 1,
    )


def bounds_hold(K: CompositeField, xs, ys) -> dict[str, bool]:
    """Check the two bounds on explicit coordinates (exact arithmetic)."""
    xs, ys = K._check_coords(xs, ys)
    b = theorem_main_bounds(K)
    L = K.L
    iy = L.element_index(ys[1:])
    out = {}
    if K.M.residue:
        z = tuple(2 * x + y for x, y in zip(xs[1:], ys[1:]))
        out["p3"] = L.element_index(z) <= b.bound_main
        out["p4"] = Fraction(iy * iy) <= b.bound_y_sq
    else:
        out["p1"] = L.element_index(xs[1:]) <= b.bound_main
        out["p2"] = Fraction(iy * iy) <= b.bound_y_sq
    return out


# -- one-variable solvers ------------------------------------------------------


def solve_norm_unit_y1(L: NumberField, ytail) -> tuple[int, ...]:
    """All integers y1 with N_{L/Q}(y1 + sum ytail[i]*l_{i+2}) = +-1.

    The norm is g(y1) for g the characteristic polynomial of the negated
    tail, and any solution sits within distance 1 of some conjugate of the
    negated tail, so only a few integers near the root enclosures need the
    exact test.  The solutions are memoised on L by y-tail.
    """
    ytail = tuple(ytail)
    if len(ytail) != L.n - 1:
        raise ValidationError(f"expected {L.n - 1} coordinates, got {len(ytail)}")
    hit = L._unit_y1_cache.get(ytail)
    if hit is not None:
        return hit
    neg = (0, *[-y for y in ytail])
    g = L.char_poly(neg)
    if any(c.denominator != 1 for c in g.coeffs):
        raise InternalInvariantError("characteristic polynomial of integral element not integral")
    g = Poly([int(c) for c in g.coeffs])
    prec = 128
    emb = L.embeddings(prec)
    cands: set[int] = set()
    for vals in emb.basis_vals:
        acc = int_combination(vals[1:], neg[1:])
        lo = math.floor(Fraction(acc.lo, 1 << prec) - 1)
        hi = math.ceil(Fraction(acc.hi, 1 << prec) + 1)
        cands.update(range(lo, hi + 1))
    out = L._unit_y1_cache[ytail] = tuple(sorted(t for t in cands if abs(g.evaluate(t)) == 1))
    return out


# -- candidate reporting -------------------------------------------------------


@dataclass
class CandidateTrace:
    xs_tail: tuple[int, ...]
    ys: tuple[int, ...]
    eq1: int | None
    eq2: int | None
    f_value: int | None
    index: int | None
    accepted: bool
    reason: str

    def to_dict(self) -> dict:
        return {
            "x": list(self.xs_tail),
            "y": list(self.ys),
            "eq1": self.eq1,
            "eq2": self.eq2,
            "F": self.f_value,
            "index": self.index,
            "accepted": self.accepted,
            "reason": self.reason,
        }


@dataclass
class Generator:
    xs_tail: tuple[int, ...]
    ys: tuple[int, ...]
    eq1: int
    eq2: int
    f_value: int
    index: int

    def to_dict(self) -> dict:
        return {
            "x": list(self.xs_tail),
            "y": list(self.ys),
            "eq1": self.eq1,
            "eq2": self.eq2,
            "F": self.f_value,
            "index": self.index,
        }


@dataclass
class SolverReport:
    verdict: str
    completeness: str
    regime: str
    d: int
    bounds: BoundsRecord
    generators: list[Generator]
    assumptions: list[str]
    candidates_tested: int
    traces: list[CandidateTrace] | None

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "completeness": self.completeness,
            "regime": self.regime,
            "d": self.d,
            "bounds": self.bounds.to_dict(),
            "generators": [g.to_dict() for g in self.generators],
            "assumptions": list(self.assumptions),
            "candidates_tested": self.candidates_tested,
        }
        if self.traces is not None:
            out["candidates"] = [t.to_dict() for t in self.traces]
        return out


# -- candidate assembly ---------------------------------------------------------


def _canonical_candidate(xs_tail, ys) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sign-orbit representative: first nonzero of (x_2..x_n, y_1..y_n) positive."""
    w = (*xs_tail, *ys)
    lead = next((v for v in w if v != 0), 0)
    if lead < 0:
        return tuple(-v for v in xs_tail), tuple(-v for v in ys)
    return tuple(xs_tail), tuple(ys)


def _signed(vectors) -> list[tuple[int, ...]]:
    out = []
    for v in vectors:
        out.append(tuple(v))
        out.append(tuple(-c for c in v))
    return out


def _validated_pib(L: NumberField, vectors) -> tuple[tuple[int, ...], ...]:
    """Sign-orbit representatives of the supplied generators, each proved to
    have index 1; the table is memoised on L by the input vectors."""
    vectors = tuple(tuple(int(c) for c in v) for v in vectors)
    hit = L._pib_cache.get(vectors)
    if hit is not None:
        return hit
    seen = set()
    for v in vectors:
        if len(v) != L.n - 1:
            raise ValidationError(f"generator vectors need {L.n - 1} coordinates")
        if L.element_index(v) != 1:
            raise ValidationError(f"supplied vector {list(v)} does not generate a power integral basis of L")
        lead = next((c for c in v if c != 0), 0)
        seen.add(tuple(-c for c in v) if lead < 0 else v)
    out = L._pib_cache[vectors] = tuple(sorted(seen))
    return out


def _test_candidate(K: CompositeField, xs_tail, ys) -> CandidateTrace:
    xs = (0, *xs_tail)
    eq1 = K.factor_eq1(xs, ys)
    if eq1 != 1:
        return CandidateTrace(xs_tail, ys, eq1, None, None, None, False, "eq1 != +-1")
    eq2 = K.factor_eq2(ys)
    if abs(eq2) != 1:
        return CandidateTrace(xs_tail, ys, eq1, eq2, None, None, False, "eq2 != +-1")
    f_value = K.factor_F(xs, ys)
    if abs(f_value) != 1:
        return CandidateTrace(xs_tail, ys, eq1, eq2, f_value, None, False, "F != +-1")
    index = K.composite_index(xs, ys)
    if index != 1:
        raise InternalInvariantError("unit factors with nonunit index")
    checks = bounds_hold(K, xs, ys)
    if not all(checks.values()):
        raise InternalInvariantError("generator violates the index-form bounds")
    return CandidateTrace(xs_tail, ys, eq1, eq2, f_value, index, True, "generator")


def solve(K: CompositeField, pib_source="box", box_radius: int = 20,
          collect_traces: bool = True) -> SolverReport:
    """Enumerate generators of power integral bases of K.

    ``pib_source`` is either "box" (sweep the coordinate box for index-1
    elements of L) or an explicit, assumed-complete sequence of coordinate
    vectors (x_2..x_n); an empty sequence asserts L has no power integral
    basis.  The box radius also limits the subfield sweeps and, for d = 3,
    the small-index enumerations; every such limitation is recorded in the
    report's assumptions and completeness fields.
    """
    L = K.L
    n = K.n
    bounds = theorem_main_bounds(K)
    regime = bounds.regime
    radius = int(box_radius)
    if radius < 1:
        raise ValidationError("box radius must be a positive integer")

    assumptions = [
        "x1 is normalized to 0: the index is invariant under rational integer translation",
        "generators are sign-orbit representatives: first nonzero of (x_2..x_n, y_1..y_n) positive",
    ]

    pib_explicit = not (isinstance(pib_source, str) and pib_source == "box")
    if pib_explicit:
        pib = _validated_pib(L, pib_source)
        assumptions.append("the supplied generator list for L is assumed complete")
    else:
        pib = tuple(v for v, _ in L.enumerate_bounded_index(1, radius))
        assumptions.append(
            f"generators of power integral bases of L swept only inside the box |x_i| <= {radius}"
        )

    if is_prime(n):
        zero_idx: tuple[tuple[int, ...], ...] = ()
        assumptions.append("the degree of L is prime: the index form vanishes only at 0")
    else:
        zero_idx = L.zero_index_vectors(radius)
        head = "nonzero index-form zeros found" if zero_idx else "no nonzero index-form zeros"
        assumptions.append(
            f"{head} in the box |x_i| <= {radius}; "
            "subfield candidates beyond the box are not covered"
        )
    if bounds.forces_zero_y:
        assumptions.append("the y-part bound is below 1, forcing the y-part index form to vanish")

    if regime == RES_D3:
        assumptions.append(
            f"elements of index up to {bounds.bound_main} (z-part) and up to "
            f"{bounds.bound_y_floor} (y-part) enumerated only inside the box |x_i| <= {radius}"
        )
    elif regime == RES_DGT3 and zero_idx:
        assumptions.append(
            f"z-part candidates for subfield y-parts swept only inside the box |z_i| <= {radius}"
        )

    # y-parts: 0, the subfield zeros, and the elements allowed by the y-bound
    zero_vec = (0,) * (n - 1)
    if bounds.forces_zero_y:
        y_units: tuple[tuple[int, ...], ...] = ()
    elif regime == RES_D3:
        y_units = tuple(v for v, _ in L.enumerate_bounded_index(bounds.bound_y_floor, radius))
    else:
        y_units = pib
    y_tails = [zero_vec, *_signed(y_units), *_signed(zero_idx)]
    x_units = [zero_vec, *_signed(pib), *_signed(zero_idx)]
    z_pool = None

    # the y-tails are distinct, and L memoises each y1 equation across calls
    candidates: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for ytail in y_tails:
        if not K.M.residue or (regime == RES_DGT3 and ytail == zero_vec):
            # the x-bound itself, or z = 2x: the z-bound collapses to the unit condition on x
            xs_tails = x_units
        else:
            # x = (z - y)/2 over the z-pool, filtered from the field's box table only
            # when needed, so a prime-degree cell with a generator table never sweeps
            if z_pool is None:
                z_pool = [zero_vec, *_signed(v for v, _ in L.enumerate_bounded_index(bounds.bound_main, radius)),
                          *_signed(zero_idx)]
            xs_tails = [tuple((zi - yi) // 2 for zi, yi in zip(z, ytail)) for z in z_pool
                        if not any((zi - yi) % 2 for zi, yi in zip(z, ytail))]
        if xs_tails:
            for y1 in solve_norm_unit_y1(L, ytail):
                for xs_tail in xs_tails:
                    candidates.add(_canonical_candidate(xs_tail, (y1, *ytail)))

    traces = []
    generators = []
    for xs_tail, ys in sorted(candidates):
        trace = _test_candidate(K, xs_tail, ys)
        traces.append(trace)
        if trace.accepted:
            generators.append(Generator(xs_tail, ys, trace.eq1, trace.eq2,
                                        trace.f_value, trace.index))

    # composite n: the zero sweep is box-limited whether or not it found anything
    if regime == RES_D3 or not pib_explicit or not is_prime(n):
        completeness = BOX_LIMITED
    else:
        completeness = COMPLETE

    if generators:
        verdict = MONOGENIC
    elif regime == RES_D3:
        verdict = INCONCLUSIVE
    else:
        verdict = NOT_MONOGENIC

    return SolverReport(
        verdict=verdict,
        completeness=completeness,
        regime=regime,
        d=K.M.d,
        bounds=bounds,
        generators=generators,
        assumptions=assumptions,
        candidates_tested=len(candidates),
        traces=traces if collect_traces else None,
    )
