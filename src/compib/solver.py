"""Bound reduction and case procedure for power integral bases of K = L*M.

Write a candidate generator as alpha = x + omega*y with x, y in Z_L, let
y_1..y_n be the conjugates of y under the real embeddings of L, and put
e = n(n-1)/2, u = Re(omega) and v^2 = Im(omega)^2 (d, or d/4 when
-d = 1 mod 4).  The index factors as eq1 * |eq2| * |F| (see ``composite``),
with eq2 = N(y) and

    eq1 * D_L = prod_{i<j} [(dx_ij + u*dy_ij)^2 + v^2 * dy_ij^2]
    |F|       = prod_{i<j} [(dx_ij + u*dy_ij)^2 + v^2 * (y_i + y_j)^2]

for dx_ij = x_i - x_j and dy_ij = y_i - y_j.  A generator has all three
factors equal to 1, and since L is totally real each bracket is at least
each of its two squares.  From eq1 come the paper's two bounds,

    -d = 2, 3 (mod 4):  |I_L(x)| <= 1          and |I_L(y)| <= (1/sqrt(d))^e
    -d = 1     (mod 4): |I_L(2x+y)| <= 2^e      and |I_L(y)| <= (2/sqrt(d))^e

and from F two more, with z = 2x + y and the rational integer
P(y) = prod_{i<j} (y_i + y_j):

    real-part bound:  I_L(x)^2 * D_L <= 1,  or  I_L(z)^2 * D_L <= 4^e
    cross-sum bound:  P(y)^2 <= v^(-2e), the square of the y-bound's right side

The y-bound drops below 1 for every d except 1 and 3, and then both
I_L(y) and P(y) vanish.

Theorem.  If d is not 1 or 3 and n has no proper divisor that is even and
at least 4, K has no power integral basis.

Proof.  Let alpha be a generator.  Then I_L(y) = 0, P(y) = 0 and
N(y) = +-1.  Let m be the minimal polynomial of y and s its degree; s is a
proper divisor of n, because I_L(y) = 0 says y generates a proper subfield.
P(y) = 0 gives i != j with y_i = -y_j, so m(t) and m(-t) share the root
y_j; both are irreducible, hence m(-t) = (-1)^s m(t).  For odd s this
forces m(0) = 0 and y = 0, against N(y) = +-1.  So s is even and
m(t) = h(t^2).  For s = 2, m = t^2 - c with -c = N_{Q(y)/Q}(y) = +-1: c = 1
makes y rational and c = -1 makes it non-real.  So s >= 4 is an even
proper divisor of n.  QED

This covers every prime n and every n <= 7, so every quartic cell with d
not 1 or 3 is NOT_MONOGENIC and COMPLETE without a box, a candidate or a
generator table.  Every other cell, in any regime, takes one pipeline:

  x-part (z = 2x + y for residue d): 0, the subfield zeros and the box
      vectors of index 1 to the floor of the real-part bound;
  y-part: 0, the subfield zeros, and the generators of L when the y-bound's
      floor is 1, or the box vectors of index 1 to that floor when it is at
      least 2 (d = 3 with n >= 4); every y must pass the cross-sum bound.

A vanishing index form means the element lies in a proper subfield, which
for prime n forces the zero vector; for composite n the subfield zeros are
swept inside the box.  Candidates are tested through the exact factors
(eq1, eq2, F) and the exact index.  The report is BOX_LIMITED when a pool
came from the box: pib_source="box", composite n, a real-part floor of at
least 1, or a y-floor of at least 2; with no generator found, a y-floor of
at least 2 makes it INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .composite import CompositeField
from .errors import InternalInvariantError, ValidationError
from .intervals import escalate, int_combination
from .intutil import floor_sqrt_fraction, is_prime
from .numberfield import NumberField, check_int_coords, validate_box_radius

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
    """Exact content of the index-form bounds for one composite field."""

    regime: str
    d: int
    e: int
    bound_main: int          # RHS of the x-bound (d = 2,3 mod 4) or z-bound
    bound_y_sq: Fraction     # exact square of the RHS of the y-bound; bounds P(y)^2 too
    bound_y_floor: int
    forces_zero_y: bool
    bound_real_sq: Fraction  # real-part bound: I_L(x)^2, or I_L(2x+y)^2, is at most this
    bound_real_floor: int

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "d": self.d,
            "e": self.e,
            "bound_main": self.bound_main,
            "bound_y_squared": str(self.bound_y_sq),
            "bound_y_floor": self.bound_y_floor,
            "forces_zero_y": self.forces_zero_y,
            "bound_real_squared": str(self.bound_real_sq),
            "bound_real_floor": self.bound_real_floor,
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
    bound_real_sq = Fraction(bound_main**2, K.L.disc)
    return BoundsRecord(
        regime=regime,
        d=d,
        e=e,
        bound_main=bound_main,
        bound_y_sq=bound_y_sq,
        bound_y_floor=floor_sqrt_fraction(bound_y_sq),
        forces_zero_y=bound_y_sq < 1,
        bound_real_sq=bound_real_sq,
        bound_real_floor=floor_sqrt_fraction(bound_real_sq),
    )


def _f_bounds_text(b: BoundsRecord) -> str:
    real = "I_L(2x+y)" if b.regime.startswith("RES") else "I_L(x)"
    return (f"the bounds from |F| = 1: {real}^2 <= {b.bound_real_sq} (real part) "
            f"and P(y)^2 <= {b.bound_y_sq} (cross sum)")


def _has_even_proper_divisor(n: int) -> bool:
    """Whether n has a proper divisor that is even and at least 4."""
    return any(n % k == 0 for k in range(4, n, 2))


def bounds_hold(K: CompositeField, xs, ys) -> dict[str, bool]:
    """Check the four bounds on explicit coordinates (exact arithmetic).

    p1/p2 (or p3/p4 in the residue case) are the paper's x- (or z-) and
    y-bounds; real_part and cross_sum are the two bounds from F.
    """
    xs, ys = K._check_coords(xs, ys)
    b = theorem_main_bounds(K)
    L = K.L
    iy = L.element_index(ys[1:])
    if K.M.residue:
        real = L.element_index(tuple(2 * x + y for x, y in zip(xs[1:], ys[1:])))
        out = {"p3": real <= b.bound_main, "p4": iy * iy <= b.bound_y_sq}
    else:
        real = L.element_index(xs[1:])
        out = {"p1": real <= b.bound_main, "p2": iy * iy <= b.bound_y_sq}
    out["real_part"] = real * real <= b.bound_real_sq
    out["cross_sum"] = L.cross_sum_square(ys) <= b.bound_y_sq
    return out


# -- one-variable solvers ------------------------------------------------------


def solve_norm_unit_y1(L: NumberField, ytail) -> tuple[int, ...]:
    """All integers y1 with N_{L/Q}(y1 + sum ytail[i]*l_{i+2}) = +-1.

    The norm is g(y1) for g the characteristic polynomial of the negated
    tail, and any solution sits within distance 1 of some conjugate of the
    negated tail, so only the integers within 1 of the conjugates'
    enclosures need the exact test.  The enclosures climb the ladder of
    ``intervals.escalate`` until each is narrower than 1.  The solutions are
    memoised on L by y-tail.
    """
    ytail = check_int_coords(ytail, L.n - 1)
    hit = L._unit_y1_cache.get(ytail)
    if hit is not None:
        return hit
    neg = (0, *[-y for y in ytail])
    g = L.char_poly(neg)

    def task(prec):
        # each enclosure is of denom times a conjugate of the negated tail
        unit = L.denom << prec
        cands: set[int] = set()
        for vals in L.embeddings(prec).basis_vals:
            acc = int_combination(vals[1:], neg[1:])
            if acc.hi - acc.lo >= unit:
                return None
            cands.update(range(acc.lo // unit - 1, -(-acc.hi // unit) + 2))
        return cands

    cands = escalate(task)
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


def _sign_orbit_rep(v) -> tuple[int, ...]:
    """v or -v, whichever has its first nonzero entry positive."""
    lead = next((c for c in v if c), 0)
    return tuple(-c for c in v) if lead < 0 else tuple(v)


def _canonical_candidate(xs_tail, ys) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sign-orbit representative: first nonzero of (x_2..x_n, y_1..y_n) positive."""
    w = _sign_orbit_rep((*xs_tail, *ys))
    return w[:len(xs_tail)], w[len(xs_tail):]


def _signed(vectors) -> list[tuple[int, ...]]:
    out = []
    for v in vectors:
        out.append(tuple(v))
        out.append(tuple(-c for c in v))
    return out


def _validated_pib(L: NumberField, vectors) -> tuple[tuple[int, ...], ...]:
    """Sign-orbit representatives of the supplied generators, each proved to
    have index 1; the table is memoised on L by the input vectors."""
    try:
        vectors = tuple(check_int_coords(v, L.n - 1) for v in vectors)
    except TypeError:
        raise ValidationError("generator vectors must be sequences of integers")
    hit = L._pib_cache.get(vectors)
    if hit is not None:
        return hit
    for v in vectors:
        if L.element_index(v) != 1:
            raise ValidationError(f"supplied vector {list(v)} does not generate a power integral basis of L")
    out = L._pib_cache[vectors] = tuple(sorted({_sign_orbit_rep(v) for v in vectors}))
    return out


_Y_VANISHES = "the y-part bound is below 1, forcing the y-part index form to vanish"


def _report(bounds: BoundsRecord, verdict: str, completeness: str, assumptions: list[str],
            traces: list[CandidateTrace], collect_traces: bool) -> SolverReport:
    """The report over the tested candidates, whose accepted ones are the generators."""
    return SolverReport(
        verdict=verdict, completeness=completeness, regime=bounds.regime, d=bounds.d,
        bounds=bounds, assumptions=assumptions, candidates_tested=len(traces),
        generators=[Generator(t.xs_tail, t.ys, t.eq1, t.eq2, t.f_value, t.index)
                    for t in traces if t.accepted],
        traces=traces if collect_traces else None)


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
    basis.  A cell the theorem in the module docstring settles returns at
    once, with no sweep and no candidate.  Otherwise the box radius also
    limits the subfield sweeps and the small-index enumerations; every such
    limitation is recorded in the report's assumptions and completeness
    fields.
    """
    validate_box_radius(box_radius)
    L = K.L
    n = K.n
    bounds = theorem_main_bounds(K)
    radius = box_radius

    if isinstance(pib_source, str) and pib_source != "box":
        raise ValidationError("pib_source must be 'box' or a sequence of vectors, "
                              f"not {pib_source!r}")
    pib_explicit = pib_source != "box"
    if pib_explicit:
        pib = _validated_pib(L, pib_source)

    if bounds.forces_zero_y and not _has_even_proper_divisor(n):
        return _report(bounds, NOT_MONOGENIC, COMPLETE, [
            _Y_VANISHES,
            f"{_f_bounds_text(bounds)} force P(y) = 0; with I_L(y) = 0 and N(y) = +-1, "
            f"y would generate a subfield of even degree >= 4, which L of degree {n} "
            "cannot have: no y-part exists",
        ], [], collect_traces)

    assumptions = [
        "x1 is normalized to 0: the index is invariant under rational integer translation",
        "generators are sign-orbit representatives: first nonzero of (x_2..x_n, y_1..y_n) positive",
    ]
    if pib_explicit:
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
        assumptions.append(_Y_VANISHES)

    # x-parts (z = 2x + y for residue d) and y-parts: 0, the subfield zeros and
    # the indices each bound allows; every y must pass the cross-sum bound
    real_limit, y_limit = bounds.bound_real_floor, bounds.bound_y_floor
    assumptions.append(f"{_f_bounds_text(bounds)} filter the candidates")
    if real_limit:
        assumptions.append(
            f"z-part candidates of index 1 to {real_limit} swept only inside the box "
            f"|z_i| <= {radius}"
        )
    if y_limit >= 2:
        y_units = tuple(v for v, _ in L.enumerate_bounded_index(y_limit, radius))
        assumptions.append(
            f"y-part candidates of index 1 to {y_limit} swept only inside the box "
            f"|y_i| <= {radius}"
        )
    else:
        y_units = pib if y_limit else ()
    zero_vec = (0,) * (n - 1)
    y_tails = [zero_vec, *_signed(y_units), *_signed(zero_idx)]
    real_units = L.enumerate_bounded_index(real_limit, radius) if real_limit else ()
    real_pool = [zero_vec, *_signed(v for v, _ in real_units), *_signed(zero_idx)]

    # the y-tails are distinct, and L memoises each y1 equation across calls
    candidates: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for ytail in y_tails:
        if K.M.residue:
            # x = (z - y)/2 for each z in the pool of the same parity as y
            xs_tails = [tuple((zi - yi) // 2 for zi, yi in zip(z, ytail)) for z in real_pool
                        if not any((zi - yi) % 2 for zi, yi in zip(z, ytail))]
        else:
            xs_tails = real_pool
        if not xs_tails:
            continue
        for y1 in solve_norm_unit_y1(L, ytail):
            ys = (y1, *ytail)
            if L.cross_sum_square(ys) > bounds.bound_y_sq:
                continue
            for xs_tail in xs_tails:
                candidates.add(_canonical_candidate(xs_tail, ys))

    traces = [_test_candidate(K, xs_tail, ys) for xs_tail, ys in sorted(candidates)]

    # composite n: the zero sweep is box-limited whether or not it found anything
    box_limited = not pib_explicit or not is_prime(n) or real_limit or y_limit >= 2
    if any(t.accepted for t in traces):
        verdict = MONOGENIC
    elif y_limit >= 2:
        verdict = INCONCLUSIVE
    else:
        verdict = NOT_MONOGENIC
    return _report(bounds, verdict, BOX_LIMITED if box_limited else COMPLETE, assumptions,
                   traces, collect_traces)
