"""The benchmark's workloads: inputs from a seed, set-up, ops and checks.

A workload is a fixed list of ops, one *round*. ``build()`` is the set-up:
it makes every ``NumberField`` and ``CompositeField`` the round needs and
returns the ops as ``(key, thunk)`` pairs. Each thunk makes one public
library call, looked up at call time so that the tracer's wrappers are
seen. ``check()`` tests the outputs of one round against ``oracle`` (sympy)
and against properties the method must have; it imports the oracle itself,
so it must run after every timed and memory figure is taken.

Family rules used to choose inputs (paper, Section 5): the member
``L_a`` exists for ``a != 3`` with ``a^2 + 16`` free of odd square factors,
and its discriminant is ``(a^2 + 16)^3 / 4^min(v2(a), 3)`` for even ``a``,
``(a^2 + 16)^3`` for odd ``a``. A grid cell ``(a, d)`` is admissible when
``d`` is squarefree, ``d != 3`` and the discriminants of ``L_a`` and
``Q(sqrt(-d))`` are coprime.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import compib

OCTIC_POLY = (1, -1, -4, 0, 1)          # x^4 - 4x^2 - x + 1, D_L = 1957
OCTIC_DISC = 1957
IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


# -- family rules (stdlib only: inputs are chosen before anything is timed) -----


def _squarefree(m: int) -> bool:
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        p += 1
    return True


def _v2(m: int) -> int:
    return (m & -m).bit_length() - 1


def family_member_ok(a: int) -> bool:
    odd = (a * a + 16) >> _v2(a * a + 16)
    return a != 3 and _squarefree(odd)


def family_disc(a: int) -> int:
    return (a * a + 16) ** 3 // (4 ** min(_v2(a), 3) if a % 2 == 0 else 1)


def imq_disc(d: int) -> int:
    return -d if d % 4 == 3 else -4 * d


GRID_D_MAX = 30


def grid_cells(a_max: int) -> list[tuple[int, int]]:
    return [(a, d) for a in range(1, a_max + 1) if family_member_ok(a)
            for d in range(1, GRID_D_MAX + 1)
            if d != 3 and _squarefree(d) and math.gcd(family_disc(a), imq_disc(d)) == 1]


# -- the workload record ------------------------------------------------------------


@dataclass
class Workload:
    name: str
    keys: list                       # op keys in run order
    build: Callable[[], list]        # set-up: [(key, thunk)]
    normalise: Callable              # raw op output -> comparable value
    check: Callable                  # {key: value} -> ({key: reason}, [problems])
    min_ops: int = 40                # ops a run makes at least, for the tail percentile

    @property
    def min_rounds(self) -> int:
        return -(-self.min_ops // len(self.keys))

    @property
    def tail_pct(self) -> int:
        """Highest percentile with at least ten of the guaranteed ops beyond it."""
        n = self.min_rounds * len(self.keys)
        if n < 40:
            raise ValueError(f"{self.name}: {n} ops per run leave no tail percentile")
        return math.floor(100 - 1000 / n)


def _report_dict(report) -> dict:
    return report.to_dict()


def _same(value):
    return value


# -- grid ------------------------------------------------------------------------


def _solve_cell(K, pib, box):
    return compib.solve(K, pib_source=pib, box_radius=box, collect_traces=False)


# Five rounds of the 21 cells at a <= 2 make the tail percentile p90, which
# lands among the single-sweep cells (2 of every 21), near their median: 10%
# of the ops lie beyond it, and the double-sweep cells are 1 of every 21.
GRID_MIN_OPS = 100


def grid(seed: int, a_max: int = 2, box: int = 20) -> Workload:
    """The paper's non-monogenity grid for a <= a_max, d <= 30, box 20.

    One op is one ``solve`` per admissible cell, d ascending within a member
    as ``verify-cq`` runs them (so each member's two sweeps land on the same
    cells whatever the seed). The seed orders the members.
    """
    cells = grid_cells(a_max)
    members = sorted({a for a, _ in cells})
    random.Random(seed).shuffle(members)
    keys = [(a, d) for a in members for a2, d in cells if a2 == a]

    def build():
        ops = []
        for a in members:
            L = compib.make_simplest_quartic(a)
            pib = compib.olajos_generators(a)
            for a2, d in keys:
                if a2 == a:
                    K = compib.make_composite(L, compib.make_imq(d))
                    ops.append(((a, d), lambda K=K, pib=pib: _solve_cell(K, pib, box)))
        return ops

    def check(outputs):
        import oracle
        problems = []
        fields = {a: compib.make_simplest_quartic(a) for a in members}
        discs = {}
        for a, L in fields.items():
            discs[a] = oracle.field_disc(L.f.coeffs, L.basis)
            if discs[a] != L.disc:
                problems.append(f"a = {a}: D_L is {L.disc}, sympy gives {discs[a]}")
        expected = {(a, d) for a in range(1, a_max + 1) if oracle.family_member_ok(a)
                    for d in range(1, GRID_D_MAX + 1)
                    if d != 3 and oracle.is_squarefree(d)
                    and math.gcd(discs[a], oracle.imq_disc(d)) == 1}
        if expected != set(keys):
            problems.append(f"cells run differ from the admissible cells: "
                            f"{sorted(expected ^ set(keys))}")
        pib_ok = {}
        for a, L in fields.items():
            pib_ok[a] = all(
                oracle.index_from_disc(oracle.element_disc(L.f.coeffs, L.basis, (0, *v)),
                                       discs[a]) == 1
                for v in compib.olajos_generators(a))
        bad = {}
        for key, rep in outputs.items():
            if not isinstance(rep, dict):
                bad[key] = f"raised {rep!r}"
            elif rep["verdict"] != "NOT_MONOGENIC" or rep["generators"]:
                bad[key] = f"verdict {rep['verdict']} with {len(rep['generators'])} generators"
            elif not pib_ok[key[0]]:
                bad[key] = "a generator-table vector does not have index 1"
        return bad, problems

    return Workload("grid", keys, build, _report_dict, check, min_ops=GRID_MIN_OPS)


# -- factor ------------------------------------------------------------------------

FACTOR_MEMBERS = (1, 2, 4, 8)        # basis denominators 2, 2, 4, 4
FACTOR_SMALL, FACTOR_MID, FACTOR_LARGE = 12, 2, 2     # elements per composite
SMALL, MID, LARGE = 4, 10**4, 10**6                  # coordinate bounds
# Certification at these bounds ends at 128, 256 and 512 bits. The set-up
# computes each base field's embeddings at all three, so ops time the
# factorisation, not the one-off embedding build that otherwise lands on the
# first op of each precision and puts the p99 at the mercy of the op order.
EMBEDDING_PRECISIONS = (128, 256, 512)


def _factor_d_values(rng: random.Random, disc_l: int) -> tuple[int, int]:
    """Two d for one base field, one from each residue class where both exist."""
    ok = [d for d in range(1, 31) if _squarefree(d) and math.gcd(disc_l, imq_disc(d)) == 1]
    res = [d for d in ok if d % 4 == 3]
    non = [d for d in ok if d % 4 != 3]
    if res and non:
        return rng.choice(res), rng.choice(non)
    return tuple(rng.sample(res or non, 2))


def _factorization(K, xs, ys):
    return K.factorization(xs, ys)


def factor(seed: int, per_composite: tuple[int, int, int] = (FACTOR_SMALL, FACTOR_MID, FACTOR_LARGE),
           min_ops: int = 1000) -> Workload:
    """Seeded elements of composites over the octic's base field and four members.

    One op is one ``CompositeField.factorization`` (``composite-index``). Per
    composite the three counts give elements with coordinates bounded by
    4, 10^4 and 10^6; x_1 = 0 as the solver meets them. The seed draws d and
    the elements and orders the ops.
    """
    rng = random.Random(seed)
    bases = [("octic", OCTIC_DISC)] + [(f"a{a}", family_disc(a)) for a in FACTOR_MEMBERS]
    elements = {}
    for label, disc_l in bases:
        for d in _factor_d_values(rng, disc_l):
            i = 0
            for count, bound in zip(per_composite, (SMALL, MID, LARGE)):
                for _ in range(count):
                    xs = (0, *(rng.randint(-bound, bound) for _ in range(3)))
                    ys = tuple(rng.randint(-bound, bound) for _ in range(4))
                    elements[label, d, i] = (xs, ys)
                    i += 1
    keys = list(elements)
    rng.shuffle(keys)

    def make_base(label):
        if label == "octic":
            return compib.make_field(OCTIC_POLY, IDENTITY4, expected_disc=OCTIC_DISC)
        return compib.make_simplest_quartic(int(label[1:]))

    def build():
        fields = {label: make_base(label) for label, _ in bases}
        for L in fields.values():
            for prec in EMBEDDING_PRECISIONS:
                L.embeddings(prec)
        composites = {(label, d): compib.make_composite(fields[label], compib.make_imq(d))
                      for label, d, _ in keys}
        return [(key, lambda K=composites[key[:2]], e=elements[key]: _factorization(K, *e))
                for key in keys]

    def check(outputs):
        import oracle
        fields = {label: make_base(label) for label, _ in bases}
        disc_k = {}
        bad = {}
        for key, out in outputs.items():
            if not isinstance(out, dict):
                bad[key] = f"raised {out!r}"
                continue
            label, d, _ = key
            xs, ys = elements[key]
            L = fields[label]
            if (label, d) not in disc_k:
                disc_k[label, d] = oracle.composite_disc(L.f.coeffs, L.basis, d)
            eq1, eq2, fac_f, index = out["eq1"], out["eq2"], out["F"], out["index"]
            disc = oracle.composite_element_disc(L.f.coeffs, L.basis, d, xs, ys)
            if disc != index * index * disc_k[label, d]:
                bad[key] = f"disc(char) = {disc} but index^2 * D_K = {index * index * disc_k[label, d]}"
            elif eq2 != oracle.element_norm(L.f.coeffs, L.basis, ys):
                bad[key] = f"eq2 = {eq2} is not N(gamma)"
            elif eq1 < 0 or index != eq1 * abs(eq2) * abs(fac_f):
                bad[key] = f"index {index} != eq1*|eq2|*|F| for {out}"
        return bad, []

    return Workload("factor", keys, build, _same, check, min_ops=min_ops)


# -- d3 -------------------------------------------------------------------------------


def d3(seed: int, a_max: int = 20, box: int = 8) -> Workload:
    """``d3_partial_search(a, box_radius=8)`` on each admissible member a <= 20.

    ``d3_partial_search`` takes only ``a`` and builds its fields itself, so the
    set-up builds the same ``L_a`` and ``L_a * Q(sqrt(-3))`` apart: that keeps
    field construction in ``setup_s`` here as on the other workloads. The
    seed orders the members.
    """
    members = [a for a in range(1, a_max + 1) if family_member_ok(a)]
    random.Random(seed).shuffle(members)

    def build():
        ops = []
        for a in members:
            compib.make_composite(compib.make_simplest_quartic(a), compib.make_imq(3))
            ops.append((a, lambda a=a: compib.d3_partial_search(a, box_radius=box)))
        return ops

    def check(outputs):
        import oracle
        bad = {}
        for a, rep in outputs.items():
            if not isinstance(rep, dict):
                bad[a] = f"raised {rep!r}"
                continue
            if (rep["verdict"], rep["completeness"]) != ("INCONCLUSIVE", "BOX_LIMITED"):
                bad[a] = f"{rep['verdict']}/{rep['completeness']}"
                continue
            if rep["generators"] or len(rep["candidates"]) != rep["candidates_tested"]:
                bad[a] = "generators listed, or candidates and their count disagree"
                continue
            L = compib.make_simplest_quartic(a)
            disc_k = oracle.composite_disc(L.f.coeffs, L.basis, 3)
            for cand in rep["candidates"]:
                disc = oracle.composite_element_disc(L.f.coeffs, L.basis, 3,
                                                     (0, *cand["x"]), cand["y"])
                if cand["accepted"] or oracle.index_from_disc(disc, disc_k) == 1:
                    bad[a] = f"candidate x = {cand['x']}, y = {cand['y']} has index 1"
                    break
        return bad, []

    return Workload("d3", members, build, _same, check)


WORKLOADS = {"grid": grid, "factor": factor, "d3": d3}
