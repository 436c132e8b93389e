"""Brute force in K itself: the independent guard on the solver's reduction.

Every element alpha = x + omega*y of K = L*M with x1 = 0 and all other
coordinates in a box is enumerated, one per sign orbit.  y is kept only when
N(y) = +-1, computed exactly in L, and alpha only when its exact
``composite_index`` is 1.  No bound, table, theorem or interval factor is
used.  The brute-force set must lie inside ``solve``'s generators, whatever
the label; for a COMPLETE cell, every generator of ``solve`` inside the box
must also be in the brute-force set.
"""

import itertools
import math

import pytest

from compib import make_composite, make_field, make_imq, make_simplest_quartic, solve
from compib.intutil import is_squarefree
from compib.simplest_quartic import olajos_generators


def sign_orbit_rep(x_tail, ys):
    """The orbit {alpha, -alpha} as the member whose first nonzero entry is positive."""
    w = (*x_tail, *ys)
    if next(v for v in w if v) < 0:
        w = tuple(-v for v in w)
    return w[:len(x_tail)], w[len(x_tail):]


def brute_force_generators(K, radius):
    """Sign-orbit representatives (x_2..x_n; y_1..y_n) of index 1 in the box."""
    n, L = K.n, K.L
    box = range(-radius, radius + 1)
    units = [ys for ys in itertools.product(box, repeat=n) if abs(L.element_norm(ys)) == 1]
    found = set()
    for ys in units:
        for x_tail in itertools.product(box, repeat=n - 1):
            if sign_orbit_rep(x_tail, ys) != (x_tail, ys):
                continue
            if K.composite_index((0, *x_tail), ys) == 1:
                found.add((x_tail, ys))
    return found


def check_against_solve(K, radius, pib_source, box_radius):
    report = solve(K, pib_source=pib_source, box_radius=box_radius, collect_traces=False)
    solved = {sign_orbit_rep(g.xs_tail, g.ys) for g in report.generators}
    brute = brute_force_generators(K, radius)
    assert brute <= solved, (report.verdict, report.completeness, sorted(brute - solved))
    if report.completeness == "COMPLETE":
        inside = {g for g in solved if all(abs(v) <= radius for v in (*g[0], *g[1]))}
        assert inside <= brute
    return brute, report


def quadratic_disc(m):
    return m if m % 4 == 1 else 4 * m


def quadratic_field(m):
    """Q(sqrt m) for squarefree m > 1 with the power basis of its maximal order."""
    low = [-(m - 1) // 4, -1] if m % 4 == 1 else [-m, 0]
    return make_field([*low, 1], ((1, 0), (0, 1)), expected_disc=quadratic_disc(m))


# squarefree m <= 39 against d in {1, 2, 3, 7}, coprime cells only
QUADRATIC_CELLS = [(m, d) for m in range(2, 40) if is_squarefree(m) for d in (1, 2, 3, 7)
                   if math.gcd(quadratic_disc(m), d if d % 4 == 3 else 4 * d) == 1]


@pytest.mark.parametrize("m, d", QUADRATIC_CELLS)
def test_quadratic_bases_at_box_4(m, d):
    # every real quadratic field has the generator table [(1,)], and every
    # one of these cells is COMPLETE, so both inclusions are checked
    K = make_composite(quadratic_field(m), make_imq(d))
    brute, report = check_against_solve(K, 4, [(1,)], 4)
    assert report.completeness == "COMPLETE"
    if (m, d) == (5, 1):
        # Q(sqrt 5, i): the generators (0; 0, 1) and (0; 1, -1)
        assert brute == {((0,), (0, 1)), ((0,), (1, -1))}
    else:
        assert not brute


@pytest.mark.parametrize("a, d", [(1, 1), (1, 2), (1, 7), (2, 7), (4, 7), (5, 1), (5, 2),
                                  (5, 7)])
def test_simplest_quartics_at_radius_1(a, d):
    # the coprime cells of a in {1, 2, 4, 5} and d in {1, 2, 7}: radius 1 on
    # the seven free coordinates, against solve with Olajos's table
    K = make_composite(make_simplest_quartic(a), make_imq(d))
    check_against_solve(K, 1, olajos_generators(a), 1)


@pytest.mark.parametrize("a", [-1, 1, 2, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplest_cubics_at_box_2(a, d):
    # x^3 - a x^2 - (a+3) x - 1 has discriminant (a^2 + 3a + 9)^2, a prime
    # square here, so the power basis is maximal; a = -1 gives Q(zeta_7)^+,
    # whose composite with Q(i) has six generators in the box
    L = make_field([-1, -(a + 3), -a, 1], ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                   expected_disc=(a * a + 3 * a + 9) ** 2)
    brute, report = check_against_solve(make_composite(L, make_imq(d)), 2, "box", 2)
    assert len(brute) == (6 if (a, d) == (-1, 1) else 0)
