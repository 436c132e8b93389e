import itertools
import math
from fractions import Fraction

import pytest

from compib import make_composite, make_field, make_imq, make_simplest_quartic
from compib.numberfield import unscale_char_poly
from compib.polynomials import Poly, clear_denominators, resultant

IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# base field of the degree-8 worked example: x^4 - 4x^2 - x + 1, disc 1957
OCTIC_POLY = (1, -1, -4, 0, 1)

# x^5 - 5x^3 + 4x - 1: totally real with squarefree discriminant
QUINTIC_POLY = (-1, 4, 0, -5, 0, 1)

# 2cos(2*pi/17) generates the real subfield of the 17th cyclotomic field, of
# degree 8 and discriminant 17^7; the basis is 1 and the periods 2cos(2*pi*k/17),
# k = 1..7, so the quadratic and quartic subfields have vectors in box 1
CYCLO17_POLY = (1, -4, -10, 10, 15, -6, -7, 1, 1)
CYCLO17_BASIS = (
    (1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0), (-2, 0, 1, 0, 0, 0, 0, 0),
    (0, -3, 0, 1, 0, 0, 0, 0), (2, 0, -4, 0, 1, 0, 0, 0), (0, 5, 0, -5, 0, 1, 0, 0),
    (-2, 0, 9, 0, -6, 0, 1, 0), (0, -7, 0, 14, 0, -7, 0, 1),
)


def contains_fraction(iv, fr: Fraction) -> bool:
    """Whether the interval iv holds the rational fr: lo/2^prec <= fr <= hi/2^prec."""
    num = fr.numerator << iv.prec
    return iv.lo * fr.denominator <= num <= iv.hi * fr.denominator


def canonical_box(n, radius):
    """Nonzero vectors of the box |x_i| <= radius in Z^(n-1), one per sign orbit
    (first nonzero coordinate positive), in lexicographic order."""
    for vec in itertools.product(range(-radius, radius + 1), repeat=n - 1):
        lead = next((v for v in vec if v != 0), None)
        if lead is not None and lead > 0:
            yield vec


def fraction_det(rows) -> Fraction:
    """Determinant of a rational matrix by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return det


# -- the resultant route, kept as the reference for L's invariants ----------------


def reference_discriminant(p: Poly):
    """(-1)^(n(n-1)/2) * Res(g, g') / lc(g) / D^(2n-2) for g = D*p integral:
    the Sylvester-matrix discriminant, independent of the library's Hankel
    route."""
    n = p.degree
    g, den = clear_denominators(p)
    r = resultant(g, g.derivative())
    disc, rem = divmod(-r if (n * (n - 1) // 2) % 2 else r, g.lc)
    assert rem == 0
    return disc if den == 1 else Fraction(disc, den ** (2 * n - 2))


def reference_char_resultant(L, coords):
    """(R, D) with R(s) = Res_x(f, s - D*h(x)) for h the power coordinates of
    alpha and D their denominator: the monic integer characteristic
    polynomial of D*alpha, so char_alpha(t) = R(D*t) / D^n."""
    b, d = clear_denominators(Poly(L.to_power_coeffs(coords)))
    if b.degree <= 0:
        c = b.coeffs[0] if b.coeffs else 0
        return Poly([-c, 1]) ** L.n, d
    entries = [Poly([-bj]) for bj in b.coeffs]
    entries[0] = Poly([-b.coeffs[0], 1])
    r = resultant(L.f, Poly(entries))
    assert isinstance(r, Poly) and r.degree == L.n and r.lc == 1
    return r, d


def reference_char_poly(L, coords) -> Poly:
    return unscale_char_poly(*reference_char_resultant(L, coords))


def reference_norm(L, coords) -> int:
    r, d = reference_char_resultant(L, coords)
    q, rem = divmod((-1) ** L.n * r.coeffs[0], d**L.n)
    assert rem == 0
    return q


def reference_index(L, xs) -> int:
    """sqrt(disc(char_alpha) / D_L), with disc(char_alpha) = disc(R) / D^(n(n-1))."""
    r, d = reference_char_resultant(L, (0, *xs))
    q, rem = divmod(reference_discriminant(r), d ** (L.n * (L.n - 1)) * L.disc)
    s = math.isqrt(q)
    assert rem == 0 and s * s == q
    return s


def reference_cross_sum_square(L, coords) -> int:
    """P(y)^2 from Res(R(t), R(-t)) = 2^n * R(0) * P(D*y)^2 and P(D*y) = D^e * P(y)."""
    r, d = reference_char_resultant(L, coords)
    r0 = r.coeffs[0]
    if r0 == 0:
        return 0
    mirrored = Poly([-c if k % 2 else c for k, c in enumerate(r.coeffs)])
    q, rem = divmod(resultant(r, mirrored), 2**L.n * r0 * d ** (L.n * (L.n - 1)))
    assert rem == 0 and q >= 0
    return q


@pytest.fixture(scope="session")
def octic_L():
    return make_field(OCTIC_POLY, IDENTITY4, expected_disc=1957)


@pytest.fixture(scope="session")
def K_octic(octic_L):
    return make_composite(octic_L, make_imq(1))


@pytest.fixture(scope="session")
def fam1():
    return make_simplest_quartic(1)


@pytest.fixture(scope="session")
def fam2():
    return make_simplest_quartic(2)


@pytest.fixture(scope="session")
def fam4():
    return make_simplest_quartic(4)
