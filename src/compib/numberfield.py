"""Totally real number fields with a fixed integral basis.

A field is described by a monic irreducible integer polynomial f (all roots
real) together with an integral basis given as rational rows in the power
basis, first row equal to 1.  Construction validates irreducibility, total
realness, ring closure of the basis, and the discriminant; the returned
``NumberField`` keeps the multiplication table that the closure check
computes and offers exact characteristic polynomials, norms, and index
computations, plus sweeps over coordinate boxes.

A box sweep walks the box line by line along the last coordinate.  The
difference forms of the index form are interval enclosures, built once per
line and stepped by exact interval additions; the absolute value of their
product only excludes the vectors whose index is certainly above the
field's index limit, and every other vector's index is computed exactly.
The index form is homogeneous of degree n(n-1)/2 and 2^(n(n-1)/2) is above
the index limit, so only primitive vectors are tested: the multiples of the
primitive zeros are the only other vectors in a table.  A sweep may walk
at most ``MAX_BOX_VECTORS`` vectors, checked before it starts.  A field
carries no precision setting: the sweep works at ``PREC_START`` bits, and
the certifications built on a field's embeddings climb the fixed ladder of
``intervals.escalate``.

Every exact invariant of an integral element alpha comes from one
characteristic polynomial: that of the integer matrix of multiplication by
alpha in the basis, read off the table.  Its power traces Tr(alpha^k),
k = 1..n, give the coefficients by Newton's identities (Le Verrier's
method), each division by k exact.  The norm is its constant term up to
sign, the index comes from its discriminant (``polynomials.discriminant``,
the n-square Hankel determinant of the power sums), and the cross-sum
product from its resultant with its mirror.  No resultant over polynomial
entries is taken in L; ``composite`` keeps that route for K = L*M, with the
unscaling and index tail defined here.  ``make_field`` takes disc(f) by the
same Hankel route.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import InternalInvariantError, ValidationError
from .intervals import PREC_START, RealInterval, int_combination, sqrt_int
from .intutil import exact_sqrt, floor_sqrt_fraction
from .polynomials import (
    IsolatedRoot,
    Poly,
    isolate_real_roots,
    poly_from_ints,
    poly_mod_monic,
    resultant,
    discriminant,
)


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def check_int_coords(coords, length: int) -> tuple[int, ...]:
    """The coordinates as a tuple of ``length`` integers, else ValidationError.

    ``bool`` is not taken for an integer, and neither is any other number.
    """
    coords = tuple(coords)
    if len(coords) != length:
        raise ValidationError(f"expected {length} coordinates, got {len(coords)}")
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in coords):
        raise ValidationError(f"coordinates must be integers, got {list(coords)}")
    return coords


def _fixed_decimal(fr: Fraction, places: int) -> str:
    scaled = fr * 10**places
    q = scaled.numerator // scaled.denominator
    if 2 * (scaled - q) >= 1:
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, frac = divmod(q, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def unscale_char_poly(r: Poly, denom: int) -> Poly:
    """char_alpha(t) = R(denom*t) / denom^m for R the monic characteristic
    polynomial (degree m) of denom*alpha."""
    m = r.degree
    return Poly([Fraction(c, denom ** (m - k)) for k, c in enumerate(r.coeffs)])


def index_from_char_resultant(r: Poly, denom: int, disc: int) -> int:
    """Index of alpha in the order of discriminant disc, from R as above.

    disc(char_alpha) = disc(R) / denom^(m(m-1)) = index^2 * disc exactly;
    the index is zero exactly when alpha is not primitive.
    """
    m = r.degree
    disc_char, rem = divmod(discriminant(r), denom ** (m * (m - 1)))
    if rem:
        raise InternalInvariantError("discriminant scaling is not exact")
    q, rem = divmod(abs(disc_char), abs(disc))
    if rem:
        raise InternalInvariantError("element discriminant is not a multiple of the field discriminant")
    s = exact_sqrt(q)
    if s is None:
        raise InternalInvariantError("index squared is not a perfect square")
    return s


def _scaled_inverse(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """(A, d) with rows * A = d * I for a square integer matrix, |d| = |det|.

    Fraction-free Gauss-Jordan elimination on [rows | I]: each division by
    the previous pivot is exact, the left block ends as d * I, and the right
    block is then d * rows^-1, the adjugate up to the sign of d.
    """
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValidationError("integral basis rows are linearly dependent")
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(n):
            if r != col:
                m = aug[r][col]
                aug[r] = [(p * v - m * w) // prev for v, w in zip(aug[r], prow)]
        prev = p
    return [row[n:] for row in aug], prev


def _has_rational_root(f: Poly) -> bool:
    # monic, so any rational root is an integer dividing the constant term
    a0 = abs(f.coeffs[0])
    if a0 == 0:
        return True
    for t in range(1, math.isqrt(a0) + 1):
        if a0 % t == 0:
            for cand in (t, -t, a0 // t, -(a0 // t)):
                if f.evaluate(cand) == 0:
                    return True
    return False


def _quartic_has_quadratic_factor(f: Poly) -> bool:
    """Monic quartic split as (x^2+bx+c)(x^2+b'x+c') with integer entries."""
    f0, f1, f2, f3, _ = f.coeffs
    pairs = set()
    for t in range(1, math.isqrt(abs(f0)) + 1):
        if f0 % t == 0:
            u = f0 // t
            pairs.update({(t, u), (u, t), (-t, -u), (-u, -t)})
    for c, c2 in pairs:
        # b + b' = f3 and b*b' = f2 - c - c' force b, b' as integer roots
        s = f2 - c - c2
        disc = f3 * f3 - 4 * s
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc or (f3 + r) % 2:
            continue
        b, b2 = (f3 + r) // 2, (f3 - r) // 2
        if b * c2 + b2 * c == f1:
            return True
    return False


def _gf_polmul(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    n = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(n):
                out[k - n + i] = (out[k - n + i] - c * f[i]) % p
    out = out[:n]
    while out and out[-1] == 0:
        out.pop()
    return out or [0]

def _gf_polpow(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    while e:
        if e & 1:
            result = _gf_polmul(result, base, f, p)
        base = _gf_polmul(base, base, f, p)
        e >>= 1
    return result

def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while any(b):
        # remainder of a by b mod p
        b_norm = list(b)
        while b_norm and b_norm[-1] == 0:
            b_norm.pop()
        inv = pow(b_norm[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b_norm) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b_norm):
                break
            c = r[-1] * inv % p
            sh = len(r) - len(b_norm)
            for i, v in enumerate(b_norm):
                r[sh + i] = (r[sh + i] - c * v) % p
        a, b = b_norm, r or [0]
    while a and a[-1] == 0:
        a.pop()
    return a or [0]

def _irreducible_mod_p(f: Poly, p: int) -> bool:
    # the monic f of degree n is irreducible mod p exactly when it has no
    # factor of degree k <= n/2, that is gcd(x^(p^k) - x, f) = 1 for each k
    fc = [c % p for c in f.coeffs]
    cur = [0, 1]
    for _ in range(f.degree // 2):
        cur = _gf_polpow(cur, p, fc, p)     # x^(p^(k+1)) = (x^(p^k))^p mod f
        diff = cur + [0] * (2 - len(cur))
        diff[1] = (diff[1] - 1) % p
        if len(_gf_gcd(fc, diff, p)) > 1:
            return False
    return True


# the divisor scans of the constant term stop at this bound; beyond it, and
# whenever no listed prime certifies, irreducibility is read off the roots
_DIVISOR_SCAN_MAX = 10**6

_MOD_P_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
                 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199)


def _check_irreducible(f: Poly) -> bool:
    """True when the cheap routes certify f irreducible, False when undecided.

    A factor they find is refused at once.  For n <= 4 with |f(0)| at most
    ``_DIVISOR_SCAN_MAX`` the divisor scans decide; for n > 4 an irreducible
    reduction mod a listed prime certifies.
    """
    n = f.degree
    if abs(f.coeffs[0]) <= _DIVISOR_SCAN_MAX:
        if _has_rational_root(f):
            raise ValidationError("defining polynomial is reducible (rational root)")
        if n <= 3:
            return True
        if n == 4:
            if _quartic_has_quadratic_factor(f):
                raise ValidationError("defining polynomial is reducible (quadratic factor)")
            return True
    return n > 4 and any(_irreducible_mod_p(f, p) for p in _MOD_P_PRIMES)


def _root_subset_factor(f: Poly, roots: list[IsolatedRoot]) -> int:
    """Degree of a monic integer factor of f of degree <= n/2, or 0 if none.

    The roots of such a factor are k of f's n simple real roots, and its
    coefficients are their signed elementary symmetric functions, which are
    integers.  So each k-subset's enclosures are refined (on copies, leaving
    the field's roots untouched) until every coefficient is narrower than 1;
    a coefficient enclosure holding no integer rules the subset out, and the
    one candidate left is decided by exact division.
    """
    n = f.degree
    pending = [s for k in range(1, n // 2 + 1) for s in itertools.combinations(range(n), k)]
    roots = [copy.copy(r) for r in roots]
    prec = 32
    while pending:
        ivs = [r.to_interval(prec) for r in roots]
        one = 1 << prec
        undecided = []
        for subset in pending:
            coeffs = [RealInterval(one, one, prec)]
            for i in subset:
                r = ivs[i]
                coeffs = ([-(r * coeffs[0])]
                          + [coeffs[j - 1] - r * coeffs[j] for j in range(1, len(coeffs))]
                          + [coeffs[-1]])
            if any(c.hi - c.lo >= one for c in coeffs):
                undecided.append(subset)
                continue
            ranges = [c.integer_range() for c in coeffs]
            if any(klo != khi for klo, khi in ranges):
                continue
            if poly_mod_monic(f, Poly([klo for klo, _ in ranges])).is_zero():
                return len(subset)
        pending = undecided
        prec *= 2
    return 0


class _Embeddings:
    """Interval data for all real embeddings of a field at one precision."""

    __slots__ = ("prec", "basis_vals", "diffs", "sums")

    def __init__(self, field: NumberField, prec: int):
        self.prec = prec
        root_ivs = [r.to_interval(prec) for r in field.roots]
        self.basis_vals = [
            [Poly(row).evaluate(iv) for row in field.basis] for iv in root_ivs
        ]
        self.diffs = []
        self.sums = []
        for j1, j2 in itertools.combinations(range(field.n), 2):
            b1, b2 = self.basis_vals[j1], self.basis_vals[j2]
            self.diffs.append(tuple(b1[i] - b2[i] for i in range(1, field.n)))
            self.sums.append(tuple(b1[i] + b2[i] for i in range(1, field.n)))


class NumberField:
    """Totally real field Q[x]/(f) with integral basis rows in the power basis."""

    def __init__(self, f: Poly, basis: tuple[tuple[Fraction, ...], ...], disc: int,
                 denom: int, roots: list[IsolatedRoot],
                 mult_table: tuple[tuple[tuple[int, ...], ...], ...]):
        self.f = f
        self.n = f.degree
        self.basis = basis
        # mult_table[i] is the integer matrix of multiplication by b_i:
        # column j holds the coordinates of b_i*b_j
        self.mult_table = mult_table
        self._traces = tuple(sum(m[k][k] for k in range(self.n)) for m in mult_table)
        self.disc = disc
        self.denom = denom
        self.roots = roots
        self._emb: dict[int, _Embeddings] = {}
        # largest index bound a composite over L asks for: 1, the real-part
        # floor 2^e/sqrt(D_L) and the d = 3 y-part floor (4/3)^(e/2)
        e = self.n * (self.n - 1) // 2
        self._index_limit = max(1, floor_sqrt_fraction(Fraction(4**e, disc)),
                                floor_sqrt_fraction(Fraction(4**e, 3**e)))
        self._sweep_cache: dict[int, tuple] = {}
        # solver memos, exact per field: y1 solutions by y-tail, and
        # validated generator tables by their input vectors
        self._unit_y1_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._pib_cache: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] = {}

    # -- coordinates ---------------------------------------------------------

    def to_power_coeffs(self, coords) -> tuple[Fraction, ...]:
        if len(coords) != self.n:
            raise ValidationError(f"expected {self.n} coordinates, got {len(coords)}")
        out = [Fraction(0)] * self.n
        for c, row in zip(coords, self.basis):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return tuple(out)

    # -- exact invariants ----------------------------------------------------

    def char_poly(self, coords) -> Poly:
        """Monic integer characteristic polynomial (degree n) of an integral element."""
        return self._char_poly(check_int_coords(coords, self.n))

    def _char_poly(self, a: tuple[int, ...]) -> Poly:
        """char_poly of checked coordinates.

        With A the matrix of multiplication by alpha, A[r][c] = sum_i a_i *
        mult_table[i][r][c] = <a, mult_table[c][r]> because b_i*b_c =
        b_c*b_i.  The power traces p_k = Tr(alpha^k) come from the
        coordinates A^(k-1) a of alpha^k, and the coefficients s_k of
        t^(n-k) from Newton's identities k*s_k = -sum_{i<=k} s_(k-i)*p_i.
        """
        n = self.n
        mat = [[_dot(a, m[r]) for m in self.mult_table] for r in range(n)]
        power, sums = a, [_dot(self._traces, a)]
        for _ in range(n - 1):
            power = [_dot(row, power) for row in mat]
            sums.append(_dot(self._traces, power))
        coeffs = [1]
        for k in range(1, n + 1):
            s, rem = divmod(-_dot(reversed(coeffs), sums), k)
            if rem:
                raise InternalInvariantError("power traces of an integral element break Newton's identities")
            coeffs.append(s)
        return Poly(reversed(coeffs))

    def element_norm(self, coords) -> int:
        """N_{L/Q} of an integral element: (-1)^n times its char_poly's constant term."""
        c0 = self._char_poly(check_int_coords(coords, self.n)).coeffs[0]
        return -c0 if self.n % 2 else c0

    def cross_sum_square(self, coords) -> int:
        """P(y)^2 for P(y) = prod_{i<j} (y_i + y_j) over the conjugates of y.

        With R the characteristic polynomial of y, Res(R(t), R(-t)) =
        prod_i R(-y_i) = (-1)^n prod_{i,j} (y_i + y_j) = 2^n * R(0) * P(y)^2,
        since R(0) = (-1)^n N(y).
        """
        r = self._char_poly(check_int_coords(coords, self.n))
        r0 = r.coeffs[0]
        if r0 == 0:
            return 0
        mirrored = Poly([-c if k % 2 else c for k, c in enumerate(r.coeffs)])
        q, rem = divmod(resultant(r, mirrored), (2**self.n) * r0)
        if rem or q < 0:
            raise InternalInvariantError("cross-sum product is not a square integer")
        return q

    def element_index(self, xs) -> int:
        """Index |Z_L : Z[alpha]|-style invariant of alpha = sum xs[i]*basis[i+1].

        Zero exactly when the element generates a proper subfield.
        """
        xs = check_int_coords(xs, self.n - 1)
        return index_from_char_resultant(self._char_poly((0, *xs)), 1, self.disc)

    # -- certified-interval machinery -----------------------------------------

    def embeddings(self, prec: int) -> _Embeddings:
        emb = self._emb.get(prec)
        if emb is None:
            emb = self._emb[prec] = _Embeddings(self, prec)
        return emb

    def index_form_interval(self, xs, prec: int) -> RealInterval:
        """Enclosure of the signed index form at xs (true value is an integer)."""
        prod = sqrt_int(self.disc, prec).recip()
        for diffs in self.embeddings(prec).diffs:
            prod = prod * int_combination(diffs, xs)
        return prod

    # -- box sweeps ------------------------------------------------------------

    def _small_index_table(self, radius: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Every box vector with |index| <= the field's index limit, as sorted (xs, index).

        One sweep per radius serves every query.  The box holds one vector
        per sign orbit (first nonzero coordinate positive), walked as lines
        along the last coordinate: a prefix whose first nonzero entry is
        positive runs t = -radius..radius, the zero prefix t = 1..radius.

        The index form is homogeneous of degree e = n(n-1)/2, so I_L(g*y) =
        g^e * I_L(y), and 2^e is above the index limit.  A vector that is
        not primitive therefore belongs to the table exactly when its
        primitive part is a zero: only primitive vectors (gcd of the
        prefix's gcd and t equal to 1) are tested, and after the walk every
        multiple of each primitive zero that fits in the box is added.

        Each difference form is built once per line and then stepped by one
        exact interval addition of its last-coordinate difference, at every
        t.  Their product P encloses I_L * sqrt(D_L).  With m the endpoint
        of P nearest 0 (0 when P holds 0), a vector whose m^2 is certainly
        above limit^2 * D_L is skipped, with no interval square; the
        interval only excludes, and every other primitive vector gets its
        exact ``element_index``.
        """
        validate_box_radius(radius, self.n)
        hit = self._sweep_cache.get(radius)
        if hit is not None:
            return hit
        emb = self.embeddings(PREC_START)
        steps = [d[-1] for d in emb.diffs]
        limit = self._index_limit
        ceiling = (limit * limit * self.disc) << PREC_START
        found = []
        for prefix in itertools.product(range(-radius, radius + 1), repeat=self.n - 2):
            lead = next((v for v in prefix if v), 0)
            if lead < 0:
                continue
            start = -radius if lead else 1
            forms = [int_combination(d, (*prefix, start)) for d in emb.diffs]
            g = math.gcd(*prefix)
            for t in range(start, radius + 1):
                if g == 1 or math.gcd(g, t) == 1:
                    prod = functools.reduce(operator.mul, forms)
                    m = prod.lo if prod.lo > 0 else -prod.hi if prod.hi < 0 else 0
                    if (m * m) >> PREC_START <= ceiling:
                        xs = (*prefix, t)
                        k = self.element_index(xs)
                        if k <= limit:
                            found.append((xs, k))
                forms = list(map(operator.add, forms, steps))
        for xs in [xs for xs, k in found if k == 0]:
            top = max(map(abs, xs))
            found.extend((tuple(g * x for x in xs), 0) for g in range(2, radius // top + 1))
        found.sort()
        out = self._sweep_cache[radius] = tuple(found)
        return out

    def enumerate_bounded_index(self, bound: int, radius: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """All coordinate vectors in the box with 1 <= index <= bound <= index limit, sorted."""
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
            raise ValidationError("index bound must be a positive integer")
        if bound > self._index_limit:
            raise ValidationError(f"index bound {bound} exceeds the limit {self._index_limit}")
        return tuple((xs, k) for xs, k in self._small_index_table(radius) if 1 <= k <= bound)

    def zero_index_vectors(self, radius: int) -> tuple[tuple[int, ...], ...]:
        """Nonzero box vectors whose index form vanishes (non-primitive elements)."""
        return tuple(xs for xs, k in self._small_index_table(radius) if k == 0)

    # -- description ------------------------------------------------------------

    def describe(self) -> dict:
        root_strs = []
        for r in self.roots:
            r.refine_to(Fraction(1, 1 << 64))
            root_strs.append(_fixed_decimal((r.lo + r.hi) / 2, 12))
        return {
            "poly": [int(c) for c in self.f.coeffs],
            "degree": self.n,
            "disc": self.disc,
            "denominator": self.denom,
            "basis": [[str(c) for c in row] for row in self.basis],
            "real_roots": root_strs,
        }


def _multiplication_table(f: Poly, scaled: list[list[int]], inv: list[list[int]],
                          modulus: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Integer matrices of multiplication by each basis element, or ValidationError.

    ``scaled`` is M = denom * basis, ``inv`` is d * M^-1 and ``modulus`` is
    denom * d.  b_i*b_j is (M_i*M_j mod f) / denom^2 in the power basis, so
    its coordinates are (M_i*M_j mod f) * inv / modulus, and the basis is
    closed exactly when every such division is exact; the first pair
    (i, j), i <= j, that is not names the error.  Products with b_0 = 1 are
    the unit vectors.  Entry [i][r][j] of the result is coordinate r of
    b_i*b_j.
    """
    n = len(scaled)
    inv_cols = list(zip(*inv))
    prods = {}
    for i in range(1, n):
        for j in range(i, n):
            prod = poly_mod_monic(Poly(scaled[i]) * Poly(scaled[j]), f).coeffs
            scaled_coords = [_dot(prod, col) for col in inv_cols]
            if any(v % modulus for v in scaled_coords):
                raise ValidationError(
                    f"integral basis is not multiplicatively closed (product {i},{j})")
            prods[i, j] = prods[j, i] = [v // modulus for v in scaled_coords]
    unit = [[int(r == j) for r in range(n)] for j in range(n)]
    cols = [unit] + [[unit[i]] + [prods[i, j] for j in range(1, n)] for i in range(1, n)]
    return tuple(tuple(zip(*c)) for c in cols)


# the most canonical vectors a box sweep may walk
MAX_BOX_VECTORS = 10**7


def validate_box_radius(box_radius, n: int | None = None) -> None:
    """Refuse a radius that is not a positive integer and, given a degree n,
    one whose sweep would walk more than ``MAX_BOX_VECTORS`` canonical
    vectors, ((2R+1)^(n-1) - 1)/2."""
    if not isinstance(box_radius, int) or isinstance(box_radius, bool) or box_radius < 1:
        raise ValidationError("box radius must be a positive integer")
    if n is None:
        return
    vectors = ((2 * box_radius + 1) ** (n - 1) - 1) // 2
    if vectors > MAX_BOX_VECTORS:
        raise ValidationError(f"box radius {box_radius} in degree {n} spans {vectors} vectors, "
                              f"above the sweep limit of {MAX_BOX_VECTORS}")


def make_field(poly_coeffs, basis_rows, expected_disc: int | None = None) -> NumberField:
    """Build and validate a totally real field with the given integral basis.

    Checks, all in integer arithmetic:

    - the defining polynomial f is monic with integer coefficients, and
      irreducible: for n <= 4 with |f(0)| <= 10^6 by scanning the divisors
      of f(0), for n > 4 by an irreducible reduction mod a small prime, and
      otherwise by testing every subset of at most n/2 of the isolated real
      roots for a monic integer factor;
    - f is totally real: its Sturm chain isolates n real roots;
    - the basis starts at 1 and its rows are invertible: with denom the
      least common denominator and M = denom * basis, fraction-free
      elimination gives A = d * M^-1 with |d| = |det M| != 0;
    - the discriminant disc(f) * d^2 / denom^(2n) is an integer, and equals
      expected_disc when one is given;
    - the spanned order is closed under multiplication: b_i*b_j has the
      coordinates (M_i*M_j mod f) * A / (denom * d), so it is integral
      exactly when (M_i*M_j mod f) * A is 0 mod denom * d (f is monic, so
      M_i*M_j mod f stays integral).  These integer coordinates are kept as
      the field's multiplication table, from which every characteristic
      polynomial, norm and index of L is then computed.

    The basis is trusted to span the maximal order; closure and discriminant
    agreement are the verifiable parts of that claim.  The field takes no
    precision option: interval certification over it follows the fixed
    128-to-8192-bit policy of ``intervals``.
    """
    f = poly_from_ints(poly_coeffs)
    n = f.degree
    if n < 2:
        raise ValidationError("defining polynomial must have degree >= 2")
    if f.lc != 1:
        raise ValidationError("defining polynomial must be monic")
    certified = _check_irreducible(f)
    roots = isolate_real_roots(f)
    if len(roots) != n:
        raise ValidationError("defining polynomial is not totally real")
    if not certified:
        k = _root_subset_factor(f, roots)
        if k:
            raise ValidationError(f"defining polynomial is reducible (factor of degree {k})")

    rows = []
    for row in basis_rows:
        rows.append(tuple(Fraction(c) for c in row))
        if len(rows[-1]) != n:
            raise ValidationError("integral basis rows must have length equal to the degree")
    if len(rows) != n:
        raise ValidationError("integral basis must have one row per degree")
    if rows[0] != tuple(Fraction(int(i == 0)) for i in range(n)):
        raise ValidationError("first integral basis element must be 1")
    denom = 1
    for row in rows:
        for c in row:
            denom = math.lcm(denom, c.denominator)
    scaled = [[int(c * denom) for c in row] for row in rows]
    inv, det = _scaled_inverse(scaled)

    disc, rem = divmod(discriminant(f) * det * det, denom ** (2 * n))
    if rem:
        raise ValidationError("basis change does not yield an integral discriminant")
    if disc <= 0:
        raise InternalInvariantError("totally real field with non-positive discriminant")
    if expected_disc is not None and disc != expected_disc:
        raise ValidationError(f"discriminant mismatch: computed {disc}, expected {expected_disc}")

    table = _multiplication_table(f, scaled, inv, denom * det)
    return NumberField(f, tuple(rows), disc, denom, roots, table)


def field_from_dict(data: dict) -> NumberField:
    """Field from a JSON-style description {"poly": [...], "basis": [[...]], ...}."""
    if not isinstance(data, dict) or "poly" not in data or "basis" not in data:
        raise ValidationError("field description needs 'poly' and 'basis'")
    try:
        basis = [[Fraction(str(c)) for c in row] for row in data["basis"]]
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError("integral basis entries must be integers or fraction strings")
    expected_disc = data.get("expected_disc")
    if expected_disc is not None and (not isinstance(expected_disc, int)
                                      or isinstance(expected_disc, bool)):
        raise ValidationError(f"expected_disc must be an integer, not {expected_disc!r}")
    return make_field(data["poly"], basis, expected_disc=expected_disc)
