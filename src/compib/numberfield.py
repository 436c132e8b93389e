"""Totally real number fields with a fixed integral basis.

A field is described by a monic irreducible integer polynomial f (all roots
real) together with an integral basis given as rational rows in the power
basis, first row equal to 1.  Construction validates irreducibility, total
realness, ring closure of the basis, and the discriminant; the returned
``NumberField`` then offers exact characteristic polynomials, norms, and
index computations, plus certified-interval sweeps over coordinate boxes.

Indices of elements are computed through an integer-scaled resultant: with
D the denominator of alpha's power coordinates, R(s) = Res_x(f, s - D*h(x))
is the (monic, integer) characteristic polynomial of D*alpha, and
disc(char_alpha) = disc(R) / D^(n(n-1)) exactly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InternalInvariantError, ValidationError
from .intervals import (PREC_CAP, PREC_START, RealInterval, escalate, int_combination,
                        sqrt_int)
from .intutil import exact_sqrt
from .polynomials import (
    IsolatedRoot,
    Poly,
    clear_denominators,
    divmod_q,
    isolate_real_roots,
    poly_from_ints,
    resultant,
    discriminant,
    sturm_real_root_count,
)


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
    disc_r = discriminant(r)
    if disc_r == 0:
        return 0
    m = r.degree
    disc_char, rem = divmod(disc_r, denom ** (m * (m - 1)))
    if rem:
        raise InternalInvariantError("discriminant scaling is not exact")
    q, rem = divmod(abs(disc_char), abs(disc))
    if rem:
        raise InternalInvariantError("element discriminant is not a multiple of the field discriminant")
    s = exact_sqrt(q)
    if s is None:
        raise InternalInvariantError("index squared is not a perfect square")
    return s


def _invert_matrix(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], Fraction]:
    """Gauss-Jordan inverse and determinant of a rational matrix."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValidationError("integral basis rows are linearly dependent")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], det


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

def _gf_polpow_x(e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = [0, 1]
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
    fc = [c % p for c in f.coeffs]
    if fc[-1] % p == 0:
        return False
    n = len(fc) - 1
    # x^(p^n) == x mod f, and gcd(x^(p^k) - x, f) trivial for k <= n/2
    xp = _gf_polpow_x(p, fc, p)
    cur = list(xp)
    for k in range(1, n // 2 + 1):
        diff = list(cur)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _gf_gcd(fc, diff, p)
        if len(g) - 1 > 0:
            return False
        if k < n:
            nxt = [0]
            for i, c in enumerate(cur):
                if c:
                    term = _gf_polpow_x(p * i, fc, p) if i else [1]
                    term = [c * v % p for v in term]
                    nxt = [(x + y) % p for x, y in itertools.zip_longest(nxt, term, fillvalue=0)]
            cur = nxt
    return True


def _check_irreducible(f: Poly) -> None:
    n = f.degree
    if _has_rational_root(f):
        raise ValidationError("defining polynomial is reducible (rational root)")
    if n <= 3:
        return
    if n == 4:
        if _quartic_has_quadratic_factor(f):
            raise ValidationError("defining polynomial is reducible (quadratic factor)")
        return
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
              149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199):
        if _irreducible_mod_p(f, p):
            return
    raise ValidationError("irreducibility unverified for degree > 4 polynomial")


class _Embeddings:
    """Interval data for all real embeddings of a field at one precision."""

    __slots__ = ("prec", "basis_vals", "diffs", "sums", "recip_sqrt_disc")

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
        self.recip_sqrt_disc = sqrt_int(field.disc, prec).recip()


class NumberField:
    """Totally real field Q[x]/(f) with integral basis rows in the power basis."""

    def __init__(self, f: Poly, basis: tuple[tuple[Fraction, ...], ...], disc: int,
                 denom: int, roots: list[IsolatedRoot], precision_cap: int = PREC_CAP):
        self.f = f
        self.n = f.degree
        self.basis = basis
        self.disc = disc
        self.denom = denom
        self.roots = roots
        self.precision_cap = precision_cap
        inv, _ = _invert_matrix([list(r) for r in basis])
        self._basis_inv_cols = inv
        self._emb: dict[int, _Embeddings] = {}
        # 2^e, e = n(n-1)/2: the largest right-hand side of any index-form bound
        self._index_limit = 2 ** (self.n * (self.n - 1) // 2)
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

    def from_power_coeffs(self, pcoeffs) -> tuple[Fraction, ...]:
        pc = list(pcoeffs) + [Fraction(0)] * (self.n - len(pcoeffs))
        inv = self._basis_inv_cols
        return tuple(
            sum((pc[i] * inv[i][j] for i in range(self.n)), Fraction(0))
            for j in range(self.n)
        )

    def multiply_coords(self, c1, c2) -> tuple[Fraction, ...]:
        p1 = Poly(self.to_power_coeffs(c1))
        p2 = Poly(self.to_power_coeffs(c2))
        _, rem = divmod_q(p1 * p2, self.f)
        return self.from_power_coeffs([Fraction(c) for c in rem.coeffs])

    # -- exact invariants ----------------------------------------------------

    def _scaled_char_resultant(self, coords) -> tuple[Poly, int]:
        """(R, D) with char_alpha(t) = R(D*t) / D^n, R monic integer."""
        h = Poly(self.to_power_coeffs(coords))
        b, d = clear_denominators(h)
        if b.degree <= 0:
            c = b.coeffs[0] if b.coeffs else 0
            return Poly([-c, 1]) ** self.n, d
        entries = [Poly([-bj]) for bj in b.coeffs]
        entries[0] = Poly([-b.coeffs[0], 1])
        r = resultant(self.f, Poly(entries))
        if not (isinstance(r, Poly) and r.degree == self.n and r.lc == 1):
            raise InternalInvariantError("characteristic resultant is not monic of full degree")
        return r, d

    def char_poly(self, coords) -> Poly:
        """Monic characteristic polynomial (degree n) of the element."""
        return unscale_char_poly(*self._scaled_char_resultant(coords))

    def element_norm(self, coords) -> int:
        if not all(isinstance(c, int) for c in coords):
            raise ValidationError("norm requires integral coordinates")
        r, d = self._scaled_char_resultant(coords)
        num = r.coeffs[0] if r.coeffs else 0
        if self.n % 2:
            num = -num
        q, rem = divmod(num, d**self.n)
        if rem:
            raise InternalInvariantError("norm of an integral element is not an integer")
        return q

    def element_index(self, xs) -> int:
        """Index |Z_L : Z[alpha]|-style invariant of alpha = sum xs[i]*basis[i+1].

        Zero exactly when the element generates a proper subfield.
        """
        if len(xs) != self.n - 1:
            raise ValidationError(f"expected {self.n - 1} coordinates, got {len(xs)}")
        if not all(isinstance(c, int) for c in xs):
            raise ValidationError("index requires integral coordinates")
        r, d = self._scaled_char_resultant((0, *xs))
        return index_from_char_resultant(r, d, self.disc)

    # -- certified-interval machinery -----------------------------------------

    def embeddings(self, prec: int) -> _Embeddings:
        emb = self._emb.get(prec)
        if emb is None:
            emb = self._emb[prec] = _Embeddings(self, prec)
        return emb

    def index_form_interval(self, xs, prec: int) -> RealInterval:
        """Enclosure of the signed index form at xs (true value is an integer)."""
        emb = self.embeddings(prec)
        prod = emb.recip_sqrt_disc
        for diffs in emb.diffs:
            prod = prod * int_combination(diffs, xs)
        return prod

    def _certified_index_value(self, xs) -> int:
        def task(prec):
            return self.index_form_interval(xs, prec).certify_integer(must=True)

        return escalate(task, start=PREC_START, cap=self.precision_cap)

    # -- box sweeps ------------------------------------------------------------

    def _canonical_box(self, radius: int):
        for vec in itertools.product(range(-radius, radius + 1), repeat=self.n - 1):
            lead = next((v for v in vec if v != 0), None)
            if lead is not None and lead > 0:
                yield vec

    def _small_index_table(self, radius: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Every box vector with |index| <= 2^e, e = n(n-1)/2, as sorted (xs, index).

        One sweep per radius serves every query.  One representative per
        sign orbit (first nonzero coordinate positive); each survivor of the
        interval prefilter is confirmed with the exact index.
        """
        hit = self._sweep_cache.get(radius)
        if hit is not None:
            return hit
        found = []
        for xs in self._canonical_box(radius):
            k = abs(self._certified_index_value(xs))
            if k <= self._index_limit:
                if self.element_index(xs) != k:
                    raise InternalInvariantError("certified index disagrees with exact index")
                found.append((xs, k))
        out = self._sweep_cache[radius] = tuple(sorted(found))
        return out

    def enumerate_bounded_index(self, bound: int, radius: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """All coordinate vectors in the box with 1 <= index <= bound <= 2^e, sorted."""
        if bound > self._index_limit:
            raise ValidationError(f"index bound {bound} exceeds 2^e for degree {self.n}")
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


def validate_precision_cap(precision_cap) -> None:
    if not isinstance(precision_cap, int) or isinstance(precision_cap, bool) \
            or precision_cap < PREC_START:
        raise ValidationError(f"precision cap must be an integer >= {PREC_START} bits")


def make_field(poly_coeffs, basis_rows, expected_disc: int | None = None,
               precision_cap: int = PREC_CAP) -> NumberField:
    """Build and validate a totally real field with the given integral basis.

    Checks: monic integer defining polynomial, irreducibility, all roots real,
    basis starting at 1 with invertible rational rows, multiplicative closure
    of the spanned order, and (optionally) an expected discriminant.  The
    basis is trusted to span the maximal order; closure and discriminant
    agreement are the verifiable parts of that claim.
    """
    validate_precision_cap(precision_cap)
    try:
        f = poly_from_ints(poly_coeffs)
    except (TypeError, ValueError):
        raise ValidationError("defining polynomial must have integer coefficients")
    n = f.degree
    if n < 2:
        raise ValidationError("defining polynomial must have degree >= 2")
    if f.lc != 1:
        raise ValidationError("defining polynomial must be monic")
    _check_irreducible(f)
    if sturm_real_root_count(f) != n:
        raise ValidationError("defining polynomial is not totally real")

    rows = []
    for row in basis_rows:
        rows.append(tuple(Fraction(c) for c in row))
        if len(rows[-1]) != n:
            raise ValidationError("integral basis rows must have length equal to the degree")
    if len(rows) != n:
        raise ValidationError("integral basis must have one row per degree")
    if rows[0] != tuple(Fraction(int(i == 0)) for i in range(n)):
        raise ValidationError("first integral basis element must be 1")
    _, det = _invert_matrix([list(r) for r in rows])

    disc_f = discriminant(f)
    disc_fr = Fraction(disc_f) * det * det
    if disc_fr.denominator != 1:
        raise ValidationError("basis change does not yield an integral discriminant")
    disc = int(disc_fr)
    if disc <= 0:
        raise InternalInvariantError("totally real field with non-positive discriminant")
    if expected_disc is not None and disc != expected_disc:
        raise ValidationError(f"discriminant mismatch: computed {disc}, expected {expected_disc}")

    denom = 1
    for row in rows:
        for c in row:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)

    field = NumberField(f, tuple(rows), disc, denom,
                        isolate_real_roots(f), precision_cap=precision_cap)

    # ring closure: all basis products must have integral coordinates
    for i in range(n):
        for j in range(i, n):
            ci = [int(k == i) for k in range(n)]
            cj = [int(k == j) for k in range(n)]
            prod = field.multiply_coords(ci, cj)
            if any(c.denominator != 1 for c in prod):
                raise ValidationError(
                    f"integral basis is not multiplicatively closed (product {i},{j})"
                )
    return field


def field_from_dict(data: dict, precision_cap: int = PREC_CAP) -> NumberField:
    """Field from a JSON-style description {"poly": [...], "basis": [[...]], ...}."""
    if "poly" not in data or "basis" not in data:
        raise ValidationError("field description needs 'poly' and 'basis'")
    basis = [[Fraction(str(c)) for c in row] for row in data["basis"]]
    return make_field(data["poly"], basis, expected_disc=data.get("expected_disc"),
                      precision_cap=precision_cap)
