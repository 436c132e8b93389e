"""Exact univariate polynomial arithmetic over int, Fraction, or nested Poly.

Coefficients are stored dense in ascending order (constant term first, the
same layout the CLI uses for field descriptions).  Resultants go through the
Sylvester matrix (rows of the first argument first) with Bareiss fraction-free
elimination, so entries may themselves be polynomials; every division along
the way is exact and asserted.

Real roots of squarefree integer polynomials are isolated with a Sturm chain
plus sign bisection and can be refined on demand to any width; refinement
bisects integer numerators over a shared denominator, so every endpoint
stays an exact rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalInvariantError, ValidationError
from .intervals import RealInterval


def _is_zero_elem(c) -> bool:
    return c.is_zero() if isinstance(c, Poly) else c == 0


def _exact_div_elem(a, b):
    if isinstance(b, int) and b == 1:
        return a
    if isinstance(a, Poly):
        return a.exact_div(b)
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise InternalInvariantError("inexact integer division in elimination")
        return q
    return a / b


class Poly:
    """Dense univariate polynomial; leading zeros are stripped on build."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and _is_zero_elem(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise InternalInvariantError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
            return Poly(out)
        if not self.coeffs:
            return Poly([other])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                p = a * b
                k = i + j
                out[k] = p if out[k] is None else out[k] + p
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InternalInvariantError("negative polynomial power")
        out = Poly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> Poly:
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Horner evaluation; x may be an int, Fraction, or RealInterval."""
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn) -> Poly:
        return Poly([fn(c) for c in self.coeffs])

    def exact_div(self, other):
        """Division known to be exact; raises on any nonzero remainder."""
        if not isinstance(other, Poly):
            return Poly([_exact_div_elem(c, other) for c in self.coeffs])
        if other.is_zero():
            raise InternalInvariantError("division by zero polynomial")
        rem = list(self.coeffs)
        dlc = other.lc
        dd = other.degree
        qcoeffs = [None] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and any(not _is_zero_elem(c) for c in rem):
            while rem and _is_zero_elem(rem[-1]):
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            q = _exact_div_elem(rem[-1], dlc)
            qcoeffs[shift] = q
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - q * c
        if any(not _is_zero_elem(c) for c in rem):
            raise InternalInvariantError("inexact polynomial division in elimination")
        zero = dlc * 0
        return Poly([zero if q is None else q for q in qcoeffs])


def poly_from_ints(coeffs) -> Poly:
    return Poly([int(c) for c in coeffs])


def to_fraction_poly(p: Poly) -> Poly:
    return p.map_coeffs(lambda c: Fraction(c))


def clear_denominators(p: Poly) -> tuple[Poly, int]:
    """Smallest positive den with den*p integral; returns (den*p, den)."""
    den = 1
    for c in p.coeffs:
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    out = Poly([int(c * den) for c in p.map_coeffs(Fraction).coeffs] or [])
    return out, den


def poly_mod_monic(p: Poly, f: Poly) -> Poly:
    """Remainder of p modulo a monic f, staying in the coefficient ring."""
    if f.is_zero() or f.lc != 1:
        raise InternalInvariantError("modulus must be monic")
    df = f.degree
    rem = list(p.coeffs)
    while len(rem) - 1 >= df:
        c = rem[-1]
        if not _is_zero_elem(c):
            sh = len(rem) - 1 - df
            for i, fc in enumerate(f.coeffs[:-1]):
                rem[sh + i] = rem[sh + i] - c * fc
        rem.pop()
    return Poly(rem)


# -- resultants -------------------------------------------------------------


def _bareiss_det(mat, zero):
    n = len(mat)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = k
        while piv < n and _is_zero_elem(mat[piv][k]):
            piv += 1
        if piv == n:
            return zero
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        pkk = mat[k][k]
        row_k = mat[k]
        for i in range(k + 1, n):
            row_i = mat[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = _exact_div_elem(pkk * row_i[j] - mik * row_k[j], prev)
            row_i[k] = zero
        prev = pkk
    det = mat[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant(p: Poly, q: Poly):
    """Res(p, q) as the Sylvester determinant with the rows of p on top.

    Entries may be ints, Fractions, or nested Poly values; the elimination is
    fraction-free either way.  Res(x-1, x+1) = 2 fixes the sign convention.
    """
    if p.is_zero() and q.is_zero():
        raise ValidationError("resultant of two zero polynomials")
    if p.is_zero() or q.is_zero():
        return 0
    m, n = p.degree, q.degree
    size = m + n
    if size == 0:
        return 1
    zero = p.lc * 0
    pd = list(reversed(p.coeffs))
    qd = list(reversed(q.coeffs))
    mat = []
    for i in range(n):
        mat.append([zero] * i + pd + [zero] * (size - m - 1 - i))
    for i in range(m):
        mat.append([zero] * i + qd + [zero] * (size - n - 1 - i))
    return _bareiss_det(mat, zero)


def discriminant(p: Poly):
    """(-1)^(n(n-1)/2) Res(p, p') / lc(p)."""
    n = p.degree
    if n < 1:
        raise ValidationError("discriminant needs degree >= 1")
    r = resultant(p, p.derivative())
    if _is_zero_elem(r):
        return r
    if (n * (n - 1) // 2) % 2:
        r = -r
    return _exact_div_elem(r, p.lc)


# -- gcd and Sturm machinery over Q -----------------------------------------


def divmod_q(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over the rationals."""
    if d.is_zero():
        raise InternalInvariantError("polynomial division by zero")
    rem = [Fraction(c) for c in p.coeffs]
    dc = [Fraction(c) for c in d.coeffs]
    dd = len(dc) - 1
    qs = [Fraction(0)] * max(len(rem) - dd, 0)
    while len(rem) - 1 >= dd:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        shift = len(rem) - 1 - dd
        q = rem[-1] / dc[-1]
        qs[shift] = q
        for i, c in enumerate(dc):
            rem[shift + i] -= q * c
    return Poly(qs), Poly(rem)


def gcd_q(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q (a nonzero constant becomes 1)."""
    a, b = to_fraction_poly(p), to_fraction_poly(q)
    while not b.is_zero():
        a, b = b, divmod_q(a, b)[1]
    if a.is_zero():
        return a
    return a.map_coeffs(lambda c: c / a.lc)


def is_squarefree_poly(p: Poly) -> bool:
    return gcd_q(p, p.derivative()).degree <= 0


def cauchy_root_bound(p: Poly) -> int:
    """Integer B with every real root of p strictly inside (-B, B)."""
    if p.degree < 1:
        raise ValidationError("root bound needs degree >= 1")
    fr = [Fraction(c) for c in p.coeffs]
    lc = abs(fr[-1])
    m = max(abs(c) for c in fr[:-1]) if len(fr) > 1 else Fraction(0)
    return 1 + int(m / lc) + 1


def _sign_int(v: int) -> int:
    return (v > 0) - (v < 0)


def _sign_at(coeffs: list[int], num: int, den: int, shift: int = 0) -> int:
    """Sign of the integer polynomial at num/(den*2^shift), for any den > 0."""
    # acc ends up as (den*2^shift)^deg * p(x), an integer with the sign of p(x)
    acc = 0
    dp = 1
    sh = 0
    for c in reversed(coeffs):
        acc = acc * num + ((c * dp) << sh)
        dp *= den
        sh += shift
    return _sign_int(acc)


def _primitive_int_poly(p: Poly) -> list[int]:
    q, _ = clear_denominators(to_fraction_poly(p))
    g = 0
    for c in q.coeffs:
        g = math.gcd(g, abs(c))
    if g == 0:
        return []
    return [c // g for c in q.coeffs]


def _sturm_chain_int(coeffs: list[int]) -> list[list[int]]:
    """Sturm chain of a squarefree integer polynomial, members primitive."""
    chain = [Poly(coeffs), Poly(coeffs).derivative()]
    while chain[-1].degree > 0:
        rem = divmod_q(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    out = []
    for member in chain:
        if member.is_zero():
            continue
        ints = _primitive_int_poly(member)
        if member.lc * ints[-1] < 0:
            ints = [-c for c in ints]
        out.append(ints)
    return out


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _chain_variations_at(chain: list[list[int]], x: Fraction) -> int:
    return _variations([_sign_at(c, x.numerator, x.denominator) for c in chain])


def sturm_real_root_count(p: Poly) -> int:
    """Number of real roots of a squarefree polynomial."""
    if p.degree < 1:
        return 0
    if not is_squarefree_poly(p):
        raise ValidationError("Sturm count requires a squarefree polynomial")
    chain = _sturm_chain_int(_primitive_int_poly(p))
    at_neg = _variations([c[-1] * (-1) ** (len(c) - 1) for c in chain])
    at_pos = _variations([c[-1] for c in chain])
    return at_neg - at_pos


class IsolatedRoot:
    """One simple real root of an integer polynomial, refinable on demand.

    The endpoints are integer numerators over one shared positive
    denominator, lo = _lo/q and hi = _hi/q with q = _den * 2^_shift.  A
    bisection step takes the midpoint (_lo + _hi)/(2q) and adds one to
    _shift, so it costs integer additions, shifts and one homogenised Horner
    sum, with no gcd; ``lo`` and ``hi`` read back as reduced Fractions.  For
    a non-exact root, lo < root < hi and the polynomial changes sign between
    the endpoints; for an exact (rational) root, lo == hi == root.
    """

    __slots__ = ("coeffs", "_lo", "_hi", "_den", "_shift", "exact", "_sign_lo")

    def __init__(self, coeffs: list[int], lo: Fraction, hi: Fraction, exact: bool):
        q = math.lcm(lo.denominator, hi.denominator)
        shift = (q & -q).bit_length() - 1
        self.coeffs = coeffs
        self._lo = lo.numerator * (q // lo.denominator)
        self._hi = hi.numerator * (q // hi.denominator)
        self._den = q >> shift
        self._shift = shift
        self.exact = exact
        self._sign_lo = 0 if exact else _sign_at(coeffs, self._lo, self._den, shift)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, self._den << self._shift)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, self._den << self._shift)

    def width(self) -> Fraction:
        return Fraction(self._hi - self._lo, self._den << self._shift)

    def refine_to(self, width: Fraction) -> None:
        """Bisect until hi - lo <= width, or until a midpoint is the root."""
        if width <= 0:
            raise ValidationError("refinement width must be positive")
        if self.exact:
            return
        coeffs, sign_lo, den = self.coeffs, self._sign_lo, self._den
        lo, hi, shift = self._lo, self._hi, self._shift
        # a step keeps hi - lo as the numerator and doubles the denominator
        gap = (hi - lo) * width.denominator
        limit = (width.numerator * den) << shift
        while gap > limit:
            mid = lo + hi
            shift += 1
            limit <<= 1
            s = _sign_at(coeffs, mid, den, shift)
            if s == 0:
                lo = hi = mid
                self.exact = True
                break
            if s == sign_lo:
                lo, hi = mid, hi << 1
            else:
                lo, hi = lo << 1, mid
        self._lo, self._hi, self._shift = lo, hi, shift

    def excludes(self, fr: Fraction) -> bool:
        return fr < self.lo or fr > self.hi

    def to_interval(self, prec: int) -> RealInterval:
        self.refine_to(Fraction(1, 1 << prec))
        q = self._den << self._shift
        return RealInterval((self._lo << prec) // q, -(-(self._hi << prec) // q), prec)

    def __repr__(self):
        mid = (self.lo + self.hi) / 2
        tag = "exact" if self.exact else f"width {float(self.width()):.3g}"
        return f"IsolatedRoot({float(mid):.6g}, {tag})"


def isolate_real_roots(p: Poly, target_width: Fraction = Fraction(1, 1 << 32)) -> list[IsolatedRoot]:
    """Disjoint enclosures of all real roots of a squarefree polynomial.

    Rational roots found along the way collapse to exact points; the
    remaining enclosures are refined past target_width and until pairwise
    disjoint and sorted in increasing order.
    """
    if p.degree < 1:
        raise ValidationError("root isolation needs degree >= 1")
    if not is_squarefree_poly(p):
        raise ValidationError("root isolation requires a squarefree polynomial")

    coeffs = _primitive_int_poly(p)
    exact_roots: list[Fraction] = []

    # strip a root at zero so bisection never lands on a rational root twice
    if coeffs[0] == 0:
        exact_roots.append(Fraction(0))
        coeffs = coeffs[1:]

    while True:
        restart = False
        open_roots: list[IsolatedRoot] = []
        if len(coeffs) - 1 >= 1:
            chain = _sturm_chain_int(coeffs)
            bound = Fraction(cauchy_root_bound(Poly(coeffs)))
            vcache: dict[Fraction, int] = {}

            def var_at(x: Fraction) -> int:
                if x not in vcache:
                    vcache[x] = _chain_variations_at(chain, x)
                return vcache[x]

            stack = [(-bound, bound)]
            while stack:
                a, b = stack.pop()
                count = var_at(a) - var_at(b)
                if count == 0:
                    continue
                if count == 1:
                    open_roots.append(IsolatedRoot(coeffs, a, b, False))
                    continue
                mid = (a + b) / 2
                if _sign_at(coeffs, mid.numerator, mid.denominator) == 0:
                    # rational root hit: peel it off and isolate the rest afresh
                    exact_roots.append(mid)
                    quot, rem = divmod_q(Poly(coeffs), Poly([-mid, Fraction(1)]))
                    if not rem.is_zero():
                        raise InternalInvariantError("deflation by a certified root left a remainder")
                    coeffs = _primitive_int_poly(quot)
                    restart = True
                    break
                stack.append((a, mid))
                stack.append((mid, b))
        if not restart:
            break

    roots = [IsolatedRoot(coeffs or [1], r, r, True) for r in exact_roots]
    for r in open_roots:
        r.refine_to(target_width)
        for ex in exact_roots:
            while not r.exact and not r.excludes(ex):
                r.refine_to(r.width() / 4)
        roots.append(r)
    roots.sort(key=lambda r: r.lo + r.hi)
    for left, right in zip(roots, roots[1:]):
        while max(left.lo, right.lo) <= min(left.hi, right.hi):
            for r in (left, right):
                if not r.exact:
                    r.refine_to(r.width() / 4)
    return roots
