"""Exact univariate polynomial arithmetic over int, Fraction, or nested Poly.

Coefficients are stored dense in ascending order (constant term first, the
same layout the CLI uses for field descriptions).  Resultants go through the
Sylvester matrix (rows of the first argument first) with Bareiss fraction-free
elimination, so entries may themselves be polynomials; every division along
the way is exact and asserted.  Discriminants take the same elimination on
the smaller Hankel matrix of the roots' power sums, which Newton's identities
give in integers.

Real roots of squarefree integer polynomials live on one dyadic grid: every
endpoint is an integer numerator over a power of two, from the Cauchy box
[-B, B] through isolation and refinement.  Isolation subdivides the box with
a Sturm chain of integer pseudo-remainders (whose last member also certifies
that the polynomial is squarefree); a midpoint where the polynomial vanishes
is an exact root.  Refinement on demand jumps many bisection levels at once
to the cell that a secant guess picks, checked by the signs at the cell's
two ends (quadratic interval refinement, J. Abbott, ACM Commun. Comput.
Algebra 2014), and bisects where a jump misses; either way it ends in the
cell that plain bisection would reach.
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

    def evaluate(self, x):
        """Horner evaluation at an int, a Fraction, or (integer coefficients) a RealInterval."""
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
    """Poly of a list of ints; any other coefficient, bool included, is rejected."""
    if not isinstance(coeffs, (list, tuple)) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in coeffs):
        raise ValidationError("defining polynomial must have integer coefficients")
    return Poly(coeffs)


def clear_denominators(p: Poly) -> tuple[Poly, int]:
    """Smallest positive den with den*p integral; returns (den*p, den)."""
    if all(isinstance(c, int) for c in p.coeffs):
        return p, 1
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
    """lc(p)^(2n-2) * prod_{i<j} (r_i - r_j)^2 for integer or rational p.

    The elimination runs on g = D*p, D the least common denominator, with
    leading coefficient c: disc(p) = disc(g) / D^(2n-2), an int when D = 1.
    With V the Vandermonde matrix of the roots r_i of g, V^T V is the
    Hankel matrix [p_(i+j)] of their power sums p_k, so
    disc(g) = c^(2n-2) * det[p_(i+j)] (Cohen, GTM 138).  The c*r_i are the
    roots of the monic integer polynomial c^(n-1) * g(t/c), so Newton's
    identities give their power sums q_k = c^k * p_k, k <= 2n-2, in integer
    steps.  Row i and column j of [q_(i+j)] carry c^i and c^j, so
    det[q_(i+j)] = c^(n(n-1)) * det[p_(i+j)] = c^((n-1)(n-2)) * disc(g).
    The division by c^((n-1)(n-2)) is exact because disc(g), a polynomial
    in the coefficients of g with integer coefficients, is an integer.
    """
    n = p.degree
    if n < 1:
        raise ValidationError("discriminant needs degree >= 1")
    g, den = clear_denominators(p)
    c = g.lc
    # a[k] is the coefficient of t^(n-k) in c^(n-1) * g(t/c), k = 1..n
    a = [1]
    scale = 1
    for k in range(1, n + 1):
        a.append(scale * g.coeffs[n - k])
        scale *= c
    # Newton: q_k + a_1*q_(k-1) + ... + a_(k-1)*q_1 + k*a_k = 0, a_k = 0 past n
    q = [n]
    for k in range(1, 2 * n - 1):
        s = k * a[k] if k <= n else 0
        for i in range(max(1, k - n), k):
            s += a[k - i] * q[i]
        q.append(-s)
    hankel = [q[i:i + n] for i in range(n)]
    disc = _exact_div_elem(_bareiss_det(hankel, 0), c ** ((n - 1) * (n - 2)))
    return disc if den == 1 else Fraction(disc, den ** (2 * n - 2))


# -- real roots: Sturm chains over Z --------------------------------------


def cauchy_root_bound(p: Poly) -> int:
    """Integer B with every real root of p strictly inside (-B, B)."""
    if p.degree < 1:
        raise ValidationError("root bound needs degree >= 1")
    return 2 + max(abs(c) for c in p.coeffs[:-1]) // abs(p.lc)


def _sign_int(v: int) -> int:
    return (v > 0) - (v < 0)


def _value_at(coeffs: list[int], num: int, shift: int) -> int:
    """2^(shift*deg) * p(num/2^shift): an integer with the sign of p there."""
    acc = 0
    sh = 0
    for c in reversed(coeffs):
        acc = acc * num + (c << sh)
        sh += shift
    return acc


def _sign_at(coeffs: list[int], num: int, shift: int) -> int:
    """Sign of the integer polynomial at num/2^shift."""
    return _sign_int(_value_at(coeffs, num, shift))


def _primitive(coeffs: list[int]) -> list[int]:
    """Divide out the positive content, keeping the sign of every coefficient."""
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    return [c // g for c in coeffs]


def _neg_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of -(a mod b), scaled by a positive rational.

    Each pseudo-division step multiplies the running remainder by a positive
    factor |lc(b)|/g only, so the result keeps the sign of the rational
    remainder's negation.  Empty when b divides a.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    sb = 1 if lb > 0 else -1
    while len(r) - 1 >= db:
        c = r[-1]
        if c:
            g = math.gcd(c, lb)
            m, q = abs(lb) // g, sb * c // g
            sh = len(r) - 1 - db
            if m != 1:
                r = [v * m for v in r]
            for i, bc in enumerate(b):
                r[sh + i] -= q * bc
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return _primitive([-v for v in r]) if r else []


def _sturm_chain_int(coeffs: list[int]) -> list[list[int]]:
    """Sturm chain of an integer polynomial by integer pseudo-remainders.

    Every member is the primitive part of the rational Sturm chain's member,
    with the same sign (pseudo-division and Sturm sequences as in Cohen,
    GTM 138).  The last member is gcd(f, f') up to a constant, so f is
    squarefree exactly when it is a constant.
    """
    chain = [coeffs, _primitive([i * c for i, c in enumerate(coeffs)][1:])]
    while len(chain[-1]) > 1:
        rem = _neg_pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


# up to this many levels, bisection costs no more evaluations than jumps
_JUMP_MIN_STEPS = 8


class IsolatedRoot:
    """One simple real root of an integer polynomial, refinable on demand.

    The endpoints are integer numerators on the dyadic grid of level
    _shift: lo = _lo / 2^_shift and hi = _hi / 2^_shift, the grid that
    ``isolate_real_roots`` subdivides.  Refinement ends in the state that
    bisection by midpoints (_lo + _hi) / 2^(_shift + 1) would reach:
    checked jumps (``_jump``) cover k bisection levels with O(log k)
    homogenised Horner sums, and bisection steps finish what a jump leaves
    when it meets the root at a cell end, so an exact state matches too.
    All of it is integer additions, shifts and products, with no gcd;
    ``lo`` and ``hi`` read back as reduced Fractions.  For a non-exact root,
    lo < root < hi and the polynomial changes sign between the endpoints;
    for an exact (rational) root, lo == hi == root.
    """

    __slots__ = ("coeffs", "_lo", "_hi", "_shift", "exact", "_sign_lo")

    def __init__(self, coeffs: list[int], lo: int, hi: int, shift: int, exact: bool):
        self.coeffs = coeffs
        self._lo, self._hi, self._shift = lo, hi, shift
        self.exact = exact
        self._sign_lo = 0 if exact else _sign_at(coeffs, lo, shift)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, 1 << self._shift)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, 1 << self._shift)

    def width(self) -> Fraction:
        return Fraction(self._hi - self._lo, 1 << self._shift)

    def refine_to(self, width: Fraction) -> None:
        """Narrow until hi - lo <= width, ending where bisection would.

        Bisection would take the k steps with gap <= limit * 2^k; the
        checked jumps cover them, and bisection steps cover whatever the
        jumps leave, one bit each, until a midpoint is the root.
        """
        if width <= 0:
            raise ValidationError("refinement width must be positive")
        if self.exact:
            return
        # a step keeps hi - lo as the numerator and doubles the denominator
        gap = (self._hi - self._lo) * width.denominator
        limit = width.numerator << self._shift
        k = max(gap.bit_length() - limit.bit_length(), 0)
        if limit << k < gap:
            k += 1
        if k > _JUMP_MIN_STEPS:
            self._jump(k)
            limit = width.numerator << self._shift
        coeffs, sign_lo = self.coeffs, self._sign_lo
        lo, hi, shift = self._lo, self._hi, self._shift
        while gap > limit:
            mid = lo + hi
            shift += 1
            limit <<= 1
            s = _sign_at(coeffs, mid, shift)
            if s == 0:
                lo = hi = mid
                self.exact = True
                break
            if s == sign_lo:
                lo, hi = mid, hi << 1
            else:
                lo, hi = lo << 1, mid
        self._lo, self._hi, self._shift = lo, hi, shift

    def _jump(self, k: int) -> None:
        """Advance up to k bisection levels by checked cell jumps.

        A jump of m levels splits [lo, hi] into 2^m cells and picks the cell
        next to the grid point nearest the secant root of the endpoint
        values.  It is taken only if the polynomial has the sign of lo at
        the cell's left end and the opposite sign at its right end; then m
        doubles, and after a miss it halves.  At m = 1 the pick is the
        midpoint, a bisection step.  Stops early if a cell endpoint is the
        root.
        """
        coeffs, sign_lo = self.coeffs, self._sign_lo
        lo, hi, shift = self._lo, self._hi, self._shift
        gap = hi - lo               # the numerator gap, the same at every level
        deg = len(coeffs) - 1
        # homogenised values at the current level; one level down multiplies
        # an old point's value by 2^deg
        f_lo = _value_at(coeffs, lo, shift)
        f_hi = _value_at(coeffs, hi, shift)

        def value(i: int, step: int) -> int:
            # the value at grid point i of the 2^step cells of [lo, hi]
            if i == 0:
                return f_lo << (deg * step)
            if i == 1 << step:
                return f_hi << (deg * step)
            return _value_at(coeffs, (lo << step) + i * gap, shift + step)

        m = 1
        while k:
            step = min(m, k)
            if step == 1:
                g = 1
            else:
                a, b = abs(f_lo), abs(f_hi)
                g = ((2 * a << step) + a + b) // (2 * (a + b))
            vg = value(g, step)
            if vg == 0:
                break
            if _sign_int(vg) == sign_lo:
                i, va, vb = g, vg, value(g + 1, step)
            else:
                i, va, vb = g - 1, value(g - 1, step), vg
            if va == 0 or vb == 0:
                break
            if _sign_int(va) == sign_lo and _sign_int(vb) == -sign_lo:
                lo = (lo << step) + i * gap
                hi = lo + gap
                shift += step
                f_lo, f_hi = va, vb
                k -= step
                m = step << 1
            else:
                m = step >> 1
        self._lo, self._hi, self._shift = lo, hi, shift

    def to_interval(self, prec: int) -> RealInterval:
        self.refine_to(Fraction(1, 1 << prec))
        return RealInterval((self._lo << prec) >> self._shift,
                            -((-self._hi << prec) >> self._shift), prec)

    def __repr__(self):
        mid = (self.lo + self.hi) / 2
        tag = "exact" if self.exact else f"width {float(self.width()):.3g}"
        return f"IsolatedRoot({float(mid):.6g}, {tag})"


_NOT_SQUAREFREE = "root isolation requires a squarefree polynomial"


def isolate_real_roots(p: Poly) -> list[IsolatedRoot]:
    """Disjoint enclosures of all real roots of a squarefree polynomial, sorted.

    Sturm subdivision of the Cauchy box [-B, B] on the dyadic grid: a cell
    is [lo, hi] / 2^shift with integer numerators, and carries the chain's
    sign variations V and the sign of p at both ends.  V(lo) - V(hi) counts
    the roots in (lo, hi], so a midpoint where p vanishes becomes an exact
    root in place.  A cell with one root inside and none at either end is
    an enclosure; a cell with more, or with a root at an end, is split.
    """
    if p.degree < 1:
        raise ValidationError("root isolation needs degree >= 1")
    coeffs = _primitive(list(clear_denominators(p)[0].coeffs))
    chain = _sturm_chain_int(coeffs)
    if len(chain[-1]) > 1:
        raise ValidationError(_NOT_SQUAREFREE)

    def at(num: int, shift: int) -> tuple[int, int]:
        signs = [_sign_at(c, num, shift) for c in chain]
        return _variations(signs), signs[0]

    bound = cauchy_root_bound(Poly(coeffs))
    roots = []
    stack = [(-bound, bound, 0, *at(-bound, 0), *at(bound, 0))]
    while stack:
        lo, hi, shift, v_lo, s_lo, v_hi, s_hi = stack.pop()
        inside = v_lo - v_hi - (s_hi == 0)      # roots strictly between the ends
        if inside == 0:
            continue
        if inside == 1 and s_lo and s_hi:
            roots.append(IsolatedRoot(coeffs, lo, hi, shift, False))
            continue
        mid, shift = lo + hi, shift + 1
        v_mid, s_mid = at(mid, shift)
        if s_mid == 0:
            roots.append(IsolatedRoot(coeffs, mid, mid, shift, True))
        stack.append((lo << 1, mid, shift, v_lo, s_lo, v_mid, s_mid))
        stack.append((mid, hi << 1, shift, v_mid, s_mid, v_hi, s_hi))

    roots.sort(key=lambda r: r.lo + r.hi)
    for left, right in zip(roots, roots[1:]):
        while max(left.lo, right.lo) <= min(left.hi, right.hi):
            for r in (left, right):
                if not r.exact:
                    r.refine_to(r.width() / 4)
    return roots
