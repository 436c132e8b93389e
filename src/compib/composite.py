"""Composite fields K = L*M of a totally real field and an imaginary quadratic field.

Elements are written alpha = beta + omega*gamma with beta, gamma in L given by
integral coordinates (x_1..x_n) and (y_1..y_n) over the basis of L; the field
basis of K is (1, l_2..l_n, omega, omega*l_2..omega*l_n), valid whenever
gcd(D_L, D_M) = 1, and D_K = D_M^n * D_L^2.

The index of alpha factors exactly as

    index(alpha) = |N_{M/Q}(I_rel)| * |N_{L/Q}(gamma)| * |F|

where I_rel is the relative index form evaluated at X_i = x_i + omega*y_i and
F collects the cross differences between the two complex embedding families.
``composite_index`` computes the left side from the discriminant of an exact
characteristic polynomial R of degree 2n, the 2n-square Hankel determinant of
R's power sums.  eq2 is L's exact norm of gamma, and eq1 and F are certified
independently with interval arithmetic, which gives a nontrivial identity
to test end to end.

eq1 and F are integer forms in integer data.  Over each of the e = n(n-1)/2
pairs of L's conjugates, with dx, dy the x and y differences and w the y
difference (eq1) or sum (F), the factor is the bracket
(dx + Re(omega)*dy)^2 + Im(omega)^2 * w^2, and 4 * bracket =
(2*dx + s1*dy)^2 + |D_M| * w^2.  The embeddings enclose denom times each
conjugate, so the product of these integer brackets is c * D_L * eq1 or
c * |F| for c = (4*denom^2)^e, certified as a multiple of its scale.

For the characteristic polynomial the relative norm to L is taken first:
N_{K/L}(t - alpha) = t^2 - (2*beta + s1*gamma)*t + (beta^2 + s1*beta*gamma
+ s0*gamma^2) with s1, s0 the trace and norm of omega, and x is then
eliminated by a resultant with f.  The unscaling and the index tail are the
ones of ``numberfield``, shared with ``NumberField``.
"""

from __future__ import annotations

import math

from .errors import CoprimalityError, InternalInvariantError
from .intervals import escalate, int_combination
from .imquad import ImagQuadField
from .numberfield import (NumberField, _dot, check_int_coords, index_from_char_resultant,
                          unscale_char_poly)
from .polynomials import Poly, poly_mod_monic, resultant


class CompositeField:
    """K = L*M with coprime discriminants and the product integral basis."""

    def __init__(self, L: NumberField, M: ImagQuadField):
        self.L = L
        self.M = M
        self.n = L.n
        self.disc = M.disc**L.n * L.disc**2
        # the product of the integer brackets is this times D_L*eq1, or |F|
        self._pair_scale = (4 * L.denom**2) ** (self.n * (self.n - 1) // 2)

    def __repr__(self):
        return f"CompositeField(n={self.n}, d={self.M.d}, disc={self.disc})"

    # -- coordinates ----------------------------------------------------------

    def _check_coords(self, xs, ys) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return check_int_coords(xs, self.n), check_int_coords(ys, self.n)

    def _int_scaled_power(self, coords) -> Poly:
        """Power-basis polynomial of denom * (sum coords[i] * basis[i]), integer."""
        return Poly([_dot(coords, col) for col in zip(*self.L.scaled_basis)])

    # -- exact invariants -------------------------------------------------------

    def _scaled_char_resultant(self, xs, ys) -> tuple[Poly, int]:
        """(R, D) with char_alpha(t) = R(D*t) / D^(2n), R monic integer.

        R is the characteristic polynomial of D*alpha, obtained by eliminating
        x from the relative characteristic polynomial over L.
        """
        xs, ys = self._check_coords(xs, ys)
        L, M = self.L, self.M
        d = L.denom
        b = self._int_scaled_power(xs)
        g = self._int_scaled_power(ys)
        s1, s0 = M.omega_trace, M.omega_norm
        trace_poly = 2 * b + s1 * g
        norm_poly = poly_mod_monic(b * b + s1 * (b * g) + s0 * (g * g), L.f)
        # j = 0 always runs: alpha in Z[omega] gives (t^2 - a0*t + b0)^n
        deg = max(trace_poly.degree, norm_poly.degree, 0)
        entries = []
        for j in range(deg + 1):
            tj = trace_poly.coeffs[j] if j <= trace_poly.degree else 0
            nj = norm_poly.coeffs[j] if j <= norm_poly.degree else 0
            entries.append(Poly([nj, -tj, 1]) if j == 0 else Poly([nj, -tj]))
        r = resultant(L.f, Poly(entries))
        if not (isinstance(r, Poly) and r.degree == 2 * self.n and r.lc == 1):
            raise InternalInvariantError("composite characteristic resultant is not monic")
        return r, d

    def char_poly(self, xs, ys) -> Poly:
        """Monic characteristic polynomial of alpha over Q, degree 2n."""
        return unscale_char_poly(*self._scaled_char_resultant(xs, ys))

    def composite_index(self, xs, ys) -> int:
        """Index of alpha in Z_K; zero exactly when alpha is not primitive."""
        r, d = self._scaled_char_resultant(xs, ys)
        return index_from_char_resultant(r, d, self.disc)

    # -- certified factor computations -------------------------------------------

    def _pair_product(self, prec: int, xs, ys, cross: bool):
        """Product over L's conjugate pairs of (2*x + s1*y)^2 + |D_M| * w^2.

        x and y are denom times the pair differences of the x- and y-tails
        and s1 the trace of omega; w is denom times the y difference for eq1
        and, with ``cross`` set, the y sum plus 2*y_1 for F.
        """
        L = self.L
        emb = L.embeddings(prec)
        s1, abs_disc = self.M.omega_trace, -self.M.disc
        xt, yt = xs[1:], ys[1:]
        y1_twice = 2 * L.denom * ys[0]
        prod = None
        for diffs, sums in zip(emb.diffs, emb.sums):
            xd = int_combination(diffs, xt)
            yd = int_combination(diffs, yt)
            w = int_combination(sums, yt) + y1_twice if cross else yd
            re = xd * 2 + yd * s1 if s1 else xd * 2
            term = re * re + w * w * abs_disc
            prod = term if prod is None else prod * term
        return prod

    def factor_eq1(self, xs, ys) -> int:
        """N_{M/Q} of the relative index form; a non-negative integer."""
        xs, ys = self._check_coords(xs, ys)
        scale = self._pair_scale * self.L.disc
        return escalate(lambda prec: self._pair_product(prec, xs, ys, False).certify_integer(scale))

    def factor_eq2(self, ys) -> int:
        """N_{L/Q}(gamma) for the omega-part gamma."""
        return self.L.element_norm(ys)

    def factor_F(self, xs, ys) -> int:
        """Product of cross differences between the two embedding families.

        Pairing each (j1, j2) with (j2, j1) shows F = (-1)^e * (a product of
        squared moduli) with e = n(n-1)/2, so F is certified through real
        intervals only.
        """
        xs, ys = self._check_coords(xs, ys)
        e = self.n * (self.n - 1) // 2

        def task(prec):
            k = self._pair_product(prec, xs, ys, True).certify_integer(self._pair_scale)
            if k is None:
                return None
            return -k if e % 2 else k

        return escalate(task)

    def factorization(self, xs, ys) -> dict:
        """All three factors, the index, and the identity check in one report."""
        eq1 = self.factor_eq1(xs, ys)
        eq2 = self.factor_eq2(ys)
        fval = self.factor_F(xs, ys)
        idx = self.composite_index(xs, ys)
        if idx != abs(eq1) * abs(eq2) * abs(fval):
            raise InternalInvariantError("factor product disagrees with the exact index")
        return {"eq1": eq1, "eq2": eq2, "F": fval, "index": idx}


def make_composite(L: NumberField, M: ImagQuadField) -> CompositeField:
    """Validated composite; discriminants of L and M must be coprime."""
    g = math.gcd(L.disc, abs(M.disc))
    if g != 1:
        raise CoprimalityError(
            f"gcd(D_L, D_M) = {g} != 1 for D_L = {L.disc}, D_M = {M.disc}"
        )
    return CompositeField(L, M)

