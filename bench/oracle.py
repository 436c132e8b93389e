"""Independent computations for the benchmark's correctness checks (sympy).

Nothing here calls compib. A field enters only by its defining polynomial
and its integral basis rows, the data a user would give ``make_field``.
Invariants come from the matrix of multiplication by an element:

* characteristic polynomial: of that matrix (sympy ``DomainMatrix``);
* norm: its determinant;
* field discriminant: ``disc(f) * det(basis)^2``;
* index of an element: ``sqrt(disc(char) / D)``.

An element of ``K = L * Q(sqrt(-d))`` is ``beta + omega*gamma`` on the basis
``(1, omega)`` of the imaginary quadratic field, with ``omega = sqrt(-d)``
or ``(1 + sqrt(-d))/2`` when ``-d = 1 (mod 4)``.

This module is imported only after every timed and memory figure is taken:
sympy alone adds tens of MB of resident memory.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import QQ, Poly, Symbol, discriminant, factorint
from sympy.polys.matrices import DomainMatrix

_T = Symbol("t")


def _qq(fr) -> QQ:
    fr = Fraction(fr)
    return QQ(fr.numerator, fr.denominator)


def _companion(f_coeffs) -> DomainMatrix:
    """Multiplication by the root on the power basis (f monic, constant first)."""
    n = len(f_coeffs) - 1
    rows = [[QQ(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = QQ(1)
    for i in range(n):
        rows[i][n - 1] = QQ(-f_coeffs[i])
    return DomainMatrix(rows, (n, n), QQ)


def _element_matrix(f_coeffs, basis, coords) -> DomainMatrix:
    """Multiplication by sum(coords[i] * basis[i]) on the power basis of L."""
    comp = _companion(f_coeffs)
    n = comp.shape[0]
    power = [sum((Fraction(c) * Fraction(row[k]) for c, row in zip(coords, basis)),
                 Fraction(0)) for k in range(n)]
    out = DomainMatrix.zeros((n, n), QQ)
    acc = DomainMatrix.eye(n, QQ)
    for k in range(n):
        if power[k]:
            out = out + acc * _qq(power[k])
        acc = acc * comp
    return out


def _omega(d: int) -> tuple[int, int]:
    """(s1, s0) with omega^2 = s1*omega - s0."""
    return (1, (1 + d) // 4) if d % 4 == 3 else (0, d)


def _disc_of(charpoly) -> int:
    value = discriminant(Poly(charpoly, _T, domain=QQ))
    return int(Fraction(int(value.p), int(value.q)))


def is_squarefree(m: int) -> bool:
    return all(e == 1 for e in factorint(m).values())


def field_disc(f_coeffs, basis) -> int:
    poly = Poly(list(reversed([int(c) for c in f_coeffs])), _T)
    det = DomainMatrix([[_qq(c) for c in row] for row in basis],
                       (len(basis), len(basis)), QQ).det()
    value = discriminant(poly) * Fraction(int(det.numerator), int(det.denominator)) ** 2
    if Fraction(value).denominator != 1:
        raise ValueError("field discriminant is not an integer")
    return int(value)


def imq_disc(d: int) -> int:
    return -d if d % 4 == 3 else -4 * d


def composite_disc(f_coeffs, basis, d: int) -> int:
    return imq_disc(d) ** (len(f_coeffs) - 1) * field_disc(f_coeffs, basis) ** 2


def element_disc(f_coeffs, basis, coords) -> int:
    """Discriminant of the characteristic polynomial of an element of L."""
    return _disc_of(_element_matrix(f_coeffs, basis, coords).charpoly())


def element_norm(f_coeffs, basis, coords) -> int:
    value = _element_matrix(f_coeffs, basis, coords).det()
    return int(Fraction(int(value.numerator), int(value.denominator)))


def composite_element_disc(f_coeffs, basis, d: int, xs, ys) -> int:
    """Discriminant of the characteristic polynomial of beta + omega*gamma."""
    beta = _element_matrix(f_coeffs, basis, xs)
    gamma = _element_matrix(f_coeffs, basis, ys)
    s1, s0 = _omega(d)
    # (beta + omega*gamma)(u + omega*v) = (beta*u - s0*gamma*v) + omega*(gamma*u + (beta + s1*gamma)*v)
    top = beta.hstack(gamma * QQ(-s0))
    bottom = gamma.hstack(beta + gamma * QQ(s1))
    return _disc_of(top.vstack(bottom).charpoly())


def index_from_disc(disc: int, field: int) -> int:
    """Index given the element's and the field's discriminant (0 if not primitive)."""
    q, rem = divmod(disc, field)
    if rem or q < 0:
        raise ValueError("element discriminant is not a square multiple of the field's")
    s = math.isqrt(q)
    if s * s != q:
        raise ValueError("element discriminant is not a square multiple of the field's")
    return s


def family_member_ok(a: int) -> bool:
    """a != 3 and a^2 + 16 has no odd square factor."""
    odd = a * a + 16
    while odd % 2 == 0:
        odd //= 2
    return a != 3 and is_squarefree(odd)
