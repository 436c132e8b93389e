"""Imaginary quadratic fields Q(i*sqrt(d)) for squarefree d >= 1.

The ring of integers is Z[omega] with omega = i*sqrt(d) when -d = 2, 3
(mod 4) and omega = (1 + i*sqrt(d))/2 when -d = 1 (mod 4); the two cases
differ in discriminant (-4d versus -d) and in every bound downstream, so the
case flag is carried explicitly as ``residue``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .intutil import is_squarefree


class ImagQuadField:
    """Q(i*sqrt(d)) with omega chosen so that (1, omega) is an integral basis."""

    def __init__(self, d: int, residue: bool):
        self.d = d
        self.residue = residue
        self.disc = -d if residue else -4 * d
        self.omega_trace = 1 if residue else 0        # omega + conj(omega)
        self.omega_norm = (1 + d) // 4 if residue else d
        self.omega_re = Fraction(self.omega_trace, 2)
        # Im(omega)^2, exact: d in the non-residue case, d/4 in the residue case
        self.im_omega_sq = Fraction(d, 4) if residue else Fraction(d)

    def __repr__(self):
        return f"ImagQuadField(d={self.d}, disc={self.disc})"


def make_imq(d: int) -> ImagQuadField:
    """Validated Q(i*sqrt(d)); d must be a squarefree positive integer."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValidationError("d must be a positive integer")
    if not is_squarefree(d):
        raise ValidationError(f"d = {d} is not squarefree")
    return ImagQuadField(d, residue=(-d) % 4 == 1)
