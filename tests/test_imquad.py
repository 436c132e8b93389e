from fractions import Fraction

import pytest

from compib.errors import ValidationError
from compib.imquad import make_imq


def test_residue_split():
    # -d = 1 mod 4 exactly when d = 3 mod 4
    for d, residue, disc in ((1, False, -4), (2, False, -8), (3, True, -3),
                             (5, False, -20), (7, True, -7), (11, True, -11),
                             (6, False, -24), (15, True, -15)):
        M = make_imq(d)
        assert M.residue is residue
        assert M.disc == disc


def test_omega_min_poly():
    M1 = make_imq(5)
    assert [M1.omega_norm, -M1.omega_trace, 1] == [5, 0, 1]
    M2 = make_imq(7)
    assert [M2.omega_norm, -M2.omega_trace, 1] == [2, -1, 1]
    assert M2.omega_re == Fraction(1, 2)
    assert M2.im_omega_sq == Fraction(7, 4)


def test_make_imq_large_d():
    # above 10^18, d = 2*3*5*...*53 has only small factors and validates;
    # the 31-digit prime 10^30 + 57 leaves squarefreeness undecided
    d = 32589158477190044730
    assert make_imq(d).d == d
    with pytest.raises(ValidationError, match="cannot decide"):
        make_imq(10**30 + 57)


def test_make_imq_validation():
    for bad in (0, -3, 12, 18, Fraction(1, 2)):
        with pytest.raises(ValidationError):
            make_imq(bad)
    # bool is an int subclass: True would otherwise build Q(i) with d = True
    for bad in (True, False):
        with pytest.raises(ValidationError, match="d must be a positive integer"):
            make_imq(bad)
