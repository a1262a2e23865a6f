"""Exact 2-adic valuations, square detection, and finite-precision roots.

A nonzero rational q factors uniquely as 2^v * u with u having odd
numerator and denominator.  Everything here rides on that split: q is
a square in the 2-adic field exactly when v is even and u is congruent
to 1 modulo 8 (the odd denominator is inverted modulo 8, where every
odd residue is its own inverse).  The square root of such a unit
u = num/den is the root of den*x^2 - num that is 1 mod 4, which
``zpoly.lift_root`` lifts from 1: there den - num = 0 mod 8 and the
derivative 2*den has valuation exactly 1.
"""

from __future__ import annotations

from fractions import Fraction

from . import zpoly
from .record import Record
from .zpoly import ord2_int

DEFAULT_PRECISION = 64


def ord2(q) -> tuple[int, Fraction]:
    """Write q = 2^valuation * unit with an odd unit; q must be nonzero."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("ord2(0) is +infinity; callers must branch on zero")
    num, den = q.numerator, q.denominator
    vn, vd = ord2_int(num), ord2_int(den)
    return vn - vd, Fraction(num >> vn, den >> vd)


def unit_residue(u: Fraction, modulus: int) -> int:
    """The residue of an odd rational modulo 2^k, clearing the odd
    denominator with its modular inverse."""
    num, den = u.numerator, u.denominator
    if num % 2 == 0 or den % 2 == 0:
        raise ValueError("unit residue needs an odd rational")
    return num * pow(den, -1, modulus) % modulus


def is_square_in_q2(q) -> bool:
    """True when q is a square in the field of 2-adic numbers.

    Zero counts; otherwise the valuation must be even and the odd unit
    part congruent to 1 mod 8.
    """
    q = Fraction(q)
    if q == 0:
        return True
    v, u = ord2(q)
    if v % 2 != 0:
        return False
    return unit_residue(u, 8) == 1


class PadicApprox(Record):
    """A p-adic number known to finite precision: p^valuation * unit
    with the unit residue known modulo p^precision.  Zero is flagged
    explicitly and never encoded as a zero residue."""

    prime: int = 2
    valuation: int = 0
    unit_residue: int = 1
    precision: int = DEFAULT_PRECISION
    is_zero: bool = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.is_zero:
            return
        if self.precision < 1:
            raise ValueError("precision must be positive")
        if not 0 < self.unit_residue < self.prime ** self.precision:
            raise ValueError("unit residue out of range")
        if self.unit_residue % self.prime == 0:
            raise ValueError("unit residue must be coprime to the prime")


def padic_sqrt(q, precision: int = DEFAULT_PRECISION) -> PadicApprox:
    """Square root of a nonzero 2-adic square, to the given precision.

    Returns the root whose unit is 1 mod 4: the unit residue squared
    matches the unit part of q modulo 2^precision.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    q = Fraction(q)
    if q == 0:
        raise ValueError("square root of zero: represent it directly")
    if not is_square_in_q2(q):
        raise ValueError(f"{q} is not a square in Q_2")
    v, u = ord2(q)
    r = zpoly.lift_root([-u.numerator, 0, u.denominator], 1, 1, precision)
    return PadicApprox(prime=2, valuation=v // 2, unit_residue=r, precision=precision)
