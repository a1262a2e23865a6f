"""Exact 2-adic valuations, square detection, and finite-precision roots.

A nonzero rational q factors uniquely as 2^v * u with u having odd
numerator and denominator.  Everything here rides on that split: q is
a square in the 2-adic field exactly when v is even and u is congruent
to 1 modulo 8 (the odd denominator is inverted modulo 8, where every
odd residue is its own inverse).  Square roots of units are refined by
Newton iteration on x^2 - u starting from 1, which converges because
the derivative has valuation exactly 1 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_PRECISION = 64


def ord2_int(n: int) -> int:
    """2-adic valuation of a nonzero integer: the index of its lowest
    set bit (two's complement keeps it for negative n)."""
    return (n & -n).bit_length() - 1


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


@dataclass(frozen=True)
class PadicApprox:
    """A p-adic number known to finite precision: p^valuation * unit
    with the unit residue known modulo p^precision.  Zero is flagged
    explicitly and never encoded as a zero residue."""

    prime: int = 2
    valuation: int = 0
    unit_residue: int = 1
    precision: int = DEFAULT_PRECISION
    is_zero: bool = False

    def __post_init__(self):
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

    Returns r with r^2 congruent to q: the unit residue squared matches
    the unit part of q modulo 2^precision.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("square root of zero: represent it directly")
    if not is_square_in_q2(q):
        raise ValueError(f"{q} is not a square in Q_2")
    v, u = ord2(q)
    m = precision
    # iterate two guard digits past the target so the final reduction
    # is exact: x^2 - u loses one digit to the derivative valuation
    work = m + 2
    modulus = 1 << (work + 2)
    target = unit_residue(u, modulus)
    r = 1
    # Newton step r <- r - (r^2 - target) / (2r); the quotient is a
    # 2-adic integer because r^2 - target is divisible by 8
    for _ in range(work.bit_length() + 3):
        err = (r * r - target) % modulus
        if err == 0:
            break
        step = (err >> 1) * pow(r, -1, modulus) % modulus
        r = (r - step) % modulus
    r %= 1 << m
    if (r * r - target) % (1 << m) != 0:
        raise ArithmeticError("2-adic square root failed to converge")
    return PadicApprox(prime=2, valuation=v // 2, unit_residue=r, precision=m)
