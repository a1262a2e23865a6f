"""Integer polynomials as ascending lists of Python ints.

The one integer-polynomial kernel of the package: ``ratpoly`` runs its
primitive parts on it, ``hensel`` its root tree and lifting modulo 2^k,
and ``hensel`` and ``padic`` lift 2-adic roots with ``lift_root``, the
package's one Newton loop.  A polynomial is a list ``a`` with ``a[i]``
the coefficient of x^i; results carry no trailing zero, and the zero
polynomial is the empty list.  Inputs are only read.  Arithmetic modulo
m is ordinary integer arithmetic followed by ``mod``.  ``divide`` is
division over Z only: by a monic divisor, or by an exact divisor as in
``ratpoly``'s square-free quotients.  The module imports nothing from
the package, so any module can use it.
"""

from __future__ import annotations

from typing import Sequence

Poly = Sequence[int]


def trim(a: list[int]) -> list[int]:
    """Drop trailing zeros from ``a`` in place and return it."""
    while a and not a[-1]:
        a.pop()
    return a


def add(a: Poly, b: Poly, s: int = 1, t: int = 1) -> list[int]:
    """s*a + t*b."""
    if len(a) < len(b):
        a, b, s, t = b, a, t, s
    out = [s * c for c in a]
    for i, c in enumerate(b):
        out[i] += t * c
    return trim(out)


def sub(a: Poly, b: Poly) -> list[int]:
    return add(a, b, 1, -1)


def mul(a: Poly, b: Poly) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def mod(a: Poly, m: int) -> list[int]:
    """Coefficients reduced into [0, m)."""
    return trim([c % m for c in a])


def diff(a: Poly) -> list[int]:
    """The derivative."""
    return [i * c for i, c in enumerate(a)][1:]


def evaluate(a: Poly, t: int) -> int:
    """a(t) by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def lift_root(a: Poly, gamma: int, delta: int, precision: int) -> int:
    """Residue mod 2^precision of the root of a in the class gamma mod
    2^(delta+1), for a(gamma) = 0 mod 2^(2*delta+1) and ord2(a'(gamma))
    = delta (Hensel's lemma), by Newton steps mod m = 2^(precision+delta).

    With e = ord2(x - root) >= delta + 1, ord2(a'(x)) = delta and
    ord2(a(x)) = e + delta, so the step a(x)/a'(x) is a 2-adic integer
    and raises e to at least min(2e - delta, precision + delta), which is
    more than e while e < precision.  The loop ends once m divides a(x),
    that is once e >= precision: after about log2(precision) steps, and
    at once on an exact root."""
    da = diff(a)
    m = 1 << (precision + delta)
    x = gamma % m
    while (v := evaluate(a, x)) % m:
        x = (x - (v >> delta) * pow(evaluate(da, x) >> delta, -1, m)) % m
    return x % (1 << precision)


def taylor_shift(a: Poly, r: int) -> list[int]:
    """a(x + r), with the leading coefficient of a.  The loop shifts by
    one; another r goes through Q(y) = a(r*y), since Q(y + 1) =
    a(r*y + r) gives the coefficients of a(x + r) times r^i, which divide
    exactly."""
    if r == 0:
        return list(a)
    h = list(a) if r == 1 else [c * r ** i for i, c in enumerate(a)]
    n = len(h)
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            h[k] += h[k + 1]
    if r != 1:
        h = [c // r ** i for i, c in enumerate(h)]
    return h


def divide(a: Poly, b: Poly) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r and deg r < deg b, for a nonzero b whose
    leading coefficient divides the top coefficient at every step: b
    monic, or b dividing a exactly over Z (then r is empty)."""
    n, lb = len(b), b[-1]
    r = list(a)
    q = [0] * max(len(a) - n + 1, 0)
    for k in range(len(a) - n, -1, -1):
        c = r[k + n - 1] // lb
        if c:
            q[k] = c
            for i in range(n):
                r[k + i] -= c * b[i]
    del r[n - 1:]
    return trim(q), trim(r)


def coprime_mod(a: Poly, b: Poly, p: int) -> bool:
    """Whether a and b are coprime modulo the prime p: Euclid's gcd of
    their images over F_p is a nonzero constant.  Each stage inverts the
    divisor's top residue once and reads every quotient digit off it,
    skipping the zero ones, so every residue stays below p."""
    a, b = mod(a, p), mod(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        n = len(b) - 1
        while len(a) > n:
            c = a.pop() * inv % p
            if c:
                k = len(a) - n
                for i in range(n):
                    a[k + i] = (a[k + i] - c * b[i]) % p
        trim(a)
        a, b = b, a
    return len(a) == 1
