"""Polynomials over the field with two elements, packed into integers.

Bit i of the integer is the coefficient of x^i, so addition is xor and
the zero polynomial is 0.  Provides ring arithmetic, gcd/xgcd, and a
complete deterministic factorization: a distinct-degree sieve with a
square step, then equal-degree splitting with trace polynomials over a
fixed sequence of test elements.
"""

from __future__ import annotations


def f2_degree(a: int) -> int:
    """Degree, with -1 for zero."""
    return a.bit_length() - 1


def f2_mul(a: int, b: int) -> int:
    if a < b:
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def f2_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    n, q = b.bit_length(), 0
    while (s := a.bit_length() - n) >= 0:  # cancel the top term of a
        q |= 1 << s
        a ^= b << s
    return q, a


def f2_mod(a: int, b: int) -> int:
    return f2_divmod(a, b)[1]


def f2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, f2_mod(a, b)
    return a


def f2_xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, s, t) with s*a + t*b = d = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = f2_divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 ^ f2_mul(q, s1)
        t0, t1 = t1, t0 ^ f2_mul(q, t1)
    return a, s0, t0


def f2_derivative(a: int) -> int:
    # in characteristic 2 only odd-degree terms survive
    out = 0
    i = 1
    while a >> i:
        if a >> i & 1:
            out |= 1 << (i - 1)
        i += 2
    return out


def f2_even_part_root(a: int) -> int:
    """For a with only even-degree terms, the b with b^2 = a (squaring
    spreads coefficients to doubled exponents)."""
    out = 0
    i = 0
    while a >> (2 * i):
        if a >> (2 * i) & 1:
            out |= 1 << i
        i += 1
    return out


def f2_from_coeffs(coeffs) -> int:
    a = 0
    for i, c in enumerate(coeffs):
        if int(c) % 2:
            a |= 1 << i
    return a


def f2_to_str(a: int) -> str:
    if a == 0:
        return "0"
    terms = []
    for i in range(f2_degree(a), -1, -1):
        if a >> i & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return " + ".join(terms)


def _equal_degree_split(g: int, i: int) -> list[int]:
    """Factor a square-free product of degree-i irreducibles.

    Trace splitting: gcd(g, u + u^2 + u^4 + ... + u^(2^(i-1))) is a
    nontrivial divisor for about half of all u, so marching u through
    2, 3, 4, ... terminates deterministically.
    """
    if f2_degree(g) == i:
        return [g]
    u = 2
    while True:
        trace = 0
        t = f2_mod(u, g)
        for _ in range(i):
            trace ^= t
            t = f2_mod(f2_mul(t, t), g)
        d = f2_gcd(g, trace)
        if 0 < f2_degree(d) < f2_degree(g):
            rest = f2_divmod(g, d)[0]
            return _equal_degree_split(d, i) + _equal_degree_split(rest, i)
        u += 1


def f2_factor(f: int) -> list[tuple[int, int]]:
    """Complete factorization into irreducibles with multiplicities,
    sorted by (degree, bit pattern); the product reconstructs f.

    A distinct-degree sieve on f itself (von zur Gathen-Gerhard, Modern
    Computer Algebra, ch. 14).  Once every factor of degree below i is
    divided out, gcd(f, x^(2^i) - x) is the product of the distinct
    degree-i factors: it is square-free because x^(2^i) - x is, so
    repeated factors need no separate pass.  A square f (f' = 0) is
    replaced by its root at twice the weight, which keeps the sieve
    short on powers of high-degree factors.  Once deg f < 2i, f has no
    factor of degree <= deg f / 2, so it is 1 or irreducible.
    """
    if f == 0:
        raise ValueError("cannot factor the zero polynomial")
    factors = []
    weight, h, i = 1, 2, 1  # h = x^(2^(i-1)) (mod f)
    while f2_degree(f) >= 2 * i:
        if f2_derivative(f) == 0:
            f, weight = f2_even_part_root(f), 2 * weight
            continue
        h = f2_mod(f2_mul(h, h), f)
        g = f2_gcd(f, h ^ 2)
        if g != 1:
            for p in _equal_degree_split(g, i):
                e = 0
                while f2_mod(f, p) == 0:
                    f, e = f2_divmod(f, p)[0], e + 1
                factors.append((p, weight * e))
        i += 1
    if f2_degree(f) > 0:
        factors.append((f, weight))
    return sorted(factors)  # integer order on bits is (degree, bit pattern) order
