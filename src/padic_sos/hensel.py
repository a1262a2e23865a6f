"""Hensel lifting over the 2-adic integers and certified root status.

Three capabilities, all exact:

* ``hensel_split``: lift a coprime factorization modulo 2 to one
  modulo 2^m, doubling the precision each round with Bezout cofactors
  carried along;
* ``z2_root_status``: decide whether a rational polynomial has a root
  in the 2-adic field with a root tree (Panayi's algorithm).  A node
  (c, j, g) has g(y) = f(c + 2^j*y) / 2^v primitive and branches only
  on the roots of g mod 2, so a level holds at most deg f nodes; a node
  without one is closed, and a closed tree certifies nonexistence.  A
  simple root mod 2 is Newton-lifted until the classical conditions
  f(gamma) = 0 mod 2^(2*delta+1), ord2(f'(gamma)) = delta certify a
  root.  The reversed polynomial over even residues catches roots of
  negative valuation.  The tree ends on square-free input, and a
  repeated factor sends it to the square-free part;
* ``newton_refine``: push a certified witness to any target precision
  by Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .f2 import f2_from_coeffs, f2_mul, f2_xgcd
from .padic import ord2_int
from .ratpoly import RatPoly, poly_gcd, primitive_integer_coeffs, squarefree_part

ROOT_EXISTS = "RootExists"
NO_ROOT = "NoRoot"

# Root-tree nodes per degree after which z2_root_status checks f for a
# repeated factor: a cost switch, not a limit on the search.
SQUAREFREE_CHECK_NODES = 4
_PAUSED = "paused"


@dataclass(frozen=True)
class RootWitness:
    """Residue gamma with f(gamma) = 0 mod 2^(2*delta+1) and
    ord2(f'(gamma)) = delta, taken on the primitive integer model;
    ``on_reversal`` marks witnesses for reciprocal (negative-valuation)
    roots and ``on_squarefree_part`` witnesses taken on the square-free
    part of f (f has a repeated factor).  ``exact`` flags a literal
    integer root."""

    gamma: int
    delta: int | None
    modulus: int
    on_reversal: bool = False
    exact: bool = False
    on_squarefree_part: bool = False


@dataclass(frozen=True)
class RootStatus:
    tag: str
    witness: RootWitness | None


def _int_eval(coeffs: list[int], t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _int_derivative(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _certify(coeffs: list[int], dcoeffs: list[int], gamma: int,
             on_reversal: bool) -> RootWitness | None:
    v = _int_eval(coeffs, gamma)
    dv = _int_eval(dcoeffs, gamma)
    if v == 0:
        delta = None if dv == 0 else ord2_int(dv)
        modulus = 1 if delta is None else 1 << (2 * delta + 1)
        return RootWitness(gamma, delta, modulus, on_reversal, exact=True)
    if dv == 0:
        return None
    delta = ord2_int(dv)
    if ord2_int(v) >= 2 * delta + 1:
        return RootWitness(gamma, delta, 1 << (2 * delta + 1), on_reversal)
    return None


def _descend(g: list[int], r: int) -> list[int]:
    """g(r + 2y) divided by the power of 2 in its content."""
    h = list(g)
    if r:  # Taylor shift y -> y + 1
        for i in range(len(h) - 1):
            for k in range(len(h) - 2, i - 1, -1):
                h[k] += h[k + 1]
    h = [c << i for i, c in enumerate(h)]
    v = min(ord2_int(c) for c in h if c)
    return [c >> v for c in h]


def _lift(base: list[int], g: list[int], c: int, j: int, r: int,
          on_reversal: bool) -> RootWitness:
    """Newton-lift the simple root r of g mod 2, g(y) = base(c + 2^j*y)
    / 2^v, until gamma = c + 2^j*y passes ``_certify`` on ``base``: each
    step doubles the precision of g(y) = 0 and keeps ord2(base'(gamma)),
    so the classical condition is reached."""
    dbase = _int_derivative(base)
    dg = _int_derivative(g)
    y, k = r, 1
    while (witness := _certify(base, dbase, c + (y << j), on_reversal)) is None:
        k *= 2
        y = (y - _int_eval(g, y) * pow(_int_eval(dg, y), -1, 1 << k)) % (1 << k)
    return witness


def _root_tree(coeffs: list[int], switch: int):
    """Breadth-first root tree over Z_2 of the primitive integer
    polynomial ``coeffs``, then, with an even leading coefficient, over
    2Z_2 for its reversal.  A generator: it yields ``_PAUSED`` once,
    after ``switch`` nodes, and then its result: the first certified
    witness, or None once every node is closed."""
    trees = [(coeffs, False)]
    if coeffs[-1] % 2 == 0:
        trees.append((coeffs[::-1], True))
    nodes = 0
    for base, on_reversal in trees:
        level = [(0, 1, _descend(base, 0))] if on_reversal else [(0, 0, base)]
        while level:
            deeper = []
            for c, j, g in level:
                nodes += 1
                if nodes == switch:
                    yield _PAUSED
                for r in (0, 1):
                    if (g[0] if r == 0 else sum(g)) % 2:
                        continue  # r is not a root of g mod 2
                    if (g[1] if r == 0 else sum(g[1::2])) % 2:  # simple root
                        yield _lift(base, g, c, j, r, on_reversal)
                        return
                    deeper.append((c + (r << j), j + 1, _descend(g, r)))
            level = deeper
    yield None


def z2_root_status(f: RatPoly) -> RootStatus:
    """Certified existence or nonexistence of a root of f in Q_2.

    Works on the primitive integer model (roots are scale-invariant).
    After ``SQUAREFREE_CHECK_NODES`` nodes per degree one gcd checks f
    for a repeated factor: without one the tree runs on to its end,
    with one it reruns on the square-free part and marks the witness.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    coeffs = primitive_integer_coeffs(f)
    if len(coeffs) == 1:
        return RootStatus(NO_ROOT, None)
    walk = _root_tree(coeffs, SQUAREFREE_CHECK_NODES * (len(coeffs) - 1))
    witness = next(walk)
    if witness is _PAUSED:
        gcd = poly_gcd(f, f.derivative())
        if gcd.degree < 1:
            witness = next(walk)
        else:
            witness = next(_root_tree(primitive_integer_coeffs(f // gcd), 0))
            if witness is not None:
                witness = replace(witness, on_squarefree_part=True)
    return RootStatus(NO_ROOT if witness is None else ROOT_EXISTS, witness)


def verify_root_witness(f: RatPoly, witness: RootWitness) -> bool:
    """Re-check the certificate conditions from scratch (on the
    square-free part of f for a witness marked as taken there)."""
    if witness.on_squarefree_part:
        f = squarefree_part(f)
    coeffs = primitive_integer_coeffs(f)
    if witness.on_reversal:
        coeffs = list(reversed(coeffs))
    v = _int_eval(coeffs, witness.gamma)
    dv = _int_eval(_int_derivative(coeffs), witness.gamma)
    if witness.exact:
        return v == 0
    if witness.delta is None or dv == 0:
        return False
    return (ord2_int(dv) == witness.delta
            and v % (1 << (2 * witness.delta + 1)) == 0)


def newton_refine(f: RatPoly, gamma: int, delta: int, precision: int) -> int:
    """Residue mod 2^precision of the unique root in the class
    gamma mod 2^(delta+1), by Newton iteration.

    Preconditions are re-checked: f(gamma) = 0 mod 2^(2*delta+1) and
    ord2(f'(gamma)) = delta on the odd-cleared integer model.
    """
    coeffs = _odd_cleared(f)
    dcoeffs = _int_derivative(coeffs)
    v0 = _int_eval(coeffs, gamma)
    dv0 = _int_eval(dcoeffs, gamma)
    if dv0 == 0 or ord2_int(dv0) != delta:
        raise ValueError("derivative valuation does not match delta")
    if v0 != 0 and ord2_int(v0) < 2 * delta + 1:
        raise ValueError("f(gamma) is not divisible by 2^(2*delta+1)")
    work = precision + delta + 4
    big = 1 << work
    cur = gamma % big
    for _ in range(2 * work.bit_length() + 8):
        v = _int_eval(coeffs, cur)
        if v == 0 or ord2_int(v) >= precision + delta:
            break
        dv = _int_eval(dcoeffs, cur)
        unit = dv >> delta
        step = (v >> delta) * pow(unit, -1, big) % big
        cur = (cur - step) % big
    else:
        raise ArithmeticError("Newton refinement failed to converge")
    return cur % (1 << precision)


def _odd_cleared_scaled(f: RatPoly) -> tuple[list[int], int]:
    """(lcm * f, lcm) for the lcm of f's denominators, which is the
    denominator of the content: lcm * c*P is the content's numerator
    times P."""
    c = f.content
    if c.denominator % 2 == 0:
        raise ValueError("polynomial is not 2-adically integral")
    return [c.numerator * x for x in f.primitive_part], c.denominator


def _odd_cleared(f: RatPoly) -> list[int]:
    return _odd_cleared_scaled(f)[0]


def reduce_mod2(f: RatPoly) -> int:
    """Image of the odd-cleared polynomial over the two-element field."""
    return f2_from_coeffs(_odd_cleared(f))


# ---------------------------------------------------------------------------
# Lifting a coprime factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HenselFactors:
    """g monic with g*h = scale*f mod modulus; ``scale`` is the odd
    denominator-clearing multiplier (1 for integer input)."""

    g: tuple[int, ...]
    h: tuple[int, ...]
    modulus: int
    precision: int
    scale: int


def _pmod(coeffs: list[int], m: int) -> list[int]:
    out = [c % m for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _padd(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _pmod(out, m)


def _psub(a: list[int], b: list[int], m: int) -> list[int]:
    return _padd(a, [-c for c in b], m)


def _pmul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return _pmod(out, m)


def _pdivmod_monic(a: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    # g monic over Z/m, so division needs no inversions
    a = list(a)
    dg = len(g) - 1
    if len(a) - 1 < dg:
        return [], _pmod(a, m)
    q = [0] * (len(a) - dg)
    for k in range(len(a) - 1, dg - 1, -1):
        factor = a[k] % m
        if factor:
            q[k - dg] = factor
            for i, c in enumerate(g):
                a[k - dg + i] = (a[k - dg + i] - factor * c) % m
    return _pmod(q, m), _pmod(a, m)


def _bits_to_poly(bits: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(bits.bit_length())]


def hensel_split(f: RatPoly, g1: int, h1: int, precision: int = 64) -> HenselFactors:
    """Lift the factorization [f] = g1*h1 over the two-element field to
    scale*f = g*h mod 2^precision with g monic, [g] = g1, [h] = h1.

    g1 and h1 are bit-packed; they must be coprime mod 2 and their
    product must equal the reduction of f.  Raises ValueError when
    either hypothesis fails.
    """
    coeffs, scale = _odd_cleared_scaled(f)
    fbits = f2_from_coeffs(coeffs)
    if f2_mul(g1, h1) != fbits:
        raise ValueError("reduction of f does not equal g1*h1 mod 2")
    d, s, t = f2_xgcd(g1, h1)
    if d != 1:
        raise ValueError("g1 and h1 are not coprime mod 2")

    g = _bits_to_poly(g1)
    h = _bits_to_poly(h1)
    a = _bits_to_poly(s)  # a*g + b*h = 1 mod 2
    b = _bits_to_poly(t)
    k = 1
    while k < precision:
        k = 2 * k
        m = 1 << k
        e = _psub(coeffs, _pmul(g, h, m), m)
        _, dg = _pdivmod_monic(_pmul(b, e, m), g, m)
        dh, rem = _pdivmod_monic(_psub(e, _pmul(h, dg, m), m), g, m)
        if rem:
            raise ArithmeticError("lifting step left a nonzero remainder")
        g = _padd(g, dg, m)
        h = _padd(h, dh, m)
        # refresh the Bezout identity at the doubled precision:
        # a' = a - a*err + q2*h, b' = b + r2 with -b*err = q2*g + r2
        err = _psub(_padd(_pmul(a, g, m), _pmul(b, h, m), m), [1], m)
        q2, r2 = _pdivmod_monic(_pmul([(-c) % m for c in b], err, m), g, m)
        a = _padd(_psub(a, _pmul(a, err, m), m), _pmul(q2, h, m), m)
        b = _padd(b, r2, m)
    modulus = 1 << precision
    g = _pmod(g, modulus)
    h = _pmod(h, modulus)
    check = _psub(_pmod(coeffs, modulus), _pmul(g, h, modulus), modulus)
    if check:
        raise ArithmeticError("lifted factors do not multiply back to f")
    return HenselFactors(tuple(g), tuple(h), modulus, precision, scale)
