"""Hensel lifting over the 2-adic integers and certified root status.

Three capabilities, all exact and all on integer coefficient lists with
the ``zpoly`` kernel's arithmetic:

* ``hensel_split``: lift a coprime factorization modulo 2 to one
  modulo 2^m by linear lifting, one 2-adic digit per step, each step a
  solve over the two-element field.  No library path calls it: the
  PICKY route's evidence (``certifier.hensel_split_even_parts``) checks
  only the hypotheses of Hensel's lemma, so only the tests and
  perfbench's tracer use it;
* ``z2_root_status``: decide whether a rational polynomial has a root
  in the 2-adic field with a root tree (Panayi's algorithm).  A node
  (c, j, g) has g(y) = f(c + 2^j*y) / 2^v primitive and branches only
  on the roots of g mod 2, so a level holds at most deg f nodes; a node
  without one is closed, and a closed tree certifies nonexistence.  A
  simple root mod 2 is Newton-lifted until the classical conditions
  f(gamma) = 0 mod 2^(2*delta+1), ord2(f'(gamma)) = delta certify a
  root.  The reversed polynomial over even residues catches roots of
  negative valuation.  A pure Newton diagram of non-integral slope
  (``newton_polygon.pure_slope``) puts every root at that valuation,
  which no root in Q_2 has: such an f is NoRoot with no tree walked.
  Each tree is walked from one heap keyed (depth, path), path a node's
  residues read first residue most significant: breadth-first, in the
  level-by-level walk's order, so the first witness is that walk's.
  The tree ends on square-free input, so whether f is square-free is
  decided before it walks: by the proof that f and f' are coprime
  (``zpoly.coprime``), or by a caller in the library that has proved it
  already (``certifier``'s root rule, through the private
  ``_squarefree``).  There is one walk.  A forced chain, a node
  with g = lc*y^n mod 2 whose Newton polygon puts every root in
  2^s*Z_2, is walked in one step: the node s levels down goes in at
  (j + s, path << s), the key it has in the walk without skips, and the
  s - 1 levels it passes count as nodes, so neither the first witness
  nor where a node limit pauses changes.  A power of one linear factor,
  lc*(x + a)^n with n >= 2, has no simple root in either tree, and the
  chain down its root never ends: the walk pauses on it before its
  first node.  When the proof is silent the walk pauses after a few
  nodes per degree, and only then takes ``ratpoly.squarefree_part``,
  whose tree decides;
* ``newton_refine``: push a certified witness to any target precision.
  A public entry: no library path calls it.

Every witness is taken on the primitive integer model of f, and both
Newton lifts, of a simple root mod 2 in the tree and of a witness to a
target precision, are ``zpoly.lift_root``.
"""

from __future__ import annotations

import heapq
import math

from . import zpoly
from .f2 import f2_divmod, f2_from_coeffs, f2_mod, f2_mul, f2_xgcd
from .newton_polygon import pure_slope
from .padic import ord2_int
from .ratpoly import RatPoly, primitive_integer_coeffs, squarefree_part
from .record import Record, replace

ROOT_EXISTS = "RootExists"
NO_ROOT = "NoRoot"

# Root-tree nodes per degree, skipped levels counted, that a
# non-square-free f's own tree runs before its square-free part: it
# fixes which witness such an f reports.
SQUAREFREE_CHECK_NODES = 4
_PAUSED = "paused"


class RootWitness(Record):
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


class RootStatus(Record):
    tag: str
    witness: RootWitness | None


def _certify(coeffs: list[int], dcoeffs: list[int], gamma: int,
             on_reversal: bool) -> RootWitness | None:
    v = zpoly.evaluate(coeffs, gamma)
    dv = zpoly.evaluate(dcoeffs, gamma)
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
    h = [c << i for i, c in enumerate(zpoly.taylor_shift(g, r))]
    v = ord2_int(math.gcd(*h))
    return [c >> v for c in h]


def _lift(base: list[int], g: list[int], c: int, j: int, r: int,
          on_reversal: bool) -> RootWitness:
    """Lift the simple root r of g mod 2, g(y) = base(c + 2^j*y) / 2^v,
    to y mod 2^k for k = 2, 4, 8, ... until gamma = c + 2^j*y passes
    ``_certify`` on ``base``.  Each k takes one Newton step from the last
    y and keeps ord2(base'(gamma)), so the classical condition is
    reached."""
    dbase = zpoly.diff(base)
    y, k = r, 1
    while (witness := _certify(base, dbase, c + (y << j), on_reversal)) is None:
        k *= 2
        y = zpoly.lift_root(g, y, 0, k)
    return witness


def _forced_steps(g: list[int]) -> int:
    """For g = lc*y^n mod 2 with lc odd and n >= 2, every root of g lies
    in 2^s*Z_2 for s = min over i < n of floor(ord2(g_i) / (n - i)), from
    the last segment of g's Newton polygon.  That s when it is at least
    2, else 0; an odd g_i with i < n gives 0, and so does g = lc*y^n,
    whose f is a power of one linear factor: the walk pauses on that f
    before its first node."""
    n = len(g) - 1
    if n < 2 or not g[-1] & 1:
        return 0
    s = 0
    for i in range(n):
        if x := g[i]:
            t = ord2_int(x) // (n - i)
            if t < 2:
                return 0
            if not s or t < s:
                s = t
    return s


def _root_tree(coeffs: list[int], limit: int = 0):
    """Breadth-first root tree over Z_2 of the primitive integer
    polynomial ``coeffs``, then, with an even leading coefficient, over
    2Z_2 for its reversal: the first certified witness, or None once
    every node is closed.

    Each tree's nodes leave one heap in (depth, path) order, path the
    node's residues read first residue most significant, so a child of
    (j, path) goes in at (j + 1, 2*path + r): breadth-first, and within
    a level in the order the level-by-level walk visits it.

    Forced chains are skipped.  A node g at depth j with g = lc*y^n mod
    2 (``_forced_steps`` s >= 2) has the one residue 0, not a simple
    root, and so have its descendants down to depth j + s - 1, each
    g(2^t*y) / 2^(t*n).  The walk puts g(2^s*y) / 2^(s*n) in at once, at
    (j + s, path << s), the key of that node in the walk without skips,
    and counts the s - 1 nodes it passes.  Its odd lc puts every root of
    coeffs in the node's ball, so every other node of depth j closes at
    once, and no node is left to share depth j + s with it: the witness
    found first is the same, and so is the count at every node after
    the chain.  A coeffs that is a power of one linear factor, lc*(x +
    a)^n with n >= 2, has every node such a power again: none has a
    simple root, and the chain down the root never ends, so the walk
    returns ``_PAUSED`` before its first node.

    A positive ``limit`` pauses the walk (``_PAUSED``) at the first node
    that brings the count to ``limit`` or past it, exactly when the walk
    without skips pauses at node ``limit``: on an f with a repeated
    factor a chain down a repeated root may never end.  With ``limit``
    0, coeffs must be square-free, and only such a power pauses."""
    n = len(coeffs) - 1  # the degree of every node's g too
    # coeffs = lc*(x + a)^n, a = c_(n-1) / (n*lc), when each c_i / c_(i+1) is (i + 1)*a / (n - i)
    if n > 1 and all(n * coeffs[-1] * (n - i) * coeffs[i] == (i + 1) * coeffs[i + 1] * coeffs[-2]
                     for i in range(n - 1)):
        return _PAUSED
    trees = [(coeffs, False)]
    if coeffs[-1] % 2 == 0:
        trees.append((coeffs[::-1], True))
    nodes = 0
    for base, on_reversal in trees:
        heap = [(1, 0, 0, _descend(base, 0)) if on_reversal else (0, 0, 0, base)]
        while heap:
            j, path, c, g = heapq.heappop(heap)  # (depth, path) is unique
            nodes += 1
            if 0 < limit <= nodes:
                return _PAUSED
            for r in (0, 1):
                if (g[0] if r == 0 else sum(g)) % 2:
                    continue  # r is not a root of g mod 2
                if (g[1] if r == 0 else sum(g[1::2])) % 2:  # simple root
                    return _lift(base, g, c, j, r, on_reversal)
                # s >= 2 needs r = 0 and 4 | g_(n-1), which spares other nodes the call
                if not (r or g[-2] & 3) and (s := _forced_steps(g)) > 1:
                    nodes += s - 1  # the levels the skip passes
                    heapq.heappush(heap, (j + s, path << s, c,
                                          [x >> s * (n - i) for i, x in enumerate(g)]))
                    break  # 1 is not a root of a forced g mod 2
                heapq.heappush(heap, (j + 1, 2 * path + r, c + (r << j), _descend(g, r)))
    return None


def z2_root_status(f: RatPoly, *, _squarefree: bool = False) -> RootStatus:
    """Certified existence or nonexistence of a root of f in Q_2.

    Works on the primitive integer model P (roots are scale-invariant).
    A pure Newton diagram of non-integral slope puts every root at that
    valuation, so f has none in Q_2: NoRoot, with no tree and whatever
    ``_squarefree`` says.  Otherwise, whether f is square-free is
    decided before the tree walks: by the private ``_squarefree``, or
    else by one proof that P and P' are
    coprime (``zpoly.coprime``).  A proved f gets its tree without a
    node limit.  When the proof is silent, the tree pauses after
    ``SQUAREFREE_CHECK_NODES`` nodes per degree; if it has not ended
    there, the tree of f's square-free part decides.  A part of full
    degree is P up to sign, whose tree gives P's witness; the witness of
    a part of lower degree is marked ``on_squarefree_part``.

    ``_squarefree`` is True only where the library has proved f
    square-free (``certifier``'s root rule, from the positivity
    certificate or ``is_squarefree``); the ``RootStatus`` is the same.
    A wrong True pauses at once on a power of one linear factor, and the
    part decides as above; on any other f with a repeated factor it can
    walk down the repeated root without end.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    coeffs = primitive_integer_coeffs(f)
    # a non-integral slope needs an even end coefficient: that test first
    if (coeffs[0] and not coeffs[0] & coeffs[-1] & 1
            and (slope := pure_slope(f)) is not None and slope.denominator > 1):
        return RootStatus(NO_ROOT, None)
    proved = _squarefree or zpoly.coprime(coeffs, zpoly.diff(coeffs))
    witness = _root_tree(coeffs, 0 if proved else SQUAREFREE_CHECK_NODES * f.degree)
    if witness is _PAUSED:
        part = squarefree_part(f)
        witness = _root_tree(primitive_integer_coeffs(part))
        if part.degree < f.degree and witness is not None:
            witness = replace(witness, on_squarefree_part=True)
    return RootStatus(NO_ROOT if witness is None else ROOT_EXISTS, witness)


def verify_root_witness(f: RatPoly, witness: RootWitness) -> bool:
    """Re-check a witness from scratch: it is accepted exactly when it
    is the witness the root tree's check derives at its gamma, on the
    primitive integer model of f, of its reversal, or of its
    square-free part, as the witness's flags name.  So delta, the
    modulus and ``exact`` must all be what f gives at gamma: an exact
    root is accepted only as ``exact``."""
    if witness.on_squarefree_part:
        f = squarefree_part(f)
    coeffs = primitive_integer_coeffs(f)
    if witness.on_reversal:
        coeffs = coeffs[::-1]
    return (_certify(coeffs, zpoly.diff(coeffs), witness.gamma, witness.on_reversal)
            == replace(witness, on_squarefree_part=False))


def newton_refine(f: RatPoly, gamma: int, delta: int, precision: int) -> int:
    """Residue mod 2^precision of the unique root of f in the class
    gamma mod 2^(delta+1), by ``zpoly.lift_root``.

    (gamma, delta) must pass the root tree's check ``_certify`` on the
    primitive integer model of f, the model of every ``RootWitness``:
    f(gamma) = 0 mod 2^(2*delta+1) and ord2(f'(gamma)) = delta.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    coeffs = primitive_integer_coeffs(f)
    witness = _certify(coeffs, zpoly.diff(coeffs), gamma, False)
    if witness is None or delta is None or witness.delta != delta:
        raise ValueError("gamma and delta are not a root witness of f")
    return zpoly.lift_root(coeffs, gamma, delta, precision)


def _odd_cleared_scaled(f: RatPoly) -> tuple[list[int], int]:
    """(lcm * f, lcm) for the lcm of f's denominators, which is the
    denominator of the content: lcm * c*P is the content's numerator
    times P."""
    c = f.content
    if c.denominator % 2 == 0:
        raise ValueError("polynomial is not 2-adically integral")
    return [c.numerator * x for x in f.primitive_part], c.denominator


# ---------------------------------------------------------------------------
# Lifting a coprime factorization
# ---------------------------------------------------------------------------

class HenselFactors(Record):
    """g monic with g*h = scale*f mod modulus; ``scale`` is the odd
    denominator-clearing multiplier (1 for integer input)."""

    g: tuple[int, ...]
    h: tuple[int, ...]
    modulus: int
    precision: int
    scale: int


def _bits_to_poly(bits: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(bits.bit_length())]


def hensel_split(f: RatPoly, g1: int, h1: int, precision: int = 64) -> HenselFactors:
    """Lift the factorization [f] = g1*h1 over the two-element field to
    scale*f = g*h mod 2^precision with g monic, [g] = g1, [h] = h1.

    g1 and h1 are bit-packed; g1 must be nonzero (the image of a monic
    g), they must be coprime mod 2 and their product must equal the
    reduction of f.  Raises ValueError when a hypothesis fails, or when
    precision < 1.

    Linear lifting, one 2-adic digit per step: with scale*f = g*h mod
    2^k, the digit e = (scale*f - g*h) / 2^k mod 2 is solved as h1*dg +
    g1*dh = e mod 2 by dg = t*e mod g1 (s*g1 + t*h1 = 1), so deg dg <
    deg g1 keeps g monic, and then g1 divides e - h1*dg exactly.  Adding
    2^k*dg and 2^k*dh makes the factors exact mod 2^(k+1) with every
    coefficient in [0, 2^(k+1)).  By Hensel's lemma this lift is unique.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    if not g1:
        raise ValueError("g1 is zero, so no monic g reduces to it")
    coeffs, scale = _odd_cleared_scaled(f)
    if f2_mul(g1, h1) != f2_from_coeffs(coeffs):
        raise ValueError("reduction of f does not equal g1*h1 mod 2")
    d, _, t = f2_xgcd(g1, h1)
    if d != 1:
        raise ValueError("g1 and h1 are not coprime mod 2")
    g, h = _bits_to_poly(g1), _bits_to_poly(h1)
    for k in range(1, precision):
        e = f2_from_coeffs([c >> k for c in zpoly.sub(coeffs, zpoly.mul(g, h))])
        dg = f2_mod(f2_mul(t, e), g1)
        dh = f2_divmod(e ^ f2_mul(h1, dg), g1)[0]
        g = zpoly.add(g, _bits_to_poly(dg), 1, 1 << k)
        h = zpoly.add(h, _bits_to_poly(dh), 1, 1 << k)
    return HenselFactors(tuple(g), tuple(h), 1 << precision, precision, scale)
