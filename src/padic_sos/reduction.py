"""Reductions of a positive rational polynomial to "square plus SOS4".

Every routine here looks for an h with f - h^2 certified a sum of at
most four squares, so that together with a black-box four-square
splitter f becomes a sum of five squares.  The routes:

* ALG6: odd 2-adic valuation of the leading coefficient; subtract a
  small constant 2^(-2l) so the difference is Eisenstein-irreducible
  of even degree;
* ALGN: degree a multiple of 4; drive the gcd in the loop to 2 instead
  of 1, leaving a pure diagram with even slope denominator;
* ALG9: the conjectural loop subtracting 2^(-2l) or 2^(-2l)x^d and
  certifying each branch; a structured NonTermination records every
  failed iterate (some inputs provably defeat this loop);
* NOS: constant term 2^(2a)(4k+3); subtract the square of a
  half-degree binomial x^(d/2)/2^l + 2^a/N, making the difference
  Eisenstein-irreducible (row N = 3 first, then one row that provably
  holds a hit);
* GR4: degree 4k; subtract 2^(-2l)(x^2+x+1)^(2k), whose difference
  reduces mod 2 to a power of an irreducible quadratic;
* PICKY: degree 2(2k+1) with a 2-adically non-square constant term;
  subtract 2^(-2l)(x^2+x+1)^(2k)x^2 and certify via a Hensel split
  plus root nonexistence (a discriminant test in the quadratic case).
  A 2-adically square constant term instead yields a certified
  obstruction: the subtracted family acquires a simple 2-adic root,
  so those differences are never sums of four squares.

``reduce_auto`` normalizes the input (square polynomial factor out,
denominators cleared by a square, small shifts searched) and runs the
one route its core calls for, transporting h and the certificate back
through the normalization.  The routes split the positive cores with no
gaps: odd kd goes to ALG6, degree 0 mod 4 to ALGN, and degree 2 mod 4
to NOS at the first shift whose value is 4^a(4k+3), else to PICKY at
the first whose value is not a 2-adic square.  Only a core that is a
2-adic square at every shift is left undecided.  GR4 runs only when it
is asked for (``reduce_cyclotomic_power``).

Positivity is tested or proved once per polynomial.  ``reduce_auto``
and every public route prepare their input one way (``_prepare``): one
remainder sequence of (f, f') gives the gate (``ratpoly._positivity``)
f's certificate, and on a non-square-free f its last term, gcd(f, f'),
feeds the square-free decomposition f = square_part^2 * core.  The
core's certificate then follows from f > 0 with no test of its own.
Each route checks its own preconditions on the core (degree class,
integer coefficients, NOS's constant term) and runs its private body
(``_gcd_route`` for ALG6 and ALGN, ``_constant_three_mod_four``, ...)
there; ``reduce_auto`` runs the shifted ones (NOS, PICKY) after one
pass over ``SHIFTS``.  ``_transport`` takes every outcome back to the
input.  So no route refuses a repeated factor, and a constant core
(f = c * g^2) is ZERO under every route.  A residual f - h^2 of ALG6,
ALGN, ALG9, GR4 or PICKY is positive by construction, since h^2 is
bounded by a certified epsilon; its certificate comes from
``ratpoly._proved_positive``, which decides only square-freeness.  The
certificate in hand goes to the certifier's private entry
(``certifier._certify_positive``), which reads it instead of testing
the same polynomial again and hands its square-freeness to the root
tree, so each residual is proved square-free once; the residual the
route built goes into its result (``_finish``).  ``reduce_auto``
certifies its core through ``certify_sos4``'s private ``_proved``,
which does the same.  ALG9 searches f's split f = A^2 + c once: each
branch a candidate f - 4^-l has the split (A, c - 4^-l), which goes to
the rule pipeline in place of a new search.

Every certified epsilon is an exponent: ``ratpoly._least_exponent(f, g)``
is the least k with f + 2^-k * g > 0 (g = -1 for ALG6, ALGN, ALG9 and
NOS, minus the subtracted family for GR4 and PICKY), and a route's l
starts at ceil(k / 2) = (k + 1) // 2, where 4^-l <= 2^-k.

No route gives up after a fixed number of tries: that search ends
because min f > 0, the gcd loop within d/2 steps, NOS in a row it
proves holds a hit, and the PICKY obstruction at the first square-free
member of its family.  Only ALG9 takes a cap, since it provably does
not end on some inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import zpoly
from .certifier import (SOS4, SimpleZ2Root, Sos4Certificate, _certify_positive,
                        certify_sos4, complete_square_split, hensel_split_even_parts,
                        quadratic_nonsquare_disc, verify_certificate)
from .hensel import ROOT_EXISTS, RootStatus, _certify, newton_refine
from .padic import is_square_in_q2, ord2, ord2_int
from .ratpoly import (_MINUS_ONE, PositivityCertificate, RatPoly,
                      _least_exponent, _positivity, _proved_positive,
                      _squarefree_decomposition, discriminant,
                      is_positive_on_reals, primitive_integer_coeffs)
from .record import Record, replace
from .newton_polygon import pure_slope

METHOD_ZERO = "ZERO"
METHOD_ALG6 = "ALG6"
METHOD_ALGN = "ALGN"
METHOD_ALG9 = "ALG9"
METHOD_NOS = "NOS"
METHOD_GR4 = "GR4"
METHOD_PICKY = "PICKY"

CYCLOTOMIC = RatPoly([1, 1, 1])

# bits to which an obstruction's root is refined
REFINE_PRECISION = 64


class Transform(Record):
    """How a result on the normalized core transports to the input:
    residual(x) * scale^2 = square_part(x)^2 * core_residual(x - shift).
    ``reduce_auto`` sets the scale and shift its route ran at;
    ``_transport`` adds the square part."""

    square_part: RatPoly = RatPoly([1])
    scale: Fraction = Fraction(1)
    shift: Fraction = Fraction(0)

    @property
    def trivial(self) -> bool:
        return (self.square_part == Transform.square_part and self.scale == 1
                and self.shift == 0)


class ReductionResult(Record):
    method: str
    input_poly: RatPoly
    h: RatPoly
    residual: RatPoly
    certificate: Sos4Certificate
    certified_poly: RatPoly
    parameters: dict
    trace: tuple = ()
    transform: Transform = Transform()


class BranchRecord(Record):
    h: RatPoly
    candidate: RatPoly
    certificate: Sos4Certificate

    @property
    def verdict(self) -> str:
        return self.certificate.verdict


class IterateRecord(Record):
    l: int
    branch_a: BranchRecord
    branch_b: BranchRecord


class NonTermination(Record):
    """ALG9's iterates on the input's core; ``transform`` takes the core
    to the input."""

    cap: int
    l_init: int
    epsilon: Fraction
    iterates: tuple[IterateRecord, ...]
    transform: Transform = Transform()


class ObstructionReport(Record):
    """The subtraction family provably fails: for the exhibited l the
    difference f - 2^(-2l)(x^2+x+1)^(2k)x^2 is positive yet has a
    certified simple 2-adic root, so it is not a sum of four squares.
    f (``input_poly``) is the input's core; ``transform`` takes it to the
    input, whose family square_part^2 * (f - ...) keeps that root at odd
    multiplicity."""

    input_poly: RatPoly
    ell: int
    gamma: int
    delta: int
    refined_root: int
    refine_precision: int
    residual: RatPoly
    certificate: Sos4Certificate
    parametric_disc_value: Fraction
    transform: Transform = Transform()


class InconclusiveReport(Record):
    note: str
    trace: tuple = ()
    certificate: Sos4Certificate | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _prepare(f: RatPoly) -> tuple[RatPoly, RatPoly, PositivityCertificate]:
    """The square part, square-free core and core certificate of f =
    square_part^2 * core, after the one gate that f is strictly positive
    on R.  A square-free f is its own core; otherwise the gate's
    gcd(f, f') feeds the square-free decomposition f = unit * prod g_i^i."""
    if f.is_zero:
        raise ValueError("input must be strictly positive on R")
    positivity, last = _positivity(f)
    if not positivity.verdict:
        raise ValueError("input must be strictly positive on R")
    square_part = RatPoly([1])
    core = f
    if not positivity.on_squarefree_part:
        unit, parts = _squarefree_decomposition(f, last)
        core = RatPoly([unit])
        for g_i, mult in parts:
            square_part = square_part * g_i ** (mult // 2)
            if mult % 2 == 1:
                core = core * g_i
        # the core's certificate, proved: it is a product of pairwise
        # coprime square-free parts, so square-free, with deg core
        # distinct complex roots; f = square_part^2 * core > 0 leaves
        # square_part no real root, so core > 0 on R (no real root,
        # core(0) > 0); and its leading coefficient is lc f > 0, the
        # g_i being monic
        positivity = PositivityCertificate(core.degree, 0, 1, 1, True, True)
    return square_part, core, positivity


def _on_core(f: RatPoly, body):
    """``body(core, positivity)`` run on f's prepared core, its outcome
    transported to f.  A positive constant core is SOS4, so it gets
    ``reduce_auto``'s ZERO result whatever the route."""
    square_part, core, positivity = _prepare(f)
    return _transport((_auto if core.degree == 0 else body)(core, positivity),
                      f, square_part)


def _integral(core: RatPoly) -> RatPoly:
    """The core, which NOS, GR4 and PICKY take only with integer
    coefficients."""
    _require(core.content.denominator == 1, "integer coefficients required")
    return core


def _finish(method: str, f: RatPoly, h: RatPoly, residual: RatPoly,
            certificate: Sos4Certificate, parameters: dict,
            trace: tuple = ()) -> ReductionResult:
    """The result for h with residual = f - h^2, which the caller built."""
    if certificate.verdict != SOS4:
        raise ArithmeticError(
            f"{method}: residual failed SOS4 certification ({certificate.verdict})")
    return ReductionResult(method, f, h, residual, certificate, residual,
                           parameters, trace)


def _valuation_bounds(f: RatPoly, e: int) -> tuple[int, int, int, dict]:
    """The bounds l1, l2, l3 on l for the certified epsilon 2^-e of f:
    4^-l <= 2^-e from l1 = ceil(e / 2) on."""
    d = f.degree
    kd = ord2(f.leading)[0]
    k0 = ord2(f[0])[0]
    l1 = (e + 1) // 2
    l2 = math.ceil(Fraction(-k0, 2)) + 1
    # l3 is the largest ceil((j*kd - d*v_j) / (2d - 2j)) over the nonzero
    # middle coefficients, v_j = ord2(f_j) = ord2(content) + ord2(p_j)
    # on the model f = c*P; -(-n // m) is the ceiling of n / m for m > 0
    vc = ord2(f.content)[0]
    p = f.primitive_part
    l3 = max((-((d * (vc + ord2_int(p[j])) - j * kd) // (2 * d - 2 * j))
              for j in range(1, d) if p[j]), default=0)
    params = {"epsilon": Fraction(1, 2 ** e), "l1": l1, "l2": l2, "l3": l3,
              "k0": k0, "kd": kd}
    return l1, l2, l3, params


def reduce_odd_valuation(f: RatPoly) -> ReductionResult:
    """Subtract 2^(-2l) when the leading coefficient has odd 2-adic
    valuation; the loop makes gcd(d, 2l + kd) = 1 so the difference is
    Eisenstein-irreducible of even degree."""
    return _on_core(f, lambda core, _: _gcd_route(core, 1))


def reduce_multiple_of_four(f: RatPoly) -> ReductionResult:
    """Degree 4*d0 variant: with kd even the loop drives
    gcd(d, 2l + kd) to 2, leaving a pure diagram whose slope
    denominator 2*d0 is even.  Odd kd delegates to the odd-valuation
    route."""
    def body(core, _):
        _require(core.degree % 4 == 0, "degree must be a positive multiple of 4")
        return _gcd_route(core, 2)
    return _on_core(f, body)


def _gcd_route(f: RatPoly, target: int) -> ReductionResult:
    """The body of ALG6 (``target`` 1) and ALGN (``target`` 2): subtract
    2^(-2l) for the first l from the valuation bounds on with
    gcd(d, 2l + kd) = target."""
    kd = ord2(f.leading)[0]
    if kd % 2 == 1:
        target = 1  # odd kd takes ALG6 on the ALGN route too
    else:
        _require(target == 2, "k_d must be odd")
    e = _least_exponent(f, _MINUS_ONE)
    l1, l2, l3, params = _valuation_bounds(f, e)
    l, trace = _gcd_steps(f.degree, kd, max(l1, l2, l3), target)
    h = RatPoly([Fraction(1, 2 ** l)])
    # h^2 = 4^(-l) <= 4^(-l1) <= eps = 2^(-e) and f - eps > 0, so f - h^2 > 0
    g = f - h * h
    cert = _certify_positive(g, _proved_positive(g))
    params["l"] = l
    if target == 1:
        return _finish(METHOD_ALG6, f, h, g, cert, params, tuple(trace))
    params["gcd_increments"] = len(trace)
    return _finish(METHOD_ALGN, f, h, g, cert, params, tuple(trace))


def _gcd_steps(d: int, kd: int, l: int, target: int) -> tuple[int, list]:
    """The first l' >= l with gcd(d, 2l' + kd) = target, and a trace
    entry per l passed over.  For even d, as l moves through d/2
    consecutive values 2l + kd meets every residue class mod d of the
    parity of kd; a target of that parity is met within d/2 steps, far
    inside the guard."""
    trace = []
    while math.gcd(d, 2 * l + kd) != target:
        trace.append(("l", l, "gcd", math.gcd(d, 2 * l + kd)))
        l += 1
        if len(trace) > 2 * d:
            raise ArithmeticError("gcd loop failed to terminate")
    return l, trace


def reduce_iterative(f: RatPoly, cap: int = 40) -> ReductionResult | NonTermination:
    """The conjectural loop: try h = 2^(-l) and h = 2^(-l)x^(d/2) with
    growing l, certifying each branch; after ``cap`` iterations return
    the per-iterate record instead of looping forever (some inputs
    provably never succeed)."""
    _require(cap >= 0, "cap must be nonnegative")
    return _on_core(f, lambda core, positivity: _iterative(core, positivity, cap))


def _iterative(f: RatPoly, positivity: PositivityCertificate,
               cap: int) -> ReductionResult | NonTermination:
    split = complete_square_split(f)
    first = _certify_positive(f, positivity, split)
    if first.verdict == SOS4:
        return ReductionResult(METHOD_ZERO, f, RatPoly(), f, first, f,
                               {"note": "already a sum of four squares"})
    d = f.degree
    # f* = x^d f(1/x) is positive too: x^d f(1/x) > 0 for x != 0, and
    # f*(0) is the leading coefficient of f
    fstar = f.reverse()
    e = max(_least_exponent(f, _MINUS_ONE), _least_exponent(fstar, _MINUS_ONE))
    eps = Fraction(1, 2 ** e)
    l = l_init = (e + 1) // 2
    iterates: list[IterateRecord] = []

    def branch(h: RatPoly, candidate_split: tuple[RatPoly, Fraction] | None) -> BranchRecord:
        # l grows from l_init, so 4^(-l) <= eps.  Branch a: f - 4^(-l) >=
        # f - eps(f) > 0.  Branch b: f - 4^(-l) x^d = x^d (f*(1/x) - 4^(-l))
        # > 0 for x != 0, as f* - eps(f*) > 0, and it is f(0) > 0 at 0
        candidate = f - h * h
        return BranchRecord(h, candidate, _certify_positive(
            candidate, _proved_positive(candidate), candidate_split))

    for _ in range(cap):
        records = []
        for k in (0, d // 2):  # branch a, h = 2^(-l); branch b, h = 2^(-l)x^(d/2)
            h = RatPoly.monomial(k, Fraction(1, 2 ** l))
            # f - 4^(-l) keeps f's top half, which alone fixes A in a split
            # A^2 + c with deg A = d/2 (``complete_square_split``), so
            # branch a's split is f's with c - 4^(-l); without one for f,
            # and on branch b, whose top coefficient moves, it is searched
            rec = branch(h, (split[0], split[1] - h[0] ** 2) if split and k == 0 else None)
            if rec.verdict == SOS4:
                return _finish(METHOD_ALG9, f, rec.h, rec.candidate, rec.certificate,
                               {"l": l, "l_init": l_init, "epsilon": eps},
                               tuple(iterates))
            records.append(rec)
        iterates.append(IterateRecord(l, *records))
        l += 1
    return NonTermination(cap, l_init, eps, tuple(iterates))


def reduce_constant_three_mod_four(f: RatPoly) -> ReductionResult:
    """Constant term 2^(2a)(4k+3): search odd N and l so that
    f - (x^(d/2)/2^l + 2^a/N)^2 is positive with Newton diagram exactly
    the segment (0, 2a+1)-(d, -2l) free of interior lattice points,
    hence Eisenstein-irreducible of even degree."""
    return _on_core(f, lambda core, _: _constant_three_mod_four(_integral(core)))


def _nos_candidates(f: RatPoly, a: int):
    """The (N, l) the NOS search tries, in order: row N = 3 for
    l = 1 .. L_diag + d/2, then, only if the caller is still asking, row
    N0 up to max(L_diag, L_pos) + d/2 (row 3 on from where it stopped
    when N0 = 3).  L_diag, N0 and L_pos are defined below."""
    # Row N0 holds a hit, for an integral f > 0 of degree d with
    # f(0) = 4^a u, u = 3 mod 4, and h = x^(d/2) / 2^l + c, c = 2^a / N:
    # * g = f - h^2 has g(0) = 4^a (u - N^-2) of valuation 2a+1 (N odd,
    #   so N^-2 = 1 mod 8) and a top coefficient f_d - 4^-l of valuation
    #   -2l.  f is integral, so v(f_j) >= 0, and once 2l > (d-1)(2a+1)
    #   (l >= L_diag) every middle point lies strictly above the segment
    #   (0, 2a+1)-(d, -2l); the x^(d/2) point sits at >= a+1-l (as
    #   L_diag >= a+1), above the segment's a+1/2-l there.  The diagram
    #   is then the segment, free of interior lattice points when
    #   gcd(2a+1+2l, d) = 1, which recurs within d/2 steps of l (2a+1+2l
    #   runs through the odd classes mod d).
    # * With eps = eps(f) and eps* = eps(f*), f > eps and f > eps* x^d
    #   (f*(1/x) > eps* for x != 0), so f > (eps + eps* x^d) / 2.  Take N0
    #   the least odd N >= 3 with N^2 eps >= 4^(a+1) and L_pos the least l
    #   with 4^l eps* >= 4: then eps/2 >= 2c^2 and eps* x^d/2 >= 2x^d/4^l,
    #   so f > 2c^2 + 2x^d/4^l >= h^2 for l >= L_pos.
    d, m = f.degree, f.degree // 2
    l_diag = (d - 1) * (2 * a + 1) // 2 + 1
    yield from ((3, ell) for ell in range(1, l_diag + m + 1))
    e = _least_exponent(f, _MINUS_ONE)
    e_star = _least_exponent(f.reverse(), _MINUS_ONE)
    # N^2 eps >= 4^(a+1) is N^2 >= 2^(2a+2+e); | 1 rounds an even N up
    n0 = max(3, math.isqrt(2 ** (2 * a + 2 + e) - 1) + 1) | 1
    l_pos = (e_star + 3) // 2  # 2l - e* >= 2
    first = l_diag + m + 1 if n0 == 3 else 1
    yield from ((n0, ell) for ell in range(first, max(l_diag, l_pos) + m + 1))


def _constant_three_mod_four(f: RatPoly) -> ReductionResult:
    _require(_is_square_times_three_mod_four(f[0]),
             "constant term not of the form 2^(2a)(4k+3)")
    a = ord2(f[0])[0] // 2
    d = f.degree
    tried = 0
    trace = []
    for n, ell in _nos_candidates(f, a):
        tried += 1
        if math.gcd(2 * a + 1 + 2 * ell, d) != 1:
            continue
        h = RatPoly.monomial(d // 2, Fraction(1, 2 ** ell)) + RatPoly(
            [Fraction(2 ** a, n)])
        g = f - h * h
        # the diagram is exactly the segment (0, 2a+1)-(d, -2l)
        if (pure_slope(g) is None or g.degree != d
                or ord2(g[0])[0] != 2 * a + 1 or ord2(g[d])[0] != -2 * ell):
            if len(trace) < 50:
                trace.append(("N", n, "l", ell, "rejected", "diagram"))
            continue
        positivity = is_positive_on_reals(g)
        if not positivity.verdict:
            if len(trace) < 50:
                trace.append(("N", n, "l", ell, "rejected", "positivity"))
            continue
        cert = _certify_positive(g, positivity)
        params = {"N": n, "l": ell, "a": a, "candidates_tried": tried}
        return _finish(METHOD_NOS, f, h, g, cert, params, tuple(trace))
    raise ArithmeticError("NOS: no hit in the row that provably holds one")


def reduce_cyclotomic_power(f: RatPoly) -> ReductionResult:
    """Degree 4k: subtract 2^(-2l)(x^2+x+1)^(2k).  After scaling by
    2^(2l) the difference reduces mod 2 to (x^2+x+1)^(2k), so every
    2-adic factor has even degree."""
    def body(core, _):
        _require(core.degree % 4 == 0, "degree must be a positive multiple of 4")
        return _cyclotomic_power(_integral(core))
    return _on_core(f, body)


def _cyclotomic_power(f: RatPoly) -> ReductionResult:
    k = f.degree // 4
    base = CYCLOTOMIC ** (2 * k)
    e0 = _least_exponent(f, -base)
    ell = max((e0 + 1) // 2, 1)
    h = (CYCLOTOMIC ** k) * Fraction(1, 2 ** ell)
    # h^2 = 4^(-l) * base <= eps0 * base, as l >= ceil(e0 / 2) for
    # eps0 = 2^(-e0), and f - eps0 * base > 0
    g = f - h * h
    cert = _certify_positive(g, _proved_positive(g))
    params = {"l": ell, "k": k, "epsilon0": Fraction(1, 2 ** e0)}
    return _finish(METHOD_GR4, f, h, g, cert, params)


def reduce_twice_odd_degree(f: RatPoly) -> ReductionResult | ObstructionReport:
    """Degree 2(2k+1): subtract 2^(-2l)(x^2+x+1)^(2k)x^2.

    With f(0) not a 2-adic square the scaled difference Hensel-splits
    into an even-degree-certified part and a quadratic with no 2-adic
    root (discriminant test when k = 0).  When f(0) is a 2-adic square
    the same family is certifiably NOT a sum of four squares: the
    scaled difference has a simple 2-adic root near 2^(l+a), returned
    as a verified obstruction."""
    def body(core, _):
        _require(core.degree % 4 == 2, "degree must be 2 mod 4 (that is, 2*(2k+1))")
        return _twice_odd_degree(_integral(core))
    return _on_core(f, body)


def _twice_odd_degree(f: RatPoly) -> ReductionResult | ObstructionReport:
    k = (f.degree - 2) // 4
    k0 = ord2(f[0])[0]
    base = CYCLOTOMIC ** (2 * k) * RatPoly.monomial(2)
    e0 = _least_exponent(f, -base)
    ell_pos = (e0 + 1) // 2  # 4^(-ell_pos) <= eps0 = 2^(-e0)

    if is_square_in_q2(f[0]):
        return _obstruction(f, k0, ell_pos, base)

    bounds = ([2, Fraction(k0 + 5, 2)] if k == 0 else
              [1] + ([Fraction(k0, 2) - ord2(f[1])[0] + 2] if f[1] else []))
    ell = math.floor(max(ell_pos, *bounds)) + 1
    h = CYCLOTOMIC ** k * RatPoly.monomial(1, Fraction(1, 2 ** ell))
    g = f - h * h
    params = {"l": ell, "k": k, "k0": k0, "epsilon0": Fraction(1, 2 ** e0)}
    if k == 0:
        evidence = quadratic_nonsquare_disc(g)
        if evidence is None:
            raise ArithmeticError(
                "quadratic discriminant unexpectedly a 2-adic square")
    else:
        # 4^l g = 4^l f - base = (x^2+x+1)^(2k) * x^2 mod 2, a split Hensel's
        # lemma lifts to Z_2
        evidence = hensel_split_even_parts(g, Fraction(4 ** ell))
        if evidence is None:
            raise ArithmeticError(
                "the Hensel split failed or its quadratic factor has a 2-adic root")
        params.update(hensel_g_degree=evidence.g_degree, hensel_h_degree=evidence.h_degree)
    # l > ell_pos, so h^2 = 4^(-l) * base <= 4^(-ell_pos) * base <= eps0 * base,
    # and f - eps0 * base > 0
    positivity = _proved_positive(g)
    return _finish(METHOD_PICKY, f, h, g, Sos4Certificate.of(positivity, evidence), params)


def _obstruction(f: RatPoly, k0: int, ell_pos: int,
                 base: RatPoly) -> ObstructionReport:
    # f is integral and base monic of degree d = deg f, so q = 4^l f - base
    # keeps degree d (its lead coefficient 4^l * lc(f) - 1 is odd) and
    # disc(q) is the family's parametric discriminant at lambda = 4^l.
    # The witness is the root tree's check at gamma = 2^(l+a), which
    # passes at every l >= a + 3: with f(0) = 4^a u, u = 1 mod 8 (a 2-adic
    # square) and C = x^2+x+1,
    # * q'(gamma) = 4^l f'(gamma) - 2 gamma C(gamma)^(2k) - 2k C^(2k-1) C'
    #   gamma^2 has ord2 exactly l+a+1, from its middle term (C(gamma) is
    #   odd; the others have ord2 >= 2l and >= 2l+2a+1);
    # * q(gamma) = 4^(l+a) (u - C(gamma)^(2k)) + sum_j>=1 4^l f_j gamma^j has
    #   ord2 >= 2l+2a+3 = 2(l+a+1)+1: C(gamma)^(2k) = 1 mod 2^(l+a+1) and
    #   u = 1 mod 8, and ord2(4^l f_j gamma^j) >= 3l+a >= 2l+2a+3.
    # So only square-freeness is searched: q of degree d is square-free
    # exactly when disc(q) != 0.  It fails only where lambda = 4^l is a
    # root of the parametric discriminant, a polynomial in lambda of
    # degree at most 2d-2 whose top coefficient is disc f != 0 (f is
    # square-free); the loop passes at most 2d-2 values of l.
    a = k0 // 2
    ell = max(a + 3, ell_pos, 1)
    while (disc := discriminant(q := f * (4 ** ell) - base)) == 0:
        ell += 1
    coeffs = primitive_integer_coeffs(q)
    witness = _certify(coeffs, zpoly.diff(coeffs), 2 ** (ell + a), False)
    if witness is None:
        raise ArithmeticError("obstruction witness failed its check")
    refined = newton_refine(q, witness.gamma, witness.delta, REFINE_PRECISION)
    # l >= ell_pos, so 4^(-l) * base <= 4^(-ell_pos) * base <= eps0 * base,
    # and f - eps0 * base > 0
    g = f - base * Fraction(1, 4 ** ell)
    positivity = _proved_positive(g)
    cert = Sos4Certificate.of(positivity, SimpleZ2Root(RootStatus(ROOT_EXISTS, witness)))
    if not verify_certificate(g, cert):
        raise ArithmeticError("obstruction certificate failed to re-verify")
    return ObstructionReport(f, ell, witness.gamma, witness.delta, refined,
                             REFINE_PRECISION, g, cert, disc)


# ---------------------------------------------------------------------------
# Counterexample families
# ---------------------------------------------------------------------------

def palindromic_counterexample(k: int, n: int) -> tuple[RatPoly, tuple[RatPoly, Fraction]]:
    """The sparse palindromic family (4x^(2(2k+1)) + x^(2k+1) + 4)/N^2
    defeating the iterative loop, with its split witness
    A = (2/N)x^(2k+1) + 1/(4N), c = 63/(16N^2)."""
    _require(k >= 0, "k must be nonnegative")
    _require(n > 64 and n % 2 == 1, "N must be odd and > 64")
    m = 2 * k + 1
    f = RatPoly([Fraction(4, n * n)] + [0] * (m - 1) + [Fraction(1, n * n)]
                + [0] * (m - 1) + [Fraction(4, n * n)])
    a_poly = RatPoly.monomial(m, Fraction(2, n)) + RatPoly([Fraction(1, 4 * n)])
    c = Fraction(63, 16 * n * n)
    assert f == a_poly * a_poly + RatPoly([c])
    return f, (a_poly, c)


def square_plus_8a_minus_1(g: RatPoly, a: int) -> tuple[RatPoly, tuple[RatPoly, Fraction]]:
    """f = g^2 + (8a - 1) for odd-degree integer g: every such f is
    positive but never a sum of four squares (1 - 8a is a 2-adic
    square, splitting f into two coprime odd-degree factors)."""
    _require(a >= 1, "a must be a positive integer")
    _require(g.degree >= 1 and g.degree % 2 == 1, "g must have odd degree")
    _require(g.content.denominator == 1,
             "g must have integer coefficients")
    c = Fraction(8 * a - 1)
    return g * g + RatPoly([c]), (g, c)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

# the changes of variables x -> x + shift that reduce_auto searches
SHIFTS = tuple(Fraction(s) for s in ("0", "-1", "1", "-2", "2", "-3", "3", "-4",
                                     "4", "-1/2", "1/2", "-3/2", "3/2"))

ALWAYS_SQUARE_NOTE = (
    "every tested shift evaluates to a 2-adic square, so no change of "
    "variables exposes a 2-adically non-square constant term; the "
    "quadratic-factor subtraction route cannot apply and no other rule "
    "concludes")


def _square_clearing_scale(f: RatPoly) -> int:
    """Smallest positive D with D^2 * f integral (falls back to the
    full denominator lcm when it is too large to factor quickly).  The
    lcm of the coefficient denominators is the denominator of the
    content."""
    lcm = f.content.denominator
    if lcm == 1:
        return 1
    if lcm > 10 ** 12:
        return lcm
    d_out = 1
    rest = lcm
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            d_out *= p ** ((e + 1) // 2)
        p += 1 if p == 2 else 2
    d_out *= rest  # leftover prime, exponent 1
    return d_out


def _transport(outcome, f: RatPoly, square_part: RatPoly):
    """``outcome`` of a route body on f's core taken to f = square_part^2 *
    core.  The outcome's transform holds the scale and shift the body ran
    at, and h becomes square_part * h_core(x - shift) / scale.  A
    NonTermination or ObstructionReport stays on the core and only
    gains the transform; an InconclusiveReport, or an outcome on f
    itself, is returned as it is."""
    if isinstance(outcome, InconclusiveReport) or (
            square_part.degree == 0 and outcome.transform.trivial):
        return outcome  # f is its own core, unshifted and unscaled
    transform = replace(outcome.transform, square_part=square_part)
    if not isinstance(outcome, ReductionResult):
        return replace(outcome, transform=transform)
    shift, scale = transform.shift, transform.scale
    h = square_part * outcome.h.shift(-shift) * (1 / scale)
    residual = f - h * h
    assert residual * scale ** 2 == square_part * square_part * outcome.residual.shift(-shift)
    return replace(outcome, input_poly=f, h=h, residual=residual, transform=transform)


def _is_square_times_three_mod_four(value: Fraction) -> bool:
    """value = 2^(2a) * u with u = 3 mod 4: the constant term NOS needs."""
    v, u = ord2(value)
    return v % 2 == 0 and (u.numerator * u.denominator) % 4 == 3


def reduce_auto(f: RatPoly) -> ReductionResult | InconclusiveReport:
    """Normalize f and run the route its core calls for.

    The core (f without its square factor) is certified first, and is
    ZERO when it is SOS4.  Otherwise odd kd goes to ALG6 and degree
    0 mod 4 to ALGN, both of which always conclude.  A core of degree
    2 mod 4 goes to NOS at the first shift in ``SHIFTS`` whose value is
    4^a(4k+3), else to PICKY at the first whose value is not a 2-adic
    square; with neither, an InconclusiveReport says so.

    Raises ValueError for inputs that are not strictly positive on the
    reals.
    """
    return _on_core(f, _auto)


def _auto(core: RatPoly, positivity: PositivityCertificate
          ) -> ReductionResult | InconclusiveReport:
    # the public entry, so that a caller that wraps ``certify_sos4`` (as
    # perfbench's tracer does) sees reduce_auto certify its core
    first = certify_sos4(core, _proved=positivity)
    trace = (("certify", first.verdict),)
    if first.verdict == SOS4:
        return ReductionResult(METHOD_ZERO, core, RatPoly(), core, first, core, {}, trace)

    # a positive constant is SOS4, so the core has even degree >= 2
    scale, shift = 1, Fraction(0)
    if ord2(core.leading)[0] % 2 == 1:
        route, res = "alg6", _gcd_route(core, 1)
    elif core.degree % 4 == 0:
        route, res = "algn", _gcd_route(core, 2)
    else:
        picky_shift = None
        for shift in SHIFTS:
            value = core(shift)
            if _is_square_times_three_mod_four(value):
                route, body = f"nos@shift={shift}", _constant_three_mod_four
                break
            if picky_shift is None and not is_square_in_q2(value):
                picky_shift = shift
        else:
            if picky_shift is None:
                return InconclusiveReport(ALWAYS_SQUARE_NOTE, trace, first)
            route, body, shift = f"picky@shift={picky_shift}", _twice_odd_degree, picky_shift
        # scaling by a square keeps the constant term 4^a(4k+3), which NOS
        # checks, or not a 2-adic square, so PICKY finds no obstruction
        shifted = core.shift(shift)
        scale = _square_clearing_scale(shifted)
        res = body(shifted * (scale * scale))
    return replace(res, trace=trace + ((route, f"succeeded ({res.method})"),) + res.trace,
                   transform=Transform(scale=Fraction(scale), shift=shift))
