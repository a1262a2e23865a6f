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
  Eisenstein-irreducible;
* GR4: degree 4k; subtract 2^(-2l)(x^2+x+1)^(2k), whose difference
  reduces mod 2 to a power of an irreducible quadratic;
* PICKY: degree 2(2k+1) with a 2-adically non-square constant term;
  subtract 2^(-2l)(x^2+x+1)^(2k)x^2 and certify via a Hensel split
  plus root nonexistence (a discriminant test in the quadratic case).
  A 2-adically square constant term instead yields a certified
  obstruction: the subtracted family acquires a simple 2-adic root,
  so those differences are never sums of four squares.

``reduce_auto`` normalizes the input (square polynomial factor out,
denominators cleared by a square, small shifts searched) and tries the
routes in order, transporting h and the certificate back through the
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certifier import (NOT_SOS4, SOS4, HenselSplitEvenParts,
                        QuadraticNonSquareDisc, SimpleZ2Root, Sos4Certificate,
                        certify_sos4, verify_certificate)
from .f2 import f2_mul
from .hensel import (NO_ROOT, ROOT_EXISTS, RootStatus, RootWitness,
                     hensel_split, newton_refine, z2_root_status)
from .padic import is_square_in_q2, ord2
from .ratpoly import (RatPoly, SearchDepthExceeded, discriminant,
                      epsilon_below_infimum, is_positive_on_reals,
                      is_squarefree, perturbation_bound,
                      squarefree_decomposition)
from .newton_polygon import newton_diagram

METHOD_ZERO = "ZERO"
METHOD_ALG6 = "ALG6"
METHOD_ALGN = "ALGN"
METHOD_ALG9 = "ALG9"
METHOD_NOS = "NOS"
METHOD_GR4 = "GR4"
METHOD_PICKY = "PICKY"

CYCLOTOMIC = RatPoly([1, 1, 1])


@dataclass(frozen=True)
class Transform:
    """How a result on the normalized core transports to the input:
    residual(x) * scale^2 = square_part(x)^2 * core_residual(x - shift).
    """

    square_part: RatPoly = RatPoly([1])
    scale: Fraction = Fraction(1)
    shift: Fraction = Fraction(0)

    @property
    def trivial(self) -> bool:
        return (self.square_part == RatPoly([1]) and self.scale == 1
                and self.shift == 0)


@dataclass(frozen=True)
class ReductionResult:
    method: str
    input_poly: RatPoly
    h: RatPoly
    residual: RatPoly
    certificate: Sos4Certificate
    certified_poly: RatPoly
    parameters: dict
    trace: tuple = ()
    transform: Transform = Transform()


@dataclass(frozen=True)
class BranchRecord:
    h: RatPoly
    candidate: RatPoly
    certificate: Sos4Certificate | None
    note: str | None = None

    @property
    def verdict(self) -> str:
        return self.certificate.verdict if self.certificate else "ERROR"


@dataclass(frozen=True)
class IterateRecord:
    l: int
    branch_a: BranchRecord
    branch_b: BranchRecord


@dataclass(frozen=True)
class NonTermination:
    cap: int
    l_init: int
    epsilon: Fraction
    iterates: tuple[IterateRecord, ...]


@dataclass(frozen=True)
class ObstructionReport:
    """The subtraction family provably fails: for the exhibited l the
    difference f - 2^(-2l)(x^2+x+1)^(2k)x^2 is positive yet has a
    certified simple 2-adic root, so it is not a sum of four squares."""

    input_poly: RatPoly
    ell: int
    gamma: int
    delta: int
    refined_root: int
    refine_precision: int
    residual: RatPoly
    certificate: Sos4Certificate
    parametric_disc_value: Fraction


@dataclass(frozen=True)
class InconclusiveReport:
    note: str
    trace: tuple = ()
    certificate: Sos4Certificate | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _require_squarefree_positive(f: RatPoly) -> None:
    """One positivity certificate gates a route: its rank tells
    square-freeness, its verdict strict positivity."""
    positivity = is_positive_on_reals(f)
    _require(positivity.on_squarefree_part, "input must be square-free")
    _require(positivity.verdict, "input must be positive on R")


def _dyadic_exponent(eps: Fraction) -> int:
    v, u = ord2(eps)
    if u != 1 or v > 0:
        raise ValueError(f"expected a dyadic epsilon <= 1, got {eps}")
    return -v


def _finish(method: str, f: RatPoly, h: RatPoly, certificate: Sos4Certificate,
            parameters: dict, trace: tuple = ()) -> ReductionResult:
    residual = f - h * h
    if certificate.verdict != SOS4:
        raise ArithmeticError(
            f"{method}: residual failed SOS4 certification ({certificate.verdict})")
    return ReductionResult(method, f, h, residual, certificate, residual,
                           parameters, trace)


def _valuation_bounds(f: RatPoly, eps: Fraction) -> tuple[int, int, int, dict]:
    d = f.degree
    kd = ord2(f.leading)[0]
    k0 = ord2(f[0])[0]
    l1 = math.ceil(Fraction(_dyadic_exponent(eps), 2))
    l2 = math.ceil(Fraction(-k0, 2)) + 1
    slopes = [Fraction(j * kd - d * ord2(f[j])[0], 2 * d - 2 * j)
              for j in range(1, d) if f[j] != 0]
    l3 = math.ceil(max(slopes)) if slopes else 0
    params = {"epsilon": eps, "l1": l1, "l2": l2, "l3": l3, "k0": k0, "kd": kd}
    return l1, l2, l3, params


def reduce_odd_valuation(f: RatPoly) -> ReductionResult:
    """Subtract 2^(-2l) when the leading coefficient has odd 2-adic
    valuation; the loop makes gcd(d, 2l + kd) = 1 so the difference is
    Eisenstein-irreducible of even degree."""
    _require(not f.is_zero and f.degree >= 2, "need degree >= 2")
    _require_squarefree_positive(f)
    kd = ord2(f.leading)[0]
    _require(kd % 2 == 1, "k_d must be odd")
    d = f.degree
    eps = epsilon_below_infimum(f)
    l1, l2, l3, params = _valuation_bounds(f, eps)
    l = max(l1, l2, l3)
    trace = []
    while math.gcd(d, 2 * l + kd) != 1:
        trace.append(("l", l, "gcd", math.gcd(d, 2 * l + kd)))
        l += 1
        if len(trace) > 4 * d + 8:
            raise ArithmeticError("gcd loop failed to terminate")
    h = RatPoly([Fraction(1, 2 ** l)])
    cert = certify_sos4(f - h * h)
    params.update({"l": l})
    return _finish(METHOD_ALG6, f, h, cert, params, tuple(trace))


def reduce_multiple_of_four(f: RatPoly) -> ReductionResult:
    """Degree 4*d0 variant: with kd even the loop drives
    gcd(d, 2l + kd) to 2, leaving a pure diagram whose slope
    denominator 2*d0 is even.  Odd kd delegates to the odd-valuation
    route."""
    _require(not f.is_zero and f.degree % 4 == 0 and f.degree >= 4,
             "degree must be a positive multiple of 4")
    _require_squarefree_positive(f)
    kd = ord2(f.leading)[0]
    if kd % 2 == 1:
        return reduce_odd_valuation(f)
    d = f.degree
    eps = epsilon_below_infimum(f)
    l1, l2, l3, params = _valuation_bounds(f, eps)
    l = max(l1, l2, l3)
    increments = 0
    trace = []
    while math.gcd(d, 2 * l + kd) != 2:
        trace.append(("l", l, "gcd", math.gcd(d, 2 * l + kd)))
        l += 1
        increments += 1
        if increments > 2 * d:
            raise ArithmeticError("gcd loop failed to terminate")
    h = RatPoly([Fraction(1, 2 ** l)])
    cert = certify_sos4(f - h * h)
    params.update({"l": l, "gcd_increments": increments})
    return _finish(METHOD_ALGN, f, h, cert, params, tuple(trace))


def reduce_iterative(f: RatPoly, cap: int = 40) -> ReductionResult | NonTermination:
    """The conjectural loop: try h = 2^(-l) and h = 2^(-l)x^(d/2) with
    growing l, certifying each branch; after ``cap`` iterations return
    the per-iterate record instead of looping forever (some inputs
    provably never succeed)."""
    _require(not f.is_zero and f.degree >= 2 and f.degree % 2 == 0,
             "need positive even degree")
    _require_squarefree_positive(f)
    first = certify_sos4(f)
    if first.verdict == SOS4:
        return ReductionResult(METHOD_ZERO, f, RatPoly(), f, first, f,
                               {"note": "already a sum of four squares"})
    d = f.degree
    fstar = f.reverse()
    eps = min(epsilon_below_infimum(f), epsilon_below_infimum(fstar))
    l = math.ceil(Fraction(_dyadic_exponent(eps), 2))
    l_init = l
    iterates: list[IterateRecord] = []

    def branch(h: RatPoly) -> BranchRecord:
        candidate = f - h * h
        try:
            cert = certify_sos4(candidate)
            return BranchRecord(h, candidate, cert)
        except ValueError as exc:  # degenerate candidate (e.g. not positive)
            return BranchRecord(h, candidate, None, str(exc))

    for _ in range(cap):
        rec_a = branch(RatPoly([Fraction(1, 2 ** l)]))
        if rec_a.verdict == SOS4:
            return _finish(METHOD_ALG9, f, rec_a.h, rec_a.certificate,
                           {"l": l, "l_init": l_init, "epsilon": eps},
                           tuple(iterates))
        rec_b = branch(RatPoly.monomial(d // 2, Fraction(1, 2 ** l)))
        if rec_b.verdict == SOS4:
            return _finish(METHOD_ALG9, f, rec_b.h, rec_b.certificate,
                           {"l": l, "l_init": l_init, "epsilon": eps},
                           tuple(iterates))
        iterates.append(IterateRecord(l, rec_a, rec_b))
        l += 1
    return NonTermination(cap, l_init, eps, tuple(iterates))


def reduce_constant_three_mod_four(f: RatPoly, n_limit: int = 99,
                                   l_limit: int = 64) -> ReductionResult:
    """Constant term 2^(2a)(4k+3): search odd N and l so that
    f - (x^(d/2)/2^l + 2^a/N)^2 is positive with Newton diagram exactly
    the segment (0, 2a+1)-(d, -2l) free of interior lattice points,
    hence Eisenstein-irreducible of even degree."""
    _require(not f.is_zero and f.degree >= 2 and f.degree % 2 == 0,
             "need positive even degree")
    _require(all(c.denominator == 1 for c in f.coeffs),
             "integer coefficients required")
    _require(is_positive_on_reals(f).verdict, "input must be positive on R")
    c0 = f[0]
    v, u = ord2(c0)
    _require(v % 2 == 0 and u % 4 == 3,
             "constant term not of the form 2^(2a)(4k+3)")
    a = v // 2
    d = f.degree
    tried = 0
    trace = []
    for n in range(3, n_limit + 1, 2):
        for ell in range(1, l_limit + 1):
            tried += 1
            if math.gcd(2 * a + 1 + 2 * ell, d) != 1:
                continue
            h = RatPoly.monomial(d // 2, Fraction(1, 2 ** ell)) + RatPoly(
                [Fraction(2 ** a, n)])
            g = f - h * h
            diagram = newton_diagram(g)
            if diagram.vertices != ((0, 2 * a + 1), (d, -2 * ell)):
                if len(trace) < 50:
                    trace.append(("N", n, "l", ell, "rejected", "diagram"))
                continue
            if not is_positive_on_reals(g).verdict:
                if len(trace) < 50:
                    trace.append(("N", n, "l", ell, "rejected", "positivity"))
                continue
            cert = certify_sos4(g)
            params = {"N": n, "l": ell, "a": a, "candidates_tried": tried}
            return _finish(METHOD_NOS, f, h, cert, params, tuple(trace))
    raise SearchDepthExceeded(
        f"no (N, l) candidate accepted up to N={n_limit}, l={l_limit}; "
        f"last tried (N, l) = ({n_limit}, {l_limit})")


def reduce_cyclotomic_power(f: RatPoly) -> ReductionResult:
    """Degree 4k: subtract 2^(-2l)(x^2+x+1)^(2k).  After scaling by
    2^(2l) the difference reduces mod 2 to (x^2+x+1)^(2k), so every
    2-adic factor has even degree."""
    _require(not f.is_zero and f.degree % 4 == 0 and f.degree >= 4,
             "degree must be a positive multiple of 4")
    _require(all(c.denominator == 1 for c in f.coeffs),
             "integer coefficients required")
    _require_squarefree_positive(f)
    k = f.degree // 4
    base = CYCLOTOMIC ** (2 * k)
    eps0 = perturbation_bound(f, -base)
    ell = math.ceil(Fraction(_dyadic_exponent(eps0), 2))
    ell = max(ell, 1)
    h = (CYCLOTOMIC ** k) * Fraction(1, 2 ** ell)
    g = f - h * h
    cert = certify_sos4(g)
    params = {"l": ell, "k": k, "epsilon0": eps0}
    return _finish(METHOD_GR4, f, h, cert, params)


def _picky_checks(f: RatPoly) -> int:
    _require(not f.is_zero and f.degree >= 2 and (f.degree - 2) % 4 == 0,
             "degree must be 2 mod 4 (that is, 2*(2k+1))")
    _require(all(c.denominator == 1 for c in f.coeffs),
             "integer coefficients required")
    _require_squarefree_positive(f)
    return (f.degree - 2) // 4


def reduce_twice_odd_degree(f: RatPoly, refine_precision: int = 64
                            ) -> ReductionResult | ObstructionReport:
    """Degree 2(2k+1): subtract 2^(-2l)(x^2+x+1)^(2k)x^2.

    With f(0) not a 2-adic square the scaled difference Hensel-splits
    into an even-degree-certified part and a quadratic with no 2-adic
    root (discriminant test when k = 0).  When f(0) is a 2-adic square
    the same family is certifiably NOT a sum of four squares: the
    scaled difference has a simple 2-adic root near 2^(l+a), returned
    as a verified obstruction."""
    k = _picky_checks(f)
    d = f.degree
    k0 = ord2(f[0])[0]
    base = (CYCLOTOMIC ** (2 * k)) * RatPoly.monomial(2) if k else RatPoly.monomial(2)
    eps0 = perturbation_bound(f, -base)
    ell_pos = math.ceil(Fraction(_dyadic_exponent(eps0), 2))

    if is_square_in_q2(f[0]):
        return _obstruction(f, k, k0, ell_pos, base, refine_precision)

    if k == 0:
        bound = max(Fraction(2), Fraction(ell_pos), Fraction(k0 + 5, 2))
        ell = math.floor(bound) + 1
        q = f * (4 ** ell) - RatPoly.monomial(2)
        disc_q = q[1] * q[1] - 4 * q[2] * q[0]
        if is_square_in_q2(disc_q):
            raise ArithmeticError(
                "quadratic discriminant unexpectedly a 2-adic square")
        h = RatPoly.monomial(1, Fraction(1, 2 ** ell))
        g = f - h * h
        positivity = is_positive_on_reals(g)
        _require(positivity.verdict, "residual lost positivity")
        disc_g = g[1] * g[1] - 4 * g[2] * g[0]
        cert = Sos4Certificate(SOS4, "quadratic_nonsquare_disc", positivity,
                               QuadraticNonSquareDisc(disc_g))
        return _finish(METHOD_PICKY, f, h, cert,
                       {"l": ell, "k": 0, "k0": k0, "epsilon0": eps0})

    k1_term = []
    if f[1] != 0:
        k1_term.append(Fraction(k0, 2) - ord2(f[1])[0] + 2)
    bound = max([Fraction(1), Fraction(ell_pos)] + k1_term)
    ell = math.floor(bound) + 1
    q = f * (4 ** ell) - base
    g1 = 1
    for _ in range(2 * k):
        g1 = f2_mul(g1, 0b111)
    factors = hensel_split(q, g1, 0b100, precision=64)
    status = z2_root_status(q)
    if status.tag != NO_ROOT:
        raise ArithmeticError(
            "the quadratic Hensel factor has a 2-adic root")
    h = (CYCLOTOMIC ** k) * RatPoly.monomial(1, Fraction(1, 2 ** ell))
    g = f - h * h
    positivity = is_positive_on_reals(g)
    _require(positivity.verdict, "residual lost positivity")
    evidence = HenselSplitEvenParts(Fraction(4 ** ell), len(factors.g) - 1,
                                    len(factors.h) - 1, factors.modulus, status)
    cert = Sos4Certificate(SOS4, "hensel_split_even_parts", positivity, evidence)
    return _finish(METHOD_PICKY, f, h, cert,
                   {"l": ell, "k": k, "k0": k0, "epsilon0": eps0,
                    "hensel_g_degree": len(factors.g) - 1,
                    "hensel_h_degree": len(factors.h) - 1})


def _obstruction(f: RatPoly, k: int, k0: int, ell_pos: int, base: RatPoly,
                 refine_precision: int) -> ObstructionReport:
    # f is integral and base monic of degree deg f, so q keeps degree
    # deg f (its lead coefficient 4^l * lc(f) - 1 is odd) and disc(q) is
    # the family's parametric discriminant at lambda = 4^l
    a = k0 // 2
    ell = max(a + 3, ell_pos, 1)
    for _ in range(64):
        q = f * (4 ** ell) - base
        gamma = 2 ** (ell + a)
        qprime = q.derivative()
        dv = qprime(gamma)
        v = q(gamma)
        if dv != 0 and v != 0 and is_squarefree(q):
            delta = ord2(dv)[0]
            if ord2(v)[0] >= 2 * delta + 1:
                break
        ell += 1
    else:
        raise ArithmeticError("no certifiable obstruction witness found")
    refined = newton_refine(q, gamma, delta, refine_precision)
    g = f - base * Fraction(1, 4 ** ell)
    positivity = is_positive_on_reals(g)
    _require(positivity.verdict, "obstruction residual lost positivity")
    witness = RootWitness(gamma, delta, 1 << (2 * delta + 1))
    status = RootStatus(ROOT_EXISTS, witness)
    cert = Sos4Certificate(NOT_SOS4, "simple_z2_root", positivity,
                           SimpleZ2Root(status))
    if not verify_certificate(g, cert):
        raise ArithmeticError("obstruction certificate failed to re-verify")
    return ObstructionReport(f, ell, gamma, delta, refined, refine_precision,
                             g, cert, discriminant(q))


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
    _require(all(c.denominator == 1 for c in g.coeffs),
             "g must have integer coefficients")
    c = Fraction(8 * a - 1)
    return g * g + RatPoly([c]), (g, c)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

INTEGER_SHIFTS = (Fraction(0), Fraction(-1), Fraction(1), Fraction(-2),
                  Fraction(2), Fraction(-3), Fraction(3), Fraction(-4),
                  Fraction(4))
HALF_SHIFTS = (Fraction(-1, 2), Fraction(1, 2), Fraction(-3, 2),
               Fraction(3, 2), Fraction(-2), Fraction(2))
SHIFT_SET = INTEGER_SHIFTS + tuple(s for s in HALF_SHIFTS
                                   if s not in INTEGER_SHIFTS)

ALWAYS_SQUARE_NOTE = (
    "every tested shift evaluates to a 2-adic square, so no change of "
    "variables exposes a 2-adically non-square constant term; the "
    "quadratic-factor subtraction route cannot apply and no other rule "
    "concludes")


def _square_clearing_scale(f: RatPoly) -> int:
    """Smallest positive D with D^2 * f integral (falls back to the
    full denominator lcm when it is too large to factor quickly)."""
    lcm = 1
    for c in f.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
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


def _transport(result: ReductionResult, f: RatPoly, square_part: RatPoly,
               scale: int, shift: Fraction, trace: tuple) -> ReductionResult:
    transform = Transform(square_part, Fraction(scale), shift)
    h = square_part * result.h.shift(-shift) * Fraction(1, scale)
    residual = f - h * h
    core = result.residual
    assert residual * (scale * scale) == square_part * square_part * core.shift(-shift)
    return ReductionResult(result.method, f, h, residual, result.certificate,
                           result.certified_poly, result.parameters,
                           trace + result.trace, transform)


def reduce_auto(f: RatPoly, shifts: tuple[Fraction, ...] = SHIFT_SET
                ) -> ReductionResult | InconclusiveReport:
    """Normalize and try every certified route in order.

    Raises ValueError for inputs that are not strictly positive on the
    reals; returns an InconclusiveReport when no route concludes.
    """
    if f.is_zero or not (positivity := is_positive_on_reals(f)).verdict:
        raise ValueError("input must be strictly positive on R")
    # a square-free f is its own core, as Yun's decomposition would give
    square_part = RatPoly([1])
    core = f
    if not positivity.on_squarefree_part:
        unit, parts = squarefree_decomposition(f)
        core = RatPoly([unit])
        for g_i, mult in parts:
            square_part = square_part * g_i ** (mult // 2)
            if mult % 2 == 1:
                core = core * g_i
    trace: list = []

    def attempt(route, call):
        try:
            res = call()
        except (ValueError, SearchDepthExceeded) as exc:
            trace.append((route, f"skipped: {exc}"))
            return None
        trace.append((route, f"succeeded ({res.method})"))
        return res

    first = certify_sos4(core)
    trace.append(("certify", first.verdict))
    if first.verdict == SOS4:
        residual = f
        assert residual == square_part * square_part * core
        return ReductionResult(METHOD_ZERO, f, RatPoly(), residual, first,
                               core, {}, tuple(trace),
                               Transform(square_part, Fraction(1), Fraction(0)))

    kd = ord2(core.leading)[0]
    if kd % 2 == 1:
        res = attempt("alg6", lambda: reduce_odd_valuation(core))
        if res:
            return _transport(res, f, square_part, 1, Fraction(0), tuple(trace))
    if core.degree % 4 == 0 and core.degree >= 4:
        res = attempt("algn", lambda: reduce_multiple_of_four(core))
        if res:
            return _transport(res, f, square_part, 1, Fraction(0), tuple(trace))

    for shift in shifts:
        value = core(shift)
        v, u = ord2(value)
        if v % 2 == 0 and (u.numerator * u.denominator) % 4 == 3:
            shifted = core.shift(shift)
            scale = _square_clearing_scale(shifted)
            candidate = shifted * (scale * scale)
            res = attempt(f"nos@shift={shift}",
                          lambda c=candidate: reduce_constant_three_mod_four(c))
            if res:
                return _transport(res, f, square_part, scale, shift, tuple(trace))

    if core.degree % 4 == 0 and core.degree >= 4:
        scale = _square_clearing_scale(core)
        res = attempt("gr4",
                      lambda: reduce_cyclotomic_power(core * (scale * scale)))
        if res:
            return _transport(res, f, square_part, scale, Fraction(0), tuple(trace))

    shifts_all_square = False
    if core.degree >= 2 and (core.degree - 2) % 4 == 0:
        shifts_all_square = True
        for shift in shifts:
            if is_square_in_q2(core(shift)):
                continue
            shifts_all_square = False
            shifted = core.shift(shift)
            scale = _square_clearing_scale(shifted)
            candidate = shifted * (scale * scale)
            res = attempt(f"picky@shift={shift}",
                          lambda c=candidate: reduce_twice_odd_degree(c))
            if isinstance(res, ReductionResult):
                return _transport(res, f, square_part, scale, shift, tuple(trace))

    note = ALWAYS_SQUARE_NOTE if shifts_all_square else (
        "no certified route applies to this input")
    return InconclusiveReport(note, tuple(trace), first)
