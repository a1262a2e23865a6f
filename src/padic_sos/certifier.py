"""Three-valued certification of "sum of four squares in Q[x]".

Pourchet's criterion: a polynomial that is nonnegative on the reals is
a sum of four squares of rational polynomials exactly when every
odd-multiplicity irreducible factor over the 2-adic field has even
degree.  Full 2-adic factorization is out of reach here, so the
certifier runs a pipeline of sound sufficient rules and returns SOS4,
NOT_SOS4, or an honest INCONCLUSIVE, always with machine-checkable
evidence:

NOT rules
  * odd square split: f = A^2 + c with deg A odd and -c a 2-adic
    square makes f a product of two coprime odd-degree 2-adic factors,
    one of which contributes an odd-degree factor of odd multiplicity;
  * simple 2-adic root: a certified root of a square-free polynomial
    is a linear factor of multiplicity one.

SOS rules
  * two-square split: f = A^2 + s^2 with rational s is literally a sum
    of two squares;
  * Eisenstein: an even-degree polynomial certified irreducible by its
    Newton diagram;
  * pure even divisor: a pure diagram whose slope denominator is even
    forces every 2-adic factor degree to be even;
  * mod-2 even degrees: with a unit leading coefficient, if every
    irreducible factor of the mod-2 image has even degree then so does
    every monic 2-adic factor (reductions preserve degrees).

The strict-positivity gate runs first: a polynomial negative somewhere
is never a sum of squares, and nonnegative inputs with real roots are
rejected with an explicit error rather than guessed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import f2
from .hensel import (NO_ROOT, ROOT_EXISTS, RootStatus, z2_root_status,
                     verify_root_witness)
from .newton_polygon import (NewtonDiagram, eisenstein_irreducible,
                             factor_degree_divisor, is_pure, newton_diagram)
from .padic import is_square_in_q2
from .ratpoly import (NEGATIVE_SOMEWHERE, NONNEGATIVE_WITH_ROOTS,
                      PositivityCertificate, RatPoly, is_positive_on_reals,
                      is_squarefree, positivity_trichotomy,
                      primitive_integer_coeffs)

SOS4 = "SOS4"
NOT_SOS4 = "NOT_SOS4"
INCONCLUSIVE = "INCONCLUSIVE"

SPLIT_SEARCH_DEGREE_CAP = 20


# ---------------------------------------------------------------------------
# Evidence payloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NotPositive:
    """Condition fails before any 2-adic reasoning: f is negative
    somewhere on the real line."""

    kind = "not_positive"


@dataclass(frozen=True)
class OddSquareSplit:
    """f = a_poly^2 + c, deg a_poly odd, -c a square in Q_2."""

    a_poly: RatPoly
    c: Fraction
    kind = "odd_square_split"


@dataclass(frozen=True)
class SimpleZ2Root:
    """A certified 2-adic root of a square-free polynomial."""

    status: RootStatus
    kind = "simple_z2_root"


@dataclass(frozen=True)
class TwoSquareSplit:
    """f = a_poly^2 + s^2 exactly (s = 0 covers perfect squares)."""

    a_poly: RatPoly
    s: Fraction
    kind = "two_square_split"


@dataclass(frozen=True)
class EisensteinEvenDegree:
    """Irreducible of even degree by the generalized Eisenstein test."""

    diagram: NewtonDiagram
    kind = "eisenstein_even_degree"


@dataclass(frozen=True)
class PureEvenDivisor:
    """Pure diagram with even slope denominator e: all factor degrees
    are multiples of e."""

    divisor: int
    diagram: NewtonDiagram
    kind = "pure_even_divisor"


@dataclass(frozen=True)
class Mod2EvenDegrees:
    """Unit leading coefficient and every irreducible factor of the
    mod-2 image of even degree (bit-packed factors with
    multiplicities)."""

    factors: tuple[tuple[int, int], ...]
    kind = "mod2_even_degrees"


@dataclass(frozen=True)
class QuadraticNonSquareDisc:
    """Degree two with discriminant not a square in Q_2, hence
    irreducible there; used by the reduction routines."""

    disc: Fraction
    kind = "quadratic_nonsquare_disc"


@dataclass(frozen=True)
class HenselSplitEvenParts:
    """After scaling, f splits as g*h with [g] a power of an
    irreducible quadratic mod 2 (all factors of g have even degree)
    and h an irreducible quadratic because f has no 2-adic root."""

    scale: Fraction
    g_degree: int
    h_degree: int
    modulus: int
    root_status: RootStatus
    kind = "hensel_split_even_parts"


Evidence = (NotPositive | OddSquareSplit | SimpleZ2Root | TwoSquareSplit
            | EisensteinEvenDegree | PureEvenDivisor | Mod2EvenDegrees
            | QuadraticNonSquareDisc | HenselSplitEvenParts)


@dataclass(frozen=True)
class Sos4Certificate:
    verdict: str
    rule: str | None
    positivity: PositivityCertificate
    evidence: Evidence | None


# ---------------------------------------------------------------------------
# Splitting f = A^2 + c
# ---------------------------------------------------------------------------

def complete_square_split(f: RatPoly,
                          degree_cap: int = SPLIT_SEARCH_DEGREE_CAP
                          ) -> tuple[RatPoly, Fraction] | None:
    """The unique split f = A^2 + c with deg A = deg f / 2 and c a
    constant, if one exists.  A's coefficients come triangularly from
    the top half of f, so the split exists exactly when the leading
    coefficient is a rational square and the tail closes to a constant.
    """
    d = f.degree
    if d < 0 or d % 2 != 0 or d > degree_cap:
        return None
    if d == 0:
        return None
    m = d // 2
    lead = f.leading
    if lead <= 0:
        return None
    sn, sd = math.isqrt(lead.numerator), math.isqrt(lead.denominator)
    if sn * sn != lead.numerator or sd * sd != lead.denominator:
        return None
    a = [Fraction(0)] * (m + 1)
    a[m] = Fraction(sn, sd)
    for i in range(m - 1, -1, -1):
        acc = Fraction(0)
        for j in range(i + 1, m):
            k = m + i - j
            if i < k <= m:
                acc += a[j] * a[k]
        a[i] = (f[m + i] - acc) / (2 * a[m])
    # the top m + 1 coefficients of A^2 match f by construction; the
    # split exists when coefficients m - 1 down to 1 match too
    for k in range(m - 1, 0, -1):
        if f[k] != sum(a[j] * a[k - j] for j in range(k + 1)):
            return None
    return RatPoly(a), f[0] - a[0] * a[0]


def _check_witness(f: RatPoly, witness: tuple[RatPoly, Fraction]) -> tuple[RatPoly, Fraction]:
    a_poly, c = witness
    c = Fraction(c)
    if f != a_poly * a_poly + RatPoly([c]):
        raise ValueError("witness does not satisfy f = A^2 + c")
    return a_poly, c


# ---------------------------------------------------------------------------
# Individual rules; each returns evidence or None
# ---------------------------------------------------------------------------

def rule_odd_split_witness(f: RatPoly, a_poly: RatPoly, c) -> OddSquareSplit | None:
    """NOT rule from a split f = A^2 + c: when -c is a nonzero 2-adic
    square, f = (A + alpha)(A - alpha) over Q_2 with the two factors
    coprime of odd degree, so some odd-degree irreducible factor has
    odd multiplicity."""
    a_poly, c = _check_witness(f, (a_poly, c))
    if c == 0:
        raise ValueError("odd split rule needs c nonzero")
    return _odd_split(a_poly, c)


def _odd_split(a_poly: RatPoly, c: Fraction) -> OddSquareSplit | None:
    if a_poly.degree % 2 == 1 and is_square_in_q2(-c):
        return OddSquareSplit(a_poly, c)
    return None


def rule_simple_z2_root(f: RatPoly, squarefree: bool | None = None) -> SimpleZ2Root | None:
    """NOT rule: a certified 2-adic root of a square-free polynomial is
    a linear factor of multiplicity one.  ``squarefree`` is what the
    caller already knows about f (the positivity certificate tells it);
    left out, ``is_squarefree`` decides."""
    if f.degree < 1:
        return None
    if squarefree is None:
        squarefree = is_squarefree(f)
    if not squarefree:
        return None
    status = z2_root_status(f)
    if status.tag != ROOT_EXISTS:
        return None
    return SimpleZ2Root(status)


def rule_two_square_split(f: RatPoly, a_poly: RatPoly, c) -> TwoSquareSplit | None:
    """SOS rule: c a nonnegative rational square makes f = A^2 + s^2."""
    return _two_square(*_check_witness(f, (a_poly, c)))


def _two_square(a_poly: RatPoly, c: Fraction) -> TwoSquareSplit | None:
    if c == 0:
        return TwoSquareSplit(a_poly, Fraction(0))
    if c < 0:
        return None
    sn, sd = math.isqrt(c.numerator), math.isqrt(c.denominator)
    if sn * sn == c.numerator and sd * sd == c.denominator:
        return TwoSquareSplit(a_poly, Fraction(sn, sd))
    return None


def rule_eisenstein(f: RatPoly) -> EisensteinEvenDegree | None:
    """SOS rule: Eisenstein-irreducible of even degree."""
    if f.degree % 2 == 0 and f.degree >= 2 and eisenstein_irreducible(f):
        return EisensteinEvenDegree(newton_diagram(f))
    return None


def rule_pure_even_divisor(f: RatPoly) -> PureEvenDivisor | None:
    """SOS rule: pure diagram with even slope denominator."""
    if f.degree < 1:
        return None
    diagram = newton_diagram(f)
    if not is_pure(diagram):
        return None
    e = factor_degree_divisor(diagram)
    if e % 2 == 0:
        return PureEvenDivisor(e, diagram)
    return None


def rule_mod2_even_degrees(f: RatPoly) -> Mod2EvenDegrees | None:
    """SOS rule: on the primitive integer model with odd leading
    coefficient, every irreducible factor of the mod-2 image having
    even degree forces every monic 2-adic factor to even degree."""
    coeffs = primitive_integer_coeffs(f)
    if not coeffs or coeffs[-1] % 2 == 0:
        return None
    bits = f2.f2_from_coeffs(coeffs)
    factors = f2.f2_factor(bits) if bits > 1 else []
    if all(f2.f2_degree(p) % 2 == 0 for p, _ in factors):
        return Mod2EvenDegrees(tuple(factors))
    return None


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def certify_sos4(f: RatPoly, witness: tuple[RatPoly, Fraction] | None = None,
                 check_all_rules: bool = False) -> Sos4Certificate:
    """Run the rule pipeline and return the first conclusive verdict.

    ``witness`` is an optional exact split (A, c) with f = A^2 + c; it
    is validated and handed to the split rules, which otherwise search
    for the split themselves.  With ``check_all_rules`` every rule runs
    and the pipeline asserts that no input collects both SOS4-type and
    NOT_SOS4-type evidence.
    """
    if f.is_zero:
        raise ValueError("cannot certify the zero polynomial")
    split = _check_witness(f, witness) if witness is not None else None
    positivity = is_positive_on_reals(f)
    if not positivity.verdict:
        kind = positivity_trichotomy(f)
        if kind == NONNEGATIVE_WITH_ROOTS:
            raise ValueError(
                "input is nonnegative but has real roots; only strictly "
                "positive polynomials are certified")
        return Sos4Certificate(NOT_SOS4, "positivity", positivity, NotPositive())

    if split is None:
        split = complete_square_split(f)

    outcomes: list[tuple[str, str, Evidence]] = []

    def run(name, producer, conclusive_verdict):
        ev = producer()
        if ev is not None:
            outcomes.append((conclusive_verdict, name, ev))
        return ev

    # the split is checked (a witness) or exact by construction (the
    # search), so the split rules run without their witness check
    order = [
        (NOT_SOS4, "odd_split_witness",
         lambda: _odd_split(*split) if split and split[1] != 0 else None),
        (NOT_SOS4, "simple_z2_root",
         lambda: rule_simple_z2_root(f, positivity.on_squarefree_part)),
        (SOS4, "two_square_split",
         lambda: _two_square(*split) if split else None),
        (SOS4, "eisenstein", lambda: rule_eisenstein(f)),
        (SOS4, "pure_even_divisor", lambda: rule_pure_even_divisor(f)),
        (SOS4, "mod2_even_degrees", lambda: rule_mod2_even_degrees(f)),
    ]
    result: Sos4Certificate | None = None
    for verdict, name, producer in order:
        ev = run(name, producer, verdict)
        if ev is not None and result is None:
            result = Sos4Certificate(verdict, name, positivity, ev)
            if not check_all_rules:
                return result
    if check_all_rules and outcomes:
        verdicts = {v for v, _, _ in outcomes}
        if verdicts == {SOS4, NOT_SOS4}:
            raise AssertionError(
                f"conflicting evidence on {f}: " +
                ", ".join(f"{n}->{v}" for v, n, _ in outcomes))
    if result is not None:
        return result
    return Sos4Certificate(INCONCLUSIVE, None, positivity, None)


# ---------------------------------------------------------------------------
# Re-verification of serialized certificates
# ---------------------------------------------------------------------------

def verify_certificate(f: RatPoly, cert: Sos4Certificate) -> bool:
    """Recheck a certificate's evidence against f from scratch.

    Recomputes the defining conditions of the evidence kind; used by
    the acceptance suite to confirm that stored certificates re-verify
    after serialization round trips.
    """
    positivity = is_positive_on_reals(f)
    if positivity != cert.positivity:
        return False
    ev = cert.evidence
    if cert.verdict == INCONCLUSIVE:
        return ev is None
    if cert.verdict == SOS4 and not positivity.verdict:
        return False
    if isinstance(ev, NotPositive):
        return (cert.verdict == NOT_SOS4
                and positivity_trichotomy(f) == NEGATIVE_SOMEWHERE)
    if isinstance(ev, OddSquareSplit):
        return (cert.verdict == NOT_SOS4
                and f == ev.a_poly * ev.a_poly + RatPoly([ev.c])
                and ev.a_poly.degree % 2 == 1
                and ev.c != 0 and is_square_in_q2(-ev.c))
    if isinstance(ev, SimpleZ2Root):
        return (cert.verdict == NOT_SOS4
                and ev.status.tag == ROOT_EXISTS
                and ev.status.witness is not None
                and verify_root_witness(f, ev.status.witness)
                and is_squarefree(f))
    if isinstance(ev, TwoSquareSplit):
        return (cert.verdict == SOS4
                and f == ev.a_poly * ev.a_poly + RatPoly([ev.s * ev.s]))
    if isinstance(ev, EisensteinEvenDegree):
        return (cert.verdict == SOS4 and f.degree % 2 == 0
                and eisenstein_irreducible(f))
    if isinstance(ev, PureEvenDivisor):
        diagram = newton_diagram(f)
        return (cert.verdict == SOS4 and is_pure(diagram)
                and factor_degree_divisor(diagram) == ev.divisor
                and ev.divisor % 2 == 0)
    if isinstance(ev, Mod2EvenDegrees):
        fresh = rule_mod2_even_degrees(f)
        return (cert.verdict == SOS4 and fresh is not None
                and fresh.factors == ev.factors)
    if isinstance(ev, QuadraticNonSquareDisc):
        if cert.verdict != SOS4 or f.degree != 2:
            return False
        disc = f[1] * f[1] - 4 * f[2] * f[0]
        return disc == ev.disc and not is_square_in_q2(disc)
    if isinstance(ev, HenselSplitEvenParts):
        if cert.verdict != SOS4:
            return False
        scaled = f * ev.scale
        coeffs = primitive_integer_coeffs(scaled)
        if not coeffs or coeffs[-1] % 2 == 0:
            return False
        bits = f2.f2_from_coeffs(coeffs)
        facs = dict(f2.f2_factor(bits))
        # mod 2 the split reads (irreducible quadratic)^k * x^2
        if facs.get(2, 0) != 2:
            return False
        if any(p != 2 and (f2.f2_degree(p) % 2 != 0) for p in facs):
            return False
        return (ev.root_status.tag == NO_ROOT
                and z2_root_status(scaled).tag == NO_ROOT)
    return False
