"""Three-valued certification of "sum of four squares in Q[x]".

Pourchet's criterion: a polynomial that is nonnegative on the reals is
a sum of four squares of rational polynomials exactly when every
odd-multiplicity irreducible factor over the 2-adic field has even
degree.  Full 2-adic factorization is out of reach here, so the
certifier runs a pipeline of sound sufficient rules and returns SOS4,
NOT_SOS4, or an honest INCONCLUSIVE, always with machine-checkable
evidence.

Each evidence class names the rule that produces it and the verdict
it concludes (class attributes ``rule`` and ``verdict`` beside the
serialized ``kind``), and ``Sos4Certificate.of`` builds every
certificate from them:

NOT_SOS4
  * ``NotPositive`` / positivity: f is negative somewhere on the reals;
  * ``OddSquareSplit`` / odd_split_witness: f = A^2 + c with deg A odd
    and -c a 2-adic square makes f a product of two coprime odd-degree
    2-adic factors, one of which contributes an odd-degree factor of
    odd multiplicity;
  * ``SimpleZ2Root`` / simple_z2_root: a certified root of a
    square-free polynomial is a linear factor of multiplicity one.

SOS4
  * ``TwoSquareSplit`` / two_square_split: f = A^2 + s^2 with rational
    s is literally a sum of two squares;
  * ``EisensteinEvenDegree`` / eisenstein: an even-degree polynomial
    certified irreducible by its Newton diagram;
  * ``PureEvenDivisor`` / pure_even_divisor: a pure diagram whose slope
    denominator is even forces every 2-adic factor degree to be even;
  * ``Mod2EvenDegrees`` / mod2_even_degrees: with a unit leading
    coefficient, if every irreducible factor of the mod-2 image has
    even degree then so does every monic 2-adic factor (reductions
    preserve degrees);
  * ``QuadraticNonSquareDisc`` / quadratic_nonsquare_disc and
    ``HenselSplitEvenParts`` / hensel_split_even_parts: built by the
    reduction routes, not by the pipeline.  The Hensel split is
    certified by the hypotheses of Hensel's lemma (a unit content, an
    odd leading coefficient and a coprime split mod 2) and a closed root
    tree; no lift is built.

The strict-positivity gate runs first: a polynomial negative somewhere
is never a sum of squares, and nonnegative inputs with real roots are
rejected with an explicit error rather than guessed at.  A caller that
has just gated f hands its positivity certificate in, and the gate
reads it instead of testing f again; ``_certify_positive`` runs the
rules behind the gate.

The two Newton-diagram rules decide from ``newton_polygon.pure_slope``
and build f's diagram only for the evidence they return.

The rules and the pipeline trust the positivity certificate a caller
hands them; ``verify_certificate`` is the check, and takes nothing from
the caller but f and the certificate.  It accepts a certificate only
when its verdict and rule are the ones its evidence class names
(INCONCLUSIVE: no rule, no evidence) and its positivity certificate is
f's own.  It re-runs the deterministic rules
(Eisenstein, pure even divisor, mod-2 even degrees, the quadratic
discriminant, the Hensel split's hypotheses at the recorded scale) on f
and the odd split rule on the recorded split, and asks for the evidence
back; it re-checks a root witness on f itself with
``hensel.verify_root_witness``.  Verification runs no Hensel lift.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import f2
from .hensel import (NO_ROOT, ROOT_EXISTS, RootStatus, verify_root_witness,
                     z2_root_status)
from .newton_polygon import (NewtonDiagram, eisenstein_irreducible,
                             newton_diagram, pure_slope)
from .padic import is_square_in_q2, ord2
from .ratpoly import (PositivityCertificate, RatPoly, _from_ints,
                      _negative_somewhere, _positivity, is_squarefree,
                      primitive_integer_coeffs)
from .record import Record

SOS4 = "SOS4"
NOT_SOS4 = "NOT_SOS4"
INCONCLUSIVE = "INCONCLUSIVE"

# every HenselSplitEvenParts records the modulus 2^HENSEL_SPLIT_PRECISION,
# to which Hensel's lemma lifts its split; no lift is built or checked
HENSEL_SPLIT_PRECISION = 64


# ---------------------------------------------------------------------------
# Evidence payloads
# ---------------------------------------------------------------------------

class NotPositive(Record):
    """Condition fails before any 2-adic reasoning: f is negative
    somewhere on the real line."""

    kind, rule, verdict = "not_positive", "positivity", NOT_SOS4


class OddSquareSplit(Record):
    """f = a_poly^2 + c, deg a_poly odd, -c a square in Q_2."""

    a_poly: RatPoly
    c: Fraction
    kind, rule, verdict = "odd_square_split", "odd_split_witness", NOT_SOS4


class SimpleZ2Root(Record):
    """A certified 2-adic root of a square-free polynomial."""

    status: RootStatus
    kind, rule, verdict = "simple_z2_root", "simple_z2_root", NOT_SOS4


class TwoSquareSplit(Record):
    """f = a_poly^2 + s^2 exactly (s = 0 covers perfect squares)."""

    a_poly: RatPoly
    s: Fraction
    kind, rule, verdict = "two_square_split", "two_square_split", SOS4


class EisensteinEvenDegree(Record):
    """Irreducible of even degree by the generalized Eisenstein test."""

    diagram: NewtonDiagram
    kind, rule, verdict = "eisenstein_even_degree", "eisenstein", SOS4


class PureEvenDivisor(Record):
    """Pure diagram with even slope denominator e: all factor degrees
    are multiples of e."""

    divisor: int
    diagram: NewtonDiagram
    kind, rule, verdict = "pure_even_divisor", "pure_even_divisor", SOS4


class Mod2EvenDegrees(Record):
    """Unit leading coefficient and every irreducible factor of the
    mod-2 image of even degree (bit-packed factors with
    multiplicities)."""

    factors: tuple[tuple[int, int], ...]
    kind, rule, verdict = "mod2_even_degrees", "mod2_even_degrees", SOS4


class QuadraticNonSquareDisc(Record):
    """Degree two with discriminant not a square in Q_2, hence
    irreducible there; used by the reduction routines."""

    disc: Fraction
    kind, rule, verdict = "quadratic_nonsquare_disc", "quadratic_nonsquare_disc", SOS4


class HenselSplitEvenParts(Record):
    """After scaling, f splits over Z_2 as g*h with every factor of [g]
    of even degree (so all factors of g have even degree) and h an
    irreducible quadratic because f has no 2-adic root.  Hensel's lemma
    gives the split from the coprime one mod 2; the degrees and the
    modulus 2^HENSEL_SPLIT_PRECISION are what it fixes, recorded, not
    computed by a lift."""

    scale: Fraction
    g_degree: int
    h_degree: int
    modulus: int
    root_status: RootStatus
    kind, rule, verdict = "hensel_split_even_parts", "hensel_split_even_parts", SOS4


Evidence = (NotPositive | OddSquareSplit | SimpleZ2Root | TwoSquareSplit
            | EisensteinEvenDegree | PureEvenDivisor | Mod2EvenDegrees
            | QuadraticNonSquareDisc | HenselSplitEvenParts)


class Sos4Certificate(Record):
    verdict: str
    rule: str | None
    positivity: PositivityCertificate
    evidence: Evidence | None

    @classmethod
    def of(cls, positivity: PositivityCertificate,
           evidence: Evidence | None) -> Sos4Certificate:
        """The certificate ``evidence`` concludes: its class's verdict and
        rule, or INCONCLUSIVE without evidence."""
        if evidence is None:
            return cls(INCONCLUSIVE, None, positivity, None)
        return cls(evidence.verdict, evidence.rule, positivity, evidence)


# ---------------------------------------------------------------------------
# Splitting f = A^2 + c
# ---------------------------------------------------------------------------

def complete_square_split(f: RatPoly) -> tuple[RatPoly, Fraction] | None:
    """The unique split f = A^2 + c with deg A = deg f / 2 and c a
    constant, if one exists.  A's coefficients come triangularly from
    the top half of f, so the split exists exactly when the leading
    coefficient is a rational square and the tail closes to a constant.

    The recursion runs on the primitive part P (top coefficient p) in
    integers: with A = sqrt(lc f) * B, B monic and f / lc f = B^2 + k,
    beta_i = b_i * (4p)^(m-i) is an even integer for i < m, since the
    denominator of b_i divides 2^(2(m-i)-1) * p^(m-i).
    """
    d = f.degree
    if d <= 0 or d % 2 != 0:
        return None
    m = d // 2
    lead = f.leading
    if lead <= 0:
        return None
    sn, sd = math.isqrt(lead.numerator), math.isqrt(lead.denominator)
    if sn * sn != lead.numerator or sd * sd != lead.denominator:
        return None
    P = f.primitive_part
    p = P[-1]
    t = 4 * p
    beta = [0] * m + [1]
    # for the slice s = beta[lo:k - lo + 1], sum(map(mul, s, reversed(s)))
    # is the sum of beta_j * beta_(k-j) over lo <= j <= k - lo
    for i in range(m - 1, -1, -1):
        s = beta[i + 1:m]
        beta[i] = 2 * P[m + i] * t ** (m - i - 1) - sum(map(mul, s, reversed(s))) // 2
    # the top m + 1 coefficients of B^2 match f / lc f by construction;
    # the split exists when coefficients m - 1 down to 1 match too
    for k in range(m - 1, 0, -1):
        s = beta[:k + 1]
        if P[k] * t ** (2 * m - k) != p * sum(map(mul, s, reversed(s))):
            return None
    # A = sqrt(lc f) * B with b_i = beta_i / t^(m-i) = beta_i * t^i / t^m
    a = _from_ints([b * t ** i for i, b in enumerate(beta)], sn, sd * t ** m)
    return a, f[0] - a[0] * a[0]


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
    left out, ``is_squarefree`` decides.  A witness the root tree took
    on f's square-free part shows f is not square-free after all, and
    the rule declines."""
    if f.degree < 1:
        return None
    if squarefree is None:
        squarefree = is_squarefree(f)
    if not squarefree:
        return None
    status = z2_root_status(f)
    if status.tag != ROOT_EXISTS or status.witness.on_squarefree_part:
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
    if f.degree % 2 != 0 or not eisenstein_irreducible(f):
        return None
    return EisensteinEvenDegree(newton_diagram(f))


def rule_pure_even_divisor(f: RatPoly) -> PureEvenDivisor | None:
    """SOS rule: pure diagram with even slope denominator e."""
    slope = pure_slope(f)
    if slope is None or slope.denominator % 2 != 0:
        return None
    return PureEvenDivisor(slope.denominator, newton_diagram(f))


def _mod2_factors(f: RatPoly) -> list[tuple[int, int]] | None:
    """The irreducible factors, bit-packed with their multiplicities, of
    the mod-2 image of f's primitive integer model; None when its
    leading coefficient is even (or f is zero)."""
    coeffs = primitive_integer_coeffs(f)
    if not coeffs or coeffs[-1] % 2 == 0:
        return None
    bits = f2.f2_from_coeffs(coeffs)
    return f2.f2_factor(bits) if bits > 1 else []


def rule_mod2_even_degrees(f: RatPoly) -> Mod2EvenDegrees | None:
    """SOS rule: on the primitive integer model with odd leading
    coefficient, every irreducible factor of the mod-2 image having
    even degree forces every monic 2-adic factor to even degree."""
    factors = _mod2_factors(f)
    if factors is not None and all(f2.f2_degree(p) % 2 == 0 for p, _ in factors):
        return Mod2EvenDegrees(tuple(factors))
    return None


def hensel_split_even_parts(f: RatPoly, scale: Fraction) -> HenselSplitEvenParts | None:
    """SOS evidence for an f whose scaled model q = scale * f has a unit
    content and reads g1 * x^2 mod 2 (primitive model, odd leading
    coefficient), with x prime to g1 and every factor of g1 of even
    degree.  By Hensel's lemma q = g * h over Z_2 with g monic of degree
    deg q - 2 reducing to g1, so every factor of g has even degree, and h
    a quadratic, irreducible because q has no 2-adic root.  Only these
    hypotheses are checked; no lift is built.  The PICKY route builds
    it, the pipeline does not run it."""
    q = f * scale
    facs = dict(_mod2_factors(q) or ())  # empty for an even leading coefficient
    if facs.get(0b10, 0) != 2 or any(p != 0b10 and f2.f2_degree(p) % 2 for p in facs):
        return None
    if ord2(q.content)[0] != 0:  # q = c * P is integral, with P's image mod 2
        return None
    status = z2_root_status(q)
    if status.tag != NO_ROOT:
        return None
    return HenselSplitEvenParts(Fraction(scale), q.degree - 2, 2,
                                1 << HENSEL_SPLIT_PRECISION, status)


def quadratic_nonsquare_disc(f: RatPoly) -> QuadraticNonSquareDisc | None:
    """SOS evidence for a quadratic whose discriminant is not a 2-adic
    square, so that it is irreducible over Q_2; the reduction routes
    build it, the pipeline does not run it."""
    if f.degree != 2:
        return None
    disc = f[1] * f[1] - 4 * f[2] * f[0]
    return None if is_square_in_q2(disc) else QuadraticNonSquareDisc(disc)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def certify_sos4(f: RatPoly, witness: tuple[RatPoly, Fraction] | None = None,
                 check_all_rules: bool = False,
                 positivity: PositivityCertificate | None = None) -> Sos4Certificate:
    """Run the rule pipeline and return the first conclusive verdict.

    ``witness`` is an optional exact split (A, c) with f = A^2 + c; it
    is validated and handed to the split rules, which otherwise search
    for the split themselves.  With ``check_all_rules`` every rule runs
    and the pipeline asserts that no input collects both SOS4-type and
    NOT_SOS4-type evidence.  ``positivity`` is ``is_positive_on_reals(f)``
    when the caller already holds it; the gate then reads it instead of
    testing f again.  It is trusted, not checked: a wrong one can give a
    wrong certificate, which ``verify_certificate`` refuses.
    """
    if f.is_zero:
        raise ValueError("cannot certify the zero polynomial")
    split = _check_witness(f, witness) if witness is not None else None
    last = None  # the gate's gcd(f, f'), for the not-positive branch
    if positivity is None:
        positivity, last = _positivity(f)
    if not positivity.verdict:
        if not _negative_somewhere(f, positivity, last):
            raise ValueError(
                "input is nonnegative but has real roots; only strictly "
                "positive polynomials are certified")
        return Sos4Certificate.of(positivity, NotPositive())
    return _certify_positive(f, positivity, split, check_all_rules)


def _certify_positive(f: RatPoly, positivity: PositivityCertificate,
                      split: tuple[RatPoly, Fraction] | None,
                      check_all_rules: bool = False) -> Sos4Certificate:
    """The rule pipeline of ``certify_sos4`` on an f whose positivity
    certificate ``positivity`` has a true verdict; ``split`` is a
    checked witness or None."""
    if split is None:
        split = complete_square_split(f)
    # the split is checked (a witness) or exact by construction (the
    # search), so the split rules run without their witness check
    producers = (
        lambda: _odd_split(*split) if split and split[1] != 0 else None,
        lambda: rule_simple_z2_root(f, positivity.on_squarefree_part),
        lambda: _two_square(*split) if split else None,
        lambda: rule_eisenstein(f),
        lambda: rule_pure_even_divisor(f),
        lambda: rule_mod2_even_degrees(f),
    )
    found: list[Evidence] = []
    for produce in producers:
        if (ev := produce()) is not None:
            if not check_all_rules:
                return Sos4Certificate.of(positivity, ev)
            found.append(ev)
    if len({ev.verdict for ev in found}) > 1:
        raise AssertionError(f"conflicting evidence on {f}: " +
                             ", ".join(f"{ev.rule}->{ev.verdict}" for ev in found))
    return Sos4Certificate.of(positivity, next(iter(found), None))


# ---------------------------------------------------------------------------
# Re-verification of serialized certificates
# ---------------------------------------------------------------------------

def verify_certificate(f: RatPoly, cert: Sos4Certificate) -> bool:
    """Recheck a certificate's evidence against f from scratch.

    The verdict and rule must be the ones the evidence class names (no
    evidence: INCONCLUSIVE, no rule), and the positivity certificate
    f's own.  A deterministic rule is re-run on f and must give the
    evidence back; the other kinds re-check their defining conditions.
    Used by the acceptance suite to confirm that stored certificates
    re-verify after serialization round trips.
    """
    positivity, last = _positivity(f)
    ev = cert.evidence
    if not isinstance(ev, Evidence | None) or cert != Sos4Certificate.of(positivity, ev):
        return False
    if ev is None:
        return True
    if ev.verdict == SOS4 and not positivity.verdict:
        return False
    if isinstance(ev, NotPositive):
        return _negative_somewhere(f, positivity, last)
    if isinstance(ev, OddSquareSplit):
        try:
            return rule_odd_split_witness(f, ev.a_poly, ev.c) == ev
        except ValueError:  # not a split of f, or c = 0
            return False
    if isinstance(ev, SimpleZ2Root):
        # a root of the square-free part of a non-square-free f may be a
        # repeated one, so only a witness on f itself concludes
        return (ev.status.tag == ROOT_EXISTS
                and ev.status.witness is not None
                and not ev.status.witness.on_squarefree_part
                and verify_root_witness(f, ev.status.witness)
                and positivity.on_squarefree_part)
    if isinstance(ev, TwoSquareSplit):
        return f == ev.a_poly * ev.a_poly + RatPoly([ev.s * ev.s])
    if isinstance(ev, EisensteinEvenDegree):
        return rule_eisenstein(f) == ev
    if isinstance(ev, PureEvenDivisor):
        return rule_pure_even_divisor(f) == ev
    if isinstance(ev, Mod2EvenDegrees):
        return rule_mod2_even_degrees(f) == ev
    if isinstance(ev, QuadraticNonSquareDisc):
        return quadratic_nonsquare_disc(f) == ev
    # the one kind left: HenselSplitEvenParts, whose lemma hypotheses are
    # checked again at the recorded scale; verification runs no lift
    return hensel_split_even_parts(f, ev.scale) == ev
