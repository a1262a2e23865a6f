"""Adversarial soundness checks against constructed ground truth.

Families built so the true verdict is known independently of the
certifier: products of sums of two squares are sums of four squares by
the Gauss two-square identity, while a positive quadratic with a
2-adically square negative discriminant has two simple linear factors
over Q_2.  A verdict contradicting the construction is a soundness bug
no matter what the rules say; INCONCLUSIVE is always acceptable.
"""

import random
from fractions import Fraction as F

from padic_sos import certifier, hensel
from padic_sos.certifier import (INCONCLUSIVE, NOT_SOS4, SOS4,
                                 EisensteinEvenDegree, HenselSplitEvenParts,
                                 OddSquareSplit, PureEvenDivisor, SimpleZ2Root,
                                 Sos4Certificate, TwoSquareSplit, certify_sos4,
                                 rule_eisenstein, rule_simple_z2_root,
                                 verify_certificate)
from padic_sos.hensel import (ROOT_EXISTS, RootStatus, RootWitness,
                              hensel_split, verify_root_witness, z2_root_status)
from padic_sos.newton_polygon import newton_diagram
from padic_sos.padic import is_square_in_q2
from padic_sos.ratpoly import RatPoly, discriminant, is_positive_on_reals
from padic_sos.record import replace
from padic_sos.reduction import (InconclusiveReport, ReductionResult,
                                 reduce_auto, reduce_twice_odd_degree)


def random_nonvanishing_pair(rng, degree):
    """Two integer polynomials with no common real root (one gets a
    nonzero constant bumped in), so q1^2 + q2^2 is strictly positive."""
    q1 = RatPoly([rng.randint(-5, 5) for _ in range(degree)]
                 + [rng.randint(1, 5)])
    q2 = RatPoly([rng.randint(1, 5)] + [rng.randint(-5, 5)
                                        for _ in range(degree)])
    return q1, q2


def test_products_of_two_square_sums_never_refuted():
    # ground truth SOS4: (a^2+b^2)(c^2+d^2) is again a sum of two squares
    rng = random.Random(1234)
    done = 0
    while done < 60:
        q1, q2 = random_nonvanishing_pair(rng, rng.randint(1, 2))
        q3, q4 = random_nonvanishing_pair(rng, rng.randint(0, 2))
        f = (q1 * q1 + q2 * q2) * (q3 * q3 + q4 * q4)
        if not is_positive_on_reals(f).verdict:
            continue  # the factors shared a real root; certifier rejects ties
        cert = certify_sos4(f, check_all_rules=True)
        assert cert.verdict != NOT_SOS4, f
        assert verify_certificate(f, cert)
        done += 1


def test_positive_quadratics_with_2adic_roots_never_certified():
    # ground truth NOT_SOS4: (x-a)^2 + c with c = 7 mod 8 is positive
    # but factors over Q_2 into two simple linear pieces
    rng = random.Random(2345)
    for _ in range(60):
        a = rng.randint(-20, 20)
        c = 8 * rng.randint(0, 30) + 7
        f = RatPoly([-a, 1]) ** 2 + RatPoly([c])
        assert is_square_in_q2(-F(c))
        cert = certify_sos4(f, check_all_rules=True)
        assert cert.verdict != SOS4, f
        assert verify_certificate(f, cert)
        # the same factor structure survives multiplication by an
        # even-degree irreducible, which must not flip the verdict
        g = f * RatPoly([2, 0, 1])
        cert = certify_sos4(g, check_all_rules=True)
        assert cert.verdict != SOS4, g


def test_reciprocal_root_family_never_certified():
    # reverse of (x - 2k)^2 + 4*(8b+7): the roots move to negative
    # valuation, exercising the reversal side of the root tree
    rng = random.Random(3456)
    for _ in range(40):
        a = 2 * rng.randint(1, 10)
        c = 4 * (8 * rng.randint(0, 10) + 7)
        base = RatPoly([-a, 1]) ** 2 + RatPoly([c])
        f = base.reverse()
        assert is_positive_on_reals(f).verdict
        cert = certify_sos4(f, check_all_rules=True)
        assert cert.verdict != SOS4, f


def test_dispatcher_runs_clean_on_random_corpus():
    rng = random.Random(4567)
    reduced = inconclusive = 0
    for _ in range(40):
        q1, q2 = random_nonvanishing_pair(rng, rng.randint(1, 3))
        f = q1 * q1 + q2 * q2 + RatPoly([rng.randint(0, 3)])
        outcome = reduce_auto(f)
        if isinstance(outcome, ReductionResult):
            assert f - outcome.h * outcome.h == outcome.residual
            assert outcome.certificate.verdict == SOS4
            assert verify_certificate(outcome.certified_poly,
                                      outcome.certificate)
            reduced += 1
        else:
            assert isinstance(outcome, InconclusiveReport)
            inconclusive += 1
    # the routes cover even degrees broadly; most of the corpus reduces
    assert reduced >= 30, (reduced, inconclusive)


def test_verify_certificate_rejects_tampering(monkeypatch):
    f = RatPoly([7, 0, 1])
    cert = certify_sos4(f)
    assert cert.verdict == NOT_SOS4
    assert verify_certificate(f, cert)
    ev = cert.evidence
    assert isinstance(ev, OddSquareSplit)
    # wrong constant in the split
    bad = replace(cert, evidence=OddSquareSplit(ev.a_poly, ev.c + 1))
    assert not verify_certificate(f, bad)
    # certificate presented for a different polynomial
    assert not verify_certificate(RatPoly([15, 0, 1]), cert)

    g = RatPoly([1, 0, 1])
    cert = certify_sos4(g)
    assert isinstance(cert.evidence, TwoSquareSplit)
    bad = replace(cert, evidence=TwoSquareSplit(cert.evidence.a_poly, F(2)))
    assert not verify_certificate(g, bad)

    h = RatPoly([-17, 0, 1]) * RatPoly([1, 0, 1])
    cert_root = certify_sos4(h) if is_positive_on_reals(h).verdict else None
    # h is not positive; exercise the root evidence through a direct build
    from padic_sos.certifier import rule_simple_z2_root
    ev = rule_simple_z2_root(h)
    assert ev is not None
    fake_witness = RootWitness(ev.status.witness.gamma + 1,
                               ev.status.witness.delta,
                               ev.status.witness.modulus)
    fake = SimpleZ2Root(RootStatus("RootExists", fake_witness))
    assert verify_root_witness(h, ev.status.witness)
    assert not verify_root_witness(h, fake_witness)
    witness = ev.status.witness
    for tampered in (dict(modulus=2 * witness.modulus), dict(delta=witness.delta + 1)):
        assert not verify_root_witness(h, replace(witness, **tampered))

    # a diagram taken from another polynomial
    e = RatPoly([2, 0, 1])
    cert = certify_sos4(e)
    assert isinstance(cert.evidence, EisensteinEvenDegree)
    assert verify_certificate(e, cert)
    bad = replace(cert, evidence=EisensteinEvenDegree(
        newton_diagram(RatPoly([2, 0, 0, 0, 1]))))
    assert not verify_certificate(e, bad)
    p = RatPoly([12, 0, 0, 0, 1])
    cert = certify_sos4(p)
    assert isinstance(cert.evidence, PureEvenDivisor)
    assert verify_certificate(p, cert)
    bad = replace(cert, evidence=PureEvenDivisor(
        2, newton_diagram(RatPoly([2, 0, 1]))))
    assert not verify_certificate(p, bad)

    # SOS4 evidence on an f that is not positive: x^2 - 2 is Eisenstein,
    # so the rule gives its evidence back, and only the positivity guard
    # refuses the certificate
    neg = RatPoly([-2, 0, 1])
    ev = rule_eisenstein(neg)
    assert isinstance(ev, EisensteinEvenDegree) and rule_eisenstein(neg) == ev
    assert not verify_certificate(neg, Sos4Certificate.of(is_positive_on_reals(neg), ev))

    # Hensel-split degrees and modulus that the lift does not give
    res = reduce_twice_odd_degree(RatPoly([3, 1, 0, 0, 0, 0, 1]))
    ev = res.certificate.evidence
    assert isinstance(ev, HenselSplitEvenParts)
    assert verify_certificate(res.residual, res.certificate)
    lifts = []

    def recording_split(f, g1, h1, precision):
        lifts.append(precision)
        return hensel_split(f, g1, h1, precision)

    # certifier binds no lift of its own, so a lift would be recorded here
    assert "hensel_split" not in vars(certifier)
    monkeypatch.setattr(hensel, "hensel_split", recording_split)
    assert verify_certificate(res.residual, res.certificate)
    for tampered in (dict(g_degree=99, h_degree=7, modulus=3), dict(g_degree=99),
                     dict(h_degree=7), dict(modulus=3), dict(modulus=2 ** 64 + 1),
                     dict(modulus=2 ** 32), dict(modulus=2 ** 2 ** 16),
                     dict(root_status=RootStatus("NoRoot", witness)),
                     dict(scale=ev.scale / 2)):
        bad = replace(res.certificate, evidence=replace(ev, **tampered))
        assert not verify_certificate(res.residual, bad), tampered
    # the split is checked from Hensel's lemma's hypotheses: no modulus,
    # however large, makes verification build a lift
    assert lifts == []


def test_a_root_of_the_squarefree_part_is_no_simple_root():
    # x^2 + 7 has a 2-adic root (-7 = 1 mod 8), so the root tree finds
    # one on the square-free part of the perfect square (x^2 + 7)^2
    sq = RatPoly([7, 0, 1]) ** 2
    status = z2_root_status(sq)
    assert status.tag == ROOT_EXISTS and status.witness.on_squarefree_part
    assert rule_simple_z2_root(sq, squarefree=True) is None
    # a positivity certificate that wrongly claims sq square-free
    claim = replace(is_positive_on_reals(sq), on_squarefree_part=True)
    cert = certify_sos4(sq, positivity=claim)
    assert (cert.verdict, cert.rule) == (SOS4, "two_square_split")
    assert not verify_certificate(sq, cert)
    assert verify_certificate(sq, certify_sos4(sq))
    # the square-free x^4 + 24x^2 + 119 = (x^2 + 7)(x^2 + 17): its root
    # witness relabelled as taken on the square-free part, which is f
    f = RatPoly([119, 0, 24, 0, 1])
    cert = certify_sos4(f)
    assert isinstance(cert.evidence, SimpleZ2Root) and verify_certificate(f, cert)
    relabelled = replace(cert.evidence.status.witness, on_squarefree_part=True)
    assert verify_root_witness(f, relabelled)
    bad = replace(cert, evidence=SimpleZ2Root(RootStatus(ROOT_EXISTS, relabelled)))
    assert not verify_certificate(f, bad)


def test_verify_certificate_reads_rule_verdict_and_exactness():
    # the Eisenstein certificate of x^2 + 2 under any other label
    e = RatPoly([2, 0, 1])
    cert = certify_sos4(e)
    assert (cert.verdict, cert.rule) == (SOS4, "eisenstein") and verify_certificate(e, cert)
    for label in (dict(rule="two_square_split"), dict(rule="mod2_even_degrees"),
                  dict(rule=None), dict(verdict=NOT_SOS4), dict(verdict=INCONCLUSIVE),
                  dict(verdict=INCONCLUSIVE, rule=None)):
        assert not verify_certificate(e, replace(cert, **label)), label
    # an INCONCLUSIVE certificate carrying a rule
    g = RatPoly([3, 0, 1])
    cert = certify_sos4(g)
    assert (cert.verdict, cert.rule, cert.evidence) == (INCONCLUSIVE, None, None)
    assert verify_certificate(g, cert)
    assert not verify_certificate(g, replace(cert, rule="eisenstein"))
    # a witness not marked exact at the exact simple root 3 of
    # (x - 3)(x^2 + 1), where f'(3) = 10: the root tree marks it exact
    f = RatPoly([-3, 1]) * RatPoly([1, 0, 1])
    exact = RootWitness(3, 1, 8, exact=True)
    inexact = replace(exact, exact=False)
    assert verify_root_witness(f, exact) and not verify_root_witness(f, inexact)
    positivity = is_positive_on_reals(f)
    for witness, verdict in ((exact, True), (inexact, False)):
        cert = Sos4Certificate.of(positivity, SimpleZ2Root(RootStatus(ROOT_EXISTS, witness)))
        assert (cert.verdict, cert.rule) == (NOT_SOS4, "simple_z2_root")
        assert verify_certificate(f, cert) is verdict


def test_dispatcher_covers_generic_positive_inputs():
    # fixed-seed sweep over generic positive square-free-ish inputs:
    # every outcome must be a verified reduction (the designed
    # INCONCLUSIVE inputs are non-generic, like the always-square
    # sextic), and all routes should appear
    rng = random.Random(20260809)
    methods = set()
    n = 0
    while n < 100:
        deg = rng.choice([2, 2, 4, 4, 6, 8])
        f = RatPoly([rng.randint(-30, 30) for _ in range(deg)]
                    + [rng.randint(1, 30)])
        if f.degree != deg or not is_positive_on_reals(f).verdict:
            continue
        n += 1
        outcome = reduce_auto(f)
        assert isinstance(outcome, ReductionResult), f
        assert f - outcome.h * outcome.h == outcome.residual
        assert verify_certificate(outcome.certified_poly, outcome.certificate)
        methods.add(outcome.method)
    assert {"ZERO", "ALG6", "ALGN", "NOS"} <= methods


def test_dispatcher_handles_rational_and_square_laden_inputs():
    rng = random.Random(6789)
    done = 0
    while done < 15:
        core = RatPoly([F(rng.randint(1, 9), rng.choice([1, 2, 4, 3, 12]))
                        for _ in range(2)]
                       + [F(rng.randint(1, 9), rng.choice([1, 2, 8]))])
        if core.degree != 2 or not is_positive_on_reals(core).verdict:
            continue
        # square factor without real roots keeps f strictly positive
        square = RatPoly([rng.randint(1, 5), rng.randint(-3, 3), 1])
        if not is_positive_on_reals(square).verdict:
            continue
        f = core * square * square
        outcome = reduce_auto(f)
        if isinstance(outcome, ReductionResult):
            assert f - outcome.h * outcome.h == outcome.residual
            assert verify_certificate(outcome.certified_poly,
                                      outcome.certificate)
        done += 1


def test_dispatcher_rejects_vanishing_square_factor():
    # a square factor with a real root makes f touch zero; that is
    # outside the strict-positivity contract and must raise, not guess
    import pytest
    f = RatPoly([3, 0, 1]) * RatPoly([-1, 1]) ** 2
    with pytest.raises(ValueError):
        reduce_auto(f)


def test_verdicts_stable_under_odd_unit_scaling():
    # multiplying by a positive non-square rational keeps condition (3)
    # facts intact; conclusive verdicts must not flip
    rng = random.Random(5678)
    gallery = [RatPoly([1, 0, 1]), RatPoly([7, 0, 1]), RatPoly([2, 0, 1]),
               RatPoly([1, 1, 1]), RatPoly([3, 0, 1])]
    for f in gallery:
        base = certify_sos4(f).verdict
        for _ in range(3):
            u = F(rng.choice([3, 5, 7, 15]), rng.choice([1, 11, 13]))
            scaled = certify_sos4(f * u).verdict
            if base != INCONCLUSIVE and scaled != INCONCLUSIVE:
                assert scaled == base, (f, u)
