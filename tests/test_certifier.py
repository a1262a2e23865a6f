import random
from fractions import Fraction as F

import pytest

from padic_sos.certifier import (INCONCLUSIVE, NOT_SOS4, SOS4,
                                 EisensteinEvenDegree, Mod2EvenDegrees,
                                 NotPositive, OddSquareSplit, PureEvenDivisor,
                                 QuadraticNonSquareDisc, SimpleZ2Root,
                                 Sos4Certificate, TwoSquareSplit,
                                 certify_sos4, complete_square_split,
                                 quadratic_nonsquare_disc,
                                 rule_eisenstein, rule_mod2_even_degrees,
                                 rule_odd_split_witness,
                                 rule_pure_even_divisor, rule_simple_z2_root,
                                 rule_two_square_split, verify_certificate)
from padic_sos.hensel import ROOT_EXISTS, verify_root_witness
from padic_sos.padic import is_square_in_q2
from padic_sos.ratpoly import RatPoly, is_positive_on_reals
from padic_sos.reduction import (palindromic_counterexample,
                                 square_plus_8a_minus_1)

X2P1 = RatPoly([1, 0, 1])
ALWAYS_SQUARE = RatPoly([9, 0, 0, 4, 0, 0, 4])


def certified(f, witness=None):
    cert = certify_sos4(f, witness=witness, check_all_rules=True)
    assert verify_certificate(f, cert)
    return cert


def test_pipeline_verdicts():
    fkn, witness = palindromic_counterexample(0, 65)
    cases = [
        (X2P1, None, SOS4, "two_square_split"),
        (RatPoly([2, 0, 1]), None, SOS4, "eisenstein"),
        (RatPoly([F(3, 4), 0, 2]), None, SOS4, "eisenstein"),
        (RatPoly([3, 0, 1]), None, INCONCLUSIVE, None),
        (RatPoly([1, 1, 1]), None, SOS4, "mod2_even_degrees"),
        (RatPoly([7, 0, 1]), None, NOT_SOS4, "odd_split_witness"),
        (RatPoly([-1, 0, 1]), None, NOT_SOS4, "positivity"),
        (fkn, witness, NOT_SOS4, "odd_split_witness"),
        (fkn, None, NOT_SOS4, "odd_split_witness"),
        (ALWAYS_SQUARE, None, INCONCLUSIVE, None),
        (RatPoly([5]), None, SOS4, "mod2_even_degrees"),
    ]
    for f, witness, verdict, rule in cases:
        cert = certified(f, witness)
        assert (cert.verdict, cert.rule) == (verdict, rule), str(f)


def test_nonnegative_with_real_roots_is_rejected():
    with pytest.raises(ValueError):
        certify_sos4(RatPoly([0, 0, 1]))
    with pytest.raises(ValueError):
        certify_sos4(X2P1 * RatPoly([0, 0, 1]))


def test_witness_is_validated():
    with pytest.raises(ValueError):
        certify_sos4(X2P1, witness=(RatPoly([0, 1]), F(2)))


def test_complete_square_split():
    a, c = complete_square_split(ALWAYS_SQUARE)
    assert a == RatPoly([1, 0, 0, 2]) and c == 8
    a, c = complete_square_split(palindromic_counterexample(0, 65)[0])
    assert a == RatPoly([F(1, 260), F(2, 65)]) and c == F(63, 16 * 4225)
    assert complete_square_split(RatPoly([3, 0, 2])) is None  # lead not square
    assert complete_square_split(RatPoly([1, 1, 1, 1])) is None  # odd degree
    assert complete_square_split(RatPoly([1, 0, -1])) is None  # negative lead
    # not a perfect polynomial square despite the everywhere-square values
    assert complete_square_split(ALWAYS_SQUARE)[1] != 0


def test_quadratic_nonsquare_disc():
    # disc -8 = -2 * 4 is not a 2-adic square; -7 = 1 mod 8 is
    assert quadratic_nonsquare_disc(RatPoly([2, 0, 1])) == QuadraticNonSquareDisc(F(-8))
    assert quadratic_nonsquare_disc(RatPoly([2, 1, 1])) is None
    # only a quadratic is read
    assert quadratic_nonsquare_disc(RatPoly([2, 0, 0, 1])) is None
    assert quadratic_nonsquare_disc(RatPoly([2, 0, 0, 0, 1])) is None


def test_rule_odd_split_witness():
    g = RatPoly([1, 1, 0, 1])
    ev = rule_odd_split_witness(g * g + 7, g, F(7))
    assert isinstance(ev, OddSquareSplit)
    # even-degree A keeps the rule silent regardless of c
    f = RatPoly([0, 0, 1]) ** 2 + RatPoly([7])
    assert rule_odd_split_witness(f, RatPoly([0, 0, 1]), F(7)) is None
    # -c not a 2-adic square: silent
    assert rule_odd_split_witness(RatPoly([3, 0, 1]), RatPoly([0, 1]), F(3)) is None
    with pytest.raises(ValueError):
        rule_odd_split_witness(X2P1, RatPoly([0, 1]), F(5))
    a = RatPoly([1, 1, 0, 1])
    with pytest.raises(ValueError, match="odd split rule needs c nonzero"):
        rule_odd_split_witness(a * a, a, F(0))


def test_rule_simple_z2_root():
    f = RatPoly([-17, 0, 1]) * X2P1
    ev = rule_simple_z2_root(f)
    assert isinstance(ev, SimpleZ2Root) and ev.status.tag == ROOT_EXISTS
    assert verify_root_witness(f, ev.status.witness)
    assert rule_simple_z2_root(RatPoly([3, 0, 1])) is None
    # a certified root of a non-square-free polynomial is not simple
    sq = RatPoly([-1, 1]) ** 2
    assert rule_simple_z2_root(sq) is None


def test_rule_two_square_split():
    ev = rule_two_square_split(X2P1, RatPoly([0, 1]), F(1))
    assert isinstance(ev, TwoSquareSplit) and ev.s == 1
    assert rule_two_square_split(RatPoly([3, 0, 1]), RatPoly([0, 1]), F(3)) is None
    perfect = RatPoly([1, 2, 1])
    ev = rule_two_square_split(perfect, RatPoly([1, 1]), F(0))
    assert ev is not None and ev.s == 0


def test_rule_eisenstein():
    assert isinstance(rule_eisenstein(RatPoly([2, 0, 1])), EisensteinEvenDegree)
    assert rule_eisenstein(RatPoly([2, 0, 0, 1])) is None  # odd degree
    assert rule_eisenstein(RatPoly([1, 1, 1])) is None


def test_rule_pure_even_divisor():
    ev = rule_pure_even_divisor(RatPoly([2, 0, 1]))
    assert isinstance(ev, PureEvenDivisor) and ev.divisor == 2
    assert rule_pure_even_divisor(RatPoly([1, 1, 1])) is None  # e = 1
    assert rule_pure_even_divisor(RatPoly([4, 2, 0, 1])) is None  # not pure


def test_rule_mod2_even_degrees():
    f = RatPoly([1, 0, 1, 0, 1])  # x^4+x^2+1 = (x^2+x+1)^2 mod 2
    ev = rule_mod2_even_degrees(f)
    assert isinstance(ev, Mod2EvenDegrees)
    assert ev.factors == ((0b111, 2),)
    assert rule_mod2_even_degrees(RatPoly([1, 1, 0, 1])) is None  # odd factor
    assert rule_mod2_even_degrees(RatPoly([9, 0, 0, 4, 0, 0, 4])) is None  # even lead
    # the scaled difference shape: 2^(2l)f - (x^2+x+1)^(2k)
    cyc = RatPoly([1, 1, 1])
    q = RatPoly([1, 0, 1, 0, 1]) * 16 - cyc ** 2
    ev = rule_mod2_even_degrees(q)
    assert ev is not None and ev.factors == ((0b111, 2),)


def test_no_conflicting_evidence_on_gallery():
    rng = random.Random(71)
    gallery = [X2P1, ALWAYS_SQUARE, RatPoly([2, 0, 1]), RatPoly([3, 0, 1]),
               RatPoly([7, 0, 1]), palindromic_counterexample(0, 65)[0]]
    while len(gallery) < 40:
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 6))]
        coeffs.append(rng.randint(1, 6))
        f = RatPoly(coeffs)
        gallery.append(f)
    for f in gallery:
        try:
            cert = certify_sos4(f, check_all_rules=True)
        except ValueError:
            continue  # nonnegative-with-roots inputs are rejected
        assert verify_certificate(f, cert)
        if cert.verdict == SOS4:
            assert cert.positivity.verdict


def test_check_all_rules_reports_conflicting_evidence(monkeypatch):
    import padic_sos.certifier as certifier
    f = RatPoly([7, 0, 1])  # x^2 + 7 has two simple 2-adic roots
    monkeypatch.setattr(certifier, "rule_mod2_even_degrees", lambda f: Mod2EvenDegrees(()))
    with pytest.raises(AssertionError) as info:
        certify_sos4(f, check_all_rules=True)
    assert str(info.value) == (f"conflicting evidence on {f}: odd_split_witness->NOT_SOS4, "
                               "simple_z2_root->NOT_SOS4, mod2_even_degrees->SOS4")
    # without the check the first rule that concludes decides
    cert = certify_sos4(f)
    assert (cert.verdict, cert.rule) == (NOT_SOS4, "odd_split_witness")


def test_always_square_values():
    rng = random.Random(73)
    for _ in range(100):
        q = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        assert is_square_in_q2(ALWAYS_SQUARE(q))


def test_verdict_invariant_under_square_scaling():
    rng = random.Random(79)
    gallery = [X2P1, RatPoly([2, 0, 1]), RatPoly([3, 0, 1]), RatPoly([7, 0, 1]),
               ALWAYS_SQUARE, RatPoly([1, 1, 1])]
    for f in gallery:
        base = certify_sos4(f).verdict
        for _ in range(4):
            r = F(rng.randint(1, 40), rng.randint(1, 40))
            assert certify_sos4(f * (r * r)).verdict == base


def test_verdict_invariant_under_integer_shift():
    for g, a in [(RatPoly([0, 1]), 1), (RatPoly([1, 1, 0, 1]), 2)]:
        f, (A, c) = square_plus_8a_minus_1(g, a)
        for n in range(-2, 3):
            cert = certify_sos4(f.shift(n), witness=(A.shift(n), c))
            assert cert.verdict == NOT_SOS4


def test_newton_diagram_built_only_for_evidence(monkeypatch):
    import oracles

    import padic_sos.certifier as certifier
    from padic_sos import newton_polygon
    calls = []
    original = newton_polygon.newton_diagram

    def recording(f):
        calls.append(f)
        return original(f)

    diagram_rules = (oracles.hull_rule_eisenstein, oracles.hull_rule_pure_even_divisor)
    cases = {  # f -> (rule by default, diagram-rule evidence it holds)
        RatPoly([2, 0, 1]): ("eisenstein", 2),
        RatPoly([6, 0, 0, 0, 1]): ("eisenstein", 2),
        RatPoly([12, 0, 0, 0, 1]): ("pure_even_divisor", 1),
        # x^4 + 4 = (x^2)^2 + 2^2: the split concludes first, though e = 2
        RatPoly([4, 0, 0, 0, 1]): ("two_square_split", 1),
        RatPoly([3, 1, 1, 1, 1]): ("mod2_even_degrees", 0),
        RatPoly([7, 0, 1]): ("odd_split_witness", 0),
        X2P1: ("two_square_split", 0),
        ALWAYS_SQUARE: (None, 0),
    }
    for f, (_, held) in cases.items():
        assert sum(rule(f) is not None for rule in diagram_rules) == held
    monkeypatch.setattr(certifier, "newton_diagram", recording)
    monkeypatch.setattr(newton_polygon, "newton_diagram", recording)
    for f, (rule, held) in cases.items():
        calls.clear()
        cert = certify_sos4(f)
        assert cert.rule == rule
        # a certification that no diagram rule concludes builds no diagram
        assert calls == ([f] if rule in ("eisenstein", "pure_even_divisor") else [])
        calls.clear()
        certify_sos4(f, check_all_rules=True)
        assert calls == [f] * held


def test_certify_reads_a_positivity_certificate_in_hand(monkeypatch):
    import padic_sos.certifier as certifier
    from padic_sos.certifier import _certify_positive
    from padic_sos.ratpoly import is_positive_on_reals
    cases = [RatPoly([3, 0, 1]), RatPoly([2, 0, 1]), ALWAYS_SQUARE,
             RatPoly([-1, 0, 1]), square_plus_8a_minus_1(RatPoly([0, 1]), 1)[0]]
    held = [is_positive_on_reals(f) for f in cases]
    fresh = [certify_sos4(f) for f in cases]
    square = RatPoly([0, 0, 1])
    square_positivity = is_positive_on_reals(square)

    def refusing(f):
        raise AssertionError("a held certificate was recomputed")

    monkeypatch.setattr(certifier, "_positivity", refusing)
    for f, positivity, cert in zip(cases, held, fresh):
        assert certify_sos4(f, _proved=positivity) == cert
        if positivity.verdict:
            assert _certify_positive(f, positivity) == cert
    # the gate's messages stay: nonnegative with a real root is refused
    with pytest.raises(ValueError, match="real roots"):
        certify_sos4(square, _proved=square_positivity)


def test_public_entries_take_no_claim():
    import inspect

    import padic_sos
    # a claim reaches a public function only through a private parameter
    for module in (padic_sos.certifier, padic_sos.hensel, padic_sos.reduction,
                   padic_sos.ratpoly, padic_sos):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            for param in inspect.signature(fn).parameters:
                assert "positiv" not in param and "squarefree" not in param \
                    or param.startswith("_"), (name, param)


def test_non_positive_inputs_run_each_remainder_pair_once(remainder_pairs):
    # the not-positive branches of certify_sos4 and verify_certificate
    # classify f from the gate's own result: the gate's signature for a
    # square-free f, its gcd(f, f') for the decomposition otherwise
    def runs_each_pair_once():
        assert remainder_pairs and len(set(remainder_pairs)) == len(remainder_pairs)
        remainder_pairs.clear()

    negative = RatPoly([-2, 0, 1])
    cert = certify_sos4(negative)
    assert cert.verdict == NOT_SOS4 and isinstance(cert.evidence, NotPositive)
    runs_each_pair_once()
    assert verify_certificate(negative, cert)
    runs_each_pair_once()
    with_roots = RatPoly([-1, 1]) ** 2 * X2P1
    with pytest.raises(ValueError, match="real roots"):
        certify_sos4(with_roots)
    runs_each_pair_once()
    forged = Sos4Certificate.of(is_positive_on_reals(with_roots), NotPositive())
    remainder_pairs.clear()
    assert not verify_certificate(with_roots, forged)
    runs_each_pair_once()
    # NotPositive forged on a positive f is refused
    assert not verify_certificate(
        X2P1, Sos4Certificate.of(is_positive_on_reals(X2P1), NotPositive()))
