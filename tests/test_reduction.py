import random
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import oracles
from padic_sos import certifier, reduction, zpoly
from padic_sos.certifier import (NOT_SOS4, SOS4, OddSquareSplit,
                                 PureEvenDivisor, certify_sos4, verify_certificate)
from padic_sos.newton_polygon import newton_diagram
from padic_sos.padic import ord2
from padic_sos.ratpoly import (RatPoly, _least_exponent, discriminant,
                               is_positive_on_reals, is_squarefree, poly_gcd)
from padic_sos.reduction import (InconclusiveReport, NonTermination,
                                 ObstructionReport, ReductionResult,
                                 _constant_three_mod_four,
                                 _is_square_times_three_mod_four,
                                 palindromic_counterexample, reduce_auto,
                                 reduce_constant_three_mod_four,
                                 reduce_cyclotomic_power, reduce_iterative,
                                 reduce_multiple_of_four,
                                 reduce_odd_valuation,
                                 reduce_twice_odd_degree,
                                 square_plus_8a_minus_1)

CYC = RatPoly([1, 1, 1])
X2P1 = RatPoly([1, 0, 1])


def check_result(f, res):
    assert isinstance(res, ReductionResult)
    assert f - res.h * res.h == res.residual
    assert res.certificate.verdict == SOS4
    assert verify_certificate(res.certified_poly, res.certificate)
    t = res.transform
    core = res.certified_poly
    lhs = res.residual * (t.scale * t.scale)
    rhs = t.square_part * t.square_part * core.shift(-t.shift)
    assert lhs == rhs
    return res


def test_reduce_odd_valuation_example():
    f = RatPoly([1, 0, 2])
    res = check_result(f, reduce_odd_valuation(f))
    assert res.parameters["l"] == 1
    assert res.h == RatPoly([F(1, 2)])
    assert res.residual == RatPoly([F(3, 4), 0, 2])
    assert res.parameters["l"] >= max(res.parameters["l1"],
                                      res.parameters["l2"],
                                      res.parameters["l3"])


def test_reduce_odd_valuation_gcd_loop_and_bounds():
    rng = random.Random(91)
    done = 0
    while done < 6:
        q = RatPoly([rng.randint(-4, 4) for _ in range(2)] + [rng.randint(1, 4)])
        f = (q * q + RatPoly([rng.randint(1, 5)])) * 2
        if not is_squarefree(f):
            continue
        res = check_result(f, reduce_odd_valuation(f))
        p = res.parameters
        assert p["l"] >= max(p["l1"], p["l2"], p["l3"])
        d, kd = f.degree, p["kd"]
        import math
        assert math.gcd(d, 2 * p["l"] + kd) == 1
        done += 1


def test_reduce_odd_valuation_rejects_even_valuation():
    with pytest.raises(ValueError, match="odd"):
        reduce_odd_valuation(RatPoly([1, 0, 1]))


def test_reduce_multiple_of_four():
    f = (RatPoly([-4, 0, 1]) ** 2) + RatPoly([7])
    res = check_result(f, reduce_multiple_of_four(f))
    assert res.method == "ALGN"
    assert res.parameters["gcd_increments"] <= 2
    assert isinstance(res.certificate.evidence, PureEvenDivisor)
    assert res.certificate.evidence.divisor == 2
    with pytest.raises(ValueError):
        reduce_multiple_of_four(RatPoly([3, 0, 1, 0, 0, 0, 1]))  # degree 6
    # odd leading valuation delegates to the odd-valuation route
    g = RatPoly([1, 1, 1, 0, 2])
    if is_squarefree(g) and is_positive_on_reals(g).verdict:
        res = reduce_multiple_of_four(g)
        assert res.method == "ALG6"


def test_reduce_iterative_zero_and_immediate():
    res = reduce_iterative(RatPoly([1, 0, 1]))
    assert res.method == "ZERO" and res.h.is_zero

    f = RatPoly([1, 0, 1, 0, 2])
    res = check_result(f, reduce_iterative(f))
    assert res.method == "ALG9"
    assert res.parameters["l"] == res.parameters["l_init"]
    assert res.h == RatPoly([F(1, 2)])


def test_reduce_iterative_nontermination_small_cap():
    f, _ = palindromic_counterexample(0, 65)
    res = reduce_iterative(f, cap=6)
    assert isinstance(res, NonTermination)
    assert res.l_init == 6 and len(res.iterates) == 6
    for it in res.iterates:
        assert it.branch_a.verdict != SOS4
        assert it.branch_b.verdict != SOS4
        ev = it.branch_a.certificate.evidence
        assert isinstance(ev, OddSquareSplit)
        assert verify_certificate(it.branch_a.candidate, it.branch_a.certificate)


def _branches(outcome):
    """(candidate, certificate) of every ALG9 branch an outcome of
    ``reduce_iterative`` records, on the core."""
    if isinstance(outcome, NonTermination):
        iterates = outcome.iterates
    else:
        iterates = outcome.trace if outcome.method == "ALG9" else ()
    pairs = [(rec.candidate, rec.certificate)
             for it in iterates for rec in (it.branch_a, it.branch_b)]
    if isinstance(outcome, ReductionResult) and outcome.method == "ALG9":
        pairs.append((outcome.certified_poly, outcome.certificate))
    return pairs


def test_alg9_branch_certificates_reuse_the_split_exactly(monkeypatch):
    searches = []
    original = certifier.complete_square_split
    for module in (certifier, reduction):
        monkeypatch.setattr(module, "complete_square_split",
                            lambda f: searches.append(f) or original(f))
    for k in (0, 1, 2):
        f, _ = palindromic_counterexample(k, 65)
        searches.clear()
        outcome = reduce_iterative(f, cap=40)
        # f's split once, then only branch b searches
        assert searches == [f] + [it.branch_b.candidate for it in outcome.iterates]
        for candidate, certificate in _branches(outcome):
            assert certificate == certify_sos4(candidate)


split_polys = st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
                       min_size=1, max_size=3).map(lambda cs: RatPoly(cs + [F(1)]))
positive_constants = st.builds(F, st.integers(1, 40), st.integers(1, 9))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(split_polys, positive_constants, st.sampled_from([1, 1, 4, 9, 2, 3]),
                  st.sampled_from([0, 0, 1, -1]))
def test_alg9_branch_certificates_match_certify_sos4(a_poly, c, lead, bend):
    """f = lead*A^2 + c + bend*x has the split (sqrt(lead)A, c) for a
    square lead and bend 0, none for lead 2 or 3 and none, past degree
    2, for a nonzero bend."""
    f = a_poly * a_poly * lead + RatPoly([c, bend])
    hypothesis.assume(is_positive_on_reals(f).verdict)
    for candidate, certificate in _branches(reduce_iterative(f, cap=4)):
        assert certificate == certify_sos4(candidate)


def test_nos_reduce_example():
    f = RatPoly([3, 0, 1])
    res = check_result(f, reduce_constant_three_mod_four(f))
    assert (res.parameters["N"], res.parameters["l"]) == (3, 1)
    assert res.h == RatPoly([F(1, 3), F(1, 2)])
    assert res.residual == RatPoly([F(26, 9), F(-1, 3), F(3, 4)])
    d = newton_diagram(res.residual)
    assert d.vertices == ((0, 1), (2, -2))
    assert ord2(res.residual[0])[0] == 2 * res.parameters["a"] + 1


def test_nos_reduce_shifted_counterexample():
    f = RatPoly([7, -7, 4])  # 65^2 * f_{0,65}(x - 1)
    res = check_result(f, reduce_constant_three_mod_four(f))
    assert ord2(res.residual[0])[0] == 1
    assert res.certificate.rule == "eisenstein"


def test_nos_reduce_hypothesis_gate():
    with pytest.raises(ValueError, match="constant term"):
        reduce_constant_three_mod_four(RatPoly([1, 0, 1]))
    with pytest.raises(ValueError, match="integer"):
        reduce_constant_three_mod_four(RatPoly([F(3, 5), 0, 1]))
    # the body reads the constant term as a 2-adic residue, as reduce_auto
    # does: 3/5 = 3 mod 4 in Z_2, though Fraction(3, 5) % 4 is 3/5
    assert _is_square_times_three_mod_four(F(3, 5))
    f = RatPoly([F(3, 5), 0, 1])
    res = check_result(f, _constant_three_mod_four(f))
    assert res.method == "NOS" and ord2(res.residual[0])[0] == 1
    with pytest.raises(ValueError, match="constant term"):
        _constant_three_mod_four(RatPoly([F(1, 5), 0, 1]))


def test_gr4_reduce():
    f = RatPoly([1, 0, 1, 0, 1])
    res = check_result(f, reduce_cyclotomic_power(f))
    assert res.parameters["l"] <= 4
    assert res.certificate.rule == "mod2_even_degrees"
    assert res.certificate.evidence.factors == ((0b111, 2),)
    # the documented l = 2 instance, checked directly
    g = f - (CYC ** 2) * F(1, 16)
    assert g == RatPoly([F(15, 16), F(-2, 16), F(13, 16), F(-2, 16), F(15, 16)])
    assert is_positive_on_reals(g).verdict
    with pytest.raises(ValueError):
        reduce_cyclotomic_power(RatPoly([1, 0, 1]))  # degree 2
    # a constant core: (x^2+1)^2 is ZERO, not refused
    assert reduce_cyclotomic_power((RatPoly([1, 0, 1]) ** 2)).method == "ZERO"


def test_gr4_reduce_random_inputs():
    rng = random.Random(97)
    done4 = done8 = 0
    while done4 + done8 < 10:
        half = rng.choice([2, 4]) if done4 >= 5 else 2
        if done8 >= 5:
            half = 2
        q1 = RatPoly([rng.randint(-5, 5) for _ in range(half)] + [rng.randint(1, 5)])
        q2 = RatPoly([rng.randint(-5, 5) for _ in range(half + 1)])
        f = q1 * q1 + q2 * q2 + RatPoly([rng.randint(1, 3)])
        if f.degree != 2 * half or not is_squarefree(f):
            continue
        res = check_result(f, reduce_cyclotomic_power(f))
        assert res.certificate.verdict == SOS4
        if half == 2:
            done4 += 1
        else:
            done8 += 1


def test_picky_success_quadratic():
    f = RatPoly([3, 0, 1])
    res = check_result(f, reduce_twice_odd_degree(f))
    assert res.certificate.rule == "quadratic_nonsquare_disc"
    ell = res.parameters["l"]
    assert res.h == RatPoly.monomial(1, F(1, 2 ** ell))


def test_picky_success_degree_six():
    f = RatPoly([3, 0, 1, 0, 0, 0, 1])
    res = check_result(f, reduce_twice_odd_degree(f))
    assert res.certificate.rule == "hensel_split_even_parts"
    assert res.parameters["hensel_g_degree"] == 4
    assert res.parameters["hensel_h_degree"] == 2


def test_picky_obstruction_degree_six():
    # f(0) = 9 = 8 + 1 and f(0) = 68 = 2^2 * 17 are 2-adic squares
    for f, a in [(RatPoly([9, 0, 1, 0, 0, 0, 1]), 0),
                 (RatPoly([68, 0, 3, 0, 0, 0, 1]), 1)]:
        rep = reduce_twice_odd_degree(f)
        assert isinstance(rep, ObstructionReport)
        assert rep.gamma == 2 ** (rep.ell + a)
        assert rep.delta == rep.ell + a + 1
        assert verify_certificate(rep.residual, rep.certificate)
        base = (RatPoly([1, 1, 1]) ** 2) * RatPoly.monomial(2)
        q = f * (4 ** rep.ell) - base
        assert ord2(q(rep.refined_root))[0] >= rep.refine_precision


def test_picky_success_degree_ten():
    f = RatPoly([3, 0, 1] + [0] * 7 + [1])  # x^10 + x^2 + 3, k = 2
    res = reduce_twice_odd_degree(f)
    assert isinstance(res, ReductionResult)
    assert res.parameters["hensel_g_degree"] == 8
    assert res.parameters["hensel_h_degree"] == 2
    assert verify_certificate(res.residual, res.certificate)


def test_picky_certifies_quadratic_factor_without_root():
    # x^6 + x^2 + 3: the root tree closes the quadratic Hensel factor
    f = RatPoly([3, 0, 1, 0, 0, 0, 1])
    res = reduce_twice_odd_degree(f)
    assert isinstance(res, ReductionResult) and res.method == "PICKY"
    assert res.certificate.evidence.root_status.tag == "NoRoot"
    assert verify_certificate(res.residual, res.certificate)


def test_picky_obstruction_on_square_constant():
    rep = reduce_twice_odd_degree(RatPoly([1, 0, 1]))
    assert isinstance(rep, ObstructionReport)
    assert rep.gamma == 2 ** rep.ell and rep.delta == rep.ell + 1
    assert rep.certificate.verdict == NOT_SOS4
    assert verify_certificate(rep.residual, rep.certificate)
    assert is_positive_on_reals(rep.residual).verdict
    # refined root: substitution has 2-adic valuation at least the precision
    q = RatPoly([1, 0, 1]) * (4 ** rep.ell) - RatPoly.monomial(2)
    value = q(rep.refined_root)
    assert ord2(value)[0] >= rep.refine_precision
    assert ord2(value)[0] >= 2 * rep.delta + 1
    assert rep.parametric_disc_value != 0
    assert rep.parametric_disc_value == discriminant(q)


def test_obstruction_moves_past_a_member_with_a_repeated_factor():
    # f = ((x^2+x+1)^2 x^2 + Q^2 R) / 64 with Q = x^2+x+33, R = 63x^2+64:
    # the search starts at l = max(a + 3, l_pos, 1) = 3 (f(0) = 33^2 is odd),
    # where q = 64 f - base = Q^2 R has a repeated factor, so it takes l = 4
    base = CYC ** 2 * RatPoly.monomial(2)
    f = RatPoly([1089, 66, 1139, 67, 67, 2, 1])
    assert f * 64 - base == RatPoly([33, 1, 1]) ** 2 * RatPoly([64, 0, 63])
    assert is_squarefree(f) and ord2(f[0])[0] == 0
    assert (_least_exponent(f, -base) + 1) // 2 <= 3
    assert discriminant(f * 64 - base) == 0
    rep = reduce_twice_odd_degree(f)
    assert isinstance(rep, ObstructionReport)
    assert rep.ell == 4 and rep.gamma == 2 ** 4
    assert verify_certificate(rep.residual, rep.certificate)
    assert rep.parametric_disc_value == discriminant(f * 256 - base) != 0
    assert (rep.ell, rep.gamma, rep.delta, rep.refined_root) == oracles.obstruction_witness(f)


def test_obstruction_search_matches_the_reference():
    # degree 2(2k+1) with f(0) = 4^a (8m + 1), a 2-adic square: the
    # witness found through the root tree's check is the reference's
    rng = random.Random(20261018)
    done = 0
    while done < 60:
        d = rng.choice([2, 6, 10])
        c0 = 4 ** rng.randint(0, 2) * (8 * rng.randint(0, 6) + 1)
        f = RatPoly([c0] + [rng.randint(-6, 6) for _ in range(d - 1)] + [rng.randint(1, 6)])
        positivity = is_positive_on_reals(f)
        if not (positivity.verdict and positivity.on_squarefree_part):
            continue
        rep = reduce_twice_odd_degree(f)
        assert isinstance(rep, ObstructionReport), f
        assert (rep.ell, rep.gamma, rep.delta, rep.refined_root) == oracles.obstruction_witness(f)
        done += 1


def test_picky_hypothesis_gates():
    with pytest.raises(ValueError):
        reduce_twice_odd_degree(RatPoly([1, 0, 1, 0, 1]))  # degree 4
    with pytest.raises(ValueError):
        reduce_twice_odd_degree(RatPoly([F(1, 3), 0, 1]))  # rationals


def test_family_generators():
    f, (a_poly, c) = palindromic_counterexample(0, 65)
    assert f == RatPoly([F(4, 4225), F(1, 4225), F(4, 4225)])
    assert f == a_poly * a_poly + RatPoly([c])
    f, (a_poly, c) = palindromic_counterexample(1, 67)
    assert f.degree == 6
    assert f == a_poly * a_poly + RatPoly([c])
    with pytest.raises(ValueError):
        palindromic_counterexample(0, 63)
    with pytest.raises(ValueError):
        palindromic_counterexample(0, 66)

    g = RatPoly([1, 1, 0, 1])
    f, (a_poly, c) = square_plus_8a_minus_1(g, 1)
    assert f == g * g + RatPoly([7]) and a_poly == g and c == 7
    with pytest.raises(ValueError):
        square_plus_8a_minus_1(RatPoly([0, 0, 1]), 1)
    with pytest.raises(ValueError):
        square_plus_8a_minus_1(g, 0)


def test_reduce_auto_gallery():
    cases = {
        "x^2+1": (RatPoly([1, 0, 1]), "ZERO"),
        "x^2+3": (RatPoly([3, 0, 1]), "NOS"),
        "x^2+5": (RatPoly([5, 0, 1]), "PICKY"),
        "x^2+7": (RatPoly([7, 0, 1]), "NOS"),
        "2x^2+1": (RatPoly([1, 0, 2]), "ZERO"),
        "deg4": ((RatPoly([-4, 0, 1]) ** 2) + RatPoly([7]), "ALGN"),
    }
    for label, (f, method) in cases.items():
        res = reduce_auto(f)
        assert isinstance(res, ReductionResult), label
        assert res.method == method, label
        check_result(f, res)


def test_reduce_auto_shift_path():
    f, _ = palindromic_counterexample(0, 65)
    res = check_result(f, reduce_auto(f))
    assert res.method == "NOS"
    assert res.transform.shift == -1
    assert res.transform.scale == 65


def test_reduce_auto_square_factor():
    f = (RatPoly([1, 0, 1]) ** 2) * RatPoly([3, 0, 1])
    res = check_result(f, reduce_auto(f))
    assert res.transform.square_part == RatPoly([1, 0, 1])
    assert res.h == RatPoly([1, 0, 1]) * RatPoly([F(1, 3), F(1, 2)])


def test_reduce_auto_always_square_inconclusive():
    res = reduce_auto(RatPoly([9, 0, 0, 4, 0, 0, 4]))
    assert isinstance(res, InconclusiveReport)
    assert "2-adic square" in res.note


def test_reduce_auto_rejects_nonpositive():
    with pytest.raises(ValueError):
        reduce_auto(RatPoly([-1, 0, 1]))
    with pytest.raises(ValueError):
        reduce_auto(RatPoly([0, 0, 1]))


def test_reduce_auto_decomposes_only_non_squarefree_input(monkeypatch):
    import padic_sos.reduction as reduction
    calls = []
    decompose = reduction._squarefree_decomposition

    def recording(f, last):
        calls.append(f)
        return decompose(f, last)

    def refusing(f, last):
        raise AssertionError("square-free input was decomposed")

    monkeypatch.setattr(reduction, "_squarefree_decomposition", refusing)
    for f in (RatPoly([3, 0, 1]), RatPoly([7, 1, 0, 0, 1]), RatPoly([5])):
        assert isinstance(reduce_auto(f), (ReductionResult, InconclusiveReport))
    monkeypatch.setattr(reduction, "_squarefree_decomposition", recording)
    f = (RatPoly([1, 0, 1]) ** 2) * RatPoly([3, 0, 1])
    res = check_result(f, reduce_auto(f))
    assert calls == [f]
    assert res.transform.square_part == RatPoly([1, 0, 1])


@pytest.fixture
def gated(monkeypatch):
    """Every polynomial the positivity gate body ``ratpoly._positivity``
    runs on, in order, whichever module calls it (``is_positive_on_reals``
    runs it too)."""
    import padic_sos.certifier as certifier
    import padic_sos.ratpoly as ratpoly
    import padic_sos.reduction as reduction
    calls = []
    original = ratpoly._positivity

    def recording(f):
        calls.append(f)
        return original(f)

    for module in (ratpoly, certifier, reduction):
        monkeypatch.setattr(module, "_positivity", recording)
    return calls


@pytest.mark.parametrize("coeffs, method", [
    ([3, 0, 1], "NOS"), ([5, 1, 0, 0, 2], "ALG6"), ([3, 1, 0, 0, 4], "ALGN"),
    ([2, 1, 3, 0, 1], "ALGN"), ([1, 0, 2], "ZERO"), ([9, 0, 0, 4, 0, 0, 4], None),
])
def test_reduce_auto_gates_a_squarefree_core_once(gated, coeffs, method):
    f = RatPoly(coeffs)
    res = reduce_auto(f)
    assert getattr(res, "method", None) == method
    # f is its own core: one gate, before any route, and ALG6 / ALGN /
    # the certifier take it as gated
    assert gated[0] == f and gated.count(f) == 1


def alg9(f):
    return reduce_iterative(f, cap=3)


ROUTES = (reduce_odd_valuation, reduce_multiple_of_four, alg9,
          reduce_constant_three_mod_four, reduce_cyclotomic_power,
          reduce_twice_odd_degree)


def test_reduce_auto_gates_input_once_and_never_its_core(gated, remainder_pairs):
    for route, core in ((reduce_auto, RatPoly([3, 0, 1])),
                        (reduce_odd_valuation, RatPoly([5, 1, 0, 0, 2])),
                        (reduce_multiple_of_four, RatPoly([3, 1, 0, 0, 4])),
                        (alg9, RatPoly([3, 1, 0, 0, 4])),
                        (reduce_constant_three_mod_four, RatPoly([3, 0, 1])),
                        (reduce_cyclotomic_power, RatPoly([3, 1, 0, 0, 4])),
                        (reduce_twice_odd_degree, RatPoly([3, 0, 1]))):
        gated.clear()
        remainder_pairs.clear()
        f = X2P1 ** 2 * core
        res = route(f)
        # f is gated once, before any route; the core's certificate is
        # proved from the decomposition, not tested
        assert gated[0] == f and gated.count(f) == 1, route
        assert core not in gated
        # the gate's gcd(f, f') feeds the decomposition, so no pair of
        # polynomials runs through the remainder sequence twice
        assert len(set(remainder_pairs)) == len(remainder_pairs)
        a = f.primitive_part
        assert remainder_pairs[0] == (a, RatPoly(list(zpoly.diff(a))).primitive_part)
        check_outcome(f, res)
        assert res.transform.square_part == X2P1


def test_reduce_iterative_gates_f_once_and_never_its_reversal(gated):
    f = RatPoly([3, 1, 0, 0, 4])
    assert f.reverse() != f
    reduce_iterative(f, cap=3)
    assert gated[0] == f and gated.count(f) == 1
    assert f.reverse() not in gated


@pytest.mark.parametrize("route, not_squarefree, not_positive", [
    (reduce_odd_valuation, X2P1 ** 2, RatPoly([-2, 0, 1])),
    (reduce_multiple_of_four, X2P1 ** 2, RatPoly([-2, 0, 0, 0, 1])),
    (reduce_iterative, X2P1 ** 2, RatPoly([-2, 0, 0, 0, 1])),
    (reduce_cyclotomic_power, X2P1 ** 2, RatPoly([-2, 0, 0, 0, 1])),
    (reduce_twice_odd_degree, X2P1 ** 2 * RatPoly([3, 0, 1]),
     RatPoly([-2, 0, 0, 0, 0, 0, 1])),
])
def test_routes_gate_on_squarefree_then_positive(route, not_squarefree, not_positive):
    """The one gate is positivity: a positive input with a repeated factor
    runs on its square-free core, a non-positive one is refused whether
    or not it is square-free."""
    assert is_positive_on_reals(not_squarefree).verdict
    assert is_squarefree(not_positive)
    outcome = route(not_squarefree)
    check_outcome(not_squarefree, outcome)
    if isinstance(outcome, ReductionResult):
        assert outcome.transform.square_part == X2P1
    with pytest.raises(ValueError, match="input must be strictly positive on R"):
        route(not_positive)
    with pytest.raises(ValueError, match="input must be strictly positive on R"):
        route(-not_squarefree)


def check_outcome(f, outcome):
    """A result satisfies check_result on f; an obstruction's certificate
    verifies on its residual."""
    if isinstance(outcome, ObstructionReport):
        assert verify_certificate(outcome.residual, outcome.certificate)
    elif isinstance(outcome, ReductionResult):
        check_result(f, outcome)


def kind(route, f):
    """The method or outcome type a route gives on f, or its refusal."""
    try:
        outcome = route(f)
    except ValueError as exc:
        return "refused: " + str(exc), None
    return getattr(outcome, "method", type(outcome).__name__), outcome


@st.composite
def positive(draw, degrees):
    """A^2 + B^2 + c, of degree 2m for m in ``degrees``."""
    m = draw(st.sampled_from(degrees))
    small = st.integers(-4, 4)
    a = RatPoly(draw(st.lists(small, min_size=m, max_size=m)) + [draw(st.integers(1, 4))])
    b = RatPoly(draw(st.lists(small, min_size=m, max_size=m)))
    return a * a + b * b + RatPoly([draw(st.integers(1, 9))])


@st.composite
def squarefree_positive_and_coprime(draw):
    """(f, g): f > 0 square-free, times a positive rational, and g
    non-constant, with no real root and coprime to f; deg g^2 f <= 8."""
    g = draw(positive([1])) * draw(st.sampled_from([1, -2, F(1, 3)]))
    f = draw(positive([1, 2])) * draw(st.sampled_from([1, 2, 3, F(1, 3)]))
    hypothesis.assume(is_squarefree(f) and poly_gcd(f, g).degree == 0)
    return f, g


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(squarefree_positive_and_coprime())
def test_routes_run_on_the_core(pair):
    """A repeated factor is no longer refused: g^2 f and lc(g)^2 f share
    their core, so every route gives both the same outcome, transported."""
    f, g = pair
    core = f * g.leading ** 2
    for route in (reduce_auto,) + ROUTES:
        on_input, outcome = kind(route, g * g * f)
        assert on_input == kind(route, core)[0], route
        check_outcome(g * g * f, outcome)
        for not_positive in (-(g * g * f), RatPoly([-1, 1]) ** 2 * f):
            with pytest.raises(ValueError, match="strictly positive"):
                route(not_positive)


@pytest.mark.parametrize("f", [RatPoly([5]), X2P1 ** 2 * 3, CYC ** 4 * F(1, 7)])
def test_a_constant_core_is_zero_under_every_route(f):
    zero = reduce_auto(f)
    assert zero.method == "ZERO" and zero.h.is_zero and zero.residual == f
    assert all(route(f) == zero for route in ROUTES)


def test_square_clearing_scale_reads_the_content_denominator():
    from padic_sos.reduction import _square_clearing_scale
    rng = random.Random(3)
    for _ in range(200):
        f = RatPoly([F(rng.randint(-30, 30), rng.choice((1, 2, 4, 8, 12, 18, 45, 50)))
                     for _ in range(rng.randint(1, 6))])
        if f.is_zero:
            continue
        scale = _square_clearing_scale(f)
        assert (f * scale ** 2).content.denominator == 1
        # smallest: no proper divisor clears f with its square
        assert all((f * (scale // p) ** 2).content.denominator != 1
                   for p in (2, 3, 5) if scale % p == 0)
    assert _square_clearing_scale(RatPoly([F(1, 12), 1])) == 6
    assert _square_clearing_scale(RatPoly([F(1, 10 ** 13 + 37), 1])) == 10 ** 13 + 37
