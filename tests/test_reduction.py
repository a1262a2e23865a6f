import random
from fractions import Fraction as F

import pytest

from padic_sos.certifier import (NOT_SOS4, SOS4, OddSquareSplit,
                                 PureEvenDivisor, verify_certificate)
from padic_sos.newton_polygon import newton_diagram
from padic_sos.padic import ord2
from padic_sos.ratpoly import (RatPoly, discriminant, is_positive_on_reals,
                               is_squarefree)
from padic_sos.reduction import (InconclusiveReport, NonTermination,
                                 ObstructionReport, ReductionResult,
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
    with pytest.raises(ValueError):
        reduce_cyclotomic_power((RatPoly([1, 0, 1]) ** 2))  # not square-free


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


def test_reduce_auto_runs_yun_only_on_non_squarefree_input(monkeypatch):
    import padic_sos.reduction as reduction
    calls = []
    yun = reduction.squarefree_decomposition

    def recording(f):
        calls.append(f)
        return yun(f)

    def refusing(f):
        raise AssertionError("square-free input went through Yun")

    monkeypatch.setattr(reduction, "squarefree_decomposition", refusing)
    for f in (RatPoly([3, 0, 1]), RatPoly([7, 1, 0, 0, 1]), RatPoly([5])):
        assert isinstance(reduce_auto(f), (ReductionResult, InconclusiveReport))
    monkeypatch.setattr(reduction, "squarefree_decomposition", recording)
    f = (RatPoly([1, 0, 1]) ** 2) * RatPoly([3, 0, 1])
    res = check_result(f, reduce_auto(f))
    assert calls == [f]
    assert res.transform.square_part == RatPoly([1, 0, 1])



@pytest.mark.parametrize("route, not_squarefree, not_positive", [
    (reduce_odd_valuation, X2P1 ** 2, RatPoly([-2, 0, 1])),
    (reduce_multiple_of_four, X2P1 ** 2, RatPoly([-2, 0, 0, 0, 1])),
    (reduce_iterative, X2P1 ** 2, RatPoly([-2, 0, 0, 0, 1])),
    (reduce_cyclotomic_power, X2P1 ** 2, RatPoly([-2, 0, 0, 0, 1])),
    (reduce_twice_odd_degree, X2P1 ** 2 * RatPoly([3, 0, 1]),
     RatPoly([-2, 0, 0, 0, 0, 0, 1])),
])
def test_routes_gate_on_squarefree_then_positive(route, not_squarefree, not_positive):
    assert is_positive_on_reals(not_squarefree).verdict
    assert is_squarefree(not_positive)
    with pytest.raises(ValueError, match="input must be square-free"):
        route(not_squarefree)
    with pytest.raises(ValueError, match="input must be positive on R"):
        route(not_positive)
    # neither square-free nor positive: square-freeness is reported first
    with pytest.raises(ValueError, match="input must be square-free"):
        route(-not_squarefree)
