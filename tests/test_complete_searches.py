"""The complete searches that replaced the budgeted ones.

* The epsilon and perturbation searches find the least exponent k with
  a monotone test true; the halving searches they replaced (at most 128
  tries, kept in ``oracles``) found the same k whenever they found one.
* The NOS walk tries row N = 3 in the old grid's order, then the one row
  N0 that provably holds a hit; ``oracles.nos_grid`` is the old 49 x 64
  grid.
* Inputs the budgets left undecided now conclude.
"""

from fractions import Fraction as F

from padic_sos import ratpoly

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import oracles  # noqa: E402
from padic_sos.certifier import (NOT_SOS4, SOS4, certify_sos4,  # noqa: E402
                                 verify_certificate)
from padic_sos.padic import ord2  # noqa: E402
from padic_sos.ratpoly import (RatPoly, epsilon_below_infimum,  # noqa: E402
                               is_positive_on_reals, perturbation_bound)
from padic_sos.reduction import (_constant_three_mod_four,  # noqa: E402
                                 palindromic_counterexample, reduce_auto,
                                 reduce_iterative)

SETTINGS = hypothesis.settings(max_examples=60, deadline=None)
SMALL = st.integers(-9, 9)


def near_double_root(k: int) -> RatPoly:
    """(x^2 - 2)^2 + 3 * 2^-k, whose minimum is 3 * 2^-k."""
    return RatPoly([F(4) + F(3, 2 ** k), 0, -4, 0, 1])


@st.composite
def positive(draw):
    """A^2 + B^2 + c, with c > 0 down to about 2^-60, times a positive
    rational: strictly positive, and square-free almost always."""
    m = draw(st.integers(1, 4))
    a = RatPoly(draw(st.lists(SMALL, min_size=m, max_size=m)) + [draw(st.integers(1, 9))])
    b = RatPoly(draw(st.lists(SMALL, min_size=m, max_size=m)))
    c = F(draw(st.integers(1, 9)), 2 ** draw(st.integers(0, 60)))
    return (a * a + b * b + RatPoly([c])) * draw(st.sampled_from([1, 2, F(1, 3), F(5, 7)]))


@pytest.mark.parametrize("f, g, bound, tests", [
    # an alg9 member, f(0) = 4/N^2: the search starts at 2^-e <= f(0)
    (palindromic_counterexample(1, 65)[0], None, F(1, 2048), 2),
    # minimum 6 * 2^-140: steps 1, 2, 4, ..., then a binary search
    (near_double_root(140) * 2, None, F(1, 2 ** 138), 17),
    # a GR4 base, -(x^2+x+1)^4, on a reduce-corpus input
    (RatPoly([23, -24, -23, 40, 12, -22, -4, 4, 1]),
     -(RatPoly([1, 1, 1]) ** 4), F(1, 256), 9),
    # a PICKY base, -(x^2+x+1)^6 x^2, on a reduce-corpus input
    (RatPoly([18, -6, -11, 22, 10, -16, 1, 18, 2, -4, 6, 4, 0, 0, 1]),
     -(RatPoly([1, 1, 1]) ** 6 * RatPoly.monomial(2)), F(1, 32), 7),
])
def test_searches_run_the_recorded_positivity_tests(monkeypatch, f, g, bound, tests):
    """The number of remainder sequences each search runs, its gate
    included, as recorded before the two searches became one."""
    calls = []
    original = ratpoly._root_counts
    monkeypatch.setattr(ratpoly, "_root_counts", lambda p: calls.append(p) or original(p))
    found = epsilon_below_infimum(f) if g is None else perturbation_bound(f, g)
    assert (found, len(calls)) == (bound, tests)


@SETTINGS
@hypothesis.given(positive())
def test_epsilon_matches_halving(f):
    eps = epsilon_below_infimum(f)
    assert eps == oracles.halving_epsilon(f)


@pytest.mark.parametrize("k", [10, 50, 100, 126])
def test_epsilon_matches_halving_near_a_double_root(k):
    f = near_double_root(k)
    assert epsilon_below_infimum(f) == oracles.halving_epsilon(f)


def test_epsilon_past_the_old_budget():
    # the halving search gave up after 2^-127; the least exponent is 139
    f = near_double_root(140)
    assert oracles.halving_epsilon(f) is None
    eps = epsilon_below_infimum(f)
    assert eps == F(1, 2 ** 139)
    assert is_positive_on_reals(f - eps).verdict
    assert not is_positive_on_reals(f - 2 * eps).verdict


@SETTINGS
@hypothesis.given(positive(), st.data())
def test_perturbation_matches_halving(f, data):
    hypothesis.assume(is_positive_on_reals(f).on_squarefree_part)
    g = RatPoly(data.draw(st.lists(SMALL, min_size=1, max_size=f.degree + 1)))
    eps0 = perturbation_bound(f, g)
    assert eps0 == oracles.halving_perturbation(f, g)


def test_perturbation_skips_the_zero_candidate():
    f = RatPoly([1, 0, 1])
    # f + 1 * (-f) is zero, not positive; f + (-f)/2 = f/2 is
    assert perturbation_bound(f, -f) == F(1, 2) == oracles.halving_perturbation(f, -f)


@st.composite
def nos_shaped(draw):
    """An integral f > 0 of even degree with f(0) = 4^a (4k+3): either
    A^2 + B^2 with its constant term raised to that form, or a quadratic
    with a small minimum times a power of x^2 + x + 1."""
    a = draw(st.integers(0, 2))
    target = 4 ** a * (4 * draw(st.integers(0, 5)) + 3)
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        p = RatPoly(draw(st.lists(SMALL, min_size=m, max_size=m)) + [draw(st.integers(1, 5))])
        q = RatPoly(draw(st.lists(SMALL, min_size=m, max_size=m)))
        f = p * p + q * q
        hypothesis.assume(f[0] < target)
        return f + RatPoly([target - f[0]])
    b = draw(st.integers(1, 3000))
    # 4 * lead * target > b^2: positive, with minimum near 0 for a small excess
    lead = b * b // (4 * target) + draw(st.integers(1, 20))
    return RatPoly([target, b, lead]) * RatPoly([1, 1, 1]) ** draw(st.integers(0, 2))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(nos_shaped())
def test_nos_matches_the_grid_in_row_three(f):
    res = _constant_three_mod_four(f)
    assert res.method == "NOS" and f - res.h * res.h == res.residual
    assert verify_certificate(res.residual, res.certificate)
    grid = oracles.nos_grid(f)
    a, d = ord2(f[0])[0] // 2, f.degree
    row_three = (d - 1) * (2 * a + 1) // 2 + 1 + d // 2
    if grid is not None and grid[0]["N"] == 3 and grid[0]["l"] <= row_three:
        assert (res.parameters, res.trace) == grid


def test_nos_hits_where_the_grid_ran_out():
    f = RatPoly([3, 2001, 333667])
    assert oracles.nos_grid(f) is None
    res = _constant_three_mod_four(f)
    assert (res.parameters["N"], res.parameters["l"]) == (1449, 1)
    assert verify_certificate(res.residual, res.certificate)


def test_nos_takes_row_n0_where_the_grid_hit_a_later_row():
    # row 3 misses; the grid went on to N = 7, the walk goes to the row
    # N0 = 17 its bound proves (eps = 2^-6: 17^2 / 64 >= 4 > 15^2 / 64)
    f = RatPoly([19, 1263, 21019])
    assert oracles.nos_grid(f)[0]["N"] == 7
    res = _constant_three_mod_four(f)
    assert (res.parameters["N"], res.parameters["l"]) == (17, 1)
    assert verify_certificate(res.residual, res.certificate)


def test_alg6_concludes_past_the_old_budget():
    # 2((x^2 - 2)^2 + 3 * 2^-140): odd leading valuation, epsilon 2^-139;
    # ALGN, which hands odd kd to ALG6, is not tried again
    res = reduce_auto(near_double_root(140) * 2)
    assert res.method == "ALG6"
    routes = [step[0] for step in res.trace]
    assert routes.count("alg6") == 1 and "algn" not in routes


def test_algn_concludes_past_the_old_budget():
    # the halving search gave up here, and NOS concluded instead
    res = reduce_auto(near_double_root(140))
    assert res.method == "ALGN"
    assert verify_certificate(res.certified_poly, res.certificate)


def test_uncapped_split_decides_the_degree_22_family_member():
    # degree 22, past the split's old degree cap of 20
    f = palindromic_counterexample(5, 65)[0]
    cert = certify_sos4(f)
    assert (cert.verdict, cert.rule) == (NOT_SOS4, "odd_split_witness")
    assert verify_certificate(f, cert)
    outcome = reduce_iterative(f, cap=2)
    for it in outcome.iterates:
        assert (it.branch_a.verdict, it.branch_a.certificate.rule) == (
            NOT_SOS4, "odd_split_witness")
        assert it.branch_b.verdict != SOS4
