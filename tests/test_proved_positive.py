"""The positivity certificate of a residual the reduce path has proved
positive (``ratpoly._proved_positive``).

ALG6 / ALGN, GR4, PICKY (and its obstruction) and both ALG9 branches
subtract an h^2 bounded by a certified epsilon, so each residual is
strictly positive by construction, and only square-freeness is left to
decide.  An ALG9 candidate f - 4^-l x^k is built on f = c*P's integer
model and proved square-free by the resultant bound of
``ratpoly._proved_positive_minus`` once the 2-adic valuation of the
reduced denominator of 4^-l / c passes that of (d b)^d (b = P[d] on
branch a, P[0] on branch b).  The other residuals, and the candidates
the bound leaves, are proved square-free by a gcd of f and f' modulo a
prime, with the full remainder sequence as the fallback.  Every certificate either builder returns must be the one
``is_positive_on_reals`` gives, and the gcd must run for exactly the
ALG9 candidates the bound leaves.  The bound's own soundness is tested
in ``test_squarefree_bound``.
"""

import contextlib
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import padic_sos.ratpoly as ratpoly  # noqa: E402
import padic_sos.reduction as reduction  # noqa: E402
from padic_sos.ratpoly import (SQUAREFREE_PRIME, RatPoly, _proved_positive,  # noqa: E402
                               _proved_positive_minus, is_positive_on_reals, is_squarefree,
                               primitive_integer_coeffs)
from padic_sos.reduction import (palindromic_counterexample, reduce_auto,  # noqa: E402
                                 reduce_cyclotomic_power, reduce_iterative,
                                 reduce_multiple_of_four, reduce_odd_valuation,
                                 reduce_twice_odd_degree)

ROUTES = (reduce_odd_valuation, reduce_multiple_of_four, reduce_cyclotomic_power,
          reduce_twice_odd_degree, lambda f: reduce_iterative(f, cap=3))


@contextlib.contextmanager
def checked_builder():
    """Check the builders against the full test on every residual the
    routes hand them, whichever proof built its certificate, and collect
    those residuals and the ALG9 candidates that fell back to the gcd."""
    built, fallbacks = [], []

    def checked(g):
        cert = _proved_positive(g)
        assert cert == is_positive_on_reals(g), g
        built.append(g)
        return cert

    def checked_minus(f, t, k):
        g, cert = _proved_positive_minus(f, t, k)
        assert cert == is_positive_on_reals(g), g
        built.append(g)
        return g, cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_proved_positive", checked)
        mp.setattr(reduction, "_proved_positive_minus", checked_minus)
        mp.setattr(ratpoly, "_proved_positive",
                   lambda g: fallbacks.append(g) or _proved_positive(g))
        yield built, fallbacks


def left_by_bound(f, l, k):
    """Whether the resultant bound leaves f - 4^-l x^k to the gcd, on an
    f whose content c has an odd numerator and denominator: the reduced
    denominator of tau = 4^-l / c, a power of 2, divides (d b)^d, b = P[d]
    for k = 0 and P[0] for k = d."""
    p, d = f.primitive_part, f.degree
    return (d * p[d - k]) ** d % (F(1, 4 ** l) / f.content).denominator == 0


@st.composite
def positive_squarefree(draw):
    m = draw(st.integers(1, 4))
    small = st.integers(-9, 9)
    a = RatPoly(draw(st.lists(small, min_size=m, max_size=m)) + [draw(st.integers(1, 9))])
    b = RatPoly(draw(st.lists(small, min_size=m, max_size=m)))
    f = a * a + b * b + RatPoly([draw(st.integers(1, 8))])
    # a factor 2 flips the parity of the leading valuation (ALG6 / ALGN);
    # 2/3 leaves GR4 and PICKY, which need integer coefficients
    f = f * draw(st.sampled_from([1, 2, 3, F(2, 3)]))
    hypothesis.assume(is_squarefree(f))
    return f


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(positive_squarefree())
def test_built_certificate_is_the_full_test_on_random_residuals(f):
    with checked_builder():
        for route in ROUTES:
            try:
                route(f)
            except (ValueError, ArithmeticError):  # the route does not apply
                pass


@pytest.mark.parametrize("coeffs, route", [
    ([5, 1, 0, 0, 2], reduce_odd_valuation),  # ALG6
    ([3, 1, 0, 0, 4], reduce_multiple_of_four),  # ALGN
    ([1, 0, 1, 0, 1], reduce_cyclotomic_power),  # GR4
    ([3, 1, 0, 0, 0, 0, 1], reduce_twice_odd_degree),  # PICKY, k = 1
    ([3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1], reduce_twice_odd_degree),  # PICKY, k = 2
    ([1, 0, 1], reduce_twice_odd_degree),  # the PICKY obstruction
])
def test_each_route_builds_its_residual_certificate(coeffs, route):
    with checked_builder() as (built, _):
        res = route(RatPoly(coeffs))
    assert built == [res.residual]
    assert res.certificate.positivity == is_positive_on_reals(res.residual)


def test_alg9_branch_candidates_build_their_certificates():
    # l runs from 6 and tau = N^2 / 4^l, so the bound leaves l <= 3 (d = 2,
    # none), l <= 9 (d = 6) and l <= 15 (d = 10), on both branches
    for k, n, cap, gcds in ((0, 65, 3, 0), (1, 65, 6, 8), (2, 67, 12, 20)):
        f, _ = palindromic_counterexample(k, n)
        with checked_builder() as (built, fallbacks):
            res = reduce_iterative(f, cap=cap)
        candidates = [rec.candidate for it in res.iterates
                      for rec in (it.branch_a, it.branch_b)]
        assert built == candidates and len(built) == 2 * cap
        left = [g for it in res.iterates for g, j in ((it.branch_a.candidate, 0),
                                                     (it.branch_b.candidate, f.degree))
                if left_by_bound(f, it.l, j)]
        assert res.l_init == 6 and fallbacks == left and len(left) == gcds


def test_square_mod_p_falls_back_to_the_full_test(monkeypatch):
    p = SQUAREFREE_PRIME
    x2p1 = RatPoly([1, 0, 1])
    # (x - p)^2 + 1 is x^2 + 1 mod p, so f is a square there though it is
    # square-free and positive over Q
    f = x2p1 * RatPoly([p * p + 1, -2 * p, 1])
    assert is_squarefree(f) and is_positive_on_reals(f).verdict
    full = []
    original = ratpoly.is_positive_on_reals
    monkeypatch.setattr(ratpoly, "is_positive_on_reals",
                        lambda g: full.append(g) or original(g))
    assert _proved_positive(f) == original(f)
    assert full == [f]
    # p dividing the leading coefficient falls back too
    g = RatPoly([1, 0, p])
    assert _proved_positive(g) == original(g) and full == [f, g]
    # a square-free f modulo p is decided without it
    assert _proved_positive(x2p1) == original(x2p1) and full == [f, g]


def test_algn_residual_runs_no_remainder_sequence(monkeypatch):
    f = RatPoly([3, 1, 0, 0, 4])
    firsts = []
    original = ratpoly._remainder_sequence

    def recording(a, b):
        firsts.append(list(a))
        return original(a, b)

    monkeypatch.setattr(ratpoly, "_remainder_sequence", recording)
    res = reduce_auto(f)
    assert res.method == "ALGN"
    # h^2 is below epsilon, so the residual is not a candidate the
    # epsilon search tested
    assert res.h * res.h != RatPoly([res.parameters["epsilon"]])
    assert primitive_integer_coeffs(f) in firsts
    assert primitive_integer_coeffs(res.residual) not in firsts
