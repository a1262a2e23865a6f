"""The positivity certificate of a residual the reduce path has proved
positive (``ratpoly._proved_positive``).

ALG6 / ALGN, GR4, PICKY (and its obstruction) and both ALG9 branches
subtract an h^2 bounded by a certified epsilon, so each residual is
strictly positive by construction, and only square-freeness is left to
decide.  An ALG6 / ALGN residual f - 4^-l and an ALG9 candidate
f - 4^-l x^k are built on f = c*P's integer model and proved
square-free by the resultant bound of ``ratpoly._proved_positive_minus``
once the 2-adic valuation of the reduced denominator of 4^-l / c passes
that of (d b)^d (b = P[d] for f - 4^-l, P[0] for f - 4^-l x^d).  The
other residuals, and those the bound leaves, are proved square-free by
one integer gcd of P and P' (``zpoly.coprime``), with the full
remainder sequence as the fallback.  Every residual built on the model
must be f - t x^k, every certificate either builder returns must be the
one ``is_positive_on_reals`` gives, and the gcd must run for exactly
the ALG9 candidates the bound leaves.  The bound's own soundness is
tested in ``test_squarefree_bound``.
"""

import contextlib
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import padic_sos.ratpoly as ratpoly  # noqa: E402
import padic_sos.reduction as reduction  # noqa: E402
from padic_sos.ratpoly import (RatPoly, _proved_positive,  # noqa: E402
                               _proved_positive_minus, is_positive_on_reals, is_squarefree,
                               primitive_integer_coeffs)
from padic_sos.reduction import (palindromic_counterexample, reduce_auto,  # noqa: E402
                                 reduce_cyclotomic_power, reduce_iterative,
                                 reduce_multiple_of_four, reduce_odd_valuation,
                                 reduce_twice_odd_degree)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

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
        assert g == f - RatPoly.monomial(k, t), (f, t, k)
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


@contextlib.contextmanager
def gcd_route_residuals():
    """``checked_builder``, plus the (t, k) of every f - t x^k built on the
    model."""
    with checked_builder() as (built, fallbacks), pytest.MonkeyPatch.context() as mp:
        minus = []
        checked = reduction._proved_positive_minus
        mp.setattr(reduction, "_proved_positive_minus",
                   lambda f, t, k: minus.append((t, k)) or checked(f, t, k))
        yield built, fallbacks, minus


def test_alg6_algn_residuals_build_their_certificates():
    # the reduce corpus: every residual the routes build is checked, and
    # each ALG6 / ALGN run builds its one residual f - 4^-l on the model
    routes = Counter()
    for item in corpus.corpus("reduce-corpus", 31, 4):
        with gcd_route_residuals() as (built, _, minus):
            res = reduce_auto(item.poly)
        method = getattr(res, "method", None)  # an InconclusiveReport has none
        routes[method] += 1
        if method in ("ALG6", "ALGN"):
            assert minus == [(F(1, 4 ** res.parameters["l"]), 0)] and len(built) == 1
            assert res.certificate.positivity == is_positive_on_reals(built[0])
    assert routes["ALG6"] and routes["ALGN"]
    # c = 2^9, 2^10 on P = x^4 + x + 1: ord2(c) > d ord2(d lc P) = 8, so the
    # resultant bound proves f - 4^-l square-free with no gcd
    p = RatPoly([1, 1, 0, 0, 1])
    for f, route, method in ((p * 2 ** 9, reduce_odd_valuation, "ALG6"),
                             (p * 2 ** 10, reduce_multiple_of_four, "ALGN")):
        with gcd_route_residuals() as (built, fallbacks, minus):
            res = route(f)
        assert res.method == method and built == [res.residual] and fallbacks == []
        assert minus == [(F(1, 4 ** res.parameters["l"]), 0)]


def test_unproved_square_freeness_falls_back_to_the_full_test(monkeypatch):
    # x^2 + x + c is square-free and positive, but for c = 786433 the
    # values at xi = 2^19 share the factor 2 xi + 1, so ``zpoly.coprime``
    # is silent (``test_zpoly``)
    f = RatPoly([786433, 1, 1])
    assert is_squarefree(f) and is_positive_on_reals(f).verdict
    full = []
    original = ratpoly.is_positive_on_reals
    monkeypatch.setattr(ratpoly, "is_positive_on_reals",
                        lambda g: full.append(g) or original(g))
    assert _proved_positive(f) == original(f)
    assert full == [f]
    # a rational multiple keeps the primitive part, and so the fallback
    g = f * F(3, 8)
    assert _proved_positive(g) == original(g) and full == [f, g]
    # a square-free f the proof reaches is decided without it
    x2p1 = RatPoly([1, 0, 1])
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
    # the one remainder sequence is the search's first probe, f - 2^-e
    # with 2^-e <= f(0) = 3 < 2^(1-e), which gates f in place of a test on
    # f itself and holds, so it is also the search's answer
    assert res.parameters["epsilon"] == 1
    assert firsts == [primitive_integer_coeffs(f - RatPoly([1]))]
