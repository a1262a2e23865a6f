"""The positivity certificate of a residual the reduce path has proved
positive (``ratpoly._proved_positive``).

ALG6 / ALGN, GR4, PICKY (and its obstruction) and both ALG9 branches
subtract an h^2 bounded by a certified epsilon, so each residual is
strictly positive by construction, and only square-freeness is left to
decide: a gcd of f and f' modulo a prime, with the full remainder
sequence as the fallback.  Every certificate the builder returns must be
the one ``is_positive_on_reals`` gives.
"""

import contextlib
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import padic_sos.ratpoly as ratpoly  # noqa: E402
import padic_sos.reduction as reduction  # noqa: E402
from padic_sos.ratpoly import (SQUAREFREE_PRIME, RatPoly, _proved_positive,  # noqa: E402
                               is_positive_on_reals, is_squarefree,
                               primitive_integer_coeffs)
from padic_sos.reduction import (palindromic_counterexample, reduce_auto,  # noqa: E402
                                 reduce_cyclotomic_power, reduce_iterative,
                                 reduce_multiple_of_four, reduce_odd_valuation,
                                 reduce_twice_odd_degree)

ROUTES = (reduce_odd_valuation, reduce_multiple_of_four, reduce_cyclotomic_power,
          reduce_twice_odd_degree, lambda f: reduce_iterative(f, cap=3))


@contextlib.contextmanager
def checked_builder():
    """Check the builder against the full test on every residual the
    routes hand it, and collect those residuals."""
    built = []

    def checked(g):
        cert = _proved_positive(g)
        assert cert == is_positive_on_reals(g), g
        built.append(g)
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_proved_positive", checked)
        yield built


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
    with checked_builder() as built:
        res = route(RatPoly(coeffs))
    assert built == [res.residual]
    assert res.certificate.positivity == is_positive_on_reals(res.residual)


def test_alg9_branch_candidates_build_their_certificates():
    f, _ = palindromic_counterexample(0, 65)
    with checked_builder() as built:
        res = reduce_iterative(f, cap=3)
    assert built == [rec.candidate for it in res.iterates
                     for rec in (it.branch_a, it.branch_b)]
    assert len(built) == 2 * 3


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
