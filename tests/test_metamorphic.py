"""Metamorphic soundness properties of ``certify_sos4`` and ``reduce_auto``.

By Pourchet's criterion, whether f is a sum of four squares depends only
on the odd-degree Q_2-irreducible factors of odd multiplicity of f.  So a
conclusive verdict cannot change under
* x -> a*x + b, for rational a != 0 and b;
* f -> c*f, for rational c > 0;
* the reversal x^d * f(1/x) (f(0) != 0, which holds for f > 0);
* f -> g^2 * f;
and a product of two SOS4 polynomials is SOS4 (Euler's four-square
identity holds in any commutative ring).  Two conclusive verdicts on an
orbit must agree, and every conclusive certificate must re-verify.
INCONCLUSIVE is always allowed.

A ``ReductionResult`` of ``reduce_auto`` writes f = h^2 + r with r a
certified sum of four squares, so r(a*x + b) is one too, and
``reduce_auto`` must also run on f(a*x + b) and return a reduction that
holds there.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from padic_sos.certifier import (INCONCLUSIVE, NOT_SOS4, SOS4,  # noqa: E402
                                 certify_sos4, verify_certificate)
from padic_sos.ratpoly import RatPoly  # noqa: E402
from padic_sos.reduction import ReductionResult, reduce_auto  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=40, deadline=None)
SMALL = st.integers(-5, 5)
POSITIVE_RATIONAL = st.builds(F, st.integers(1, 12), st.integers(1, 12))
NONZERO_RATIONAL = st.builds(F, SMALL.filter(bool), st.integers(1, 4))


@st.composite
def positive(draw, max_half=3):
    """A^2 + B^2 + c, or a positive quadratic times one: strictly positive,
    of degree at most 2 * max_half + 2."""
    m = draw(st.integers(1, max_half))
    a = RatPoly(draw(st.lists(SMALL, min_size=m, max_size=m)) + [draw(st.integers(1, 5))])
    b = RatPoly(draw(st.lists(SMALL, min_size=m, max_size=m)))
    f = a * a + b * b + RatPoly([draw(POSITIVE_RATIONAL)])
    if draw(st.booleans()):
        # x^2 + p*x + q with p^2 < 4q
        p = draw(SMALL)
        f = f * RatPoly([p * p // 4 + draw(st.integers(1, 7)), p, 1])
    return f


def affine(f: RatPoly, a: F, b: F) -> RatPoly:
    """f(a*x + b)."""
    g = f.shift(b)
    return RatPoly([c * a ** i for i, c in enumerate(g.coeffs)])


def conclusive(f: RatPoly) -> str:
    """f's verdict, after checking that a conclusive certificate re-verifies."""
    cert = certify_sos4(f)
    if cert.verdict != INCONCLUSIVE:
        assert verify_certificate(f, cert), f
    return cert.verdict


def assert_same(f: RatPoly, g: RatPoly) -> None:
    verdicts = {conclusive(f), conclusive(g)} - {INCONCLUSIVE}
    assert len(verdicts) <= 1, (f, g)


@SETTINGS
@hypothesis.given(positive(), NONZERO_RATIONAL, st.builds(F, SMALL, st.integers(1, 4)))
def test_verdict_invariant_under_affine_change_of_variables(f, a, b):
    assert_same(f, affine(f, a, b))


@SETTINGS
@hypothesis.given(positive(), POSITIVE_RATIONAL)
def test_verdict_invariant_under_positive_scaling(f, c):
    assert_same(f, f * c)


@SETTINGS
@hypothesis.given(positive())
def test_verdict_invariant_under_reversal(f):
    assert f[0] != 0 and f.reverse().reverse() == f
    assert_same(f, f.reverse())


@SETTINGS
@hypothesis.given(positive(2), positive(1))
def test_verdict_invariant_under_square_factor(f, g):
    # g has no real root, so g^2 * f stays strictly positive
    assert_same(f, g * g * f)


@SETTINGS
@hypothesis.given(positive(2), positive(2))
def test_product_of_sos4_is_never_refuted(f1, f2):
    if conclusive(f1) == SOS4 and conclusive(f2) == SOS4:
        assert conclusive(f1 * f2) != NOT_SOS4, (f1, f2)


@SETTINGS
@hypothesis.given(positive(), NONZERO_RATIONAL, st.builds(F, SMALL, st.integers(1, 4)))
def test_reduce_auto_under_affine_change_of_variables(f, a, b):
    """The residual r of f's reduction stays a sum of four squares under
    x -> a*x + b, and reduce_auto(f(a*x + b)) returns without raising; a
    ReductionResult it returns has f(a*x + b) - h^2 = residual and a
    certificate that verifies."""
    res = reduce_auto(f)
    if isinstance(res, ReductionResult):
        assert conclusive(affine(res.residual, a, b)) != NOT_SOS4, (f, a, b)
    g = affine(f, a, b)
    moved = reduce_auto(g)
    if isinstance(moved, ReductionResult):
        assert g - moved.h * moved.h == moved.residual
        assert moved.certificate.verdict == SOS4
        assert verify_certificate(moved.certified_poly, moved.certificate)
