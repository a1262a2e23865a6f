"""The resultant bound of ``ratpoly._proved_positive_minus``, which
proves f - t x^k square-free (k = 0 or deg f) with no gcd when the
reduced denominator of tau = t / c, on f = c*P, has 2-adic valuation
above d ord2(d b), b = P[d] for k = 0 and P[0] for k = d.

Wherever the bound declares a difference square-free, ``is_squarefree``
must agree: on random positive f with rational content and t = u / 2^j,
and on the differences f - f(r) at a rational critical point r built
into f, which have the double root r and must be left to the gcd.  The
lemma under the bound, that Res_x(P - tau, P') has leading coefficient
+-(d lc P)^d in tau, is checked against sympy.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
sympy = pytest.importorskip("sympy")

import padic_sos.ratpoly as ratpoly  # noqa: E402
from padic_sos.ratpoly import RatPoly, _proved_positive_minus, is_squarefree  # noqa: E402

small = st.integers(-9, 9)
# contents with odd and even denominators
contents = st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 48]))


def by_the_bound(f, t, k):
    """f - t x^k as ``_proved_positive_minus`` builds it, and whether its
    bound declared it square-free; the gcd fallback is not run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratpoly, "_proved_positive", lambda g: None)
        g, cert = _proved_positive_minus(f, t, k)
    assert g == f - RatPoly.monomial(k, t)
    return g, cert is not None


@st.composite
def positive_with_content(draw):
    """q (a^2 + b^2 + m), positive and not palindromic."""
    n = draw(st.integers(1, 4))
    a = RatPoly(draw(st.lists(small, min_size=n, max_size=n)) + [draw(st.integers(1, 9))])
    b = RatPoly(draw(st.lists(small, min_size=n, max_size=n)))
    f = (a * a + b * b + RatPoly([draw(st.integers(1, 8))])) * draw(contents)
    hypothesis.assume(f.primitive_part != f.reverse().primitive_part)
    return f


@st.composite
def with_critical_point(draw):
    """q (Q - Q(r) + w) with w > 0, Q' = (2^s x - u) R and R > 0, so that
    r = u / 2^s != 0 is the one real critical point, and r."""
    s, u = draw(st.integers(0, 4)), draw(st.integers(-15, 15).filter(bool))
    n = draw(st.integers(0, 2))
    a = RatPoly(draw(st.lists(small, min_size=n, max_size=n)) + [draw(st.integers(1, 9))])
    derivative = RatPoly([-u, 2 ** s]) * (a * a + RatPoly([draw(st.integers(1, 8))]))
    q = RatPoly([0] + [F(c, i + 1) for i, c in enumerate(derivative.coeffs)])
    r = F(u, 2 ** s)
    w = F(draw(st.integers(1, 50)), 2 ** draw(st.integers(0, 6)))
    return (q - RatPoly([q(r) - w])) * draw(contents), r


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(positive_with_content(), small.filter(bool), st.integers(0, 40), st.booleans())
def test_a_declared_difference_is_square_free(f, u, j, top):
    g, declared = by_the_bound(f, F(u, 2 ** j), f.degree if top else 0)
    hypothesis.event(f"declared: {declared}")
    if declared:
        assert is_squarefree(g), (f, u, j, top)


# tau = f(r) / c at the bound: a denominator of valuation d ord2(d lc P)
# (3/4 for x^2 + x + 1, also as 8x^2 + 8x + 8 with t = 6, and 159/256 for
# 3x^4 - x^3 + 6x^2 - 3x + 1), and one below it with ord2(P[0]) <
# ord2(lc P) (7/8 for 2x^2 + x + 1)
EDGES = ((RatPoly([1, 1, 1]), F(-1, 2)), (RatPoly([8, 8, 8]), F(-1, 2)),
         (RatPoly([1, -3, 6, -1, 3]), F(1, 4)), (RatPoly([1, 1, 2]), F(-1, 4)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(with_critical_point(), st.booleans())
@hypothesis.example(EDGES[0], False)
@hypothesis.example(EDGES[0], True)
@hypothesis.example(EDGES[1], False)
@hypothesis.example(EDGES[1], True)
@hypothesis.example(EDGES[2], False)
@hypothesis.example(EDGES[2], True)
@hypothesis.example(EDGES[3], False)
@hypothesis.example(EDGES[3], True)
def test_a_double_root_at_a_critical_point_is_left_to_the_gcd(fr, top):
    f, r = fr
    # f - f(r) has the double root r, and f* - f(r) x^d, f* = x^d f(1/x),
    # has 1/r (branch b on the input f*)
    g, declared = by_the_bound(f.reverse() if top else f, f(r), f.degree if top else 0)
    assert not is_squarefree(g) and not declared, (f, r, top)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.lists(st.integers(-6, 6), min_size=2, max_size=6).filter(lambda p: p[-1]))
def test_the_resultant_has_the_bounds_leading_coefficient(p):
    x, tau = sympy.symbols("x tau")
    poly = sum(c * x ** i for i, c in enumerate(p))
    resultant = sympy.Poly(sympy.resultant(poly - tau, sympy.diff(poly, x), x), tau)
    d = len(p) - 1
    assert resultant.degree() == d - 1
    assert abs(resultant.LC()) == abs(d * p[-1]) ** d
