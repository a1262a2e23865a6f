"""Hypothesis properties of the square split and the 2-adic valuation
against their straightforward reference constructions: the split found
by subtracting A*A from f, and the valuation found by dividing out 2
one step at a time."""

import math
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from padic_sos.certifier import complete_square_split  # noqa: E402
from padic_sos.newton_polygon import newton_diagram  # noqa: E402
from padic_sos.padic import ord2  # noqa: E402
from padic_sos.ratpoly import RatPoly  # noqa: E402

RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=16)
NONZERO = st.builds(lambda n, d, k: F(n, d) * F(2) ** k,
                    st.integers(-(2 ** 80), 2 ** 80).filter(bool),
                    st.integers(1, 2 ** 70), st.integers(-70, 70))
SETTINGS = hypothesis.settings(max_examples=120, deadline=None)


def reference_split(f: RatPoly):
    """The split as first written: solve for A from the top half of f,
    then require f - A*A to be a constant."""
    d = f.degree
    if d <= 0 or d % 2 or d > 20 or f.leading <= 0:
        return None
    m = d // 2
    lead = f.leading
    sn, sd = math.isqrt(lead.numerator), math.isqrt(lead.denominator)
    if sn * sn != lead.numerator or sd * sd != lead.denominator:
        return None
    a = [F(0)] * (m + 1)
    a[m] = F(sn, sd)
    for i in range(m - 1, -1, -1):
        acc = sum(a[j] * a[m + i - j] for j in range(i + 1, m) if i < m + i - j <= m)
        a[i] = (f[m + i] - acc) / (2 * a[m])
    A = RatPoly(a)
    c = f - A * A
    return None if c.degree > 0 else (A, c[0])


def reference_ord2(q: F):
    num, den, v = q.numerator, q.denominator, 0
    while num % 2 == 0:
        num, v = num // 2, v + 1
    while den % 2 == 0:
        den, v = den // 2, v - 1
    return v, F(num, den)


@st.composite
def square_plus_constant(draw):
    m = draw(st.integers(1, 6))
    coeffs = draw(st.lists(RATIONALS, min_size=m, max_size=m))
    a_poly = RatPoly(coeffs + [draw(RATIONALS.filter(bool))])
    return a_poly * a_poly + RatPoly([draw(RATIONALS)])


@SETTINGS
@hypothesis.given(square_plus_constant(), st.data())
def test_complete_square_split_matches_reference(f, data):
    split = complete_square_split(f)
    assert split is not None and split == reference_split(f)
    a_poly, c = split
    assert a_poly * a_poly + RatPoly([c]) == f
    # change one coefficient below the half that determines A
    m = f.degree // 2
    k = data.draw(st.integers(0, m - 1))
    delta = data.draw(RATIONALS.filter(bool))
    g = f + RatPoly.monomial(k, delta)
    assert complete_square_split(g) == reference_split(g)
    assert (complete_square_split(g) is None) == (k > 0)


@SETTINGS
@hypothesis.given(NONZERO)
def test_ord2_matches_division_loop(q):
    assert ord2(q) == reference_ord2(q)


@SETTINGS
@hypothesis.given(st.lists(NONZERO | st.just(F(0)), min_size=1, max_size=8).filter(
    lambda cs: cs[-1] != 0))
def test_newton_diagram_points_are_coefficient_valuations(coeffs):
    points = newton_diagram(RatPoly(coeffs)).points
    assert points == tuple((i, reference_ord2(c)[0]) for i, c in enumerate(coeffs) if c)
