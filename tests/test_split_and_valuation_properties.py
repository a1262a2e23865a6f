"""Hypothesis properties of the square split and the 2-adic valuation
against their straightforward reference constructions: the split found
by subtracting A*A from f, the valuation found by dividing out 2 one
step at a time, the ALG6 / ALGN slope bound taken on Fractions, and
the purity, Eisenstein and divisor facts read off the full hull."""

import math
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from padic_sos.certifier import (complete_square_split, rule_eisenstein,  # noqa: E402
                                 rule_pure_even_divisor)
from padic_sos.newton_polygon import (eisenstein_irreducible,  # noqa: E402
                                      newton_diagram, pure_slope)
from padic_sos.padic import ord2  # noqa: E402
from padic_sos.ratpoly import RatPoly  # noqa: E402
from padic_sos.reduction import _valuation_bounds  # noqa: E402

import oracles  # noqa: E402

RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=16)
NONZERO = st.builds(lambda n, d, k: F(n, d) * F(2) ** k,
                    st.integers(-(2 ** 80), 2 ** 80).filter(bool),
                    st.integers(1, 2 ** 70), st.integers(-70, 70))
# valuations in a narrow band, so that pure diagrams are common
NEAR_UNIT = st.builds(lambda u, k: F(u) * F(2) ** k,
                      st.sampled_from([1, -1, 3, -3, 5, F(1, 3), F(-7, 5)]),
                      st.integers(-3, 3))
DIAGRAM_COEFFS = st.lists(NEAR_UNIT | NONZERO | st.just(F(0)), min_size=1,
                          max_size=11).filter(lambda cs: cs[-1] != 0)
SETTINGS = hypothesis.settings(max_examples=120, deadline=None)


def reference_split(f: RatPoly):
    """The split as first written: solve for A from the top half of f,
    then require f - A*A to be a constant."""
    d = f.degree
    if d <= 0 or d % 2 or f.leading <= 0:
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
    m = draw(st.integers(1, 16))
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


@SETTINGS
@hypothesis.given(DIAGRAM_COEFFS)
@hypothesis.example([F(2), F(0), F(1)])
@hypothesis.example([F(1, 4), F(0), F(1), F(0), F(4)])
@hypothesis.example([F(0), F(1), F(1)])
def test_pure_slope_is_the_slope_of_a_one_segment_hull(coeffs):
    f = RatPoly(coeffs)
    segments = newton_diagram(f).segments
    one = len(segments) == 1 and segments[0].start[0] == 0
    assert pure_slope(f) == (segments[0].slope if one else None)


@SETTINGS
@hypothesis.given(DIAGRAM_COEFFS)
@hypothesis.example([F(2), F(0), F(1)])
@hypothesis.example([F(12), F(0), F(0), F(0), F(1)])
def test_diagram_rules_match_their_hull_forms(coeffs):
    f = RatPoly(coeffs)
    assert eisenstein_irreducible(f) == oracles.hull_eisenstein_irreducible(f)
    assert rule_eisenstein(f) == oracles.hull_rule_eisenstein(f)
    assert rule_pure_even_divisor(f) == oracles.hull_rule_pure_even_divisor(f)


@SETTINGS
@hypothesis.given(NONZERO, st.lists(NONZERO | st.just(F(0)), max_size=9), NONZERO,
                  st.booleans(), st.integers(0, 40))
def test_integer_slope_bound_matches_fraction_slopes(c0, middle, lead, odd_kd, e):
    # the leading valuation kd of either parity: ALG6 runs on odd kd, ALGN on even
    if ord2(lead)[0] % 2 != odd_kd:
        lead *= 2
    f = RatPoly([c0, *middle, lead])
    l1, l2, l3, params = _valuation_bounds(f, e)
    assert l3 == params["l3"] == oracles.slope_bound(f)
    assert params["kd"] % 2 == odd_kd
    # kd, k0 and l2 read off the model f = c*P are the Fraction forms
    assert params["kd"] == ord2(f.leading)[0] and params["k0"] == ord2(f[0])[0]
    assert l2 == params["l2"] == math.ceil(F(-params["k0"], 2)) + 1
    assert l1 == params["l1"] == math.ceil(F(e, 2))
