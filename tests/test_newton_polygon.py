import random
from fractions import Fraction as F

import pytest

from padic_sos.hensel import ROOT_EXISTS, z2_root_status
from padic_sos.newton_polygon import (eisenstein_irreducible, newton_diagram,
                                      pure_slope)
from padic_sos.ratpoly import RatPoly
from padic_sos.reduction import palindromic_counterexample


def test_newton_diagram_examples():
    d = newton_diagram(RatPoly([2, 0, 1]))
    assert d.vertices == ((0, 1), (2, 0))
    assert len(d.segments) == 1 and d.segments[0].slope == F(-1, 2)

    d = newton_diagram(RatPoly([F(3, 4), 0, 2]))
    assert d.vertices == ((0, -2), (2, 1))

    d = newton_diagram(RatPoly([4, 2, 0, 1]))
    assert d.vertices == ((0, 2), (1, 1), (3, 0))
    assert len(d.segments) == 2
    with pytest.raises(ValueError):
        newton_diagram(RatPoly())


def test_diagram_of_half_degree_square_difference():
    # x^2 + 3 minus (x/2 + 1/3)^2: vertices (0, 2a+1) and (d, -2l)
    f = RatPoly([3, 0, 1])
    h = RatPoly([F(1, 3), F(1, 2)])
    d = newton_diagram(f - h * h)
    assert d.vertices == ((0, 1), (2, -2))


def test_counterexample_shift_diagram():
    f, _ = palindromic_counterexample(0, 65)
    d = newton_diagram(f - F(1, 4096))
    assert d.vertices == ((0, -12), (2, 2))


def test_is_pure():
    assert pure_slope(RatPoly([2, 0, 1])) == F(-1, 2)
    assert pure_slope(RatPoly([1, 1, 1])) == 0  # slope-0 segment
    assert pure_slope(RatPoly([4, 2, 0, 1])) is None
    # no constant term: not pure even though the hull is a segment
    assert pure_slope(RatPoly([0, 1, 1])) is None
    # one point (a constant or a monomial) has no segment
    assert pure_slope(RatPoly([3])) is None
    assert pure_slope(RatPoly([0, 0, 4])) is None
    assert pure_slope(RatPoly()) is None
    # the content shifts every point alike
    assert pure_slope(RatPoly([F(2, 3), 0, F(1, 3)])) == F(-1, 2)


def test_eisenstein_irreducible():
    assert eisenstein_irreducible(RatPoly([2, 0, 1]))
    assert eisenstein_irreducible(RatPoly([F(3, 4), 0, 2]))
    assert not eisenstein_irreducible(RatPoly([1, 1, 1]))  # slope 0
    assert not eisenstein_irreducible(RatPoly([4, 0, 1]))  # rise 2, run 2


def test_factor_degree_divisor():
    assert pure_slope(RatPoly([2, 0, 1])).denominator == 2
    assert pure_slope(RatPoly([1, 1, 1])).denominator == 1
    # endpoints (0, -2), (4, 2): slope 1 with a lattice midpoint on it
    f = RatPoly([F(1, 4), 0, 1, 0, 4])
    d = newton_diagram(f)
    assert d.vertices == ((0, -2), (4, 2))
    assert d.segments[0].lattice_length == 4
    assert pure_slope(f) == 1
    # endpoints (0, -2), (4, 1): rise 3 coprime to 4 -> e = 4
    assert pure_slope(RatPoly([F(1, 4), 0, 0, 0, 2])).denominator == 4
    assert pure_slope(RatPoly([4, 2, 0, 1])) is None


def test_hull_dominates_all_points():
    rng = random.Random(41)
    for _ in range(40):
        coeffs = []
        for _ in range(rng.randint(2, 9)):
            if rng.random() < 0.25:
                coeffs.append(0)
            else:
                coeffs.append(F(rng.choice([1, 2, 3, 4, 6, 8, 12]),
                                rng.choice([1, 1, 2, 4])) * rng.choice([1, -1]))
        f = RatPoly(coeffs)
        if f.is_zero:
            continue
        d = newton_diagram(f)
        for i, v in d.points:
            for seg in d.segments:
                (x1, y1), (x2, y2) = seg.start, seg.end
                if x1 <= i <= x2:
                    # on or above the segment line, exact comparison
                    assert (v - y1) * (x2 - x1) >= (y2 - y1) * (i - x1)


def test_divisor_of_products_of_equal_slope_pures():
    # both factors have slope -1/2; widths stay multiples of e = 2
    f = RatPoly([2, 0, 1])
    g = RatPoly([4, 0, 0, 0, 1])
    prod = f * g
    slope = pure_slope(prod)
    assert slope == F(-1, 2)
    e = slope.denominator
    assert f.degree % e == 0 and g.degree % e == 0


def test_eisenstein_implies_no_certified_z2_root():
    cases = [RatPoly([2, 0, 1]), RatPoly([F(3, 4), 0, 2]),
             RatPoly([2, 2, 0, 0, 1]), RatPoly([8, 0, 0, 0, 0, 0, 2])]
    rng = random.Random(43)
    for _ in range(40):
        coeffs = [rng.choice([1, 2, 3, 4, 6]) * rng.choice([1, -1])
                  for _ in range(rng.randint(3, 6))]
        cases.append(RatPoly(coeffs))
    for f in cases:
        if f.degree >= 2 and eisenstein_irreducible(f):
            assert z2_root_status(f).tag != ROOT_EXISTS


def test_diagram_from_the_model_matches_coefficient_valuations():
    from padic_sos.padic import ord2
    rng = random.Random(7)
    for _ in range(200):
        cs = [F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 8, 12, 96)))
              for _ in range(rng.randint(1, 9))]
        f = RatPoly(cs)
        if f.is_zero:
            continue
        d = newton_diagram(f)
        assert d.points == tuple((i, ord2(c)[0]) for i, c in enumerate(f.coeffs) if c)
