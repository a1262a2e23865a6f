"""Differential tests of the integer remainder-sequence kernel.

Root counts, square-freeness, gcds and positivity certificates from the
kernel are checked against the Fraction reference paths (Hankel
rank/signature, Sturm chains, Sylvester discriminants) and against
sympy as an independent oracle, on hypothesis-drawn rational
polynomials of degree 1-12 with repeated factors, negative leads and
odd degrees.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from padic_sos.ratpoly import (PositivityCertificate, RatPoly,  # noqa: E402
                               count_distinct_and_real_roots, discriminant,
                               hankel_matrix, is_positive_on_reals,
                               is_squarefree, poly_gcd, rank_signature,
                               sturm_real_root_count)

X = sympy.Symbol("x")
RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
SETTINGS = settings(max_examples=60, deadline=None)


def _poly(draw, lo: int, hi: int) -> RatPoly:
    d = draw(st.integers(lo, hi))
    coeffs = draw(st.lists(RATIONALS, min_size=d, max_size=d))
    return RatPoly(coeffs + [draw(RATIONALS.filter(bool))])


@st.composite
def polys(draw, max_degree: int = 12) -> RatPoly:
    """Plain, or g^2 * h so that the square-free part is proper."""
    if draw(st.booleans()):
        return _poly(draw, 1, max_degree)
    g = _poly(draw, 1, 3)
    return g * g * _poly(draw, 0, max_degree - 2 * g.degree)


def to_sympy(f: RatPoly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(f.coeffs)], X, domain="QQ")


def from_sympy(p) -> RatPoly:
    return RatPoly([F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def sqf_part(f: RatPoly) -> RatPoly:
    return from_sympy(sympy.sqf_part(to_sympy(f)))


def hankel_certificate(f: RatPoly) -> PositivityCertificate:
    """The positivity certificate built on the Hankel form of the
    square-free part, with sympy's square-free part."""
    lead = 1 if f.leading > 0 else -1
    csign = (f[0] > 0) - (f[0] < 0)
    g = sqf_part(f)
    rank, sig = rank_signature(hankel_matrix(g))
    verdict = f.degree % 2 == 0 and lead > 0 and csign > 0 and sig == 0
    return PositivityCertificate(rank, sig, lead, csign, g.degree == f.degree, verdict)


@SETTINGS
@given(polys())
def test_root_counts_match_hankel_of_squarefree_part(f):
    g = sqf_part(f)
    counts = count_distinct_and_real_roots(f)
    assert counts == rank_signature(hankel_matrix(g))
    assert counts == rank_signature(hankel_matrix(f))
    assert counts[0] == g.degree
    assert counts[1] == sturm_real_root_count(g)


@SETTINGS
@given(polys())
def test_is_squarefree_matches_discriminant(f):
    assert is_squarefree(f) == (discriminant(f) != 0)


@SETTINGS
@given(polys(max_degree=8), polys(max_degree=6), st.booleans())
def test_poly_gcd_matches_sympy(f, g, share):
    if share:
        f, g = f * g, g * g
    expected = from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)).monic())
    assert poly_gcd(f, g) == expected
    assert poly_gcd(g, f) == expected


@SETTINGS
@given(polys())
def test_positivity_matches_hankel_certificate(f):
    assert is_positive_on_reals(f) == hankel_certificate(f)


def test_positivity_on_squares_and_sign_cases():
    # a repeated real root, a repeated complex pair, and the sign gates
    x2p1 = RatPoly([1, 0, 1])
    for f in (x2p1 * x2p1, RatPoly([-1, 1]) ** 2 * x2p1, x2p1 * (-1),
              RatPoly([1, 0, 0, 1]), RatPoly([0, 0, 1]) * x2p1):
        assert is_positive_on_reals(f) == hankel_certificate(f)
