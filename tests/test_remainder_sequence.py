"""Differential tests of the integer remainder-sequence kernel.

The Sturm-signed subresultant sequence is checked term by term against
the primitive remainder sequence of ``oracles``: every term must be a
positive rational multiple of the oracle's, which an inexact division
breaks.  Root counts, square-freeness, gcds, Sturm counts, resultants,
discriminants, positivity certificates and the square-free
decomposition read off it are checked against the oracles (the
primitive sequence, the Fraction Sturm chain, the Fraction Sylvester
determinant, the Hankel rank/signature) and against sympy as an
independent oracle.  The inputs are hypothesis-drawn rational
polynomials: dense ones of degree 1-12 with repeated factors, negative
leads and odd degrees, and the sparse shapes the certifier and the
reduction routes meet, where the sequence leaves its normal steps:
k-nomials of degree up to 32, ALG9 candidates f - 2^(-2l)*x^j,
(2a*x^m + b)^2 + 8c and g^2*h.
"""

import math
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from padic_sos.ratpoly import (PositivityCertificate, RatPoly,  # noqa: E402
                               _remainder_sequence,
                               count_distinct_and_real_roots, discriminant,
                               hankel_matrix, is_positive_on_reals,
                               is_squarefree, poly_gcd,
                               primitive_integer_coeffs, rank_signature,
                               squarefree_decomposition,
                               sturm_real_root_count, sylvester_resultant)
from padic_sos.reduction import palindromic_counterexample  # noqa: E402

X = sympy.Symbol("x")
RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
NONZERO = RATIONALS.filter(bool)
SETTINGS = settings(max_examples=60, deadline=None)


def _poly(draw, lo: int, hi: int) -> RatPoly:
    d = draw(st.integers(lo, hi))
    coeffs = draw(st.lists(RATIONALS, min_size=d, max_size=d))
    return RatPoly(coeffs + [draw(NONZERO)])


@st.composite
def polys(draw, max_degree: int = 12) -> RatPoly:
    """Plain, or g^2 * h so that the square-free part is proper."""
    if draw(st.booleans()):
        return _poly(draw, 1, max_degree)
    g = _poly(draw, 1, 3)
    return g * g * _poly(draw, 0, max_degree - 2 * g.degree)


@st.composite
def factors(draw) -> RatPoly:
    """A dense factor of degree 1 or 2, to be raised to a power."""
    return _poly(draw, 1, 2)


@st.composite
def knomials(draw, max_degree: int = 32) -> RatPoly:
    """2 to 4 terms, the top one of degree 1 to ``max_degree``."""
    d = draw(st.integers(1, max_degree))
    exps = draw(st.lists(st.integers(0, d - 1), min_size=1,
                         max_size=min(3, d), unique=True))
    coeffs = [0] * d + [draw(NONZERO)]
    for e in exps:
        coeffs[e] = draw(NONZERO)
    return RatPoly(coeffs)


@st.composite
def alg9_candidates(draw) -> RatPoly:
    """f - 2^(-2l) * x^j for f = palindromic_counterexample(k, N), the
    inputs of the ALG9 loop's positivity and square-freeness gates."""
    f, _ = palindromic_counterexample(draw(st.integers(0, 7)),
                                      draw(st.sampled_from([65, 67, 69, 71])))
    j = draw(st.integers(0, f.degree))
    return f - RatPoly.monomial(j, F(1, 4 ** draw(st.integers(0, 8))))


@st.composite
def square_plus_eight(draw) -> RatPoly:
    """(2a*x^m + b)^2 + 8c, the always-square shape."""
    a = draw(st.integers(-5, 5).filter(bool))
    b, c = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    inner = RatPoly.monomial(draw(st.integers(1, 16)), 2 * a) + b
    return inner * inner + 8 * c


@st.composite
def square_times(draw) -> RatPoly:
    """g^2 * h with g dense or sparse."""
    g = draw(st.one_of(knomials(max_degree=6), st.builds(
        RatPoly, st.lists(NONZERO, min_size=2, max_size=4))))
    return g * g * draw(st.one_of(knomials(max_degree=8), polys(max_degree=6)))


SHAPES = st.one_of(polys(), knomials(), alg9_candidates(), square_plus_eight(),
                   square_times())


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


def assert_positive_multiples(a: list[int], b: list[int]) -> None:
    """Each term of the kernel's sequence of (a, b) is a positive
    rational multiple of the matching primitive-sequence term."""
    seq, steps = _remainder_sequence(a, b)
    reference = oracles.primitive_remainder_sequence(a, b)
    assert len(seq) == len(reference) and len(steps) == len(seq) - 2
    for term, ref in zip(seq, reference):
        assert len(term) == len(ref)
        q = F(term[-1], ref[-1])
        assert q > 0
        assert [F(x) for x in term] == [q * y for y in ref]


def derivative_pair(f: RatPoly) -> tuple[list[int], list[int]]:
    a = primitive_integer_coeffs(f)
    da = [i * c for i, c in enumerate(a)][1:]
    content = math.gcd(*da)
    return a, [c // content for c in da]


@SETTINGS
@given(SHAPES)
def test_sequence_terms_are_positive_multiples_of_the_oracle(f):
    assert_positive_multiples(*derivative_pair(f))
    assert count_distinct_and_real_roots(f) == oracles.root_counts(f)


@SETTINGS
@given(SHAPES, st.one_of(polys(max_degree=8), knomials(max_degree=16)),
       st.booleans())
def test_gcd_sequence_matches_the_oracle(f, g, share):
    if share:
        f, g = f * g, g * g
    a, b = primitive_integer_coeffs(f), primitive_integer_coeffs(g)
    if len(a) < len(b):
        a, b = b, a
    assert_positive_multiples(a, b)
    assert poly_gcd(f, g) == oracles.monic_gcd(f, g)
    assert poly_gcd(g, f) == oracles.monic_gcd(f, g)


@SETTINGS
@given(polys())
def test_root_counts_match_hankel_of_squarefree_part(f):
    g = sqf_part(f)
    counts = count_distinct_and_real_roots(f)
    assert counts == rank_signature(hankel_matrix(g))
    assert counts == rank_signature(hankel_matrix(f))
    assert counts[0] == g.degree
    assert counts[1] == oracles.sturm_chain_count(g)


def assert_sturm_matches(f: RatPoly) -> None:
    """The same count, or the same ValueError, as the Fraction chain."""
    try:
        expected = oracles.sturm_chain_count(f)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            sturm_real_root_count(f)
    else:
        assert sturm_real_root_count(f) == expected


@SETTINGS
@given(SHAPES)
def test_sturm_count_matches_the_fraction_chain(f):
    assert_sturm_matches(f)


def test_sturm_count_edge_cases():
    # degree 0, the zero polynomial, repeated real and complex roots
    for f in (RatPoly([3]), RatPoly([-1]), RatPoly(), RatPoly([-1, 1]) ** 2,
              RatPoly([1, 0, 1]) ** 2, RatPoly([0, -1, 0, 1])):
        assert_sturm_matches(f)


@SETTINGS
@given(polys())
def test_is_squarefree_matches_discriminant(f):
    assert is_squarefree(f) == (discriminant(f) != 0)
    assert is_squarefree(f) == (oracles.discriminant(f) != 0)


# resultant pairs: dense, sparse, repeated-factor and constant members,
# either degree the larger
PAIR_MEMBERS = st.one_of(polys(max_degree=7), knomials(max_degree=9),
                         square_times().filter(lambda f: f.degree <= 10),
                         st.builds(RatPoly.constant, NONZERO))


def sympy_resultant(f: RatPoly, g: RatPoly) -> F:
    r = sympy.resultant(to_sympy(f).as_expr(), to_sympy(g).as_expr(), X)
    r = sympy.Rational(r)
    return F(int(r.p), int(r.q))


@SETTINGS
@given(PAIR_MEMBERS, PAIR_MEMBERS, st.booleans())
def test_resultant_matches_sylvester_determinant_and_sympy(f, g, share):
    if share and f.degree + 2 * g.degree <= 12:
        f, g = f * g, g * g
    expected = oracles.sylvester_resultant(f, g)
    assert sylvester_resultant(f, g) == expected
    swap = -1 if f.degree * g.degree % 2 else 1
    assert sylvester_resultant(g, f) == swap * expected
    # sympy 1.14 returns Res(g, f) when deg f < deg g, so it is asked
    # with the larger degree first
    if f.degree < g.degree:
        f, g, expected = g, f, swap * expected
    if f.degree:
        assert expected == sympy_resultant(f, g)


@SETTINGS
@given(st.one_of(SHAPES.filter(lambda f: f.degree <= 12), polys()))
def test_discriminant_matches_sylvester_determinant_and_sympy(f):
    expected = oracles.discriminant(f)
    assert discriminant(f) == expected
    assert expected == sympy_resultant(f, f.derivative())


def test_resultant_degree_zero_and_errors():
    two, f = RatPoly([F(-2, 3)]), RatPoly([1, 2, 0, 5])
    for a, b in ((two, two), (two, f), (f, two), (RatPoly([7]), RatPoly([F(1, 7)]))):
        assert sylvester_resultant(a, b) == oracles.sylvester_resultant(a, b)
    assert sylvester_resultant(two, two) == 1
    assert sylvester_resultant(f, two) == F(-8, 27)
    for a, b in ((RatPoly(), f), (f, RatPoly()), (RatPoly(), RatPoly())):
        with pytest.raises(ValueError, match="zero polynomial"):
            sylvester_resultant(a, b)
    with pytest.raises(ValueError, match="degree >= 1"):
        discriminant(two)


@SETTINGS
@given(polys(max_degree=8), polys(max_degree=6), st.booleans())
def test_poly_gcd_matches_sympy(f, g, share):
    if share:
        f, g = f * g, g * g
    expected = from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)).monic())
    assert poly_gcd(f, g) == expected
    assert poly_gcd(g, f) == expected


@SETTINGS
@given(polys(max_degree=6), factors(), factors(), st.integers(1, 5),
       st.integers(2, 5), NONZERO)
@example(RatPoly([1, 1]), RatPoly([1, 0, 1]), RatPoly([-2, 3]), 5, 4, F(-3, 7))
@example(RatPoly([5, 0, 2]), RatPoly([1, 2, 1]), RatPoly([F(1, 2), 0, 1]), 2, 5, F(7, 4))
def test_squarefree_decomposition_matches_sympy(h, g1, g2, m1, m2, lead):
    """f = lead * h * g1^m1 * g2^m2: rational and negative leading
    coefficients, multiplicities up to 5, up to two repeated factors
    (three, when ``polys`` draws h as a g^2 * h), and repeated parts of
    any share of the degree (at least half in both examples).  Yun's
    decomposition is a second reference on the same draws."""
    f = h * g1 ** m1 * g2 ** m2 * lead
    unit, parts = squarefree_decomposition(f)
    _, factors = sympy.sqf_list(to_sympy(f))
    assert unit == f.leading
    assert parts == [(from_sympy(p.monic()), m) for p, m in factors]
    assert (unit, parts) == oracles.yun_squarefree_decomposition(f)


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
