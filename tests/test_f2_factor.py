"""GF(2) factorization and division against their first forms.

``f2.f2_factor`` runs one distinct-degree sieve on f itself, with a
square step for square f, and ``f2.f2_divmod`` cancels the top term of
the dividend directly.  Both must return exactly what the forms they
replaced return (``oracles.squarefree_pass_f2_factor``,
``oracles.bitwise_f2_divmod``): every nonzero polynomial of degree
<= 12, and random products with repeated factors up to degree 64,
including squares of irreducibles of degree >= 12 times powers of x.
"""

import pytest

from padic_sos.f2 import f2_degree, f2_divmod, f2_factor, f2_mul, f2_to_str

import oracles

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=150, deadline=None)


def product(factors) -> int:
    out = 1
    for p, e in factors:
        for _ in range(e):
            out = f2_mul(out, p)
    return out


def test_f2_factor_matches_the_reference_up_to_degree_12():
    for f in range(1, 1 << 13):
        assert f2_factor(f) == oracles.squarefree_pass_f2_factor(f), f


def test_f2_factor_rejects_zero():
    with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
        f2_factor(0)


@st.composite
def repeated_products(draw):
    """Products of random polynomials of degree 1-10 with multiplicities
    1-6, of degree at most 64."""
    f = 1
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.integers(1, 10))
        p = draw(st.integers(1 << d, (2 << d) - 1))
        for _ in range(draw(st.integers(1, 6))):
            if f2_degree(f) + d > 64:
                break
            f = f2_mul(f, p)
    return f


@st.composite
def squares_of_high_degree_irreducibles(draw):
    """q^2 * x^k * r: q irreducible of degree 12-20, the next one at or
    after a drawn polynomial of that degree, r a small random factor."""
    d = draw(st.integers(12, 20))
    q = draw(st.integers(1 << d, (2 << d) - 1))
    while oracles.distinct_degree(q) != [(q, d)]:  # a factor of degree <= d / 2
        q = q + 1 if q + 1 < 2 << d else 1 << d
    k = draw(st.integers(0, 8))
    r = draw(st.integers(1, (1 << 16) - 1))
    return f2_mul(f2_mul(f2_mul(q, q), r), 1 << k)


@SETTINGS
@hypothesis.given(st.one_of(repeated_products(), squares_of_high_degree_irreducibles()))
def test_f2_factor_matches_the_reference_on_repeated_factors(f):
    factors = f2_factor(f)
    assert factors == oracles.squarefree_pass_f2_factor(f)
    assert product(factors) == f


def test_square_of_a_high_degree_irreducible():
    q = (1 << 15) | 0b11  # x^15 + x + 1 is irreducible over GF(2)
    assert oracles.squarefree_pass_f2_factor(q) == [(q, 1)]
    f = f2_mul(f2_mul(q, q), 1 << 5)
    assert f2_factor(f) == [(0b10, 5), (q, 2)]


@SETTINGS
@hypothesis.given(st.integers(0, (1 << 200) - 1), st.integers(1, (1 << 100) - 1))
def test_f2_divmod_matches_the_reference(a, b):
    q, r = f2_divmod(a, b)
    assert f2_mul(q, b) ^ r == a
    assert f2_degree(r) < f2_degree(b)
    assert (q, r) == oracles.bitwise_f2_divmod(a, b)


def test_f2_divmod_small_cases_match_the_reference():
    for a in range(1 << 9):
        for b in range(1, 1 << 5):
            assert f2_divmod(a, b) == oracles.bitwise_f2_divmod(a, b)


def test_f2_divmod_by_zero_raises():
    for a in (0, 1, 0b1011):
        with pytest.raises(ZeroDivisionError, match="division by the zero polynomial"):
            f2_divmod(a, 0)


def test_f2_to_str_of_zero():
    assert f2_to_str(0) == "0"
