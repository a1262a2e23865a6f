"""Differential tests of ALG9 (``reduce_iterative``) against the loop as
first written (``oracles.fraction_alg9``), which builds each branch
candidate f - h^2 in ``RatPoly`` arithmetic and certifies it with the
public ``certify_sos4``: the two must give equal results, record for
record, on random non-palindromic positive cores at small caps and on
the palindromic members of the benchmark's alg9-family (seeds 31 and 7)
at cap 40."""

from fractions import Fraction as F

import pytest

import oracles
from padic_sos.ratpoly import RatPoly, is_squarefree
from padic_sos.reduction import palindromic_counterexample, reduce_iterative

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def positive_cores(draw):
    """q (a^2 + b^2 + m), square-free and not palindromic, with a content
    q of odd or even denominator."""
    n = draw(st.integers(1, 4))
    small = st.integers(-9, 9)
    a = RatPoly(draw(st.lists(small, min_size=n, max_size=n)) + [draw(st.integers(1, 9))])
    b = RatPoly(draw(st.lists(small, min_size=n, max_size=n)))
    q = F(draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16])))
    f = (a * a + b * b + RatPoly([draw(st.integers(1, 8))])) * q
    hypothesis.assume(f.primitive_part != f.reverse().primitive_part and is_squarefree(f))
    return f


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(positive_cores(), st.integers(0, 5))
def test_random_cores_match_the_reference(f, cap):
    res = reduce_iterative(f, cap=cap)
    hypothesis.event(type(res).__name__ + getattr(res, "method", ""))
    assert res == oracles.fraction_alg9(f, cap)


@pytest.mark.parametrize("k, n", [(0, 67), (1, 67), (2, 65), (0, 69), (1, 69), (2, 69)])
def test_the_alg9_family_matches_the_reference(k, n):
    f, _ = palindromic_counterexample(k, n)
    res = reduce_iterative(f, cap=40)
    assert len(res.iterates) == 40 and res == oracles.fraction_alg9(f, 40)
