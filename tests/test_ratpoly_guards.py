"""The argument guards of ``ratpoly`` and its square-free part.

Every guard raises its ``ValueError`` with its own message on the input
it excludes.  ``squarefree_part`` reads gcd(f, f') off the remainder
sequence of the root counts; it must equal the monic f / gcd(f, f')
that ``poly_gcd`` gives, divided by the oracle's long division.
"""

from fractions import Fraction as F

import pytest

from padic_sos.ratpoly import (RatPoly, count_distinct_and_real_roots,
                               is_positive_on_reals, is_squarefree, poly_gcd,
                               squarefree_decomposition, squarefree_part)

from oracles import fraction_divmod

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

ZERO = RatPoly()


@pytest.mark.parametrize("call, message", [
    (lambda: ZERO.leading, "zero polynomial has no leading coefficient"),
    (lambda: squarefree_decomposition(ZERO),
     "zero polynomial has no square-free decomposition"),
    (lambda: squarefree_part(ZERO), "zero polynomial"),
    (lambda: is_positive_on_reals(ZERO), "zero polynomial"),
    (lambda: is_squarefree(RatPoly([3])), "square-freeness needs degree >= 1"),
    (lambda: is_squarefree(ZERO), "square-freeness needs degree >= 1"),
    (lambda: count_distinct_and_real_roots(RatPoly([F(1, 2)])),
     "root counts need degree >= 1"),
    (lambda: count_distinct_and_real_roots(ZERO), "root counts need degree >= 1"),
    (lambda: RatPoly([1, 1]) ** -1, "negative polynomial power"),
])
def test_guard_raises_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_zero_polynomial_and_foreign_types():
    assert poly_gcd(ZERO, ZERO) == ZERO
    assert not bool(ZERO)
    assert bool(RatPoly([0, 1]))
    assert (RatPoly([1, 2]) == "1 + 2x") is False
    assert (RatPoly([1, 2]) == 1.5) is False
    with pytest.raises(TypeError):
        RatPoly([1, 2]) * "x"
    with pytest.raises(TypeError):
        RatPoly([1, 2]) * 1.5


@st.composite
def products_with_repeats(draw):
    """c * prod g_i^e_i, small integer g_i of degree 0-3, e_i in 1-3."""
    f = RatPoly([draw(st.fractions(min_value=-9, max_value=9, max_denominator=9)
                      .filter(lambda c: c != 0))])
    for _ in range(draw(st.integers(1, 4))):
        g = RatPoly(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4)))
        hypothesis.assume(not g.is_zero)
        f = f * g ** draw(st.integers(1, 3))
    return f


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(products_with_repeats())
def test_squarefree_part_is_f_over_gcd_with_derivative(f):
    part = squarefree_part(f)
    if f.degree == 0:
        assert part == RatPoly([1])
        return
    q, r = fraction_divmod(f.coeffs, poly_gcd(f, f.derivative()).coeffs)
    assert r == []
    assert part == RatPoly(q) * (1 / q[-1])
