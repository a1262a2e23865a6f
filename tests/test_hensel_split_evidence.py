"""The PICKY route's ``HenselSplitEvenParts`` evidence from the
hypotheses of Hensel's lemma.

``certifier.hensel_split_even_parts`` checks that q = scale * f has a
2-adic unit content, an odd leading coefficient on its primitive model,
and a mod-2 image g1 * x^2 with x prime to g1 and every factor of g1 of
even degree, and that q has no 2-adic root.  It builds no lift: the
lemma fixes the degrees deg q - 2 and 2 and the recorded modulus
2^64.  Its first form lifted the split to 2^64
(``oracles.lifted_hensel_split_even_parts``); the two must agree on
every input, here the PICKY residuals f - 4^-l (x^2+x+1)^(2k) x^2 under
the scales the route uses, their halves, thirds and triples, and
random rationals.
"""

from fractions import Fraction as F

import pytest

import oracles
from padic_sos.certifier import HenselSplitEvenParts, hensel_split_even_parts
from padic_sos.ratpoly import RatPoly

hypothesis = pytest.importorskip("hypothesis")
strategies = pytest.importorskip("hypothesis.strategies")

CYC = RatPoly([1, 1, 1])


def picky_residual(coeffs: list[int], lead: int, den: int, k: int, ell: int) -> RatPoly:
    """f - 4^-l (x^2+x+1)^(2k) x^2 for f of degree 2(2k+1) with the
    given low coefficients (padded or cut), leading coefficient and
    common denominator."""
    d = 4 * k + 2
    low = (coeffs + [0] * d)[:d]
    f = RatPoly([F(c, den) for c in low] + [F(lead, den)])
    return f - CYC ** (2 * k) * RatPoly.monomial(2, F(1, 4 ** ell))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(strategies.lists(strategies.integers(-20, 20), max_size=14),
                  strategies.integers(1, 20), strategies.sampled_from([1, 1, 1, 3, 4, 5]),
                  strategies.integers(0, 3), strategies.integers(0, 4),
                  strategies.one_of(
                      strategies.sampled_from([F(1), F(1, 2), F(3), F(1, 3)]),
                      strategies.builds(F, strategies.integers(-60, 60).filter(bool),
                                        strategies.integers(1, 60))),
                  strategies.booleans())
def test_hypotheses_give_the_lifted_evidence(coeffs, lead, den, k, ell, factor, by_power):
    g = picky_residual(coeffs, lead, den, k, ell)
    scale = factor * 4 ** ell if by_power else factor
    assert hensel_split_even_parts(g, scale) == oracles.lifted_hensel_split_even_parts(g, scale)


@pytest.mark.parametrize("f", [RatPoly([3, 0, 1, 0, 0, 0, 1]),  # x^6 + x^2 + 3
                               RatPoly([3, 0, 1] + [0] * 7 + [1]),  # x^10 + x^2 + 3
                               RatPoly([5, -3, 2, 1, 0, 0, 7])])
def test_picky_scales_conclude_as_the_lift_did(f):
    k = (f.degree - 2) // 4
    concluded = 0
    for ell in range(1, 7):
        g = f - CYC ** (2 * k) * RatPoly.monomial(2, F(1, 4 ** ell))
        for factor in (F(1), F(1, 2), F(3), F(1, 3), F(5, 7), F(2, 9)):
            scale = factor * 4 ** ell
            ev = hensel_split_even_parts(g, scale)
            assert ev == oracles.lifted_hensel_split_even_parts(g, scale)
            if ev is not None:
                assert isinstance(ev, HenselSplitEvenParts)
                assert (ev.g_degree, ev.h_degree, ev.modulus) == (f.degree - 2, 2, 2 ** 64)
                # 4^l g has odd leading coefficient, so q's content is a
                # 2-adic unit exactly when the factor is
                assert factor.numerator % 2 and factor.denominator % 2
                concluded += 1
    assert concluded > 0
