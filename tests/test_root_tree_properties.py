"""Hypothesis properties of ``z2_root_status``: a rational linear
factor is always a 2-adic root, also when another factor is squared."""

from fractions import Fraction as F

import pytest

from padic_sos.hensel import ROOT_EXISTS, verify_root_witness, z2_root_status
from padic_sos.ratpoly import RatPoly

hypothesis = pytest.importorskip("hypothesis")
strategies = pytest.importorskip("hypothesis.strategies")

small_polys = strategies.lists(strategies.integers(-12, 12), min_size=1, max_size=5).filter(
    lambda cs: cs[-1] != 0).map(RatPoly)
rationals = strategies.builds(F, strategies.integers(-40, 40), strategies.integers(1, 12))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(small_polys, rationals)
def test_linear_factor_always_has_a_root(f, a):
    linear = RatPoly([-a, 1])
    st = z2_root_status(f * linear)
    assert st.tag == ROOT_EXISTS
    assert verify_root_witness(f * linear, st.witness)
    g = f * f * linear
    st = z2_root_status(g)
    assert st.tag == ROOT_EXISTS
    assert verify_root_witness(g, st.witness)
