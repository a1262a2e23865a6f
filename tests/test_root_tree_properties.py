"""Hypothesis properties of ``z2_root_status``: a rational linear
factor is always a 2-adic root, also when another factor is squared;
and of ``verify_root_witness`` against the reference conditions."""

from fractions import Fraction as F

import pytest

import oracles
from padic_sos.hensel import (ROOT_EXISTS, RootWitness, verify_root_witness,
                              z2_root_status)
from padic_sos.ratpoly import RatPoly
from padic_sos.record import replace

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


offsets = strategies.sampled_from([0, 0, 0, 1, -1, 2, 4, -8, 16, 64])


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(small_polys, strategies.integers(-20, 20), offsets,
                  strategies.one_of(strategies.none(), strategies.integers(0, 4)),
                  strategies.booleans(), strategies.booleans(), strategies.booleans(),
                  strategies.booleans())
@hypothesis.example(RatPoly([1, 0, 1]), 3, 0, 1, True, False, False, False)
def test_witness_check_matches_the_reference_but_for_inexact_exact_roots(
        g, r, offset, delta, modulus_from_delta, exact, on_reversal, on_squarefree_part):
    """Against the conditions written out on their own: the two checks
    differ only on a witness not marked ``exact`` at an exact simple
    root, which the reference accepts and the root tree never gives."""
    f = g * RatPoly([-r, 1])  # r is an exact root
    modulus = (1 if delta is None else 1 << (2 * delta + 1)) if modulus_from_delta else 8
    witness = RootWitness(r + offset, delta, modulus, on_reversal, exact, on_squarefree_part)
    new, old = verify_root_witness(f, witness), oracles.verify_root_witness(f, witness)
    if new != old:
        assert old and not exact and witness.delta is not None, witness
        assert verify_root_witness(f, replace(witness, exact=True))
