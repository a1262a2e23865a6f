"""The one Newton root lift, ``zpoly.lift_root``, and its three callers.

The root tree's lift of a simple root mod 2 (``hensel._lift``),
``newton_refine`` and ``padic_sqrt`` all run ``lift_root``.  Each is
checked here against the loop it replaced (``tests/oracles.py``), at
the largest precisions the library is asked for, and, for
``newton_refine``, on the primitive integer model that every
``RootWitness`` is taken on, whatever the content of f.
"""

import random
from fractions import Fraction as F

import pytest

import oracles
from padic_sos import hensel, zpoly
from padic_sos.hensel import ROOT_EXISTS, newton_refine, z2_root_status
from padic_sos.padic import is_square_in_q2, ord2, padic_sqrt
from padic_sos.ratpoly import RatPoly, primitive_integer_coeffs
from padic_sos.serialize import MAX_EXPONENT

hypothesis = pytest.importorskip("hypothesis")
strategies = pytest.importorskip("hypothesis.strategies")


def is_root_mod(f: RatPoly, x: int, m: int) -> bool:
    """x is a root of the primitive integer model of f mod 2^m."""
    return zpoly.evaluate(primitive_integer_coeffs(f), x) % (1 << m) == 0


def plain_witness(f: RatPoly):
    """The root tree's witness on f itself, or None."""
    st = z2_root_status(f)
    w = st.witness
    if st.tag != ROOT_EXISTS or w.on_reversal or w.on_squarefree_part:
        return None
    return w


def test_lift_root_examples():
    # x^2 - 17: the root that is 1 mod 4, and the one that is 3 mod 4
    for gamma in (1, 3):
        for precision in (1, 2, 3, 10, 64):
            r = zpoly.lift_root([-17, 0, 1], gamma, 1, precision)
            assert (r * r - 17) % (1 << precision) == 0
            assert r % min(4, 1 << precision) == gamma % min(4, 1 << precision)
    # 3x - 1 has the root 1/3 = ...10101011 in Z_2
    assert zpoly.lift_root([-1, 3], 1, 0, 8) == 0b10101011


def unreduced_lift_root(a, gamma, delta, precision):
    """``zpoly.lift_root``'s Newton loop on the exact values a(x), a'(x)."""
    m = 1 << (precision + delta)
    x = gamma % m
    while (v := zpoly.evaluate(a, x)) % m:
        x = (x - (v >> delta) * pow(zpoly.evaluate(zpoly.diff(a), x) >> delta, -1, m)) % m
    return x % (1 << precision)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(strategies.lists(strategies.integers(-2 ** 400, 2 ** 400), min_size=2,
                                   max_size=8).filter(lambda a: a[-1]),
                  strategies.integers(-2 ** 80, 2 ** 80), strategies.integers(0, 60),
                  strategies.integers(1, 300))
def test_lift_root_on_reduced_values_matches_the_exact_loop(a, gamma, s, precision):
    # big coefficients, reduced mod 2^(precision + 2 delta) at every
    # Horner step: the same residue as the loop on exact values; the
    # constant term is moved so that a(gamma) = 2^(2 delta + 1 + s) * odd
    dv = zpoly.evaluate(zpoly.diff(a), gamma)
    hypothesis.assume(dv)
    delta = ord2(dv)[0]
    a = [a[0] - zpoly.evaluate(a, gamma) + ((a[0] | 1) << 2 * delta + 1 + s)] + a[1:]
    assert zpoly.evaluate(a, gamma) % (1 << 2 * delta + 1) == 0
    assert (zpoly.lift_root(a, gamma, delta, precision)
            == unreduced_lift_root(a, gamma, delta, precision))


def test_exact_root_takes_no_newton_step(monkeypatch):
    calls = []
    evaluate = zpoly.evaluate

    def counting(a, t, *mask):
        calls.append(t)
        return evaluate(a, t, *mask)

    monkeypatch.setattr(zpoly, "evaluate", counting)
    assert zpoly.lift_root([-5, 1], 5, 0, 64) == 5
    # (x - 1)(x - 3), delta = 1 at the root 1
    assert zpoly.lift_root([3, -4, 1], 1, 1, 4096) == 1
    # nor does a root mod 2^(precision+delta) that is not exact
    assert zpoly.lift_root([-1 - (1 << 70), 1], 1 + (1 << 70), 0, 64) == 1
    assert calls == [5, 1, 1]


@pytest.mark.parametrize("f", [RatPoly([-34, 0, 2]), RatPoly([-68, 0, 4]),
                               RatPoly([F(-17, 4), 0, F(1, 4)])])
def test_refine_takes_the_witness_of_any_content(f):
    """These three multiples of x^2 - 17 have its witness, which the
    odd-cleared model rejected: its derivative has another valuation,
    or, with an even denominator, there is no such model."""
    w = z2_root_status(f).witness
    assert w == z2_root_status(RatPoly([-17, 0, 1])).witness
    with pytest.raises(ValueError):
        oracles.fixed_modulus_newton_refine(f, w.gamma, w.delta, 10)
    for m in (1, 10, 64):
        r = newton_refine(f, w.gamma, w.delta, m)
        assert r == newton_refine(RatPoly([-17, 0, 1]), w.gamma, w.delta, m)
        assert (r * r - 17) % (1 << m) == 0


rationals = strategies.builds(F, strategies.integers(-40, 40).filter(bool),
                              strategies.integers(1, 40))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(strategies.lists(strategies.integers(-12, 12), min_size=1, max_size=4)
                  .filter(lambda cs: cs[-1] != 0),
                  strategies.integers(-20, 20), strategies.integers(1, 8),
                  rationals, strategies.sampled_from([1, 5, 64]))
def test_refine_is_scale_invariant(g, a, b, c, m):
    f = RatPoly(g) * RatPoly([-a, b])
    w = plain_witness(f)
    hypothesis.assume(w is not None)
    r = newton_refine(f, w.gamma, w.delta, m)
    assert newton_refine(f * c, w.gamma, w.delta, m) == r
    assert is_root_mod(f, r, m)


def _root_tree_inputs(rng):
    """Random polynomials, products g^k*h with a repeated factor and
    ones with an even leading coefficient (reciprocal roots)."""
    out = []
    for _ in range(200):
        coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(2, 5))]
        out.append(RatPoly(coeffs + [rng.choice([1, -3, 5, 2, 4, 8])]))
        g = RatPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))] + [1])
        h = RatPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [rng.choice([1, 3])])
        out.append(g ** rng.randint(2, 4) * h)
        out.append(RatPoly([rng.randint(-9, 9), rng.randint(-9, 9), 4 * rng.randint(1, 9)])
                   * RatPoly([rng.randint(-5, 5), 1]))
    return out


def test_root_tree_matches_the_y_coordinate_lift(monkeypatch):
    inputs = _root_tree_inputs(random.Random(16))
    new = [z2_root_status(f) for f in inputs]
    monkeypatch.setattr(hensel, "_lift", oracles.y_coordinate_lift)
    assert [z2_root_status(f) for f in inputs] == new
    witnesses = [st.witness for st in new if st.witness is not None]
    kinds = {(w.on_reversal, w.on_squarefree_part, w.exact) for w in witnesses}
    assert {(False, False, False), (True, False, False), (False, True, False)} <= kinds
    assert sum(w.delta is not None and w.delta > 0 and not w.exact for w in witnesses) > 10


def test_refine_matches_the_fixed_modulus_loop():
    """Wherever the old loop accepts (f, gamma, delta), the new
    refinement, given delta on the primitive model (less the valuation
    of the content's numerator), gives the same root."""
    rng = random.Random(17)
    compared = 0
    for _ in range(600):
        g = RatPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 4))] + [rng.choice([1, 3, 2])])
        f = g * RatPoly([-rng.randint(-40, 40), rng.randint(1, 6)])
        f = f * F(rng.choice([1, -1, 2, 3, 12, 5]), rng.choice([1, 3, 7, 15]))
        gamma = rng.randint(-200, 200)
        dv = zpoly.evaluate(zpoly.diff(hensel._odd_cleared_scaled(f)[0]), gamma)
        if dv == 0:
            continue
        delta = ord2(dv)[0]
        for m in (1, 5, 64):
            try:
                old = oracles.fixed_modulus_newton_refine(f, gamma, delta, m)
            except ValueError:
                break
            shift = ord2(f.content.numerator)[0]
            assert newton_refine(f, gamma, delta - shift, m) == old
            compared += 1
    assert compared > 100


@pytest.mark.parametrize("precision", [1, 2, 3, 64, 300])
def test_padic_sqrt_matches_the_budgeted_loop(precision):
    rng = random.Random(precision)
    done = 0
    while done < 80:
        q = F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) * rng.choice([1, -7, 4, F(1, 16)])
        if not is_square_in_q2(q):
            continue
        assert padic_sqrt(q, precision) == oracles.budgeted_padic_sqrt(q, precision), q
        done += 1


@pytest.mark.parametrize("q", [17, F(-7, 9), F(-63, 16 * 4225), 2 ** 40 * 41])
def test_padic_sqrt_at_the_precision_cap(q):
    r = padic_sqrt(q, MAX_EXPONENT)
    v, u = ord2(q)
    modulus = 1 << MAX_EXPONENT
    assert r.valuation * 2 == v and r.unit_residue % 4 == 1
    assert (r.unit_residue ** 2 - oracles.unit_residue(u, modulus)) % modulus == 0


@pytest.mark.parametrize("f", [RatPoly([-17, 0, 1]), RatPoly([7, 0, 0, 1]),
                               RatPoly([F(-17, 4), 0, F(1, 4)]), RatPoly([-1, 3]),
                               RatPoly([-34, 0, 2]) * RatPoly([1, 0, 1])])
def test_refine_at_a_large_precision(f):
    w = plain_witness(f)
    r = newton_refine(f, w.gamma, w.delta, 4096)
    assert 0 <= r < 1 << 4096 and is_root_mod(f, r, 4096)
    assert r % (1 << 64) == newton_refine(f, w.gamma, w.delta, 64)
