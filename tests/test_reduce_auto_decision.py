"""``reduce_auto`` decides its route from the core instead of trying
each one in turn.  Against the try-and-skip dispatcher it replaced
(``oracles.try_and_skip_reduce_auto``) it gives the same result and the
same document, and the reference never skips a route or reaches GR4, so
no route it tried could decline.  The PICKY obstruction's witness check
passes at every l from where its search starts."""

import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles
from padic_sos import zpoly
from padic_sos.hensel import _certify
from padic_sos.padic import ord2
from padic_sos.ratpoly import (RatPoly, _least_exponent, is_positive_on_reals,
                               primitive_integer_coeffs)
from padic_sos.reduction import (ALWAYS_SQUARE_NOTE, CYCLOTOMIC, InconclusiveReport,
                                 reduce_auto)
from padic_sos.serialize import dumps, outcome_to_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402


def same_as_reference(f: RatPoly):
    new, old = reduce_auto(f), oracles.try_and_skip_reduce_auto(f)
    assert repr(new) == repr(old), f
    assert dumps(*outcome_to_json(new)) == dumps(*outcome_to_json(old)), f
    steps = [step[0] for step in old.trace if isinstance(step, tuple)]
    assert not any("skipped" in str(step[1]) for step in old.trace
                   if isinstance(step, tuple)), f
    assert not any(name.startswith("gr4") for name in steps), f
    if isinstance(old, InconclusiveReport):
        assert old.note == ALWAYS_SQUARE_NOTE, f
    return new


@pytest.mark.parametrize("seed", [31, 32])
def test_seeded_corpora_match_the_reference(seed):
    for name, per_degree in (("reduce-corpus", 4), ("certify-corpus", 10)):
        for item in corpus.corpus(name, seed, per_degree):
            same_as_reference(item.poly)


def positive(f: RatPoly) -> bool:
    return not f.is_zero and f.degree >= 1 and is_positive_on_reals(f).verdict


ints = st.integers(-9, 9)
rationals = st.builds(F, ints, st.sampled_from([1, 1, 2, 3, 4, 9]))


@st.composite
def positive_inputs(draw):
    """Rational inputs, g^2 * h, scaled inputs, always-square
    (2a x^m + b)^2 + 8c and degree-2 cores such as x^2 + 3."""
    kind = draw(st.sampled_from(["rational", "square-part", "scaled", "always-square",
                                 "quadratic"]))
    if kind == "always-square":
        a, b = (draw(st.sampled_from([-3, -1, 1, 3, 5])) for _ in range(2))
        c = draw(st.sampled_from([1, 3, 5, 7]))
        inner = RatPoly.monomial(draw(st.sampled_from([1, 3, 5])), 2 * a) + RatPoly([b])
        return inner * inner + RatPoly([8 * c])
    if kind == "quadratic":
        f = RatPoly([draw(st.integers(1, 40)), draw(ints), draw(st.integers(1, 9))])
    else:
        d = draw(st.sampled_from([2, 4, 6, 8, 10]))
        coeffs = draw(st.lists(rationals if kind == "rational" else ints,
                               min_size=d, max_size=d))
        f = RatPoly(coeffs + [draw(st.integers(1, 9))])
    if kind == "square-part":
        g = RatPoly([draw(st.integers(1, 4)), draw(st.integers(-3, 3)),
                     draw(st.integers(1, 3))])
        f = g * g * f
    if kind == "scaled":
        f = f * F(draw(st.sampled_from([2, 3, 4, 5, 8, 12])),
                  draw(st.sampled_from([1, 2, 3, 5, 7])))
    hypothesis.assume(positive(f))
    return f


@hypothesis.settings(max_examples=300, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
@hypothesis.given(positive_inputs())
def test_decision_matches_the_reference(f):
    same_as_reference(f)


def test_named_inputs_match_the_reference():
    for f in (RatPoly([3, 0, 1]), RatPoly([5, 0, 1]), RatPoly([7, 0, 1]),
              RatPoly([9, 0, 0, 4, 0, 0, 4]), RatPoly([1, 1, 0, 0, 0, 0, 1]),
              RatPoly([F(4, 4225), F(1, 4225), F(4, 4225)])):
        same_as_reference(f)


@st.composite
def powered_inputs(draw):
    """g^k * h * q with g and h positive on R, 2 <= k <= 5 and q a
    positive rational: inputs whose square-free decomposition
    ``reduce_auto`` runs."""
    g = RatPoly([draw(rationals), draw(rationals), draw(st.integers(1, 4))])
    h = RatPoly(draw(st.lists(rationals, min_size=0, max_size=6)) + [draw(st.integers(1, 9))])
    hypothesis.assume(positive(g) and is_positive_on_reals(h).verdict)
    return g ** draw(st.integers(2, 5)) * h * F(draw(st.integers(1, 12)),
                                               draw(st.integers(1, 12)))


@hypothesis.settings(max_examples=100, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
@hypothesis.given(powered_inputs())
def test_the_proved_core_certificate_is_the_tested_one(f):
    """The core certificate ``reduce_auto`` proves from the decomposition
    is the one ``is_positive_on_reals`` computes on the core."""
    import padic_sos.reduction as reduction
    handed = []
    certify = reduction.certify_sos4

    def recording(g, *args, **kwargs):
        handed.append((g, kwargs["_proved"]))
        return certify(g, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "certify_sos4", recording)
        reduce_auto(f)
    core, positivity = handed[0]  # the core is certified first
    assert core.degree < f.degree
    assert positivity == is_positive_on_reals(core)


@st.composite
def square_constant_twice_odd(draw):
    """Integral f of degree 2(2k+1), k <= 2, with f(0) = 4^a (8m + 1)."""
    k = draw(st.integers(0, 2))
    d = 2 * (2 * k + 1)
    c0 = 4 ** draw(st.integers(0, 3)) * (8 * draw(st.integers(0, 6)) + 1)
    middle = draw(st.lists(st.integers(-6, 6), min_size=d - 1, max_size=d - 1))
    f = RatPoly([c0] + middle + [draw(st.integers(1, 6))])
    hypothesis.assume(is_positive_on_reals(f).verdict)
    return f


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(square_constant_twice_odd())
def test_obstruction_witness_holds_at_every_l_from_the_first(f):
    """``_obstruction``'s proof: the root tree's check passes at
    gamma = 2^(l+a) for every l >= max(a + 3, l_pos, 1)."""
    k = (f.degree - 2) // 4
    base = CYCLOTOMIC ** (2 * k) * RatPoly.monomial(2)
    a = ord2(f[0])[0] // 2
    ell_pos = -(-_least_exponent(f, -base) // 2)
    first = max(a + 3, ell_pos, 1)
    for ell in range(first, first + 21):
        coeffs = primitive_integer_coeffs(f * (4 ** ell) - base)
        witness = _certify(coeffs, zpoly.diff(coeffs), 2 ** (ell + a), False)
        assert witness is not None and witness.delta == ell + a + 1, (f, ell)
