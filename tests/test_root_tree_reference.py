"""Differential tests of ``z2_root_status`` against the level-by-level
root tree it replaced (``oracles.level_by_level_z2_root_status``): the
two must give equal ``RootStatus`` records, witness included, on random
rational polynomials, on clustered 2-adic roots (several branches per
level and long forced chains), on repeated factors (the pause), on even
leading coefficients (the reversal tree) and on the ALG9 branch
candidates of the palindromic family.  On a square-free f the status
``z2_root_status`` gives when told so (the private ``_squarefree``),
which skips every forced chain from the root, must be the same too; the
skips and the mod-p proof must really run, and an ALG9 branch candidate
must be proved square-free once, not again in its tree."""

from fractions import Fraction as F

import pytest

import oracles
from padic_sos import hensel, zpoly
from padic_sos.hensel import ROOT_EXISTS, z2_root_status
from padic_sos.ratpoly import SQUAREFREE_PRIME, RatPoly, is_squarefree
from padic_sos.reduction import palindromic_counterexample, reduce_iterative

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

X = RatPoly([0, 1])


def assert_matches_reference(f):
    expected = oracles.level_by_level_z2_root_status(f)
    assert z2_root_status(f) == expected, f
    if is_squarefree(f) and f.degree > 0:
        assert z2_root_status(f, _squarefree=True) == expected, f


rationals = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 1, 1, 2, 3, 4, 5, 8]))
random_polys = st.lists(rationals, min_size=2, max_size=8).filter(
    lambda cs: cs[-1] != 0).map(RatPoly)


@st.composite
def clustered_polys(draw):
    """A product of linear factors x - r and of quadratics (x - r)^2 -
    2^(2m+1)*u, which have no 2-adic root, around roots r that share
    their low bits and have high 2-adic valuation; the leading
    coefficient is sometimes even."""
    base = draw(st.sampled_from([0, 0, 0, 1, 3, -5]))
    low = draw(st.integers(2, 8))
    f = RatPoly([draw(st.sampled_from([1, 1, 3, 2, 4, 8]))])
    for _ in range(draw(st.integers(1, 4))):
        r = base + (draw(st.integers(-5, 5)) << draw(st.integers(low, low + 6)))
        linear = X - RatPoly([r])
        if draw(st.booleans()):
            f = f * linear
        else:
            u = draw(st.sampled_from([1, 3, 5, 7]))
            f = f * (linear * linear - RatPoly([u << (2 * draw(st.integers(0, 4)) + 1)]))
    return f


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(random_polys)
def test_random_polynomials_match_the_reference(f):
    assert_matches_reference(f)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(clustered_polys())
def test_clustered_roots_match_the_reference(f):
    assert_matches_reference(f)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.one_of(random_polys, clustered_polys()), random_polys)
def test_repeated_factors_match_the_reference(g, h):
    assert_matches_reference(g * g * h)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(random_polys, st.integers(1, 6))
def test_even_leading_coefficients_match_the_reference(f, a):
    assert_matches_reference(f + RatPoly.monomial(f.degree, f.leading * (2 ** a - 1)))


@pytest.mark.parametrize("k, n, cap", [(0, 67, 40), (1, 67, 40), (2, 67, 40),
                                        (0, 65, 12), (1, 69, 12), (2, 65, 12)])
def test_alg9_branch_candidates_match_the_reference(k, n, cap):
    f, _ = palindromic_counterexample(k, n)
    for it in reduce_iterative(f, cap=cap).iterates:
        assert_matches_reference(it.branch_a.candidate)
        assert_matches_reference(it.branch_b.candidate)


def test_one_square_freeness_proof_per_branch_candidate(monkeypatch):
    # each candidate's positivity certificate proves it square-free mod p
    # (``_proved_positive``), and the root rule's tree takes that proof
    calls = []
    original = zpoly.coprime_mod
    monkeypatch.setattr(zpoly, "coprime_mod",
                        lambda *args: calls.append(args) or original(*args))
    f, _ = palindromic_counterexample(2, 67)
    iterates = reduce_iterative(f, cap=40).iterates
    assert len(iterates) == 40 and len(calls) == 2 * len(iterates)


@pytest.fixture
def descents(monkeypatch):
    """Calls of the library's and the reference's ``_descend``."""
    calls = {"library": 0, "reference": 0}
    for module, name, key in ((hensel, "_descend", "library"),
                              (oracles, "level_by_level_descend", "reference")):
        original = getattr(module, name)

        def counting(g, r, original=original, key=key):
            calls[key] += 1
            return original(g, r)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_forced_chains_are_skipped(descents):
    # branch b of the quadratic family member: g = y^2 mod 2 with ord2 of
    # the constant 2l + 2, a chain of about l nodes below the root
    f, _ = palindromic_counterexample(0, 65)
    candidates = [it.branch_b.candidate for it in reduce_iterative(f, cap=20).iterates]
    # roots clustered at a high 2-adic valuation
    candidates.append((X - RatPoly([3 << 20])) * (X - RatPoly([5 << 20])) * X)
    for g in candidates:
        descents.update(library=0, reference=0)
        assert z2_root_status(g) == oracles.level_by_level_z2_root_status(g)
        assert descents["library"] * 4 < descents["reference"], (g, descents)


def test_the_pause_proves_square_freeness_mod_p_first(monkeypatch):
    parts, proofs = [], []
    for name, calls in (("squarefree_part", parts), ("_squarefree_mod_p", proofs)):
        original = getattr(hensel, name)
        monkeypatch.setattr(hensel, name, lambda f, original=original, calls=calls:
                            calls.append(f) or original(f))
    # roots -1 and 2^40 - 1 share 40 digits, all 1: a chain of nodes with
    # the double residue 1, which is not forced, past the pause at 8 nodes
    f = (X + RatPoly([1])) * (X - RatPoly([(1 << 40) - 1]))
    assert z2_root_status(f) == oracles.level_by_level_z2_root_status(f)
    assert z2_root_status(f).tag == ROOT_EXISTS
    assert len(proofs) == 2 and parts == []
    # times x^2 + 1 and (x - p)^2 + 1, which agree mod p: square-free
    # over Q but not mod p, so the pause takes the square-free part
    p = SQUAREFREE_PRIME
    g = f * RatPoly([1, 0, 1]) * RatPoly([p * p + 1, -2 * p, 1])
    assert z2_root_status(g) == oracles.level_by_level_z2_root_status(g)
    assert parts == [g]


@pytest.mark.parametrize("g, steps", [
    ([64, 0, 16, 1], 2),          # ord2 6 over 3 and 4 over 2
    ([1 << 20, 1 << 9, 1], 9),    # the y coefficient binds: 9 over 1
    ([4, 0, 0, 0, 1], 0),         # ord2 2 over 4: no skip
    ([64, 2, 16, 1], 0),          # ord2 1 over 2
    ([64, 0, 16, 3, 1], 0),       # an odd g_3: not forced
    ([64, 0, 16, 2], 0),          # an even leading coefficient
    ([0, 0, 1], 0),               # y^2: every root is 0, twice
    ([16, 1], 0),                 # degree 1
])
def test_forced_steps(g, steps):
    assert hensel._forced_steps(g) == steps
