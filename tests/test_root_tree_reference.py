"""Differential tests of ``z2_root_status`` against the level-by-level
root tree it replaced (``oracles.level_by_level_z2_root_status``): the
two must give equal ``RootStatus`` records, witness included, on random
rational polynomials, on clustered 2-adic roots (several branches per
level and long forced chains), on repeated factors (whose own tree runs
4 nodes per degree before the square-free part), on pure powers (whose
walk pauses at once), on even leading coefficients (the reversal tree)
and on the ALG9 branch candidates of the palindromic family.  On a
square-free f the status ``z2_root_status`` gives when told so (the
private ``_squarefree``), which walks without a node limit, must be the
same too, and so must it on a pure power told so wrongly.  A pure
Newton diagram of non-integral slope has no root in Q_2 and walks no
tree, whatever the claim.
Square-freeness is decided before the tree walks: one proof
(``zpoly.coprime``), or none when the caller is told, and the
square-free part only when that proof is silent and the tree has not
ended within its node limit.  The skips must really run, and an ALG9
branch candidate must be proved square-free once (by the resultant
bound of ``ratpoly._proved_positive_minus``, or else by that proof),
not again in its tree."""

from fractions import Fraction as F

import pytest

import oracles
from padic_sos import hensel, zpoly
from padic_sos.hensel import NO_ROOT, ROOT_EXISTS, RootStatus, RootWitness, z2_root_status
from padic_sos.ratpoly import RatPoly, is_squarefree, primitive_integer_coeffs
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


@st.composite
def pure_powers(draw):
    """C*(q*x - p)^n, one root of multiplicity n >= 2, with p's low bits
    clustered as in ``clustered_polys``; an even q makes the leading
    coefficient even, so the reversal tree runs too."""
    p = draw(st.sampled_from([0, 0, 0, 1, 3, -5])) + (
        draw(st.integers(-5, 5)) << draw(st.integers(2, 14)))
    q = draw(st.sampled_from([1, 2, 3, 4]))
    c = draw(st.sampled_from([1, -1, 3, F(1, 2), F(-5, 4)]))
    return RatPoly([c]) * RatPoly([-p, q]) ** draw(st.integers(2, 9))


@st.composite
def pure_diagram_polys(draw):
    """c * sum a_j x^j with a pure Newton diagram of non-integral slope:
    ord2(a_0) = v0 and ord2(a_d) = vd with d not dividing v0 - vd, and
    every other a_j zero or of ord2 on or above the chord between them."""
    d = draw(st.integers(2, 8))
    v0, vd = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    hypothesis.assume((v0 - vd) % d)

    def coefficient(v):
        return draw(st.sampled_from([1, -1, 3, -3, 5, 7, -9])) << v

    middle = [coefficient(-(-((d - j) * v0 + j * vd) // d) + draw(st.integers(0, 3)))
              if draw(st.booleans()) else 0 for j in range(1, d)]
    c = draw(st.sampled_from([1, -1, 3, F(1, 2), F(-5, 4), F(3, 16)]))
    return RatPoly([c]) * RatPoly([coefficient(v0), *middle, coefficient(vd)])


@hypothesis.settings(max_examples=200, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(f=pure_diagram_polys())
def test_a_pure_diagram_of_non_integral_slope_walks_no_tree(descents, f):
    # every root has valuation (v0 - vd) / d, not an integer, so none is in
    # Q_2: NoRoot, read off the diagram with or without the claim
    descents.update(library=0, reference=0)
    expected = oracles.level_by_level_z2_root_status(f)
    assert z2_root_status(f) == expected == RootStatus(NO_ROOT, None), f
    assert z2_root_status(f, _squarefree=True) == expected, f
    assert descents["library"] == 0, f


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
@hypothesis.given(pure_powers())
def test_pure_powers_match_the_reference(f):
    # no node of a pure power's trees gives a witness, so its walk pauses
    # at once, and the square-free part decides; with a wrong claim that
    # f is square-free too
    expected = oracles.level_by_level_z2_root_status(f)
    assert z2_root_status(f) == expected, f
    assert z2_root_status(f, _squarefree=True) == expected, f


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(random_polys, st.integers(1, 6))
def test_even_leading_coefficients_match_the_reference(f, a):
    assert_matches_reference(f + RatPoly.monomial(f.degree, f.leading * (2 ** a - 1)))


even_leading_polys = st.builds(
    lambda f, a: f + RatPoly.monomial(f.degree, f.leading * (2 ** a - 1)),
    st.one_of(random_polys, clustered_polys()), st.integers(1, 6))
repeated_factor_polys = st.builds(lambda g, h: g * g * h,
                                  st.one_of(random_polys, clustered_polys()), random_polys)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.one_of(random_polys, clustered_polys(), even_leading_polys,
                            repeated_factor_polys, pure_powers()))
def test_the_walk_pauses_where_the_reference_does(f):
    # for every node limit L up to the reference walk's node count + 1,
    # the walk pauses exactly when the reference has visited L nodes;
    # past that both end, on the same witness.  A walk down a repeated
    # root never ends, so L stops at 64 nodes.
    coeffs = primitive_integer_coeffs(f)
    hypothesis.assume(len(coeffs) > 1)
    for limit in range(1, 65):
        expected = next(oracles.level_by_level_root_tree(coeffs, limit))
        witness = hensel._root_tree(coeffs, limit)
        assert (witness is hensel._PAUSED) == (expected is oracles._PAUSED), (f, limit)
        if expected is not oracles._PAUSED:
            assert witness == expected, f
            break


@pytest.mark.parametrize("k, n, cap", [(0, 67, 40), (1, 67, 40), (2, 67, 40),
                                        (0, 65, 12), (1, 69, 12), (2, 65, 12)])
def test_alg9_branch_candidates_match_the_reference(k, n, cap):
    f, _ = palindromic_counterexample(k, n)
    for it in reduce_iterative(f, cap=cap).iterates:
        assert_matches_reference(it.branch_a.candidate)
        assert_matches_reference(it.branch_b.candidate)


def test_one_square_freeness_proof_per_branch_candidate(monkeypatch):
    # each candidate f - 4^-l x^k is proved square-free once, and the root
    # rule's tree takes that proof: by the resultant bound when the reduced
    # denominator of tau = 4^-l / c, here a power of 2, does not divide
    # (d b)^d (b = P[d] on branch a, P[0] on branch b), otherwise by one
    # integer gcd (``ratpoly._proved_positive_minus``)
    calls = []
    original = zpoly.coprime
    monkeypatch.setattr(zpoly, "coprime",
                        lambda *args: calls.append(args) or original(*args))
    f, _ = palindromic_counterexample(2, 67)
    iterates = reduce_iterative(f, cap=40).iterates
    p, d = f.primitive_part, f.degree
    left = [(it.l, b) for it in iterates for b in (p[d], p[0])
            if (d * b) ** d % (F(1, 4 ** it.l) / f.content).denominator == 0]
    # here b = 4 and tau = 67^2 / 4^l: the candidates with 4^l | 40^10,
    # l <= 15, on both branches.  The first call is f's own proof, before
    # its epsilon search's first probe gates it
    assert len(iterates) == 40 and len(left) == 20
    assert len(calls) == 21 and calls[0] == (p, zpoly.diff(p))


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


def test_a_pure_power_pauses_before_any_descent(descents):
    # x^n is a power of one linear factor: the walk pauses before its
    # first node, and the part x decides, where a walk of 4 nodes per
    # degree makes 4n - 1 descents
    expected = RootStatus(ROOT_EXISTS, RootWitness(0, 0, 2, exact=True,
                                                   on_squarefree_part=True))
    assert oracles.level_by_level_z2_root_status(RatPoly.monomial(6)) == expected
    assert z2_root_status(RatPoly.monomial(2000)) == expected
    assert descents["library"] == 0


@pytest.fixture
def decisions(monkeypatch):
    """A function that runs one ``z2_root_status`` call and returns it
    with the numbers of ``zpoly.coprime`` and ``squarefree_part`` calls
    the call made."""
    calls = {"proofs": 0, "parts": 0}
    for module, name, key in ((zpoly, "coprime", "proofs"),
                              (hensel, "squarefree_part", "parts")):
        original = getattr(module, name)

        def counting(*args, original=original, key=key):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    def run(f, **kwargs):
        calls.update(proofs=0, parts=0)
        status = z2_root_status(f, **kwargs)
        return status, calls["proofs"], calls["parts"]
    return run


def test_square_freeness_is_decided_before_the_walk(decisions):
    # roots -1 and 2^40 - 1 share 40 digits, all 1: a chain of nodes with
    # the double residue 1, which is not forced, past 4 nodes per degree
    f = (X + RatPoly([1])) * (X - RatPoly([(1 << 40) - 1]))
    assert hensel._root_tree(primitive_integer_coeffs(f), 8) is hensel._PAUSED
    expected = oracles.level_by_level_z2_root_status(f)
    assert expected.tag == ROOT_EXISTS
    assert decisions(f) == (expected, 1, 0)
    assert decisions(f, _squarefree=True) == (expected, 0, 0)
    # g = (x - r)^2 + m 2^64 with m = xi - r: g' = 2 (x - r) puts the proof's
    # point at xi = 2^57, where m divides g(xi) and g'(xi), so the proof is
    # silent on a square-free g, and g's square-free part decides;
    # g = (x - r)^2 mod 2^64, so the tree follows r's digits past 8 nodes
    r, xi = (1 << 39) - 1, 1 << 57
    g = (X - RatPoly([r])) ** 2 + RatPoly([(xi - r) << 64])
    assert is_squarefree(g)
    assert decisions(g) == (oracles.level_by_level_z2_root_status(g), 1, 1)


@pytest.mark.parametrize("f, parts, on_part", [
    ((X - RatPoly([1])) ** 2 * (X - RatPoly([3])), 0, False),  # the root 3 within 12 nodes
    ((X - RatPoly([1])) ** 2, 1, True),                         # no simple root, ever
])
def test_a_repeated_factor_takes_the_square_free_part_only_past_the_limit(
        decisions, f, parts, on_part):
    status, proofs, taken = decisions(f)
    assert status == oracles.level_by_level_z2_root_status(f)
    assert status.tag == ROOT_EXISTS and status.witness.on_squarefree_part == on_part
    assert (proofs, taken) == (1, parts)


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
