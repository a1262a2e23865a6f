"""Differential tests of the integer-polynomial kernel ``zpoly``.

The oracle is sympy's ``Poly`` over ZZ: on hypothesis-drawn ascending
integer lists every ``zpoly`` function must give the coefficients
sympy gives.  ``coprime`` may only prove what sympy's gcd over Q
confirms, is never True on a common factor, and is silent on a
square-free input built to defeat it.  The ALG6 / ALGN gcd loop of
``reduction`` is checked by brute force against its termination guard.
"""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from padic_sos import zpoly  # noqa: E402
from padic_sos.ratpoly import RatPoly, is_squarefree  # noqa: E402
from padic_sos.reduction import _gcd_steps  # noqa: E402

X = sympy.Symbol("x")

ints = st.integers(-10 ** 6, 10 ** 6)
polys = st.lists(ints, max_size=12).map(zpoly.trim)
nonzero = st.lists(ints, min_size=1, max_size=6).filter(lambda a: a[-1] != 0)


def to_sympy(a):
    return sympy.Poly(list(reversed(a)) or [0], X, domain=sympy.ZZ)


def from_sympy(p):
    return zpoly.trim([int(c) for c in reversed(p.all_coeffs())])


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_ring_operations_match_sympy(a, b):
    assert zpoly.add(a, b) == from_sympy(to_sympy(a) + to_sympy(b))
    assert zpoly.add(a, b, 3, -7) == from_sympy(3 * to_sympy(a) - 7 * to_sympy(b))
    assert zpoly.sub(a, b) == from_sympy(to_sympy(a) - to_sympy(b))
    assert zpoly.mul(a, b) == from_sympy(to_sympy(a) * to_sympy(b))


@settings(max_examples=200, deadline=None)
@given(polys, st.integers(-50, 50))
def test_diff_eval_and_taylor_shift_match_sympy(a, r):
    p = to_sympy(a)
    assert zpoly.diff(a) == from_sympy(p.diff(X))
    assert zpoly.evaluate(a, r) == p.eval(r)
    assert zpoly.taylor_shift(a, r) == from_sympy(p.compose(to_sympy([r, 1])))


@settings(max_examples=200, deadline=None)
@given(polys, nonzero)
def test_exact_division_matches_exquo(q, b):
    a = zpoly.mul(q, b)
    quotient = from_sympy(to_sympy(a).exquo(to_sympy(b)))
    assert quotient == q
    assert zpoly.divide(a, b) == (quotient, [])


def test_gcd_loop_never_reaches_its_guard():
    # ALG6 runs on odd kd with target 1, ALGN on even kd and d = 0 mod 4
    # with target 2; positive inputs have even degree
    for d in range(2, 201, 2):
        for kd in range(-40, 41):
            target = 1 if kd % 2 else 2
            if target == 2 and d % 4:
                continue
            for start in range(-20, 61):
                l, trace = _gcd_steps(d, kd, start, target)
                assert len(trace) == l - start <= d // 2


def sympy_coprime(a, b):
    """gcd(a, b) over Q is a nonzero constant, by sympy."""
    g = to_sympy(a).gcd(to_sympy(b))
    return not g.is_zero and g.degree() == 0


@settings(max_examples=300, deadline=None)
@given(polys, polys)
def test_coprime_implies_a_constant_sympy_gcd(a, b):
    if zpoly.coprime(a, b):
        assert sympy_coprime(a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(ints, min_size=n, max_size=n), st.lists(ints, min_size=n, max_size=n))))
def test_coprime_on_equal_degrees(pair):
    a, b = (c[:-1] + [c[-1] or 1] for c in pair)
    if zpoly.coprime(a, b):
        assert sympy_coprime(a, b)


big = st.integers(-2 ** 200, 2 ** 200)
factors = st.one_of(
    st.lists(ints, min_size=2, max_size=5),
    st.lists(big, min_size=2, max_size=4),
    # a root r at the Cauchy bound 1 + r of x^m (x - r)
    st.builds(lambda m, r: [0] * m + [-r, 1], st.integers(0, 4), st.integers(1, 2 ** 120)),
).filter(lambda g: g[-1] != 0)


@settings(max_examples=300, deadline=None)
@given(factors, nonzero, nonzero)
def test_coprime_is_false_on_a_common_factor(g, u, v):
    # soundness: a common factor of degree >= 1 is never proved away
    assert not zpoly.coprime(zpoly.mul(g, u), zpoly.mul(g, v))
    assert not zpoly.coprime(g, zpoly.mul(g, v))


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), ints.filter(bool))
def test_coprime_in_degree_one(c0, c1):
    # c0 + c1*x and its nonzero constant derivative are always coprime, and
    # gcd(f(xi), c1) <= |c1| < xi / 2 proves it
    f = [c0, c1]
    assert zpoly.coprime(f, zpoly.diff(f)) and sympy_coprime(f, [c1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=2, max_size=10).filter(lambda a: a[-1]))
def test_coprime_with_derivative_proves_squarefree(a):
    # f, f' coprime over Q makes f square-free; a square factor g^2 never
    # passes
    if zpoly.coprime(a, zpoly.diff(a)):
        assert is_squarefree(RatPoly(a))
    g = a[:2]
    if g[-1]:
        square = zpoly.mul(zpoly.mul(g, g), a)
        assert not zpoly.coprime(square, zpoly.diff(square))


def test_coprime_on_zero_constant_and_unprovable_lists():
    # a zero list is coprime only to a nonzero constant
    assert not zpoly.coprime([], [])
    assert zpoly.coprime([3], []) and zpoly.coprime([], [-5])
    assert not zpoly.coprime([], [1, 1]) and not zpoly.coprime([0, 1], [])
    assert zpoly.coprime([7], [3]) and zpoly.coprime([6], [4])
    # square-free polynomials far from the proof's limits are proved
    for a in ([1, 0, 1], [-2, 0, 1], [1, 1, 1, 1, 1], [5, -3, 0, 2, 1]):
        assert zpoly.coprime(a, zpoly.diff(a))
    # x^2 + x + c against 2x + 1: H = 2, so xi = 2^19, and c = -xi^2 - xi
    # mod 2 xi + 1 makes 2 xi + 1 divide both values.  f is square-free
    # (disc 1 - 4c < 0), but the proof is silent
    xi, c = 1 << 19, 786433
    assert (xi * xi + xi + c) % (2 * xi + 1) == 0
    f = [c, 1, 1]
    assert is_squarefree(RatPoly(f)) and sympy_coprime(f, zpoly.diff(f))
    assert not zpoly.coprime(f, zpoly.diff(f))
