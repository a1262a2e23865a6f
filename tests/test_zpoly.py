"""Differential tests of the integer-polynomial kernel ``zpoly``.

The oracle is sympy's ``Poly`` over ZZ: on hypothesis-drawn ascending
integer lists every ``zpoly`` function must give the coefficients
sympy gives, and ``coprime_mod`` the gcd sympy takes over F_p.  The
ALG6 / ALGN gcd loop of ``reduction`` is checked by brute force
against its termination guard.
"""

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from padic_sos import zpoly  # noqa: E402
from padic_sos.ratpoly import SQUAREFREE_PRIME, RatPoly, is_squarefree  # noqa: E402
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


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(1, 10 ** 20))
def test_mod_reduces_into_range(a, m):
    reduced = zpoly.mod(a, m)
    assert all(0 <= c < m for c in reduced)
    assert all(c % m == 0 for c in zpoly.sub(a, reduced))


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


def sympy_coprime_mod(a, b, p):
    """gcd(a, b) over F_p is a nonzero constant, by sympy."""
    pa, pb = (sympy.Poly(list(reversed(c)) or [0], X, modulus=p) for c in (a, b))
    g = pa.gcd(pb)
    return not g.is_zero and g.degree() == 0


PRIMES = st.sampled_from([2, 3, 7, 101, SQUAREFREE_PRIME])


@settings(max_examples=300, deadline=None)
@given(polys, polys, PRIMES)
def test_coprime_mod_matches_sympy_gcd(a, b, p):
    assert zpoly.coprime_mod(a, b, p) == sympy_coprime_mod(a, b, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(ints, min_size=n, max_size=n), st.lists(ints, min_size=n, max_size=n))),
    PRIMES)
def test_coprime_mod_on_equal_degrees(pair, p):
    a, b = (c[:-1] + [c[-1] or 1] for c in pair)
    assert zpoly.coprime_mod(a, b, p) == sympy_coprime_mod(a, b, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), ints.filter(bool), PRIMES)
def test_coprime_mod_in_degree_one(c0, c1, p):
    # c0 + c1*x and c1 are coprime mod p unless p divides c1 and, with it,
    # the image c0 of f as well
    f = [c0, c1]
    assert zpoly.coprime_mod(f, zpoly.diff(f), p) == (c1 % p != 0 or c0 % p != 0)
    assert zpoly.coprime_mod(f, zpoly.diff(f), p) == sympy_coprime_mod(f, [c1], p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=2, max_size=10).filter(lambda a: a[-1]),
       PRIMES)
def test_coprime_with_derivative_mod_p_proves_squarefree(a, p):
    # with p not dividing the leading coefficient, f, f' coprime mod p makes
    # f square-free over Q; a square factor g^2 never passes
    if a[-1] % p and zpoly.coprime_mod(a, zpoly.diff(a), p):
        assert is_squarefree(RatPoly(a))
    g = a[:2]
    if g[-1] % p:
        square = zpoly.mul(zpoly.mul(g, g), a)
        assert not zpoly.coprime_mod(square, zpoly.diff(square), p)


def test_coprime_mod_with_leading_coefficient_divisible_by_p():
    p = SQUAREFREE_PRIME
    # (p*x + 1)^2 is 1 mod p, so it passes though it is a square; the
    # proof of square-freeness needs p to leave the leading coefficient
    square = zpoly.mul([1, p], [1, p])
    assert zpoly.coprime_mod(square, zpoly.diff(square), p)
    assert not is_squarefree(RatPoly(square))
    # p*x^2 + x + 1 is x + 1 mod p, coprime to its derivative 1
    assert zpoly.coprime_mod([1, 1, p], zpoly.diff([1, 1, p]), p)
    assert zpoly.coprime_mod([1, 1, p], [1, 2 * p], p) == sympy_coprime_mod(
        [1, 1, p], [1, 2 * p], p)
    # both images zero, or one zero and the other of positive degree
    assert not zpoly.coprime_mod([p, 2 * p], [0, p], p)
    assert not zpoly.coprime_mod([p], [1, 1], p)
    assert zpoly.coprime_mod([p], [3], p)
