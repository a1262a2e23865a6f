import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padic_sos import zpoly
from padic_sos.f2 import (f2_degree, f2_divmod, f2_factor, f2_from_coeffs,
                          f2_mod, f2_mul, f2_to_str, f2_xgcd)
from padic_sos.hensel import (NO_ROOT, ROOT_EXISTS, RootStatus, hensel_split,
                              newton_refine, verify_root_witness,
                              z2_root_status)
from padic_sos.ratpoly import RatPoly, primitive_integer_coeffs

CYC = RatPoly([1, 1, 1])


# ---------------------------------------------------------------------------
# GF(2) layer
# ---------------------------------------------------------------------------

def test_f2_arithmetic_roundtrip():
    rng = random.Random(51)
    for _ in range(100):
        a = rng.getrandbits(12)
        b = rng.getrandbits(8) | 1
        q, r = f2_divmod(a, b)
        assert f2_mul(q, b) ^ r == a
        assert f2_degree(r) < f2_degree(b)
        d, s, t = f2_xgcd(a | 1, b)
        assert f2_mul(s, a | 1) ^ f2_mul(t, b) == d


def test_f2_factor_examples():
    assert f2_factor(0b10101) == [(0b111, 2)]          # x^4+x^2+1
    assert f2_factor(0b110) == [(0b10, 1), (0b11, 1)]  # x^2+x
    # (x^2+x+1)^(2k) * x^2 shape, for k = 2
    a = 0b100
    for _ in range(4):
        a = f2_mul(a, 0b111)
    assert f2_factor(a) == [(0b10, 2), (0b111, 4)]
    assert f2_to_str(0b111) == "x^2 + x + 1"


def test_f2_factor_reconstructs_and_is_irreducible():
    rng = random.Random(53)
    for _ in range(120):
        f = rng.getrandbits(13) | (1 << 13)
        prod = 1
        for p, mult in f2_factor(f):
            for q in range(2, p):
                if f2_degree(q) >= 1 and 2 * f2_degree(q) <= f2_degree(p):
                    assert f2_mod(p, q) != 0
            for _ in range(mult):
                prod = f2_mul(prod, p)
        assert prod == f


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------

def assert_split(f, g1, h1, res):
    m = res.modulus
    coeffs = [int(c * res.scale) % m for c in f.coeffs]
    prod = [0] * (len(res.g) + len(res.h) - 1)
    for i, a in enumerate(res.g):
        for j, b in enumerate(res.h):
            prod[i + j] = (prod[i + j] + a * b) % m
    assert prod[:len(coeffs)] == coeffs[:len(prod)] and all(
        c == 0 for c in prod[len(coeffs):])
    assert res.g[-1] == 1  # monic
    assert f2_from_coeffs(res.g) == g1
    assert f2_from_coeffs(res.h) == h1


def test_hensel_split_quadratic_with_even_root():
    f = RatPoly([6, 1, 1])
    res = hensel_split(f, 0b10, 0b11, 8)
    assert_split(f, 0b10, 0b11, res)
    brute = [r for r in range(256) if (r * r + r + 6) % 256 == 0 and r % 2 == 0]
    assert [(-res.g[0]) % 256] == brute
    assert brute[0] % 4 == 2


def test_hensel_split_exact_integer_factorization():
    f = RatPoly([2, 3, 1])  # (x+2)(x+1)
    res = hensel_split(f, 0b10, 0b11, 16)
    assert res.g == (2, 1) and res.h == (1, 1)


def test_hensel_split_twice_odd_shape():
    q = RatPoly([3, 0, 1, 0, 0, 0, 1]) * 16 - (CYC ** 2) * RatPoly.monomial(2)
    g1 = f2_mul(f2_mul(0b111, 0b111), 1)
    res = hensel_split(q, g1, 0b100, 64)
    assert_split(q, g1, 0b100, res)
    assert len(res.g) - 1 == 4 and len(res.h) - 1 == 2


def test_hensel_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hensel_split(RatPoly([6, 1, 1]), 0b10, 0b10, 8)  # product mismatch too
    with pytest.raises(ValueError, match="not coprime mod 2"):
        hensel_split(RatPoly([0, 0, 1]), 0b10, 0b10, 8)
    with pytest.raises(ValueError):
        hensel_split(RatPoly([1, 1, 1]), 0b10, 0b11, 8)  # product mismatch
    for precision in (1, 8):  # 2x + 2 = 0 * 1 mod 2, but no monic g has image 0
        with pytest.raises(ValueError, match="g1 is zero"):
            hensel_split(RatPoly([2, 2]), 0, 1, precision)
    f = RatPoly([6, 1, 1])
    assert_split(f, 0b10, 0b11, hensel_split(f, 0b10, 0b11, 1))
    with pytest.raises(ValueError, match="precision must be positive"):
        hensel_split(f, 0b10, 0b11, 0)


def test_hensel_split_with_odd_denominators():
    f = RatPoly([F(6, 5), F(1, 5), F(1, 5)])
    res = hensel_split(f, 0b10, 0b11, 8)
    assert res.scale == 5
    assert_split(f, 0b10, 0b11, res)


@st.composite
def coprime_splits(draw):
    """(f, g1, h1): f with odd-denominator coefficients, and the image of
    scale*f mod 2 split into coprime g1*h1 by sending each irreducible
    power of its factorization to one side."""
    nums = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=9))
    dens = st.sampled_from([1, 1, 3, 5, 7, 9, 15])
    f = RatPoly([F(n, draw(dens)) for n in nums])
    image = f2_from_coeffs([f.content.numerator * c for c in f.primitive_part])
    assume(image)
    g1 = h1 = 1
    for p, mult in f2_factor(image):
        power = 1
        for _ in range(mult):
            power = f2_mul(power, p)
        if draw(st.booleans()):
            g1 = f2_mul(g1, power)
        else:
            h1 = f2_mul(h1, power)
    return f, g1, h1


@settings(max_examples=60, deadline=None)
@given(coprime_splits(), st.integers(1, 64), st.integers(1, 64))
def test_hensel_split_lifts_agree_across_precisions(split, k, big_k):
    """The lift at K is monic with the right images, has coefficients in
    [0, 2^K) and multiplies back to scale*f mod 2^K; reduced mod 2^k for
    k <= K it is the lift at k."""
    f, g1, h1 = split
    k, big_k = min(k, big_k), max(k, big_k)
    low, high = hensel_split(f, g1, h1, k), hensel_split(f, g1, h1, big_k)
    assert high.g[-1] == 1
    assert (f2_from_coeffs(high.g), f2_from_coeffs(high.h)) == (g1, h1)
    assert all(0 <= c < high.modulus for c in high.g + high.h)
    scaled = [int(c * high.scale) for c in f.coeffs]
    assert all(c % high.modulus == 0 for c in zpoly.sub(scaled, zpoly.mul(high.g, high.h)))
    assert ([zpoly.trim([c % (1 << k) for c in lift]) for lift in (high.g, high.h)]
            == [list(low.g), list(low.h)])


# ---------------------------------------------------------------------------
# Root status
# ---------------------------------------------------------------------------

def no_residue_root(coeffs, m, even_only=False):
    """No residue t mod 2^m (even t only, if asked) has 2^m | f(t)."""
    return all(sum(c * t ** i for i, c in enumerate(coeffs)) % (1 << m)
               for t in range(0, 1 << m, 2 if even_only else 1))


def test_root_status_examples():
    st = z2_root_status(RatPoly([-17, 0, 1]))
    assert st.tag == ROOT_EXISTS
    assert verify_root_witness(RatPoly([-17, 0, 1]), st.witness)
    st = z2_root_status(RatPoly([-3, 0, 1]))
    assert st.tag == NO_ROOT
    assert no_residue_root([-3, 0, 1], 2)  # x^2 - 3 has no root mod 4
    st = z2_root_status(RatPoly([3, 0, 1]))
    assert st.tag == NO_ROOT
    assert no_residue_root([3, 0, 1], 3)  # x^2 + 3 has no root mod 8
    assert not no_residue_root([3, 0, 1], 2)
    # rational roots with odd denominator are 2-adic integers
    st = z2_root_status(RatPoly([-1, 3]))
    assert st.tag == ROOT_EXISTS
    # reciprocal root of negative valuation, found through the reversal
    st = z2_root_status(RatPoly([-1, 0, 4]))
    assert st.tag == ROOT_EXISTS and st.witness.on_reversal
    # a nonzero constant has no root; zero has every root
    assert z2_root_status(RatPoly([F(3, 2)])) == RootStatus(NO_ROOT, None)
    with pytest.raises(ValueError, match="every root"):
        z2_root_status(RatPoly())


def test_root_status_on_twice_odd_family_with_square_constant():
    # f(0) of the form 2^(2a)(8b+1) forces a root of the scaled family
    f = RatPoly([9, 0, 1, 0, 0, 0, 1])  # f(0) = 9, a = 0, b = 1
    ell = 4
    q = f * (4 ** ell) - (CYC ** 2) * RatPoly.monomial(2)
    gamma, delta = 2 ** ell, ell + 1
    coeffs = [int(c) for c in q.coeffs]
    val = sum(c * gamma ** i for i, c in enumerate(coeffs))
    dval = sum(i * c * gamma ** (i - 1) for i, c in enumerate(coeffs) if i)
    assert val % (1 << (2 * delta + 1)) == 0
    assert dval % (1 << delta) == 0 and dval % (1 << (delta + 1)) != 0
    assert z2_root_status(q).tag == ROOT_EXISTS


def test_no_root_reverifies_exhaustively():
    # x^3 + 2x + 5 has the root class 1 mod 2; the other two have none,
    # which the residues mod 2^m (the reversal: even residues mod 2^mr)
    # already show
    st = z2_root_status(RatPoly([5, 2, 0, 1]))
    assert st.tag == ROOT_EXISTS
    assert verify_root_witness(RatPoly([5, 2, 0, 1]), st.witness)
    for f, m, mr in ((RatPoly([3, 0, 1]), 3, None), (RatPoly([1, 0, 4]), 1, 4)):
        assert z2_root_status(f).tag == NO_ROOT
        coeffs = primitive_integer_coeffs(f)
        assert no_residue_root(coeffs, m)
        if mr is not None:
            assert no_residue_root(list(reversed(coeffs)), mr, even_only=True)


def brute_has_residue_root_mod_2_16(coeffs):
    c = np.arange(1 << 16, dtype=np.uint64)
    acc = np.zeros(1 << 16, dtype=np.uint64)
    for coef in reversed(coeffs):
        acc = (acc * c + np.uint64(coef % (1 << 16))) & np.uint64(0xFFFF)
    return bool((acc == 0).any())


def test_agreement_with_residue_enumeration():
    rng = random.Random(61)
    checked = 0
    for _ in range(200):
        deg = rng.choice([3, 4])
        coeffs = [rng.randint(-40, 40) for _ in range(deg)] + [rng.choice([1, 3, 5, -3])]
        f = RatPoly(coeffs)
        st = z2_root_status(f)
        brute = brute_has_residue_root_mod_2_16(coeffs)
        if st.tag == ROOT_EXISTS:
            assert verify_root_witness(f, st.witness)
            if not st.witness.on_reversal:
                assert brute
        else:
            assert not brute
        checked += 1
    assert checked == 200


def test_newton_refine():
    f = RatPoly([-17, 0, 1])
    st = z2_root_status(f)
    r = newton_refine(f, st.witness.gamma, st.witness.delta, 10)
    assert (r * r - 17) % (1 << 10) == 0
    assert newton_refine(RatPoly([-5, 1]), 5, 0, 8) == 5
    # (x-1)(x-3): gamma = 1 has delta = 1, refines to the exact root 1
    f = RatPoly([3, -4, 1])
    assert newton_refine(f, 1, 1, 8) == 1
    with pytest.raises(ValueError):
        newton_refine(RatPoly([-17, 0, 1]), 1, 2, 8)  # f'(1) has order 1, not 2
    with pytest.raises(ValueError):
        newton_refine(RatPoly([-3, 0, 1]), 1, 1, 8)  # f(1) = -2, order 1 < 3
    with pytest.raises(ValueError):
        newton_refine(RatPoly([1, -2, 1]), 1, None, 8)  # a double root has no delta
    assert newton_refine(RatPoly([-17, 0, 1]), 1, 1, 1) == 1
    for precision in (0, -3):
        with pytest.raises(ValueError, match="precision must be positive"):
            newton_refine(RatPoly([-17, 0, 1]), 1, 1, precision)


def test_newton_refine_valuation_invariant():
    f = RatPoly([7, 0, 0, 1])  # x^3 + 7 has the root -cbrt(7) in Z_2
    st = z2_root_status(f)
    assert st.tag == ROOT_EXISTS
    for m in (8, 20, 50):
        r = newton_refine(f, st.witness.gamma, st.witness.delta, m)
        assert (r ** 3 + 7) % (1 << m) == 0


def test_odd_clearing_reads_the_content_denominator():
    import math
    from padic_sos.hensel import _odd_cleared_scaled
    rng = random.Random(5)
    for _ in range(200):
        f = RatPoly([F(rng.randint(-50, 50), rng.choice((1, 3, 5, 9, 15, 21)))
                     for _ in range(rng.randint(1, 7))])
        if f.is_zero:
            continue
        lcm = math.lcm(*(c.denominator for c in f.coeffs))
        assert _odd_cleared_scaled(f) == ([int(c * lcm) for c in f.coeffs], lcm)
    assert _odd_cleared_scaled(RatPoly([F(1, 3), F(2, 5), 7])) == ([5, 6, 105], 15)
    with pytest.raises(ValueError, match="not 2-adically integral"):
        _odd_cleared_scaled(RatPoly([F(1, 6), 1]))
