import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from oracles import unit_residue
from padic_sos.padic import PadicApprox, is_square_in_q2, ord2, padic_sqrt


def test_ord2():
    assert ord2(12) == (2, 3)
    assert ord2(F(1, 4225)) == (0, F(1, 4225))
    assert ord2(F(63, 16 * 65 * 65)) == (-4, F(63, 4225))
    assert ord2(F(-8, 3)) == (3, F(-1, 3))
    with pytest.raises(ValueError):
        ord2(0)


def fraction_ord2(q):
    """``ord2`` as first written: every argument through ``Fraction(q)``."""
    q = F(q)
    if q == 0:
        raise ValueError("ord2(0)")
    num, den = q.numerator, q.denominator
    vn, vd = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
    return vn - vd, F(num >> vn, den >> vd)


def fraction_is_square_in_q2(q):
    q = F(q)
    if q == 0:
        return True
    v, u = fraction_ord2(q)
    return v % 2 == 0 and unit_residue(u, 8) == 1


def outcome(fn, q):
    try:
        return fn(q)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("q", [
    0, 1, -1, 12, -12, 17, -7, 3 << 100, True, False, F(0), F(9, 49), F(-8, 3),
    F(63, 16 * 4225), F(-63, 16 * 4225), "0", "12", "-7/8", "9/49", " 17 ", 0.5, -0.0,
    2.25, Decimal("0.75"), Decimal("-17"), "x", None, [1], float("nan"), float("inf"),
])
def test_valuation_reads_match_the_fraction_forms(q):
    # ints and Fractions are read directly; every other type goes through
    # Fraction(q) as before, with the same result or the same error
    assert outcome(ord2, q) == outcome(fraction_ord2, q)
    assert outcome(is_square_in_q2, q) == outcome(fraction_is_square_in_q2, q)


def test_is_square_in_q2():
    assert is_square_in_q2(17)
    for a in range(1, 6):
        assert is_square_in_q2(1 - 8 * a)
    assert not is_square_in_q2(8)
    assert not is_square_in_q2(3)
    assert not is_square_in_q2(5)
    assert not is_square_in_q2(-1)
    assert is_square_in_q2(0)
    assert is_square_in_q2(4)
    assert is_square_in_q2(F(9, 49))
    assert is_square_in_q2(F(-63, 16 * 4225))


def brute_square_mod(q, k):
    """Independent oracle: clear the valuation, then search residues."""
    v, u = ord2(q)
    if v % 2 != 0:
        return False
    target = unit_residue(u, 1 << k)
    return any((c * c - target) % (1 << k) == 0 for c in range(1, 1 << k, 2))


def test_square_test_against_residue_search():
    rng = random.Random(101)
    for _ in range(400):
        q = F(rng.randint(-5000, 5000), rng.randint(1, 5000))
        if q == 0:
            continue
        assert is_square_in_q2(q) == brute_square_mod(q, 14), q


def test_unit_residue_needs_an_odd_rational():
    assert unit_residue(F(3, 5), 8) == 7  # 5 * 7 = 3 mod 8
    with pytest.raises(ValueError, match="unit residue needs an odd rational"):
        unit_residue(F(2), 8)


def test_square_multiplicativity():
    rng = random.Random(103)
    for _ in range(200):
        u = F(rng.randint(-500, 500), rng.randint(1, 500))
        q = F(rng.randint(1, 99), rng.randint(1, 99))
        if u == 0:
            continue
        assert is_square_in_q2(q * q * u) == is_square_in_q2(u)


def test_padic_sqrt_examples():
    r = padic_sqrt(17, 6)
    assert (r.unit_residue ** 2 - 17) % 64 == 0
    assert r.valuation == 0
    assert padic_sqrt(1, 12).unit_residue == 1
    r = padic_sqrt(4, 4)
    assert r.valuation == 1 and r.unit_residue == 1
    with pytest.raises(ValueError):
        padic_sqrt(3, 8)
    with pytest.raises(ValueError):
        padic_sqrt(0, 8)


def test_padic_sqrt_squares_back_to_input():
    rng = random.Random(107)
    done = 0
    while done < 60:
        q = F(rng.randint(1, 4000), rng.randint(1, 4000))
        if not is_square_in_q2(q) or q == 0:
            continue
        m = rng.choice([5, 8, 16, 40, 64])
        r = padic_sqrt(q, m)
        v, u = ord2(q)
        assert r.valuation * 2 == v
        assert (r.unit_residue ** 2 - unit_residue(u, 1 << m)) % (1 << m) == 0
        done += 1


def test_padic_approx_invariants():
    with pytest.raises(ValueError):
        PadicApprox(valuation=0, unit_residue=6, precision=4)
    with pytest.raises(ValueError):
        PadicApprox(valuation=0, unit_residue=1, precision=0)
    zero = PadicApprox(is_zero=True)
    assert zero.is_zero
