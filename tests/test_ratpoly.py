import random
from fractions import Fraction as F

import pytest

from padic_sos.ratpoly import (RatPoly,
                               count_distinct_and_real_roots, discriminant,
                               epsilon_below_infimum, hankel_matrix,
                               is_positive_on_reals, is_squarefree,
                               perturbation_bound, poly_gcd, power_sums, primitive_integer_coeffs,
                               rank_signature, squarefree_decomposition,
                               sturm_real_root_count, sylvester_resultant)
from padic_sos.reduction import palindromic_counterexample

from oracles import fraction_divmod, naive_det, sturm_chain_count, sylvester_rows

X2P1 = RatPoly([1, 0, 1])
FKN, _ = palindromic_counterexample(0, 65)


def random_poly(rng, degree, lo=-9, hi=9):
    coeffs = [rng.randint(lo, hi) for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.randint(lo, hi)
    return RatPoly(coeffs + [lead])


def test_evaluate():
    assert X2P1(0) == 1
    assert X2P1(F(1, 2)) == F(5, 4)
    assert FKN(0) == F(4, 4225)


def test_shift():
    assert RatPoly([0, 0, 1]).shift(1) == RatPoly([1, 2, 1])
    f = RatPoly([3, -2, 5])
    assert f.shift(0) == f
    scaled = FKN * (65 * 65)
    assert scaled.shift(-1)[0] == 7
    # round trip at random shift points
    rng = random.Random(11)
    for _ in range(20):
        g = random_poly(rng, rng.randint(1, 6))
        a = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert g.shift(a).shift(-a) == g
        t = F(rng.randint(-3, 3), rng.randint(1, 5))
        assert g.shift(a)(t) == g(t + a)


def test_reverse():
    assert RatPoly([3, 2, 1]).reverse() == RatPoly([1, 2, 3])
    assert FKN.reverse() == FKN
    assert X2P1.reverse() == X2P1
    # degree drops when the constant term vanishes
    assert RatPoly([0, 1, 1]).reverse() == RatPoly([1, 1])
    rng = random.Random(5)
    for _ in range(20):
        g = random_poly(rng, rng.randint(1, 6))
        if g[0] != 0:
            assert g.reverse().reverse() == g


def test_sylvester_resultant_against_cofactor_expansion():
    cases = [
        (X2P1, RatPoly([0, 2]), F(4)),
        (RatPoly([-1, 1]), RatPoly([-2, 1]), F(-1)),
    ]
    for f, g, expected in cases:
        assert sylvester_resultant(f, g) == expected
        assert naive_det(sylvester_rows(f, g)) == expected
    assert sylvester_resultant(RatPoly([0, 1]), RatPoly([0, 1])) == 0
    rng = random.Random(2)
    for _ in range(10):
        f = random_poly(rng, rng.randint(1, 4))
        g = random_poly(rng, rng.randint(1, 3))
        assert sylvester_resultant(f, g) == naive_det(sylvester_rows(f, g))
    with pytest.raises(ValueError):
        sylvester_resultant(RatPoly(), X2P1)


def test_discriminant():
    assert discriminant(X2P1) == 4
    assert discriminant(RatPoly([0, 0, 1])) == 0
    assert discriminant(RatPoly([2, -3, 1])) != 0
    with pytest.raises(ValueError):
        discriminant(RatPoly([3]))


def test_discriminant_vanishes_iff_gcd_nonconstant():
    rng = random.Random(3)
    for _ in range(25):
        f = random_poly(rng, rng.randint(2, 5))
        if rng.random() < 0.5:
            f = f * f  # force a repeated factor
        nonconstant_gcd = poly_gcd(f, f.derivative()).degree > 0
        assert (discriminant(f) == 0) == nonconstant_gcd


def test_power_sums():
    assert power_sums(X2P1) == [2, 0, -2]
    assert power_sums(RatPoly([2, -3, 1])) == [2, 3, 5]
    assert power_sums(RatPoly([1, -2, 1])) == [2, 2, 2]


def test_power_sums_recurrence():
    rng = random.Random(13)
    for _ in range(25):
        f = random_poly(rng, rng.randint(1, 8))
        d = f.degree
        s = power_sums(f)
        for k in range(d, 2 * d - 1):
            assert sum(f[d - i] * s[k - i] for i in range(d + 1)) == 0


def test_hankel_matrix():
    assert hankel_matrix(X2P1) == ((2, 0), (0, -2))
    assert hankel_matrix(RatPoly([2, -3, 1])) == ((2, 3), (3, 5))
    assert hankel_matrix(RatPoly([-5, 1])) == ((1,),)


def test_rank_signature():
    assert rank_signature([[2, 0], [0, -2]]) == (2, 0)
    assert rank_signature([[2, 3], [3, 5]]) == (2, 2)
    assert rank_signature([[0, 0], [0, 0]]) == (0, 0)
    # hyperbolic block: zero diagonal, nonzero off-diagonal
    assert rank_signature([[0, 1], [1, 0]]) == (2, 0)
    assert rank_signature([[0, 2, 0], [2, 0, 0], [0, 0, 3]]) == (3, 1)
    with pytest.raises(ValueError):
        rank_signature([[0, 1], [2, 0]])


def test_rank_signature_matches_random_congruence():
    # signature is invariant under congruence by a random invertible matrix
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 4)
        diag = [rng.choice([-2, -1, 0, 1, 3]) for _ in range(n)]
        c = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        det = naive_det([row[:] for row in c])
        if det == 0:
            continue
        m = [[sum(c[i][k] * diag[k] * c[j][k] for k in range(n))
              for j in range(n)] for i in range(n)]
        pos = sum(1 for d in diag if d > 0)
        neg = sum(1 for d in diag if d < 0)
        assert rank_signature(m) == (pos + neg, pos - neg)


def test_count_distinct_and_real_roots():
    assert count_distinct_and_real_roots(X2P1) == (2, 0)
    assert count_distinct_and_real_roots(RatPoly([2, -3, 1])) == (2, 2)
    assert count_distinct_and_real_roots(RatPoly([1, -2, 1])) == (1, 1)


def test_sturm_real_root_count():
    assert sturm_real_root_count(X2P1) == 0
    assert sturm_real_root_count(RatPoly([2, -3, 1])) == 2
    assert sturm_real_root_count(RatPoly([0, -1, 0, 1])) == 3
    with pytest.raises(ValueError):
        sturm_real_root_count(RatPoly([0, 0, 1]))


def test_hankel_signature_agrees_with_sturm():
    rng = random.Random(23)
    done = 0
    while done < 50:
        f = random_poly(rng, rng.randint(1, 8))
        if discriminant(f) == 0:
            continue
        rank, sig = count_distinct_and_real_roots(f)
        assert (rank, sig) == rank_signature(hankel_matrix(f))
        assert rank == f.degree
        assert sig == sturm_real_root_count(f) == sturm_chain_count(f)
        done += 1


def test_is_squarefree():
    assert is_squarefree(X2P1)
    assert not is_squarefree(RatPoly([0, 0, 1]))
    assert is_squarefree(RatPoly([9, 0, 0, 4, 0, 0, 4]))


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(29)
    for _ in range(15):
        f = random_poly(rng, rng.randint(1, 3))
        g = random_poly(rng, rng.randint(1, 2))
        prod = f * g * g
        unit, parts = squarefree_decomposition(prod)
        rebuilt = RatPoly([unit])
        for p, mult in parts:
            assert p.leading == 1
            assert is_squarefree(p)
            rebuilt = rebuilt * p ** mult
        assert rebuilt == prod


def test_is_positive_on_reals():
    assert is_positive_on_reals(X2P1).verdict
    cert = is_positive_on_reals(RatPoly([-1, 0, 1]))
    assert not cert.verdict and cert.signature == 2
    assert is_positive_on_reals(FKN).verdict
    # square factors are fine: positivity is decided on the square-free part
    assert is_positive_on_reals(X2P1 * X2P1).verdict
    assert not is_positive_on_reals(RatPoly([0, 0, 1])).verdict


def test_epsilon_below_infimum():
    eps = epsilon_below_infimum(X2P1)
    assert eps == F(1, 2)
    eps = epsilon_below_infimum(FKN)
    assert 0 < eps < F(63, 16 * 65 * 65)
    assert epsilon_below_infimum(RatPoly([1, 0, 2, 0, 1])) == F(1, 2)
    with pytest.raises(ValueError):
        epsilon_below_infimum(RatPoly([-1, 0, 1]))
    # f - 2^-k is zero, not positive, at 2^-k = f: a dyadic f <= 1 gets f/2
    assert epsilon_below_infimum(RatPoly([1])) == F(1, 2)
    assert epsilon_below_infimum(RatPoly([F(1, 2)])) == F(1, 4)
    assert epsilon_below_infimum(RatPoly([3])) == 1
    assert epsilon_below_infimum(RatPoly([F(3, 4)])) == F(1, 2)


def test_epsilon_gap_is_positive_at_sampled_points():
    rng = random.Random(31)
    for f in (X2P1, FKN, RatPoly([1, 0, 2, 0, 1]), RatPoly([5, 2, 3])):
        eps = epsilon_below_infimum(f)
        g = f - eps
        for _ in range(100):
            t = F(rng.randint(-50, 50), rng.randint(1, 20))
            assert g(t) > 0


def test_perturbation_bound():
    assert perturbation_bound(X2P1, RatPoly([-1])) <= F(1, 2)
    assert perturbation_bound(X2P1, RatPoly()) == 1
    f = RatPoly([1, 0, 1, 0, 1])
    g = -(RatPoly([1, 1, 1]) ** 2)
    eps0 = perturbation_bound(f, g)
    assert is_positive_on_reals(f + g * eps0).verdict
    # the documented smaller value is admissible as well
    assert is_positive_on_reals(f + g * F(1, 16)).verdict
    with pytest.raises(ValueError):
        perturbation_bound(X2P1, RatPoly([0] * 3 + [1]))  # deg g too big
    with pytest.raises(ValueError, match="square-free"):
        perturbation_bound(X2P1 * X2P1, RatPoly([-1]))
    with pytest.raises(ValueError, match="positive on R"):
        perturbation_bound(RatPoly([-1, 0, 1]), RatPoly([-1]))


def test_primitive_integer_coeffs():
    assert primitive_integer_coeffs(FKN) == [4, 1, 4]
    assert primitive_integer_coeffs(RatPoly([F(2, 3), F(4, 3)])) == [1, 2]
    assert primitive_integer_coeffs(RatPoly([-2, 4])) == [-1, 2]


def test_division_and_gcd():
    f = RatPoly([2, -3, 1])
    q, r = fraction_divmod(f.coeffs, [-1, 1])
    assert RatPoly(q) == RatPoly([-2, 1]) and r == []
    assert poly_gcd(f, RatPoly([-1, 1])) == RatPoly([-1, 1])
    assert poly_gcd(X2P1, RatPoly([1])).degree == 0
