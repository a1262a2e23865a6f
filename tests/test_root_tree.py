"""Differential tests of the 2-adic root tree in ``z2_root_status``.

The oracle is the budgeted residue sieve the tree replaced: it expands
every residue t mod 2^(j+1) with f(t) = 0 mod 2^(j+1) and gives up
(Unknown) past a level budget or a candidate cap.  Wherever it is
conclusive the tree must agree, and every witness the tree returns must
re-verify.
"""

import random
from fractions import Fraction as F

from padic_sos.hensel import (NO_ROOT, ROOT_EXISTS, _certify, verify_root_witness,
                              z2_root_status)
from padic_sos.ratpoly import RatPoly, primitive_integer_coeffs
from padic_sos.record import replace
from padic_sos.reduction import palindromic_counterexample
from padic_sos.zpoly import diff, evaluate

UNKNOWN = "Unknown"


def _sieve(coeffs, budget, even_only, on_reversal, max_candidates):
    dcoeffs = diff(coeffs)
    if even_only:
        level = 1
        candidates = [0] if evaluate(coeffs, 0) % 2 == 0 else []
    else:
        level = 0
        candidates = [0]
    while candidates:
        if level >= budget or len(candidates) > max_candidates:
            return UNKNOWN
        step = 1 << level
        modulus = step << 1
        survivors = []
        for c in candidates:
            for t in (c, c + step):
                if evaluate(coeffs, t) % modulus != 0:
                    continue
                if _certify(coeffs, dcoeffs, t, on_reversal) is not None:
                    return ROOT_EXISTS
                survivors.append(t)
        candidates = survivors
        level += 1
    return NO_ROOT


def sieve_root_status(f, budget=20, max_candidates=4096):
    """The old sieve's tag for f: RootExists, NoRoot or Unknown."""
    coeffs = primitive_integer_coeffs(f)
    if len(coeffs) == 1:
        return NO_ROOT
    tag = _sieve(coeffs, budget, False, False, max_candidates)
    if tag == ROOT_EXISTS or coeffs[-1] % 2 != 0:
        return tag
    rtag = _sieve(coeffs[::-1], budget, True, True, max_candidates)
    if rtag == ROOT_EXISTS:
        return ROOT_EXISTS
    return NO_ROOT if tag == rtag == NO_ROOT else UNKNOWN


def check_against_sieve(f, **sieve_args):
    """Assert agreement and witness validity; True when the sieve was
    conclusive."""
    st = z2_root_status(f)
    assert st.tag in (ROOT_EXISTS, NO_ROOT)
    if st.tag == ROOT_EXISTS:
        assert verify_root_witness(f, st.witness), f
    else:
        assert st.witness is None
    expected = sieve_root_status(f, **sieve_args)
    if expected == UNKNOWN:
        return False
    assert st.tag == expected, f
    return True


def random_int_poly(rng, degree, bound=20):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c]))
    return RatPoly(coeffs)


def test_tree_agrees_with_sieve_on_random_polynomials():
    rng = random.Random(2013)
    conclusive = 0
    for _ in range(300):
        f = random_int_poly(rng, rng.randint(2, 8))
        conclusive += check_against_sieve(f)
    assert conclusive >= 290


def test_tree_agrees_with_sieve_on_alg9_branch_candidates():
    conclusive = total = 0
    for k in (0, 1, 2):
        f, _ = palindromic_counterexample(k, 65)
        d = f.degree
        for ell in range(6, 16):
            for h in (RatPoly([F(1, 2 ** ell)]),
                      RatPoly.monomial(d // 2, F(1, 2 ** ell))):
                total += 1
                conclusive += check_against_sieve(f - h * h, budget=2 * ell + 16,
                                                  max_candidates=256)
    assert total == 60 and conclusive >= 20


def test_tree_agrees_with_sieve_on_square_times_factor():
    rng = random.Random(1996)
    conclusive = 0
    for _ in range(60):
        g = random_int_poly(rng, rng.randint(1, 2), bound=6)
        h = random_int_poly(rng, rng.randint(1, 3), bound=6)
        conclusive += check_against_sieve(g * g * h, budget=16, max_candidates=512)
    assert conclusive >= 45


def test_repeated_root_gets_square_free_part_witness():
    # (x^2 - 17)^2 (x^2 + 3): both 2-adic roots are double roots
    f = RatPoly([-17, 0, 1]) ** 2 * RatPoly([3, 0, 1])
    st = z2_root_status(f)
    assert st.tag == ROOT_EXISTS and st.witness.on_squarefree_part
    assert verify_root_witness(f, st.witness)
    # the same residue is no witness on f itself
    assert not verify_root_witness(f, replace(st.witness, on_squarefree_part=False))
    # a square factor without 2-adic roots leaves the verdict alone
    assert z2_root_status(RatPoly([3, 0, 1]) ** 2 * RatPoly([5, 0, 1])).tag == NO_ROOT
    # a simple root of f keeps a witness on f
    st = z2_root_status(RatPoly([-17, 0, 1]) * RatPoly([3, 0, 1]) ** 2)
    assert st.tag == ROOT_EXISTS and not st.witness.on_squarefree_part
