"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything asserts exact equality (the library is exact rational and
residue arithmetic throughout); run with ``pytest -s`` to see the
per-criterion lines.
"""

import json
import random
from fractions import Fraction as F

from oracles import unit_residue
from padic_sos.certifier import (INCONCLUSIVE, NOT_SOS4, SOS4, OddSquareSplit,
                                 certify_sos4, complete_square_split,
                                 verify_certificate)
from padic_sos.f2 import f2_mul
from padic_sos.hensel import ROOT_EXISTS, hensel_split, z2_root_status
from padic_sos.newton_polygon import newton_diagram
from padic_sos.padic import is_square_in_q2, ord2, padic_sqrt
from padic_sos.ratpoly import (RatPoly, count_distinct_and_real_roots,
                               discriminant, hankel_matrix,
                               is_positive_on_reals, is_squarefree,
                               rank_signature, sturm_real_root_count)
from padic_sos.reduction import (NonTermination, ObstructionReport,
                                 ReductionResult,
                                 palindromic_counterexample, reduce_auto,
                                 reduce_constant_three_mod_four,
                                 reduce_cyclotomic_power,
                                 reduce_iterative, reduce_multiple_of_four,
                                 reduce_twice_odd_degree,
                                 square_plus_8a_minus_1)
from padic_sos.serialize import certificate_to_json, poly_from_json, poly_to_json

CYC = RatPoly([1, 1, 1])
PIPELINE_RULES = {"odd_split_witness", "simple_z2_root", "two_square_split",
                  "eisenstein", "pure_even_divisor", "mod2_even_degrees"}

collected_results: dict[str, list[tuple[RatPoly, ReductionResult]]] = {}


def _collect(key, f, res):
    collected_results.setdefault(key, []).append((f, res))
    return res


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_nonterminating_family():
    for k, n in [(0, 65), (0, 67), (1, 65)]:
        f, _ = palindromic_counterexample(k, n)
        outcome = reduce_iterative(f, cap=40)
        assert isinstance(outcome, NonTermination)
        assert len(outcome.iterates) == 40
        for it in outcome.iterates:
            for rec in (it.branch_a, it.branch_b):
                assert rec.verdict in (NOT_SOS4, INCONCLUSIVE)
                if rec.certificate is not None and rec.verdict == NOT_SOS4:
                    assert verify_certificate(rec.candidate, rec.certificate)
            ev = it.branch_a.certificate.evidence
            assert isinstance(ev, OddSquareSplit)
            v, u = ord2(-ev.c)
            assert v % 2 == 0
            assert (u.numerator * u.denominator) % 8 == 1
    _ok("01 non-terminating counterexample family")


def test_criterion_02_square_plus_8a_minus_1_family():
    gs = [RatPoly([0, 1]), RatPoly([1, 1, 0, 1]), RatPoly([1, 2, 0, 0, 0, 1])]
    for g in gs:
        for a in (1, 2, 3):
            f, witness = square_plus_8a_minus_1(g, a)
            assert certify_sos4(f, witness=witness).verdict == NOT_SOS4
            for l in range(2, 11):
                shifted = f - F(1, 4 ** l)
                assert certify_sos4(shifted).verdict == NOT_SOS4
    _ok("02 square-plus-(8a-1) family stays NOT_SOS4")


def test_criterion_03_degree_four_terminates():
    chosen = []
    for s in range(1, 13):
        for c in (7, 15, 23, 31, 39, 47):
            f = (RatPoly([-s, 0, 1]) ** 2) + RatPoly([c])
            assert is_square_in_q2(-F(c))
            status = z2_root_status(f)
            if status.tag == ROOT_EXISTS and is_squarefree(f):
                chosen.append(f)
        if len(chosen) >= 5:
            break
    assert len(chosen) >= 5
    for f in chosen[:5]:
        res = reduce_multiple_of_four(f)
        assert res.parameters["gcd_increments"] <= 2
        assert res.certificate.evidence.divisor == 2
        # single segment carrying exactly three lattice points
        seg = res.certificate.evidence.diagram.segments[0]
        assert seg.lattice_length == 2
        assert verify_certificate(res.residual, res.certificate)
        _collect("algn", f, res)
    _ok("03 degree-4 reduction terminates with e = 2")


def test_criterion_04_halfdegree_binomial_reduction():
    f = RatPoly([3, 0, 1])
    res = _collect("nos", f, reduce_constant_three_mod_four(f))
    assert (res.parameters["N"], res.parameters["l"]) == (3, 1)
    assert res.h == RatPoly([F(1, 3), F(1, 2)])
    diagram = newton_diagram(res.residual)
    assert diagram.vertices == ((0, 1), (2, -2))
    assert diagram.segments[0].lattice_length == 1
    assert ord2(res.residual[0])[0] == 2 * res.parameters["a"] + 1

    base, _ = palindromic_counterexample(0, 65)
    g = (base * (65 * 65)).shift(-1)
    assert g == RatPoly([7, -7, 4]) and g[0] == 7
    res = _collect("nos", g, reduce_constant_three_mod_four(g))
    assert ord2(res.residual[0])[0] == 2 * res.parameters["a"] + 1
    _ok("04 half-degree binomial reduction (constant 3 mod 4)")


def test_criterion_05_cyclotomic_power_reduction():
    f = RatPoly([1, 0, 1, 0, 1])
    res = _collect("gr4", f, reduce_cyclotomic_power(f))
    assert res.parameters["l"] <= 4
    assert is_positive_on_reals(res.residual).verdict
    assert res.certificate.evidence.factors == ((0b111, 2),)

    rng = random.Random(2027)
    produced = {2: 0, 4: 0}
    while produced[2] < 3 or produced[4] < 2:
        half = 2 if produced[2] < 3 else 4
        q1 = RatPoly([rng.randint(-5, 5) for _ in range(half)] + [rng.randint(1, 5)])
        q2 = RatPoly([rng.randint(-5, 5) for _ in range(half + 1)])
        f = q1 * q1 + q2 * q2 + RatPoly([rng.randint(1, 3)])
        if f.degree != 2 * half or not is_squarefree(f):
            continue
        res = reduce_cyclotomic_power(f)
        assert res.certificate.verdict == SOS4
        assert verify_certificate(res.residual, res.certificate)
        _collect("gr4", f, res)
        produced[half] += 1
    _ok("05 cyclotomic-power reduction (degree 4k)")


def test_criterion_06_twice_odd_degree_paths():
    rep = reduce_twice_odd_degree(RatPoly([1, 0, 1]))
    assert isinstance(rep, ObstructionReport)
    assert rep.gamma == 2 ** rep.ell and rep.delta == rep.ell + 1
    q = RatPoly([1, 0, 1]) * (4 ** rep.ell) - RatPoly.monomial(2)
    assert q(rep.gamma) != 0
    assert ord2(q(rep.gamma))[0] >= 2 * rep.delta + 1
    assert ord2(q.derivative()(rep.gamma))[0] == rep.delta
    assert verify_certificate(rep.residual, rep.certificate)

    f = RatPoly([3, 0, 1])
    res = _collect("picky", f, reduce_twice_odd_degree(f))
    assert res.certificate.verdict == SOS4

    f6 = RatPoly([3, 0, 1, 0, 0, 0, 1])
    res = _collect("picky", f6, reduce_twice_odd_degree(f6))
    ell = res.parameters["l"]
    q = f6 * (4 ** ell) - (CYC ** 2) * RatPoly.monomial(2)
    g1 = f2_mul(0b111, 0b111)
    split = hensel_split(q, g1, 0b100, precision=64)
    assert split.modulus == 1 << 64
    prod = [0] * (len(split.g) + len(split.h) - 1)
    for i, x in enumerate(split.g):
        for j, y in enumerate(split.h):
            prod[i + j] = (prod[i + j] + x * y) % split.modulus
    qc = [int(c) % split.modulus for c in q.coeffs]
    assert prod == qc[:len(prod)]
    _ok("06 twice-odd-degree reduction and obstruction")


def test_criterion_07_always_square_obstruction():
    f = RatPoly([9, 0, 0, 4, 0, 0, 4])
    rng = random.Random(404)
    for _ in range(100):
        q = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        assert is_square_in_q2(f(q))
    split = complete_square_split(f)
    assert split is not None and split[1] != 0  # not a polynomial square
    outcome = reduce_auto(f)
    assert not isinstance(outcome, ReductionResult)
    assert "2-adic square" in outcome.note
    _ok("07 always-square obstruction stays INCONCLUSIVE")


def test_criterion_08_hankel_matches_sturm():
    rng = random.Random(808)
    done = 0
    while done < 50:
        deg = rng.randint(1, 8)
        f = RatPoly([rng.randint(-9, 9) for _ in range(deg)]
                    + [rng.choice([1, -1]) * rng.randint(1, 9)])
        if f.degree != deg or discriminant(f) == 0:
            continue
        rank, sig = count_distinct_and_real_roots(f)
        assert (rank, sig) == rank_signature(hankel_matrix(f))
        assert rank == deg
        assert sig == sturm_real_root_count(f)
        done += 1
    _ok("08 Hankel rank/signature equals Sturm count")


def test_criterion_09_square_test_brute_force():
    modulus = 1 << 20
    odd_squares = {c * c % modulus for c in range(1, modulus, 2)}

    def brute(q):
        v, u = ord2(q)
        if v % 2 != 0:
            return False
        return unit_residue(u, modulus) in odd_squares

    rng = random.Random(909)
    for _ in range(1000):
        q = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        if q == 0:
            continue
        assert is_square_in_q2(q) == brute(q)

    r = padic_sqrt(17, 6)
    assert (r.unit_residue ** 2 - 17) % 64 == 0
    assert 9 * 9 % 64 == 17 % 64  # the documented witness residue
    _ok("09 2-adic square test agrees with residue enumeration")


def test_criterion_10_exactness_and_no_regression():
    batches = [collected_results.get(k, []) for k in ("algn", "nos", "gr4", "picky")]
    results = [pair for batch in batches for pair in batch]
    assert len(results) >= 9
    for f, res in results:
        assert f - res.h * res.h == res.residual
        round_trip = poly_from_json(json.loads(json.dumps(poly_to_json(res.residual))))
        assert round_trip == res.residual
        stored = json.dumps(certificate_to_json(res.certificate), sort_keys=True)
        assert verify_certificate(round_trip, res.certificate)
        if res.certificate.rule in PIPELINE_RULES:
            fresh = certify_sos4(round_trip)
            assert json.dumps(certificate_to_json(fresh), sort_keys=True) == stored
        else:
            again = json.dumps(certificate_to_json(res.certificate), sort_keys=True)
            assert again == stored
        assert res.certificate.verdict == SOS4
    _ok("10 exact reconstruction and byte-identical re-certification")
