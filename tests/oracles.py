"""Independent reference implementations for the ratpoly kernel and
the 2-adic root witnesses.

The library computes root counts, gcds, Sturm counts, resultants and
discriminants on one Sturm-signed subresultant sequence.  These are the
slower paths it replaced, kept here as oracles:

* the primitive remainder sequence, which divides every term by its
  content, with the root counts and the monic gcd read off it;
* the Sturm chain over Fractions, on the oracle's own long division
  (``fraction_divmod``), since ``RatPoly`` has no division;
* the Sylvester matrix with a Fraction elimination determinant and a
  cofactor expansion.

The library checks a root witness, and finds the PICKY obstruction's
witness, with the root tree's own check (``hensel._certify``).  The
conditions written out on their own, as they were before, are kept
here too:

* ``verify_root_witness``: delta and the modulus against f at gamma,
  then f(gamma) = 0 for an exact witness and f(gamma) = 0 mod the
  modulus otherwise;
* ``obstruction_witness``: the l-search of ``reduce_twice_odd_degree``
  on rational values of q = 4^l f - base and of q'.

The ALG6 / ALGN slope bound l3 of ``reduction._valuation_bounds`` runs
on the integer model; ``slope_bound`` is its first form, a Fraction
slope per nonzero middle coefficient.

The library's searches have no budget.  The budgeted searches they
replaced are kept here: the epsilon and perturbation searches that
halved at most 128 times (``halving_epsilon``, ``halving_perturbation``)
and NOS's 49 x 64 grid of (N, l) (``nos_grid``).

The library splits f into square-free parts by Musser's algorithm on
the gcd(f, f') its positivity gate computes.  Yun's algorithm, which it
replaced, is kept as ``yun_squarefree_decomposition``, on the gcds of
the primitive remainder sequence.

The library lifts every 2-adic root with one Newton loop,
``zpoly.lift_root``, which ends when the root is known to the target
precision.  The three loops it replaced are kept here:

* ``y_coordinate_lift``: the root tree's lift of a simple root of
  g mod 2, a Newton step on g at each doubled modulus 2^k;
* ``fixed_modulus_newton_refine``: ``newton_refine`` on the odd-cleared
  model (the content's numerator times the primitive part), with steps
  mod 2^(precision+delta+4) and a budget of 2*bit_length+8 of them;
* ``budgeted_padic_sqrt``: Newton's iteration on x^2 - u from 1 with
  two guard digits and a budget of bit_length+3 steps, on the residue
  of the odd unit u modulo a power of 2 (``unit_residue``, which the
  tests also use to check square roots and square classes).

The PICKY route's ``HenselSplitEvenParts`` evidence checks only the
hypotheses of Hensel's lemma and records the degrees and modulus they
fix.  Its first form lifted the split mod 2 to 2^64 with
``hensel.hensel_split`` and read them off the lift; it is kept as
``lifted_hensel_split_even_parts``.

The certifier's Newton-diagram rules decide purity from the chord
(``newton_polygon.pure_slope``) and build the hull only for their
evidence.  Their first forms read everything off the hull, and are
kept here: ``hull_is_pure``, ``hull_eisenstein_irreducible``,
``hull_rule_eisenstein`` and ``hull_rule_pure_even_divisor``.

``reduce_auto`` decides its route from the core.  Its first form tried
the routes in order, recorded a route that raised ``ValueError`` as
skipped and went on to the next, with GR4 behind NOS; it is kept as
``try_and_skip_reduce_auto``.

``f2.f2_factor`` runs one distinct-degree sieve on f itself, with a
square step, and ``f2.f2_divmod`` cancels the top term of the dividend
directly.  Their first forms are kept here on their own GF(2)
arithmetic: ``bitwise_f2_divmod``, which visits every bit of the
quotient, and ``squarefree_pass_f2_factor``, a recursive square-free
pass (division by gcd(g, g')) feeding a separate distinct-degree split
(``distinct_degree``) driven by a modular power (``f2_pow_mod``).

ALG9 (``reduction._iterative``) builds each branch candidate f - 4^-l x^k
on f's integer model, proves it square-free by a resultant bound or
by one integer gcd (``ratpoly._proved_positive_minus``) and hands branch a
f's split with its constant moved.  The loop as first written, which
builds f - h^2 in ``RatPoly`` arithmetic and certifies each candidate
with the public ``certify_sos4`` (its own gate, the split searched), is
kept as ``fraction_alg9``.

``hensel.z2_root_status`` proves square-freeness with one integer gcd
before its root tree walks, and on a proved f walks a forced chain of
the tree in one step.  The tree it replaced, which descends one 2-adic
digit per node and after 4 nodes per degree always takes the
square-free part, is kept as
``level_by_level_z2_root_status`` (on ``level_by_level_root_tree`` and
``level_by_level_descend``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from padic_sos import f2, zpoly
from padic_sos.hensel import (NO_ROOT, ROOT_EXISTS, RootStatus, RootWitness, _certify,
                              _lift, _odd_cleared_scaled, hensel_split, z2_root_status)
from padic_sos.newton_polygon import NewtonDiagram, newton_diagram
from padic_sos.padic import ord2, ord2_int
from padic_sos.ratpoly import (PositivityCertificate, RatPoly,
                               _least_exponent, is_positive_on_reals,
                               is_squarefree, primitive_integer_coeffs,
                               squarefree_part)
from padic_sos.certifier import (HENSEL_SPLIT_PRECISION, SOS4, EisensteinEvenDegree,
                                 HenselSplitEvenParts, PureEvenDivisor, _certify_positive,
                                 certify_sos4)
from padic_sos.padic import PadicApprox, is_square_in_q2
from padic_sos.reduction import (ALWAYS_SQUARE_NOTE, CYCLOTOMIC, METHOD_ALG9, METHOD_ZERO,
                                 REFINE_PRECISION, SHIFTS, BranchRecord, InconclusiveReport,
                                 IterateRecord, NonTermination, ReductionResult, Transform,
                                 _constant_three_mod_four, _cyclotomic_power, _gcd_route,
                                 _is_square_times_three_mod_four,
                                 _square_clearing_scale, _transport, _twice_odd_degree)
from padic_sos.record import replace


def primitive_remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """Fraction-free Sturm-type remainder sequence a, b, r_2, ..., r_k
    for deg a >= deg b.  Each new term is minus the primitive part of
    the pseudo-remainder of the two before it, where pseudo-division
    scales by |lc(b)| so that the multiplier stays positive: every term
    has the sign of the matching term of the Sturm sequence over Q, and
    the last term is gcd(a, b) up to a nonzero factor."""
    seq = [a]
    while b:
        seq.append(b)
        n = len(b)
        lb, sb = abs(b[-1]), (1 if b[-1] > 0 else -1)
        r = list(a)
        for k in range(len(a) - n, -1, -1):
            c = sb * r.pop()
            if c:
                r = [lb * x for x in r]
                for i in range(n - 1):
                    r[k + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
        if r:
            content = math.gcd(*r)
            r = [-x // content for x in r]
        a, b = b, r
    return seq


def variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def root_counts(f: RatPoly) -> tuple[int, int]:
    """(distinct complex roots, distinct real roots) of f from the
    primitive remainder sequence of (f, f')."""
    a = primitive_integer_coeffs(f)
    da = [i * c for i, c in enumerate(a)][1:]
    content = math.gcd(*da)
    seq = primitive_remainder_sequence(a, [c // content for c in da])
    at_pos = [1 if p[-1] > 0 else -1 for p in seq]
    at_neg = [s if len(p) % 2 == 1 else -s for s, p in zip(at_pos, seq)]
    return len(a) - len(seq[-1]), variations(at_neg) - variations(at_pos)


def positivity_certificate(f: RatPoly) -> PositivityCertificate:
    """``is_positive_on_reals`` on the primitive sequence's root counts."""
    lead = 1 if f.leading > 0 else -1
    csign = (f[0] > 0) - (f[0] < 0)
    if f.degree == 0:
        return PositivityCertificate(0, 0, lead, csign, True, csign > 0)
    rank, sig = root_counts(f)
    verdict = f.degree % 2 == 0 and lead > 0 and csign > 0 and sig == 0
    return PositivityCertificate(rank, sig, lead, csign, rank == f.degree, verdict)


def monic_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """The monic gcd: the last term of the primitive remainder sequence."""
    a, b = primitive_integer_coeffs(f), primitive_integer_coeffs(g)
    if len(a) < len(b):
        a, b = b, a
    if not a:
        return RatPoly()
    last = primitive_remainder_sequence(a, b)[-1]
    return RatPoly([Fraction(x, last[-1]) for x in last])


def yun_squarefree_decomposition(f: RatPoly) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """Yun's decomposition f = unit * prod g_i^i, g_i monic, square-free,
    pairwise coprime and of degree >= 1.  The running pair (b, c) stays
    on integers, both scaled by the same constant, and is divided
    exactly by the primitive model of each gcd."""
    if f.is_zero:
        raise ValueError("zero polynomial has no square-free decomposition")
    unit = f.leading
    if f.degree == 0:
        return unit, []
    parts: list[tuple[RatPoly, int]] = []
    a = primitive_integer_coeffs(f)
    g = monic_gcd(f, f.derivative()).primitive_part
    b = zpoly.divide(a, g)[0]
    c = zpoly.divide(zpoly.diff(a), g)[0]
    i = 1
    while len(b) > 1:
        c = zpoly.sub(c, zpoly.diff(b))
        monic = monic_gcd(RatPoly(b), RatPoly(c))
        if monic.degree > 0:
            parts.append((monic, i))
        g = monic.primitive_part
        b, c = zpoly.divide(b, g)[0], zpoly.divide(c, g)[0]
        i += 1
    return unit, parts


def fraction_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """(q, r) with a = q*b + r and deg r < deg b, by Fraction long
    division of ascending coefficient sequences, b with a nonzero top
    coefficient; q and r carry no trailing zero."""
    r, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r.pop() / b[-1]
        for i in range(len(b) - 1):
            r[k + i] -= c * b[i]
    while q and not q[-1]:
        q.pop()
    while r and not r[-1]:
        r.pop()
    return q, r


def sturm_chain_count(f: RatPoly) -> int:
    """Real roots of a square-free f by Sturm sign variations at -infinity
    and +infinity, with the chain and its square-free check on Fraction
    coefficient lists (``fraction_divmod``)."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return 0
    chain = [list(f.coeffs), [i * c for i, c in enumerate(f.coeffs)][1:]]
    while len(chain[-1]) > 1:
        chain.append([-c for c in fraction_divmod(chain[-2], chain[-1])[1]])
    if not chain[-1]:
        chain.pop()
    if len(chain[-1]) > 1:
        raise ValueError("Sturm count requires square-free input")
    at_pos = [1 if p[-1] > 0 else -1 for p in chain]
    at_neg = [s if len(p) % 2 == 1 else -s for s, p in zip(at_pos, chain)]
    return variations(at_neg) - variations(at_pos)


def sylvester_rows(f: RatPoly, g: RatPoly) -> list[list[Fraction]]:
    """The Sylvester matrix of (f, g): deg g rows of f's coefficients,
    then deg f rows of g's, descending."""
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    m, n = len(fc) - 1, len(gc) - 1
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (m - 1 - i))
    return rows


def naive_det(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row; exponential,
    for small matrices."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def det_fraction(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def sylvester_resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Determinant of the Sylvester matrix of two nonzero polynomials."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    return det_fraction(sylvester_rows(f, g))


def discriminant(f: RatPoly) -> Fraction:
    """Res(f, f') on the Sylvester determinant."""
    return sylvester_resultant(f, f.derivative())


def verify_root_witness(f: RatPoly, witness: RootWitness) -> bool:
    """The witness conditions on the primitive integer model of f (of
    its square-free part, reversed, as the flags say): delta is
    ord2(f'(gamma)) (None when f'(gamma) = 0), the modulus
    2^(2*delta+1) (1 for None), and f(gamma) is 0 for an exact witness
    and 0 mod the modulus, with delta not None, otherwise."""
    if witness.on_squarefree_part:
        f = squarefree_part(f)
    coeffs = primitive_integer_coeffs(f)
    if witness.on_reversal:
        coeffs = list(reversed(coeffs))
    v = zpoly.evaluate(coeffs, witness.gamma)
    dv = zpoly.evaluate(zpoly.diff(coeffs), witness.gamma)
    delta = None if dv == 0 else ord2_int(dv)
    if (witness.delta, witness.modulus) != (
            delta, 1 if delta is None else 1 << (2 * delta + 1)):
        return False
    if witness.exact:
        return v == 0
    return delta is not None and v % witness.modulus == 0


def obstruction_witness(f: RatPoly) -> tuple[int, int, int, int]:
    """(l, gamma, delta, refined root) of the PICKY obstruction on an
    integral f of degree 2(2k+1) with a 2-adically square constant term:
    the first l from max(a + 3, l_pos, 1) on with q = 4^l f - base
    square-free, q(gamma) != 0 != q'(gamma) and
    ord2 q(gamma) >= 2 ord2 q'(gamma) + 1 at gamma = 2^(l+a), where
    f(0) = 2^(2a) u and base = (x^2+x+1)^(2k) x^2."""
    k = (f.degree - 2) // 4
    k0 = ord2(f[0])[0]
    base = (CYCLOTOMIC ** (2 * k)) * RatPoly.monomial(2) if k else RatPoly.monomial(2)
    ell_pos = math.ceil(Fraction(_least_exponent(f, -base), 2))
    a = k0 // 2
    ell = max(a + 3, ell_pos, 1)
    for _ in range(64):
        q = f * (4 ** ell) - base
        gamma = 2 ** (ell + a)
        dv = q.derivative()(gamma)
        v = q(gamma)
        if dv != 0 and v != 0 and is_squarefree(q):
            delta = ord2(dv)[0]
            if ord2(v)[0] >= 2 * delta + 1:
                return ell, gamma, delta, fixed_modulus_newton_refine(
                    q, gamma, delta, REFINE_PRECISION)
        ell += 1
    raise ArithmeticError("no certifiable obstruction witness found")


def lifted_hensel_split_even_parts(f: RatPoly, scale: Fraction) -> HenselSplitEvenParts | None:
    """``certifier.hensel_split_even_parts`` as first written: the mod-2
    test on the primitive model of q = scale * f, then the lift of
    g1 * x^2 to 2^HENSEL_SPLIT_PRECISION (None where ``hensel_split``
    refuses q's content), the degrees and modulus read off the lift,
    and the root status last."""
    scaled = f * scale
    coeffs = primitive_integer_coeffs(scaled)
    if not coeffs or coeffs[-1] % 2 == 0:
        return None
    bits = f2.f2_from_coeffs(coeffs)
    facs = dict(f2.f2_factor(bits))
    if facs.get(2, 0) != 2 or any(p != 2 and f2.f2_degree(p) % 2 for p in facs):
        return None
    try:
        factors = hensel_split(scaled, bits >> 2, 0b100, HENSEL_SPLIT_PRECISION)
    except ValueError:  # the scaled model is not odd-cleared integral
        return None
    status = z2_root_status(scaled)
    if status.tag != NO_ROOT:
        return None
    return HenselSplitEvenParts(Fraction(scale), len(factors.g) - 1, len(factors.h) - 1,
                                factors.modulus, status)


def hull_is_pure(diagram: NewtonDiagram) -> bool:
    """Nonzero constant term and a single-segment hull (a one-point
    diagram has no segment, so it is not pure)."""
    return (bool(diagram.points) and diagram.points[0][0] == 0
            and len(diagram.segments) == 1)


def hull_eisenstein_irreducible(f: RatPoly) -> bool:
    """The Eisenstein test read off the hull: pure, with the segment's
    rise coprime to its run."""
    if f.degree < 1:
        return False
    d = newton_diagram(f)
    if not hull_is_pure(d):
        return False
    (x1, y1), (x2, y2) = d.vertices[0], d.vertices[-1]
    return math.gcd(abs(y2 - y1), x2 - x1) == 1


def hull_rule_eisenstein(f: RatPoly) -> EisensteinEvenDegree | None:
    if f.degree % 2 != 0 or f.degree < 2:
        return None
    if hull_eisenstein_irreducible(f):
        return EisensteinEvenDegree(newton_diagram(f))
    return None


def hull_rule_pure_even_divisor(f: RatPoly) -> PureEvenDivisor | None:
    """The divisor rule read off the hull: e is the denominator of the
    one segment's Fraction slope."""
    if f.degree < 1:
        return None
    d = newton_diagram(f)
    if not hull_is_pure(d):
        return None
    e = d.segments[0].slope.denominator
    return PureEvenDivisor(e, d) if e % 2 == 0 else None


def y_coordinate_lift(base: list[int], g: list[int], c: int, j: int, r: int,
                      on_reversal: bool) -> RootWitness:
    """The root tree's lift of the simple root r of g mod 2, g(y) =
    base(c + 2^j*y) / 2^v: one Newton step on g mod 2^k for k = 2, 4,
    8, ... until gamma = c + 2^j*y passes ``_certify`` on ``base``."""
    dbase = zpoly.diff(base)
    dg = zpoly.diff(g)
    y, k = r, 1
    while (witness := _certify(base, dbase, c + (y << j), on_reversal)) is None:
        k *= 2
        m = 1 << k
        y = (y - zpoly.evaluate(g, y) * pow(zpoly.evaluate(dg, y), -1, m)) % m
    return witness


def fixed_modulus_newton_refine(f: RatPoly, gamma: int, delta: int, precision: int) -> int:
    """Residue mod 2^precision of the root of f in the class gamma mod
    2^(delta+1), on the odd-cleared model of f, which must give
    f(gamma) = 0 mod 2^(2*delta+1) and ord2(f'(gamma)) = delta."""
    if precision < 1:
        raise ValueError("precision must be positive")
    coeffs = _odd_cleared_scaled(f)[0]
    dcoeffs = zpoly.diff(coeffs)
    v0 = zpoly.evaluate(coeffs, gamma)
    dv0 = zpoly.evaluate(dcoeffs, gamma)
    if dv0 == 0 or ord2_int(dv0) != delta:
        raise ValueError("derivative valuation does not match delta")
    if v0 != 0 and ord2_int(v0) < 2 * delta + 1:
        raise ValueError("f(gamma) is not divisible by 2^(2*delta+1)")
    work = precision + delta + 4
    big = 1 << work
    cur = gamma % big
    for _ in range(2 * work.bit_length() + 8):
        v = zpoly.evaluate(coeffs, cur)
        if v == 0 or ord2_int(v) >= precision + delta:
            break
        dv = zpoly.evaluate(dcoeffs, cur)
        step = (v >> delta) * pow(dv >> delta, -1, big) % big
        cur = (cur - step) % big
    else:
        raise ArithmeticError("Newton refinement failed to converge")
    return cur % (1 << precision)


def unit_residue(u: Fraction, modulus: int) -> int:
    """The residue of an odd rational modulo 2^k, clearing the odd
    denominator with its modular inverse."""
    num, den = u.numerator, u.denominator
    if num % 2 == 0 or den % 2 == 0:
        raise ValueError("unit residue needs an odd rational")
    return num * pow(den, -1, modulus) % modulus


def budgeted_padic_sqrt(q, precision: int) -> PadicApprox:
    """Square root of a nonzero 2-adic square q: Newton's iteration
    r <- r - (r^2 - u) / (2r) from r = 1 on the unit u of q, mod
    2^(precision+4)."""
    v, u = ord2(q)
    work = precision + 2
    modulus = 1 << (work + 2)
    target = unit_residue(u, modulus)
    r = 1
    for _ in range(work.bit_length() + 3):
        err = (r * r - target) % modulus
        if err == 0:
            break
        step = (err >> 1) * pow(r, -1, modulus) % modulus
        r = (r - step) % modulus
    r %= 1 << precision
    if (r * r - target) % (1 << precision) != 0:
        raise ArithmeticError("2-adic square root failed to converge")
    return PadicApprox(prime=2, valuation=v // 2, unit_residue=r, precision=precision)


def slope_bound(f: RatPoly) -> int:
    """l3 as first written: the ceiling of the largest slope
    (j*kd - d*ord2(f_j)) / (2d - 2j) over the nonzero middle
    coefficients f_j, kd = ord2(lc f), and 0 when there is none."""
    d = f.degree
    kd = ord2(f.leading)[0]
    slopes = [Fraction(j * kd - d * ord2(f[j])[0], 2 * d - 2 * j)
              for j in range(1, d) if f[j] != 0]
    return math.ceil(max(slopes)) if slopes else 0


# The budgets of the searches the library replaced by complete ones
MAX_HALVINGS = 128
NOS_N_LIMIT, NOS_L_LIMIT = 99, 64


def halving_epsilon(f: RatPoly) -> Fraction | None:
    """``epsilon_below_infimum``'s search as first written: halve from the
    largest power of two at most min(f(0), 1), at most 128 times (None
    past that)."""
    e = 0
    while Fraction(1, 2 ** e) > f[0]:
        e += 1
    for exp in range(e, e + MAX_HALVINGS):
        eps = Fraction(1, 2 ** exp)
        if is_positive_on_reals(f - eps).verdict:
            return eps
    return None


def halving_perturbation(f: RatPoly, g: RatPoly) -> Fraction | None:
    """``perturbation_bound``'s search as first written: 1, 1/2, 1/4, ...,
    at most 128 tries (None past that)."""
    if g.is_zero:
        return Fraction(1)
    for exp in range(MAX_HALVINGS):
        eps = Fraction(1, 2 ** exp)
        cand = f + g * eps
        if not cand.is_zero and is_positive_on_reals(cand).verdict:
            return eps
    return None


def nos_grid(f: RatPoly) -> tuple[dict, tuple] | None:
    """The NOS search as first written, on an integral positive f of even
    degree with f(0) = 4^a (4k+3): the first (N, l) of the grid N = 3, 5,
    ..., 99 (outer), l = 1 .. 64 (inner) with gcd(2a+1+2l, d) = 1, the
    diagram of g = f - (x^(d/2)/2^l + 2^a/N)^2 the segment
    (0, 2a+1)-(d, -2l) and g positive.  Returns NOS's parameters and
    trace, or None when the grid has no hit."""
    a, d = ord2(f[0])[0] // 2, f.degree
    tried, trace = 0, []
    for n in range(3, NOS_N_LIMIT + 1, 2):
        for ell in range(1, NOS_L_LIMIT + 1):
            tried += 1
            if math.gcd(2 * a + 1 + 2 * ell, d) != 1:
                continue
            h = RatPoly.monomial(d // 2, Fraction(1, 2 ** ell)) + RatPoly(
                [Fraction(2 ** a, n)])
            g = f - h * h
            if newton_diagram(g).vertices != ((0, 2 * a + 1), (d, -2 * ell)):
                reason = "diagram"
            elif not is_positive_on_reals(g).verdict:
                reason = "positivity"
            else:
                return {"N": n, "l": ell, "a": a, "candidates_tried": tried}, tuple(trace)
            if len(trace) < 50:
                trace.append(("N", n, "l", ell, "rejected", reason))
    return None


def try_and_skip_reduce_auto(f: RatPoly) -> ReductionResult | InconclusiveReport:
    """``reduce_auto`` as first written: ALG6 or ALGN, then NOS and PICKY
    at each shift whose value passes their test, with GR4 between them,
    each attempt that raises ``ValueError`` recorded as skipped."""
    if f.is_zero or not (positivity := is_positive_on_reals(f)).verdict:
        raise ValueError("input must be strictly positive on R")
    square_part = RatPoly([1])
    core = f
    if not positivity.on_squarefree_part:
        unit, parts = yun_squarefree_decomposition(f)
        core = RatPoly([unit])
        for g_i, mult in parts:
            square_part = square_part * g_i ** (mult // 2)
            if mult % 2 == 1:
                core = core * g_i
        positivity = is_positive_on_reals(core)
    trace: list = []

    def attempt(route, call):
        try:
            res = call()
        except ValueError as exc:
            trace.append((route, f"skipped: {exc}"))
            return None
        trace.append((route, f"succeeded ({res.method})"))
        return res

    first = _certify_positive(core, positivity)
    trace.append(("certify", first.verdict))
    if first.verdict == SOS4:
        return ReductionResult(METHOD_ZERO, f, RatPoly(), f, first,
                               core, {}, tuple(trace),
                               Transform(square_part, Fraction(1), Fraction(0)))

    def transport(res, scale, shift):
        # the route ran on scale^2 * core(x + shift), after the steps so far
        return _transport(replace(res, trace=tuple(trace) + res.trace,
                                  transform=Transform(scale=Fraction(scale), shift=shift)),
                          f, square_part)

    def by_shift(route, applies, body):
        for shift in SHIFTS:
            if applies(core(shift)):
                shifted = core.shift(shift)
                scale = _square_clearing_scale(shifted)
                res = attempt(f"{route}@shift={shift}",
                              lambda: body(shifted * (scale * scale)))
                if res:
                    return transport(res, scale, shift)
        return None

    res = None
    if ord2(core.leading)[0] % 2 == 1:
        res = attempt("alg6", lambda: _gcd_route(core, 1))
    elif core.degree % 4 == 0 and core.degree >= 4:
        res = attempt("algn", lambda: _gcd_route(core, 2))
    if res:
        return transport(res, 1, Fraction(0))
    if res := by_shift("nos", _is_square_times_three_mod_four, _constant_three_mod_four):
        return res
    if core.degree % 4 == 0 and core.degree >= 4:
        scale = _square_clearing_scale(core)
        res = attempt("gr4", lambda: _cyclotomic_power(core * (scale * scale)))
        if res:
            return transport(res, scale, Fraction(0))
    picky = core.degree >= 2 and (core.degree - 2) % 4 == 0
    if picky and (res := by_shift("picky", lambda v: not is_square_in_q2(v),
                                  _twice_odd_degree)):
        return res
    shifts_all_square = picky and not any(step[0].startswith("picky@") for step in trace)
    note = ALWAYS_SQUARE_NOTE if shifts_all_square else (
        "no certified route applies to this input")
    return InconclusiveReport(note, tuple(trace), first)


def fraction_alg9(f: RatPoly, cap: int) -> ReductionResult | NonTermination:
    """``reduce_iterative(f, cap)`` on a square-free f > 0 as first
    written: each candidate f - h^2 in ``RatPoly`` arithmetic, certified
    by ``certify_sos4``."""
    first = certify_sos4(f)
    if first.verdict == SOS4:
        return ReductionResult(METHOD_ZERO, f, RatPoly(), f, first, f,
                               {"note": "already a sum of four squares"})
    minus_one = RatPoly([-1])
    e = max(_least_exponent(f, minus_one), _least_exponent(f.reverse(), minus_one))
    eps = Fraction(1, 2 ** e)
    l = l_init = (e + 1) // 2
    iterates = []
    for _ in range(cap):
        records = []
        for k in (0, f.degree // 2):
            h = RatPoly.monomial(k, Fraction(1, 2 ** l))
            g = f - h * h
            rec = BranchRecord(h, g, certify_sos4(g))
            if rec.verdict == SOS4:
                return ReductionResult(METHOD_ALG9, f, h, rec.candidate, rec.certificate,
                                       rec.candidate, {"l": l, "l_init": l_init,
                                                       "epsilon": eps}, tuple(iterates))
            records.append(rec)
        iterates.append(IterateRecord(l, *records))
        l += 1
    return NonTermination(cap, l_init, eps, tuple(iterates))


def bitwise_f2_divmod(a: int, b: int) -> tuple[int, int]:
    """GF(2) division visiting every bit of the quotient."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    m, n = f2.f2_degree(a), f2.f2_degree(b)
    if m < n:
        return 0, a
    q = 0
    b <<= m - n
    for i in range(m - n, -1, -1):
        if a >> (n + i) & 1:
            a ^= b
            q |= 1 << i
        b >>= 1
    return q, a


def _ref_mod(a: int, b: int) -> int:
    return bitwise_f2_divmod(a, b)[1]


def _ref_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _ref_mod(a, b)
    return a


def f2_pow_mod(a: int, e: int, mod: int) -> int:
    result = 1
    a = _ref_mod(a, mod)
    while e:
        if e & 1:
            result = _ref_mod(f2.f2_mul(result, a), mod)
        a = _ref_mod(f2.f2_mul(a, a), mod)
        e >>= 1
    return result


def distinct_degree(w: int) -> list[tuple[int, int]]:
    """Split square-free w into (product-of-factors, common degree) pairs."""
    out = []
    h = 2  # the polynomial x
    i = 1
    while f2.f2_degree(w) >= 2 * i:
        h = f2_pow_mod(h, 2, w)  # x^(2^i) mod w
        g = _ref_gcd(w, h ^ 2)
        if g != 1:
            out.append((g, i))
            w = bitwise_f2_divmod(w, g)[0]
            h = _ref_mod(h, w)
        i += 1
    if f2.f2_degree(w) > 0:
        out.append((w, f2.f2_degree(w)))
    return out


def _ref_equal_degree_split(g: int, i: int) -> list[int]:
    """Trace splitting of a square-free product of degree-i irreducibles."""
    if f2.f2_degree(g) == i:
        return [g]
    u = 2
    while True:
        trace = 0
        t = _ref_mod(u, g)
        for _ in range(i):
            trace ^= t
            t = _ref_mod(f2.f2_mul(t, t), g)
        d = _ref_gcd(g, trace)
        if 0 < f2.f2_degree(d) < f2.f2_degree(g):
            rest = bitwise_f2_divmod(g, d)[0]
            return _ref_equal_degree_split(d, i) + _ref_equal_degree_split(rest, i)
        u += 1


def squarefree_pass_f2_factor(f: int) -> list[tuple[int, int]]:
    """``f2.f2_factor`` as first written: a recursive square-free pass,
    then distinct-degree and equal-degree splitting of each part."""
    if f == 0:
        raise ValueError("cannot factor the zero polynomial")
    factors: dict[int, int] = {}

    def absorb(g: int, weight: int) -> None:
        if f2.f2_degree(g) < 1:
            return
        dg = f2.f2_derivative(g)
        if dg == 0:
            absorb(f2.f2_even_part_root(g), 2 * weight)
            return
        w = bitwise_f2_divmod(g, _ref_gcd(g, dg))[0]  # square-free, odd-multiplicity part
        for block, i in distinct_degree(w):
            for p in _ref_equal_degree_split(block, i):
                e = 0
                while _ref_mod(g, p) == 0:
                    g = bitwise_f2_divmod(g, p)[0]
                    e += 1
                factors[p] = factors.get(p, 0) + weight * e
        absorb(g, weight)

    absorb(f, 1)
    return sorted(factors.items(), key=lambda kv: (f2.f2_degree(kv[0]), kv[0]))


_PAUSED = "paused"


def level_by_level_descend(g: list[int], r: int) -> list[int]:
    """g(r + 2y) divided by the power of 2 in its content."""
    h = [c << i for i, c in enumerate(zpoly.taylor_shift(g, r))]
    v = ord2_int(math.gcd(*h))
    return [c >> v for c in h]


def level_by_level_root_tree(coeffs: list[int], switch: int):
    """The root tree over Z_2, then over 2Z_2 for the reversal when the
    leading coefficient is even, one 2-adic digit per node, level by
    level.  Yields ``_PAUSED`` after ``switch`` nodes, then the first
    certified witness, or None once every node is closed."""
    trees = [(coeffs, False)]
    if coeffs[-1] % 2 == 0:
        trees.append((coeffs[::-1], True))
    nodes = 0
    for base, on_reversal in trees:
        level = ([(0, 1, level_by_level_descend(base, 0))] if on_reversal
                 else [(0, 0, base)])
        while level:
            deeper = []
            for c, j, g in level:
                nodes += 1
                if nodes == switch:
                    yield _PAUSED
                for r in (0, 1):
                    if (g[0] if r == 0 else sum(g)) % 2:
                        continue
                    if (g[1] if r == 0 else sum(g[1::2])) % 2:
                        yield _lift(base, g, c, j, r, on_reversal)
                    deeper.append((c + (r << j), j + 1, level_by_level_descend(g, r)))
            level = deeper
    yield None


def level_by_level_z2_root_status(f: RatPoly) -> RootStatus:
    """``z2_root_status`` on the level-by-level tree: after 4 nodes per
    degree it takes f's square-free part, runs on if f is square-free
    and otherwise reruns on the part and marks the witness."""
    coeffs = primitive_integer_coeffs(f)
    if len(coeffs) == 1:
        return RootStatus(NO_ROOT, None)
    walk = level_by_level_root_tree(coeffs, 4 * (len(coeffs) - 1))
    witness = next(walk)
    if witness is _PAUSED:
        part = squarefree_part(f)
        if part.degree == f.degree:
            witness = next(walk)
        else:
            witness = next(level_by_level_root_tree(primitive_integer_coeffs(part), 0))
            if witness is not None:
                witness = replace(witness, on_squarefree_part=True)
    return RootStatus(NO_ROOT if witness is None else ROOT_EXISTS, witness)
