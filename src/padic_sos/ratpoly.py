"""Exact univariate polynomial arithmetic over the rationals.

A ``RatPoly`` f is stored as content times primitive part, f = c*P:
P is a tuple of integers in ascending degree order with gcd 1, a
positive top coefficient and no trailing zero, and c is a nonzero
``fractions.Fraction`` that carries the sign of f (the zero polynomial
is c = 0 with the empty P).  The model is unique, so equality compares it
directly, and it is the integer form every kernel works on: the
primitive integer model of f is P times the sign of c, and the lcm of
the coefficient denominators is the denominator of c.  By Gauss's
lemma a product of primitive polynomials is primitive, so products and
powers need no gcd; sums, derivatives, Taylor shifts and evaluation run
on integers with one content gcd per result.  The integer arithmetic
on P (products, sums, derivatives, Taylor shifts and the exact
quotients of the square-free decomposition) is the ``zpoly`` kernel's.
The Fraction coefficients (``coeffs``, ``f[i]``, ``str``, ``hash``)
are read off (c, P) on each use; no second copy is kept.  ``RatPoly``
is a ring without division: no library path divides two rational
polynomials, and the quotients the module needs are exact ones of
primitive parts.

Root counting, square-freeness, gcds, Sturm counts and resultants run
on one fraction-free kernel: a Sturm-signed subresultant sequence of
integer polynomials (``_remainder_sequence``), whose normal steps divide
by a divisor known in advance and whose other steps divide by the
content.  Run on (f, f') it gives the numbers of distinct complex and
distinct real roots (the rank and signature of the Hankel form of f),
and with them strict positivity on the reals and the Sturm count of a
square-free f.  The positivity gate (``_positivity``) also returns
that sequence's last term, gcd(f, f'), and a caller that goes on to
split f into square-free parts feeds it to Musser's algorithm (1971),
whose further gcds have degree at most deg gcd(f, f'): one sequence of
(f, f') serves both.  Run on (f, g) its last term is the gcd, and a
scalar folded along it is the resultant Res(f, g) (the Sylvester
determinant) and so the discriminant Res(f, f').  The Fraction paths
left are the ones the ``hankel`` document prints: power sums, the
Hankel matrix and its exact rank/signature.  A caller that has proved f strictly
positive gets f's positivity certificate from a square-freeness proof
instead, one integer gcd of P and P' at a point past their roots
(``zpoly.coprime``, in ``_proved_positive``), and falls back to the
sequence only when that proof is silent.  For a difference f - t x^k
(k = 0 or deg f) a resultant bound on the 2-adic valuation of t proves
square-freeness with no gcd at all (``_proved_positive_minus``).  One
certified search completes the module (``_least_exponent``): the least k with
f + 2^-k * g strictly positive, a monotone test, found with no budget.
The reduction routes read their l off that exponent; the public
``epsilon_below_infimum`` (g = -1) and ``perturbation_bound`` gate f
and return 2^-k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import zpoly
from .record import Record


_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients,
    stored as content times primitive part (see the module docstring)."""

    __slots__ = ("_c", "_p")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        lcm = math.lcm(*(c.denominator for c in cs))
        f = _from_ints([c.numerator * (lcm // c.denominator) for c in cs], 1, lcm)
        self._c, self._p = f._c, f._p

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls.monomial(0, c)

    @classmethod
    def monomial(cls, k: int, c=1) -> "RatPoly":
        c = _frac(c)
        return _model(c, (0,) * k + (1,)) if c else RatPoly()

    @property
    def content(self) -> Fraction:
        """The signed content c of f = c*P (zero for the zero polynomial)."""
        return self._c

    @property
    def primitive_part(self) -> tuple[int, ...]:
        """The primitive integer tuple P of f = c*P, top coefficient > 0."""
        return self._p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending reduced Fraction coefficients, read off the model."""
        n, d = self._c.numerator, self._c.denominator
        return tuple(Fraction(n * x, d) for x in self._p)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._p) - 1

    @property
    def is_zero(self) -> bool:
        return not self._p

    @property
    def leading(self) -> Fraction:
        if not self._p:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[len(self._p) - 1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self._p):
            return self._c * self._p[i]
        return _ZERO

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self._p == other._p and self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == RatPoly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self._p)

    def __repr__(self) -> str:
        return f"RatPoly({self})"

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            elif i == 1:
                term = f"{abs(c)}*x" if abs(c) != 1 else "x"
            else:
                term = f"{abs(c)}*x^{i}" if abs(c) != 1 else f"x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __add__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not other._p:
            return self
        if not self._p:
            return other
        # c1 = g*a1 / (h*e1) and c2 = g*a2 / (h*e2), so
        # c1*P1 + c2*P2 = g / (h*e1*e2) * (a1*e2*P1 + a2*e1*P2)
        n1, d1 = self._c.numerator, self._c.denominator
        n2, d2 = other._c.numerator, other._c.denominator
        g, h = math.gcd(n1, n2), math.gcd(d1, d2)
        e1, e2 = d1 // h, d2 // h
        m1, m2 = n1 // g * e2, n2 // g * e1
        return _from_ints(zpoly.add(self._p, other._p, m1, m2), g, h * e1 * e2)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return _model(-self._c, self._p)

    def __sub__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            if not other or not self._p:
                return RatPoly()
            return _model(self._c * other, self._p)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self._p or not other._p:
            return RatPoly()
        return _model(self._c * other._c, tuple(zpoly.mul(self._p, other._p)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n <= 1 or not self._p:
            return self if n else RatPoly([1])
        # the content is raised once; by Gauss's lemma P^n is primitive,
        # and its top coefficient is positive
        return _model(self._c ** n, tuple(_int_power(self._p, n)))

    def __call__(self, t) -> Fraction:
        return self.evaluate(t)

    def evaluate(self, t) -> Fraction:
        """Evaluate at a rational point r/s exactly: Horner's rule on
        s^d * P(r/s), an integer."""
        t = _frac(t)
        if not self._p:
            return _ZERO
        r, s = t.numerator, t.denominator
        acc, power = 0, 1
        for x in reversed(self._p):
            acc = acc * r + x * power
            power *= s
        return Fraction(self._c.numerator * acc,
                        self._c.denominator * (power // s))

    def derivative(self) -> "RatPoly":
        return _from_ints(zpoly.diff(self._p), self._c.numerator,
                          self._c.denominator)

    def shift(self, a) -> "RatPoly":
        """Return g with g(t) = f(t + a); a linear change of variables.

        For a = r/s, s^d * P(t + r/s) = U(s*t) where U(y) = Q(y + r)
        and Q(y) = s^d * P(y/s), all integer polynomials; U comes from
        Q by an integer Taylor shift."""
        a = _frac(a)
        d = len(self._p) - 1
        if a == 0 or d < 1:
            return self
        r, s = a.numerator, a.denominator
        h = zpoly.taylor_shift([x * s ** (d - i) for i, x in enumerate(self._p)], r)
        h = [x * s ** i for i, x in enumerate(h)]
        return _from_ints(h, self._c.numerator, self._c.denominator * s ** d)

    def reverse(self) -> "RatPoly":
        """Reverse the coefficient vector over the declared degree.

        For f of degree d this is x^d * f(1/x); the result may have
        smaller degree when the constant coefficient vanishes.
        """
        p = zpoly.trim(list(reversed(self._p)))
        if p and p[-1] < 0:
            return _model(-self._c, tuple(-x for x in p))
        return _model(self._c, tuple(p))


def _model(c: Fraction, p: tuple[int, ...]) -> RatPoly:
    """The polynomial c*P for a P already in model form."""
    f = object.__new__(RatPoly)
    f._c, f._p = c, p
    return f


def _from_ints(ints: list[int], num: int = 1, den: int = 1) -> RatPoly:
    """The polynomial (num/den) * ints for any integer list: trailing
    zeros are stripped and the signed content moves into c."""
    zpoly.trim(ints)
    if not ints:
        return _model(_ZERO, ())
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
    return _model(Fraction(num * g, den), tuple(ints))


def _int_power(p: Sequence[int], n: int) -> list[int]:
    """p^n for n >= 1, by squaring."""
    if n == 1:
        return list(p)
    half = _int_power(p, n // 2)
    square = zpoly.mul(half, half)
    return zpoly.mul(square, p) if n & 1 else square


X = RatPoly([0, 1])


def primitive_integer_coeffs(f: RatPoly) -> list[int]:
    """Integer coefficients of the primitive rational multiple of f:
    its primitive part, with the sign of f."""
    if f.content.numerator < 0:
        return [-x for x in f.primitive_part]
    return list(f.primitive_part)


def _remainder_sequence(a: list[int], b: list[int]
                        ) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """Sturm-signed subresultant sequence a, b, r_2, ..., r_k.

    ``a`` and ``b`` are ascending integer coefficient lists with
    deg a >= deg b and b nonzero.  Each new term r is minus a positive
    multiple of the remainder of the two before it, so every term has
    the sign of the matching term of the Sturm sequence over Q, and the
    last term is gcd(a, b) up to a nonzero factor.

    Pseudo-division scales by |lc(b)| instead of lc(b), which keeps the
    multiplier positive.  Two kinds of step (Brown-Traub, JACM 1971):

    * normal, deg a = deg b + 1 with a remainder of degree deg b - 1:
      the pseudo-remainder comes in one pass and divides exactly by
      lc(a)^2 (subresultant theorem), or by 1 on the first step of a run;
    * any other step (degree gaps, equal degrees and defective
      remainders, which sparse inputs produce): sparse pseudo-division,
      scaling only at nonzero quotient digits, then division by the
      content, which starts a new run.

    Returns the terms and, for each term r_i (i >= 2), the step
    (g, t, e) that made it: with a, b the two terms before it,
    a mod b = -(s / |lc b|^e) * r_i where s = g * lc(a)^t.
    """
    seq, steps, first = [a], [], True
    while b:
        seq.append(b)
        n = len(b)
        if n == 1:
            break
        lb, sb = abs(b[-1]), (1 if b[-1] > 0 else -1)
        normal = len(a) == n + 1
        if normal:
            # r = lb^2*a - (lb*c1*x + c0)*b, the top two terms cancel
            c1 = sb * a[-1]
            c0 = sb * (lb * a[-2] - c1 * b[-2])
            u, v = lb * lb, lb * c1
            r = [u * a[0] - c0 * b[0]]
            r += [u * a[i] - v * b[i - 1] - c0 * b[i] for i in range(1, n - 1)]
            e = 2
        else:
            r, e = list(a), 0
            for k in range(len(a) - n, -1, -1):
                c = sb * r.pop()
                if c:
                    e += 1
                    if lb != 1:
                        r = [lb * x for x in r]
                    for i in range(n - 1):
                        r[k + i] -= c * b[i]
        if normal and r[-1]:
            t = 0 if first else 2
            s = a[-1] ** t
            r = [-x // s for x in r]
            steps.append((1, t, 2))
            first = False
        else:
            zpoly.trim(r)
            if r:
                g = math.gcd(*r)
                r = [-x // g for x in r]
                steps.append((g, 0, e))
            first = True
        a, b = b, r
    return seq, steps


def _primitive_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """gcd(a, b) of integer lists, not both zero: the primitive part of
    the last term of their remainder sequence, top coefficient > 0."""
    if len(a) < len(b):
        a, b = b, a
    return _from_ints(list(_remainder_sequence(a, b)[0][-1])).primitive_part


def _monic(p: tuple[int, ...]) -> RatPoly:
    """The monic multiple of a primitive tuple with top coefficient > 0."""
    return _model(Fraction(1, p[-1]), p)


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic greatest common divisor: the primitive part of the last
    term of the integer remainder sequence of the primitive models of f
    and g, made monic."""
    if f.is_zero and g.is_zero:
        return RatPoly()
    return _monic(_primitive_gcd(primitive_integer_coeffs(f), primitive_integer_coeffs(g)))


def squarefree_decomposition(f: RatPoly) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """f = unit * prod g_i^i with the g_i monic, square-free, pairwise
    coprime and of degree >= 1, by Musser's algorithm (1971) on the
    gcd(f, f') that ends the remainder sequence of the positivity gate
    (``_squarefree_decomposition``)."""
    if f.is_zero:
        raise ValueError("zero polynomial has no square-free decomposition")
    return _squarefree_decomposition(f, _positivity(f)[1])


def _squarefree_decomposition(f: RatPoly, last: list[int]
                              ) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """Musser's decomposition of a nonzero f, given ``last``, the last
    term of the remainder sequence of (f, f') (``_positivity``).

    With f = prod g_j^j, c = gcd(f, f') = prod g_j^(j-1) and w = f/c =
    prod g_j.  Step i holds w = prod_{j>=i} g_j and c = prod_{j>=i}
    g_j^(j-i), so gcd(w, c) = prod_{j>i} g_j and w / gcd(w, c) = g_i;
    once c is constant, w = g_i is the last part.  Every gcd has degree
    at most deg c, the repeated part of f.  All terms are primitive
    integer tuples with a positive top coefficient, and by Gauss's lemma
    every quotient of them is one too."""
    c = _from_ints(last).primitive_part
    w = tuple(zpoly.divide(f.primitive_part, c)[0])
    parts: list[tuple[RatPoly, int]] = []
    i = 1
    while len(c) > 1:
        y = _primitive_gcd(w, c)
        if len(y) < len(w):
            parts.append((_monic(tuple(zpoly.divide(w, y)[0])), i))
        w, c = y, zpoly.divide(c, y)[0]
        i += 1
    if len(w) > 1:
        parts.append((_monic(w), i))
    return f.leading, parts


def squarefree_part(f: RatPoly) -> RatPoly:
    """Monic product of the distinct irreducible factors of f: f over
    gcd(f, f'), the last term of the remainder sequence of
    ``_root_counts``."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return RatPoly([1])
    g = _from_ints(_root_counts(f)[2]).primitive_part
    return _monic(tuple(zpoly.divide(f.primitive_part, g)[0]))


# ---------------------------------------------------------------------------
# Resultants and discriminants
# ---------------------------------------------------------------------------

def _resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) for integer lists with deg a >= deg b >= 0, b nonzero,
    folded along the remainder sequence with

        Res(A, B) = (-1)^(mn) * lc(B)^(m-k) * Res(B, A mod B)
        Res(B, q*C) = q^n * Res(B, C),  Res(B, c) = c^n for a constant c,

    (m, n, k the degrees of A, B and A mod B) and A mod B =
    -(g*lc(A)^t / |lc B|^e) * C from the step that made C.  The powers
    of each |lc| are summed as exponents first: along a normal run they
    cancel, so no large intermediate power is formed."""
    seq, steps = _remainder_sequence(a, b)
    if len(seq[-1]) > 1:
        return 0
    sign, num, den = 1, 1, 1
    exps = [0] * len(seq)
    for i, (g, t, e) in enumerate(steps):
        m, n, k = len(seq[i]) - 1, len(seq[i + 1]) - 1, len(seq[i + 2]) - 1
        if (m * n + n + (m - k if seq[i + 1][-1] < 0 else 0)) % 2:
            sign = -sign
        num *= g ** n
        exps[i] += t * n
        exps[i + 1] += m - k - e * n
    c, p = seq[-1][0], len(seq[-2]) - 1
    if c < 0 and p % 2:
        sign = -sign
    exps[-1] += p
    for term, x in zip(seq, exps):
        if x > 0:
            num *= abs(term[-1]) ** x
        elif x < 0:
            den *= abs(term[-1]) ** -x
    return sign * (num // den)


def sylvester_resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g), the determinant of the Sylvester matrix of (f, g),
    from the remainder sequence of the primitive parts: with f = c*P
    and g = d*Q, Res(f, g) = c^deg g * d^deg f * Res(P, Q)."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = f.degree, g.degree
    if m < n:
        r = sylvester_resultant(g, f)
        return -r if m * n % 2 else r
    return (f.content ** n * g.content ** m
            * _resultant(list(f.primitive_part), list(g.primitive_part)))


def discriminant(f: RatPoly) -> Fraction:
    """Resultant of f and f'.  Vanishes exactly when f has a repeated
    complex root; no sign or leading-coefficient normalization."""
    if f.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    return sylvester_resultant(f, f.derivative())


def is_squarefree(f: RatPoly) -> bool:
    """No repeated complex root: f has deg f distinct roots."""
    if f.degree < 1:
        raise ValueError("square-freeness needs degree >= 1")
    return count_distinct_and_real_roots(f)[0] == f.degree


# ---------------------------------------------------------------------------
# Power sums, Hankel matrix, inertia
# ---------------------------------------------------------------------------

def power_sums(f: RatPoly) -> list[Fraction]:
    """Power sums s_0..s_{2d-2} of the complex roots of f.

    Newton's identities for k <= d, then the coefficient recurrence
    c_d*s_k + c_{d-1}*s_{k-1} + ... + c_0*s_{k-d} = 0; no root
    extraction, denominators divide a power of the top coefficient.
    """
    d = f.degree
    if d < 1:
        raise ValueError("power sums need degree >= 1")
    c = f.coeffs
    cd = c[d]
    s = [Fraction(d)]
    for k in range(1, 2 * d - 1):
        acc = Fraction(0)
        if k <= d:
            for i in range(1, k):
                acc += c[d - i] * s[k - i]
            acc += k * c[d - k]
        else:
            for i in range(1, d + 1):
                acc += c[d - i] * s[k - i]
        s.append(-acc / cd)
    return s


def hankel_matrix(f: RatPoly) -> tuple[tuple[Fraction, ...], ...]:
    """d x d Hankel matrix with (i, j) entry s_{i+j}."""
    d = f.degree
    s = power_sums(f)
    return tuple(tuple(s[i + j] for j in range(d)) for i in range(d))


def rank_signature(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, int]:
    """Rank and signature of a symmetric rational matrix.

    Symmetric elimination produces a congruent diagonal.  A zero pivot
    with a nonzero off-diagonal partner is repaired by adding that row
    and column to the pivot row and column; the resulting 2x2 block
    contributes one positive and one negative inertia index either way.
    """
    n = len(matrix)
    m = [[_frac(x) for x in row] for row in matrix]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = 0
    k = 0
    while k < n:
        pivot = next((r for r in range(k, n) if m[r][r] != 0), None)
        if pivot is None:
            pair = None
            for r in range(k, n):
                for c in range(r + 1, n):
                    if m[r][c] != 0:
                        pair = (r, c)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero
            r, c = pair
            for t in range(n):
                m[r][t] += m[c][t]
            for t in range(n):
                m[t][r] += m[t][c]
            pivot = r
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            for row in m:
                row[k], row[pivot] = row[pivot], row[k]
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if m[r][k] == 0:
                continue
            factor = m[r][k] / p
            for c in range(k, n):
                m[r][c] -= factor * m[k][c]
        for c in range(k + 1, n):
            m[k][c] = Fraction(0)
        k += 1
    return pos + neg, pos - neg


def count_distinct_and_real_roots(f: RatPoly) -> tuple[int, int]:
    """(number of distinct complex roots, number of distinct real roots)
    of f, the rank and signature of its Hankel matrix.

    Both come from one integer remainder sequence of (f, f'), which ends
    at gcd(f, f'): the rank is deg f minus the degree of that last term,
    and the signature is the drop in Sturm sign variations from -infinity
    to +infinity.  Square-freeness is not needed, since dividing the whole
    sequence by the gcd changes no sign variation at infinity.
    """
    if f.degree < 1:
        raise ValueError("root counts need degree >= 1")
    rank, sig, _ = _root_counts(f)
    return rank, sig


def _root_counts(f: RatPoly) -> tuple[int, int, list[int]]:
    """``count_distinct_and_real_roots`` on an f of degree >= 1, with the
    last term of the sequence, gcd(f, f') up to a nonzero factor."""
    a = primitive_integer_coeffs(f)
    da = zpoly.diff(a)
    content = math.gcd(*da)
    seq = _remainder_sequence(a, [c // content for c in da])[0]
    at_pos = [1 if p[-1] > 0 else -1 for p in seq]
    at_neg = [s if len(p) % 2 == 1 else -s for s, p in zip(at_pos, seq)]
    return len(a) - len(seq[-1]), _variations(at_neg) - _variations(at_pos), seq[-1]


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_real_root_count(f: RatPoly) -> int:
    """Number of real roots of a square-free f: the signature of
    ``count_distinct_and_real_roots``, when the rank shows that f is
    square-free (rank = deg f)."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return 0
    rank, sig = count_distinct_and_real_roots(f)
    if rank != f.degree:
        raise ValueError("Sturm count requires square-free input")
    return sig


# ---------------------------------------------------------------------------
# Positivity on the real line
# ---------------------------------------------------------------------------

class PositivityCertificate(Record):
    """Why a polynomial is (or is not) strictly positive on the reals.

    Rank and signature are those of the Hankel matrix of the square-free
    part, that is, the numbers of distinct complex and distinct real
    roots; they are read off one integer remainder sequence of (f, f')
    (``count_distinct_and_real_roots``).  ``on_squarefree_part`` is true
    when f is square-free, so that the square-free part is f itself.  The
    verdict is: even degree, positive leading and constant coefficients,
    and signature zero (no real roots).
    """

    rank: int
    signature: int
    leading_sign: int
    constant_sign: int
    on_squarefree_part: bool
    verdict: bool


def is_positive_on_reals(f: RatPoly) -> PositivityCertificate:
    return _positivity(f)[0]


def _positivity(f: RatPoly) -> tuple[PositivityCertificate, list[int]]:
    """The gate body: ``is_positive_on_reals(f)`` and the last term of
    the remainder sequence of (f, f') it was read from, gcd(f, f') up to
    a nonzero factor ([1] for a constant f).  A caller that goes on to
    decompose f hands that term to ``_squarefree_decomposition``."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    # the primitive part has a positive top coefficient, so the content
    # carries the sign of f's
    lead = 1 if f.content.numerator > 0 else -1
    p0 = f.primitive_part[0]
    csign = 0 if p0 == 0 else (lead if p0 > 0 else -lead)
    if f.degree == 0:
        return PositivityCertificate(0, 0, lead, csign, True, csign > 0), [1]
    rank, sig, last = _root_counts(f)
    verdict = f.degree % 2 == 0 and lead > 0 and csign > 0 and sig == 0
    return PositivityCertificate(rank, sig, lead, csign, rank == f.degree, verdict), last


def _proved_positive(f: RatPoly) -> PositivityCertificate:
    """``is_positive_on_reals(f)`` for an f the caller has proved
    strictly positive on R.  Only square-freeness is left to decide.  If
    ``zpoly.coprime`` proves P and P' coprime (f = c*P), f has deg f
    distinct complex roots and none real.  Otherwise the full test
    decides; the certificate is the same."""
    p = f.primitive_part
    if zpoly.coprime(p, zpoly.diff(p)):
        return PositivityCertificate(f.degree, 0, 1, 1, True, True)
    return is_positive_on_reals(f)


def _proved_positive_minus(f: RatPoly, t: Fraction, k: int
                           ) -> tuple[RatPoly, PositivityCertificate]:
    """g = f - t * x^k, for a nonzero rational t and k = 0 or k = d =
    deg f >= 1, and ``is_positive_on_reals(g)``, for a g the caller has
    proved strictly positive on R: the ALG6 / ALGN residual f - 4^-l and
    the ALG9 candidates f - 4^-l x^k.  g is built on f's model c*P: one
    scaled integer list with one entry changed,
    (c_num t_den P - t_num c_den x^k) / (c_den t_den).

    g is proved square-free, with no gcd, when ord2(c) - ord2(t) >
    d * ord2(d * b), where b = P[d] for k = 0 and b = P[0] for k = d.
    Take k = 0 and tau = t / c, so g = c (P - tau).  A repeated root of g
    is a common root of P - tau and P', so tau is a root of
    D(tau) = Res_x(P - tau, P') = (d lc P)^d prod_{P'(beta)=0} (P(beta) - tau),
    an integer polynomial in tau (a Sylvester determinant) with leading
    coefficient +-(d lc P)^d.  By the rational root theorem the reduced
    denominator of tau then divides (d lc P)^d, so its 2-adic valuation,
    max(0, ord2(c) - ord2(t)), is at most d ord2(d lc P).  For k = d,
    g(0) = f(0) != 0 (g > 0), so the roots of g, with their
    multiplicities, are the inverses of those of x^d g(1/x) = c (P* - tau),
    where P* is P reversed, of degree d with lc P* = P[0]; the same test
    applies.  Comparing valuations forms no power of d b, and for
    t = 4^-l the test holds for every l past a threshold.  Otherwise
    ``_proved_positive`` decides; the certificate is the same."""
    c, p = f.content, f.primitive_part
    d = len(p) - 1
    scale = c.numerator * t.denominator
    ints = [scale * x for x in p]
    ints[k] -= t.numerator * c.denominator
    g = _from_ints(ints, 1, c.denominator * t.denominator)
    v = zpoly.ord2_int
    if (v(c.numerator) - v(c.denominator) - v(t.numerator) + v(t.denominator)
            > d * v(d * p[d - k])):
        return g, PositivityCertificate(g.degree, 0, 1, 1, True, True)
    return g, _proved_positive(g)


def _negative_somewhere(f: RatPoly, positivity: PositivityCertificate,
                        last: list[int] | None) -> bool:
    """Whether the nonzero f takes a negative value on R, from the gate's
    result on f, ``_positivity(f)``; ``last`` is None when the caller holds
    only the certificate, and is then computed if the decomposition needs
    it.  False for an f > 0 and for a nonnegative f with real roots."""
    if positivity.verdict:
        return False
    if f.degree % 2 == 1 or positivity.leading_sign < 0 or f.degree == 0:
        return True
    # even degree, positive leading: f >= 0 iff no odd-multiplicity
    # component has a real root (sign changes happen only there); a
    # square-free f is its one component, whose signature the gate holds
    if positivity.on_squarefree_part:
        return positivity.signature != 0
    if last is None:
        last = _root_counts(f)[2]
    return any(mult % 2 == 1 and _root_counts(g)[1]
               for g, mult in _squarefree_decomposition(f, last)[1])


# -1, the g of the epsilon searches: f + 2^-k * g = f - 2^-k
_MINUS_ONE = RatPoly([-1])


def epsilon_below_infimum(f: RatPoly) -> Fraction:
    """The largest certified dyadic epsilon 2^-k <= min(f(0), 1) with
    f - epsilon still positive on R.

    Every candidate is verified with the signature test.  The search
    ends on every positive f, since min f > 0 and f - 2^-k > 0 once
    2^-k < min f.
    """
    if not is_positive_on_reals(f).verdict:
        raise ValueError("epsilon search requires f strictly positive on R")
    return Fraction(1, 2 ** _least_exponent(f, _MINUS_ONE))


def perturbation_bound(f: RatPoly, g: RatPoly) -> Fraction:
    """The largest verified dyadic eps0 = 2^-k <= 1 with f + eps0*g
    positive on R.

    f must be square-free and positive on R and deg g <= deg f, so such
    a bound exists; the returned candidate is verified exactly and any
    smaller weight of the same g keeps positivity by convexity.
    """
    positivity = is_positive_on_reals(f)
    if not positivity.verdict:
        raise ValueError("perturbation bound requires f positive on R")
    if not positivity.on_squarefree_part:
        raise ValueError("perturbation bound requires square-free f")
    if g.degree > f.degree:
        raise ValueError("deg g must be bounded by deg f")
    return Fraction(1, 2 ** _least_exponent(f, g))


def _least_exponent(f: RatPoly, g: RatPoly) -> int:
    """The least k >= e with f + 2^-k * g strictly positive on R, for an
    f already known to be strictly positive on R and a g with
    deg g <= deg f.  {t >= 0 : f + t*g > 0} is convex and holds 0, so the
    test is monotone in k, and it holds for some k since f dominates g.

    The start e is the least e >= 0 with 2^-e * |g(0)| <= f(0) when
    g(0) < 0, and 0 otherwise: below it the candidate is negative at 0.
    The search tests e, e + 1, e + 3, e + 7, ... until the test holds,
    then binary-searches the last gap."""
    e = (max(math.ceil(-g[0] / f[0]), 1) - 1).bit_length()

    def ok(k: int) -> bool:
        cand = f + g * Fraction(1, 2 ** k)
        return not cand.is_zero and is_positive_on_reals(cand).verdict

    lo, hi = e - 1, e  # ok is false at every k <= lo
    while not ok(hi):
        lo, hi = hi, 2 * hi - e + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
