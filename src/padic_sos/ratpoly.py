"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are dense coefficient tuples of ``fractions.Fraction`` in
ascending degree order, always stored with a nonzero top coefficient
(the zero polynomial is the empty tuple).

Root counting, square-freeness and gcds run on one fraction-free kernel:
a sign-tracked remainder sequence of primitive integer polynomials
(``_remainder_sequence``).  Run on (f, f') it gives the numbers of
distinct complex and distinct real roots (the rank and signature of the
Hankel form of f), and with them strict positivity on the reals; run on
(f, g) its last term is the gcd.  The Fraction reference paths stay for
the documents that print them and as test oracles: power sums, the
Hankel matrix and its exact rank/signature, Sturm chains, and Sylvester
resultants and discriminants.  Certified "epsilon below the infimum"
searches complete the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class SearchDepthExceeded(RuntimeError):
    """A certified halving search ran out of its configured depth."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls([c])

    @classmethod
    def monomial(cls, k: int, c=1) -> "RatPoly":
        return cls([0] * k + [c])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def __iter__(self):
        return iter(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({self})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[i]
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
            other = RatPoly([other])
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self._coeffs])

    def __sub__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly([other])
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self._coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = RatPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if not isinstance(other, RatPoly) or other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self._coeffs) - len(other._coeffs) + 1, 1)
        rem = list(self._coeffs)
        d, lc = other.degree, other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            factor = rem[-1] / lc
            q[k] = factor
            for i, c in enumerate(other._coeffs):
                rem[k + i] -= factor * c
            rem.pop()
        return RatPoly(q), RatPoly(rem)

    def __floordiv__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[1]

    def __call__(self, t) -> Fraction:
        return self.evaluate(t)

    def evaluate(self, t) -> Fraction:
        """Evaluate at a rational point by Horner's rule, exactly."""
        t = _frac(t)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self._coeffs)][1:])

    def shift(self, a) -> "RatPoly":
        """Return g with g(t) = f(t + a); a linear change of variables."""
        a = _frac(a)
        if a == 0:
            return self
        out = RatPoly()
        xa = RatPoly([a, 1])
        for c in reversed(self._coeffs):
            out = out * xa + RatPoly([c])
        return out

    def reverse(self) -> "RatPoly":
        """Reverse the coefficient vector over the declared degree.

        For f of degree d this is x^d * f(1/x); the result may have
        smaller degree when the constant coefficient vanishes.
        """
        return RatPoly(tuple(reversed(self._coeffs)))


X = RatPoly([0, 1])


def primitive_integer_coeffs(f: RatPoly) -> list[int]:
    """Integer coefficients of the primitive rational multiple of f.

    Clears denominators and divides out the content; the result is
    unique up to the sign of f, which is preserved.
    """
    if f.is_zero:
        return []
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (lcm // c.denominator) for c in f.coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """Fraction-free Sturm-type remainder sequence a, b, r_2, ..., r_k.

    ``a`` and ``b`` are ascending integer coefficient lists with
    deg a >= deg b.  Each new term is minus a positive multiple of the
    remainder of the two before it: pseudo-division that scales by
    |lc(b)| instead of lc(b) keeps the multiplier positive, and dividing
    by the positive content keeps the numbers small.  So every term has
    the sign of the matching term of the Sturm sequence over Q, and the
    last term is gcd(a, b) up to a nonzero factor.
    """
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


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic greatest common divisor: the last term of the integer
    remainder sequence of the primitive models of f and g."""
    a, b = primitive_integer_coeffs(f), primitive_integer_coeffs(g)
    if len(a) < len(b):
        a, b = b, a
    if not a:
        return RatPoly()
    last = _remainder_sequence(a, b)[-1]
    return RatPoly([Fraction(c, last[-1]) for c in last])


def squarefree_decomposition(f: RatPoly) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """Yun decomposition: f = unit * prod g_i^i with the g_i monic,
    square-free, and pairwise coprime."""
    if f.is_zero:
        raise ValueError("zero polynomial has no square-free decomposition")
    unit = f.leading
    f = f * (1 / unit)
    if f.degree == 0:
        return unit, []
    parts: list[tuple[RatPoly, int]] = []
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f // a
    c = df // a - b.derivative()
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, c)
        if g.degree > 0:
            parts.append((g, i))
        b = b // g
        c = c // g - b.derivative()
        i += 1
    return unit, parts


def squarefree_part(f: RatPoly) -> RatPoly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return RatPoly([1])
    g = poly_gcd(f, f.derivative())
    h = f // g
    return h * (1 / h.leading)


# ---------------------------------------------------------------------------
# Resultants and discriminants
# ---------------------------------------------------------------------------

def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def _sylvester_rows(fc: Sequence[Fraction], gc: Sequence[Fraction]) -> list[list[Fraction]]:
    # fc, gc descending, declared degrees m = len(fc)-1, n = len(gc)-1
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + list(fc) + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + list(gc) + [Fraction(0)] * (size - n - 1 - i))
    return rows


def sylvester_resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Determinant of the Sylvester matrix of (f, g)."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    if f.degree == 0 and g.degree == 0:
        return Fraction(1)
    return _det_fraction(_sylvester_rows(fc, gc))


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
    a = primitive_integer_coeffs(f)
    da = [i * c for i, c in enumerate(a)][1:]
    content = math.gcd(*da)
    seq = _remainder_sequence(a, [c // content for c in da])
    at_pos = [1 if p[-1] > 0 else -1 for p in seq]
    at_neg = [s if len(p) % 2 == 1 else -s for s, p in zip(at_pos, seq)]
    return len(a) - len(seq[-1]), _variations(at_neg) - _variations(at_pos)


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_real_root_count(f: RatPoly) -> int:
    """Count real roots of a square-free f by Sturm sign variations at
    -infinity and +infinity, with the chain and its square-free check
    on Fractions.  Independent of the integer remainder sequence."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return 0
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    if chain[-1].degree > 0:
        raise ValueError("Sturm count requires square-free input")
    at_pos = [1 if p.leading > 0 else -1 for p in chain]
    at_neg = [s if p.degree % 2 == 0 else -s for s, p in zip(at_pos, chain)]
    return _variations(at_neg) - _variations(at_pos)


# ---------------------------------------------------------------------------
# Positivity on the real line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositivityCertificate:
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
    if f.is_zero:
        raise ValueError("zero polynomial")
    lead = 1 if f.leading > 0 else -1
    c0 = f[0]
    csign = 0 if c0 == 0 else (1 if c0 > 0 else -1)
    if f.degree == 0:
        return PositivityCertificate(0, 0, lead, csign, True, c0 > 0)
    rank, sig = count_distinct_and_real_roots(f)
    verdict = f.degree % 2 == 0 and lead > 0 and csign > 0 and sig == 0
    return PositivityCertificate(rank, sig, lead, csign, rank == f.degree, verdict)


POSITIVE = "positive"
NONNEGATIVE_WITH_ROOTS = "nonnegative_with_roots"
NEGATIVE_SOMEWHERE = "negative_somewhere"


def positivity_trichotomy(f: RatPoly) -> str:
    """Classify a nonzero polynomial as strictly positive on the reals,
    nonnegative with real roots, or negative somewhere."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if is_positive_on_reals(f).verdict:
        return POSITIVE
    if f.degree % 2 == 1 or f.leading < 0:
        return NEGATIVE_SOMEWHERE
    if f.degree == 0:
        return NEGATIVE_SOMEWHERE
    # even degree, positive leading: f >= 0 iff no odd-multiplicity
    # component has a real root (sign changes happen only there)
    _, parts = squarefree_decomposition(f)
    for g, mult in parts:
        if mult % 2 == 1 and g.degree >= 1:
            _, sig = count_distinct_and_real_roots(g)
            if sig != 0:
                return NEGATIVE_SOMEWHERE
    return NONNEGATIVE_WITH_ROOTS


def epsilon_below_infimum(f: RatPoly, max_halvings: int = 128) -> Fraction:
    """A certified dyadic epsilon with f - epsilon still positive on R.

    Halving search starting from the largest power of two at most
    min(f(0), 1); every candidate is verified with the signature test.
    """
    if not is_positive_on_reals(f).verdict:
        raise ValueError("epsilon search requires f strictly positive on R")
    c0 = f[0]
    e = 0
    while Fraction(1, 2 ** e) > c0:
        e += 1
    for exp in range(e, e + max_halvings):
        eps = Fraction(1, 2 ** exp)
        if is_positive_on_reals(f - eps).verdict:
            return eps
    raise SearchDepthExceeded(
        f"no verified epsilon above 2^-{e + max_halvings} for {f}")


def perturbation_bound(f: RatPoly, g: RatPoly, max_halvings: int = 128) -> Fraction:
    """A verified dyadic eps0 > 0 with f + eps0*g positive on R.

    f must be square-free and positive on R and deg g <= deg f, so such
    a bound exists; the returned candidate is verified exactly and any
    smaller weight of the same g keeps positivity by convexity.
    """
    if not is_positive_on_reals(f).verdict:
        raise ValueError("perturbation bound requires f positive on R")
    if f.degree >= 1 and not is_squarefree(f):
        raise ValueError("perturbation bound requires square-free f")
    if g.degree > f.degree:
        raise ValueError("deg g must be bounded by deg f")
    if g.is_zero:
        return Fraction(1)
    for exp in range(0, max_halvings):
        eps = Fraction(1, 2 ** exp)
        cand = f + g * eps
        if not cand.is_zero and is_positive_on_reals(cand).verdict:
            return eps
    raise SearchDepthExceeded(f"no verified perturbation bound for {f} with {g}")
