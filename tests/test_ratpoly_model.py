"""Differential tests of the content x primitive-part ``RatPoly``.

The oracle is the Fraction-tuple class it replaced (``FracPoly``, kept
here verbatim apart from its name, its docstring and its division
operators, which ``RatPoly`` no longer has) with its
``primitive_integer_coeffs``.
On hypothesis-drawn rational polynomials, with zero, trailing-zero,
negative and large-denominator inputs, every operation must give the
same Fraction coefficients, ``str`` and ``hash``, and every result must
be in model form: f = c*P with P primitive, its top coefficient
positive, no trailing zero, and c nonzero (c = 0 and empty P for
zero).
"""

import math
from fractions import Fraction
from typing import Iterable

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from padic_sos.ratpoly import RatPoly, primitive_integer_coeffs  # noqa: E402


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class FracPoly:
    """The Fraction-tuple polynomial the model ``RatPoly`` replaced: one
    reduced Fraction per coefficient, every operation on Fractions."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "FracPoly":
        return cls([c])

    @classmethod
    def monomial(cls, k: int, c=1) -> "FracPoly":
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
        if isinstance(other, FracPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == FracPoly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"FracPoly({self})"

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

    def __add__(self, other) -> "FracPoly":
        if isinstance(other, (int, Fraction)):
            other = FracPoly([other])
        if not isinstance(other, FracPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FracPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "FracPoly":
        return FracPoly([-c for c in self._coeffs])

    def __sub__(self, other) -> "FracPoly":
        if isinstance(other, (int, Fraction)):
            other = FracPoly([other])
        if not isinstance(other, FracPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "FracPoly":
        return (-self) + other

    def __mul__(self, other) -> "FracPoly":
        if isinstance(other, (int, Fraction)):
            return FracPoly([c * other for c in self._coeffs])
        if not isinstance(other, FracPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return FracPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return FracPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FracPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = FracPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, t) -> Fraction:
        return self.evaluate(t)

    def evaluate(self, t) -> Fraction:
        """Evaluate at a rational point by Horner's rule, exactly."""
        t = _frac(t)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "FracPoly":
        return FracPoly([i * c for i, c in enumerate(self._coeffs)][1:])

    def shift(self, a) -> "FracPoly":
        """Return g with g(t) = f(t + a); a linear change of variables."""
        a = _frac(a)
        if a == 0:
            return self
        out = FracPoly()
        xa = FracPoly([a, 1])
        for c in reversed(self._coeffs):
            out = out * xa + FracPoly([c])
        return out

    def reverse(self) -> "FracPoly":
        """Reverse the coefficient vector over the declared degree.

        For f of degree d this is x^d * f(1/x); the result may have
        smaller degree when the constant coefficient vanishes.
        """
        return FracPoly(tuple(reversed(self._coeffs)))


def reference_primitive_integer_coeffs(f: FracPoly) -> list[int]:
    if f.is_zero:
        return []
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (lcm // c.denominator) for c in f.coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


# Small and large denominators, zeros and signs; up to 9 coefficients so
# trailing zeros, zero polynomials and constants all turn up.
RATIONALS = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=24),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**12)),
    st.just(Fraction(0)))
COEFFS = st.lists(RATIONALS, max_size=9)
POINTS = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-13, 13).filter(lambda n: n % 2),
                             st.just(2)),
                   st.fractions(min_value=-5, max_value=5, max_denominator=9))
SCALARS = st.one_of(st.integers(-9, 9), RATIONALS)
SETTINGS = settings(max_examples=100, deadline=None)


def check_model(f: RatPoly) -> None:
    c, p = f.content, f.primitive_part
    assert isinstance(c, Fraction) and isinstance(p, tuple)
    if not p:
        assert c == 0 and f.coeffs == ()
        return
    assert c != 0
    assert all(type(x) is int for x in p)
    assert math.gcd(*p) == 1 and p[-1] > 0
    assert tuple(c * x for x in p) == f.coeffs


def agree(f: RatPoly, ref: FracPoly) -> None:
    """f is in model form and shows exactly what the oracle shows."""
    check_model(f)
    assert f.coeffs == ref.coeffs
    assert f.degree == ref.degree and f.is_zero == ref.is_zero
    assert str(f) == str(ref) and repr(f) == repr(ref).replace("FracPoly", "RatPoly")
    assert hash(f) == hash(ref)
    assert list(f) == list(ref)
    assert [f[i] for i in range(-1, len(ref.coeffs) + 2)] == \
        [ref[i] for i in range(-1, len(ref.coeffs) + 2)]
    assert primitive_integer_coeffs(f) == reference_primitive_integer_coeffs(ref)
    if not ref.is_zero:
        assert f.leading == ref.leading


def both(cs):
    return RatPoly(cs), FracPoly(cs)


@SETTINGS
@given(COEFFS)
def test_construction_matches_the_oracle(cs):
    f, ref = both(cs)
    agree(f, ref)
    # the lazily built coefficient tuple of a derived model agrees too
    agree(-(-f), ref)


@SETTINGS
@given(COEFFS, COEFFS)
def test_ring_operations_match_the_oracle(a, b):
    (f, fr), (g, gr) = both(a), both(b)
    agree(f + g, fr + gr)
    agree(f - g, fr - gr)
    agree(f * g, fr * gr)
    agree(-f, -fr)
    assert (f == g) == (fr == gr)
    assert (f == f * 1) and (f + g == g + f)


@SETTINGS
@given(COEFFS, SCALARS)
def test_scalar_operations_match_the_oracle(a, q):
    f, ref = both(a)
    agree(f * q, ref * q)
    agree(q * f, q * ref)
    agree(f + q, ref + q)
    agree(f - q, ref - q)
    agree(q - f, q - ref)
    agree(RatPoly.constant(q), FracPoly.constant(q))
    agree(RatPoly.monomial(len(a), q), FracPoly.monomial(len(a), q))
    assert (f == q) == (ref == q)


@SETTINGS
@given(st.lists(RATIONALS, max_size=5), st.integers(0, 4))
def test_powers_match_the_oracle(a, n):
    f, ref = both(a)
    agree(f ** n, ref ** n)


@SETTINGS
@given(st.lists(RATIONALS, max_size=4), st.integers(2, 9),
       st.sampled_from([Fraction(1), Fraction(1, 4225), Fraction(-7, 12), Fraction(64)]))
def test_a_power_is_the_repeated_product(a, n, content):
    f = RatPoly(a) * content
    product = f
    for _ in range(n - 1):
        product = product * f
    check_model(f ** n)
    assert f ** n == product


def test_a_high_power_of_the_cyclotomic_quadratic():
    cyclotomic = RatPoly([1, 1, 1])
    power = cyclotomic ** 16
    agree(power, FracPoly([1, 1, 1]) ** 16)
    assert power == (cyclotomic ** 8) * (cyclotomic ** 8)
    assert power(1) == 3 ** 16 and power.degree == 32


@SETTINGS
@given(COEFFS, POINTS)
def test_evaluation_and_shift_match_the_oracle(a, t):
    f, ref = both(a)
    value = f.evaluate(t)
    assert type(value) is Fraction and value == ref.evaluate(t) and f(t) == value
    agree(f.shift(t), ref.shift(t))


@SETTINGS
@given(COEFFS)
def test_derivative_and_reverse_match_the_oracle(a):
    f, ref = both(a)
    agree(f.derivative(), ref.derivative())
    agree(f.reverse(), ref.reverse())
    agree(f.reverse().reverse(), ref.reverse().reverse())


def test_constructors_and_zero():
    agree(RatPoly(), FracPoly())
    agree(RatPoly([0, 0]), FracPoly([0, 0]))
    agree(RatPoly.monomial(3, Fraction(-2, 3)), FracPoly.monomial(3, Fraction(-2, 3)))
    agree(RatPoly.constant("5/4"), FracPoly.constant("5/4"))
    f = RatPoly([Fraction(-6, 35), Fraction(4, 21)])
    assert (f.content, f.primitive_part) == (Fraction(2, 105), (-9, 10))
    assert ((-f).content, (-f).primitive_part) == (Fraction(-2, 105), (-9, 10))
    agree(RatPoly.constant(0), FracPoly())
    agree(RatPoly.monomial(4, 0), FracPoly())
    for build in (lambda: RatPoly([1.5]), lambda: RatPoly.constant(1.5),
                  lambda: RatPoly.monomial(2, 1.5), lambda: RatPoly([1]) + 1.5,
                  lambda: RatPoly([1]) - 1.5):
        with pytest.raises(TypeError):
            build()
