"""Seeded inputs for the benchmark workloads.

Every input is a polynomial built from a ``random.Random`` seeded with a
string that names the workload stream and the ``--seed``, so the same
seed gives the same inputs in every process.  Generation happens before
any timing starts.

Corpus slices (both corpora use the same generator on their own stream):

* ``plain``: ``A^2 + B^2 + c`` with integer ``A`` of degree ``d/2`` and
  ``B`` of degree ``d/2`` half of the time (lower otherwise), so the
  leading coefficient is ``a^2 + b^2`` or ``a^2`` and its 2-adic
  valuation takes both parities (ALG6 as well as ALGN, NOS, PICKY).
* ``square-part``: ``g^2 * f`` with ``g`` a strictly positive quadratic
  and ``f`` plain, so ``reduce_auto``'s square-factor split and its
  transport of ``h`` back to the input do work (degrees >= 6).
* ``not-sos4``: ``square_plus_8a_minus_1(g, a)``, never a sum of four
  squares (degrees 2 and 10, where ``d/2`` is odd).
* ``always-square``: ``(2a x^m + b)^2 + 8c`` with ``a, b, c`` odd and
  ``m = d/2`` odd (degrees 6 and 14).  Its value at every integer and
  half-integer shift is a 2-adic unit that is 1 mod 8, so the PICKY and
  NOS routes never apply and no certifier rule concludes:
  ``reduce_auto`` returns an ``InconclusiveReport`` at this version.
  It keeps ``inconclusive_frac`` nonzero on both corpora, and a sound
  new procedure that decides it shows up as a lower value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from padic_sos import RatPoly, palindromic_counterexample, square_plus_8a_minus_1

DEGREES = (2, 4, 6, 8, 10, 12, 14, 16, 24, 32)
COEFF = 4
NONZERO = tuple(c for c in range(-COEFF, COEFF + 1) if c)

PLAIN = "plain"
SQUARE_PART = "square-part"
NOT_SOS4 = "not-sos4"
ALWAYS_SQUARE = "always-square"

REFERENCE = 0  # seed of the corpora's polynomial stream, whatever --seed is
ALG9_KS = (0, 1, 2)
ALG9_CAP = 40
ALG9_NS = (65, 67, 69)  # the odd N > 64 the seed behaviour was recorded at


@dataclass(frozen=True)
class Item:
    """One generated input: the slice label and degree are kept by the
    benchmark for checks and reporting; the library sees only ``poly``."""

    slice: str
    degree: int
    poly: RatPoly


def stream(name: str, seed: int) -> random.Random:
    return random.Random(f"padic-sos-bench:{name}:{seed}")


def _int_poly(rng: random.Random, degree: int) -> RatPoly:
    coeffs = [rng.randint(-COEFF, COEFF) for _ in range(degree)]
    coeffs.append(rng.choice(NONZERO))
    return RatPoly(coeffs)


def plain(rng: random.Random, d: int) -> RatPoly:
    m = d // 2
    a = _int_poly(rng, m)
    b = _int_poly(rng, m if rng.random() < 0.5 else rng.randrange(m))
    return a * a + b * b + RatPoly([rng.randint(1, 8)])


def square_part(rng: random.Random, d: int) -> RatPoly:
    g = plain(rng, 2)
    return g * g * plain(rng, d - 4)


def not_sos4(rng: random.Random, d: int) -> RatPoly:
    return square_plus_8a_minus_1(_int_poly(rng, d // 2), rng.randint(1, 4))[0]


def always_square(rng: random.Random, d: int) -> RatPoly:
    odd = (-3, -1, 1, 3)
    a, b = rng.choice(odd), rng.choice(odd)
    c = rng.choice((1, 3, 5, 7))
    inner = RatPoly.monomial(d // 2, 2 * a) + RatPoly([b])
    return inner * inner + RatPoly([8 * c])


def slice_for(d: int, slot: int) -> str:
    if slot % 4 == 2 and d >= 6:
        return SQUARE_PART
    if slot % 4 == 3 and d in (2, 10):
        return NOT_SOS4
    if slot % 4 == 3 and d in (6, 14):
        return ALWAYS_SQUARE
    return PLAIN


MAKERS = {PLAIN: plain, SQUARE_PART: square_part, NOT_SOS4: not_sos4,
          ALWAYS_SQUARE: always_square}


def corpus(name: str, seed: int, per_degree: int) -> list[Item]:
    """``per_degree`` inputs at each degree of ``DEGREES``.

    The polynomials come from the workload's reference stream, the same
    for every seed; the seed orders the pass.  Per-input cost is
    heavy-tailed (the budgeted residue sieve and the route searches make
    it vary up to tenfold within one degree and route, and up to 4.5x
    between ``f(x)`` and ``f(-x)``), so any seed-drawn change to the
    polynomials makes every timing metric mostly seed noise."""
    rng = stream(name, REFERENCE)
    items = []
    for d in DEGREES:
        for slot in range(per_degree):
            kind = slice_for(d, slot)
            items.append(Item(kind, d, MAKERS[kind](rng, d)))
    stream(name, seed).shuffle(items)
    return items


def alg9_family(seed: int) -> list[Item]:
    """One member of ``palindromic_counterexample(k, N)`` per k, with N
    drawn from the seed out of ``ALG9_NS``."""
    rng = stream("alg9-family", seed)
    items = []
    for k in ALG9_KS:
        n = rng.choice(ALG9_NS)
        items.append(Item(f"k={k},N={n}", 2 * (2 * k + 1),
                          palindromic_counterexample(k, n)[0]))
    return items


CLI_DOCS = (
    ("sos4-certify", NOT_SOS4, 6),
    ("sos4-certify", ALWAYS_SQUARE, 6),
    ("reduce", PLAIN, 4),
    ("reduce", ALWAYS_SQUARE, 6),
    ("newton-polygon", PLAIN, 8),
    ("newton-polygon", SQUARE_PART, 8),
    ("root-status", PLAIN, 6),
    ("root-status", PLAIN, 8),
    ("hankel", PLAIN, 8),
    ("hankel", NOT_SOS4, 6),
    ("discriminant", PLAIN, 8),
    ("discriminant", SQUARE_PART, 6),
)


def cli_documents(seed: int, per_entry: int) -> list[tuple[Item, list[str]]]:
    """``per_entry`` CLI argvs per entry of ``CLI_DOCS``, each on its own
    polynomial of degree <= 8 written in the CLI's human form.  As in
    ``corpus``, the polynomials come from a reference stream and the seed
    orders the pass: documents drawn per seed moved the median latency
    by up to 20% between seeds."""
    rng = stream("cli-cold", REFERENCE)
    docs = []
    for command, kind, d in CLI_DOCS * per_entry:
        item = Item(kind, d, MAKERS[kind](rng, d))
        argv = [command, "--poly", str(item.poly)]
        if command == "reduce":
            argv += ["--method", "auto"]
        docs.append((item, argv))
    stream("cli-cold", seed).shuffle(docs)
    return docs
