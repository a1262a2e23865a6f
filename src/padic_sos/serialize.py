"""Parsing and canonical JSON encoding of library objects.

All numbers are emitted as exact "num/den" (or "num") strings, never
floats, and objects serialize with sorted keys and a fixed layout so
identical inputs produce byte-identical output.  The schema is
versioned under the top-level key ``schema`` as ``padic-sos/1``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .ratpoly import RatPoly

if TYPE_CHECKING:
    from .certifier import Sos4Certificate
    from .hensel import RootStatus
    from .newton_polygon import NewtonDiagram
    from .ratpoly import PositivityCertificate
    from .reduction import (BranchRecord, IterateRecord, NonTermination,
                            ObstructionReport, ReductionResult)

SCHEMA = "padic-sos/1"

# Largest exponent the human form accepts, and so the largest degree a
# JSON array may give (at most MAX_EXPONENT + 1 entries).  A term x^n makes
# a dense list of n + 1 coefficients, so the cap bounds what a short input
# can cost before any algorithm runs; it lies far above any degree the
# exact kernels finish on.
MAX_EXPONENT = 10_000

# Bits of the largest all-integer input the parser accepts: MAX_EXPONENT + 1
# coefficients at int()'s digit limit (None when that limit is off).  A
# RatPoly keeps f = c*P with P integral, and denominators enlarge P: its
# coefficient i is n_i * (L / d_i) / gcd(n) for f_i = n_i / d_i and
# L = lcm(d), at most bits(n_i) + bits(L) - bits(d_i) + 1 bits.  So
# 10001 coefficients 1/p over distinct primes make every P_i about
# 150,000 bits.  An input whose sum of bits(n_i) + bits(L) - bits(d_i)
# exceeds MAX_MODEL_BITS is refused; for integer input that sum is the
# bits of its coefficients, so no all-integer input is refused.
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
MAX_MODEL_BITS = ((MAX_EXPONENT + 1) * (10 ** _INT_DIGITS - 1).bit_length()
                  if _INT_DIGITS else None)


class PolyParseError(ValueError):
    pass


def _bounded_poly(coeffs: list[Fraction]) -> RatPoly:
    """RatPoly(coeffs), refused past MAX_MODEL_BITS.  L grows one
    denominator at a time and every step bounds the final sum from
    below, so a refused input never builds its whole lcm."""
    if MAX_MODEL_BITS is not None:
        nonzero = [c for c in coeffs if c]
        base = sum(c.numerator.bit_length() - c.denominator.bit_length()
                   for c in nonzero)
        lcm = 1
        for c in nonzero:
            grown = math.lcm(lcm, c.denominator)
            if grown != lcm:
                lcm = grown
                if base + len(nonzero) * lcm.bit_length() > MAX_MODEL_BITS:
                    raise PolyParseError(
                        "coefficients too large once their denominators are "
                        f"cleared: more than {MAX_MODEL_BITS} bits, the size "
                        "of the largest all-integer input")
    return RatPoly(coeffs)


def frac_str(q) -> str:
    return str(Fraction(q))


def poly_to_json(f: RatPoly) -> list[str]:
    """Ascending coefficient array of exact strings; [] is zero."""
    return [str(c) for c in f.coeffs]


# The exact rational strings ``frac_str`` writes.  Nothing else is read:
# a decimal or JSON float has already been rounded, and an exponent form
# such as "1e4000000" asks for an arbitrarily large integer.
_COEFF = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction | None:
    """``text`` as an exact rational [+-]digits[/digits], or None when it
    is not of that form."""
    if not _COEFF.fullmatch(text):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # a zero denominator, or more digits than int() converts
        raise PolyParseError(f"bad rational: {exc}") from exc


def _json_coeff(index: int, c) -> Fraction:
    if type(c) is int:
        return Fraction(c)
    if isinstance(c, str) and (q := parse_rational(c)) is not None:
        return q
    raise PolyParseError(f"bad coefficient at index {index}: expected a JSON "
                         "integer or a string of the form [+-]digits[/digits]")


def poly_from_json(data) -> RatPoly:
    """Coefficients are JSON integers or exact strings ("-3/4")."""
    if not isinstance(data, list):
        raise PolyParseError("polynomial JSON must be an array of strings")
    if len(data) > MAX_EXPONENT + 1:
        raise PolyParseError(
            f"polynomial JSON array has more than {MAX_EXPONENT + 1} entries")
    return _bounded_poly([_json_coeff(i, c) for i, c in enumerate(data)])


# matched against a whole term (``fullmatch``), so no other character,
# a newline or a tab included, passes
_TERM = re.compile(
    r"(?P<coef>[0-9]+(?:/[0-9]+)?)?(?:(?<=[0-9])\*(?=x))?(?P<var>x)?(?:\^(?P<exp>[0-9]+))?")


def parse_poly(text: str) -> RatPoly:
    """Parse either a JSON coefficient array or a human form such as
    "4/4225*x^2 + 1/4225*x + 4/4225".  In the human form every sign is
    followed by a term, and a ``*`` stands only between a coefficient
    and x; anything else is a ``PolyParseError`` at its position in
    ``text``."""
    lead = len(text) - len(text.lstrip())
    text = text.strip()
    if not text:
        raise PolyParseError("empty polynomial")
    if text.startswith("["):
        try:
            data = json.loads(text)
        except ValueError as exc:  # also a JSON integer past int()'s digit limit
            raise PolyParseError(f"bad JSON array: {exc}") from exc
        except RecursionError as exc:
            raise PolyParseError("bad JSON array: nested too deeply") from exc
        return poly_from_json(data)

    compact = text.replace(" ", "")
    # where each character of ``compact`` stands in the caller's text;
    # a trailing empty term stands at the end
    where = [lead + i for i, ch in enumerate(text) if ch != " "] + [lead + len(text)]
    coeffs: dict[int, Fraction] = {}
    pos = 0
    sign = 1
    if compact[:1] in "+-":
        sign = -1 if compact[0] == "-" else 1
        pos = 1
    while True:  # every sign is followed by a term, the last one too
        end = pos
        while end < len(compact) and compact[end] not in "+-":
            end += 1
        term = compact[pos:end]
        at = where[pos]
        m = _TERM.fullmatch(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise PolyParseError(f"cannot parse term {term!r} at position {at}")
        if m.group("exp") is not None and m.group("var") is None:
            raise PolyParseError(f"exponent without variable in {term!r} at position {at}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError as exc:
            raise PolyParseError(f"zero denominator in {term!r} at position {at}") from exc
        except ValueError as exc:  # more digits than int() converts
            raise PolyParseError(f"bad coefficient at position {at}: {exc}") from exc
        exp = 0
        if m.group("var"):
            digits = m.group("exp") or "1"
            # the length test keeps int() off huge digit strings
            if (len(digits.lstrip("0")) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                raise PolyParseError(
                    f"exponent at position {at} exceeds {MAX_EXPONENT}")
            exp = int(digits)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
        if end >= len(compact):
            break
        sign = -1 if compact[end] == "-" else 1
        pos = end + 1
    size = max(coeffs) + 1
    return _bounded_poly([coeffs.get(i, Fraction(0)) for i in range(size)])


# ---------------------------------------------------------------------------
# Object encoders
# ---------------------------------------------------------------------------

def positivity_to_json(cert: PositivityCertificate) -> dict:
    return {
        "rank": cert.rank,
        "signature": cert.signature,
        "leading_sign": "+" if cert.leading_sign > 0 else "-",
        "constant_sign": {1: "+", -1: "-", 0: "0"}[cert.constant_sign],
        "on_squarefree_part": cert.on_squarefree_part,
        "verdict": cert.verdict,
    }


def diagram_to_json(d: NewtonDiagram) -> dict:
    return {
        "points": [[i, v] for i, v in d.points],
        "vertices": [[i, v] for i, v in d.vertices],
        "segments": [{
            "start": list(s.start), "end": list(s.end),
            "slope": frac_str(s.slope), "lattice_length": s.lattice_length,
        } for s in d.segments],
    }


def root_status_to_json(status: RootStatus) -> dict:
    out: dict = {"tag": status.tag}
    if status.witness is not None:
        w = status.witness
        out["witness"] = {
            "gamma": str(w.gamma),
            "delta": w.delta,
            "modulus": str(w.modulus),
            "on_reversal": w.on_reversal,
            "exact": w.exact,
            "on_squarefree_part": w.on_squarefree_part,
        }
    return out


def _mod2_factors_to_json(factors) -> list[dict]:
    from .f2 import f2_to_str
    return [{"poly": f2_to_str(p), "bits": str(p), "multiplicity": m} for p, m in factors]


# evidence field -> (document key, encoder): the encoding reads the
# evidence's own ``kind`` and fields, so it needs no import of the
# certifier and names no evidence kind
_EVIDENCE_FIELDS = {
    "a_poly": ("a_poly", poly_to_json),
    "c": ("c", frac_str),
    "s": ("s", frac_str),
    "disc": ("disc", frac_str),
    "scale": ("scale", frac_str),
    "modulus": ("modulus", str),
    "divisor": ("divisor", int),
    "g_degree": ("g_degree", int),
    "h_degree": ("h_degree", int),
    "diagram": ("diagram", diagram_to_json),
    "factors": ("factors", _mod2_factors_to_json),
    "status": ("root_status", root_status_to_json),
    "root_status": ("root_status", root_status_to_json),
}


def _evidence_to_json(ev) -> dict:
    if ev is None:
        return {"kind": "none"}
    out = {"kind": ev.kind}
    for name in ev._fields:
        key, encode = _EVIDENCE_FIELDS[name]
        out[key] = encode(getattr(ev, name))
    return out


def certificate_to_json(cert: Sos4Certificate) -> dict:
    return {
        "verdict": cert.verdict,
        "rule": cert.rule,
        "positivity": positivity_to_json(cert.positivity),
        "evidence": _evidence_to_json(cert.evidence),
    }


def _params_to_json(params: dict) -> dict:
    return {k: (str(v) if isinstance(v, (int, Fraction)) else v)
            for k, v in params.items()}


def _trace_entry(t):
    # a route step is a tuple; ALG9 records its failed iterates instead
    if isinstance(t, tuple):
        return list(map(str, t))
    return iterate_to_json(t)


def _with_transform(out: dict, transform, **polys) -> dict:
    """``out`` with the outcome's transform to its input, and ``polys``
    with it, when the transform is not trivial."""
    if not transform.trivial:
        out["transform"] = {"square_part": poly_to_json(transform.square_part),
                            "scale": frac_str(transform.scale),
                            "shift": frac_str(transform.shift),
                            **{k: poly_to_json(v) for k, v in polys.items()}}
    return out


def result_to_json(res: ReductionResult) -> dict:
    return _with_transform({
        "method": res.method,
        "input": poly_to_json(res.input_poly),
        "h": poly_to_json(res.h),
        "h_pretty": str(res.h),
        "residual": poly_to_json(res.residual),
        "certificate": certificate_to_json(res.certificate),
        "parameters": _params_to_json(res.parameters),
        "trace": [_trace_entry(t) for t in res.trace],
    }, res.transform, certified_poly=res.certified_poly)


def iterate_to_json(rec: IterateRecord) -> dict:
    def branch(b: BranchRecord) -> dict:
        return {"h": poly_to_json(b.h), "verdict": b.verdict,
                "certificate": certificate_to_json(b.certificate)}

    return {"l": rec.l, "branch_constant": branch(rec.branch_a),
            "branch_leading": branch(rec.branch_b)}


def nontermination_to_json(nt: NonTermination) -> dict:
    return _with_transform({
        "cap": nt.cap,
        "l_init": nt.l_init,
        "epsilon": frac_str(nt.epsilon),
        "iterates": [iterate_to_json(it) for it in nt.iterates],
    }, nt.transform)


def obstruction_to_json(rep: ObstructionReport) -> dict:
    return _with_transform({
        "obstruction": True,
        "input": poly_to_json(rep.input_poly),
        "l": rep.ell,
        "gamma": str(rep.gamma),
        "delta": rep.delta,
        "refined_root": str(rep.refined_root),
        "refine_precision": rep.refine_precision,
        "residual": poly_to_json(rep.residual),
        "certificate": certificate_to_json(rep.certificate),
        "parametric_disc_value": frac_str(rep.parametric_disc_value),
    }, rep.transform)


def outcome_to_json(outcome) -> tuple[dict, str]:
    """The payload and status of a reduction outcome's document."""
    from .reduction import InconclusiveReport, NonTermination, ObstructionReport
    if isinstance(outcome, NonTermination):
        return nontermination_to_json(outcome), "non-termination"
    if isinstance(outcome, ObstructionReport):
        return obstruction_to_json(outcome), "ok"
    if isinstance(outcome, InconclusiveReport):
        return ({"note": outcome.note, "trace": [list(map(str, t)) for t in outcome.trace]},
                "inconclusive")
    return result_to_json(outcome), "ok"


def dumps(payload: dict, status: str = "ok") -> str:
    """Canonical document text: schema + status + payload, sorted keys,
    two-space indent, no timestamps."""
    doc = {"schema": SCHEMA, "status": status}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2)
