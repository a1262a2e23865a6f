"""Parsing and canonical JSON encoding of library objects.

All numbers are emitted as exact "num/den" (or "num") strings, never
floats, and objects serialize with sorted keys and a fixed layout so
identical inputs produce byte-identical output.  The schema is
versioned under the top-level key ``schema`` as ``padic-sos/1``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import certifier, reduction
from .f2 import f2_to_str
from .hensel import RootStatus
from .newton_polygon import NewtonDiagram
from .ratpoly import PositivityCertificate, RatPoly

SCHEMA = "padic-sos/1"

# Largest exponent the human form accepts, and so the largest degree a
# JSON array may give (at most MAX_EXPONENT + 1 entries).  A term x^n makes
# a dense list of n + 1 coefficients, so the cap bounds what a short input
# can cost before any algorithm runs; it lies far above any degree the
# exact kernels finish on.
MAX_EXPONENT = 10_000


class PolyParseError(ValueError):
    pass


def frac_str(q) -> str:
    return str(Fraction(q))


def poly_to_json(f: RatPoly) -> list[str]:
    """Ascending coefficient array of exact strings; [] is zero."""
    return [str(c) for c in f.coeffs]


def poly_from_json(data) -> RatPoly:
    if not isinstance(data, list):
        raise PolyParseError("polynomial JSON must be an array of strings")
    if len(data) > MAX_EXPONENT + 1:
        raise PolyParseError(
            f"polynomial JSON array has more than {MAX_EXPONENT + 1} entries")
    try:
        return RatPoly([Fraction(str(c)) for c in data])
    except (ValueError, ZeroDivisionError) as exc:
        raise PolyParseError(f"bad coefficient: {exc}") from exc


_TERM = re.compile(
    r"^(?P<coef>[0-9]+(?:/[0-9]+)?)?(?P<star>\*)?(?P<var>x)?(?:\^(?P<exp>[0-9]+))?$")


def parse_poly(text: str) -> RatPoly:
    """Parse either a JSON coefficient array or a human form such as
    "4/4225*x^2 + 1/4225*x + 4/4225"."""
    text = text.strip()
    if not text:
        raise PolyParseError("empty polynomial")
    if text.startswith("["):
        try:
            return poly_from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise PolyParseError(f"bad JSON array: {exc}") from exc

    compact = text.replace(" ", "")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    sign = 1
    if compact[:1] in "+-":
        sign = -1 if compact[0] == "-" else 1
        pos = 1
    while pos < len(compact):
        end = pos
        while end < len(compact) and compact[end] not in "+-":
            end += 1
        term = compact[pos:end]
        m = _TERM.match(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise PolyParseError(f"cannot parse term {term!r} at position {pos}")
        if m.group("exp") is not None and m.group("var") is None:
            raise PolyParseError(f"exponent without variable in {term!r} at position {pos}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError as exc:
            raise PolyParseError(f"zero denominator in {term!r} at position {pos}") from exc
        exp = 0
        if m.group("var"):
            digits = m.group("exp") or "1"
            # the length test keeps int() off huge digit strings
            if (len(digits.lstrip("0")) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                raise PolyParseError(
                    f"exponent at position {pos} exceeds {MAX_EXPONENT}")
            exp = int(digits)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
        if end >= len(compact):
            break
        sign = -1 if compact[end] == "-" else 1
        pos = end + 1
    if not coeffs:
        raise PolyParseError("no terms found")
    size = max(coeffs) + 1
    return RatPoly([coeffs.get(i, Fraction(0)) for i in range(size)])


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


def _evidence_to_json(ev) -> dict:
    if ev is None:
        return {"kind": "none"}
    out: dict = {"kind": ev.kind}
    if isinstance(ev, certifier.OddSquareSplit):
        out["a_poly"] = poly_to_json(ev.a_poly)
        out["c"] = frac_str(ev.c)
    elif isinstance(ev, certifier.TwoSquareSplit):
        out["a_poly"] = poly_to_json(ev.a_poly)
        out["s"] = frac_str(ev.s)
    elif isinstance(ev, certifier.SimpleZ2Root):
        out["root_status"] = root_status_to_json(ev.status)
    elif isinstance(ev, certifier.EisensteinEvenDegree):
        out["diagram"] = diagram_to_json(ev.diagram)
    elif isinstance(ev, certifier.PureEvenDivisor):
        out["divisor"] = ev.divisor
        out["diagram"] = diagram_to_json(ev.diagram)
    elif isinstance(ev, certifier.Mod2EvenDegrees):
        out["factors"] = [{"poly": f2_to_str(p), "bits": str(p), "multiplicity": m}
                          for p, m in ev.factors]
    elif isinstance(ev, certifier.QuadraticNonSquareDisc):
        out["disc"] = frac_str(ev.disc)
    elif isinstance(ev, certifier.HenselSplitEvenParts):
        out["scale"] = frac_str(ev.scale)
        out["g_degree"] = ev.g_degree
        out["h_degree"] = ev.h_degree
        out["modulus"] = str(ev.modulus)
        out["root_status"] = root_status_to_json(ev.root_status)
    return out


def certificate_to_json(cert: certifier.Sos4Certificate) -> dict:
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
    if isinstance(t, reduction.IterateRecord):
        return iterate_to_json(t)
    if isinstance(t, tuple):
        return list(map(str, t))
    return str(t)


def result_to_json(res: reduction.ReductionResult) -> dict:
    out = {
        "method": res.method,
        "input": poly_to_json(res.input_poly),
        "h": poly_to_json(res.h),
        "h_pretty": str(res.h),
        "residual": poly_to_json(res.residual),
        "certificate": certificate_to_json(res.certificate),
        "parameters": _params_to_json(res.parameters),
        "trace": [_trace_entry(t) for t in res.trace],
    }
    if not res.transform.trivial:
        out["transform"] = {
            "square_part": poly_to_json(res.transform.square_part),
            "scale": frac_str(res.transform.scale),
            "shift": frac_str(res.transform.shift),
            "certified_poly": poly_to_json(res.certified_poly),
        }
    return out


def iterate_to_json(rec: reduction.IterateRecord) -> dict:
    def branch(b: reduction.BranchRecord) -> dict:
        out = {"h": poly_to_json(b.h), "verdict": b.verdict}
        if b.certificate is not None:
            out["certificate"] = certificate_to_json(b.certificate)
        if b.note:
            out["note"] = b.note
        return out

    return {"l": rec.l, "branch_constant": branch(rec.branch_a),
            "branch_leading": branch(rec.branch_b)}


def nontermination_to_json(nt: reduction.NonTermination) -> dict:
    return {
        "cap": nt.cap,
        "l_init": nt.l_init,
        "epsilon": frac_str(nt.epsilon),
        "iterates": [iterate_to_json(it) for it in nt.iterates],
    }


def obstruction_to_json(rep: reduction.ObstructionReport) -> dict:
    return {
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
    }


def dumps(payload: dict, status: str = "ok") -> str:
    """Canonical document text: schema + status + payload, sorted keys,
    two-space indent, no timestamps."""
    doc = {"schema": SCHEMA, "status": status}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2)
