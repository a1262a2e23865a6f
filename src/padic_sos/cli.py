"""Command-line front end emitting exact JSON certificates.

Exit codes: 0 for a conclusive run, 2 for inconclusive or
non-terminating outcomes, 1 for usage or input errors.

Each subcommand imports the library functions it runs, so a process
loads only the modules its command needs (``hankel`` loads no 2-adic
code, ``sos4-certify`` no reduction routes).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import serialize

if TYPE_CHECKING:
    from .ratpoly import RatPoly

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

# Largest degree ``hankel`` takes.  Its document is the degree x degree
# matrix of power sums, whose entries grow with their index: on dense
# inputs with small coefficients one call took about 1 s and wrote 2-8 MB
# at degree 200, and 4.5 s and 36 MB at degree 256 (2-vCPU x86-64 VM).
MAX_HANKEL_DEGREE = 200
# Largest size, in bits, ``hankel`` may bound its printed numerators and
# denominators by (``_hankel_bits``).  At the bound a call took 1-3.5 s
# and wrote up to 28 MB (dense degree 120-200 inputs, same VM).
MAX_HANKEL_BITS = 2 ** 27


def _read_poly(args) -> RatPoly:
    if args.poly_file:
        with open(args.poly_file) as fh:
            text = fh.read()
    elif args.poly:
        text = args.poly
    else:
        raise ValueError("provide --poly or --poly-file")
    return serialize.parse_poly(text)


def _rational(text: str, what: str) -> Fraction:
    """An exact rational argument, in the grammar of the JSON coefficients."""
    q = serialize.parse_rational(text.strip())
    if q is None:
        raise ValueError(f"{what} must be an exact rational of the form "
                         "[+-]digits[/digits]")
    return q


def _parse_witness(text: str) -> tuple[RatPoly, Fraction]:
    a_text, sep, c_text = text.rpartition(":")
    if not sep:
        raise ValueError("witness must look like 'A-poly:c'")
    return serialize.parse_poly(a_text), _rational(c_text, "the witness's c")


def _emit(args, payload: dict, status: str) -> int:
    text = serialize.dumps(payload, status)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if status == "ok" else EXIT_INCONCLUSIVE


def _cmd_positivity(args) -> int:
    from .ratpoly import is_positive_on_reals
    f = _read_poly(args)
    cert = is_positive_on_reals(f)
    return _emit(args, {"positivity": serialize.positivity_to_json(cert),
                        "poly": serialize.poly_to_json(f)}, "ok")


def _hankel_bits(p: tuple[int, ...]) -> tuple[int, int]:
    """Bounds, in bits, on the largest numerator of the Hankel matrix of
    the primitive part p (degree d >= 1) and on all its numerators and
    denominators together.  Entry (i, j) is s_k = N_k / lc^k with k = i + j
    and N_k the sum of (lc*z)^k over the roots z, an integer; the Cauchy
    bound gives |lc*z| <= lc + max|p_i| < 2^(B+1), B the bits of the largest
    |p_i|, so N_k has fewer than bits(d) + k(B+1) bits and lc^k k*bits(lc)."""
    d = len(p) - 1
    w = max(abs(c) for c in p).bit_length() + 1
    return (d.bit_length() + (2 * d - 2) * w,
            d * d * d.bit_length() + (w + p[-1].bit_length()) * d * d * (d - 1))


def _cmd_hankel(args) -> int:
    from .ratpoly import count_distinct_and_real_roots, hankel_matrix
    f = _read_poly(args)
    if f.degree > MAX_HANKEL_DEGREE:
        raise ValueError(f"hankel needs degree at most {MAX_HANKEL_DEGREE} (it prints "
                         f"the degree x degree matrix of power sums), got {f.degree}")
    if f.degree >= 1:
        entry, total = _hankel_bits(f.primitive_part)
        if total > MAX_HANKEL_BITS:
            raise ValueError(f"hankel's matrix may hold up to {total} bits of numerators "
                             f"and denominators, more than {MAX_HANKEL_BITS}")
        # past int()'s digit limit no numerator could be printed
        printable = (10 ** serialize._INT_DIGITS).bit_length() - 1
        if serialize._INT_DIGITS and entry > printable:
            raise ValueError(f"hankel's power sums may have numerators of up to {entry} "
                             f"bits, more than the {printable} bits int() prints")
    matrix = hankel_matrix(f)
    # the rank and signature of the Hankel matrix count f's distinct
    # complex and real roots, which the subresultant sequence gives exactly
    rank, sig = count_distinct_and_real_roots(f)
    return _emit(args, {
        "poly": serialize.poly_to_json(f),
        "matrix": [[serialize.frac_str(x) for x in row] for row in matrix],
        "rank": rank,
        "signature": sig,
        "distinct_roots": rank,
        "distinct_real_roots": sig,
    }, "ok")


def _cmd_sturm(args) -> int:
    from .ratpoly import sturm_real_root_count
    f = _read_poly(args)
    return _emit(args, {"poly": serialize.poly_to_json(f),
                        "real_roots": sturm_real_root_count(f)}, "ok")


def _cmd_discriminant(args) -> int:
    from .ratpoly import discriminant
    f = _read_poly(args)
    return _emit(args, {"poly": serialize.poly_to_json(f),
                        "discriminant": serialize.frac_str(discriminant(f))}, "ok")


def _cmd_newton_polygon(args) -> int:
    from .newton_polygon import newton_diagram
    f = _read_poly(args)
    return _emit(args, {"poly": serialize.poly_to_json(f),
                        "diagram": serialize.diagram_to_json(newton_diagram(f))}, "ok")


def _cmd_padic_square(args) -> int:
    from .padic import is_square_in_q2
    q = _rational(args.value, "--value")
    return _emit(args, {"value": serialize.frac_str(q),
                        "is_square_in_q2": is_square_in_q2(q)}, "ok")


def _cmd_padic_sqrt(args) -> int:
    from .padic import padic_sqrt
    q = _rational(args.value, "--value")
    r = padic_sqrt(q, args.precision)
    return _emit(args, {
        "value": serialize.frac_str(q),
        "valuation": r.valuation,
        "unit_residue": str(r.unit_residue),
        "precision": r.precision,
    }, "ok")


def _cmd_root_status(args) -> int:
    from .hensel import z2_root_status
    f = _read_poly(args)
    status = z2_root_status(f)
    return _emit(args, {"poly": serialize.poly_to_json(f),
                        "root_status": serialize.root_status_to_json(status)},
                 "ok")


def _cmd_certify(args) -> int:
    from .certifier import INCONCLUSIVE, certify_sos4
    f = _read_poly(args)
    witness = _parse_witness(args.witness) if args.witness else None
    cert = certify_sos4(f, witness=witness)
    status = "ok" if cert.verdict != INCONCLUSIVE else "inconclusive"
    return _emit(args, {"poly": serialize.poly_to_json(f),
                        "certificate": serialize.certificate_to_json(cert)},
                 status)


# --method -> the reduction function it runs
_REDUCE_METHODS = {
    "auto": "reduce_auto",
    "alg6": "reduce_odd_valuation",
    "algn": "reduce_multiple_of_four",
    "alg9": "reduce_iterative",
    "nos": "reduce_constant_three_mod_four",
    "gr4": "reduce_cyclotomic_power",
    "picky": "reduce_twice_odd_degree",
}


def _cmd_reduce(args) -> int:
    from . import reduction
    f = _read_poly(args)
    route = getattr(reduction, _REDUCE_METHODS[args.method])
    outcome = route(f, cap=args.cap) if args.method == "alg9" else route(f)
    return _emit(args, *serialize.outcome_to_json(outcome))


def _cmd_alg9_demo(args) -> int:
    from .reduction import palindromic_counterexample, reduce_iterative
    f, witness = palindromic_counterexample(args.k, args.N)
    payload, status = serialize.outcome_to_json(reduce_iterative(f, cap=args.cap))
    return _emit(args, {"poly": serialize.poly_to_json(f),
                        "witness_a": serialize.poly_to_json(witness[0]),
                        "witness_c": serialize.frac_str(witness[1]), **payload}, status)


def _cmd_family(args) -> int:
    from .reduction import palindromic_counterexample, square_plus_8a_minus_1
    if args.g is not None:
        g = serialize.parse_poly(args.g)
        f, (a_poly, c) = square_plus_8a_minus_1(g, args.a)
        family = "square_plus_8a_minus_1"
    else:
        if args.k is None or args.N is None:
            raise ValueError("family needs either --g/--a or --k/--N")
        f, (a_poly, c) = palindromic_counterexample(args.k, args.N)
        family = "palindromic_counterexample"
    return _emit(args, {
        "family": family,
        "poly": serialize.poly_to_json(f),
        "poly_pretty": str(f),
        "witness_a": serialize.poly_to_json(a_poly),
        "witness_c": serialize.frac_str(c),
    }, "ok")


def _int_at_most(limit: int):
    """argparse type: an integer no larger than ``limit``.  It bounds the
    dense coefficient lists, moduli, ALG9 iterations and coefficient sizes
    a short argument can ask for."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}")
        return value
    return parse


# palindromic_counterexample(k, N) has degree 4k + 2
MAX_K = (serialize.MAX_EXPONENT - 2) // 4
# Largest ALG9 ``--cap`` (``reduce --method alg9``, ``alg9-demo``): the
# cost grows faster than the iterate count, as l and so the candidates'
# coefficients grow.  ``alg9-demo --N 65 --cap 1000`` took 1.9-3.9 s and
# wrote 2.5-2.9 MB for k = 0, 2, 5, and --cap 2000 9.5-25 s (2-vCPU
# x86-64 VM).
MAX_CAP = 1000
# Largest ``--N`` (``alg9-demo``, ``family``), 200 digits.  The ALG9 loop's
# candidates carry 1/N^2: ``alg9-demo --k 0 --cap 40`` took 0.34-0.44 s at
# 200 digits, 10 s at 1000 and 64 s at 2000, and past about 4300 digits
# the document can no longer be printed (2-vCPU x86-64 VM).  ``family
# --a`` shares the bound: the document prints the constant 8a - 1.
MAX_N = 10 ** 200


def _add_poly_args(p):
    p.add_argument("--poly", help="polynomial, human form or JSON array")
    p.add_argument("--poly-file", help="file containing the polynomial")
    p.add_argument("--out", help="write the JSON document here instead of stdout")


def _add_square_args(p):
    p.add_argument("--value", required=True, help="exact rational")
    p.add_argument("--out")


def _add_sqrt_args(p):
    p.add_argument("--value", required=True, help="exact rational")
    p.add_argument("--precision", type=_int_at_most(serialize.MAX_EXPONENT),
                   default=64)
    p.add_argument("--out")


def _add_certify_args(p):
    _add_poly_args(p)
    p.add_argument("--witness", help="split witness 'A-poly:c'")


def _add_reduce_args(p):
    _add_poly_args(p)
    p.add_argument("--method", default="auto", choices=list(_REDUCE_METHODS))
    p.add_argument("--cap", type=_int_at_most(MAX_CAP), default=40)


def _add_alg9_demo_args(p):
    p.add_argument("--k", type=_int_at_most(MAX_K), required=True)
    p.add_argument("--N", type=_int_at_most(MAX_N), required=True)
    p.add_argument("--cap", type=_int_at_most(MAX_CAP), default=40)
    p.add_argument("--out")


def _add_family_args(p):
    p.add_argument("--k", type=_int_at_most(MAX_K))
    p.add_argument("--N", type=_int_at_most(MAX_N))
    p.add_argument("--g", help="odd-degree integer polynomial")
    p.add_argument("--a", type=_int_at_most(MAX_N), default=1)
    p.add_argument("--out")


# subcommand -> (what it runs, what adds its arguments), in --help order
_COMMANDS = {
    "positivity": (_cmd_positivity, _add_poly_args),
    "hankel": (_cmd_hankel, _add_poly_args),
    "sturm": (_cmd_sturm, _add_poly_args),
    "discriminant": (_cmd_discriminant, _add_poly_args),
    "newton-polygon": (_cmd_newton_polygon, _add_poly_args),
    "padic-square": (_cmd_padic_square, _add_square_args),
    "padic-sqrt": (_cmd_padic_sqrt, _add_sqrt_args),
    "root-status": (_cmd_root_status, _add_poly_args),
    "sos4-certify": (_cmd_certify, _add_certify_args),
    "reduce": (_cmd_reduce, _add_reduce_args),
    "alg9-demo": (_cmd_alg9_demo, _add_alg9_demo_args),
    "family": (_cmd_family, _add_family_args),
}


class _LazyCommand:
    """Stands in for a subcommand's parser, which is built with its
    arguments only when argparse hands it the rest of the command line
    (a call, ``--help`` or an error).  A process builds the parser of
    the one subcommand it runs; building all twelve was most of
    ``build_parser``'s time, chiefly in argparse's message-catalogue
    lookups."""

    def __init__(self, *, run, add_arguments, **parser_kwargs):
        self.run, self.add_arguments = run, add_arguments
        self.parser_kwargs = parser_kwargs  # what add_parser passes: prog

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self.parser_kwargs)
        self.add_arguments(parser)
        parser.set_defaults(fn=self.run)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-sos",
        description="2-adic certificates and reductions for sums of squares "
                    "of rational polynomials")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_LazyCommand)
    for name, (run, add_arguments) in _COMMANDS.items():
        sub.add_parser(name, run=run, add_arguments=add_arguments)
    return parser


# flags whose value may start with "-" (-12/7, -x^2+7), which argparse
# would read as an option; main joins such a value to its flag with "="
_SIGNED_VALUE_FLAGS = ("--poly", "--value", "--witness", "--g")


def main(argv=None) -> int:
    parser = build_parser()
    joined: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if (joined and joined[-1] in _SIGNED_VALUE_FLAGS
                and token.startswith("-") and not token.startswith("--")):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    try:
        args = parser.parse_args(joined)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
