"""Check that two commits give the same outputs on the benchmark's inputs.

Usage:
    python3 tools/same_outputs.py BASE CHANGE [--seeds 31 7] [--scratch DIR]

Each commit is exported with ``paired_runs.export`` into its own
directory under ``--scratch`` (a temporary directory, removed
afterwards, when it is not given).  For each seed, a child process in
each checkout, with that checkout's ``src`` and ``perfbench`` on its
path and no bytecode written, hashes (sha256) the ``repr`` of:

* every result of one pass of certify-corpus (``certify_sos4``),
  reduce-corpus (``reduce_auto``) and alg9-family
  (``reduce_iterative(cap=40)``), inputs from ``perfbench/corpus.py``;
* plain ``z2_root_status`` of every polynomial of both corpora;
* plain ``z2_root_status`` of every polynomial of ``tree_inputs(seed)``,
  whose root trees run deep, and ``z2_root_status(f, _squarefree=True)``
  of the square-free ones, which skips forced chains from the root;
* ``reduce_auto``, ``reduce_odd_valuation``, ``reduce_multiple_of_four``
  and ``reduce_iterative(cap=3)`` of every polynomial of
  ``margin_inputs(seed)``, which reach the fallbacks of the routes' gate
  (a refusal is hashed as its type and message);
* the exit code and standard output of ``cli.main``, run in process,
  on every argv of ``corpus.cli_documents(seed, 3)``.

The output is one "<seed> <item> <base digest> <change digest> <same |
DIFF>" row per item, digests cut to 12 hex digits, "-" for an item one
side lacks, then a count of the mismatches.  The exit status is 1 on
any mismatch, 0 otherwise.  Nothing is written into either checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from paired_runs import export
from reach import CERTIFY_PER_DEGREE, CLI_PER_ENTRY, REDUCE_PER_DEGREE

TOOLS = Path(__file__).resolve().parent
TREE_INPUTS = 200
MARGIN_INPUTS = 40


def tree_inputs(seed: int) -> list:
    """``TREE_INPUTS`` seeded polynomials whose root trees the corpora do
    not reach: products of x - r with the roots r clustered at high 2-adic
    valuation (forced chains), of (x - r)^2 - 2^(2m+1)*u, m >= 2, with no
    2-adic root, and of 2^k*x - u, with a root of negative valuation,
    under a leading coefficient that is often even (the reversal tree);
    every third one times a square (the node limit)."""
    from padic_sos.ratpoly import RatPoly

    rng = random.Random(seed)
    out = []
    for i in range(TREE_INPUTS):
        base = rng.choice([0, 0, 1, 3, -5])
        f = RatPoly([rng.choice([1, 3, 2, 4, 8])])
        for _ in range(rng.randint(1, 3)):
            y = RatPoly([-base - (rng.randint(-5, 5) << rng.randint(4, 24)), 1])  # x - r
            kind = rng.choice("lllqqqv")
            if kind == "l":
                f = f * y
            elif kind == "q":
                f = f * (y * y - RatPoly([rng.choice([1, 3, 5, 7]) << rng.randrange(5, 19, 2)]))
            else:
                f = f * RatPoly([-rng.choice([1, 3, 5]), 1 << rng.randint(1, 12)])
        if i % 3 == 0:
            f = f * RatPoly([-rng.randint(-9, 9), 1]) ** 2
        out.append(f)
    return out


def margin_inputs(seed: int) -> list:
    """``MARGIN_INPUTS`` seeded positive polynomials on which the epsilon
    search's first candidate f - 2^-e (2^-e <= f(0) < 2^(1-e)) is not
    positive, or on which the proof that P and P' are coprime is silent:
    the corpora reach neither.  With t = k * 2^-s <= 1, seven in eight
    are t * (A^2 + m) of degree 2 to 8, A = (q*x - p) * B an integer
    polynomial with A(0) = -p*B(0) != 0 and m = 1 - 2^-j: the minimum
    t*m, at x = p/q, is below 1 and below f(0) / 2 < 2^-e, so the
    candidate is negative there.  Their leading coefficients' 2-adic
    valuations take both parities.  Every eighth is t * (x^2 + b*x + c)
    with 4c = b^2 mod n, n = 2*xi + b and xi = 2^K the point of the
    proof: n divides both values there, so the proof is silent."""
    from padic_sos.ratpoly import RatPoly

    rng = random.Random(f"margin:{seed}")
    out = []
    for i in range(MARGIN_INPUTS):
        k = rng.choice([1, 2, 3, 6])
        scale = RatPoly([Fraction(k, 2 ** rng.randint((k - 1).bit_length(), 6))])  # <= 1
        if i % 8 == 7:
            b = rng.choice([1, 3, 5, -7])
            n = (2 << max(2, abs(b)).bit_length() + 17) + b  # K = bits + 1 + 16
            c = b * b * pow(4, -1, n) % n + n * rng.randint(0, 3)
            out.append(scale * RatPoly([c, b, 1]))
            continue
        b = [rng.choice([1, -1, 1, -1, 2])]  # B(0), then B of degree deg A - 1 <= 3
        if (deg_b := rng.randint(0, 3)):
            b += [rng.randint(-3, 3) for _ in range(deg_b - 1)] + [rng.choice([1, -1, 2, 3])]
        a = RatPoly([-rng.choice([1, 1, 1, 3]), rng.randint(1, 4)]) * RatPoly(b)
        out.append(scale * (a * a + RatPoly([1 - Fraction(1, 2 ** rng.randint(1, 8))])))
    return out


def refusal_or(call, f):
    """``call(f)``, or the type and message of the ValueError it raises."""
    try:
        return call(f)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def digest(value) -> str:
    """sha256 of ``repr(value)``, in hex."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def digests(seed: int) -> dict[str, str]:
    """Item name -> digest of its output, for one seed, on the package and
    ``corpus`` module found on the path."""
    import corpus
    from padic_sos import (certify_sos4, reduce_auto, reduce_iterative,
                           reduce_multiple_of_four, reduce_odd_valuation)
    from padic_sos.cli import main as cli_main
    from padic_sos.hensel import z2_root_status
    from padic_sos.ratpoly import is_squarefree

    out = {}
    passes = (("certify-corpus", corpus.corpus("certify-corpus", seed, CERTIFY_PER_DEGREE),
               certify_sos4),
              ("reduce-corpus", corpus.corpus("reduce-corpus", seed, REDUCE_PER_DEGREE),
               reduce_auto),
              ("alg9-family", corpus.alg9_family(seed),
               lambda f: reduce_iterative(f, cap=corpus.ALG9_CAP)))
    for name, items, call in passes:
        for i, item in enumerate(items):
            out[f"{name}[{i}]"] = digest(call(item.poly))
            if name != "alg9-family":
                out[f"z2_root_status {name}[{i}]"] = digest(z2_root_status(item.poly))
    for i, f in enumerate(tree_inputs(seed)):
        out[f"z2_root_status tree[{i}]"] = digest(z2_root_status(f))
        if is_squarefree(f):
            out[f"z2_root_status tree squarefree[{i}]"] = digest(
                z2_root_status(f, _squarefree=True))
    routes = (("reduce_auto", reduce_auto), ("reduce_odd_valuation", reduce_odd_valuation),
              ("reduce_multiple_of_four", reduce_multiple_of_four),
              ("reduce_iterative", lambda f: reduce_iterative(f, cap=3)))
    for i, f in enumerate(margin_inputs(seed)):
        for name, call in routes:
            out[f"margin {name}[{i}]"] = digest(refusal_or(call, f))
    for i, (_, argv) in enumerate(corpus.cli_documents(seed, CLI_PER_ENTRY)):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        out[f"cli {argv[0]}[{i}]"] = digest((code, stdout.getvalue()))
    return out


def checkout_digests(checkout: Path, seed: int) -> dict[str, str]:
    """``digests(seed)`` in a child process on ``checkout``'s code."""
    path = [str(TOOLS), str(checkout / "src"), str(checkout / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    code = ("import json, sys, same_outputs; "
            "print(json.dumps(same_outputs.digests(int(sys.argv[1]))))")
    proc = subprocess.run([sys.executable, "-c", code, str(seed)], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: digests failed (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(proc.stdout)


def rows(base: dict[str, str], change: dict[str, str]) -> list[tuple[str, str, str, bool]]:
    """(item, base digest, change digest, same) for every item of either
    side, in base's order and then change's; "-" for a missing digest."""
    items = list(base) + [k for k in change if k not in base]
    return [(k, base.get(k, "-"), change.get(k, "-"), k in base and base[k] == change.get(k))
            for k in items]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[31, 7])
    parser.add_argument("--scratch", type=Path)
    args = parser.parse_args(argv)

    mismatches = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        scratch = args.scratch or Path(tmp)
        sides = [export(commit, scratch, side)
                 for side, commit in (("base", args.base), ("change", args.change))]
        for seed in args.seeds:
            for item, b, c, same in rows(*(checkout_digests(side, seed) for side in sides)):
                mismatches += not same
                print(f"{seed} {item} {b[:12]} {c[:12]} {'same' if same else 'DIFF'}")
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
