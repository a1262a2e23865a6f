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
import subprocess
import sys
import tempfile
from pathlib import Path

from paired_runs import export
from reach import CERTIFY_PER_DEGREE, CLI_PER_ENTRY, REDUCE_PER_DEGREE

TOOLS = Path(__file__).resolve().parent


def digest(value) -> str:
    """sha256 of ``repr(value)``, in hex."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def digests(seed: int) -> dict[str, str]:
    """Item name -> digest of its output, for one seed, on the package and
    ``corpus`` module found on the path."""
    import corpus
    from padic_sos import certify_sos4, reduce_auto, reduce_iterative
    from padic_sos.cli import main as cli_main
    from padic_sos.hensel import z2_root_status

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
