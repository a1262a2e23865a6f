"""List the library functions that the benchmark's inputs never reach.

Runs, under the line tracer of ``line_coverage``, one pass of the
certify-corpus, reduce-corpus and alg9-family inputs of
``perfbench/corpus.py`` (``certify_sos4``, ``reduce_auto`` and
``reduce_iterative(cap=40)``, each result re-checked with
``verify_certificate`` as the benchmark's checks do), then ``cli.main``
in-process, output captured, on every argv of
``tests/golden_documents.json`` and of ``corpus.cli_documents(seed, 3)``.
A function is reached when any statement of its body ran; code that
only runs at import (a ``def`` line, a class body) does not count.

Standard library only.

Usage: python3 tools/reach.py [seed]

The seed defaults to 31.  The output is one "<module>.<qualified name>"
line per function of src/padic_sos of which no statement ran, sorted by
module and line, then a "<n> of <total> functions not reached" line.
The exit status is 1 if a result failed its check, 0 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys

from line_coverage import PACKAGE, ROOT, statements, trace_lines

CERTIFY_PER_DEGREE, REDUCE_PER_DEGREE = 10, 4  # the workloads' pass sizes
CLI_PER_ENTRY = 3


def functions(source: str) -> list[tuple[str, int, set[int]]]:
    """(qualified name, line, header lines of its body statements) of
    every function of ``source``, in line order."""
    stmts = statements(source)
    out = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = {line for start, header in stmts
                        if child.body[0].lineno <= start <= child.end_lineno
                        for line in header}
                out.append((prefix + name, child.lineno, body))
            if name is not None:
                visit(child, f"{prefix}{name}.")

    visit(ast.parse(source), "")
    return sorted(out, key=lambda f: f[1])


def run_inputs(seed: int) -> int:
    """One pass of the workloads' inputs and of the CLI argvs; the
    number of results that failed their check."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    from padic_sos import (INCONCLUSIVE, NOT_SOS4, SOS4, NonTermination,
                           ReductionResult, certify_sos4, reduce_auto,
                           reduce_iterative, verify_certificate)
    from padic_sos.cli import main as cli_main

    failed = 0
    for item in corpus.corpus("certify-corpus", seed, CERTIFY_PER_DEGREE):
        cert = certify_sos4(item.poly)
        failed += cert.verdict != INCONCLUSIVE and not verify_certificate(item.poly, cert)
    for item in corpus.corpus("reduce-corpus", seed, REDUCE_PER_DEGREE):
        res = reduce_auto(item.poly)
        failed += isinstance(res, ReductionResult) and (
            item.poly - res.h * res.h != res.residual
            or res.certificate.verdict != SOS4
            or not verify_certificate(res.certified_poly, res.certificate))
    for item in corpus.alg9_family(seed):
        res = reduce_iterative(item.poly, cap=corpus.ALG9_CAP)
        failed += not isinstance(res, NonTermination) or any(
            b.verdict == NOT_SOS4 and not verify_certificate(b.candidate, b.certificate)
            for it in res.iterates for b in (it.branch_a, it.branch_b))
    golden = json.loads((ROOT / "tests" / "golden_documents.json").read_text())
    argvs = [doc["argv"] for doc in golden]
    argvs += [argv for _, argv in corpus.cli_documents(seed, CLI_PER_ENTRY)]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli_main(argv)
    return failed


def main(argv: list[str]) -> int:
    seed = int(argv[1]) if len(argv) > 1 else 31
    failed, hits = trace_lines(lambda: run_inputs(seed))
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for name, _, body in functions(path.read_text(encoding="utf-8")):
            total += 1
            if hits[path.name].isdisjoint(body):
                missed += 1
                print(f"{path.stem}.{name}")
    print(f"{missed} of {total} functions not reached")
    if failed:
        print(f"{failed} results failed their check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
