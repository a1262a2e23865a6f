"""List the library statements that the tier-1 test suite never runs.

Runs ``pytest.main`` on ``tests`` and ``perfbench`` with a line tracer
installed (``sys.settrace`` and ``threading.settrace``) before the
package is imported, so statements run at import count as run.  A
statement counts as run when any line of its header runs: all lines of
a simple statement, and the decorators through the line before the
body of a compound one.  Docstrings are not statements.  Code run in
child processes (the cold-start CLI tests, the benchmark children) is
not seen, and two statements on one line share its fate.  The bodies of
``if TYPE_CHECKING:`` and ``if __name__ == "__main__":`` run in no
test process, so they are skipped and only counted.

Standard library and pytest only.

Usage: python3 tools/line_coverage.py [pytest arguments]

The pytest arguments default to ``-q -p no:cacheprovider tests
perfbench``.  The output is one "<module>: <n> of <total> statements
not run" line per module of src/padic_sos, sorted by name, each followed
by "  <line>  <source>" for every statement not run, then a total line
that also gives the number of statements skipped.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

from code_lines import _docstring_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "padic_sos"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "tests", "perfbench"]


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, header lines) of every statement of ``source``
    outside docstrings, in line order."""
    tree = ast.parse(source)
    skip = _docstring_lines(tree)  # no other statement starts on one
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in skip:
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            end = max(node.lineno, body[0].lineno - 1)
        else:
            end = node.end_lineno
        out.append((node.lineno, range(start, end + 1)))
    return sorted(out, key=lambda s: s[0])


def unrunnable_lines(source: str) -> set[int]:
    """Lines of the bodies of ``if TYPE_CHECKING:`` and ``if __name__ ==
    "__main__":`` in ``source``."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "__name__ == '__main__'"):
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def trace_lines(run):
    """Call ``run()`` under the line tracer, with src on sys.path and
    the repository as working directory; its result and the lines run
    in each module of the package, by file name."""
    hits: dict[str, set[int]] = {p.name: set() for p in PACKAGE.glob("*.py")}
    owner: dict[str, set[int] | None] = {}  # code file name -> its hit set

    def lines_of(filename: str) -> set[int] | None:
        if filename not in owner:
            path = Path(os.path.realpath(filename))
            owner[filename] = hits.get(path.name) if path.parent == PACKAGE else None
        return owner[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the line tracer; its exit code and the lines
    run in each module of the package, by file name."""
    import pytest
    code, hits = trace_lines(lambda: pytest.main(args))
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = trace_pytest(argv[1:] or DEFAULT_ARGS)
    missed_total = stmt_total = skipped_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        run = hits[path.name]
        skip = unrunnable_lines(source)
        every = statements(source)
        stmts = [s for s in every if s[0] not in skip]
        skipped_total += len(every) - len(stmts)
        missed = [line for line, header in stmts if run.isdisjoint(header)]
        missed_total += len(missed)
        stmt_total += len(stmts)
        print(f"{path.name}: {len(missed)} of {len(stmts)} statements not run")
        for line in missed:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    print(f"total: {missed_total} of {stmt_total} statements not run, "
          f"{skipped_total} skipped")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
