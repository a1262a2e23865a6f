"""Every CLI document of a fixed set of argvs is byte-identical to the
one recorded in ``golden_documents.json``: the sha256 of its stdout and
its exit code.  The argvs are the benchmark's CLI documents
(``corpus.cli_documents(31, 3)``), ``reduce --method auto`` on the
reduce and certify corpora at seeds 31 and 32, ``sos4-certify`` on the
certify corpus at seed 31, ``reduce --method M`` for every method M on
the reduce corpus at seed 31 (error exits included), and ``alg9-demo``
at every k and N of the alg9 family, then a fixed argv or two for each
subcommand those leave out (``positivity``, ``sturm``, ``padic-square``,
``padic-sqrt``, ``family``), one JSON-array ``--poly``, and the
root-tree and certify paths the corpora miss: ``root-status`` with an
exact witness on f, one on the square-free part, one on the reversal
and an inexact one, ``sos4-certify`` on a polynomial that is not
positive, and ``sos4-certify --witness``.  Each runs in-process through
``cli.main``.

A change that must not alter any document keeps this test passing.  A
change that alters documents on purpose regenerates the file, with

    PYTHONPATH=src python tests/test_golden_documents.py

and says why in its description."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402
from padic_sos.cli import _COMMANDS, _REDUCE_METHODS, main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_documents.json"


def golden_argvs() -> list[list[str]]:
    """The argvs in a fixed order, each once (the seed only orders a
    corpus, so seeds 31 and 32 repeat the same polynomials)."""
    argvs = [argv for _, argv in corpus.cli_documents(31, 3)]
    for seed in (31, 32):
        for name, per_degree in (("reduce-corpus", 4), ("certify-corpus", 10)):
            argvs += [["reduce", "--method", "auto", "--poly", str(item.poly)]
                      for item in corpus.corpus(name, seed, per_degree)]
    argvs += [["sos4-certify", "--poly", str(item.poly)]
              for item in corpus.corpus("certify-corpus", 31, 10)]
    argvs += [["reduce", "--method", method, "--poly", str(item.poly)]
              for method in _REDUCE_METHODS
              for item in corpus.corpus("reduce-corpus", 31, 4)]
    argvs += [["alg9-demo", "--k", str(k), "--N", str(n)]
              for k in corpus.ALG9_KS for n in corpus.ALG9_NS]
    argvs += [["positivity", "--poly", "x^4 - 3*x^2 + 1"],
              ["positivity", "--poly", "x^4 + 2*x^2 + 1"],
              ["sturm", "--poly", "x^5 - 5*x^3 + 4*x + 1"],
              ["padic-square", "--value", "17"],
              ["padic-square", "--value", "12/7"],
              ["padic-sqrt", "--value", "68/9", "--precision", "20"],
              ["family", "--k", "1", "--N", "67"],
              ["family", "--g", "x^3 - 2*x + 1", "--a", "2"],
              ["reduce", "--method", "auto", "--poly", '["5", "-1/2", "3"]'],
              ["root-status", "--poly", "x^3 - 5*x^2 + 7*x - 3"],
              ["root-status", "--poly", "x^2 - 2*x + 1"],
              ["root-status", "--poly", "2*x - 1"],
              ["root-status", "--poly", "x^2 - 17"],
              ["sos4-certify", "--poly", "x^2 - 2"],
              ["sos4-certify", "--poly", "x^2 + 7", "--witness", "x:7"]]
    seen = set()
    return [a for a in argvs if tuple(a) not in seen and not seen.add(tuple(a))]


def test_every_subcommand_has_a_golden_document():
    assert set(_COMMANDS) <= {argv[0] for argv in golden_argvs()}


def run(argv: list[str]) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def test_documents_match_the_golden_file():
    recorded = json.loads(GOLDEN.read_text())
    argvs = golden_argvs()
    assert [entry["argv"] for entry in recorded] == argvs
    for entry in recorded:
        assert run(entry["argv"]) == (entry["sha256"], entry["exit"]), entry["argv"]


if __name__ == "__main__":
    entries = [dict(zip(("sha256", "exit"), run(argv)), argv=argv)
               for argv in golden_argvs()]
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} documents to {GOLDEN}")
