"""Tests of the scripts under tools/: the code-line count, the quartiles
and win counts of the paired benchmark runs, and the output digests
that compare two commits."""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import code_lines  # noqa: E402
import paired_runs  # noqa: E402
import same_outputs  # noqa: E402

SOURCE = '''"""Module docstring,
two lines."""
import math  # a trailing comment keeps the line

# a comment line


def f(x):
    """Docstring."""
    y = (x +
         1)
    return math.sqrt(y)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, the two lines of y = ..., return
    assert code_lines.code_lines(SOURCE) == 5
    assert code_lines.code_lines("") == 0


def test_quartiles():
    assert paired_runs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert paired_runs.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)


def test_compare_counts_wins_in_each_metric_direction():
    runs = {"base": [{"ops_per_s": 10, "op_ms_p50": 2.0},
                     {"ops_per_s": 10, "op_ms_p50": 2.0},
                     {"ops_per_s": 10, "op_ms_p50": 2.0}],
            "change": [{"ops_per_s": 12, "op_ms_p50": 1.0},
                       {"ops_per_s": 9, "op_ms_p50": 3.0},
                       {"ops_per_s": 10, "op_ms_p50": 1.5}]}
    report = paired_runs.compare(runs, {"ops_per_s": "higher", "op_ms_p50": "lower"})
    # a tie counts for neither side
    assert report["ops_per_s"]["change_wins"] == 1
    assert report["op_ms_p50"]["change_wins"] == 2
    assert report["op_ms_p50"]["better"] == "lower"
    assert report["ops_per_s"]["base_quartiles"] == (10, 10, 10)


def test_digest_is_sha256_of_repr():
    assert same_outputs.digest((0, "x")) == hashlib.sha256(b"(0, 'x')").hexdigest()
    assert same_outputs.digest(1) != same_outputs.digest("1")


def test_rows_flag_a_changed_or_missing_item():
    base = {"a": "1", "b": "2", "c": "3"}
    change = {"a": "1", "b": "9", "d": "4"}
    assert same_outputs.rows(base, change) == [
        ("a", "1", "1", True), ("b", "2", "9", False),
        ("c", "3", "-", False), ("d", "-", "4", False)]


def test_digests_name_every_benchmark_output():
    first = same_outputs.digests(7)
    kinds = {}
    for name in first:
        kind = name.rsplit("[", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.pop("alg9-family") == 3
    assert kinds.pop("certify-corpus") == kinds.pop("z2_root_status certify-corpus") == 100
    assert kinds.pop("reduce-corpus") == kinds.pop("z2_root_status reduce-corpus") == 40
    assert sum(kinds.values()) == 36 and all(k.startswith("cli ") for k in kinds)
    assert same_outputs.digests(7) == first
