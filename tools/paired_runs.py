"""Compare two commits on one benchmark workload by alternating runs.

Usage:
    python3 tools/paired_runs.py BASE CHANGE --workload NAME [--seed N]
        [--seconds S] [--pairs P] [--scratch DIR]

Each commit is exported with ``git archive`` into its own directory
under ``--scratch`` (a temporary directory, removed afterwards, when it
is not given), so both sides run from clean committed files.  Then
``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0`` runs P times on each side, in pairs.  The two runs of a
pair are back to back, and the side that runs first alternates from
pair to pair, so a drift in the machine's speed falls on both sides.

The report gives, per end-to-end metric, each run's value, each side's
median and quartiles, and the number of pairs in which CHANGE is better
than BASE, in the direction ``BENCHMARK.json`` gives for the metric.
A run that is not correct, or whose output is not the benchmark's JSON,
stops the comparison.  Nothing in either checkout is changed besides
what the benchmark itself writes there.  The last line of standard
output is the report as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export(commit: str, into: Path, label: str) -> Path:
    """The committed files of ``commit`` in a fresh directory under ``into``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
                         cwd=REPO, check=True, capture_output=True, text=True).stdout.strip()
    target = into / f"{label}-{sha[:12]}"
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=REPO, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its metric values."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{checkout}: no JSON result (exit {proc.returncode})\n{proc.stderr}")
    if not result.get("correct") or result.get("failed"):
        sys.exit(f"{checkout}: run not correct: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    report = {}
    for name in runs["base"][0]:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        sign = -1 if better.get(name) == "lower" else 1
        report[name] = {
            "better": better.get(name, "higher"),
            "base": base, "change": change,
            "base_quartiles": quartiles(base), "change_quartiles": quartiles(change),
            "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="paired-runs-") as tmp:
        scratch = args.scratch or Path(tmp)
        sides = {side: export(commit, scratch, side)
                 for side, commit in (("base", args.base), ("change", args.change))}
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, args.seed,
                                           args.seconds))
            print(f"pair {i + 1}: " + "  ".join(
                f"{side} {runs[side][-1]['ops_per_s']:.4g}" for side in order), flush=True)
    report = compare(runs, better)

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s, {args.pairs} pairs: "
          f"base {args.base}, change {args.change}")
    print(f"{'metric':<18} {'base q1 / median / q3':>32} {'change q1 / median / q3':>32}  wins")
    for name, m in report.items():
        cells = ["/".join(f"{v:.4g}" for v in m[side]) for side in
                 ("base_quartiles", "change_quartiles")]
        print(f"{name:<18} {cells[0]:>32} {cells[1]:>32}  {m['change_wins']}/{args.pairs}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "pairs": args.pairs, "base": args.base, "change": args.change,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
