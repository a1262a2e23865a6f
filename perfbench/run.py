"""padic-sos benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes one pass of inputs
(see ``corpus.py``); the pass is replayed until ``--seconds`` of wall
time have passed, and within a pass each input is called until its calls
add up to ``MIN_INPUT_S``.  Replaying the same inputs keeps every count
and fraction a function of the seed alone.  Every call is timed at
reference machine speed (``meter.py``), and each input's latency is the
median of its calls.  Outputs are checked outside the timed region:
each input's first output is verified from scratch, and every later one
must match it exactly.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
an untraced and a traced pass and reports the per-layer metrics of the
traced passes, per pass.  Spans go to ``.bench_build/perfbench/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from meter import Meter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 21
MIN_INPUT_S = 0.05
TAIL_BEYOND = 10
SETUP_READ_S = 0.05


class Raised:
    """An operation that raised instead of returning; it is its own
    failed check outcome."""

    ok, inconclusive, units, method = False, 0, 1, None

    def __init__(self, text: str):
        self.note = text


def timed_pass(meter, call, items, record, min_s=0.0, tracer=None, expect=None):
    """Time ``call`` on each input in turn with ``meter`` and hand every
    result to ``record(index, result)`` outside the timed region.  An input
    is called again until its calls in this pass add up to ``min_s``
    seconds, so short operations are read many times.  ``expect`` holds
    each input's last raw time, for the meter's reading before the call,
    and is updated.  Returns, per input, its calls' times at reference
    speed."""
    expect = expect if expect is not None else [0.0] * len(items)
    latencies = []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.op = index
        timings, spent, result = [], 0.0, None
        while not timings or (spent < min_s and not isinstance(result, Raised)):
            result, raw, scaled = meter.time(lambda: guarded(call, item), expect[index])
            expect[index] = raw
            spent += raw
            timings.append(scaled)
            record(index, result)
        latencies.append(timings)
    return latencies


def guarded(call, item):
    try:
        return call(item)
    except Exception:  # any failure of the program is counted, not fatal
        return Raised(traceback.format_exc())


class Ledger:
    """Checks every call: an input's first result in full, each later one
    against it by key.  Counts attempts and failures."""

    def __init__(self, workload, items):
        self.workload, self.items = workload, items
        self.outcomes = [None] * len(items)
        self.keys = [None] * len(items)
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def record(self, index: int, res) -> None:
        wl = self.workload
        self.attempted += 1
        if isinstance(res, Raised):
            ok, why = False, res.note
            if self.outcomes[index] is None:
                self.outcomes[index] = res
        elif self.outcomes[index] is None:
            self.outcomes[index] = outcome = wl.check(self.items[index], res)
            self.keys[index] = wl.key(res)
            ok, why = outcome.ok, outcome.note
        elif not self.outcomes[index].ok:
            ok, why = False, self.outcomes[index].note
        elif wl.key(res) != self.keys[index]:
            ok, why = False, "output differs from the first call"
        else:
            ok, why = True, ""
        if not ok:
            self.note(index, why)
        self.failed += not ok

    def note(self, index: int, text: str) -> None:
        line = f"input {index} ({self.items[index]}): {text}"
        if line not in self.notes:
            self.notes.append(line)

    def inconclusive_frac(self) -> float:
        units = sum(o.units for o in self.outcomes)
        return sum(o.inconclusive for o in self.outcomes) / units

    def methods(self) -> Counter:
        return Counter(o.method for o in self.outcomes if o.method)


def measure_setup(meter, name: str) -> float:
    """Median over fresh interpreters of import plus one warm-up op, each
    at reference speed by the meter's readings around the child."""
    times = []
    for _ in range(SETUP_RUNS):
        before, _spent = meter.read(SETUP_READ_S)
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")),
                               "setup", name], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        after, _spent = meter.read(SETUP_READ_S)
        raw = float(proc.stdout.strip().splitlines()[-1])
        times.append(raw * meter.nominal_s / ((before + after) / 2.0))
    return statistics.median(times)


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, items, seconds):
    n = len(items)
    ledger = Ledger(wl, items)
    per_input = [[] for _ in items]
    expect = [0.0] * n
    meter = wl.meter()
    reps, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds or reps < wl.min_reps:
        latencies = timed_pass(meter, wl.call, items, ledger.record, MIN_INPUT_S,
                               expect=expect)
        for slot, timings in zip(per_input, latencies):
            slot.extend(timings)
        reps += 1
    busy = time.perf_counter() - start
    typical = sorted(statistics.median(slot) for slot in per_input)
    if n > TAIL_BEYOND:
        tail, pct = typical[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = typical[-1], 100.0
    metrics = {
        "setup_s": metric(measure_setup(meter, wl.name), "s"),
        "ops_per_s": metric(n / sum(typical), "1/s"),
        "op_ms_p50": metric(statistics.median(typical) * 1000.0, "ms"),
        "op_ms_tail": metric(tail * 1000.0, "ms"),
        "inconclusive_frac": metric(ledger.inconclusive_frac(), "frac"),
        "peak_rss_mb": metric(peak_rss_mb(wl.name == "cli-cold"), "MB"),
    }
    calls = sum(len(slot) for slot in per_input)
    summary = (f"{wl.name}: {n} inputs x {reps} passes, {calls} calls in {busy:.2f} s; "
               f"op_ms_tail is p{pct:.1f} of {n} per-input latencies; "
               f"error_frac {ledger.failed / ledger.attempted:.4f} "
               f"({ledger.failed}/{ledger.attempted})")
    return metrics, ledger, summary


def traced(wl, items, seconds, spans_file):
    import tracer as tr
    stats = tr.LayerStats()
    ledger = Ledger(wl, items)
    dump = []
    import_ms = []
    meter = wl.meter()
    meter.during = False
    start = time.perf_counter()
    reps = {False: 0, True: 0}
    per_input = {False: [[] for _ in items], True: [[] for _ in items]}
    # at least two untraced passes: the first also warms the interpreter up
    while time.perf_counter() - start < seconds or reps[False] < 2:
        trace_on = reps[False] > reps[True]
        raw_s, scaled_s = meter.raw_s, meter.scaled_s
        if not trace_on:
            latencies = timed_pass(meter, wl.call, items, ledger.record)
        elif wl.name == "cli-cold":
            reports = [OUT / f"cli-{i}.json" for i in range(len(items))]
            latencies = timed_pass(meter, lambda pair: wl.call_traced(*pair),
                                   list(zip(items, reports)), ledger.record)
            scale = (meter.scaled_s - scaled_s) / (meter.raw_s - raw_s)
            for op, report in enumerate(reports):
                if report.exists():
                    data = json.loads(report.read_text())
                    report.unlink()
                    stats.add([tuple(s) for s in data["spans"]], data["counts"], scale)
                    import_ms.append(data["import_ms"] * scale)
                    dump.append({"op": op, **data})
        else:
            tracer = tr.Tracer()
            with tracer:
                latencies = timed_pass(meter, wl.call, items, ledger.record, tracer=tracer)
            scale = (meter.scaled_s - scaled_s) / (meter.raw_s - raw_s)
            stats.add(tracer.spans, tracer.counts, scale)
            dump.append({"spans": tracer.spans, "counts": tracer.counts})
        for slot, timings in zip(per_input[trace_on], latencies):
            slot.extend(timings)
        reps[trace_on] += 1
    spans_file.write_text(json.dumps({"workload": wl.name, "passes": dump}))
    n = len(items)
    rates = {on: n / sum(statistics.median(slot) for slot in per_input[on])
             for on in per_input}
    metrics = tr.per_layer(stats, reps[True], ledger.methods(),
                           statistics.median(import_ms) if import_ms else 0.0,
                           rates[False], rates[True])
    summary = (f"{wl.name}: {n} inputs, {reps[False]} untraced and {reps[True]} traced passes; "
               f"tracing overhead {rates[False] - rates[True]:.4f} ops/s; "
               f"error_frac {ledger.failed / ledger.attempted:.4f} "
               f"({ledger.failed}/{ledger.attempted}); spans in {spans_file}")
    return {k: metric(v, u) for k, (v, u) in metrics.items()}, ledger, summary


def main(argv=None) -> int:
    if not (SRC / "padic_sos" / "__init__.py").is_file():
        print(f"error: {SRC / 'padic_sos'} is missing; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    # One CPU for the benchmark and every child it starts, so the meter's
    # readings are taken on the core a cli-cold or set-up child runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]()
    items = wl.inputs(args.seed)
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"{wl.name}-seed{args.seed}-spans.json"
        metrics, ledger, summary = traced(wl, items, args.seconds, spans_file)
    else:
        metrics, ledger, summary = end_to_end(wl, items, args.seconds)
    for line in ledger.notes:
        print(f"FAILED {line}", file=sys.stderr)
    print(summary)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
