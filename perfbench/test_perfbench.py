"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import meter  # noqa: E402
import tracer  # noqa: E402
import padic_sos  # noqa: E402
from padic_sos import RatPoly, is_positive_on_reals, sturm_real_root_count  # noqa: E402
from padic_sos.ratpoly import squarefree_part  # noqa: E402


def _snapshot():
    return {(name, attr): value
            for name, mod in tracer.padic_sos_modules().items()
            for attr, value in vars(mod).items()}


def _ops():
    # through the package namespace, which the tracer rebinds
    padic_sos.certify_sos4(RatPoly([3, 0, 1]))
    padic_sos.reduce_auto(RatPoly([7, 1, 0, 0, 1]))
    padic_sos.reduce_auto(corpus.always_square(corpus.stream("test", 0), 6))


def test_tracer_restores_every_attribute():
    before = _snapshot()
    t = tracer.Tracer()
    with t:
        assert tracer.padic_sos_modules()["padic_sos.reduction"].certify_sos4 \
            is not before[("padic_sos.reduction", "certify_sos4")]
        _ops()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert t.spans and t.counts


def test_self_times_sum_within_wall_time():
    t = tracer.Tracer()
    start = time.perf_counter()
    with t:
        _ops()
    wall = time.perf_counter() - start
    stats = tracer.LayerStats()
    stats.add(t.spans, t.counts)
    assert sum(stats.self_s.values()) <= wall
    assert stats.calls["reduction.reduce_auto"] == 2
    assert stats.calls["certifier.certify_sos4"] >= 2
    assert all(stats.self_s[name] >= 0 for name in stats.self_s)


def test_meter_reads_the_reference_at_reference_speed():
    m = meter.Meter()
    scaled = sorted(m.time(meter.reference)[2] for _ in range(21))
    # the kernel timed against its own readings: machine speed cancels
    assert 0.5 * meter.REF_S < scaled[10] < 2.0 * meter.REF_S
    result, _raw, _scaled = m.time(lambda: 42, expect_s=0.01)
    assert result == 42 and m.last_spent >= 0.01 * meter.REF_SHARE


def test_generator_is_deterministic_per_seed():
    for name, per_degree in (("certify-corpus", 10), ("reduce-corpus", 4)):
        assert corpus.corpus(name, 5, per_degree) == corpus.corpus(name, 5, per_degree)
    assert corpus.alg9_family(5) == corpus.alg9_family(5)
    assert corpus.cli_documents(5, 4) == corpus.cli_documents(5, 4)
    assert corpus.alg9_family(5) != corpus.alg9_family(6)


def test_corpus_members_are_strictly_positive():
    polys = [item.poly for name, per_degree in (("certify-corpus", 10), ("reduce-corpus", 4))
             for item in corpus.corpus(name, 1, per_degree)]
    polys += [item.poly for item, _argv in corpus.cli_documents(1, 4)]
    for f in polys:
        assert is_positive_on_reals(f).verdict, f
        assert sturm_real_root_count(squarefree_part(f)) == 0, f


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {
        "certify-corpus", "reduce-corpus", "alg9-family", "cli-cold"}
