"""Span and counter recording around the public functions of ``padic_sos``.

The library has no recorder of its own yet, so the benchmark measures
from outside: ``Tracer.install`` rebinds each function named in
``SPANS`` and ``COUNTS`` in every ``padic_sos`` module namespace that
holds that object (callers bind with ``from .x import y``, so patching
only the defining module would miss them), and ``Tracer.restore`` puts
every original back.  Exceptions pass through unchanged, because
``reduce_auto`` catches the ``ValueError`` a route raises to decline.

A span is ``(name, start, end, parent, op, tag)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the operation id
the benchmark set, and ``tag`` a short summary of the return value
where a per-layer ratio needs one.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict


def _hit(result) -> str:
    return "hit" if result is not None else "miss"


def _success(result) -> str:
    return "success" if type(result).__name__ == "ReductionResult" else type(result).__name__


RULES = ("rule_odd_split_witness", "rule_simple_z2_root", "rule_two_square_split",
         "rule_eisenstein", "rule_pure_even_divisor", "rule_mod2_even_degrees")
ROUTES = ("reduce_odd_valuation", "reduce_multiple_of_four",
          "reduce_constant_three_mod_four", "reduce_cyclotomic_power",
          "reduce_twice_odd_degree", "reduce_iterative")
METHODS = ("ZERO", "ALG6", "ALGN", "ALG9", "NOS", "GR4", "PICKY")

# "module.function" -> tag function (or None); each call records a span.
SPANS = {
    "ratpoly.is_positive_on_reals": None,
    "ratpoly.rank_signature": None,
    "ratpoly.power_sums": None,
    "ratpoly.poly_gcd": None,
    "ratpoly.squarefree_decomposition": None,
    "ratpoly.sylvester_resultant": None,
    "ratpoly.epsilon_below_infimum": None,
    "ratpoly.perturbation_bound": None,
    "newton_polygon.newton_diagram": None,
    "f2.f2_factor": None,
    "hensel.z2_root_status": lambda status: status.tag,
    "hensel.hensel_split": None,
    "certifier.certify_sos4": lambda cert: cert.verdict,
    **{f"certifier.{rule}": _hit for rule in RULES},
    "reduction.reduce_auto": _success,
    **{f"reduction.{route}": _success for route in ROUTES},
    "serialize.parse_poly": None,
    "serialize.dumps": None,
    "cli.main": None,
}

# Functions whose only per-layer metric is a call count: counted, no span.
COUNTS = ("ratpoly.discriminant", "padic.ord2", "padic.is_square_in_q2",
          "hensel.newton_refine", "certifier.complete_square_split")


def padic_sos_modules() -> dict:
    """Import every ``padic_sos`` submodule and return them by name, so
    no ``from .x import y`` binding is created after rebinding."""
    package = importlib.import_module("padic_sos")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"padic_sos.{info.name}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "padic_sos" or name.startswith("padic_sos.")}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        modules = padic_sos_modules()
        wrappers = {}
        for qualified, tag in SPANS.items():
            wrappers[qualified] = self._span(qualified, tag)
        for qualified in COUNTS:
            wrappers[qualified] = self._count(qualified)
        for qualified, make in wrappers.items():
            module, name = qualified.split(".")
            original = getattr(modules[f"padic_sos.{module}"], name)
            wrapper = make(original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _span(self, qualified: str, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    spans[index] = (qualified, start, clock(), parent, self.op,
                                    type(exc).__name__)
                    stack.pop()
                    raise
                end = clock()
                stack.pop()
                spans[index] = (qualified, start, end, parent, self.op,
                                tag(result) if tag else None)
                return result
            return wrapper
        return make

    def _count(self, qualified: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[qualified] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make


class LayerStats:
    """Per-function totals over any number of span lists.

    ``self_ms`` is a span's duration minus that of its direct child
    spans; ``total_ms`` sums only spans with no enclosing span of the
    same function, so recursion is not counted twice.  ``add`` multiplies
    durations by ``scale``, the pass's reference-speed factor
    (``meter.py``), so layer times read at reference speed too."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.tags: dict = defaultdict(Counter)
        self.child_calls: dict = defaultdict(Counter)

    def add(self, spans, counts, scale: float = 1.0) -> None:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _op, tag in spans:
            self.calls[name] += 1
            self.tags[name][tag] += 1
            if parent >= 0:
                child_s[parent] += end - start
                self.child_calls[spans[parent][0]][name] += 1
        for index, (name, start, end, parent, _op, _tag) in enumerate(spans):
            self.self_s[name] += (end - start - child_s[index]) * scale
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                self.total_s[name] += (end - start) * scale
        self.calls.update(counts)


PER_LAYER = (
    "ratpoly.is_positive_on_reals.calls", "ratpoly.is_positive_on_reals.total_ms",
    "ratpoly.rank_signature.calls", "ratpoly.rank_signature.self_ms",
    "ratpoly.power_sums.self_ms",
    "ratpoly.poly_gcd.calls", "ratpoly.poly_gcd.self_ms",
    "ratpoly.squarefree_decomposition.calls", "ratpoly.squarefree_decomposition.total_ms",
    "ratpoly.sylvester_resultant.calls", "ratpoly.sylvester_resultant.self_ms",
    "ratpoly.discriminant.calls",
    "ratpoly.epsilon_below_infimum.calls", "ratpoly.epsilon_below_infimum.attempts_per_call",
    "ratpoly.perturbation_bound.calls", "ratpoly.perturbation_bound.attempts_per_call",
    "padic.ord2.calls", "padic.is_square_in_q2.calls",
    "newton_polygon.newton_diagram.calls", "newton_polygon.newton_diagram.self_ms",
    "f2.f2_factor.calls", "f2.f2_factor.self_ms",
    "hensel.z2_root_status.calls", "hensel.z2_root_status.self_ms",
    "hensel.z2_root_status.unknown_frac",
    "hensel.hensel_split.calls", "hensel.hensel_split.self_ms",
    "hensel.newton_refine.calls",
    "certifier.certify_sos4.calls", "certifier.certify_sos4.total_ms",
    "certifier.complete_square_split.calls",
    *(f"certifier.{rule}.{stat}" for rule in RULES for stat in ("calls", "hit_frac")),
    "reduction.reduce_auto.calls", "reduction.reduce_auto.total_ms",
    *(f"reduction.{route}.{stat}" for route in ROUTES
      for stat in ("calls", "self_ms", "success_frac")),
    *(f"reduction.method.{code}" for code in METHODS),
    "serialize.parse_poly.calls", "serialize.parse_poly.self_ms",
    "serialize.dumps.calls", "serialize.dumps.self_ms",
    "cli.import_ms", "cli.main.total_ms",
    "trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_frac",
)

# ratio stat -> the span tag it counts
TAG_FRACS = {"unknown_frac": "Unknown", "hit_frac": "hit", "success_frac": "success"}


def per_layer(stats: LayerStats, passes: int, methods: Counter, import_ms: float,
              untraced_rate: float, traced_rate: float) -> dict:
    """Every ``PER_LAYER`` metric as ``name -> (value, unit)``.  Counts and
    times are per traced pass; fractions are over all traced calls."""
    out = {}
    for name in PER_LAYER:
        qualified, stat = name.rsplit(".", 1)
        calls = stats.calls[qualified]
        if name == "cli.import_ms":
            out[name] = (import_ms, "ms")
        elif qualified == "reduction.method":
            out[name] = (methods[stat] / passes, "count")
        elif qualified == "trace":
            out[name] = {"ops_per_s_untraced": (untraced_rate, "1/s"),
                         "ops_per_s_traced": (traced_rate, "1/s"),
                         "overhead_frac": (1.0 - traced_rate / untraced_rate, "frac")}[stat]
        elif stat == "calls":
            out[name] = (calls / passes, "count")
        elif stat == "self_ms":
            out[name] = (stats.self_s[qualified] * 1000.0 / passes, "ms")
        elif stat == "total_ms":
            out[name] = (stats.total_s[qualified] * 1000.0 / passes, "ms")
        elif stat == "attempts_per_call":
            attempts = stats.child_calls[qualified]["ratpoly.is_positive_on_reals"]
            out[name] = (attempts / calls if calls else 0.0, "count/call")
        else:
            hits = stats.tags[qualified][TAG_FRACS[stat]]
            out[name] = (hits / calls if calls else 0.0, "frac")
    return out
