"""The four benchmark workloads.

Each workload is a closed loop: one caller in one thread starts an
operation, waits for its result, then starts the next.  A workload
gives its inputs for a seed (one pass, a fixed operation count), the
timed ``call`` for one input, and two functions the runner applies
outside the timed region: ``check`` verifies an output from scratch,
``key`` summarises it so a repeat of the same input must match exactly.

* certify-corpus: ``certify_sos4`` on the seeded corpus.
* reduce-corpus: ``reduce_auto`` on the same generator, another stream.
* alg9-family: ``reduce_iterative(f, cap=40)`` on the non-terminating
  palindromic family, k = 0, 1, 2.
* cli-cold: one ``python -m padic_sos.cli`` process per document, at
  most one child at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import padic_sos  # operations call through the package, which the tracer rebinds
from padic_sos import (INCONCLUSIVE, NOT_SOS4, SOS4, InconclusiveReport,
                       NonTermination, ReductionResult, verify_certificate)

import corpus
from meter import Meter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
CLI_TIMEOUT_S = 60
BARE = "import argparse, dataclasses, fractions, json, re, typing"
BARE_S = 0.05  # about what BARE takes undisturbed on a 2-vCPU x86-64 VM


@dataclass(frozen=True)
class Outcome:
    """Result of checking one operation: ``inconclusive`` of ``units``
    feed ``inconclusive_frac``; ``method`` is the reduction route code."""

    ok: bool
    inconclusive: int = 0
    units: int = 1
    method: str | None = None
    note: str = ""


class CertifyCorpus:
    name = "certify-corpus"
    per_degree = 10
    min_reps = 1

    def meter(self):
        return Meter()

    def inputs(self, seed):
        return corpus.corpus(self.name, seed, self.per_degree)

    def call(self, item):
        return padic_sos.certify_sos4(item.poly)

    @staticmethod
    def key(cert):
        return cert.verdict, cert.rule

    def check(self, item, cert) -> Outcome:
        if cert.verdict == INCONCLUSIVE:
            return Outcome(cert.evidence is None, inconclusive=1)
        if item.slice == corpus.NOT_SOS4 and cert.verdict == SOS4:
            return Outcome(False, note="SOS4 on the NOT_SOS4 slice")
        if not verify_certificate(item.poly, cert):
            return Outcome(False, note=f"{cert.rule} certificate does not re-verify")
        return Outcome(True)


class ReduceCorpus:
    name = "reduce-corpus"
    per_degree = 4
    min_reps = 1

    def meter(self):
        return Meter()

    def inputs(self, seed):
        return corpus.corpus(self.name, seed, self.per_degree)

    def call(self, item):
        return padic_sos.reduce_auto(item.poly)

    @staticmethod
    def key(res):
        if isinstance(res, ReductionResult):
            return res.method, res.h
        return type(res).__name__, getattr(res, "note", None)

    def check(self, item, res) -> Outcome:
        if isinstance(res, InconclusiveReport):
            return Outcome(True, inconclusive=1)
        if not isinstance(res, ReductionResult):
            return Outcome(False, note=f"unexpected result {type(res).__name__}")
        method = res.method
        if item.slice == corpus.NOT_SOS4 and method == "ZERO":
            return Outcome(False, method=method, note="NOT_SOS4 input certified SOS4")
        if item.poly - res.h * res.h != res.residual:
            return Outcome(False, method=method, note="f - h*h != residual")
        if (res.certificate.verdict != SOS4
                or not verify_certificate(res.certified_poly, res.certificate)):
            return Outcome(False, method=method, note="certificate does not re-verify")
        return Outcome(True, method=method)


class Alg9Family:
    name = "alg9-family"
    min_reps = 1

    def meter(self):
        return Meter()

    def inputs(self, seed):
        return corpus.alg9_family(seed)

    def call(self, item):
        return padic_sos.reduce_iterative(item.poly, cap=corpus.ALG9_CAP)

    @staticmethod
    def key(res):
        if isinstance(res, NonTermination):
            return tuple((b.verdict, b.h) for it in res.iterates
                         for b in (it.branch_a, it.branch_b))
        return type(res).__name__

    def check(self, item, res) -> Outcome:
        if not isinstance(res, NonTermination):
            return Outcome(False, note=f"expected NonTermination, got {type(res).__name__}")
        branches = [b for it in res.iterates for b in (it.branch_a, it.branch_b)]
        inconclusive = sum(b.verdict == INCONCLUSIVE for b in branches)
        counts = dict(inconclusive=inconclusive, units=len(branches))
        if res.cap != corpus.ALG9_CAP or len(res.iterates) != corpus.ALG9_CAP:
            return Outcome(False, **counts,
                           note=f"{len(res.iterates)} iterates, expected {corpus.ALG9_CAP}")
        for b in branches:
            if b.verdict == NOT_SOS4 and not verify_certificate(b.candidate, b.certificate):
                return Outcome(False, **counts, note="NOT_SOS4 branch does not re-verify")
        return Outcome(True, **counts)


class CliCold:
    name = "cli-cold"
    per_entry = 3
    min_reps = 3  # a median of three calls per document; repeats also check byte identity

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def inputs(self, seed):
        return corpus.cli_documents(seed, self.per_entry)

    def meter(self):
        """The reading is a bare interpreter that imports the standard
        library modules the CLI imports: a child started and waited for
        as a document's is.  Process start-up slows less than the
        in-process kernel when the machine is busy (1.3x where the
        kernel took 1.7x), so that kernel did not cancel the machine's
        speed here."""
        return Meter(self.bare_interpreter, BARE_S, during=False)

    def bare_interpreter(self):
        self._spawn([sys.executable, "-c", BARE])

    def _spawn(self, cmd):
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def call(self, doc):
        return self._spawn([sys.executable, "-m", "padic_sos.cli", *doc[1]])

    def call_traced(self, doc, report: Path):
        """The same document through the benchmark's shim, which times
        ``import padic_sos.cli`` and writes its spans to ``report``."""
        return self._spawn([sys.executable, str(CHILD), "cli", str(report), *doc[1]])

    @staticmethod
    def key(res):
        return res

    def check(self, doc, res) -> Outcome:
        code, out = res
        if code not in (0, 2):
            return Outcome(False, note=f"exit code {code}")
        try:
            doc = json.loads(out)
        except ValueError:
            return Outcome(False, note="standard output is not JSON")
        if doc.get("schema") != "padic-sos/1":
            return Outcome(False, note=f"schema {doc.get('schema')!r}")
        return Outcome(True, inconclusive=int(code == 2), method=doc.get("method"))


WORKLOADS = {w.name: w for w in (CertifyCorpus, ReduceCorpus, Alg9Family, CliCold)}
