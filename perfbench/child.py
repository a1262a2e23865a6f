"""Child processes the benchmark starts.

``child.py setup <workload>`` times one set-up as a user pays it: import
``padic_sos`` (and ``padic_sos.cli`` for cli-cold) in a fresh
interpreter, then run one small operation of the workload's kind on a
fixed input.  It prints the seconds taken.

``child.py cli <report> <argv...>`` is the traced stand-in for
``python -m padic_sos.cli <argv...>``: it times ``import padic_sos.cli``,
runs ``main(argv)`` under the tracer, writes the import time, spans and
counts to ``<report>`` as JSON, and exits with ``main``'s code.  Its
standard output is the CLI document itself.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(workload: str) -> float:
    start = time.perf_counter()
    import padic_sos
    f = padic_sos.RatPoly([3, 0, 1])
    if workload == "certify-corpus":
        padic_sos.certify_sos4(f)
    elif workload == "reduce-corpus":
        padic_sos.reduce_auto(f)
    elif workload == "alg9-family":
        padic_sos.reduce_iterative(padic_sos.palindromic_counterexample(0, 65)[0], cap=1)
    elif workload == "cli-cold":
        import padic_sos.cli
        with contextlib.redirect_stdout(io.StringIO()):
            padic_sos.cli.main(["sos4-certify", "--poly", "x^2+3"])
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return time.perf_counter() - start


def traced_cli(report: Path, argv: list) -> int:
    start = time.perf_counter()
    import padic_sos.cli
    import_ms = (time.perf_counter() - start) * 1000.0
    from tracer import Tracer
    tracer = Tracer()
    with tracer:
        code = padic_sos.cli.main(argv)
    report.write_text(json.dumps({"import_ms": import_ms, "spans": tracer.spans,
                                  "counts": tracer.counts}))
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        print(repr(setup(sys.argv[2])))
        return 0
    if mode == "cli":
        return traced_cli(Path(sys.argv[2]), sys.argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
