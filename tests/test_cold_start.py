"""The lazy package, the CLI's per-command imports and the demos.

``import padic_sos`` runs no submodule; names load on first read, and a
CLI process loads only the modules its subcommand runs.  The process
tests start a fresh interpreter, because this one has every module
loaded already; the demos run the same way, through the lazy package.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padic_sos
from padic_sos.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(padic_sos.__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
           PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                    os.environ.get("PYTHONPATH")])))

HEAVY = ("reduction", "certifier", "hensel", "f2", "newton_polygon")

# one run of each subcommand; exit codes 0 and 2 both occur
COMMANDS = {
    "positivity": ["--poly", "x^4+x^2+1"],
    "hankel": ["--poly", '["2","-3","1"]'],
    "sturm": ["--poly", "x^3 - x"],
    "discriminant": ["--poly", "x^2+1"],
    "newton-polygon": ["--poly", "x^2+2"],
    "padic-square": ["--value", "17"],
    "padic-sqrt": ["--value", "17", "--precision", "6"],
    "root-status": ["--poly", "x^2-17"],
    "sos4-certify": ["--poly", "x^2+3"],
    "reduce": ["--poly", "x^2+3", "--method", "auto"],
    "alg9-demo": ["--k", "0", "--N", "65", "--cap", "2"],
    "family": ["--g", "x^3+x+1", "--a", "1"],
}

# runs main(argv) and prints the padic_sos modules the process loaded
LOADED = """
import contextlib, io, sys
from padic_sos.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("padic_sos"))))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_every_export_is_its_defining_modules_object():
    assert len(set(padic_sos.__all__)) == len(padic_sos.__all__)
    for module, names in padic_sos._EXPORTS.items():
        defining = getattr(padic_sos, module)
        for name in names:
            obj = getattr(padic_sos, name)
            assert obj is getattr(defining, name), name
            if callable(obj):
                assert obj.__module__ == defining.__name__, name


def test_star_import_dir_and_unknown_names():
    namespace: dict = {}
    exec("from padic_sos import *", namespace)
    assert set(padic_sos.__all__) <= namespace.keys()
    assert set(padic_sos.__all__) <= set(dir(padic_sos))
    with pytest.raises(AttributeError, match="no_such_name"):
        padic_sos.no_such_name
    with pytest.raises(ImportError):
        exec("from padic_sos import no_such_name", {})


def test_lookups_do_not_cache_in_the_package():
    padic_sos.certify_sos4
    padic_sos.RatPoly
    assert "certify_sos4" not in vars(padic_sos)
    assert "RatPoly" not in vars(padic_sos)


def test_bare_import_loads_nothing_and_submodules_resolve():
    proc = _python("-c", """
import sys
import padic_sos
assert [m for m in sys.modules if m.startswith("padic_sos.")] == []
assert padic_sos.f2.f2_factor
assert padic_sos.reduction.reduce_auto is padic_sos.reduce_auto
print("ok")
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize("command, absent", [
    ("hankel", HEAVY), ("discriminant", HEAVY), ("positivity", HEAVY),
    ("sturm", HEAVY), ("sos4-certify", ("reduction",)),
    ("root-status", ("reduction",)),
    ("padic-square", HEAVY), ("padic-sqrt", HEAVY),
])
def test_command_loads_only_what_it_runs(command, absent):
    proc = _python("-c", LOADED, command, *COMMANDS[command])
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "padic_sos.cli" in loaded
    assert loaded.isdisjoint(f"padic_sos.{m}" for m in absent), loaded


@pytest.mark.parametrize("leaf", ["zpoly", "record"])
def test_leaf_module_imports_no_package_module(leaf):
    proc = _python("-c", f"""
import sys
import padic_sos.{leaf}
print(" ".join(sorted(m for m in sys.modules if m.startswith("padic_sos"))))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["padic_sos", f"padic_sos.{leaf}"]


def test_no_command_loads_dataclasses_or_inspect():
    # one process runs every command in turn and, after each, names any
    # of the modules that defining records with dataclasses imported
    proc = _python("-c", """
import contextlib, io, json, sys
from padic_sos.cli import main
for command, args in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        main([command, *args])
    print(command, *(m for m in ("dataclasses", "inspect") if m in sys.modules))
""", json.dumps(COMMANDS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == list(COMMANDS)


def test_module_entry_point_matches_in_process_main():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(COMMANDS) == set(subparsers.choices)
    for command, args in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, *args])
        proc = _python("-m", "padic_sos.cli", command, *args)
        assert (proc.returncode, proc.stdout) == (code, out.getvalue()), command
        assert json.loads(proc.stdout)["schema"] == "padic-sos/1"


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = _python(str(script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
