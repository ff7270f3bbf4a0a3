"""The library is what the command line reaches.

Every function and method defined in ``src/dismantle/*.py``, nested ones
included, must be called by one of the in-process ``cli.main`` runs below,
or be listed in ``data/unreached.json`` as ``"file:qualname": "reason"``.
A listed entry that the runs reach, or that names no function, fails too,
so the list can only shrink.

The runs are ``plan``, ``decompose``, ``simulate --out D`` and
``report --out D`` on the valve, ``simulate`` of single_screw with one fault
of each kind, the infeasible ``blocked`` plan, and one parse error and one
validation error (two valve copies of CI's console-script step).  They reach
every function that the four commands reach on all four bundled scenarios
and on all of that step's bad-input files; the valve's ``simulate`` alone
builds a ``Retention`` (the hose's extraction).

A trace function set with ``sys.settrace`` and ``threading.settrace``
records the file and first line of each called code object and returns
None, so no line is traced.  A def is matched by the line of its first
decorator, or of its ``def`` without one, as ``co_firstlineno`` gives it
(``co_qualname`` is newer than Python 3.10).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import threading
import types
from pathlib import Path

import pytest

import dismantle
from dismantle.cli import main

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
UNREACHED = HERE / "data" / "unreached.json"
SAMPLES = "2000"
FAULTS = {"faults": [{"kind": "tool_slip", "repetition": 0},
                     {"kind": "force_noise", "repetition": 1},
                     {"kind": "feature_dropout", "repetition": 2}]}


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """``(real path, first line)`` -> ``"file:qualname"`` of every function
    and method in the package's modules, closures included."""
    found = {}
    for path in sorted(package.glob("*.py")):
        real = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = child.decorator_list[0] if child.decorator_list else child
                    found[(real, first.lineno)] = f"{path.name}:{name}"
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _valve_copy(tmp: Path, name: str, edit) -> Path:
    doc = json.loads((SCENARIOS / "valve.json").read_text(encoding="utf-8"))
    edit(doc)
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _runs(tmp: Path) -> list[tuple[list, int]]:
    """Each run's argv and its exit code."""
    valve = SCENARIOS / "valve.json"
    faults = tmp / "faults.json"
    faults.write_text(json.dumps(FAULTS), encoding="utf-8")
    typo = _valve_copy(tmp, "target_typo",
                       lambda d: d.__setitem__("targte", d.pop("target")))
    ghost = _valve_copy(tmp, "ghost", lambda d: d.__setitem__("target", "ghost"))
    out = tmp / "valve"
    return [
        (["plan", valve, "--samples", SAMPLES], 0),
        (["decompose", valve, "--samples", SAMPLES], 0),
        (["simulate", valve, "--samples", SAMPLES, "--reps", "1", "--out", out], 0),
        (["report", "--out", out], 0),
        (["simulate", SCENARIOS / "single_screw.json", "--samples", SAMPLES,
          "--reps", "3", "--faults", faults], 0),
        (["plan", SCENARIOS / "blocked.json", "--samples", SAMPLES], 3),
        (["plan", typo, "--samples", SAMPLES], 1),
        (["plan", ghost, "--samples", SAMPLES], 2),
    ]


def reached_calls(runs) -> set[tuple[str, int]]:
    """``(real path, first line)`` of every code object called during the
    runs, in any thread; asserts each run's exit code."""
    calls = set()

    def trace(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        return None

    before = sys.gettrace(), threading.gettrace()
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        codes = []
        for argv, _ in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main([str(a) for a in argv]))
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    assert codes == [code for _, code in runs]
    return {(os.path.realpath(f), line) for f, line in calls}


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """(names with every def reached, names with a def not reached, the list)."""
    defined = defined_functions(Path(dismantle.__file__).parent)
    calls = reached_calls(_runs(tmp_path_factory.mktemp("reach")))
    unreached = {name for key, name in defined.items() if key not in calls}
    listed = json.loads(UNREACHED.read_text(encoding="utf-8"))
    return set(defined.values()) - unreached, unreached, listed


def test_every_function_is_reached_or_listed(reach):
    _, unreached, listed = reach
    assert sorted(unreached - listed.keys()) == []


def test_no_listed_function_is_reached(reach):
    reached, _, listed = reach
    assert sorted(reached & listed.keys()) == []


def test_every_listed_entry_names_a_function_with_a_reason(reach):
    reached, unreached, listed = reach
    assert sorted(listed.keys() - reached - unreached) == []
    assert all(isinstance(why, str) and why for why in listed.values())


def _code_lines(code) -> set[tuple[str, int]]:
    """``(co_name, co_firstlineno)`` of the code objects nested in ``code``."""
    found = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            found.add((const.co_name, const.co_firstlineno))
            found |= _code_lines(const)
    return found


def test_each_def_has_a_code_object_at_its_first_line(tmp_path):
    """The key of every def is that of the code object the def compiles to,
    on the running Python, for the package and for a decorated method with
    a closure."""
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    @property\n"
        "    def p(self):\n"
        "        def inner():\n"
        "            pass\n"
        "        return inner\n", encoding="utf-8")
    real = os.path.realpath(tmp_path / "m.py")
    assert defined_functions(tmp_path) == {(real, 2): "m.py:A.p",
                                           (real, 4): "m.py:A.p.<locals>.inner"}
    compiled = {}
    for package in (tmp_path, Path(dismantle.__file__).parent):
        for (path, line), name in defined_functions(package).items():
            if path not in compiled:
                source = Path(path).read_text(encoding="utf-8")
                compiled[path] = _code_lines(compile(source, path, "exec"))
            assert (name.split(":")[1].rsplit(".", 1)[-1], line) in compiled[path], name
