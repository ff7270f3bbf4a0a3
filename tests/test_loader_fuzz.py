"""Bounded fuzz of the two loaders of outside input: mutated scenario and
fault documents must either load or raise a ``DismantleError``, never any
other exception (which the CLI would print as a traceback).  A scenario's
error is one line that starts with its file name."""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS

from dismantle.errors import DismantleError
from dismantle.metrics import load_fault_specs
from dismantle.model import load_model_dict

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# values of every JSON type, at and past the loaders' bounds
ODD_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1e-300, 1e300, 1000,
              1000.0000001, True, None, [], {}, "x"]

SCENARIO_DOCS = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]
FAULT_DOCS = [
    {"faults": [{"kind": "tool_slip", "repetition": 0},
                {"kind": "force_noise", "repetition": 1, "ap_index": 2, "sigma": 4.5},
                {"kind": "feature_dropout", "repetition": 2}]},
    {"faults": []},
]


def _slots(node, path=()):
    """The path, as keys and indices, of every value below the root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _key_names(docs):
    """The names a renamed key may take: every key of ``docs``, so a value
    can move to another field, and one that no document knows."""
    return sorted({path[-1] for doc in docs for path in _slots(doc)
                   if isinstance(path[-1], str)} | {"unknown"})


@st.composite
def _mutated(draw, docs):
    """One of ``docs`` after 1 to 3 edits: a value dropped, a value replaced
    by one of ``ODD_VALUES``, one of them inserted into a list, or a key
    renamed to another of the documents' keys."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        *parent_path, key = draw(st.sampled_from(slots))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        edit = draw(st.sampled_from(["drop", "replace", "insert", "rename"]))
        if edit == "drop":
            del parent[key]
        elif edit == "insert" and isinstance(parent, list):
            parent.insert(key, value)
        elif edit == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(_key_names(docs)))] = parent.pop(key)
        else:
            parent[key] = value
    return doc


@FUZZ
@given(doc=_mutated(SCENARIO_DOCS))
def test_mutated_scenario_loads_or_raises_dismantle_error(doc):
    try:
        load_model_dict(doc, path="fuzz.json")
    except DismantleError as exc:
        assert str(exc).startswith("fuzz.json: ") and "\n" not in str(exc)


@FUZZ
@given(doc=_mutated(FAULT_DOCS))
def test_mutated_fault_file_loads_or_raises_dismantle_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "faults.json"
        path.write_text(json.dumps(doc))
        try:
            load_fault_specs(path)
        except DismantleError:
            pass
