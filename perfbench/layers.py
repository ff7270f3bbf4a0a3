"""Per-layer figures derived from the spans of a traced run.

Counts are totals over the traced ops divided by the number of traced ops.
A layer's self time is its spans' durations minus their children's; the
benchmark's own work (building inputs, checking outputs) is the `bench`
layer.
"""

from __future__ import annotations

from tracer import Span, self_times

CONTROLLERS = ("path", "ftc")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def print_layer_shares(spans: list[Span], wall: float) -> None:
    """Self time per layer over the whole traced run."""
    by_layer: dict[str, float] = {}
    for span, st in zip(spans, self_times(spans)):
        by_layer[_layer(span.name)] = by_layer.get(_layer(span.name), 0.0) + st
    outside = wall - sum(s.duration for s in spans if s.parent is None)
    by_layer["bench"] = by_layer.get("bench", 0.0) + outside
    print(f"traced wall {wall:.6g} s; self time by layer:")
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<8} {t:10.6f} s {t / wall:8.3%}")


def counts(spans: list[Span], n_ops: int) -> dict[str, float]:
    op_spans = [s for s in spans if isinstance(s.op, int)]
    skills = [s for s in op_spans if s.name == "control.run_skill" and s.attrs
              and "ticks" in s.attrs]

    def calls(name: str) -> float:
        return sum(1 for s in op_spans if s.name == name) / n_ops

    values = {
        "control.run_skill_calls": calls("control.run_skill"),
        "control.sim_units": sum(s.attrs["units"] for s in skills) / n_ops,
        "dspace.space_calls": calls("dspace.disassembly_space"),
        "dspace.admissible_calls": calls("dspace.admissible_indices"),
        "dspace.classify_calls": calls("dspace.classify_sdof"),
    }
    for c in CONTROLLERS:
        values[f"control.ticks.{c}"] = sum(s.attrs["ticks"].get(c, 0)
                                           for s in skills) / n_ops
    return values
