"""BENCHMARK.json lists exactly the workloads and metrics the benchmark reports."""

from __future__ import annotations

import json
from pathlib import Path

from layers import PER_LAYER
from runner import END_TO_END
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_metrics_match():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
