"""Self-tests for the benchmark's own arithmetic and checks; they need no
cognlp import and run no pipeline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import pipeline
import run
import tracer
from workloads import STAGES, WORKLOADS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _node(id, parent, name, start, end, count=1, total=None):
    return {
        "id": id, "parent": parent, "name": name, "start": start, "end": end,
        "count": count, "total": end - start if total is None else total, "counters": {},
        "merged": count != 1,
    }


def test_self_time_subtracts_children_once():
    nodes = [
        _node(0, None, "cli.train", 0.0, 10.0),
        _node(1, 0, "datasets.read_dataset", 1.0, 3.0),
        # overlaps the next one: the shared second counts once
        _node(2, 0, "models.train_tagger", 4.0, 7.0),
        _node(3, 0, "models.predict", 6.0, 8.0),
        # aggregated: 40 calls summing 0.5 s, not an interval
        _node(4, 2, "aggregate.discretize", 4.5, 6.5, count=40, total=0.5),
        # runs past its parent's end: only the part inside is covered
        _node(5, 1, "ingest.parse_corpus", 2.5, 3.5),
    ]
    selfs = tracer.self_times(nodes)
    assert selfs[0] == pytest.approx(10.0 - (2.0 + 4.0))
    assert selfs[1] == pytest.approx(2.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(0.5)


def test_tracer_aggregates_hot_calls_and_spans_the_rest():
    ticks = iter(range(1000))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    hot = t.wrap("evaluation.extract_entities", lambda tags: set())
    cold = t.wrap("evaluation.permutation_test", lambda n: [hot(()) for _ in range(n)])
    with t.span("cli.significance"):
        cold(5)
        cold(3)
    nodes = t.nodes
    names = [n["name"] for n in nodes]
    assert names.count("evaluation.permutation_test") == 2
    assert [n["count"] for n in nodes if n["name"] == "evaluation.extract_entities"] == [5, 3]
    selfs = tracer.self_times(nodes)
    assert sum(selfs.values()) == pytest.approx(nodes[0]["total"])


def test_digest_check_flags_one_changed_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("feats").mkdir()
    Path("feats/gaze.jsonl").write_bytes(b'{"NFIX":1}\n')
    Path("report.json").write_bytes(b'{"f1":0.5}\n')
    expected = {"03 extract-gaze": pipeline._written({}, Path("."))}
    assert run.compare(expected, expected) == {}

    Path("feats/gaze.jsonl").write_bytes(b'{"NFIX":2}\n')
    actual = {"03 extract-gaze": pipeline._written({}, Path("."))}
    assert run.compare(expected, actual) == {"03 extract-gaze": ["feats/gaze.jsonl differs"]}


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_layer_metrics_cover_every_per_layer_name():
    values = layers.layer_metrics([[_node(0, None, "cli.train", 0.0, 1.0)]], {"train": 0.9}, 1.0, 0.9)
    assert set(values) == {name for name, _ in layers.PER_LAYER}
    assert values["cli.train.self_s"] == pytest.approx(1.0)
    assert values["stage.train_s"] == pytest.approx(0.9)
    assert set(STAGES) >= {step.stage for w in WORKLOADS.values() for step in w.steps(0)}
