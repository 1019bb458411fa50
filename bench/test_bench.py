"""Self-tests of the benchmark: ``python3 -m pytest bench`` from the checkout root."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import spans
from generate import WORKLOADS, Shape, Workload, generate

TINY = Workload("tiny", Shape(documents=40, sentences_per_document=(4, 8)), 15, hclust_clusters=4)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    workload = WORKLOADS["paper-full"]
    generate(workload, 7, tmp_path / "a")
    generate(workload, 7, tmp_path / "b")
    generate(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


def _child(workdir: Path, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "child.py"), "--config", "run.ini", "--src", str(run.SRC), *extra],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(run.SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_writes_the_same_outputs(tmp_path):
    inputs = generate(TINY, 3, tmp_path)
    expected = check.oracle(inputs, TINY)
    untraced = _child(tmp_path)
    first_manifest = json.loads((tmp_path / untraced["manifest"]).read_text())
    problems, summary = check.check_run(tmp_path / untraced["manifest"], TINY, expected, None, None)
    assert problems == []

    traced = _child(tmp_path, "--spans", str(tmp_path / "spans.json"))
    manifest = json.loads((tmp_path / traced["manifest"]).read_text())
    assert manifest["outputs"] == first_manifest["outputs"]
    assert check.check_run(tmp_path / traced["manifest"], TINY, expected, summary, None)[0] == []

    span_list = spans.load_spans(tmp_path / "spans.json")
    by_id = {s.id: s for s in span_list}
    names = {s.name for s in span_list}
    # Reached through cli's direct import and extractors' re-export.
    assert {"cli.run", "patterns.extract_patterns", "corpus.load_corpus"} <= names
    # relative_precision calls evaluate through its module globals.
    assert any(
        s.name == "evaluation.evaluate" and by_id[s.parent].name == "evaluation.relative_precision"
        for s in span_list
        if s.parent is not None
    )
    metrics = run.layer_metrics(traced, span_list)
    assert metrics["extractors.extract_docsub.calls"] == 9
    assert abs(metrics["trace.unaccounted_s"]) < 0.01 * traced["run_s"] + 1e-3


def test_self_time_of_a_hand_built_tree():
    tree = [
        spans.Span(0, "cli.run", 0.0, 10.0, None),
        spans.Span(1, "corpus.load_corpus", 1.0, 3.0, 0),
        spans.Span(2, "evaluation.complementarity_matrix", 4.0, 9.0, 0),
        spans.Span(3, "evaluation.evaluate", 4.5, 6.0, 2),
        spans.Span(4, "evaluation.evaluate", 6.0, 8.0, 2),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.5, 3: 1.5, 4: 2.0})
    times = spans.function_times(tree)
    assert times["evaluation.evaluate.s"] == pytest.approx(3.5)
    assert times["evaluation.self_s"] == pytest.approx(5.0)
    assert sum(times[f"{layer}.self_s"] for layer in ("cli", "corpus", "evaluation")) == pytest.approx(10.0)


def test_nested_calls_of_one_function_count_once():
    tree = [
        spans.Span(0, "taxonomy.break_cycles", 0.0, 4.0, None),
        spans.Span(1, "taxonomy.break_cycles", 1.0, 2.0, 0),
    ]
    assert spans.function_times(tree)["taxonomy.break_cycles.s"] == pytest.approx(4.0)


def test_benchmark_json_names_every_metric_run_prints():
    data = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in data["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == run.PER_LAYER
