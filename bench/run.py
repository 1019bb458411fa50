"""Benchmark of ``taxorel run``: seeded inputs, isolated runs, checked outputs.

Usage, from the root of a checkout (the program is imported from ./src):

    python3 bench/run.py --workload paper-full --seed 1 --seconds 40 --trace 0

Without ``--workload`` every workload runs, and without ``--trace`` each
runs untraced and then traced.

The workload's inputs are generated from ``--seed`` under ``bench/work/``
(outside every timed region).  Each measured pipeline then runs in its own
fresh interpreter, one at a time, until ``--seconds`` are used up (at least
three runs).  Every run's outputs are checked (see ``check.py``); a run that
raises or fails the check counts in ``failed``.

With ``--trace 0`` the end-to-end metrics come from untraced runs: medians
over runs of ``run_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``.  The
failed share is ``failed / attempted`` of the result line.  With
``--trace 1`` untraced and traced runs alternate, and the per-layer metrics
are medians over the traced runs (see ``spans.py``); ``trace.overhead_s``
is the traced median ``run_s`` minus the untraced one.

The speed of a shared host drifts by tens of percent within minutes, far
more than a regression worth catching.  So the end-to-end times are
reported in host-independent seconds: each run's wall, CPU and set-up time
is divided by the time of a fixed calibration workload (``child.calibrate``)
that the run's interpreter times before its set-up and after its run, and
multiplied by ``CALIBRATION_UNIT_S``.  A time of 3 s thus means the run
took as long as 24 calibration workloads.  The table prints the raw seconds
beside them, and the per-layer times are raw seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics as a table.  ``--write-reference`` records the run's
integer outputs as the reference for its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
from generate import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
REFERENCES = BENCH / "reference"

MIN_RUNS = 3
# Scale of the reported end-to-end seconds: the calibration workload's time
# on an uncontended core (see child.calibrate and the module docstring).
CALIBRATION_UNIT_S = 0.125
# Every run of this script must end within 180 s.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYERS = (
    "corpus",
    "gold",
    "contexts",
    "weighting",
    "patterns",
    "extractors",
    "taxonomy",
    "evaluation",
    "cli",
)
EXTRACTORS = spans.EXTRACTORS
TIMED_FUNCTIONS = (
    "corpus.load_corpus",
    "corpus.corpus_stats",
    "gold.load_gold",
    "contexts.extract_window_contexts",
    "contexts.extract_document_contexts",
    "contexts.select_vocabulary",
    "weighting.weight_ppmi",
    "weighting.weight_lmi",
    "weighting.context_entropies",
    "patterns.extract_patterns",
    *(f"extractors.extract_{m}" for m in EXTRACTORS),
    "taxonomy.build_taxonomy",
    "taxonomy.break_cycles",
    "taxonomy.transitive_reduction",
    "taxonomy.compute_metrics",
    "evaluation.evaluate",
    "evaluation.complementarity_matrix",
    "cli.run",
)
COUNTED = {
    "corpus.tokens": "count",
    "corpus.documents": "count",
    "gold.synsets": "count",
    "contexts.window_nnz": "count",
    "contexts.document_nnz": "count",
    "weighting.ppmi_nnz": "count",
    "patterns.sentences": "count",
    "patterns.relations": "count",
    **{f"extractors.extract_{m}.relations": "count" for m in EXTRACTORS},
    "extractors.extract_docsub.calls": "count",
    "taxonomy.cycle_edges_removed": "count",
    "taxonomy.reduction_edges_removed": "count",
    "evaluation.evaluate.calls": "count",
    "evaluation.evaluate.shared_terms": "count",
    "cli.output_bytes": "B",
}
TIMES = (
    *(f"{fn}.{kind}" for fn in TIMED_FUNCTIONS for kind in ("s", "self_s")),
    *(f"{layer}.self_s" for layer in LAYERS),
)
PER_LAYER = {
    **{name: "s" for name in TIMES},
    **COUNTED,
    "corpus.tokens_per_s": "1/s",
    **{f"extractors.extract_{m}.yield": "share" for m in EXTRACTORS},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}


def run_child(workdir: Path, *extra: str, timeout: float) -> tuple[dict | None, str]:
    """Start one fresh interpreter on the generated inputs; wait for it."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", "run.ini", "--src", str(SRC)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [*cmd, *extra], cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "failed"
    return json.loads(proc.stdout.splitlines()[-1]), ""


def layer_metrics(sample: dict, span_list: list[spans.Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    times = spans.function_times(span_list)
    counts = sample["counts"]
    out = {name: times.get(name, 0.0) for name in TIMES}
    out.update({name: counts.get(name, 0) for name in COUNTED})
    load_s = times.get("corpus.load_corpus.s", 0.0)
    out["corpus.tokens_per_s"] = counts.get("corpus.tokens", 0) / load_s if load_s else 0.0
    for m in EXTRACTORS:
        pairs = counts.get(f"extractors.extract_{m}.pairs", 0)
        relations = counts.get(f"extractors.extract_{m}.relations", 0)
        out[f"extractors.extract_{m}.yield"] = relations / pairs if pairs else 0.0
    out["trace.run_s"] = sample["run_s"]
    out["trace.unaccounted_s"] = sample["run_s"] - sum(times.get(f"{l}.self_s", 0.0) for l in LAYERS)
    out["trace.spans"] = len(span_list)
    return out


def reference_for(workload_name: str, seed: int) -> dict | None:
    path = REFERENCES / f"{workload_name}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return data["summary"] if data["seed"] == seed else None


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path, write_reference: bool):
    inputs = generate(workload, seed, workdir)
    expected = check.oracle(inputs, workload)
    reference = reference_for(workload.name, seed)

    start = time.perf_counter()
    setup = []
    untraced, traced = [], []
    attempted = failed = 0
    first = None
    while True:
        is_traced = trace and attempted % 2 == 1
        shutil.rmtree(workdir / "out", ignore_errors=True)
        spans_path = workdir / f"spans-{attempted}.json"
        extra = ["--spans", str(spans_path), "--run-id", f"{workload.name}/{seed}/{attempted}"]
        began = time.perf_counter()
        result, error = run_child(
            workdir, *(extra if is_traced else ()), timeout=CHILD_TIMEOUT_S
        )
        attempted += 1
        problems = [error]
        if result is not None:
            # A run that completes is timed even when its outputs are wrong.
            setup.append(result["setup_s"] * CALIBRATION_UNIT_S / result["setup_calibration_s"])
            if is_traced:
                traced.append(layer_metrics(result, spans.load_spans(spans_path)))
                shutil.copy(spans_path, WORK / f"spans-{workload.name}-seed{seed}.json")
            else:
                untraced.append(result)
            problems, summary = check.check_run(
                workdir / result["manifest"], workload, expected, first, reference
            )
            if not problems and first is None:
                first = summary
        if problems:
            failed += 1
            print(f"run {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        elapsed = time.perf_counter() - start
        took = time.perf_counter() - began
        if (attempted >= MIN_RUNS and elapsed + took > seconds) or elapsed + took > LAST_START_S:
            break

    if write_reference and first is not None:
        REFERENCES.mkdir(exist_ok=True)
        (REFERENCES / f"{workload.name}.json").write_text(
            json.dumps({"seed": seed, "summary": first}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return setup, untraced, traced, attempted, failed


def median(values):
    return statistics.median(values) if values else 0.0


def report(workload, seed: int, seconds: float, trace: bool, write_reference: bool) -> int:
    """Measure one workload, print its table and, last, its JSON result line."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup, untraced, traced, attempted, failed = measure(
            workload, seed, seconds, trace, workdir, write_reference
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not untraced or (trace and not traced):
        print(f"{workload.name}: no run completed", file=sys.stderr)
        return 1

    print(f"{workload.name} seed {seed} trace {int(trace)}: {attempted} runs, {failed} failed, "
          f"failed_share {failed / attempted:.4f}")
    samples = {
        "run_s": [s["run_s"] * CALIBRATION_UNIT_S / s["calibration_s"] for s in untraced],
        "cpu_s": [s["cpu_s"] * CALIBRATION_UNIT_S / s["calibration_s"] for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        "setup_s": setup,
    }
    raw = {
        "raw run_s": [s["run_s"] for s in untraced],
        "raw setup_s": [s["setup_s"] for s in untraced],
        "calibration_s": [s["calibration_s"] for s in untraced],
    }
    # Fewer than eleven samples support no percentile above the median with
    # ten samples beyond it, so the table gives the maximum and the count.
    for name, values in {**samples, **raw}.items():
        unit = END_TO_END.get(name, "s")
        print(f"  {name}: median {median(values):.4f}, max {max(values):.4f} {unit} "
              f"over n={len(values)}: " + " ".join(f"{v:.3f}" for v in values))
    if trace:
        values = {name: median([t[name] for t in traced]) for name in traced[0]}
        values["trace.overhead_s"] = values["trace.run_s"] - median(raw["raw run_s"])
        units = PER_LAYER
    else:
        values = {name: median(v) for name, v in samples.items()}
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:>16.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: untraced, then traced")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (SRC / "taxorel" / "__init__.py").is_file():
        print(f"no taxorel sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind as on an error: subprocess.run kills and reaps the
    # running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    status = 0
    for name in names:
        for trace in modes:
            status |= report(WORKLOADS[name], args.seed, args.seconds, trace, args.write_reference)
    return status


if __name__ == "__main__":
    sys.exit(main())
