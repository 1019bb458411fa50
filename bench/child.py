"""One measured pipeline run in a fresh interpreter.

Run with the generated input directory as working directory and the
checkout's ``src`` on ``PYTHONPATH``.  Prints one JSON line: ``setup_s``
(import ``taxorel.cli``, load and validate the config), ``run_s`` and
``cpu_s`` of one ``run(config)`` call, the process's peak RSS and the
manifest path.  With ``--spans`` the run is traced: spans go to that file
and the counts join the JSON line.

The line also gives the time of a fixed workload that does not use
taxorel, taken in this interpreter before the set-up
(``setup_calibration_s``) and, as the mean of that and a second timing
after the peak RSS is read, around the run (``calibration_s``), so that
the caller can take out the host's speed of the moment (see ``run.py``).
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work that does not use
    taxorel: string building, dict counting, set-based graph search and a
    sort, the kinds of work the pipeline spends its time on."""
    start = time.perf_counter()
    words = [f"w{i % 4099}-{i % 13}" for i in range(100_000)]
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    graph = {i: {(i * 7 + 1) % 3001, (i * 13 + 5) % 3001} for i in range(3001)}
    for root in range(0, 3001, 100):
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(graph[node])
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--src", required=True, help="directory taxorel must come from")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    setup_calibration_s = calibrate()
    start = time.perf_counter()
    import taxorel.cli as cli

    config = cli.load_config(args.config)
    problems = cli.validate(config)
    setup_s = time.perf_counter() - start

    import taxorel

    src = Path(args.src).resolve()
    if src not in Path(taxorel.__file__).resolve().parents:
        print(f"taxorel imported from {taxorel.__file__}, not from {src}", file=sys.stderr)
        return 2
    if problems:
        print("invalid config: " + "; ".join(problems), file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "setup_calibration_s": setup_calibration_s}
    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer(args.run_id)
        spans.install(tracer)

    wall = time.perf_counter()
    cpu = time.process_time()
    manifest = cli.run(config)
    result["run_s"] = time.perf_counter() - wall
    result["cpu_s"] = time.process_time() - cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["calibration_s"] = (setup_calibration_s + calibrate()) / 2
    result["manifest"] = str(manifest)
    if tracer is not None:
        tracer.write(args.spans)
        result["counts"] = spans.counts(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
