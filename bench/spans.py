"""Spans around the public functions of the taxorel modules.

The program is not edited: :func:`install` replaces, in every ``taxorel``
module, each attribute bound to a traced function with one wrapper that
records a span.  Rebinding every attribute matters because ``cli`` imports
names directly, ``extractors`` re-exports ``extract_patterns`` and
``relative_precision`` reaches ``evaluate`` through its module globals.
Calls made through containers (such as ``extractors._MEASURE_FN``) and
private helpers stay untraced; their time is the caller's self time.

A span is ``(id, name, start, end, parent id, run id)``; spans of one
pipeline run share the tracer's run id.  They are kept in memory and
written out once the run ends.  Arguments and results of the functions in
``COUNTERS`` are kept as well and counted only after the run, so no count
is taken inside any span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
import types
from collections import defaultdict
from math import comb
from pathlib import Path
from typing import NamedTuple

# Called once per token or per sort key: a span each would cost more than
# the work it measures, so their time stays in the caller's self time.
PER_ITEM = frozenset({"corpus.coarse_pos", "contexts.context_label"})

EXTRACTORS = ("dsim", "slqs", "tf", "df", "docsub", "hclust")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str = ""


class Tracer:
    """Records the spans of one pipeline run in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.calls: list[tuple[str, tuple, dict, object]] = []
        self.signatures: dict[str, inspect.Signature] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        open_ids = self._open
        spans = self.spans
        run_id = self.run_id
        keep = self.calls if name in COUNTERS else None
        self.signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(open_ids)
            parent = open_ids[-1] if open_ids else None
            open_ids.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_ids.pop()
                spans.append(Span(span_id, name, start, end, parent, run_id))
            if keep is not None:
                keep.append((name, args, kwargs, result))
            return result

        return traced

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": [list(s) for s in self.spans]}),
            encoding="utf-8",
        )


def install(tracer: Tracer) -> None:
    """Wrap every public module-level function of the taxorel package and
    rebind each module attribute bound to one of them."""
    import taxorel

    modules = [taxorel] + [
        importlib.import_module(f"taxorel.{info.name}")
        for info in pkgutil.iter_modules(taxorel.__path__)
    ]
    wrappers = {}
    for module in modules[1:]:
        for attr, value in vars(module).items():
            name = f"{module.__name__.rpartition('.')[2]}.{attr}"
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and value.__qualname__ == attr
                and not attr.startswith("_")
                and name not in PER_ITEM
            ):
                wrappers[value] = tracer.wrap(name, value)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])


# ---------------------------------------------------------------------------
# counts, taken from kept arguments and results after the run


def _nnz(matrix) -> int:
    return sum(len(matrix.row(t)) for t in matrix.terms())


def _edges_removed(args, result) -> int:
    return args.arguments["t"].num_edges - result.num_edges


def _extractor_counter(method: str):
    prefix = f"extractors.extract_{method}"

    def count(args, result):
        n = len(args.arguments["vocab"])
        return {
            f"{prefix}.relations": len(result),
            f"{prefix}.pairs": comb(n, 2),
            f"{prefix}.calls": 1,
        }

    return count


COUNTERS = {
    "corpus.load_corpus": lambda a, r: {
        "corpus.tokens": sum(len(s) for d in r.documents for s in d.sentences)
    },
    "corpus.corpus_stats": lambda a, r: {"corpus.documents": r.num_documents},
    "gold.load_gold": lambda a, r: {"gold.synsets": len(r)},
    "contexts.extract_window_contexts": lambda a, r: {"contexts.window_nnz": _nnz(r)},
    "contexts.extract_document_contexts": lambda a, r: {"contexts.document_nnz": _nnz(r)},
    "weighting.weight_ppmi": lambda a, r: {"weighting.ppmi_nnz": _nnz(r)},
    "patterns.extract_patterns": lambda a, r: {
        "patterns.sentences": sum(len(d.sentences) for d in a.arguments["corpus"].documents),
        "patterns.relations": len(r),
    },
    "taxonomy.break_cycles": lambda a, r: {
        "taxonomy.cycle_edges_removed": _edges_removed(a, r)
    },
    "taxonomy.transitive_reduction": lambda a, r: {
        "taxonomy.reduction_edges_removed": _edges_removed(a, r)
    },
    "evaluation.evaluate": lambda a, r: {
        "evaluation.evaluate.calls": 1,
        "evaluation.evaluate.shared_terms": sum(
            1 for t in a.arguments["o_t"].nodes if a.arguments["gold"].contains_term(t)
        ),
    },
    "cli.run": lambda a, r: {
        "cli.output_bytes": sum(
            (r.parent / name).stat().st_size
            for name in json.loads(r.read_text(encoding="utf-8"))["outputs"]
        )
        + r.stat().st_size
    },
    **{f"extractors.extract_{m}": _extractor_counter(m) for m in EXTRACTORS},
}


def counts(tracer: Tracer) -> dict[str, int]:
    """Sum the counters over every kept call."""
    totals: dict[str, int] = defaultdict(int)
    for name, args, kwargs, result in tracer.calls:
        bound = tracer.signatures[name].bind(*args, **kwargs)
        for key, value in COUNTERS[name](bound, result).items():
            totals[key] += value
    return dict(totals)


# ---------------------------------------------------------------------------
# time, derived from the spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def function_times(spans: list[Span]) -> dict[str, float]:
    """``<fn>.s`` (wall time in calls, outermost call of a name only),
    ``<fn>.self_s`` and ``<module>.self_s`` for every span name seen."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[f"{s.name}.self_s"] += own[s.id]
        out[f"{s.name.split('.', 1)[0]}.self_s"] += own[s.id]
        parent = s.parent
        while parent is not None and by_id[parent].name != s.name:
            parent = by_id[parent].parent
        if parent is None:
            out[f"{s.name}.s"] += s.end - s.start
    return dict(out)


def load_spans(path: str | Path) -> list[Span]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Span(*s) for s in data["spans"]]
