"""Parameter names that the benchmark's tracer reads by name.

``bench/spans.py`` binds the arguments of each traced call with
``inspect.signature`` and takes some of them by parameter name to count
what a run did.  Renaming one of these parameters would break only the
traced benchmark runs, so the names are pinned here.
"""

import inspect

import pytest

from taxorel import evaluation, extractors, patterns, taxonomy

BOUND_BY_NAME = [
    (patterns.extract_patterns, "corpus"),
    (evaluation.evaluate, "o_t"),
    (evaluation.evaluate, "gold"),
    (taxonomy.break_cycles, "t"),
    (taxonomy.transitive_reduction, "t"),
    *(
        (getattr(extractors, f"extract_{method}"), "vocab")
        for method in ("dsim", "slqs", "tf", "df", "docsub", "hclust")
    ),
]


@pytest.mark.parametrize(
    "function, name",
    BOUND_BY_NAME,
    ids=[f"{f.__name__}-{name}" for f, name in BOUND_BY_NAME],
)
def test_traced_function_keeps_its_parameter_name(function, name):
    assert name in inspect.signature(function).parameters
