"""Property tests: the sparse-matrix weights and extractors against the
per-cell and per-pair oracles of ``helpers``."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxorel.cli import DEFAULT_LAMBDAS
from taxorel.contexts import ContextMatrix, TermSet
from taxorel.extractors import (
    cluster_terms,
    docsub_sweep,
    extract_df,
    extract_docsub,
    extract_dsim,
    extract_hclust,
    extract_slqs,
    extract_tf,
    measure_clarke_de,
    measure_weeds_prec,
)
from taxorel.weighting import (
    EntropyTable,
    WeightedMatrix,
    context_entropies,
    weight_lmi,
    weight_ppmi,
)

from helpers import (
    oracle_docsub_pairs,
    oracle_dsim_pairs,
    oracle_entropies,
    oracle_frequency_pairs,
    oracle_hclust_pairs,
    oracle_slqs_pairs,
    oracle_weights,
)

TERMS = [f"t{i}" for i in range(6)]
CONTEXTS = [f"c{i}" for i in range(6)]

# Small counts and few labels, so that equal rows, equal totals and equal
# entropies come up often.
matrices = st.dictionaries(
    st.sampled_from(TERMS),
    st.dictionaries(st.sampled_from(CONTEXTS), st.integers(1, 4), max_size=5),
    min_size=1,
).filter(lambda rows: any(rows.values()))

EXACT_TIES = {"t0": {"c0": 1, "c1": 2}, "t1": {"c0": 1, "c1": 2}, "t2": {"c1": 1, "c2": 1}}
EMPTY_ROWS = {"t0": {}, "t1": {"c0": 2}, "t2": {"c0": 1, "c1": 1}, "t3": {}}
ONE_TERM_CONTEXT = {"t0": {"c0": 5}, "t1": {"c1": 1, "c2": 3}, "t2": {"c1": 2, "c2": 1}}
ALL_EQUAL_ENTROPIES = {"t0": {"c0": 1}, "t1": {"c1": 2}, "t2": {"c2": 3}}
# Columns a and b hold the counts 1, 2, 3 in two term orders; summed in term
# order their entropies differ in the last bit.
PERMUTED_COUNTS = {"t0": {"a": 1, "b": 1}, "t1": {"a": 2, "b": 3}, "t2": {"a": 3, "b": 2}}
# t1 and t2 carry the same PPMI weights under different labels: their totals
# are equal, but summed in label order they differ in the last bit, so the
# pair's direction depends on the summation order.
PERMUTED_WEIGHTS = {
    "t0": {"c0": 1},
    "t1": {"c0": 1, "c1": 1, "c3": 3, "c4": 3},
    "t2": {"c0": 1, "c3": 3, "c4": 3, "c5": 1},
}


def with_examples(test):
    for rows in (
        EXACT_TIES,
        EMPTY_ROWS,
        ONE_TERM_CONTEXT,
        ALL_EQUAL_ENTROPIES,
        PERMUTED_COUNTS,
        PERMUTED_WEIGHTS,
    ):
        test = example(rows=rows)(test)
    return settings(max_examples=150, deadline=None)(test)


def close(got: dict, expected: dict) -> bool:
    return got.keys() == expected.keys() and all(
        got[k] == pytest.approx(v, rel=1e-12, abs=0) for k, v in expected.items()
    )


@with_examples
@given(rows=matrices)
def test_weights_and_entropies_match_the_oracles(rows):
    m = ContextMatrix(rows, 5)
    for local, weighted in ((False, weight_ppmi(m)), (True, weight_lmi(m))):
        expected = oracle_weights(rows, local)
        assert weighted.terms() == sorted(expected)
        assert all(close(weighted.row(t), expected[t]) for t in expected)
    table = context_entropies(m)
    raw, normalized = oracle_entropies(rows)
    assert close(table.raw, raw)
    assert close(table.normalized, normalized)


def test_entropy_does_not_depend_on_term_order():
    table = context_entropies(ContextMatrix(PERMUTED_COUNTS))
    assert table.raw["a"] == table.raw["b"]


@with_examples
@given(rows=matrices)
def test_extractor_pairs_match_the_oracles(rows):
    vocab = TermSet(TERMS)
    ppmi, lmi = oracle_weights(rows, False), oracle_weights(rows, True)
    raw, normalized = oracle_entropies(rows)
    ppmi_matrix = WeightedMatrix("ppmi", ppmi)
    for measure, definition in (("clarkede", measure_clarke_de), ("weedsprec", measure_weeds_prec)):
        relset = extract_dsim(ppmi_matrix, vocab, measure)
        assert relset.pair_set() == oracle_dsim_pairs(ppmi, vocab, measure)
        for (hypo, hyper), score in zip(sorted(relset.pair_set()), relset.scores):
            expected = definition(ppmi[hypo], ppmi[hyper])
            assert score == pytest.approx(expected, rel=1e-12)
    table = EntropyTable(raw=raw, normalized=normalized)
    for top_n in (1, 2, 50):
        got = extract_slqs(WeightedMatrix("lmi", lmi), table, vocab, top_n).pair_set()
        assert got == oracle_slqs_pairs(lmi, normalized, vocab, top_n)

    docm = ContextMatrix(rows)
    assert extract_tf(docm, vocab).pair_set() == oracle_frequency_pairs(rows, vocab, False)
    assert extract_df(docm, vocab).pair_set() == oracle_frequency_pairs(rows, vocab, True)
    for lam in DEFAULT_LAMBDAS:
        assert extract_docsub(docm, vocab, lam).pair_set() == oracle_docsub_pairs(rows, vocab, lam)
    for k in range(1, len(vocab) + 1):
        clusters = cluster_terms(ppmi_matrix, vocab, k)
        got = extract_hclust(ppmi_matrix, docm, vocab, k).pair_set()
        assert got == oracle_hclust_pairs(rows, vocab, clusters)


# Lambdas at the shares that counts of 1 to 5 documents make, where ">="
# decides, and any other value in (0, 1].
lambdas = st.lists(
    st.sampled_from([1 / 5, 1 / 4, 1 / 3, 0.4, 1 / 2, 0.6, 2 / 3, 3 / 4, 0.8, 1.0])
    | st.floats(0, 1, exclude_min=True),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(rows=matrices, lams=lambdas)
@example(rows=EXACT_TIES, lams=[0.5, 1.0, 0.5])
@example(rows=EMPTY_ROWS, lams=[1.0, 0.1])
@example(rows=EMPTY_ROWS, lams=[])
def test_docsub_sweep_equals_each_lambda_alone_and_the_oracle(rows, lams):
    docm, vocab = ContextMatrix(rows), TermSet(TERMS)
    sweep = docsub_sweep(docm, vocab, lams)
    assert len(sweep) == len(lams)
    for lam, relset in zip(lams, sweep):
        alone = extract_docsub(docm, vocab, lam)
        assert relset == alone and relset.scores == alone.scores
        assert relset.pair_set() == oracle_docsub_pairs(rows, vocab, lam)
        for (hypo, hyper), score in zip(sorted(relset.pair_set()), relset.scores):
            hypo_docs, hyper_docs = set(rows[hypo]), set(rows[hyper])
            assert score == len(hypo_docs & hyper_docs) / len(hypo_docs)
