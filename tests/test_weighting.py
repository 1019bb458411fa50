import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxorel.contexts import ContextMatrix, TermContextMatrix, extract_window_contexts
from taxorel.corpus import load_corpus
from taxorel.weighting import (
    EntropyTable,
    context_entropies,
    weight_lmi,
    weight_ppmi,
    word_generalities,
)

from helpers import oracle_generalities, oracle_weights, outcome
from test_cli import write_fixture


def matrix(rows):
    return ContextMatrix(rows)


class TestPPMI:
    def test_independent_pair_is_zero(self):
        # Uniform 2x2 counts: every cell has PMI log(1) = 0, clamped away.
        m = matrix({"t1": {"c1": 1, "c2": 1}, "t2": {"c1": 1, "c2": 1}})
        w = weight_ppmi(m)
        assert w.row("t1") == {} and w.row("t2") == {}

    def test_hand_computed_two_by_two(self):
        # p(t1,c1)=8/20, p(t1)=p(c1)=1/2 -> PMI = ln(0.4/0.25) = ln 1.6.
        m = matrix({"t1": {"c1": 8, "c2": 2}, "t2": {"c1": 2, "c2": 8}})
        w = weight_ppmi(m)
        assert w.row("t1")["c1"] == pytest.approx(math.log(1.6))
        assert w.row("t2")["c2"] == pytest.approx(math.log(1.6))

    def test_negative_pmi_clamped(self):
        m = matrix({"t1": {"c1": 8, "c2": 2}, "t2": {"c1": 2, "c2": 8}})
        w = weight_ppmi(m)
        assert "c2" not in w.row("t1")  # PMI = ln 0.4 < 0
        assert "c1" not in w.row("t2")

    def test_scale_invariance(self):
        m = matrix({"t1": {"c1": 3, "c2": 1}, "t2": {"c2": 5}})
        scaled = m.scaled(3)
        w1, w2 = weight_ppmi(m), weight_ppmi(scaled)
        assert {t: w1.row(t) for t in w1.terms()} == {t: w2.row(t) for t in w2.terms()}


def fixture_window_matrix(tmp_path):
    corpus_dir, _ = write_fixture(tmp_path)
    return extract_window_contexts(load_corpus(corpus_dir, "EN"))


@pytest.mark.parametrize(
    "counts",
    [
        fixture_window_matrix,
        # t1 and t2 each lose a cell of negative PMI, t3 its whole row of PMI 0.
        lambda _: matrix(
            {"t1": {"c1": 8, "c2": 2}, "t2": {"c1": 2, "c2": 8}, "t3": {"c1": 1, "c2": 1}}
        ),
    ],
    ids=["fixture-window", "dropped-cells"],
)
def test_both_weightings_are_plain_matrices_of_the_positive_pmi_cells(tmp_path, counts):
    m = counts(tmp_path)
    ppmi, lmi = weight_ppmi(m), weight_lmi(m)
    assert type(ppmi) is TermContextMatrix and type(lmi) is TermContextMatrix
    assert ppmi.term_labels == lmi.term_labels
    assert np.array_equal(ppmi.csr.indices, lmi.csr.indices)
    assert np.array_equal(ppmi.csr.indptr, lmi.csr.indptr)
    positive = oracle_weights({t: m.row(t) for t in m.terms()}, local=False)
    cells = {t: sorted(r) for t, r in positive.items()}
    assert {t: sorted(ppmi.row(t)) for t in ppmi.terms()} == cells


class TestLMI:
    def test_count_times_pmi(self):
        # Same marginals as the PPMI fixture scaled down: PMI(t1,c1)=ln 1.6.
        m = matrix({"t1": {"c1": 4, "c2": 1}, "t2": {"c1": 1, "c2": 4}})
        w = weight_lmi(m)
        assert w.row("t1")["c1"] == pytest.approx(4 * math.log(1.6))

    def test_independent_and_negative_are_dropped(self):
        m = matrix({"t1": {"c1": 1, "c2": 1}, "t2": {"c1": 1, "c2": 1}})
        assert len(weight_lmi(m)) == 0
        m = matrix({"t1": {"c1": 8, "c2": 2}, "t2": {"c1": 2, "c2": 8}})
        assert "c2" not in weight_lmi(m).row("t1")

    def test_empty_matrix_is_an_error(self):
        with pytest.raises(ValueError):
            weight_lmi(matrix({}))


class TestContextEntropies:
    def test_single_term_context_is_zero(self):
        table = context_entropies(matrix({"t1": {"c1": 7}, "t2": {"c2": 1, "c3": 1}}))
        assert table.raw["c1"] == 0.0

    def test_uniform_context_is_log2_k(self):
        rows = {f"t{i}": {"c": 1} for i in range(8)}
        rows["t0"]["solo"] = 1
        table = context_entropies(matrix(rows))
        assert table.raw["c"] == pytest.approx(3.0)  # log2 8

    def test_hand_computed_three_one_split(self):
        table = context_entropies(matrix({"t1": {"c": 3}, "t2": {"c": 1, "d": 1}}))
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert table.raw["c"] == pytest.approx(expected)
        assert expected == pytest.approx(0.8113, abs=1e-4)

    def test_normalization_spans_unit_interval(self):
        rows = {
            "t1": {"a": 1, "b": 1, "c": 3},
            "t2": {"b": 1, "c": 1},
            "t3": {"c": 4},
        }
        table = context_entropies(matrix(rows))
        values = table.normalized.values()
        assert min(values) == 0.0 and max(values) == 1.0

    def test_all_equal_entropies_normalize_to_zero(self):
        table = context_entropies(matrix({"t1": {"a": 1}, "t2": {"b": 1}}))
        assert set(table.normalized.values()) == {0.0}


class TestWordGenerality:
    def entropy_table(self, normalized):
        return EntropyTable(raw=dict(normalized), normalized=dict(normalized))

    def test_median_of_singleton(self):
        lmi = TermContextMatrix({"w": {"a": 1.0}}, np.float64)
        assert word_generalities(lmi, self.entropy_table({"a": 0.7}), ["w"])["w"] == 0.7

    def test_median_of_odd_list(self):
        lmi = TermContextMatrix({"w": {"a": 3.0, "b": 2.0, "c": 1.0}}, np.float64)
        table = self.entropy_table({"a": 0.2, "b": 0.4, "c": 0.9})
        assert word_generalities(lmi, table, ["w"])["w"] == 0.4

    def test_median_of_even_list_averages_middle_pair(self):
        lmi = TermContextMatrix({"w": {"a": 3.0, "b": 2.0}}, np.float64)
        table = self.entropy_table({"a": 0.2, "b": 0.4})
        assert word_generalities(lmi, table, ["w"])["w"] == pytest.approx(0.3)

    def test_top_n_limits_contexts(self):
        lmi = TermContextMatrix({"w": {"a": 3.0, "b": 2.0, "c": 1.0}}, np.float64)
        table = self.entropy_table({"a": 0.9, "b": 0.1, "c": 0.0})
        assert word_generalities(lmi, table, ["w"], top_n=2)["w"] == pytest.approx(0.5)

    def test_lmi_ties_break_on_context_label(self):
        lmi = TermContextMatrix({"w": {"b": 1.0, "a": 1.0, "c": 1.0}}, np.float64)
        table = self.entropy_table({"a": 0.0, "b": 1.0, "c": 0.5})
        # Top-2 by (weight, label) is {a, b}; median = 0.5.
        assert word_generalities(lmi, table, ["w"], top_n=2)["w"] == pytest.approx(0.5)

    def test_no_contexts_is_an_error(self):
        lmi = TermContextMatrix({}, np.float64)
        with pytest.raises(KeyError):
            word_generalities(lmi, self.entropy_table({}), ["w"])["w"]
        with pytest.raises(ValueError):
            word_generalities(lmi, self.entropy_table({}), ["w"], top_n=0)

    def test_monotone_in_context_entropy(self):
        rng = random.Random(3)
        for _ in range(50):
            ents = [rng.random() for _ in range(5)]
            weights = {f"c{i}": 5.0 - i for i in range(5)}
            lmi = TermContextMatrix({"w": weights}, np.float64)
            base = word_generalities(
                lmi, self.entropy_table({f"c{i}": e for i, e in enumerate(ents)}), ["w"]
            )["w"]
            bumped = list(ents)
            i = rng.randrange(5)
            bumped[i] = min(1.0, bumped[i] + rng.random())
            higher = word_generalities(
                lmi, self.entropy_table({f"c{i}": e for i, e in enumerate(bumped)}), ["w"]
            )["w"]
            assert higher >= base - 1e-12

    def test_bulk_generalities_skip_undefined(self):
        lmi = TermContextMatrix({"w": {"a": 1.0}}, np.float64)
        table = self.entropy_table({"a": 0.5})
        out = word_generalities(lmi, table, ["w", "unknown"])
        assert out == {"w": 0.5}

    # Terms t1..t3 may be stored; t0 and t4 never are.  Few distinct
    # weights make ties under different labels common.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        rows=st.dictionaries(
            st.sampled_from(["t1", "t2", "t3"]),
            st.dictionaries(st.sampled_from("abcdef"), st.sampled_from([0.5, 1.0, 2.5])),
        ),
        entropies=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        top_n=st.integers(1, 7),
    )
    # The top 3 of t1 cut the tie of b, c and d after c, in label order; t2
    # ties under labels given out of order and has an even-length median.
    @example(
        rows={"t1": {"a": 2.5, "d": 1.0, "c": 1.0, "b": 1.0}, "t2": {"f": 1.0, "e": 1.0}},
        entropies=[0.1, 0.9, 0.8, 0.2, 0.2, 0.4],
        top_n=3,
    )
    def test_generalities_match_the_per_term_oracle(self, rows, entropies, top_n):
        normalized = dict(zip("abcdef", entropies))
        table = self.entropy_table(normalized)
        terms = ["t0", "t1", "t2", "t3", "t4"]
        got = word_generalities(TermContextMatrix(rows, np.float64), table, terms, top_n)
        assert got == oracle_generalities(rows, normalized, terms, top_n)


class TestPipelineInvariants:
    def test_weights_zero_exactly_where_pmi_nonpositive(self):
        rng = random.Random(11)
        rows = {
            f"t{i}": {f"c{j}": rng.randint(1, 9) for j in rng.sample(range(6), 3)}
            for i in range(5)
        }
        m = matrix(rows)
        ppmi, lmi = weight_ppmi(m), weight_lmi(m)
        for t in m.terms():
            assert ppmi.row(t).keys() == lmi.row(t).keys()
            for key, weight in ppmi.row(t).items():
                assert weight > 0
                assert lmi.row(t)[key] == pytest.approx(m.row(t)[key] * weight)

    def test_entropies_scale_invariant(self):
        m = matrix({"t1": {"c1": 3, "c2": 1}, "t2": {"c1": 1, "c2": 5}})
        t1 = context_entropies(m)
        t2 = context_entropies(m.scaled(3))
        assert t1.raw == pytest.approx(t2.raw)
        assert t1.normalized == pytest.approx(t2.normalized)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: context_entropies(ContextMatrix({})),
            (ValueError, "matrix has no contexts"),
            id="entropies-of-an-empty-matrix",
        ),
    ],
)
def test_rarely_run_paths_keep_their_behaviour(call, expected):
    assert outcome(call) == expected
