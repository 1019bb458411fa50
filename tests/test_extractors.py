import math
import random
from itertools import combinations

import numpy as np
import pytest

from taxorel import extractors
from taxorel.contexts import (
    TermContextMatrix,
    TermSet,
    extract_document_contexts,
    extract_window_contexts,
)
from taxorel.corpus import sentence_documents
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
    context_entropies,
    weight_lmi,
    weight_ppmi,
)

from helpers import (
    corpus,
    doc,
    doc_matrix,
    oracle_average_linkage,
    random_corpus,
)


def random_vector(rng, features, min_size=1):
    size = rng.randint(min_size, len(features))
    return {f: rng.uniform(0.05, 5.0) for f in rng.sample(features, size)}


class TestDirectionalMeasures:
    def test_identical_vectors_score_one(self):
        u = {"a": 2.0, "b": 3.0}
        assert measure_weeds_prec(u, dict(u)) == 1.0
        assert measure_clarke_de(u, dict(u)) == 1.0

    def test_disjoint_supports_score_zero(self):
        u, v = {"a": 2.0}, {"b": 4.0}
        assert measure_weeds_prec(u, v) == 0.0
        assert measure_clarke_de(u, v) == 0.0

    def test_weeds_prec_hand_example(self):
        assert measure_weeds_prec({"a": 2.0, "b": 2.0}, {"a": 5.0}) == 0.5

    def test_clarke_hand_example(self):
        # (min(2,1) + min(2,4)) / (2+2) = 3/4.
        assert measure_clarke_de({"a": 2.0, "b": 2.0}, {"a": 1.0, "b": 4.0}) == 0.75

    def test_zero_vector_is_an_error(self):
        with pytest.raises(ValueError):
            measure_weeds_prec({}, {"a": 1.0})
        with pytest.raises(ValueError):
            measure_clarke_de({}, {"a": 1.0})

    def test_clarke_bounded_by_weeds(self):
        rng = random.Random(5)
        features = [f"f{i}" for i in range(8)]
        for _ in range(300):
            u = random_vector(rng, features)
            v = random_vector(rng, features)
            clarke = measure_clarke_de(u, v)
            weeds = measure_weeds_prec(u, v)
            assert 0.0 <= clarke <= weeds <= 1.0


class TestDSim:
    def test_included_support_becomes_hyponym(self):
        rows = {"u": {"a": 1.0, "b": 1.0}, "v": {"a": 1.0, "b": 1.0, "c": 1.0}}
        ppmi = TermContextMatrix(rows, np.float64)
        relset = extract_dsim(ppmi, TermSet(["u", "v"]))
        assert relset.pair_set() == {("u", "v")}

    def test_symmetric_vectors_tie_to_nothing(self):
        ppmi = TermContextMatrix({"u": {"a": 1.0}, "v": {"a": 1.0}}, np.float64)
        assert len(extract_dsim(ppmi, TermSet(["u", "v"]))) == 0

    def test_rows_of_the_same_weights_tie_on_exactly_rounded_totals(self):
        # Summed in label order, u's total is 0.6000000000000001 and v's 0.6.
        rows = {"u": {"a": 0.1, "b": 0.2, "c": 0.3}, "v": {"a": 0.3, "b": 0.2, "c": 0.1}}
        ppmi = TermContextMatrix(rows, np.float64)
        for measure in ("clarkede", "weedsprec"):
            assert len(extract_dsim(ppmi, TermSet(["u", "v"]), measure)) == 0

    def test_disjoint_supports_skipped(self):
        ppmi = TermContextMatrix({"u": {"a": 1.0}, "v": {"b": 9.0}}, np.float64)
        assert len(extract_dsim(ppmi, TermSet(["u", "v"]))) == 0

    def test_weedsprec_measure_selectable(self):
        rows = {"u": {"a": 1.0, "b": 1.0}, "v": {"a": 2.0, "b": 2.0, "c": 1.0}}
        ppmi = TermContextMatrix(rows, np.float64)
        relset = extract_dsim(ppmi, TermSet(["u", "v"]), measure="weedsprec")
        assert relset.pair_set() == {("u", "v")}
        with pytest.raises(ValueError):
            extract_dsim(ppmi, TermSet(["u"]), measure="cosine")

    def test_near_complete_pair_coverage(self):
        # Overlapping supports with distinct weights decide almost every
        # pair, so the output approaches n-choose-2.
        rng = random.Random(1)
        terms = [f"t{i}" for i in range(12)]
        rows = {
            t: {"shared": rng.uniform(0.1, 3.0), f"own{i}": 1.0}
            for i, t in enumerate(terms)
        }
        relset = extract_dsim(TermContextMatrix(rows, np.float64), TermSet(terms))
        assert len(relset) == len(terms) * (len(terms) - 1) // 2


class TestSLQS:
    def test_direction_follows_generality(self):
        lmi = TermContextMatrix({"dog": {"a": 2.0}, "animal": {"b": 2.0}}, np.float64)
        from taxorel.weighting import EntropyTable

        table = EntropyTable(raw={"a": 0.4, "b": 0.9}, normalized={"a": 0.4, "b": 0.9})
        relset = extract_slqs(lmi, table, TermSet(["dog", "animal"]))
        assert relset.pair_set() == {("dog", "animal")}

    def test_equal_generality_emits_nothing(self):
        lmi = TermContextMatrix({"u": {"a": 1.0}, "v": {"a": 1.0}}, np.float64)
        from taxorel.weighting import EntropyTable

        table = EntropyTable(raw={"a": 0.5}, normalized={"a": 0.5})
        assert len(extract_slqs(lmi, table, TermSet(["u", "v"]))) == 0

    def test_three_term_chain_matches_pipeline_oracle(self):
        # Full pipeline on a tiny matrix, verified by recomputing every
        # quantity from scratch with independent arithmetic.
        rows = {
            "general": {"c1": 4, "c2": 3, "c3": 2},
            "middle": {"c1": 2},
            "narrow": {"c3": 5},
        }
        from taxorel.contexts import ContextMatrix

        m = ContextMatrix(rows)
        lmi = weight_lmi(m)
        table = context_entropies(m)
        relset = extract_slqs(lmi, table, TermSet(["general", "middle", "narrow"]))

        # Oracle: recompute LMI, entropies, normalization and medians.
        grand = sum(sum(r.values()) for r in rows.values())
        row_tot = {t: sum(r.values()) for t, r in rows.items()}
        col_tot = {}
        for r in rows.values():
            for c, n in r.items():
                col_tot[c] = col_tot.get(c, 0) + n
        lmi_oracle = {
            t: {
                c: n * math.log(n * grand / (row_tot[t] * col_tot[c]))
                for c, n in r.items()
                if n * grand / (row_tot[t] * col_tot[c]) > 1
            }
            for t, r in rows.items()
        }
        ent = {}
        for c in col_tot:
            probs = [rows[t][c] / col_tot[c] for t in rows if c in rows[t]]
            ent[c] = -sum(p * math.log2(p) for p in probs)
        lo, hi = min(ent.values()), max(ent.values())
        norm = {c: (h - lo) / (hi - lo) if hi > lo else 0.0 for c, h in ent.items()}

        def median(xs):
            xs = sorted(xs)
            mid = len(xs) // 2
            return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2

        gen = {
            t: median([norm[c] for c in row])
            for t, row in lmi_oracle.items()
            if row
        }
        expected = set()
        for u, v in combinations(sorted(gen), 2):
            if gen[v] > gen[u]:
                expected.add((u, v))
            elif gen[u] > gen[v]:
                expected.add((v, u))
        assert relset.pair_set() == expected


class TestFrequencyExtractors:
    def test_tf_direction(self):
        m = doc_matrix({"a": {"d1": 10}, "b": {"d1": 3}})
        relset = extract_tf(m, TermSet(["a", "b"]))
        assert relset.pair_set() == {("b", "a")}

    def test_tf_tie_emits_nothing(self):
        m = doc_matrix({"a": {"d1": 4}, "b": {"d2": 4}})
        assert len(extract_tf(m, TermSet(["a", "b"]))) == 0

    def test_tf_four_term_fixture(self):
        # Frequencies 5, 3, 3, 1: C(4,2)=6 pairs minus the single tie.
        m = doc_matrix({"a": {"d": 5}, "b": {"d": 3}, "c": {"d": 3}, "x": {"d": 1}})
        relset = extract_tf(m, TermSet(["a", "b", "c", "x"]))
        assert relset.pair_set() == {
            ("b", "a"),
            ("c", "a"),
            ("x", "a"),
            ("x", "b"),
            ("x", "c"),
        }

    def test_df_direction(self):
        m = doc_matrix({"a": [f"d{i}" for i in range(5)], "b": ["d0", "d1"]})
        relset = extract_df(m, TermSet(["a", "b"]))
        assert relset.pair_set() == {("b", "a")}

    def test_df_single_document_corpus_is_empty(self):
        m = extract_document_contexts(corpus(doc("only", "dog:N cat:N dog:N")))
        assert len(extract_df(m, TermSet(["dog", "cat"]))) == 0

    def test_df_equals_tf_on_single_sentence_documents(self):
        # One sentence per document and no repeats within a sentence make
        # term frequency and document frequency coincide.
        c = corpus(
            doc("a", "dog:N cat:N", "dog:N fish:N bird:N"),
            doc("b", "cat:N fish:N", "dog:N"),
        )
        split = sentence_documents(c)
        m = extract_document_contexts(split)
        vocab = TermSet(["dog", "cat", "fish", "bird"])
        assert extract_tf(m, vocab).pair_set() == extract_df(m, vocab).pair_set()


class TestDocSub:
    def test_subset_document_sets(self):
        m = doc_matrix({"x": ["d1", "d2", "d3"], "y": ["d1", "d2"]})
        relset = extract_docsub(m, TermSet(["x", "y"]), 0.8)
        assert relset.pair_set() == {("y", "x")}

    def test_identical_document_sets_tie(self):
        m = doc_matrix({"x": ["d1", "d2"], "y": ["d1", "d2"]})
        assert len(extract_docsub(m, TermSet(["x", "y"]), 0.5)) == 0

    def test_hand_computed_threshold_sweep(self):
        # |Dx|=10, |Dy|=4, shared=3: P(x|y)=0.75, P(y|x)=0.3.
        m = doc_matrix(
            {"x": [f"d{i}" for i in range(10)], "y": ["d0", "d1", "d2", "e0"]}
        )
        vocab = TermSet(["x", "y"])
        for lam in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
            assert extract_docsub(m, vocab, lam).pair_set() == {("y", "x")}
        for lam in (0.8, 0.9, 1.0):
            assert len(extract_docsub(m, vocab, lam)) == 0

    def test_lambda_validation(self):
        m = doc_matrix({"x": ["d1"]})
        for lam in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                extract_docsub(m, TermSet(["x"]), lam)

    def test_a_bad_lambda_anywhere_in_a_sweep_raises_before_the_count(self, monkeypatch):
        counts = []
        monkeypatch.setattr(extractors, "_gram", lambda *args: counts.append(args))
        m = doc_matrix({"x": ["d1", "d2"], "y": ["d1"]})
        for lams in ([0.0, 0.5], [0.5, 0.9, 1.5], [0.2, float("nan")]):
            with pytest.raises(ValueError, match="lambda must be in"):
                docsub_sweep(m, TermSet(["x", "y"]), lams)
        assert counts == []


class TestClustering:
    def test_singletons_when_k_equals_vocab(self):
        ppmi = TermContextMatrix({"a": {"f": 1.0}, "b": {"f": 1.0}}, np.float64)
        assert cluster_terms(ppmi, TermSet(["a", "b"]), 2) == [["a"], ["b"]]

    def test_single_cluster_when_k_is_one(self):
        ppmi = TermContextMatrix({"a": {"f": 1.0}, "b": {"g": 1.0}}, np.float64)
        assert cluster_terms(ppmi, TermSet(["b", "a"]), 1) == [["a", "b"]]

    def test_two_blocks_recovered(self):
        rows = {}
        for i in range(4):
            rows[f"a{i}"] = {"fa1": 1.0 + 0.1 * i, "fa2": 2.0}
            rows[f"b{i}"] = {"fb1": 1.0 + 0.1 * i, "fb2": 2.0}
        ppmi = TermContextMatrix(rows, np.float64)
        clusters = cluster_terms(ppmi, TermSet(sorted(rows)), 2)
        assert {frozenset(c) for c in clusters} == {
            frozenset({"a0", "a1", "a2", "a3"}),
            frozenset({"b0", "b1", "b2", "b3"}),
        }

    def test_matches_exhaustive_linkage_oracle(self):
        rng = random.Random(9)
        features = [f"f{i}" for i in range(6)]
        for trial in range(20):
            rows = {
                f"t{i}": random_vector(rng, features, min_size=2) for i in range(8)
            }
            k = rng.randint(2, 7)
            got = cluster_terms(TermContextMatrix(rows, np.float64), TermSet(sorted(rows)), k)
            expected = oracle_average_linkage(rows, k)
            assert {frozenset(c) for c in got} == expected

    def test_k_validation(self):
        ppmi = TermContextMatrix({"a": {"f": 1.0}}, np.float64)
        with pytest.raises(ValueError):
            cluster_terms(ppmi, TermSet(["a"]), 0)
        with pytest.raises(ValueError):
            cluster_terms(ppmi, TermSet(["a"]), 2)

    def test_exactly_k_even_with_tied_distances(self):
        # Zero vectors put every pair at distance 1; the merge-count cut
        # must still return exactly k clusters.
        vocab = TermSet(["a", "b", "c", "d"])
        empty = TermContextMatrix({}, np.float64)
        for k in (1, 2, 3, 4):
            assert len(cluster_terms(empty, vocab, k)) == k


class TestHClust:
    def test_k_one_equals_df(self):
        c = corpus(
            doc("d1", "dog:N cat:N"),
            doc("d2", "dog:N fish:N"),
            doc("d3", "dog:N"),
        )
        window = extract_window_contexts(c, 5)
        docm = extract_document_contexts(c)
        vocab = TermSet(["dog", "cat", "fish"])
        ppmi = weight_ppmi(window) if len(window) else TermContextMatrix({}, np.float64)
        assert extract_hclust(ppmi, docm, vocab, 1).pair_set() == extract_df(
            docm, vocab
        ).pair_set()

    def test_singleton_clusters_emit_nothing(self):
        ppmi = TermContextMatrix({"a": {"f": 1.0}, "b": {"f": 1.0}}, np.float64)
        m = doc_matrix({"a": ["d1", "d2"], "b": ["d1"]})
        assert len(extract_hclust(ppmi, m, TermSet(["a", "b"]), 2)) == 0

    def test_cohyponym_cluster_directed_by_document_frequency(self):
        # Two co-occurring terms that cluster together get a relation from
        # their document counts (196 vs 149 documents).
        m = doc_matrix(
            {
                "consumer": [f"d{i}" for i in range(196)],
                "employee": [f"d{i}" for i in range(149)],
            }
        )
        rows = {"consumer": {"work": 1.0}, "employee": {"work": 1.1}}
        ppmi = TermContextMatrix(rows, np.float64)
        relset = extract_hclust(ppmi, m, TermSet(["consumer", "employee"]), 1)
        assert relset.pair_set() == {("employee", "consumer")}

    def test_output_subset_of_df(self):
        rng = random.Random(13)
        for seed in range(5):
            c = random_corpus(random.Random(seed))
            window = extract_window_contexts(c, 5)
            docm = extract_document_contexts(c)
            terms = sorted(docm.terms())
            if len(terms) < 3:
                continue
            vocab = TermSet(terms)
            ppmi = weight_ppmi(window)
            df_pairs = extract_df(docm, vocab).pair_set()
            k = rng.randint(1, len(terms))
            assert extract_hclust(ppmi, docm, vocab, k).pair_set() <= df_pairs


class TestExtractorProperties:
    def _fixtures(self, seed):
        c = random_corpus(random.Random(seed))
        window = extract_window_contexts(c, 5)
        docm = extract_document_contexts(c)
        terms = sorted(docm.terms())
        vocab = TermSet(terms)
        return window, docm, vocab

    def _all_relsets(self, window, docm, vocab, k=3):
        ppmi = weight_ppmi(window)
        lmi = weight_lmi(window)
        table = context_entropies(window)
        yield extract_dsim(ppmi, vocab)
        yield extract_slqs(lmi, table, vocab)
        yield extract_tf(docm, vocab)
        yield extract_df(docm, vocab)
        yield extract_docsub(docm, vocab, 0.3)
        yield extract_hclust(ppmi, docm, vocab, min(k, len(vocab)))

    def test_antisymmetry(self):
        for seed in range(8):
            window, docm, vocab = self._fixtures(seed)
            if len(vocab) < 2 or not len(window):
                continue
            for relset in self._all_relsets(window, docm, vocab):
                pairs = relset.pair_set()
                assert not any((b, a) in pairs for a, b in pairs)

    def test_scale_invariance(self):
        for seed in range(6):
            window, docm, vocab = self._fixtures(seed)
            if len(vocab) < 2 or not len(window):
                continue
            original = [r.pair_set() for r in self._all_relsets(window, docm, vocab)]
            scaled = [
                r.pair_set()
                for r in self._all_relsets(window.scaled(3), docm.scaled(3), vocab)
            ]
            assert original == scaled
