"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from contextlib import contextmanager

import pytest

from taxorel.contexts import TermSet, extract_document_contexts, extract_window_contexts
from taxorel.corpus import Corpus, Document, TaggedToken, sentence_documents
from taxorel.evaluation import common_relations, complementarity, evaluate
from taxorel.extractors import (
    extract_df,
    extract_docsub,
    extract_dsim,
    extract_hclust,
    extract_slqs,
    extract_tf,
    measure_clarke_de,
    measure_weeds_prec,
)
from taxorel.gold import GoldTaxonomy, Synset
from taxorel.relations import RelationSet
from taxorel.taxonomy import (
    Taxonomy,
    best_parent_filter,
    build_taxonomy,
    compute_metrics,
    transitive_reduction,
)
from taxorel.weighting import context_entropies, weight_lmi, weight_ppmi

from helpers import (
    car_taxonomy_and_gold,
    diamond_dag,
    doc_matrix,
    inverted,
    two_tree_forest,
    oracle_closure,
    oracle_evaluate,
    oracle_reduction,
    random_corpus,
    random_dag,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {label}: FAIL")
        raise
    print(f"[criterion {number:02d}] {label}: PASS")


def test_criterion_01_window_context_golden():
    with criterion(1, "window contexts of the energetic-dog sentence"):
        start = time.perf_counter()
        sentence = (
            TaggedToken("The", "the", "OTHER"),
            TaggedToken("energetic", "energetic", "ADJ"),
            TaggedToken("dog", "dog", "NOUN"),
            TaggedToken("barked", "barked", "VERB"),
            TaggedToken(".", ".", "OTHER"),
        )
        corpus = Corpus("EN", (Document("d1", (sentence,)),))
        matrix = extract_window_contexts(corpus, 5)
        row = {label: count for label, count in matrix.row("dog").items()}
        assert row == {"energetic-j-l": 1, "barked-v-r": 1}
        assert matrix.terms() == ["dog"]
        assert time.perf_counter() - start < 1.0


def test_criterion_02_hierarchy_metrics_golden():
    with criterion(2, "hierarchy metrics of the 17-node two-tree fixture"):
        m = compute_metrics(two_tree_forest())
        assert m.total_terms == 17
        assert m.total_roots == 2
        assert m.max_depth == 6
        assert m.min_depth == 1
        assert m.avg_depth == pytest.approx(14.5)
        assert m.depth_cohesion == pytest.approx(0.41, abs=0.005)
        assert m.max_width == 4
        assert m.min_width == 1
        assert m.avg_width == pytest.approx(1.61, abs=0.005)


def test_criterion_03_transitive_reduction_golden():
    with criterion(3, "reduction of the diamond digraph removes A/B/C->F"):
        original = diamond_dag()
        reduced = transitive_reduction(original)
        assert original.edge_set() - reduced.edge_set() == {
            ("A", "F"),
            ("B", "F"),
            ("C", "F"),
        }
        assert oracle_closure(original.nodes, original.edge_set()) == oracle_closure(
            reduced.nodes, reduced.edge_set()
        )


def test_criterion_04_common_relations_golden():
    with criterion(4, "common relations of 'car' against the gold fragment"):
        extracted, gold = car_taxonomy_and_gold()
        assert common_relations("car", extracted, gold) == {
            ("vehicle", "car"),
            ("car", "cab"),
            ("car", "tram"),
        }


def test_criterion_05_reduction_oracle_equivalence():
    with criterion(5, "reduction equals remove-and-test oracle on 200 DAGs"):
        start = time.perf_counter()
        rng = random.Random(20240501)
        for _ in range(200):
            dag = random_dag(rng, max_nodes=12)
            assert transitive_reduction(dag).edge_set() == oracle_reduction(
                dag.edge_set()
            )
        assert time.perf_counter() - start < 10.0


def test_criterion_06_evaluation_oracle_equivalence():
    with criterion(6, "evaluation equals exhaustive enumeration on 100 pairs"):
        rng = random.Random(7081500)
        checked = 0
        while checked < 100:
            terms = [f"t{i}" for i in range(rng.randint(2, 8))]
            edges = set()
            for _ in range(rng.randint(1, 12)):
                a, b = rng.sample(terms, 2)
                edges.add((a, b))
            taxo = Taxonomy(edges)
            order = [t for t in terms if rng.random() < 0.85] or terms[:1]
            rng.shuffle(order)
            synsets = []
            for i in range(len(order)):
                hypers = {j for j in range(i) if rng.random() < 0.4}
                synsets.append(Synset(i, frozenset([order[i]]), frozenset(hypers)))
            gold = GoldTaxonomy(synsets)
            report = evaluate(taxo, gold)
            oracle = oracle_evaluate(taxo, gold)
            assert (report.precision, report.recall, report.fmeasure) == oracle[:3]
            assert (
                report.common_count,
                report.extracted_count,
                report.gold_count,
            ) == oracle[3:]
            checked += 1


def test_criterion_07_measure_properties():
    with criterion(7, "directional measures on 1000 random vector pairs"):
        rng = random.Random(424242)
        features = [f"f{i}" for i in range(10)]
        for _ in range(1000):
            u = {
                f: rng.uniform(0.01, 4.0)
                for f in rng.sample(features, rng.randint(1, len(features)))
            }
            v = {
                f: rng.uniform(0.01, 4.0)
                for f in rng.sample(features, rng.randint(0, len(features)))
            }
            clarke = measure_clarke_de(u, v)
            weeds = measure_weeds_prec(u, v)
            assert 0.0 <= clarke <= 1.0
            assert 0.0 <= weeds <= 1.0
            assert clarke <= weeds
            assert measure_clarke_de(u, dict(u)) == 1.0
            assert measure_weeds_prec(u, dict(u)) == 1.0
            disjoint = {f"z{i}": 1.0 for i in range(3)}
            assert measure_clarke_de(u, disjoint) == 0.0
            assert measure_weeds_prec(u, disjoint) == 0.0


def _statistical_relsets(window, docm, vocab):
    ppmi = weight_ppmi(window)
    lmi = weight_lmi(window)
    table = context_entropies(window)
    return [
        extract_dsim(ppmi, vocab),
        extract_slqs(lmi, table, vocab),
        extract_tf(docm, vocab),
        extract_df(docm, vocab),
        extract_docsub(docm, vocab, 0.3),
        extract_hclust(ppmi, docm, vocab, min(3, len(vocab))),
    ]


def test_criterion_08_antisymmetry_and_scale_invariance():
    with criterion(8, "statistical extractors: antisymmetry and x3 scaling"):
        tested = 0
        seed = 0
        while tested < 6:
            seed += 1
            corpus = random_corpus(random.Random(seed))
            window = extract_window_contexts(corpus, 5)
            docm = extract_document_contexts(corpus)
            if len(docm) < 3 or len(window) == 0:
                continue
            vocab = TermSet(sorted(docm.terms()))
            relsets = _statistical_relsets(window, docm, vocab)
            for relset in relsets:
                pairs = relset.pair_set()
                assert not any((b, a) in pairs for a, b in pairs)
            scaled = _statistical_relsets(window.scaled(3), docm.scaled(3), vocab)
            assert [r.pair_set() for r in relsets] == [r.pair_set() for r in scaled]
            tested += 1


def test_criterion_09_reduction_properties():
    with criterion(9, "hclust(k=1) = df; single-sentence documents make df = tf"):
        rng = random.Random(77)
        tested = 0
        seed = 0
        while tested < 5:
            seed += 1
            corpus = random_corpus(random.Random(seed))
            window = extract_window_contexts(corpus, 5)
            docm = extract_document_contexts(corpus)
            if len(docm) < 2 or len(window) == 0:
                continue
            vocab = TermSet(sorted(docm.terms()))
            assert (
                extract_hclust(weight_ppmi(window), docm, vocab, 1).pair_set()
                == extract_df(docm, vocab).pair_set()
            )
            tested += 1

        # Pseudo-documents of one sentence each, no term repeated within a
        # sentence: term and document frequency coincide exactly.
        pool = [f"w{i}" for i in range(9)]
        documents = []
        for d in range(6):
            sentences = []
            for _ in range(rng.randint(1, 3)):
                words = rng.sample(pool, rng.randint(2, 6))
                sentences.append(
                    tuple(TaggedToken(w, w, "NOUN") for w in words)
                )
            documents.append(Document(f"d{d}", tuple(sentences)))
        corpus = sentence_documents(Corpus("EN", tuple(documents)))
        docm = extract_document_contexts(corpus)
        vocab = TermSet(sorted(docm.terms()))
        assert extract_tf(docm, vocab).pair_set() == extract_df(docm, vocab).pair_set()


def test_criterion_10_complementarity_arithmetic():
    with criterion(10, "complementarity ratios and the 4014/15797 cell"):
        a = RelationSet("patt", [(f"x{i}", f"y{i}") for i in range(15797)])
        direct, inverse = complementarity(a, a)
        assert direct == 1.0 and inverse == 0.0
        direct, inverse = complementarity(a, inverted(a))
        assert direct == 0.0 and inverse == 1.0
        b = RelationSet("dsim", [(f"x{i}", f"y{i}") for i in range(4014)])
        direct, _ = complementarity(a, b)
        assert direct == pytest.approx(0.2541, abs=1e-4)


def test_criterion_11_best_parent_filter():
    with criterion(11, "single-parent filter: scores, in-degree, recall"):
        # Hand-built scoring example: 0.6 for p1 vs 0.3 + 1*0.5 for p2.
        taxo = Taxonomy([("p1", "x"), ("p2", "x"), ("a", "p2")])
        docm = doc_matrix(
            {
                "x": [f"d{i}" for i in range(10)],
                "p1": [f"d{i}" for i in range(6)],
                "p2": [f"d{i}" for i in range(3)],
                "a": [f"d{i}" for i in range(5)],
            }
        )
        filtered = best_parent_filter(taxo, docm)
        assert filtered.parents("x") == {"p2"}

        rng = random.Random(5150)
        for _ in range(20):
            dag = random_dag(rng, 9)
            if not dag.nodes:
                continue
            docs = {
                n: {f"d{rng.randrange(10)}" for _ in range(rng.randint(1, 5))}
                for n in dag.nodes
            }
            matrix = doc_matrix(docs)
            filtered = best_parent_filter(dag, matrix)
            assert all(len(filtered.parents(n)) <= 1 for n in filtered.nodes)
            assert filtered.edge_set() <= dag.edge_set()
            assert filtered.nodes == dag.nodes

            terms = sorted(dag.nodes)
            synsets = [
                Synset(
                    i,
                    frozenset([t]),
                    frozenset({j for j in range(i) if rng.random() < 0.3}),
                )
                for i, t in enumerate(terms)
            ]
            gold = GoldTaxonomy(synsets)
            if dag.num_edges == 0:
                continue
            unfiltered_recall = evaluate(dag, gold).recall
            filtered_recall = evaluate(filtered, gold).recall
            assert filtered_recall <= unfiltered_recall + 1e-12


def _planted_benchmark():
    """200 documents over a 30-term tree; hypernyms occur in strictly more
    documents and their document sets subsume their descendants'."""
    root = "r00"
    parents = [f"p{i:02d}" for i in range(5)]
    leaves = [f"l{i:02d}" for i in range(24)]
    parent_of = {leaf: parents[i % 5] for i, leaf in enumerate(leaves)}

    doc_terms: dict[str, list[str]] = {}
    counter = 0

    def new_doc(terms):
        nonlocal counter
        doc_terms[f"doc{counter:03d}"] = terms
        counter += 1

    for leaf in leaves:
        for _ in range(7):
            new_doc([leaf, parent_of[leaf], root])
    for parent in parents:
        for _ in range(4):
            new_doc([parent, root])
    for _ in range(12):
        new_doc([root])
    assert len(doc_terms) == 200

    documents = tuple(
        Document(
            doc_id,
            (tuple(TaggedToken(t, t, "NOUN") for t in terms),),
        )
        for doc_id, terms in doc_terms.items()
    )
    corpus = Corpus("EN", documents)

    ids = {root: 0}
    synsets = [Synset(0, frozenset([root]), frozenset())]
    for i, parent in enumerate(parents, 1):
        ids[parent] = i
        synsets.append(Synset(i, frozenset([parent]), frozenset([0])))
    for j, leaf in enumerate(leaves, 6):
        synsets.append(Synset(j, frozenset([leaf]), frozenset([ids[parent_of[leaf]]])))
    gold = GoldTaxonomy(synsets)
    vocab = TermSet([root, *parents, *leaves])
    return corpus, gold, vocab


def test_criterion_12_planted_benchmark():
    with criterion(12, "planted 30-term taxonomy: docsub precision, tf recall"):
        start = time.perf_counter()
        corpus, gold, vocab = _planted_benchmark()
        docm = extract_document_contexts(corpus)

        docsub = extract_docsub(docm, vocab, 0.5)
        docsub_report = evaluate(build_taxonomy(docsub), gold)
        assert docsub_report.precision >= 0.9

        tf = extract_tf(docm, vocab)
        tf_report = evaluate(build_taxonomy(tf), gold)
        assert tf_report.recall >= 0.9

        assert time.perf_counter() - start < 30.0
