"""Memory guards for the corpus-sized stages, relation sets, the
complementarity matrix and the graph stages.

Ingest and the two context models are the only stages whose memory grows
with the corpus.  On a generated corpus of over 100,000 tokens, the
tracemalloc peak of each, per token, must stay under a fixed bound.  Each
bound sits between what int32 codes counted over the target positions take
(15.5, 67.7 and 21.9 bytes per token for ingest, window and document
contexts) and what int64 arrays over every token took (32.8, 89.7, 36.6).
The document model counted at 25.8 while it kept the target positions,
sentences and terms alive through the count.

A relation set that an extractor makes from its masks over 300 terms, with
all 44,850 pairs of them oriented, must hold under 4 bytes per pair
unscored and under 12 scored.  Its boolean adjacency and term table hold
2.4, and its float64 scores 8 more (10.4).  Int32 index arrays with a tuple
of a Python float or None per pair held 16.4 and 40.4, and the extractor's
whole score matrix alone would take 16.  The same 300 terms placed in a
mask over 3,000 table terms must hold the same bounds: a set that keeps
only the terms its pairs use holds 2.4 and 10.4 again, where keeping the
whole table held 204.8 and 212.8.

The complementarity matrix of seven tournament-like sets over 300 terms
(299,670 pairs, 91-100% of the 44,850 term pairs each, as the paper's sets
hold 456k-499k of 499,500) must peak under 16 bytes per pair.  Taking each
pair of sets over the terms both hold peaks at 6.3, as the union term table
did, since every set here holds all 300 terms; one sorted int64 key array
per set and its swapped copy peaked at 24.9.

The complementarity of a set over 4,000 terms with one over 1,000 of them
must peak under 8 bytes per cell of the 1,000-term table.  Taking both over
the terms they share peaks at 2.2; embedding both in the union table
peaked at 32.

The complementarity of a set of 3,000 disjoint pairs (6,000 terms) with
itself and with its inverse must peak under 64 bytes per pair.  Counting
the other set's cells at the set's own pairs peaks at 1.2; ANDing the two
6,000-term masks peaked at 12,000.4.

On a forest of 2,000 two-node components (4,000 terms), no node has both a
parent and a child, so no path is longer than one edge.  Each of
``break_cycles`` and ``compute_metrics`` must then peak under 4 bytes per
cell of the term table, and ``transitive_reduction`` under 9.  Products
over every node peaked at 6.0, 6.0 and 13.0, and over the middle nodes
alone at 2.0, 1.5 and 6.0.  A tighter guard holds them under 1.5, 1.0 and
3.0: taking ``adj`` itself as the closure of a graph without a middle node,
and returning such a graph as its own reduction, peaks at 1.0, 0.5 and 0.0.
"""

import random
import tracemalloc

import pytest

import numpy as np

from taxorel.contexts import extract_document_contexts, extract_window_contexts
from taxorel.corpus import load_corpus
from taxorel.evaluation import complementarity, complementarity_matrix
from taxorel.gold import GoldTaxonomy, Synset
from taxorel.relations import RelationSet
from taxorel.taxonomy import (
    Taxonomy,
    break_cycles,
    build_taxonomy,
    compute_metrics,
    transitive_reduction,
)

from helpers import inverted

DOCUMENTS = 400
NOUNS = [f"noun{i}" for i in range(300)]
OTHERS = [(f"verb{i}", "VERB") for i in range(100)] + [(f"adj{i}", "ADJ") for i in range(150)]
FUNCTION = [("the", "OTHER"), ("of", "OTHER"), ("a", "OTHER"), (",", "OTHER"), (".", "OTHER")]
# Peak bytes per token that each stage may reach.
BOUNDS = {"load_corpus": 24.0, "extract_window_contexts": 78.0, "extract_document_contexts": 24.0}
# Bytes per pair that a relation set holds, without and with scores.
UNSCORED_BOUND, SCORED_BOUND = 4.0, 12.0
# Peak bytes per relation pair of the complementarity matrix.
MATRIX_BOUND = 16.0
# Peak bytes of one complementarity per cell of the table the two sets share.
SHARED_BOUND = 8.0
# Peak bytes of one complementarity per pair of a set of disjoint pairs.
DISJOINT_BOUND = 64.0
# Peak bytes of each graph stage per cell of a forest's term table, and the
# tighter bounds of a stage that copies no matrix for a graph without a
# middle node.
FOREST_BOUNDS = {"break_cycles": 4.0, "compute_metrics": 4.0, "transitive_reduction": 9.0}
UNCOPIED_BOUNDS = {"break_cycles": 1.5, "compute_metrics": 1.0, "transitive_reduction": 3.0}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """400 vertical files of 20 sentences, 13 tokens each on average, with one
    noun (a target) in three tokens."""
    root = tmp_path_factory.mktemp("corpus")
    rng = random.Random(1)
    for d in range(DOCUMENTS):
        sentences = []
        for _ in range(20):
            tokens = []
            for _ in range(rng.randint(5, 21)):
                kind = rng.random()
                if kind < 0.3:
                    tokens.append((rng.choice(NOUNS), "NOUN"))
                elif kind < 0.7:
                    tokens.append(rng.choice(OTHERS))
                else:
                    tokens.append(rng.choice(FUNCTION))
            sentences.append("".join(f"{w}\t{w}\t{tag}\n" for w, tag in tokens))
        (root / f"d{d:03d}.txt").write_text("\n".join(sentences), encoding="utf-8")
    return root


def traced_peak(call, *args):
    """``call(*args)`` and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_corpus_sized_stages_stay_within_their_bytes_per_token(corpus_dir):
    corpus, peak = traced_peak(load_corpus, corpus_dir, "EN")
    tokens = len(corpus.coding.token)
    assert tokens > 100_000
    peaks = {"load_corpus": peak / tokens}
    for stage, args in (
        (extract_window_contexts, (corpus, 5)),
        (extract_document_contexts, (corpus,)),
    ):
        peaks[stage.__name__] = traced_peak(stage, *args)[1] / tokens
    assert all(peaks[name] < bound for name, bound in BOUNDS.items()), peaks


def traced_held(call, *args):
    """``call(*args)`` and how many of the bytes it allocated are still
    held once it returns."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def extracted_set(scored: bool, width: int) -> RelationSet:
    """A set made as an extractor makes one, from an n x n mask over
    ``width`` terms that orients each pair of 300 of them (every
    ``width // 300``-th), and from an n x n score matrix when ``scored``;
    only the set is returned."""
    terms = [f"t{i:04d}" for i in range(width)]
    rank = np.full(width, np.nan)  # the other terms compare False: no pairs
    rank[:: width // 300] = random.Random(3).sample(range(300), 300)
    scores = rank[:, None] - rank if scored else None
    return RelationSet.from_mask("m", terms, rank[:, None] > rank, scores)


def test_relation_sets_hold_their_bytes_per_pair():
    per_pair = {}
    for width in (300, 3000):
        for scored in (False, True):
            relset, held = traced_held(extracted_set, scored, width)
            assert len(relset) == 44_850 and len(relset.terms) == 300
            assert build_taxonomy(relset).adj is relset.adj
            per_pair[width, scored] = held / len(relset)
    assert all(
        per_pair[width, False] < UNSCORED_BOUND and per_pair[width, True] < SCORED_BOUND
        for width in (300, 3000)
    ), per_pair


def tournament_sets(terms: list[str], count: int) -> list[RelationSet]:
    """``count`` sets that each keep 91-100% of the pairs of ``terms`` and
    orient each pair by the terms' positions plus noise of the set's own:
    a later term is the hyponym, more often the further apart the two are."""
    rng = np.random.default_rng(2)
    i, j = np.triu_indices(len(terms), 1)
    sets = []
    for k in range(count):
        keep = rng.random(len(i)) < 0.91 + 0.09 * k / (count - 1)
        score = np.arange(len(terms)) + rng.normal(0, 40, len(terms))
        later = score[i] > score[j]
        hypo, hyper = np.where(later, i, j)[keep], np.where(later, j, i)[keep]
        pairs = [(terms[x], terms[y]) for x, y in zip(hypo.tolist(), hyper.tolist())]
        sets.append(RelationSet(f"m{k}", pairs))
    return sets


def test_complementarity_matrix_stays_within_its_bytes_per_pair():
    terms = [f"t{i:03d}" for i in range(300)]
    sets = tournament_sets(terms, 7)
    # A binary tree: term n is-a term (n - 1) // 2, so later terms lie deeper.
    gold = GoldTaxonomy(
        Synset(n, frozenset({term}), frozenset({(n - 1) // 2} if n else ()))
        for n, term in enumerate(terms)
    )
    pairs = sum(map(len, sets))
    assert pairs > 280_000
    matrix, peak = traced_peak(complementarity_matrix, sets, gold)
    # Every base precision is positive, so all 21 intersections are evaluated.
    assert None not in matrix.relative.values()
    assert peak / pairs < MATRIX_BOUND, peak / pairs


def test_complementarity_takes_only_the_shared_terms():
    # A binary tree over 4,000 terms, and the same tree over the first 1,000.
    terms = [f"t{i:04d}" for i in range(4000)]
    a = RelationSet("a", [(terms[n], terms[(n - 1) // 2]) for n in range(1, 4000)])
    b = RelationSet("b", [(terms[n], terms[(n - 1) // 2]) for n in range(1, 1000)])
    ratios, peak = traced_peak(complementarity, a, b)
    assert ratios == (999 / 3999, 0.0)
    assert peak / len(b.terms) ** 2 < SHARED_BOUND, peak / len(b.terms) ** 2


def test_complementarity_of_disjoint_pairs_stays_within_its_bytes_per_pair():
    a = RelationSet("a", [(f"x{i:04d}", f"y{i:04d}") for i in range(3000)])
    assert len(a.terms) == 6000
    peaks = {}
    for b, ratios in ((a, (1.0, 0.0)), (inverted(a), (0.0, 1.0))):
        got, peak = traced_peak(complementarity, a, b)
        assert got == ratios
        peaks[ratios] = peak / len(a)
    assert all(peak < DISJOINT_BOUND for peak in peaks.values()), peaks


def test_graph_stages_on_a_forest_stay_within_their_bytes_per_cell():
    terms = [f"t{i:04d}" for i in range(4000)]
    edges = list(zip(terms[::2], terms[1::2]))
    peaks = {}
    for stage in (break_cycles, compute_metrics, transitive_reduction):
        tax = Taxonomy(edges)  # fresh, so that no closure is cached before the call
        peaks[stage.__name__] = traced_peak(stage, tax)[1] / len(terms) ** 2
    assert all(peaks[name] < bound for name, bound in FOREST_BOUNDS.items()), peaks
    assert all(peaks[name] < bound for name, bound in UNCOPIED_BOUNDS.items()), peaks
