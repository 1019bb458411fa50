"""Scoring extracted taxonomies against a gold standard, plus cross-method
complementarity and relative precision.

Precision and recall are computed from per-term *common relations*: for a
term c and taxonomies O1, O2, the common relations of c are the pairs
(ancestor, c) and (c, descendant) that O1's transitive order induces over
the terms shared by O1 and O2.  Precision sums, over shared terms, the
relations the extracted taxonomy shares with the gold side against all the
relations it claims; recall divides by the gold side instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .gold import GoldTaxonomy
from .relations import Pair, RelationSet
from .taxonomy import Taxonomy

Ordered = Taxonomy | GoldTaxonomy  # anything with term_set/contains_term/reaches


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    fmeasure: float
    common_count: int
    extracted_count: int
    gold_count: int
    no_shared_terms: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def fmeasure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _shared_terms(o1: Ordered, o2: Ordered) -> set[str]:
    # Iterate the (small) extracted side when the other is a gold standard.
    if isinstance(o1, GoldTaxonomy) and not isinstance(o2, GoldTaxonomy):
        return {t for t in o2.term_set() if o1.contains_term(t)}
    return {t for t in o1.term_set() if o2.contains_term(t)}


def common_relations(c: str, o1: Ordered, o2: Ordered) -> set[Pair]:
    """Relations of ``c`` under o1's transitive order, restricted to terms
    shared with o2.

    Returns (ancestor, c) pairs for shared terms above c and (c, descendant)
    pairs for shared terms below it; empty when c is missing from either
    side.  Only o1's order matters; o2 contributes its term set.
    """
    if not (o1.contains_term(c) and o2.contains_term(c)):
        return set()
    out: set[Pair] = set()
    for other in _shared_terms(o1, o2):
        if o1.reaches(other, c):
            out.add((other, c))
        if o1.reaches(c, other):
            out.add((c, other))
    return out


def _pair_count(rel: np.ndarray) -> int:
    """Per-term relation sum over an (ancestor, descendant) matrix R of the
    shared terms.

    Every term counts its pairs as either endpoint: 2*|R| - |{(c, c) in R}|,
    as a pair (c, c), which a cycle through c produces, is one relation of c.
    """
    return int(2 * np.count_nonzero(rel) - np.count_nonzero(rel.diagonal()))


def evaluate(o_t: Taxonomy, gold: GoldTaxonomy) -> EvalReport:
    """Precision, recall and F-measure of a taxonomy against the gold graph.

    The gold order is queried through transitive hypernym closure; a shared
    relation contributes once per endpoint term, following the per-term
    sums of the defining formulas (:func:`common_relations`).

    Both orders are taken whole rather than pair by pair, as boolean
    (ancestor, descendant) matrices over the shared terms S: the taxonomy's
    one reachability closure (:attr:`Taxonomy.closure`, by Warshall's
    algorithm) cut down to S, and one case-folded ancestor-lemma set per
    shared term on the gold side.  The per-term sums then reduce to pair
    counts (:func:`_pair_count`), so the cost is O(V^3 / 8) byte operations
    at worst plus the sum of the gold ancestor-set sizes, instead of a
    graph search for every pair of shared terms.
    """
    if not o_t.terms:
        raise ValueError("cannot evaluate an empty taxonomy")
    shared = [i for i, term in enumerate(o_t.terms) if gold.contains_term(term)]
    if not shared:
        return EvalReport(0.0, 0.0, 0.0, 0, 0, 0, no_shared_terms=True)
    terms = [o_t.terms[i] for i in shared]
    t_rel = o_t.closure[np.ix_(shared, shared)]
    # Gold lookups are case-folded, so "Car" and "car" share one gold lemma.
    folded: dict[str, list[int]] = {}
    for a, term in enumerate(terms):
        folded.setdefault(term.casefold(), []).append(a)
    g_rel = np.zeros_like(t_rel)
    for d, term in enumerate(terms):
        above = [a for lemma in gold.ancestor_lemmas(term) for a in folded.get(lemma, ())]
        g_rel[above, d] = True
    common = _pair_count(t_rel & g_rel)
    extracted = _pair_count(t_rel)
    gold_total = _pair_count(g_rel)
    precision = common / extracted if extracted else 0.0
    recall = common / gold_total if gold_total else 0.0
    return EvalReport(
        precision=precision,
        recall=recall,
        fmeasure=fmeasure(precision, recall),
        common_count=common,
        extracted_count=extracted,
        gold_count=gold_total,
    )


def _encode(relsets: list[RelationSet]) -> tuple[int, list[np.ndarray]]:
    """The size N of the sorted union of the sets' term tables, and each
    set's pairs as unique int64 keys i * N + j into it."""
    index = {term: i for i, term in enumerate(sorted({t for rs in relsets for t in rs.terms}))}
    keys = []
    for rs in relsets:
        at = np.array([index[term] for term in rs.terms], dtype=np.int64)
        keys.append(at[rs.hypo] * len(index) + at[rs.hyper])
    return len(index), keys


def _ratios(n: int, keys_a: np.ndarray, keys_b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Mask over A's pairs of those B holds too, and A's direct and inverse
    overlap ratios with B; A is not empty."""
    held = np.isin(keys_a, keys_b, assume_unique=True)
    # k % N * N + k // N swaps the hyponym and hypernym of key k.
    swapped = np.isin(keys_a, keys_b % n * n + keys_b // n, assume_unique=True)
    return held, int(held.sum()) / len(keys_a), int(swapped.sum()) / len(keys_a)


def _precision(a: RelationSet, keep: np.ndarray, gold: GoldTaxonomy) -> float:
    """Precision of the taxonomy of A's pairs where ``keep`` holds; 0 when
    it holds for none."""
    if not keep.any():
        return 0.0
    adj = np.zeros((len(a.terms), len(a.terms)), dtype=bool)
    adj[a.hyper[keep], a.hypo[keep]] = True
    used = adj.any(axis=0) | adj.any(axis=1)
    terms = [term for term, u in zip(a.terms, used.tolist()) if u]
    return evaluate(Taxonomy._of(terms, adj[np.ix_(used, used)]), gold).precision


def complementarity(a: RelationSet, b: RelationSet) -> tuple[float, float]:
    """Direct and inverse overlap ratios of a with b.

    direct = |A n B| / |A|; inverse swaps b's pair order first.  Raises
    ValueError when a is empty.
    """
    if len(a) == 0:
        raise ValueError("complementarity of an empty relation set is undefined")
    n, (keys_a, keys_b) = _encode([a, b])
    return _ratios(n, keys_a, keys_b)[1:]


def relative_precision(a: RelationSet, b: RelationSet, gold: GoldTaxonomy) -> float:
    """Precision of A's relations shared with B, relative to A's own precision.

    Values above 1 mean the intersection is more precise than A alone.  An
    empty intersection yields 0; an empty or zero-precision A makes the
    ratio undefined and raises ValueError.
    """
    p_a = _precision(a, np.ones(len(a), dtype=bool), gold)
    if p_a == 0:
        raise ValueError("relative precision undefined: base model is empty or has zero precision")
    n, (keys_a, keys_b) = _encode([a, b])
    return _precision(a, np.isin(keys_a, keys_b, assume_unique=True), gold) / p_a


@dataclass(frozen=True)
class ComplementarityMatrix:
    """Pairwise overlap ratios and relative precision for a set of methods.

    Cells are None where the measure is undefined (empty base set, or zero
    base precision for relative precision).
    """

    methods: tuple[str, ...]
    direct: dict[tuple[str, str], float | None]
    inverse: dict[tuple[str, str], float | None]
    relative: dict[tuple[str, str], float | None]


def complementarity_matrix(
    relsets: list[RelationSet], gold: GoldTaxonomy
) -> ComplementarityMatrix:
    """All ordered-pair ratios; rows are the base model of each ratio."""
    methods = tuple(rs.method for rs in relsets)
    if len(set(methods)) != len(methods):
        raise ValueError("relation sets must have distinct method tags")
    direct, inverse, relative = {}, {}, {}
    n, keys = _encode(relsets)
    for a, keys_a in zip(relsets, keys):
        # The diagonal cell, A n A = A, gives the row's base precision; a
        # row whose base is empty or zero makes no further evaluate call.
        p_a = _precision(a, np.ones(len(a), dtype=bool), gold)
        for b, keys_b in zip(relsets, keys):
            key = (a.method, b.method)
            held, direct[key], inverse[key] = _ratios(n, keys_a, keys_b) if len(a) else (None,) * 3
            relative[key] = (1.0 if b is a else _precision(a, held, gold) / p_a) if p_a else None
    return ComplementarityMatrix(methods, direct, inverse, relative)
