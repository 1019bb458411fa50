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
from .taxonomy import Taxonomy, build_taxonomy

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


def _shared_pairs(a: RelationSet, b: RelationSet, swap: bool = False) -> np.ndarray:
    """Positions in ``a`` of the pairs that ``b`` holds too (with ``swap``,
    holds with hyponym and hypernym swapped), in ascending order.

    Both sets' pairs become keys i * N + j over the sorted union of their
    term tables (N terms), and the two key arrays are intersected whole
    (``np.isin``, which picks a lookup table over the N * N keys when that
    is small enough).
    """
    index = {term: i for i, term in enumerate(sorted({*a.terms, *b.terms}))}
    in_a = np.array([index[term] for term in a.terms], dtype=np.int64)
    in_b = np.array([index[term] for term in b.terms], dtype=np.int64)
    b_hypo, b_hyper = (b.hyper, b.hypo) if swap else (b.hypo, b.hyper)
    keys_a = in_a[a.hypo] * len(index) + in_a[a.hyper]
    keys_b = in_b[b_hypo] * len(index) + in_b[b_hyper]
    return np.flatnonzero(np.isin(keys_a, keys_b, assume_unique=True))


def complementarity(a: RelationSet, b: RelationSet) -> tuple[float, float]:
    """Direct and inverse overlap ratios of a with b.

    direct = |A n B| / |A|; inverse swaps b's pair order first.  Raises
    ValueError when a is empty.
    """
    if len(a) == 0:
        raise ValueError("complementarity of an empty relation set is undefined")
    return len(_shared_pairs(a, b)) / len(a), len(_shared_pairs(a, b, swap=True)) / len(a)


def _base_precision(a: RelationSet, gold: GoldTaxonomy) -> float:
    """A's own precision, the denominator of every relative precision of A."""
    if len(a) == 0:
        raise ValueError("relative precision of an empty relation set is undefined")
    p_a = evaluate(build_taxonomy(a), gold).precision
    if p_a == 0:
        raise ValueError("relative precision undefined: base model has zero precision")
    return p_a


def _relative_to(p_a: float, a: RelationSet, b: RelationSet, gold: GoldTaxonomy) -> float:
    shared = _shared_pairs(a, b)
    if not len(shared):
        return 0.0
    mask = np.zeros((len(a.terms), len(a.terms)), dtype=bool)
    mask[a.hypo[shared], a.hyper[shared]] = True
    inter = RelationSet.from_mask(a.method, a.terms, mask)
    return evaluate(build_taxonomy(inter), gold).precision / p_a


def relative_precision(a: RelationSet, b: RelationSet, gold: GoldTaxonomy) -> float:
    """Precision of A's relations shared with B, relative to A's own precision.

    Values above 1 mean the intersection is more precise than A alone.  An
    empty intersection yields 0; a zero-precision A makes the ratio
    undefined and raises ValueError.
    """
    return _relative_to(_base_precision(a, gold), a, b, gold)


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
    direct: dict[tuple[str, str], float | None] = {}
    inverse: dict[tuple[str, str], float | None] = {}
    relative: dict[tuple[str, str], float | None] = {}
    for a in relsets:
        # One base precision per row, shared by the row's cells.
        try:
            p_a = _base_precision(a, gold)
        except ValueError:
            p_a = None
        for b in relsets:
            key = (a.method, b.method)
            try:
                direct[key], inverse[key] = complementarity(a, b)
            except ValueError:
                direct[key] = inverse[key] = None
            relative[key] = None if p_a is None else _relative_to(p_a, a, b, gold)
    return ComplementarityMatrix(methods, direct, inverse, relative)
