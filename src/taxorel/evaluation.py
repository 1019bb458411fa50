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

from dataclasses import dataclass

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
        return {
            "precision": self.precision,
            "recall": self.recall,
            "fmeasure": self.fmeasure,
            "common_count": self.common_count,
            "extracted_count": self.extracted_count,
            "gold_count": self.gold_count,
            "no_shared_terms": self.no_shared_terms,
        }


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


def _pair_count(masks: list[int]) -> int:
    """Per-term relation sum over ancestor masks of the shared terms.

    With R the (ancestor, descendant) pairs over the shared terms, every
    term counts its pairs as either endpoint: 2*|R| - |{(c, c) in R}|, as
    a pair (c, c), which a cycle through c produces, is one relation of c.
    """
    return sum(2 * mask.bit_count() - (mask >> i & 1) for i, mask in enumerate(masks))


def evaluate(o_t: Taxonomy, gold: GoldTaxonomy) -> EvalReport:
    """Precision, recall and F-measure of a taxonomy against the gold graph.

    The gold order is queried through transitive hypernym closure; a shared
    relation contributes once per endpoint term, following the per-term
    sums of the defining formulas (:func:`common_relations`).

    Both orders are taken whole rather than pair by pair: one reachability
    closure of the taxonomy (:meth:`Taxonomy.ancestor_masks`, one pass over
    its nodes and edges with |S|-bit masks for the shared terms S) and one
    case-folded ancestor-lemma set per shared term on the gold side.  The
    per-term sums then reduce to pair counts (:func:`_pair_count`), so the
    cost is O((V + E) * |S| / 64 + sum of gold ancestor-set sizes) instead
    of a graph search for every pair of shared terms.
    """
    if not o_t.nodes:
        raise ValueError("cannot evaluate an empty taxonomy")
    shared = sorted(_shared_terms(o_t, gold))
    if not shared:
        return EvalReport(0.0, 0.0, 0.0, 0, 0, 0, no_shared_terms=True)
    t_anc = o_t.ancestor_masks(shared)
    # Gold lookups are case-folded, so "Car" and "car" share one gold lemma.
    folded: dict[str, int] = {}
    for i, term in enumerate(shared):
        folded[term.casefold()] = folded.get(term.casefold(), 0) | 1 << i
    g_anc = []
    for term in shared:
        mask = 0
        for lemma in gold.ancestor_lemmas(term):
            mask |= folded.get(lemma, 0)
        g_anc.append(mask)
    common = _pair_count([t & g for t, g in zip(t_anc, g_anc)])
    extracted = _pair_count(t_anc)
    gold_total = _pair_count(g_anc)
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


def complementarity(a: RelationSet, b: RelationSet) -> tuple[float, float]:
    """Direct and inverse overlap ratios of a with b.

    direct = |A n B| / |A|; inverse swaps b's pair order first.  Raises
    ValueError when a is empty.
    """
    if len(a) == 0:
        raise ValueError("complementarity of an empty relation set is undefined")
    pa = a.pair_set()
    pb = b.pair_set()
    inv = {(hyper, hypo) for hypo, hyper in pb}
    return len(pa & pb) / len(pa), len(pa & inv) / len(pa)


def _base_precision(a: RelationSet, gold: GoldTaxonomy) -> float:
    """A's own precision, the denominator of every relative precision of A."""
    if len(a) == 0:
        raise ValueError("relative precision of an empty relation set is undefined")
    p_a = evaluate(build_taxonomy(a), gold).precision
    if p_a == 0:
        raise ValueError("relative precision undefined: base model has zero precision")
    return p_a


def _relative_to(p_a: float, a: RelationSet, b: RelationSet, gold: GoldTaxonomy) -> float:
    shared = a.pair_set() & b.pair_set()
    if not shared:
        return 0.0
    inter = a.restricted(shared)
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
    by_method = dict(zip(methods, relsets))
    direct: dict[tuple[str, str], float | None] = {}
    inverse: dict[tuple[str, str], float | None] = {}
    relative: dict[tuple[str, str], float | None] = {}
    for ma in methods:
        a = by_method[ma]
        # One base precision per row, shared by the row's cells.
        try:
            p_a = _base_precision(a, gold)
        except ValueError:
            p_a = None
        for mb in methods:
            key = (ma, mb)
            b = by_method[mb]
            try:
                direct[key], inverse[key] = complementarity(a, b)
            except ValueError:
                direct[key] = inverse[key] = None
            relative[key] = None if p_a is None else _relative_to(p_a, a, b, gold)
    return ComplementarityMatrix(methods, direct, inverse, relative)
