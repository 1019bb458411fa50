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
    one reachability closure (:attr:`Taxonomy.closure`, by repeated
    squaring) cut down to S, and one slice of the gold taxonomy's ancestor
    matrix, which each case-folded lemma joins once over all calls.  The
    per-term sums then reduce to pair counts (:func:`_pair_count`), so a
    call costs a few boolean products over the taxonomy's V nodes (one per
    doubling of its longest path) plus O(|S|^2) for the slices, instead of
    a graph search for every pair of shared terms.
    """
    if not o_t.terms:
        raise ValueError("cannot evaluate an empty taxonomy")
    shared = [i for i, term in enumerate(o_t.terms) if gold.contains_term(term)]
    if not shared:
        return EvalReport(0.0, 0.0, 0.0, 0, 0, 0, no_shared_terms=True)
    t_rel = o_t.closure[shared][:, shared]  # rows then columns: faster than np.ix_
    # Gold lookups are case-folded, so "Car" and "car" share one gold row.
    g_rel = gold._ancestor_order([o_t.terms[i] for i in shared])
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


def _evaluate(o_t: Taxonomy, gold: GoldTaxonomy) -> EvalReport:
    """:func:`evaluate`, or an all-zero report for an empty taxonomy."""
    return evaluate(o_t, gold) if o_t.terms else EvalReport(0.0, 0.0, 0.0, 0, 0, 0)


def _restricted(a: RelationSet, b: RelationSet) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The sorted terms both sets hold, and each set's adjacency gathered
    onto them; a set that holds just those terms passes its own through."""
    if a.terms == b.terms:
        return a.terms, a.adj, b.adj
    tables = (np.array(a.terms, dtype=object), np.array(b.terms, dtype=object))
    terms, at_a, at_b = np.intersect1d(*tables, assume_unique=True, return_indices=True)
    ma = a.adj if len(at_a) == len(a.terms) else a.adj[np.ix_(at_a, at_a)]
    mb = b.adj if len(at_b) == len(b.terms) else b.adj[np.ix_(at_b, at_b)]
    return tuple(terms.tolist()), ma, mb


def _precision(relset: RelationSet, gold: GoldTaxonomy) -> float:
    """Precision of the set's own taxonomy, closed at most once; 0 for an empty set."""
    return _evaluate(relset.taxonomy, gold).precision


def complementarity(a: RelationSet, b: RelationSet) -> tuple[float, float]:
    """Direct and inverse overlap ratios of a with b.

    direct = |A n B| / |A|; inverse swaps b's pair order first.  Both read
    B's cells at A's pairs, ANDing no masks.  Raises ValueError when a is empty.
    """
    if len(a) == 0:
        raise ValueError("complementarity of an empty relation set is undefined")
    _, ma, mb = _restricted(a, b)
    return int(np.count_nonzero(mb[ma])) / len(a), int(np.count_nonzero(mb.T[ma])) / len(a)


def relative_precision(a: RelationSet, b: RelationSet, gold: GoldTaxonomy) -> float:
    """Precision of A's relations shared with B, relative to A's own precision.

    Values above 1 mean the intersection is more precise than A alone.  An
    empty intersection yields 0; an empty or zero-precision A makes the
    ratio undefined and raises ValueError.
    """
    p_a = _precision(a, gold)
    if p_a == 0:
        raise ValueError("relative precision undefined: base model is empty or has zero precision")
    terms, ma, mb = _restricted(a, b)
    return _precision(RelationSet.from_mask("", terms, ma & mb), gold) / p_a


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


def complementarity_matrix(relsets: list[RelationSet], gold: GoldTaxonomy) -> ComplementarityMatrix:
    """All ordered-pair ratios; rows are the base model of each ratio."""
    methods = tuple(rs.method for rs in relsets)
    if len(set(methods)) != len(methods):
        raise ValueError("relation sets must have distinct method tags")
    base, sizes = [_precision(rs, gold) for rs in relsets], list(map(len, relsets))
    direct, inverse, relative = {}, {}, {}
    # Each unordered pair {A, B} is taken once, over the terms both sets hold:
    # |A n B| and |A n B^T| are symmetric counts, and A n B is one taxonomy
    # whichever row it serves.  A n B is a subset of A, so its common relations
    # are a subset of A's: a zero base leaves the intersection's precision at 0,
    # and one as large as A is A.  A base is the set's own taxonomy.
    for x, (a, p_a, n_a) in enumerate(zip(relsets, base, sizes)):
        for b, p_b, n_b in zip(relsets[x:], base[x:], sizes[x:]):
            terms, ma, mb = _restricted(a, b)
            both = ma & mb
            held, crossed = int(np.count_nonzero(both)), int(np.count_nonzero(ma & mb.T))
            p_ab = (p_a if held == n_a else p_b) if p_a and p_b else 0.0
            if p_ab and n_a > held < n_b:  # neither side: evaluated
                p_ab = _precision(RelationSet.from_mask("", terms, both), gold)
            for row, col, p_row, n_row in ((a, b, p_a, n_a), (b, a, p_b, n_b)):
                key = (row.method, col.method)
                direct[key] = held / n_row if n_row else None
                inverse[key] = crossed / n_row if n_row else None
                relative[key] = p_ab / p_row if p_row else None
    return ComplementarityMatrix(methods, direct, inverse, relative)
