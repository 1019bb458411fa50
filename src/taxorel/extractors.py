"""Relation extractors: directional similarity, entropy generality, term and
document frequency, document subsumption, and clustering-refined frequency.

Every statistical extractor decides each term pair independently and emits
at most one orientation per pair (ties emit nothing), so outputs are
antisymmetric.  Pairs are enumerated in sorted term order, which makes
every extractor deterministic regardless of input ordering.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.sparse import csr_matrix
from scipy.spatial.distance import squareform

from .contexts import ContextMatrix, TermSet, context_label
from .relations import RelationSet
from .weighting import (
    DEFAULT_TOP_CONTEXTS,
    EntropyTable,
    WeightedMatrix,
    word_generalities,
)

MEASURES = ("clarkede", "weedsprec")


def measure_weeds_prec(u: Mapping, v: Mapping) -> float:
    """Directional inclusion of u in v: shared weight of u over total weight of u."""
    total = sum(u.values())
    if not u or total <= 0:
        raise ValueError("first vector has no positive weight")
    shared = sum(w for f, w in u.items() if f in v)
    return shared / total


def measure_clarke_de(u: Mapping, v: Mapping) -> float:
    """Like weeds_prec but shared features count min(w_u, w_v), damping
    features that are weaker in the broader term."""
    total = sum(u.values())
    if not u or total <= 0:
        raise ValueError("first vector has no positive weight")
    shared = sum(min(w, v[f]) for f, w in u.items() if f in v)
    return shared / total


_MEASURE_FN = {"clarkede": measure_clarke_de, "weedsprec": measure_weeds_prec}


def extract_dsim(
    ppmi: WeightedMatrix, vocab: TermSet, measure: str = "clarkede"
) -> RelationSet:
    """Directional-similarity extractor over PPMI-weighted window contexts.

    For each pair with overlapping supports the inclusion is computed both
    ways; the more included term is emitted as the hyponym.  Pairs without
    shared contexts, and exact ties, yield nothing.
    """
    if measure not in _MEASURE_FN:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    fn = _MEASURE_FN[measure]
    relset = RelationSet("dsim")
    for u, v in combinations(sorted(vocab), 2):
        u_vec = ppmi.row(u)
        v_vec = ppmi.row(v)
        if not u_vec or not v_vec or not (u_vec.keys() & v_vec.keys()):
            continue
        m_uv = fn(u_vec, v_vec)
        m_vu = fn(v_vec, u_vec)
        if m_uv > m_vu:
            relset.add(u, v, m_uv)
        elif m_vu > m_uv:
            relset.add(v, u, m_vu)
    return relset


def extract_slqs(
    lmi: WeightedMatrix,
    entropies: EntropyTable,
    vocab: TermSet,
    top_n: int = DEFAULT_TOP_CONTEXTS,
) -> RelationSet:
    """Entropy-generality extractor: the higher-generality term of a pair is
    its hypernym.  Terms with undefined generality are skipped."""
    generality = word_generalities(lmi, entropies, vocab, top_n)
    relset = RelationSet("slqs")
    for u, v in combinations(sorted(generality), 2):
        gu, gv = generality[u], generality[v]
        if gv > gu:
            relset.add(u, v, gv - gu)
        elif gu > gv:
            relset.add(v, u, gu - gv)
    return relset


def term_frequencies(docm: ContextMatrix, vocab: TermSet) -> dict[str, int]:
    """Corpus frequency of each term: the sum of its per-document counts."""
    return {t: sum(docm.row(t).values()) for t in vocab}


def document_frequencies(docm: ContextMatrix, vocab: TermSet) -> dict[str, int]:
    """Number of documents each term occurs in."""
    return {t: len(docm.row(t)) for t in vocab}


def _rank_relations(method: str, ranks: Mapping[str, int]) -> RelationSet:
    relset = RelationSet(method)
    for u, v in combinations(sorted(ranks), 2):
        if ranks[v] > ranks[u]:
            relset.add(u, v)
        elif ranks[u] > ranks[v]:
            relset.add(v, u)
    return relset


def extract_tf(docm: ContextMatrix, vocab: TermSet) -> RelationSet:
    """The more frequent term of a pair is taken as the hypernym."""
    return _rank_relations("tf", term_frequencies(docm, vocab))


def extract_df(docm: ContextMatrix, vocab: TermSet) -> RelationSet:
    """The term occurring in more documents is taken as the hypernym."""
    return _rank_relations("df", document_frequencies(docm, vocab))


def extract_docsub(docm: ContextMatrix, vocab: TermSet, lam: float) -> RelationSet:
    """Document subsumption: x subsumes y when y's documents are (nearly)
    a subset of x's.

    With P(x|y) = |D_x n D_y| / |D_y|, the relation (y is-a x) is emitted
    when P(x|y) >= lam and P(x|y) > P(y|x).
    """
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must be in (0, 1], got {lam}")
    doc_sets = {t: frozenset(docm.row(t)) for t in vocab}
    relset = RelationSet("docsub")
    for u, v in combinations(sorted(vocab), 2):
        du, dv = doc_sets[u], doc_sets[v]
        if not du or not dv:
            continue
        shared = len(du & dv)
        if shared == 0:
            continue
        p_u_given_v = shared / len(dv)
        p_v_given_u = shared / len(du)
        if p_u_given_v >= lam and p_u_given_v > p_v_given_u:
            relset.add(v, u, p_u_given_v)
        elif p_v_given_u >= lam and p_v_given_u > p_u_given_v:
            relset.add(u, v, p_v_given_u)
    return relset


def cluster_terms(ppmi: WeightedMatrix, vocab: TermSet, k: int) -> list[list[str]]:
    """Agglomerative average-linkage clustering over cosine distances,
    stopped when k clusters remain.

    The cut applies exactly n-k merges of the linkage sequence, so exactly
    k clusters come back even when merge heights tie (e.g. duplicate or
    all-zero vectors, which sit at distance 1 from everything).  Terms are
    processed in sorted order, making the partition deterministic for a
    given matrix.  Clusters are returned sorted, members sorted.
    """
    terms = sorted(vocab)
    n = len(terms)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return [[t] for t in terms]
    if k == 1:
        return [terms]

    features = sorted({f for t in terms for f in ppmi.row(t)}, key=context_label)
    findex = {f: i for i, f in enumerate(features)}
    data, rows, cols = [], [], []
    for i, t in enumerate(terms):
        for f, w in ppmi.row(t).items():
            rows.append(i)
            cols.append(findex[f])
            data.append(w)
    x = csr_matrix((data, (rows, cols)), shape=(n, max(len(features), 1)))
    sims = (x @ x.T).toarray()
    norms = np.sqrt(np.diag(sims))
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, sims / np.where(denom > 0, denom, 1.0), 0.0)
    dist = np.clip(1.0 - sims, 0.0, None)
    np.fill_diagonal(dist, 0.0)
    merges = linkage(squareform(dist, checks=False), method="average")
    # Row i merges cluster ids merges[i,0] and merges[i,1] into id n+i.
    components: dict[int, list[str]] = {i: [t] for i, t in enumerate(terms)}
    for i in range(n - k):
        a, b = int(merges[i, 0]), int(merges[i, 1])
        components[n + i] = sorted(components.pop(a) + components.pop(b))
    return sorted(components.values(), key=lambda g: g[0])


def extract_hclust(
    ppmi: WeightedMatrix, docm: ContextMatrix, vocab: TermSet, k: int
) -> RelationSet:
    """Document-frequency relations restricted to pairs that cluster together.

    With k=1 this degenerates to the plain document-frequency extractor;
    with k=|vocab| every cluster is a singleton and the output is empty.
    """
    df = document_frequencies(docm, vocab)
    relset = RelationSet("hclust")
    for cluster in cluster_terms(ppmi, vocab, k):
        for u, v in combinations(cluster, 2):
            if df[v] > df[u]:
                relset.add(u, v)
            elif df[u] > df[v]:
                relset.add(v, u)
    return relset
