"""Relation extractors: directional similarity, entropy generality, term and
document frequency, document subsumption, and clustering-refined frequency.

Every statistical extractor decides each term pair independently and emits
at most one orientation per pair (ties emit nothing), so outputs are
antisymmetric.  Pairs are enumerated in sorted term order, which makes
every extractor deterministic regardless of input ordering.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .contexts import ContextMatrix, TermSet, _gram
from .relations import RelationSet
from .weighting import DEFAULT_TOP_CONTEXTS, EntropyTable, WeightedMatrix, word_generalities

# Measure -> (what a shared context adds to u's inclusion in v, given their
# weights there; whether swapping u and v keeps it).
_SHARED = {"clarkede": (np.minimum, True), "weedsprec": (lambda u, v: u, False)}
MEASURES = tuple(_SHARED)


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


def extract_dsim(ppmi: WeightedMatrix, vocab: TermSet, measure: str = "clarkede") -> RelationSet:
    """Directional-similarity extractor over PPMI-weighted window contexts.

    For each pair with overlapping supports the inclusion is computed both
    ways (see :func:`measure_clarke_de` and :func:`measure_weeds_prec`); the
    more included term is emitted as the hyponym.  Pairs without shared
    contexts, and exact ties, yield nothing.
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    terms = sorted(vocab)
    w = ppmi.rows_of(terms)
    # Summed in label order; the diagonal (u with itself) holds the row totals.
    shared = _gram(w, *_SHARED[measure])
    totals = np.diag(shared)
    with np.errstate(divide="ignore", invalid="ignore"):
        inclusion = shared / totals[:, None]
    # A pair without shared contexts scores 0 both ways, a tie.
    return RelationSet.from_mask("dsim", terms, inclusion.T > inclusion, inclusion.T)


def extract_slqs(
    lmi: WeightedMatrix,
    entropies: EntropyTable,
    vocab: TermSet,
    top_n: int = DEFAULT_TOP_CONTEXTS,
) -> RelationSet:
    """Entropy-generality extractor: the higher-generality term of a pair is
    its hypernym.  A term with undefined generality (NaN) is in no pair."""
    generality = word_generalities(lmi, entropies, vocab, top_n)
    terms = sorted(vocab)
    g = np.array([generality.get(t, np.nan) for t in terms])
    return RelationSet.from_mask("slqs", terms, g[:, None] > g, g[:, None] - g)


def extract_tf(docm: ContextMatrix, vocab: TermSet) -> RelationSet:
    """The more frequent term of a pair (the larger sum of its per-document
    counts) is taken as the hypernym."""
    terms = sorted(vocab)
    x = docm.rows_of(terms)
    frequency = np.bincount(x.rows(), x.data, len(terms))
    return RelationSet.from_mask("tf", terms, frequency[:, None] > frequency)


def extract_df(docm: ContextMatrix, vocab: TermSet) -> RelationSet:
    """The term occurring in more documents is taken as the hypernym."""
    terms = sorted(vocab)
    frequency = np.diff(docm.rows_of(terms).indptr)
    return RelationSet.from_mask("df", terms, frequency[:, None] > frequency)


def extract_docsub(docm: ContextMatrix, vocab: TermSet, lam: float) -> RelationSet:
    """Document subsumption: x subsumes y when y's documents are (nearly)
    a subset of x's.

    With P(x|y) = |D_x n D_y| / |D_y|, the relation (y is-a x) is emitted
    when P(x|y) >= lam and P(x|y) > P(y|x).  The shared documents are
    counted for every pair at once, and P(x|y) > P(y|x) is decided on
    integers as |D_x| > |D_y|, which is the same test when they share a
    document.
    """
    return docsub_sweep(docm, vocab, (lam,))[0]


def docsub_sweep(
    docm: ContextMatrix, vocab: TermSet, lambdas: Sequence[float]
) -> list[RelationSet]:
    """The :func:`extract_docsub` relations at each of ``lambdas``, in order,
    from one count of the shared documents."""
    for lam in lambdas:
        if not 0 < lam <= 1:
            raise ValueError(f"lambda must be in (0, 1], got {lam}")
    terms = sorted(vocab)
    docs = docm.rows_of(terms)
    sizes = np.diff(docs.indptr)
    # given[x, y] = P(x|y), 0 for a term without documents.
    given = _gram(docs, lambda u, v: 1.0) / np.maximum(sizes, 1)
    larger = sizes[:, None] > sizes
    return [
        RelationSet.from_mask("docsub", terms, (given >= lam) & larger, given)
        for lam in lambdas
    ]


def cluster_terms(ppmi: WeightedMatrix, vocab: TermSet, k: int) -> list[list[str]]:
    """Agglomerative average-linkage clustering over cosine distances,
    stopped when k clusters remain.

    The cut applies exactly n-k merges of the linkage sequence, so exactly
    k clusters come back even when merge heights tie (e.g. duplicate or
    all-zero vectors, which sit at distance 1 from everything).  Clusters
    are returned sorted, members sorted.
    """
    terms = sorted(vocab)
    n = len(terms)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    sims = _gram(ppmi.rows_of(terms))
    norms = np.sqrt(np.diag(sims))
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, sims / np.where(denom > 0, denom, 1.0), 0.0)
    dist = np.clip(1.0 - sims, 0.0, None)
    clusters: dict[int, list[str]] = {}
    for t, c in zip(terms, _average_linkage(dist, n - k).tolist()):
        clusters.setdefault(c, []).append(t)
    return sorted(clusters.values(), key=lambda g: g[0])


def _average_linkage(dist: np.ndarray, merges: int) -> np.ndarray:
    """Each point's cluster label after the first ``merges`` merges (stably
    by height) of average linkage over a distance matrix: a nearest-neighbour
    chain from the lowest live cluster to the first nearest one, kept at its
    previous cluster on a tie; mutual neighbours x < y merge into y."""
    d = dist.astype(np.float64)
    np.fill_diagonal(d, np.inf)  # itself, or a cluster merged away: never nearest
    size, chain, steps = [1] * len(d), [], []
    for _ in range(len(d) - 1):
        chain = chain or [next(i for i, s in enumerate(size) if s)]
        x, y = chain[-1], int(d[chain[-1]].argmin())
        while len(chain) < 2 or d[x, chain[-2]] > d[x, y]:
            chain.append(y)
            x, y = y, int(d[y].argmin())
        x, y = sorted((chain.pop(), chain.pop()))
        steps.append((d[x, y], x, y))
        merged = (size[x] * d[x] + size[y] * d[y]) / (size[x] + size[y])
        size[x], size[y] = 0, size[x] + size[y]
        d[x], d[:, x], d[y], d[:, y] = np.inf, np.inf, merged, merged
    label = np.arange(len(d))
    for _, x, y in sorted(steps, key=lambda step: step[0])[:merges]:  # stable
        label[label == label[x]] = label[y]
    return label


def extract_hclust(
    ppmi: WeightedMatrix, docm: ContextMatrix, vocab: TermSet, k: int
) -> RelationSet:
    """Document-frequency relations restricted to pairs that cluster together.

    With k=1 this degenerates to the plain document-frequency extractor;
    with k=|vocab| every cluster is a singleton and the output is empty.
    """
    terms = sorted(vocab)
    df = np.diff(docm.rows_of(terms).indptr)
    cluster = {t: i for i, members in enumerate(cluster_terms(ppmi, vocab, k)) for t in members}
    c = np.array([cluster[t] for t in terms])
    return RelationSet.from_mask("hclust", terms, (c[:, None] == c) & (df[:, None] > df))
