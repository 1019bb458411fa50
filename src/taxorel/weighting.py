"""Association weighting and entropy-based term generality.

Raw co-occurrence counts are turned into positive pointwise mutual
information (PPMI) or local mutual information (LMI) weights.  Context
entropies measure how informative a context is; a word's generality is the
median normalized entropy of its most associated contexts, so that more
general words score higher.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contexts import ContextMatrix, TermContextMatrix

DEFAULT_TOP_CONTEXTS = 50


class WeightedMatrix(TermContextMatrix):
    """Term-by-context matrix of real weights; only positive entries stored."""

    def __init__(self, scheme: str, rows: Mapping[str, Mapping[str, float]]) -> None:
        if scheme not in ("ppmi", "lmi"):
            raise ValueError(f"scheme must be 'ppmi' or 'lmi', got {scheme!r}")
        self.scheme = scheme
        super().__init__(rows, np.float64)


def _pmi(m: ContextMatrix) -> np.ndarray:
    """PMI of each stored count of ``m``, in CSR order, with maximum-likelihood
    probabilities from the row, column and grand totals."""
    # Floats, which are exact up to 2**53 and cannot wrap around as int64 can.
    x = m.csr
    grand = float(x.sum())
    if grand <= 0:
        raise ValueError("matrix has no counts")
    row_totals = np.repeat(np.asarray(x.sum(axis=1), dtype=np.float64).ravel(), np.diff(x.indptr))
    col_totals = np.asarray(x.sum(axis=0), dtype=np.float64).ravel()[x.indices]
    return np.log(x.data * grand / (row_totals * col_totals))


def _positive(
    scheme: str, m: ContextMatrix, pmi: np.ndarray, weights: np.ndarray
) -> WeightedMatrix:
    """The ``weights`` of the cells of ``m`` whose PMI is positive."""
    x = m.csr.astype(np.float64)
    x.data = np.where(pmi > 0, weights, 0.0)
    x.eliminate_zeros()
    kept = np.diff(x.indptr) > 0
    terms = [t for t, k in zip(m.term_labels, kept.tolist()) if k]
    return WeightedMatrix._from_csr(x[kept], terms, m.context_labels, scheme=scheme)


def weight_ppmi(m: ContextMatrix) -> WeightedMatrix:
    """Positive PMI weights: log p(t,c)/(p(t)p(c)), negatives clamped to zero."""
    pmi = _pmi(m)
    return _positive("ppmi", m, pmi, pmi)


def weight_lmi(m: ContextMatrix) -> WeightedMatrix:
    """Local mutual information: count(t,c) * PMI(t,c), clamped at zero."""
    pmi = _pmi(m)
    return _positive("lmi", m, pmi, m.csr.data * pmi)


@dataclass(frozen=True)
class EntropyTable:
    """Raw and min-max normalized Shannon entropy per context label."""

    raw: dict[str, float]
    normalized: dict[str, float]


def context_entropies(m: ContextMatrix) -> EntropyTable:
    """Shannon entropy of each context's term distribution, then min-max scaled.

    H(c) = -sum_t p(t|c) log2 p(t|c), summed one term after another over the
    context's counts in ascending order, so that the result does not depend
    on the order of the terms.  Normalization maps the minimum entropy to 0
    and the maximum to 1; if all contexts have equal entropy everything maps
    to 0.
    """
    x = m.csr.tocsc()
    if not x.nnz:
        raise ValueError("matrix has no contexts")
    lengths = np.diff(x.indptr)
    column = np.repeat(np.arange(len(lengths)), lengths)
    counts = x.data[np.lexsort((x.data, column))]
    p = counts / np.repeat(np.asarray(x.sum(axis=0)).ravel(), lengths)
    plogp = p * np.log2(p)
    # Step k subtracts the term of the k-th smallest count of every column
    # that has one.
    raw = np.zeros(len(lengths))
    active = np.arange(len(lengths))
    for k in range(lengths.max()):
        active = active[lengths[active] > k]
        raw[active] -= plogp[x.indptr[active] + k]
    lo, hi = raw.min(), raw.max()
    normalized = (raw - lo) / (hi - lo) if hi > lo else np.zeros_like(raw)
    labels = m.context_labels
    return EntropyTable(
        raw=dict(zip(labels, raw.tolist())),
        normalized=dict(zip(labels, normalized.tolist())),
    )


def word_generality(
    term: str,
    lmi: WeightedMatrix,
    entropies: EntropyTable,
    top_n: int = DEFAULT_TOP_CONTEXTS,
) -> float:
    """Median normalized entropy of the term's top ``top_n`` contexts by LMI.

    Fewer than ``top_n`` contexts are used as-is; ranking ties break on the
    lexicographic context label.  The median of an even-length list is the
    mean of the two middle values.  Raises ValueError for terms without any
    positively weighted context, whose generality is undefined.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    row = lmi.row(term)
    if not row:
        raise ValueError(f"generality undefined: {term!r} has no weighted contexts")
    ranked = sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))
    return statistics.median(entropies.normalized[key] for key, _ in ranked[:top_n])


def word_generalities(
    lmi: WeightedMatrix,
    entropies: EntropyTable,
    terms: Iterable[str],
    top_n: int = DEFAULT_TOP_CONTEXTS,
) -> dict[str, float]:
    """Generality for every term that has one; undefined terms are skipped."""
    return {t: word_generality(t, lmi, entropies, top_n) for t in terms if t in lmi}


def save_context_entropies(table: EntropyTable, path: str | Path) -> None:
    """Write sorted ``context<TAB>rawH<TAB>normH`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for label in sorted(table.raw):
            fh.write(f"{label}\t{table.raw[label]!r}\t{table.normalized[label]!r}\n")


def save_generalities(generalities: Mapping[str, float], path: str | Path) -> None:
    """Write sorted ``term<TAB>generality`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for term in sorted(generalities):
            fh.write(f"{term}\t{generalities[term]!r}\n")
