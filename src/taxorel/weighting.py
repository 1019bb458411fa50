"""Association weighting and entropy-based term generality.

Raw co-occurrence counts are turned into positive pointwise mutual
information (PPMI) or local mutual information (LMI) weights.  Context
entropies measure how informative a context is; a word's generality is the
median normalized entropy of its most associated contexts, so that more
general words score higher.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .contexts import CSR, ContextMatrix, TermContextMatrix

DEFAULT_TOP_CONTEXTS = 50


def _pmi(m: ContextMatrix) -> np.ndarray:
    """PMI of each stored count of ``m``, in CSR order, with maximum-likelihood
    probabilities from the row, column and grand totals."""
    # Floats, which are exact up to 2**53 and cannot wrap around as int64 can.
    x = m.csr
    grand = float(x.data.sum())
    if grand <= 0:
        raise ValueError("matrix has no counts")
    row_totals, col_totals = (np.bincount(k, weights=x.data)[k] for k in (x.rows(), x.indices))
    return np.log(x.data * grand / (row_totals * col_totals))


def _positive(m: ContextMatrix, pmi: np.ndarray, weights: np.ndarray) -> TermContextMatrix:
    """The ``weights`` of the cells of ``m`` whose PMI is positive."""
    x = m.csr
    kept = pmi > 0
    rows, row = np.unique(x.rows()[kept], return_inverse=True)
    indptr = np.searchsorted(row, np.arange(len(rows) + 1))
    csr = CSR(weights[kept], x.indices[kept], indptr, (len(rows), x.shape[1]))
    terms = [m.term_labels[i] for i in rows.tolist()]
    return TermContextMatrix._from_csr(csr, terms, m.context_labels)


def weight_ppmi(m: ContextMatrix) -> TermContextMatrix:
    """Positive PMI weights: log p(t,c)/(p(t)p(c)), negatives clamped to zero."""
    pmi = _pmi(m)
    return _positive(m, pmi, pmi)


def weight_lmi(m: ContextMatrix) -> TermContextMatrix:
    """Local mutual information: count(t,c) * PMI(t,c), clamped at zero."""
    pmi = _pmi(m)
    return _positive(m, pmi, m.csr.data * pmi)


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
    x = m.csr
    if not len(x.data):
        raise ValueError("matrix has no contexts")
    order = np.lexsort((x.data, x.indices))  # by context, then ascending count
    column, counts = x.indices[order], x.data[order]
    p = counts / np.bincount(column, weights=counts, minlength=x.shape[1])[column]
    raw = np.zeros(x.shape[1])
    np.subtract.at(raw, column, p * np.log2(p))  # in index order: one after another
    lo, hi = raw.min(), raw.max()
    normalized = (raw - lo) / (hi - lo) if hi > lo else np.zeros_like(raw)
    labels = m.context_labels
    return EntropyTable(
        raw=dict(zip(labels, raw.tolist())),
        normalized=dict(zip(labels, normalized.tolist())),
    )


def word_generalities(
    lmi: TermContextMatrix,
    entropies: EntropyTable,
    terms: Iterable[str],
    top_n: int = DEFAULT_TOP_CONTEXTS,
) -> dict[str, float]:
    """Each term's median normalized entropy of its top ``top_n`` contexts by
    LMI, for the terms of ``terms`` stored in ``lmi``.

    Fewer than ``top_n`` contexts are used as-is; ranking ties break on the
    lexicographic context label.  The median of an even-length list is the
    mean of the two middle values.  Terms without any positively weighted
    context have no generality and are skipped.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    terms = [t for t in terms if t in lmi]
    x = lmi.rows_of(terms)
    lengths, row = np.diff(x.indptr), x.rows()
    # Descending weight within each row; the sort is stable and a row's
    # columns are in label order, so ties keep label order.
    ranked = np.lexsort((-x.data, row))
    top = ranked[np.arange(len(ranked)) - x.indptr[row] < top_n]
    labels, normalized = lmi.context_labels, entropies.normalized
    values = np.fromiter((normalized[labels[j]] for j in x.indices[top].tolist()), float, len(top))
    values = values[np.lexsort((values, row[top]))]
    counts = np.minimum(lengths, top_n)
    starts = np.cumsum(counts) - counts
    median = (values[starts + (counts - 1) // 2] + values[starts + counts // 2]) / 2
    return dict(zip(terms, median.tolist()))
