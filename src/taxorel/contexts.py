"""Co-occurrence context models and target-vocabulary selection.

Two context models are supported.  In the *window* model every noun or
proper-noun token collects the content words within a fixed window around
it, labelled by lemma, coarse-POS letter and side of the target (e.g.
``energetic-j-l`` for an adjective on the left).  In the *document* model a
term's contexts are the ids of the documents it occurs in, with its
per-document frequency.  Both count over the target tokens only, through
the token and lemma codings, into int64 keys: terms times contexts can
pass 2**31.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, _codes, _records

POS_LETTER = {"NOUN": "n", "PROPN": "p", "VERB": "v", "ADJ": "j", "OTHER": "o"}

_GRAM_CHUNK = 1 << 16  # pairs of values that _gram makes at once


class CSR(NamedTuple):
    """Row ``i`` stores ``data[indptr[i]:indptr[i + 1]]`` in the ascending
    columns ``indices[indptr[i]:indptr[i + 1]]``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def rows(self) -> np.ndarray:
        """The row of each stored value."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] : starts[i] + lengths[i]``, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def _gram(x: CSR, pair=np.multiply, symmetric: bool = True) -> np.ndarray:
    """The dense matrix whose cell (i, j) sums ``pair(x[i, c], x[j, c])``
    over the columns c stored in rows i and j, from 0.0 in ascending column
    order as ``x @ x.T`` adds (``np.add.at`` adds in index order), so bit for
    bit equal to that product; ``symmetric`` if pair(u, v) == pair(v, u)."""
    n = x.shape[0]
    # Values in column order, rows ascending within a column: value e pairs
    # with itself and the values after it in its column (i <= j).
    order = np.argsort(x.indices, kind="stable")
    row, value = x.rows()[order], x.data[order]
    after = np.cumsum(np.bincount(x.indices))[x.indices[order]] - np.arange(len(order))
    cuts = np.searchsorted(np.cumsum(after), range(_GRAM_CHUNK, after.sum(), _GRAM_CHUNK))
    edges = [0, *cuts.tolist(), len(order)]
    upper = np.zeros(n * n)
    lower = upper if symmetric else np.zeros(n * n)  # transposed
    for lo, hi in zip(edges, edges[1:]):
        i, u = np.repeat(row[lo:hi], after[lo:hi]), np.repeat(value[lo:hi], after[lo:hi])
        later = _ranges(np.arange(lo, hi), after[lo:hi])
        np.add.at(upper, i * n + row[later], pair(u, value[later]))
        if not symmetric:
            np.add.at(lower, i * n + row[later], pair(value[later], u))
    return upper.reshape(n, n) + np.triu(lower.reshape(n, n), 1).T


class TermContextMatrix:
    """Sparse term-by-context matrix: the sorted term labels, the sorted
    context labels (plain strings) and one :class:`CSR` whose row ``i`` and
    column ``j`` are ``term_labels[i]`` and ``context_labels[j]``.

    ``rows`` maps each term to its context values; terms without any are
    not stored.  Instances are treated as immutable once built.
    """

    def __init__(self, rows: Mapping[str, Mapping[str, float]], dtype) -> None:
        terms = sorted(t for t, row in rows.items() if row)
        contexts = sorted({c for t in terms for c in rows[t]})
        column = {c: j for j, c in enumerate(contexts)}
        csr = CSR(
            np.array([rows[t][c] for t in terms for c in sorted(rows[t])], dtype=dtype),
            np.array([column[c] for t in terms for c in sorted(rows[t])], dtype=np.int64),
            np.cumsum([0] + [len(rows[t]) for t in terms]),
            (len(terms), len(contexts)),
        )
        self._adopt(csr, terms, contexts)

    def _adopt(self, csr: CSR, term_labels: list[str], context_labels: list[str]):
        self.csr = csr
        self.term_labels = term_labels
        self.context_labels = context_labels
        self._index = {t: i for i, t in enumerate(term_labels)}

    @classmethod
    def _from_csr(cls, csr, term_labels, context_labels, **attributes):
        """An instance over an already checked CSR with no empty row."""
        matrix = cls.__new__(cls)
        vars(matrix).update(attributes)
        matrix._adopt(csr, term_labels, context_labels)
        return matrix

    def terms(self) -> list[str]:
        return list(self.term_labels)

    def row(self, term: str) -> dict[str, float]:
        """Context values of a term by context label, in label order (empty
        for a term not stored); a fresh dict."""
        x, labels = self.rows_of([term]), self.context_labels
        return {labels[j]: v for j, v in zip(x.indices.tolist(), x.data.tolist())}

    def rows_of(self, terms: Iterable[str]) -> CSR:
        """The rows of ``terms``, in that order, as a CSR over all contexts;
        a term not stored gets an empty row."""
        x = self.csr
        index = np.array([self._index.get(t, -1) for t in terms], dtype=np.int64)
        lengths = np.append(np.diff(x.indptr), 0)[index]  # -1: empty, after the last row
        picked = _ranges(x.indptr[index], lengths)
        indptr = np.append(0, np.cumsum(lengths))
        return CSR(x.data[picked], x.indices[picked], indptr, (len(index), x.shape[1]))

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def __len__(self) -> int:
        return len(self.term_labels)

    def distinct_contexts(self, term: str) -> int:
        i = self._index.get(term)
        return 0 if i is None else int(self.csr.indptr[i + 1] - self.csr.indptr[i])


class ContextMatrix(TermContextMatrix):
    """Term-by-context count matrix: its ``model`` is ``"window"`` when a
    ``window_size`` is given, else ``"document"``.

    Rows are noun/proper-noun lemmas; entries are strictly positive counts.
    """

    def __init__(self, rows: Mapping[str, Mapping[str, int]], window_size: int | None = None):
        if window_size is not None and (window_size < 3 or window_size % 2 == 0):
            raise ValueError("window model requires an odd window_size >= 3")
        self.window_size = window_size
        super().__init__(rows, np.int64)
        if (self.csr.data <= 0).any():
            raise ValueError("counts must be positive")

    @property
    def model(self) -> str:
        return "document" if self.window_size is None else "window"

    def scaled(self, factor: int) -> "ContextMatrix":
        """Copy of the matrix with every count multiplied by ``factor``."""
        if factor < 1:
            raise ValueError("scale factor must be a positive integer")
        csr = self.csr._replace(data=self.csr.data * factor)
        labels = self.term_labels, self.context_labels
        return ContextMatrix._from_csr(csr, *labels, window_size=self.window_size)


def _targets(corpus: Corpus):
    """The corpus's token coding, its lemma table, and each target token's
    position, sentence and lemma index in corpus order."""
    coding, (table, _, target) = corpus.coding, corpus.lemmas
    pos = np.flatnonzero((target >= 0)[coding.token])
    sentence = np.searchsorted(coding.starts, pos, "right") - 1
    return coding, table, pos, sentence, target[coding.token[pos]]


def _count(terms, contexts, keys, window_size=None) -> ContextMatrix:
    """The matrix counting each ``term * len(contexts) + context`` key;
    only the terms and contexts that occur in a key are stored."""
    keys, counts = np.unique(keys, return_counts=True)
    rows, row = np.unique(keys // max(len(contexts), 1), return_inverse=True)
    columns, column = np.unique(keys % max(len(contexts), 1), return_inverse=True)
    indptr = np.searchsorted(row, np.arange(len(rows) + 1))
    csr = CSR(counts.astype(np.int64), column, indptr, (len(rows), len(columns)))
    terms, contexts = [terms[i] for i in rows.tolist()], [contexts[j] for j in columns.tolist()]
    return ContextMatrix._from_csr(csr, terms, contexts, window_size=window_size)


def extract_window_contexts(corpus: Corpus, window_size: int = 5) -> ContextMatrix:
    """Count content-word co-occurrences in a sliding window over each sentence.

    With a window of size ``w`` the (w-1)/2 tokens before and after the
    target are inspected.  Every token occupies a window position, but only
    content words are emitted as contexts; windows never cross sentence
    boundaries.  Target terms and context lemmas are case-folded.
    """
    if window_size < 3 or window_size % 2 == 0:
        raise ValueError("window_size must be an odd integer >= 3")
    coding, terms, pos, sentence, term = _targets(corpus)
    content = corpus.lemmas[1].tolist()  # each distinct token's index in ``terms``, or -1
    stems = [
        f"{terms[i]}-{POS_LETTER[t.pos]}-" if i >= 0 else None
        for t, i in zip(coding.distinct, content)
    ]
    labels, code = _codes([s and s + side for side in "lr" for s in stems])
    before = pos - coding.starts[sentence]  # the tokens before the target in its sentence
    after = coding.lengths[sentence] - 1 - before
    width, keys = np.int64(len(labels)), []
    for d in range(1, (window_size - 1) // 2 + 1):
        # The context d tokens left of the target, then the one d tokens right.
        for room, side, step in ((before, code[: len(stems)], -d), (after, code[len(stems) :], d)):
            inside = room >= d
            context = side[coding.token[pos[inside] + step]]
            keys.append((term[inside] * width + context)[context >= 0])
    return _count(terms, labels, np.concatenate(keys), window_size)


def extract_document_contexts(corpus: Corpus) -> ContextMatrix:
    """Count, for every noun/proper-noun lemma, its frequency per document."""
    coding, terms, pos, sentence, term = _targets(corpus)
    ids, doc = _codes(corpus.ids)
    keys = term * np.int64(len(ids)) + doc[coding.documents][sentence]
    del pos, sentence, term, doc  # counting needs only the keys
    return _count(terms, ids, keys)


class TermSet:
    """Ordered set of distinct target terms."""

    def __init__(self, terms: Iterable[str]) -> None:
        self._terms = tuple(terms)
        self._index = set(self._terms)
        if len(self._index) != len(self._terms):
            raise ValueError("terms must be distinct")

    @property
    def terms(self) -> tuple[str, ...]:
        return self._terms

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, TermSet) and self._terms == other._terms

    def __repr__(self) -> str:
        return f"TermSet({len(self._terms)} terms)"


def select_vocabulary(matrix: ContextMatrix, gold, n: int) -> TermSet:
    """Pick the top ``n`` gold-present terms by distinct-context count.

    Ties break on the lexicographically smaller lemma, so the selection is
    deterministic and independent of corpus document order.  Returns fewer
    than ``n`` terms when the gold overlap is smaller.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    candidates = [t for t in matrix.terms() if gold.contains_term(t)]
    if not candidates:
        raise ValueError("no matrix term occurs in the gold standard")
    candidates.sort(key=lambda t: (-matrix.distinct_contexts(t), t))
    return TermSet(candidates[:n])


def matrix_text(matrix: TermContextMatrix) -> str:
    """Sorted ``term<TAB>context<TAB>value`` lines, one per stored value."""
    x, terms, labels = matrix.csr, matrix.term_labels, matrix.context_labels
    return "".join(
        f"{terms[i]}\t{labels[j]}\t{v}\n"
        for i, j, v in zip(x.rows().tolist(), x.indices.tolist(), x.data.tolist())
    )


def load_matrix(path: str | Path, window_size: int | None = None) -> ContextMatrix:
    """Read the :func:`matrix_text` of a count matrix of the window model
    when a ``window_size`` is given, else of the document model; neither is
    stored in the file.  A window context label must read
    ``lemma-letter-side``, with a letter of :data:`POS_LETTER` and a side of
    ``l`` or ``r``.
    """
    rows: dict[str, dict[str, int]] = {}
    window_label = re.compile(f".*-[{''.join(POS_LETTER.values())}]-[lr]")

    def row(term: str, label: str, count: str) -> None:
        if window_size is not None and not window_label.fullmatch(label):
            raise ValueError(f"bad window context label {label!r}")
        if not count.isdecimal() or int(count) < 1:
            raise ValueError(f"count must be a positive integer, got {count!r}")
        counts = rows.setdefault(term, {})
        if label in counts:
            raise ValueError(f"duplicate term and context {term!r} {label!r}")
        counts[label] = int(count)

    _records(path, 3, row)
    return ContextMatrix(rows, window_size)
