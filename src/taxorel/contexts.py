"""Co-occurrence context models and target-vocabulary selection.

Two context models are supported.  In the *window* model every noun or
proper-noun token collects the content words within a fixed window around
it, keyed by lemma, coarse POS and side (e.g. ``energetic-j-l`` for an
adjective on the left).  In the *document* model a term's contexts are the
ids of the documents it occurs in, with its per-document frequency.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus

POS_LETTER = {"NOUN": "n", "PROPN": "p", "VERB": "v", "ADJ": "j", "OTHER": "o"}
_LETTER_POS = {v: k for k, v in POS_LETTER.items()}

TARGET_TAGS = frozenset({"NOUN", "PROPN"})


@dataclass(frozen=True, order=True)
class WindowContext:
    """A window-model context key: lemma, coarse POS and side of the target."""

    lemma: str
    pos: str
    side: str  # "l" or "r"

    def __post_init__(self) -> None:
        if self.side not in ("l", "r"):
            raise ValueError(f"side must be 'l' or 'r', got {self.side!r}")
        if self.pos not in POS_LETTER:
            raise ValueError(f"unknown coarse POS tag: {self.pos!r}")

    @property
    def label(self) -> str:
        return f"{self.lemma}-{POS_LETTER[self.pos]}-{self.side}"

    @classmethod
    def parse(cls, label: str) -> "WindowContext":
        lemma, letter, side = label.rsplit("-", 2)
        if letter not in _LETTER_POS:
            raise ValueError(f"bad POS letter in context label {label!r}")
        return cls(lemma=lemma, pos=_LETTER_POS[letter], side=side)


# Document-model keys are plain document-id strings.
ContextKey = WindowContext | str


def context_label(key: ContextKey) -> str:
    """Canonical string form of a context key, used for sorting and files."""
    return key.label if isinstance(key, WindowContext) else key


class ContextMatrix:
    """Sparse term-by-context count matrix for one of the two models.

    Rows are noun/proper-noun lemmas; entries are strictly positive counts.
    Instances are treated as immutable once built.
    """

    def __init__(
        self,
        model: str,
        rows: Mapping[str, Mapping[ContextKey, int]],
        window_size: int | None = None,
    ) -> None:
        if model not in ("window", "document"):
            raise ValueError(f"model must be 'window' or 'document', got {model!r}")
        if model == "window":
            if window_size is None or window_size < 3 or window_size % 2 == 0:
                raise ValueError("window model requires an odd window_size >= 3")
        elif window_size is not None:
            raise ValueError("document model takes no window_size")
        self.model = model
        self.window_size = window_size
        self._rows: dict[str, Counter] = {}
        for term, row in rows.items():
            counter = Counter()
            for key, count in row.items():
                if count <= 0:
                    raise ValueError(f"count for ({term!r}, {key!r}) must be positive")
                counter[key] = count
            if counter:
                self._rows[term] = counter

    def terms(self) -> list[str]:
        return sorted(self._rows)

    def row(self, term: str) -> Counter:
        """Context counts for a term (empty for unseen terms); do not mutate."""
        return self._rows.get(term, Counter())

    def __contains__(self, term: str) -> bool:
        return term in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def distinct_contexts(self, term: str) -> int:
        return len(self.row(term))

    def scaled(self, factor: int) -> "ContextMatrix":
        """Copy of the matrix with every count multiplied by ``factor``."""
        if factor < 1:
            raise ValueError("scale factor must be a positive integer")
        rows = {t: {k: c * factor for k, c in row.items()} for t, row in self._rows.items()}
        return ContextMatrix(self.model, rows, window_size=self.window_size)


def extract_window_contexts(corpus: Corpus, window_size: int = 5) -> ContextMatrix:
    """Count content-word co-occurrences in a sliding window over each sentence.

    With a window of size ``w`` the (w-1)/2 tokens before and after the
    target are inspected.  Every token occupies a window position, but only
    content words are emitted as contexts; windows never cross sentence
    boundaries.  Target terms and context lemmas are case-folded.
    """
    if window_size < 3 or window_size % 2 == 0:
        raise ValueError("window_size must be an odd integer >= 3")
    half = (window_size - 1) // 2
    rows: dict[str, Counter] = {}
    for doc in corpus.documents:
        for sentence in doc.sentences:
            n = len(sentence)
            for i, token in enumerate(sentence):
                if token.pos not in TARGET_TAGS:
                    continue
                target = token.lemma.casefold()
                row = rows.setdefault(target, Counter())
                for j in range(max(0, i - half), i):
                    ctx = sentence[j]
                    if ctx.is_content:
                        row[WindowContext(ctx.lemma.casefold(), ctx.pos, "l")] += 1
                for j in range(i + 1, min(n, i + half + 1)):
                    ctx = sentence[j]
                    if ctx.is_content:
                        row[WindowContext(ctx.lemma.casefold(), ctx.pos, "r")] += 1
    return ContextMatrix("window", rows, window_size=window_size)


def extract_document_contexts(corpus: Corpus) -> ContextMatrix:
    """Count, for every noun/proper-noun lemma, its frequency per document."""
    rows: dict[str, Counter] = {}
    for doc in corpus.documents:
        for sentence in doc.sentences:
            for token in sentence:
                if token.pos in TARGET_TAGS:
                    rows.setdefault(token.lemma.casefold(), Counter())[doc.id] += 1
    return ContextMatrix("document", rows)


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


def save_matrix(matrix: ContextMatrix, path: str | Path) -> None:
    """Persist a matrix as sorted ``term<TAB>context<TAB>count`` lines."""
    lines = []
    for term in matrix.terms():
        for key, count in matrix.row(term).items():
            lines.append((term, context_label(key), count))
    lines.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for term, label, count in lines:
            fh.write(f"{term}\t{label}\t{count}\n")


def load_matrix(
    path: str | Path, model: str, window_size: int | None = None
) -> ContextMatrix:
    """Read a matrix written by :func:`save_matrix`.

    The model (and window size, for the window model) is not stored in the
    file and must be supplied by the caller.
    """
    rows: dict[str, dict[ContextKey, int]] = {}
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
            term, label, count = fields
            key: ContextKey = WindowContext.parse(label) if model == "window" else label
            rows.setdefault(term, {})[key] = int(count)
    return ContextMatrix(model, rows, window_size=window_size)
