"""POS-tagged corpus model and vertical token-format ingestion.

A corpus is an ordered sequence of documents, each an ordered list of
sentences, each a sequence of (surface, lemma, pos) tokens.  Tokens carry
one of five coarse part-of-speech tags; nouns, proper nouns, verbs and
adjectives count as content words, and nouns and proper nouns as targets.

The on-disk format is vertical text: one token per line with three
tab-separated fields ``surface<TAB>lemma<TAB>pos``, a blank line as
sentence boundary, and one file per document.

Every corpus holds its token coding (:attr:`Corpus.coding`, a
:class:`TokenCoding`) from the moment it is built.  A loaded corpus is coded
as it is parsed, one table lookup per line, and a split one shares the
tokens of its source; both build ``documents`` from the coding on first
access, which nothing in ``taxorel run`` does: the statistics, both context
models and the patterns read the coding.  A corpus built by hand holds the
documents it was given and is coded when it is built.  :attr:`Corpus.lemmas`
codes each distinct token's term, once, for all of those readers.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

COARSE_TAGS = frozenset({"NOUN", "PROPN", "VERB", "ADJ", "OTHER"})
CONTENT_TAGS = frozenset({"NOUN", "PROPN", "VERB", "ADJ"})
TARGET_TAGS = frozenset({"NOUN", "PROPN"})
LANGUAGES = ("EN", "PT")


def _codes(labels: list) -> tuple[list[str], np.ndarray]:
    """The sorted distinct labels other than None, and each label's index
    in them (-1 for None) as an int32 array."""
    table = sorted(set(labels) - {None})
    index = {None: -1} | {label: i for i, label in enumerate(table)}
    return table, np.fromiter(map(index.__getitem__, labels), np.int32, len(labels))


class CorpusFormatError(ValueError):
    """Malformed vertical-format input; the message carries file and line."""


@dataclass(frozen=True)
class TaggedToken:
    surface: str
    lemma: str
    pos: str

    def __post_init__(self) -> None:
        if not self.surface or not self.lemma:
            raise ValueError("token surface and lemma must be non-empty")
        if self.pos not in COARSE_TAGS:
            raise ValueError(f"unknown coarse POS tag: {self.pos!r}")


Sentence = tuple[TaggedToken, ...]


class TokenCoding(NamedTuple):
    """Token ``i`` in corpus order is ``distinct[token[i]]``; sentence ``s``
    holds ``lengths[s]`` tokens from ``starts[s]`` on, in document number
    ``documents[s]``.  Equal tokens that are not one object stay apart; a
    loaded corpus, coded as it is parsed, has one object per distinct token
    line.  ``token`` is int32, the sentence arrays int64, and all read-only."""

    distinct: list[TaggedToken]
    token: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    documents: np.ndarray


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if any(len(s) == 0 for s in self.sentences):
            raise ValueError(f"document {self.id!r} contains an empty sentence")


@dataclass(frozen=True, init=False)
class Corpus:
    """A language and its documents; ``ids`` are the document ids, in order,
    and ``coding`` is the :class:`TokenCoding` of their tokens.

    ``documents`` is a field, so ``==``, hash and repr are those of
    ``(language, documents)``, and a cached property: a corpus built by
    hand holds the documents it was given, and a loaded or split one holds
    only its ids and coding and builds its documents on first read."""

    language: str
    documents: tuple[Document, ...] = cached_property(lambda c: _documents(c.ids, c.coding))

    def __init__(self, language: str, documents: tuple[Document, ...]) -> None:
        ids, coding = _checked(language, tuple(d.id for d in documents)), _code_tokens(documents)
        vars(self).update(language=language, documents=documents, ids=ids, coding=coding)

    def tokens(self):
        """Iterate over every token in document, sentence, position order."""
        return map(self.coding.distinct.__getitem__, self.coding.token.tolist())

    @cached_property
    def lemmas(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The lemma coding ``(table, content, target)`` of ``coding.distinct``:
        the sorted case-folded lemmas of the content tokens, each token's index
        in them (-1 if it is not content), and that index if it is a NOUN/PROPN
        token (else -1).  Both arrays are int32 and read-only."""
        distinct = self.coding.distinct
        lemma = [t.lemma.casefold() if t.pos in CONTENT_TAGS else None for t in distinct]
        table, content = _codes(lemma)
        target = np.where([t.pos in TARGET_TAGS for t in distinct], content, np.int32(-1))
        content.flags.writeable = target.flags.writeable = False
        return table, content, target


def _checked(language: str, ids: tuple[str, ...]) -> tuple[str, ...]:
    """``ids``, once ``language`` and they are fit for a corpus."""
    if language not in LANGUAGES:
        raise ValueError(f"language must be one of {LANGUAGES}, got {language!r}")
    if not ids:
        raise ValueError("corpus must contain at least one document")
    if len(set(ids)) != len(ids):
        raise ValueError("document ids must be unique within a corpus")
    return ids


def _coded(language: str, ids: tuple[str, ...], coding: TokenCoding) -> Corpus:
    """A corpus that holds only ``ids`` and ``coding``."""
    corpus = Corpus.__new__(Corpus)
    vars(corpus).update(language=language, ids=_checked(language, ids), coding=coding)
    return corpus


def _coding(distinct: list, token: np.ndarray, lengths: np.ndarray, per_document) -> TokenCoding:
    """The read-only coding of the tokens ``distinct[token]`` in sentences of
    ``lengths`` tokens, ``per_document[d]`` of them in document ``d``."""
    documents = np.repeat(np.arange(len(per_document)), per_document)
    coding = TokenCoding(distinct, token, np.cumsum(lengths) - lengths, lengths, documents)
    for array in coding[1:]:
        array.flags.writeable = False
    return coding


def _documents(ids: tuple[str, ...], coding: TokenCoding) -> tuple[Document, ...]:
    """The documents ``ids`` of ``coding``, holding its very token objects."""
    toks = np.fromiter(coding.distinct, object, len(coding.distinct))[coding.token].tolist()
    stops = (coding.starts + coding.lengths).tolist()
    sentences = list(map(tuple, map(toks.__getitem__, map(slice, coding.starts.tolist(), stops))))
    bounds = np.searchsorted(coding.documents, np.arange(len(ids) + 1)).tolist()
    return tuple(Document(i, tuple(sentences[a:b])) for i, a, b in zip(ids, bounds, bounds[1:]))


def _code_tokens(documents: tuple[Document, ...]) -> TokenCoding:
    """The coding of the token objects of ``documents``, distinct tokens in
    order of first occurrence: :attr:`Corpus.coding` of a corpus built by hand."""
    sentences = [s for d in documents for s in d.sentences]
    distinct = {id(t): t for s in sentences for t in s}  # by identity, first occurrences first
    code = {key: i for i, key in enumerate(distinct)}
    token = np.array([code[id(t)] for s in sentences for t in s], np.int32)
    lengths = np.array([len(s) for s in sentences], np.int64)
    per_document = [len(d.sentences) for d in documents]
    return _coding(list(distinct.values()), token, lengths, per_document)


@dataclass(frozen=True)
class CorpusStats:
    num_documents: int
    num_sentences: int
    num_content_words: int
    vocabulary_size: int


def load_pos_mapping(path: str | Path) -> dict[str, str]:
    """Read a ``finePOS<TAB>coarsePOS`` mapping file.

    Each fine tag is mapped once, to one of the five coarse tags.
    """
    mapping: dict[str, str] = {}

    def row(fine: str, coarse: str) -> None:
        fine, coarse = fine.strip(), coarse.strip().upper()
        if coarse not in COARSE_TAGS:
            raise ValueError(f"{coarse!r} is not a coarse POS tag")
        if fine in mapping:
            raise ValueError(f"fine tag {fine!r} is mapped twice")
        mapping[fine] = coarse

    _records(path, 2, row, CorpusFormatError)
    return mapping


def coarse_pos(tag: str, mapping: Mapping[str, str] | None = None) -> str:
    """Map a parser tag to a coarse tag; anything unrecognized becomes OTHER."""
    if mapping is not None:
        tag = mapping.get(tag, tag)
    tag = tag.upper()
    return tag if tag in COARSE_TAGS else "OTHER"


def _text(path: str | Path, error: type[ValueError] = ValueError) -> str:
    r"""The UTF-8 text of the file ``path``, each line end read as text mode
    reads it: "\r\n" and a lone "\r" become "\n".  Bytes that are not UTF-8
    raise ``error`` naming ``path:line``."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start] + b".").splitlines())
        raise error(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _records(path: str | Path, width: int, row, error: type[ValueError] = ValueError) -> None:
    r"""Call ``row(*fields)`` on the ``width`` tab-separated fields of each
    line of the UTF-8 file ``path`` that is not blank, streamed in text mode,
    which reads "\r\n" and a lone "\r" as line ends as :func:`_text` does.  A
    wrong field count, a ValueError from ``row`` and bytes that are not UTF-8
    raise ``error`` naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split("\t")
                if len(fields) != width:
                    raise ValueError(f"expected {width} tab-separated fields, got {len(fields)}")
                row(*fields)
        except UnicodeDecodeError:
            _text(path, error)  # raises, naming the line of the first bad byte
            raise
        except ValueError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None


class _LineCodes(dict):
    """Each line's code: its token's index in ``distinct``, or -1 for a blank
    or whitespace-only line.  A new line is split, mapped and checked on its
    first lookup; a bad one raises ``CorpusFormatError(message, line)``."""

    def __init__(self, mapping: Mapping | None) -> None:
        self.mapping, self.distinct = mapping, []

    def __missing__(self, line: str) -> int:
        if not line.strip():
            return self.setdefault(line, -1)
        fields = line.split("\t")
        if len(fields) != 3:
            raise CorpusFormatError(f"expected 3 tab-separated fields, got {len(fields)}", line)
        if "" in fields:
            raise CorpusFormatError("empty field in token line", line)
        self.distinct.append(TaggedToken(*fields[:2], coarse_pos(fields[2], self.mapping)))
        return self.setdefault(line, len(self.distinct) - 1)


def load_corpus(
    path: str | Path,
    language: str,
    pos_mapping: Mapping[str, str] | None = None,
) -> Corpus:
    """Load a vertical-format corpus from a file or a directory of files.

    Each file becomes one document whose id is the file name; files in a
    directory are read in sorted name order so repeated loads are stable.
    Equal token lines share one token object across the whole corpus, and
    the corpus comes with its :attr:`Corpus.coding`, built as each file is
    read; the first bad line in file order raises, naming ``file:line``.
    """
    path = Path(path)
    if path.is_dir():
        with os.scandir(path) as entries:
            names = sorted(e.name for e in entries if e.is_file() and not e.name.startswith("."))
        if not names:
            raise CorpusFormatError(f"empty corpus: no files under {path}")
        files = [path / name for name in names]
    else:
        files = [path]
    language, ids = language.upper(), tuple(f.name for f in files)
    _checked(language, ids)  # before any file is read
    codes, coded = _LineCodes(pos_mapping), []
    for f in files:
        # Each line's code, and a -1 that ends the file's last sentence.
        lines = _text(f, CorpusFormatError).split("\n") + [""]
        try:
            coded.append(np.fromiter(map(codes.__getitem__, lines), np.int32, len(lines)))
        except CorpusFormatError as exc:
            message, line = exc.args  # its first occurrence: every earlier line is in ``codes``
            raise CorpusFormatError(f"{f}:{lines.index(line) + 1}: {message}") from None
    ends = np.cumsum([0, *map(len, coded)])  # each file's first line
    coded = np.concatenate(coded)
    # Each run of token lines is a sentence; [begin, end) are its lines.
    begin, end = np.flatnonzero(np.diff(coded >= 0, prepend=False)).reshape(-1, 2).T
    per_file = np.diff(np.searchsorted(begin, ends))  # sentences in each file
    return _coded(language, ids, _coding(codes.distinct, coded[coded >= 0], end - begin, per_file))


def sentence_documents(corpus: Corpus) -> Corpus:
    """Split every sentence into its own pseudo-document.

    Useful for corpora without document borders, where the effective
    document size is a single sentence.  Pseudo-document ids are derived
    from the source document id and the 1-based sentence index.  The split
    corpus shares the tokens of ``corpus``.
    """
    coding = corpus.coding
    if not coding.lengths.size:
        raise ValueError("corpus has no sentences to split into pseudo-documents")
    counts = np.bincount(coding.documents, minlength=len(corpus.ids)).tolist()
    ids = tuple(f"{d}#s{i}" for d, n in zip(corpus.ids, counts) for i in range(1, n + 1))
    coding = _coding(coding.distinct, coding.token, coding.lengths, np.ones(len(ids), np.int64))
    return _coded(corpus.language, ids, coding)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Count documents, sentences, content-word tokens and distinct lemmas.

    Only content words (NOUN/PROPN/VERB/ADJ) enter the token and
    vocabulary counts; lemmas are case-folded before deduplication.
    """
    coding, (table, content, _) = corpus.coding, corpus.lemmas
    return CorpusStats(
        num_documents=len(corpus.ids),
        num_sentences=len(coding.lengths),
        num_content_words=int(np.count_nonzero((content >= 0)[coding.token])),
        vocabulary_size=len(table),
    )
