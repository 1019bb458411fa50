"""Gold-standard synset digraph with transitive hypernym queries.

A gold taxonomy is a directed graph of synsets (sets of synonymous lemmas)
whose edges point from a synset to its hypernym synsets.  Queries are
lemma-level: a lemma is a hypernym of another if any synset of the latter
reaches any synset of the former through one or more hypernym edges.

Lemmas are case-folded for lookup; diacritics are preserved.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import _records


class GoldFormatError(ValueError):
    """Malformed synset-lines input; the message carries file and line."""


@dataclass(frozen=True)
class Synset:
    id: int
    lemmas: frozenset[str]
    hypernym_ids: frozenset[int]

    def __post_init__(self) -> None:
        if not self.lemmas:
            raise ValueError(f"synset {self.id} has no lemmas")


class GoldTaxonomy:
    """Immutable synset graph with a lemma index and reachability queries."""

    def __init__(self, synsets: Iterable[Synset]) -> None:
        self._synsets: dict[int, Synset] = {}
        for syn in synsets:
            if syn.id in self._synsets:
                raise ValueError(f"duplicate synset id {syn.id}")
            # A synset listed as its own hypernym is a self-cycle; drop it.
            if syn.id in syn.hypernym_ids:
                syn = Synset(syn.id, syn.lemmas, syn.hypernym_ids - {syn.id})
            self._synsets[syn.id] = syn
        self._lemma_index: dict[str, set[int]] = {}
        for syn in self._synsets.values():
            for hid in syn.hypernym_ids:
                if hid not in self._synsets:
                    raise ValueError(f"synset {syn.id} references unknown hypernym id {hid}")
            for lemma in syn.lemmas:
                self._lemma_index.setdefault(lemma.casefold(), set()).add(syn.id)
        self._order_code: dict[str, int] = {}  # each lemma's row and column in _order
        self._order_asked: set[str] = set()
        self._order = np.zeros((0, 0), dtype=bool)

    @property
    def synsets(self) -> dict[int, Synset]:
        return dict(self._synsets)

    def __len__(self) -> int:
        return len(self._synsets)

    def contains_term(self, lemma: str) -> bool:
        return lemma.casefold() in self._lemma_index

    def term_set(self) -> frozenset[str]:
        return frozenset(self._lemma_index)

    def is_hypernym(self, hyper: str, hypo: str) -> bool:
        """True iff some synset of ``hypo`` reaches some synset of ``hyper``.

        Unknown lemmas yield False rather than an error, keeping evaluation
        loops total.
        """
        return hyper.casefold() in self.ancestor_lemmas(hypo)

    reaches = is_hypernym  # the interface shared with Taxonomy

    def ancestor_lemmas(self, lemma: str) -> frozenset[str]:
        """Case-folded lemmas of every transitive hypernym synset of ``lemma``.

        One walk goes up from the hypernyms of all of the lemma's synsets.
        Its visited set makes cycles among distinct synsets (present in
        noisy gold data) terminate.  A synset of the lemma itself counts only
        when reached through >= 1 edge: by a cycle, or from another of the
        lemma's synsets.  Each call walks anew; evaluation keeps the answers
        in its order table (:meth:`_ancestor_order`).
        """
        synsets, seen = self._synsets, set()
        stack = [h for s in self._lemma_index.get(lemma.casefold(), ()) for h in synsets[s].hypernym_ids]
        while stack:
            sid = stack.pop()
            if sid not in seen:
                seen.add(sid)
                stack.extend(synsets[sid].hypernym_ids)
        return frozenset(l.casefold() for sid in seen for l in synsets[sid].lemmas)

    def _ancestor_order(self, terms: list[str]) -> np.ndarray:
        """Boolean matrix over gold ``terms`` whose [a, d] is set iff the
        case-folded a is in ``ancestor_lemmas(d)``: a slice of one matrix over
        the lemmas asked about so far and the lemmas above them, in which a
        lemma's column is filled once, when it is first asked about."""
        code, keys = self._order_code, [term.casefold() for term in terms]
        rows, cols = [], []
        for key in dict.fromkeys(keys):
            if key not in self._order_asked:
                self._order_asked.add(key)
                d = code.setdefault(key, len(code))
                for a in self.ancestor_lemmas(key):
                    rows.append(code.setdefault(a, len(code)))
                    cols.append(d)
        if len(code) > len(self._order):
            self._order = np.pad(self._order, (0, len(code) - len(self._order)))
        self._order[rows, cols] = True
        at = [code[key] for key in keys]
        return self._order[at][:, at]

def load_gold(path: str | Path) -> GoldTaxonomy:
    """Read a synset-lines file: ``id<TAB>lemma1|lemma2|...<TAB>hyp1,hyp2,...``.

    An empty third field marks a root synset.  Self-cycles are dropped;
    duplicate ids and dangling hypernym references are errors.
    """
    synsets: dict[int, Synset] = {}

    def row(sid: str, lemmas: str, hypernyms: str) -> None:
        try:
            sid = int(sid)
        except ValueError:
            raise ValueError(f"bad synset id {sid!r}") from None
        if sid in synsets:
            raise ValueError(f"duplicate synset id {sid}")
        try:
            hypernym_ids = frozenset(int(x) for x in hypernyms.split(",") if x)
        except ValueError:
            raise ValueError(f"bad hypernym id list {hypernyms!r}") from None
        synsets[sid] = Synset(sid, frozenset(x for x in lemmas.split("|") if x), hypernym_ids)

    _records(path, 3, row, GoldFormatError)
    try:
        return GoldTaxonomy(synsets.values())
    except ValueError as exc:
        raise GoldFormatError(f"{path}: {exc}") from None
