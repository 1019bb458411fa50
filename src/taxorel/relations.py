"""Directed is-a relation sets with TSV persistence.

A relation points from a hyponym (the narrower term) to a hypernym (the
broader term).  A relation set holds the relations of one method, tagged
with its name, each with an optional method-specific score.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import _records

Pair = tuple[str, str]  # (hyponym, hypernym)


class RelationSet:
    """Immutable set of (hyponym, hypernym) pairs from one method.

    ``terms`` is the sorted tuple of the terms the pairs use; ``hypo`` and
    ``hyper`` are int32 index arrays into it, sorted by (hyponym, hypernym),
    and ``scores`` holds each pair's score (a float, or None) in the same
    order.  A pair set has only one such form, so sets compare by it.
    """

    def __init__(self, method: str, pairs=(), scores=None) -> None:
        """The set of ``pairs``, each scored by the item of ``scores`` at
        its position (None throughout when ``scores`` is None), held as a
        Python float or None.  Repeats keep the first score; a self-relation
        and scores of another length than the pairs raise ValueError."""
        pairs = list(pairs)
        scores = np.full(len(pairs), None) if scores is None else np.fromiter(scores, object)
        if len(scores) != len(pairs):
            raise ValueError(f"{len(scores)} scores for {len(pairs)} pairs")
        terms = sorted({term for pair in pairs for term in pair})
        index = {term: i for i, term in enumerate(terms)}
        codes = np.fromiter(map(index.__getitem__, chain.from_iterable(pairs)), np.int64)
        hypo, hyper = codes.reshape(-1, 2).T
        if (hypo == hyper).any():
            raise ValueError(f"self-relation not allowed: {terms[hypo[hypo == hyper][0]]!r}")
        # The sorted keys are the sorted pairs; each keeps its first score.
        _, first = np.unique(hypo * len(terms) + hyper, return_index=True)
        scores = [None if score is None else float(score) for score in scores[first].tolist()]
        self._set(method, terms, hypo[first], hyper[first], scores)

    @classmethod
    def from_mask(cls, method: str, terms, mask: np.ndarray, scores=None) -> "RelationSet":
        """The pairs (terms[i] is-a terms[j]) where ``mask[i, j]``, scored
        ``scores[i, j]`` when scores are given; ``terms`` must be sorted."""
        hypo, hyper = np.nonzero(mask)
        used = mask.any(axis=0) | mask.any(axis=1)
        position = np.cumsum(used) - 1
        out = cls.__new__(cls)
        out._set(
            method,
            [term for term, keep in zip(terms, used.tolist()) if keep],
            position[hypo],
            position[hyper],
            [None] * len(hypo) if scores is None else scores[hypo, hyper].tolist(),
        )
        return out

    def _set(self, method: str, terms, hypo, hyper, scores: list) -> None:
        self.method = method
        self.terms: tuple[str, ...] = tuple(terms)
        self.hypo = np.asarray(hypo, dtype=np.int32)
        self.hyper = np.asarray(hyper, dtype=np.int32)
        self.hypo.flags.writeable = self.hyper.flags.writeable = False
        self.scores: tuple[float | None, ...] = tuple(scores)

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, pair: Pair) -> bool:
        i, j = (bisect_left(self.terms, term) for term in pair)
        found = self.terms[i : i + 1] + self.terms[j : j + 1] == tuple(pair)
        return found and bool(((self.hypo == i) & (self.hyper == j)).any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationSet) or self.terms != other.terms:
            return False
        return np.array_equal(self.hypo, other.hypo) and np.array_equal(self.hyper, other.hyper)

    def __repr__(self) -> str:
        return f"RelationSet({self.method!r}, {len(self)} relations)"

    def pair_set(self) -> set[Pair]:
        terms = self.terms
        return {(terms[i], terms[j]) for i, j in zip(self.hypo.tolist(), self.hyper.tolist())}


def relations_text(relset: RelationSet) -> str:
    """Sorted ``hyponym<TAB>hypernym<TAB>method<TAB>score`` lines."""
    terms, method = relset.terms, relset.method
    return "".join(
        f"{terms[i]}\t{terms[j]}\t{method}\t{'' if score is None else repr(score)}\n"
        for i, j, score in zip(relset.hypo.tolist(), relset.hyper.tolist(), relset.scores)
    )


def load_relations(path: str | Path, method: str | None = None) -> RelationSet:
    """Read a relations TSV; the method tag must be uniform across lines.

    ``method``, when given, replaces the file's tag, which is ``""`` for a
    file without lines.  Bad lines (an empty term, a self-relation, a
    repeated pair, a non-numeric score) name ``file:line``.
    """
    pairs: dict[Pair, float | None] = {}
    tags: set[str] = set()

    def row(hypo: str, hyper: str, tag: str, score: str) -> None:
        tags.add(tag)
        if len(tags) > 1:
            raise ValueError("mixed method tags in one file")
        if not hypo or not hyper:
            raise ValueError("empty hyponym or hypernym")
        if hypo == hyper:
            raise ValueError(f"self-relation not allowed: {hypo!r}")
        if (hypo, hyper) in pairs:
            raise ValueError(f"duplicate relation {hypo!r} {hyper!r}")
        pairs[(hypo, hyper)] = float(score) if score else None

    _records(path, 4, row)
    return RelationSet(method or next(iter(tags), ""), pairs, pairs.values())
