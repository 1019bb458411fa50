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

from .corpus import _codes, _records
from .taxonomy import Taxonomy

Pair = tuple[str, str]  # (hyponym, hypernym)

# "No score": a NaN of its own payload (as R's NA_real_), distinct from nan.
_NO_SCORE_BITS = 0x7FF8_0000_0000_07A2
_NO_SCORE = np.array(_NO_SCORE_BITS, np.uint64).view(np.float64).item()


class RelationSet:
    """Immutable set of (hyponym, hypernym) pairs from one method.

    ``taxonomy`` is the set's one graph, one edge hypernym->hyponym per pair,
    kept with any closure taken.  Its sorted ``terms``, those the pairs use
    and no other, and read-only ``adj`` are the set's.  A scored set holds
    one float64 per pair in sorted pair order, the row-major order of
    ``adj.T``.  ``scores``, ``len``, ``in`` and ``==`` are read from these.
    """

    def __init__(self, method: str, pairs=(), scores=None) -> None:
        """The set of ``pairs``, each scored by the item of ``scores`` at
        its position (None throughout when ``scores`` is None).  Repeats
        keep the first score; a self-relation and scores of another length
        than the pairs raise ValueError, a None term TypeError."""
        pairs = list(pairs)
        if scores is not None:
            scores = np.array([_NO_SCORE if s is None else float(s) for s in scores], float)
            if len(scores) != len(pairs):
                raise ValueError(f"{len(scores)} scores for {len(pairs)} pairs")
        table, codes = _codes(list(chain.from_iterable(pairs)))
        if (codes < 0).any():
            raise TypeError("a relation's terms must be strings, not None")
        hypo, hyper = codes.reshape(-1, 2).T
        if (hypo == hyper).any():
            raise ValueError(f"self-relation not allowed: {table[hypo[hypo == hyper][0]]!r}")
        adj = np.zeros((len(table), len(table)), dtype=bool)
        adj[hyper, hypo] = True
        scored = scores is not None and (scores.view(np.uint64) != _NO_SCORE_BITS).any()
        # The sorted keys are the sorted pairs; each keeps its first score.
        first = np.unique(hypo * np.int64(len(table)) + hyper, return_index=True)[1]
        self._set(method, table, adj, scores[first] if scored else None)

    @classmethod
    def from_mask(cls, method: str, table, adj: np.ndarray, scores=None) -> "RelationSet":
        """The pairs (table[v] is-a table[u]) where ``adj[u, v]`` over the sorted
        ``table``, scored ``scores[u, v]`` if given.  ``adj`` is cut to the
        terms its pairs use, or kept, read-only, when it uses all of them."""
        out = cls.__new__(cls)
        scores = None if scores is None else scores.T[adj.T].astype(float)
        used = np.flatnonzero(adj.any(axis=0) | adj.any(axis=1))
        if len(used) < len(table):  # rows, then columns: C-ordered, faster than np.ix_
            table, adj = [table[i] for i in used.tolist()], adj.take(used, 0).take(used, 1)
        out._set(method, table, adj, scores)
        return out

    def _set(self, method: str, terms, adj: np.ndarray, scores) -> None:
        self.method, self.taxonomy, self._scores = method, Taxonomy._of(terms, adj), scores
        self.terms, self.adj = self.taxonomy.terms, self.taxonomy.adj

    @property
    def scores(self) -> tuple[float | None, ...]:
        if self._scores is None:
            return (None,) * len(self)
        none = self._scores.view(np.uint64) == _NO_SCORE_BITS
        return tuple(np.where(none, None, self._scores.astype(object)))

    def __len__(self) -> int:
        return self.taxonomy.num_edges

    def __contains__(self, pair: Pair) -> bool:
        i, j = (bisect_left(self.terms, term) for term in pair)
        return self.terms[i : i + 1] + self.terms[j : j + 1] == tuple(pair) and self.adj[j, i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationSet):
            return False
        return self.terms == other.terms and np.array_equal(self.adj, other.adj)

    def __repr__(self) -> str:
        return f"RelationSet({self.method!r}, {len(self)} relations)"

    def pair_set(self) -> set[Pair]:
        return {(hypo, hyper) for hyper, hypo in self.taxonomy.edges()}


def relations_text(relset: RelationSet) -> str:
    """Sorted ``hyponym<TAB>hypernym<TAB>method<TAB>score`` lines."""
    terms, method = relset.terms, relset.method
    hypo, hyper = np.nonzero(relset.adj.T)
    return "".join(
        f"{terms[i]}\t{terms[j]}\t{method}\t{'' if score is None else repr(score)}\n"
        for i, j, score in zip(hypo.tolist(), hyper.tolist(), relset.scores)
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
