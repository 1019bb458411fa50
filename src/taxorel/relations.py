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

Pair = tuple[str, str]  # (hyponym, hypernym)

# "No score": a NaN of its own payload (as R's NA_real_), distinct from nan.
_NO_SCORE_BITS = 0x7FF8_0000_0000_07A2
_NO_SCORE = np.array(_NO_SCORE_BITS, np.uint64).view(np.float64).item()


def _used_block(table, adj: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The terms an edge of ``adj`` starts or ends at, and ``adj`` over them."""
    used = np.flatnonzero(adj.any(axis=0) | adj.any(axis=1))
    if len(used) == len(table):
        return tuple(table), adj
    return tuple(table[i] for i in used.tolist()), adj[used][:, used]


class RelationSet:
    """Immutable set of (hyponym, hypernym) pairs from one method.

    ``table`` is a sorted tuple of terms and ``adj`` a read-only boolean
    matrix over it, oriented (hypernym, hyponym) like :attr:`Taxonomy.adj`.
    A scored set holds one float64 per pair in sorted pair order, the
    row-major order of ``adj.T``.  ``terms`` (the sorted terms of the
    pairs), ``scores``, ``len``, ``in`` and ``==`` are read from these.
    """

    def __init__(self, method: str, pairs=(), scores=None) -> None:
        """The set of ``pairs``, each scored by the item of ``scores`` at
        its position (None throughout when ``scores`` is None).  Repeats
        keep the first score; a self-relation and scores of another length
        than the pairs raise ValueError."""
        pairs = list(pairs)
        if scores is not None:
            scores = np.array([_NO_SCORE if s is None else float(s) for s in scores], float)
            if len(scores) != len(pairs):
                raise ValueError(f"{len(scores)} scores for {len(pairs)} pairs")
        table, codes = _codes(list(chain.from_iterable(pairs)))
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
        ``table``, scored ``scores[u, v]`` if given; ``adj`` is kept, read-only."""
        out = cls.__new__(cls)
        out._set(method, table, adj, None if scores is None else scores.T[adj.T].astype(float))
        return out

    def _set(self, method: str, table, adj: np.ndarray, scores) -> None:
        self.method, self.table, self.adj, self._scores = method, tuple(table), adj, scores
        adj.flags.writeable = False

    @property
    def terms(self) -> tuple[str, ...]:
        return _used_block(self.table, self.adj)[0]

    @property
    def scores(self) -> tuple[float | None, ...]:
        if self._scores is None:
            return (None,) * len(self)
        none = self._scores.view(np.uint64) == _NO_SCORE_BITS
        return tuple(np.where(none, None, self._scores.astype(object)))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.adj))

    def __contains__(self, pair: Pair) -> bool:
        i, j = (bisect_left(self.table, term) for term in pair)
        return self.table[i : i + 1] + self.table[j : j + 1] == tuple(pair) and self.adj[j, i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationSet):
            return False
        (a, x), (b, y) = _used_block(self.table, self.adj), _used_block(other.table, other.adj)
        return a == b and np.array_equal(x, y)

    def __repr__(self) -> str:
        return f"RelationSet({self.method!r}, {len(self)} relations)"

    def pair_set(self) -> set[Pair]:
        hyper, hypo = np.nonzero(self.adj)
        return {(self.table[i], self.table[j]) for i, j in zip(hypo.tolist(), hyper.tolist())}


def relations_text(relset: RelationSet) -> str:
    """Sorted ``hyponym<TAB>hypernym<TAB>method<TAB>score`` lines."""
    table, method = relset.table, relset.method
    hypo, hyper = np.nonzero(relset.adj.T)
    return "".join(
        f"{table[i]}\t{table[j]}\t{method}\t{'' if score is None else repr(score)}\n"
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
