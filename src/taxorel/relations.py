"""Directed is-a relation sets with TSV persistence.

A relation points from a hyponym (the narrower term) to a hypernym (the
broader term) and carries the tag of the method that produced it plus an
optional method-specific score.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

Pair = tuple[str, str]  # (hyponym, hypernym)


@dataclass(frozen=True)
class Relation:
    hyponym: str
    hypernym: str
    method: str
    score: float | None = None


class RelationSet:
    """Deduplicated set of (hyponym, hypernym) pairs from one method."""

    def __init__(self, method: str) -> None:
        self.method = method
        self._pairs: dict[Pair, float | None] = {}

    def add(self, hyponym: str, hypernym: str, score: float | None = None) -> None:
        """Insert a pair; repeats keep the first score seen."""
        if hyponym == hypernym:
            raise ValueError(f"self-relation not allowed: {hyponym!r}")
        self._pairs.setdefault((hyponym, hypernym), score)

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._pairs

    def __iter__(self):
        for hypo, hyper in sorted(self._pairs):
            yield Relation(hypo, hyper, self.method, self._pairs[(hypo, hyper)])

    def __eq__(self, other) -> bool:
        return isinstance(other, RelationSet) and self._pairs.keys() == other._pairs.keys()

    def __repr__(self) -> str:
        return f"RelationSet({self.method!r}, {len(self)} relations)"

    def pair_set(self) -> set[Pair]:
        return set(self._pairs)

    def score(self, hyponym: str, hypernym: str) -> float | None:
        return self._pairs[(hyponym, hypernym)]

    def inverted(self) -> "RelationSet":
        """The same pairs with hyponym and hypernym swapped."""
        out = RelationSet(self.method)
        for (hypo, hyper), score in self._pairs.items():
            out.add(hyper, hypo, score)
        return out

    def restricted(self, pairs: set[Pair], method: str | None = None) -> "RelationSet":
        """Subset of this set containing only the given pairs."""
        out = RelationSet(method or self.method)
        for pair in self._pairs.keys() & pairs:
            out.add(pair[0], pair[1], self._pairs[pair])
        return out


def relations_text(relset: RelationSet) -> str:
    """Sorted ``hyponym<TAB>hypernym<TAB>method<TAB>score`` lines."""
    return "".join(
        f"{rel.hyponym}\t{rel.hypernym}\t{rel.method}\t"
        f"{'' if rel.score is None else repr(rel.score)}\n"
        for rel in relset
    )


def save_relations(relset: RelationSet, path: str | Path) -> None:
    """Write :func:`relations_text` of ``relset`` to ``path``."""
    Path(path).write_text(relations_text(relset), encoding="utf-8")


def load_relations(path: str | Path, method: str | None = None) -> RelationSet:
    """Read a relations TSV; the method tag must be uniform across lines.

    ``method``, when given, replaces the file's tag.  Bad lines name ``file:line``.
    """
    path = Path(path)
    relset: RelationSet | None = None
    first_tag = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
            hypo, hyper, tag, score = fields
            if relset is None:
                relset, first_tag = RelationSet(method or tag), tag
            elif tag != first_tag:
                raise ValueError(f"{path}:{lineno}: mixed method tags in one file")
            try:
                relset.add(hypo, hyper, float(score) if score else None)
            except ValueError as exc:  # a self-relation or a non-numeric score
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if relset is None:
        if method is None:
            raise ValueError(f"{path}: empty relations file and no method given")
        relset = RelationSet(method)
    return relset
