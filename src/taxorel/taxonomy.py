"""Hypernym digraphs: assembly, cycle breaking, transitive reduction,
hierarchy metrics and the single-parent filter.

Edges point from a hypernym to one of its hyponyms.  A taxonomy in the
metric sense is one weakly-connected component together with its roots
(nodes without a parent); leaves are nodes without hyponyms.

A taxonomy is a sorted term table and a boolean adjacency matrix over it.
Every question of what reaches what (descendants, cycles, edges implied by
a path, weak components) is answered from one transitive closure of the
graph, taken by Warshall's algorithm (1962) on bit-packed rows.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .contexts import ContextMatrix
from .relations import RelationSet

Edge = tuple[str, str]  # (hypernym, hyponym)


def _closure(adj: np.ndarray) -> np.ndarray:
    """Boolean matrix whose [u, v] is set iff a path of >= 1 edge of ``adj``
    leads from u to v; [u, u] is set exactly when a cycle runs through u.

    Warshall (1962) on rows packed eight bits to a byte: for each k in turn,
    every row that reaches k takes in the row of k.
    """
    n = len(adj)
    rows = np.packbits(adj, axis=1)
    for k in range(n):
        rows[rows[:, k >> 3] & (0x80 >> (k & 7)) != 0] |= rows[k]
    return np.unpackbits(rows, axis=1, count=n).view(bool)


class Taxonomy:
    """Immutable directed graph of terms under "is hypernym of" edges.

    ``terms`` is the sorted tuple of nodes and ``adj`` the read-only boolean
    matrix over them, with ``adj[u, v]`` set for an edge from hypernym u to
    hyponym v.  Self-loop edges are discarded at construction.  Operations
    that change the edge set return new instances.
    """

    def __init__(self, edges: Iterable[Edge] = (), nodes: Iterable[str] = ()) -> None:
        edges = [(u, v) for u, v in edges if u != v]
        terms = sorted(set(nodes).union(*edges))
        index = {term: i for i, term in enumerate(terms)}
        adj = np.zeros((len(terms), len(terms)), dtype=bool)
        adj[[index[u] for u, _ in edges], [index[v] for _, v in edges]] = True
        self._set(terms, adj)

    @classmethod
    def _of(cls, terms, adj: np.ndarray) -> "Taxonomy":
        out = cls.__new__(cls)
        out._set(terms, adj)
        return out

    def _set(self, terms, adj: np.ndarray) -> None:
        self.terms: tuple[str, ...] = tuple(terms)
        self.adj = adj
        adj.flags.writeable = False

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.terms)

    def edge_set(self) -> set[Edge]:
        return set(self.edges())

    def edges(self) -> list[Edge]:
        hyper, hypo = np.nonzero(self.adj)
        return [(self.terms[u], self.terms[v]) for u, v in zip(hyper.tolist(), hypo.tolist())]

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adj))

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}

    def parents(self, term: str) -> frozenset[str]:
        if term not in self._index:
            return frozenset()
        return frozenset(self.terms[p] for p in np.flatnonzero(self.adj[:, self._index[term]]))

    def contains_term(self, term: str) -> bool:
        return term in self._index

    def term_set(self) -> frozenset[str]:
        return self.nodes

    @cached_property
    def closure(self) -> np.ndarray:
        """Reachability over ``terms``: [u, v] is set iff v is below u via
        >= 1 edge, and [u, u] iff a cycle runs through u.  Taken once."""
        return _closure(self.adj)

    def reaches(self, ancestor: str, descendant: str) -> bool:
        """True iff ``descendant`` is below ``ancestor`` via >= 1 edge."""
        i, j = self._index.get(ancestor), self._index.get(descendant)
        return i is not None and j is not None and bool(self.closure[i, j])

    @property
    def is_dag(self) -> bool:
        return not self.closure.diagonal().any()

    def ancestor_distances(self, term: str) -> dict[str, int]:
        """Shortest upward distance to every ancestor of ``term``."""
        dist: dict[str, int] = {}
        queue = deque((p, 1) for p in self.parents(term))
        while queue:
            cur, d = queue.popleft()
            if cur in dist:
                continue
            dist[cur] = d
            queue.extend((p, d + 1) for p in self.parents(cur))
        return dist


def build_taxonomy(relset: RelationSet) -> Taxonomy:
    """One edge hypernym->hyponym per relation, over the relation set's terms."""
    adj = np.zeros((len(relset.terms), len(relset.terms)), dtype=bool)
    adj[relset.hyper, relset.hypo] = True
    return Taxonomy._of(relset.terms, adj)


def _reaches(adj: np.ndarray, source: int, target: int) -> bool:
    """True iff a path of >= 1 edge of ``adj`` leads from source to target."""
    seen = adj[source].copy()
    frontier = seen
    while not seen[target] and frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen[target])


def break_cycles(t: Taxonomy) -> Taxonomy:
    """Remove cycle edges until the graph is acyclic.

    While a cycle exists, the edge on some cycle whose (hyponym, hypernym)
    pair is lexicographically largest is removed; only edges that belong to
    a cycle are ever dropped, and the rule is deterministic and idempotent.
    Removing an edge never puts another edge on a cycle, so one pass over
    the edges on a cycle of ``t`` in descending (hyponym, hypernym) order,
    dropping each that still closes one, removes the same edges.
    """
    adj = t.adj.copy()
    # Edge u->v lies on a cycle iff v reaches u.
    hyper, hypo = np.nonzero(t.adj & t.closure.T)
    for k in np.lexsort((hyper, hypo))[::-1].tolist():
        if _reaches(adj, hypo[k], hyper[k]):
            adj[hyper[k], hypo[k]] = False
    return Taxonomy._of(t.terms, adj)


def transitive_reduction(t: Taxonomy) -> Taxonomy:
    """Minimum edge set with the original reachability (unique for a DAG).

    An edge u->v is redundant exactly when a longer path also leads from u
    to v, that is, when v is below some child of u: the edges kept are
    ``A & ~(A·R > 0)`` for adjacency A and closure R.  Raises ValueError on
    cyclic input.
    """
    if not t.is_dag:
        raise ValueError("transitive reduction requires an acyclic taxonomy")
    implied = t.adj.astype(np.float32) @ t.closure.astype(np.float32) > 0
    return Taxonomy._of(t.terms, t.adj & ~implied)


@dataclass(frozen=True)
class HierarchyMetrics:
    """Structural description of a (reduced) taxonomy forest.

    Depth of a leaf is the longest root-to-leaf path within its component.
    Width of a term is its number of direct hyponyms.  ``avg_depth`` sums
    leaf depths over the number of roots; ``avg_depth_per_leaf`` divides by
    the number of leaves instead (the two disagree whenever a component has
    more leaves than roots), and each has its own cohesion ratio.
    """

    total_terms: int
    total_roots: int
    number_rels: int
    max_depth: int
    min_depth: int
    avg_depth: float
    avg_depth_per_leaf: float
    depth_cohesion: float
    depth_cohesion_per_leaf: float
    max_width: int
    min_width: int
    avg_width: float

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(t: Taxonomy) -> HierarchyMetrics:
    """Hierarchy metrics of a reduced DAG taxonomy.

    Raises ValueError on an empty or cyclic taxonomy (leaf depths are
    longest paths, which need acyclicity).
    """
    if not t.terms:
        raise ValueError("cannot compute metrics of an empty taxonomy")
    if not t.is_dag:
        raise ValueError("metrics require an acyclic taxonomy")
    adj = t.adj
    roots, leaves = ~adj.any(axis=0), ~adj.any(axis=1)
    # A walk down from every root, one edge per step: the last step that
    # reaches a node is the length of its longest path from a root.
    depth = np.zeros(len(t.terms), dtype=np.int64)
    frontier, level = roots, 0
    while frontier.any():
        depth[frontier] = level
        frontier, level = adj[frontier].any(axis=0), level + 1

    leaf_depths = depth[leaves].tolist()
    total_roots = int(np.count_nonzero(roots))
    depth_sum = sum(leaf_depths)
    max_depth = max(leaf_depths)
    min_depth = min(leaf_depths)
    avg_depth = depth_sum / total_roots
    avg_depth_per_leaf = depth_sum / len(leaf_depths)

    widths = adj.sum(axis=1)
    inner = widths > 0
    # Weak components, each named by its first term: in the closure of the
    # undirected graph a term with an edge is linked to every term of its
    # component, itself included.
    component = _closure(adj | adj.T).argmax(axis=1)[inner]
    totals = np.bincount(component, weights=widths[inner]).tolist()
    counts = np.bincount(component).tolist()
    tax_widths = [total / count for total, count in zip(totals, counts) if count]
    return HierarchyMetrics(
        total_terms=len(t.terms),
        total_roots=total_roots,
        number_rels=t.num_edges,
        max_depth=max_depth,
        min_depth=min_depth,
        avg_depth=avg_depth,
        avg_depth_per_leaf=avg_depth_per_leaf,
        depth_cohesion=max_depth / avg_depth if avg_depth else 0.0,
        depth_cohesion_per_leaf=(
            max_depth / avg_depth_per_leaf if avg_depth_per_leaf else 0.0
        ),
        max_width=int(widths.max()),
        min_width=int(widths[inner].min()) if inner.any() else 0,
        avg_width=sum(tax_widths) / total_roots if tax_widths else 0.0,
    )


def best_parent_filter(t: Taxonomy, docm: ContextMatrix) -> Taxonomy:
    """Keep at most one parent per node, scored by document co-occurrence.

    A candidate parent p of x scores P(p|x) plus, for each ancestor a of p,
    P(a|x) weighted by 1/d where d counts the edges from p up to a (a direct
    parent of p has d=1).  P(a|x) = |D_a n D_x| / |D_x| over document sets;
    terms missing from the matrix contribute zero everywhere.  Score ties
    keep the lexicographically smaller parent.  Scores are compared exactly,
    so a tie is found whatever order the ancestors are summed in.
    """
    doc_sets = {n: frozenset(docm.row(n)) for n in t.terms}

    adj = t.adj.copy()
    for x, name in enumerate(t.terms):
        parents = np.flatnonzero(t.adj[:, x]).tolist()
        if len(parents) < 2:
            continue
        dx = doc_sets[name]
        best_parent = None
        best_score = Fraction(-1)
        for p in parents:
            # Score times |D_x|, which all candidates share: integer counts
            # summed per distance, p itself weighing 1 like a distance-1
            # ancestor, then one exact fraction per distance.
            counts = {1: len(doc_sets[t.terms[p]] & dx)}
            for ancestor, d in t.ancestor_distances(t.terms[p]).items():
                counts[d] = counts.get(d, 0) + len(doc_sets[ancestor] & dx)
            score = sum(Fraction(k, d) for d, k in counts.items())
            if score > best_score:
                best_parent, best_score = p, score
        adj[parents, x] = False
        adj[best_parent, x] = True
    return Taxonomy._of(t.terms, adj)


def taxonomy_relations(t: Taxonomy, method: str) -> RelationSet:
    """The taxonomy's direct edges as a relation set."""
    return RelationSet.from_mask(method, t.terms, t.adj.T)


def save_taxonomy(t: Taxonomy, path: str | Path) -> None:
    """Write sorted ``hypernym<TAB>hyponym`` edge lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for hyper, hypo in t.edges():
            fh.write(f"{hyper}\t{hypo}\n")


def load_taxonomy(path: str | Path) -> Taxonomy:
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
            edges.append((fields[0], fields[1]))
    return Taxonomy(edges)
