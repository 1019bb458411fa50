"""Hypernym digraphs: assembly, cycle breaking, transitive reduction,
hierarchy metrics and the single-parent filter.

Edges point from a hypernym to one of its hyponyms.  A taxonomy in the
metric sense is one weakly-connected component together with its roots
(nodes without a parent); leaves are nodes without hyponyms.

A taxonomy is a sorted term table and a boolean adjacency matrix over it.
Every question of what reaches what (descendants, cycles, edges implied by
a path) is answered from one transitive closure of the graph, taken by
repeated boolean squaring; weak components need none.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .contexts import ContextMatrix, _gram
from .corpus import _codes

Edge = tuple[str, str]  # (hypernym, hyponym)


def _middle(adj: np.ndarray) -> np.ndarray:
    """The nodes with an in-edge and an out-edge, which every longer path crosses."""
    return np.flatnonzero(adj.any(axis=0) & adj.any(axis=1))


def _closure(adj: np.ndarray) -> np.ndarray:
    """Boolean matrix whose [u, v] is set iff a path of >= 1 edge of ``adj``
    leads from u to v; [u, u] is set exactly when a cycle runs through u.

    Repeated squaring through the middle nodes, if any: after k products
    every path of up to 2**k edges is in, and the first product that adds
    no pair ends it (the first, on a transitive graph); with none, ``adj``
    itself is returned.  float32 is exact: a cell counts at most n < 2**24 paths.
    """
    reach, mid = adj, _middle(adj)
    while len(mid):
        step = reach[:, mid].astype(np.float32) @ reach[mid].astype(np.float32) > 0
        if not (step > reach).any():
            break
        reach = reach | step
    return reach


class Taxonomy:
    """Immutable directed graph of terms under "is hypernym of" edges.

    ``terms`` is the sorted tuple of nodes and ``adj`` the read-only boolean
    matrix over them, with ``adj[u, v]`` set for an edge from hypernym u to
    hyponym v.  Self-loop edges are discarded, the others scattered over the
    terms; a None term raises TypeError.  Edge changes return new instances.
    """

    def __init__(self, edges: Iterable[Edge] = (), nodes: Iterable[str] = ()) -> None:
        nodes, edges = list(nodes), [(u, v) for u, v in edges if u != v]
        terms, codes = _codes(nodes + [term for edge in edges for term in edge])
        if (codes < 0).any():
            raise TypeError("a taxonomy's terms must be strings, not None")
        hyper, hypo = codes[len(nodes) :].reshape(-1, 2).T
        adj = np.zeros((len(terms), len(terms)), dtype=bool)
        adj[hyper, hypo] = True
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


def build_taxonomy(relset) -> Taxonomy:
    """The taxonomy ``relset`` holds, one edge hypernym->hyponym per relation."""
    return relset.taxonomy


def _reaches(adj: np.ndarray, source: int, target: int) -> bool:
    """True iff a path of >= 1 edge of ``adj`` leads from source to target."""
    frontier = seen = adj[source].copy()
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
    dropping each that still closes one, removes the same edges.  An
    acyclic ``t`` is returned itself.
    """
    # Edge u->v lies on a cycle iff v reaches u.
    hyper, hypo = np.nonzero(t.adj & t.closure.T)
    if not len(hyper):
        return t
    adj = t.adj.copy()
    for k in np.lexsort((hyper, hypo))[::-1].tolist():
        if _reaches(adj, hypo[k], hyper[k]):
            adj[hyper[k], hypo[k]] = False
    return Taxonomy._of(t.terms, adj)


def transitive_reduction(t: Taxonomy) -> Taxonomy:
    """Minimum edge set with the original reachability (unique for a DAG).

    An edge u->v is redundant exactly when a longer path also leads from u
    to v, that is, when v is below a child of u that has a child (a middle
    node, M): the edges kept are ``A & ~(A[:, M]·R[M] > 0)`` for adjacency A
    and closure R, the result's closure too (``t`` itself without M).
    Raises ValueError on cyclic input.
    """
    if not t.is_dag:
        raise ValueError("transitive reduction requires an acyclic taxonomy")
    mid = _middle(t.adj)
    if not len(mid):
        return t
    implied = t.adj[:, mid].astype(np.float32) @ t.closure[mid].astype(np.float32) > 0
    reduced = Taxonomy._of(t.terms, t.adj & ~implied)
    reduced.closure = t.closure
    return reduced


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
    max_depth, min_depth = max(leaf_depths), min(leaf_depths)
    avg_depth, avg_depth_per_leaf = depth_sum / total_roots, depth_sum / len(leaf_depths)

    widths = adj.sum(axis=1)
    inner = widths > 0
    # Weak components, each named by its first term: every label drops to its
    # neighbours' smallest, then to its own label's, until none changes.
    hyper, hypo = np.nonzero(adj)
    label, last = np.arange(len(t.terms)), None
    while not np.array_equal(label, last):
        last, label = label, label.copy()
        np.minimum.at(label, hyper, last[hypo])
        np.minimum.at(label, hypo, last[hyper])
        label = label[label]
    component = label[inner]
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

    A candidate parent p of x scores P(p|x) plus P(a|x)/d for each ancestor a
    of p, d being the length of the shortest path from p up to a (d=1 for a
    direct parent of p).  On a cycle p is its own ancestor and counts again
    at the cycle's length; so does x when it lies above p.  P(a|x) =
    |D_a n D_x| / |D_x| over document sets, zero for terms missing from the
    matrix.  Ties keep the lexicographically smaller parent.  Scores compare
    exactly at any depth, as the integers score * |D_x| * lcm(1..depth).
    """
    multi = np.flatnonzero(np.count_nonzero(t.adj, axis=0) >= 2)
    if not len(multi):
        return t
    docs = docm.rows_of(t.terms)
    # shared[i, a] = |D_x n D_a| for x = multi[i]; exact integers in float64
    # while |D_x| * n < 2**53, and so are its products with 0/1 matrices.
    shared = _gram(docs, lambda u, v: 1.0)[multi]
    # Candidate edges, by node and then ascending parent; cands[pos] == parent.
    node, parent = np.nonzero(t.adj[:, multi].T)
    cands, pos = np.unique(parent, return_inverse=True)
    # Ancestors of the candidates one level at a time: at step d, level[r, c]
    # is set iff the shortest path from cands[r] up to cols[c] has d edges; a
    # candidate on a cycle reaches itself.  Only the frontier's columns are kept.
    up = np.ascontiguousarray(t.adj.T)
    cols, level = np.arange(len(t.terms)), up[cands]
    seen, sums = level.copy(), []
    while level.any():
        used = level.any(axis=0)
        cols, level = cols[used], level[:, used]
        sums.append((shared[:, cols] @ level.T)[node, pos])
        step = up[cols]
        cols = np.flatnonzero(step.any(axis=0))
        level = (level @ step[:, cols].astype(np.float32) > 0) & ~seen[:, cols]
        seen[:, cols] |= level
    lcm = math.lcm(*range(1, len(sums) + 1))
    score = lcm * shared[node, parent].astype(np.int64).astype(object)
    for d, total in enumerate(sums, 1):
        score += lcm // d * total.astype(np.int64).astype(object)

    best: dict[int, tuple[int, int]] = {}
    for i, p, s in zip(node.tolist(), parent.tolist(), score.tolist()):
        if i not in best or s > best[i][0]:
            best[i] = (s, p)
    adj = t.adj.copy()
    adj[:, multi] = False
    adj[[p for _, p in best.values()], multi] = True
    return Taxonomy._of(t.terms, adj)
