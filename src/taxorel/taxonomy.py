"""Hypernym digraphs: assembly, cycle breaking, transitive reduction,
hierarchy metrics and the single-parent filter.

Edges point from a hypernym to one of its hyponyms.  A taxonomy in the
metric sense is one weakly-connected component together with its roots
(nodes without a parent); leaves are nodes without hyponyms.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .contexts import ContextMatrix
from .relations import RelationSet

Edge = tuple[str, str]  # (hypernym, hyponym)


class Taxonomy:
    """Immutable directed graph of terms under "is hypernym of" edges.

    Self-loop edges are discarded at construction.  Operations that change
    the edge set return new instances.
    """

    def __init__(self, edges: Iterable[Edge] = (), nodes: Iterable[str] = ()) -> None:
        self._children: dict[str, set[str]] = {}
        self._parents: dict[str, set[str]] = {}
        self._nodes: set[str] = set(nodes)
        for hyper, hypo in edges:
            if hyper == hypo:
                continue
            self._nodes.add(hyper)
            self._nodes.add(hypo)
            self._children.setdefault(hyper, set()).add(hypo)
            self._parents.setdefault(hypo, set()).add(hyper)
        self._dag: bool | None = None

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def edge_set(self) -> set[Edge]:
        return {(u, v) for u, vs in self._children.items() for v in vs}

    def edges(self) -> list[Edge]:
        return sorted(self.edge_set())

    @property
    def num_edges(self) -> int:
        return sum(len(vs) for vs in self._children.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def children(self, term: str) -> frozenset[str]:
        return frozenset(self._children.get(term, ()))

    def parents(self, term: str) -> frozenset[str]:
        return frozenset(self._parents.get(term, ()))

    def contains_term(self, term: str) -> bool:
        return term in self._nodes

    def term_set(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def reaches(self, ancestor: str, descendant: str) -> bool:
        """True iff ``descendant`` is below ``ancestor`` via >= 1 edge."""
        if ancestor not in self._nodes or descendant not in self._nodes:
            return False
        seen: set[str] = set()
        queue = deque(self._children.get(ancestor, ()))
        while queue:
            cur = queue.popleft()
            if cur == descendant:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            queue.extend(self._children.get(cur, ()))
        return False

    def ancestor_distances(self, term: str) -> dict[str, int]:
        """Shortest upward distance to every ancestor of ``term``."""
        dist: dict[str, int] = {}
        queue = deque((p, 1) for p in self._parents.get(term, ()))
        while queue:
            cur, d = queue.popleft()
            if cur in dist:
                continue
            dist[cur] = d
            queue.extend((p, d + 1) for p in self._parents.get(cur, ()))
        return dist

    def ancestor_masks(self, terms: Sequence[str]) -> list[int]:
        """For each of ``terms``, the ``terms`` above it via >= 1 edge.

        Each result is a bitmask in which bit i stands for ``terms[i]``; a
        term's own bit is set only when a cycle runs through it.  One
        closure serves every term: strongly connected components are
        condensed, then ancestor masks are OR-ed component by component,
        each after every component above it.  Terms missing from the graph
        get 0.
        """
        comp = _strongly_connected(self._nodes, self._parents)
        bit = {term: 1 << i for i, term in enumerate(terms)}
        ncomp = max(comp.values(), default=-1) + 1
        members = [0] * ncomp
        above: list[set[int]] = [set() for _ in range(ncomp)]
        for node, k in comp.items():
            members[k] |= bit.get(node, 0)
            above[k].update(comp[p] for p in self._parents.get(node, ()))
        # Tarjan numbers a component only after every component it reaches,
        # so each mask in ``above[k]`` is final before k; an edge inside k
        # (a cycle) adds k's own members while reach[k] is still 0.
        reach = [0] * ncomp
        for k in range(ncomp):
            mask = 0
            for j in above[k]:
                mask |= members[j] | reach[j]
            reach[k] = mask
        return [reach[comp[term]] if term in comp else 0 for term in terms]

    @property
    def is_dag(self) -> bool:
        if self._dag is None:
            self._dag = len(self._topological_order()) == len(self._nodes)
        return self._dag

    def _topological_order(self) -> list[str]:
        """Kahn's algorithm; shorter than |nodes| iff the graph has a cycle."""
        indeg = {n: len(self._parents.get(n, ())) for n in self._nodes}
        queue = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: list[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for child in self._children.get(node, ()):
                indeg[child] -= 1
                if indeg[child] == 0:
                    queue.append(child)
        return order


def build_taxonomy(relset: RelationSet) -> Taxonomy:
    """One edge hypernym->hyponym per relation, deduplicated."""
    return Taxonomy((hyper, hypo) for hypo, hyper in relset.pair_set())


def _strongly_connected(nodes: set[str], children: dict[str, set[str]]) -> dict[str, int]:
    """Iterative Tarjan; returns a component id per node."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, int] = {}
    counter = 0
    ncomp = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(sorted(children.get(root, ()))))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(children.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp[member] = ncomp
                    if member == node:
                        break
                ncomp += 1
    return comp


def break_cycles(t: Taxonomy) -> Taxonomy:
    """Remove cycle edges until the graph is acyclic.

    While a cycle exists, the edge on some cycle whose (hyponym, hypernym)
    pair is lexicographically largest is removed; only edges that belong to
    a cycle are ever dropped, and the rule is deterministic and idempotent.
    """
    edges = t.edge_set()
    nodes = set(t.nodes)
    while True:
        children: dict[str, set[str]] = {}
        for u, v in edges:
            children.setdefault(u, set()).add(v)
        comp = _strongly_connected(nodes, children)
        cyclic = [(u, v) for u, v in edges if comp[u] == comp[v]]
        if not cyclic:
            break
        edges.remove(max(cyclic, key=lambda e: (e[1], e[0])))
    return Taxonomy(edges, nodes=t.nodes)


def transitive_reduction(t: Taxonomy) -> Taxonomy:
    """Minimum edge set with the original reachability (unique for a DAG).

    An edge p->v is redundant exactly when p is an ancestor of another
    parent of v; ancestor sets come from :meth:`Taxonomy.ancestor_masks`.
    Raises ValueError on cyclic input.
    """
    nodes = sorted(t.nodes)
    bit = {node: 1 << i for i, node in enumerate(nodes)}
    anc = dict(zip(nodes, t.ancestor_masks(nodes)))
    if any(anc[node] & bit[node] for node in nodes):
        raise ValueError("transitive reduction requires an acyclic taxonomy")
    kept: list[Edge] = []
    for node in nodes:
        parents = t.parents(node)
        union = 0
        for p in parents:
            union |= anc[p]
        kept.extend((p, node) for p in parents if not bit[p] & union)
    return Taxonomy(kept, nodes=t.nodes)


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
        return {
            "total_terms": self.total_terms,
            "total_roots": self.total_roots,
            "number_rels": self.number_rels,
            "max_depth": self.max_depth,
            "min_depth": self.min_depth,
            "avg_depth": self.avg_depth,
            "avg_depth_per_leaf": self.avg_depth_per_leaf,
            "depth_cohesion": self.depth_cohesion,
            "depth_cohesion_per_leaf": self.depth_cohesion_per_leaf,
            "max_width": self.max_width,
            "min_width": self.min_width,
            "avg_width": self.avg_width,
        }


def _components(t: Taxonomy) -> list[set[str]]:
    seen: set[str] = set()
    comps: list[set[str]] = []
    for start in sorted(t.nodes):
        if start in seen:
            continue
        comp: set[str] = set()
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if node in comp:
                continue
            comp.add(node)
            queue.extend(t.children(node))
            queue.extend(t.parents(node))
        seen |= comp
        comps.append(comp)
    return comps


def compute_metrics(t: Taxonomy) -> HierarchyMetrics:
    """Hierarchy metrics of a reduced DAG taxonomy.

    Raises ValueError on an empty or cyclic taxonomy (leaf depths are
    longest paths, which need acyclicity).
    """
    if not t.nodes:
        raise ValueError("cannot compute metrics of an empty taxonomy")
    order = t._topological_order()
    if len(order) != len(t.nodes):
        raise ValueError("metrics require an acyclic taxonomy")

    depth = {node: 0 for node in order}
    for node in order:
        for child in t.children(node):
            depth[child] = max(depth[child], depth[node] + 1)

    roots = sorted(n for n in t.nodes if not t.parents(n))
    leaves = sorted(n for n in t.nodes if not t.children(n))
    leaf_depths = [depth[leaf] for leaf in leaves]
    total_roots = len(roots)
    depth_sum = sum(leaf_depths)
    max_depth = max(leaf_depths)
    min_depth = min(leaf_depths)
    avg_depth = depth_sum / total_roots
    avg_depth_per_leaf = depth_sum / len(leaves)

    widths = {n: len(t.children(n)) for n in t.nodes if t.children(n)}
    tax_widths = []
    for comp in _components(t):
        comp_parents = [n for n in comp if n in widths]
        if comp_parents:
            tax_widths.append(
                sum(widths[n] for n in comp_parents) / len(comp_parents)
            )
    return HierarchyMetrics(
        total_terms=len(t.nodes),
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
        max_width=max(widths.values(), default=0),
        min_width=min(widths.values(), default=0),
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
    doc_sets = {n: frozenset(docm.row(n)) for n in t.nodes}

    edges = t.edge_set()
    for x in sorted(t.nodes):
        parents = sorted(t.parents(x))
        if len(parents) < 2:
            continue
        dx = doc_sets[x]
        best_parent = None
        best_score = Fraction(-1)
        for p in parents:
            # Score times |D_x|, which all candidates share: integer counts
            # summed per distance, p itself weighing 1 like a distance-1
            # ancestor, then one exact fraction per distance.
            counts = {1: len(doc_sets[p] & dx)}
            for ancestor, d in t.ancestor_distances(p).items():
                counts[d] = counts.get(d, 0) + len(doc_sets[ancestor] & dx)
            score = sum(Fraction(k, d) for d, k in counts.items())
            if score > best_score:
                best_parent, best_score = p, score
        for p in parents:
            if p != best_parent:
                edges.discard((p, x))
    return Taxonomy(edges, nodes=t.nodes)


def taxonomy_relations(t: Taxonomy, method: str) -> RelationSet:
    """The taxonomy's direct edges as a relation set."""
    relset = RelationSet(method)
    for hyper, hypo in t.edges():
        relset.add(hypo, hyper)
    return relset


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
