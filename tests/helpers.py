"""Shared fixture builders and independent brute-force oracles.

The oracles here deliberately use different algorithms than the library
(sequential remove-and-test reduction, Floyd-Warshall closures, naive
pairwise agglomerative merging) so tests compare two independent routes.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from taxorel.contexts import POS_LETTER, ContextMatrix
from taxorel.corpus import (
    CONTENT_TAGS,
    TARGET_TAGS,
    Corpus,
    CorpusFormatError,
    CorpusStats,
    Document,
    Sentence,
    TaggedToken,
    TokenCoding,
    coarse_pos,
)
from taxorel.evaluation import evaluate
from taxorel.gold import GoldTaxonomy, Synset
from taxorel.patterns import PatternSet, PatternTemplate
from taxorel.relations import RelationSet
from taxorel.taxonomy import Taxonomy

_POS = {"N": "NOUN", "P": "PROPN", "V": "VERB", "J": "ADJ", "O": "OTHER"}


def outcome(call):
    """What ``call()`` returns, or the type and message of the exception it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def sent(text: str) -> tuple[TaggedToken, ...]:
    """Build a sentence from "word:N word:V" shorthand (surface == lemma)."""
    tokens = []
    for item in text.split():
        word, _, letter = item.rpartition(":")
        tokens.append(TaggedToken(word, word, _POS[letter]))
    return tuple(tokens)


def tok(surface: str, lemma: str, pos: str) -> TaggedToken:
    return TaggedToken(surface, lemma, pos)


def doc(doc_id: str, *sentences) -> Document:
    sents = tuple(sent(s) if isinstance(s, str) else tuple(s) for s in sentences)
    return Document(doc_id, sents)


def corpus(*documents, language: str = "EN") -> Corpus:
    return Corpus(language, tuple(documents))


def gold_from(*rows) -> GoldTaxonomy:
    """Rows of (id, lemmas, hypernym_ids)."""
    return GoldTaxonomy(
        Synset(sid, frozenset(lemmas), frozenset(hypers)) for sid, lemmas, hypers in rows
    )


def doc_matrix(rows: dict) -> ContextMatrix:
    """Document matrix from {term: {doc: count}} or {term: [docs]} rows."""
    norm = {}
    for term, docs in rows.items():
        norm[term] = docs if isinstance(docs, dict) else {d: 1 for d in docs}
    return ContextMatrix(norm)


# --- golden fixtures -------------------------------------------------------


def two_tree_forest() -> Taxonomy:
    """Two reduced trees over 17 terms used by the hierarchy-metric goldens.

    Tree 1 (root t01): leaf depths 1, 4, 4, 5, 5, 6 and branch widths
    2, 1, 1, 4, 1, 2, 1.  Tree 2 (root t14): leaf depths 2, 2 and widths
    1, 2.  Expected: 17 terms, 2 roots, max depth 6, min depth 1,
    avg depth 29/2 = 14.5 (per root) or 29/8 (per leaf), max width 4,
    min width 1, avg width (12/7 + 3/2)/2 ~ 1.61.
    """
    edges = [
        ("t01", "t02"),
        ("t01", "t03"),
        ("t03", "t04"),
        ("t04", "t05"),
        ("t05", "t06"),
        ("t05", "t07"),
        ("t05", "t09"),
        ("t05", "t10"),
        ("t07", "t08"),
        ("t10", "t11"),
        ("t10", "t12"),
        ("t12", "t13"),
        ("t14", "t15"),
        ("t15", "t16"),
        ("t15", "t17"),
    ]
    return Taxonomy(edges)


def diamond_dag() -> Taxonomy:
    """Six-node digraph whose reduction removes exactly A->F, B->F, C->F.

    A, B and C each point at D, E and F; D and E point at F, so the three
    direct edges into F are implied by two-step paths.
    """
    edges = [(u, v) for u in "ABC" for v in "DEF"] + [("D", "F"), ("E", "F")]
    return Taxonomy(edges)


def car_taxonomy_and_gold() -> tuple[Taxonomy, GoldTaxonomy]:
    """Extracted taxonomy vs gold for the common-relations golden test.

    The extracted side places vehicle above car through an intermediate
    term absent from the gold standard, and claims car->tram which the
    gold does not contain (though it knows the term tram).
    """
    extracted = Taxonomy(
        [
            ("vehicle", "motor_vehicle"),
            ("motor_vehicle", "car"),
            ("car", "cab"),
            ("car", "tram"),
        ]
    )
    gold = gold_from(
        (1, ["vehicle"], []),
        (2, ["car"], [1]),
        (3, ["cab"], [2]),
        (4, ["tram"], [1]),
        (5, ["bus"], [1]),
    )
    return extracted, gold


# --- brute-force oracles ---------------------------------------------------


def oracle_reachable(edges: set[tuple[str, str]], src: str, dst: str) -> bool:
    """Plain DFS over an edge set; at least one edge must be taken."""
    stack = [c for p, c in edges if p == src]
    seen = set()
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(c for p, c in edges if p == node)
    return False


def oracle_is_hypernym(gold: GoldTaxonomy, hyper: str, hypo: str) -> bool:
    """Breadth-first search up the synset graph from every synset holding
    ``hypo`` until a synset holding ``hyper`` is met; lemmas compare
    case-folded and at least one hypernym edge must be taken."""
    synsets = gold.synsets

    def holds(sid: int, lemma: str) -> bool:
        return lemma.casefold() in {l.casefold() for l in synsets[sid].lemmas}

    queue = deque(h for sid in synsets if holds(sid, hypo) for h in synsets[sid].hypernym_ids)
    seen = set()
    while queue:
        sid = queue.popleft()
        if sid in seen:
            continue
        seen.add(sid)
        if holds(sid, hyper):
            return True
        queue.extend(synsets[sid].hypernym_ids)
    return False


def inverted(relset: RelationSet) -> RelationSet:
    """The same pairs with hyponym and hypernym swapped."""
    return RelationSet(relset.method, [(hyper, hypo) for hypo, hyper in relset.pair_set()])


# --- relation sets as index arrays ----------------------------------------
# The form a relation set had before it kept its mask: the mask compacted by
# cumsum onto int32 index arrays, scattered back into an adjacency for a
# taxonomy, and re-encoded through a dict for complementarity.


@dataclass(frozen=True)
class IndexedRelations:
    """``terms`` are the sorted terms the pairs use; ``hypo[k]`` and
    ``hyper[k]`` index the k-th pair into them in sorted (hyponym, hypernym)
    order, and ``scores[k]`` is its score, a float or None."""

    method: str
    terms: tuple[str, ...]
    hypo: np.ndarray
    hyper: np.ndarray
    scores: tuple


def oracle_from_mask(method: str, table, adj: np.ndarray, scores=None) -> IndexedRelations:
    """The pairs (table[v] is-a table[u]) where ``adj[u, v]``, each scored
    ``scores[u, v]`` when scores are given."""
    mask = adj.T  # (hyponym, hypernym)
    hypo, hyper = np.nonzero(mask)
    used = mask.any(axis=0) | mask.any(axis=1)
    position = np.cumsum(used) - 1
    return IndexedRelations(
        method,
        tuple(term for term, keep in zip(table, used.tolist()) if keep),
        position[hypo].astype(np.int32),
        position[hyper].astype(np.int32),
        tuple([None] * len(hypo) if scores is None else scores.T[hypo, hyper].tolist()),
    )


def oracle_from_pairs(method: str, pairs, scores=None) -> IndexedRelations:
    """The distinct ``pairs``, each with the score of its first occurrence."""
    first: dict = {}
    for pair, score in zip(pairs, [None] * len(pairs) if scores is None else scores):
        first.setdefault(pair, None if score is None else float(score))
    terms = tuple(sorted({term for pair in first for term in pair}))
    ordered = sorted(first)
    return IndexedRelations(
        method,
        terms,
        np.array([terms.index(hypo) for hypo, _ in ordered], dtype=np.int32),
        np.array([terms.index(hyper) for _, hyper in ordered], dtype=np.int32),
        tuple(first[pair] for pair in ordered),
    )


def oracle_relations_text(rs: IndexedRelations) -> str:
    terms = rs.terms
    return "".join(
        f"{terms[i]}\t{terms[j]}\t{rs.method}\t{'' if score is None else repr(score)}\n"
        for i, j, score in zip(rs.hypo.tolist(), rs.hyper.tolist(), rs.scores)
    )


def oracle_build_taxonomy(rs: IndexedRelations) -> Taxonomy:
    """One edge hypernym->hyponym per pair, scattered over the set's terms."""
    adj = np.zeros((len(rs.terms), len(rs.terms)), dtype=bool)
    adj[rs.hyper, rs.hypo] = True
    return Taxonomy._of(rs.terms, adj)


def oracle_encode(sets: list[IndexedRelations]) -> tuple[list[str], list[np.ndarray]]:
    """The sorted union of the sets' terms, and each set's (hypernym,
    hyponym) adjacency over it, placed through a dict of term positions."""
    terms = sorted({t for rs in sets for t in rs.terms})
    index = {term: i for i, term in enumerate(terms)}
    masks = []
    for rs in sets:
        at = np.array([index[term] for term in rs.terms], dtype=np.intp)
        adj = np.zeros((len(terms),) * 2, dtype=bool)
        adj[at[rs.hyper], at[rs.hypo]] = True
        masks.append(adj)
    return terms, masks


def union_encode(relsets: list[RelationSet]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The sorted union of the sets' terms, and each set's adjacency over
    it, placed by ``searchsorted``: one table for every pair, where the
    library takes each pair over the terms both its sets hold."""
    terms = tuple(sorted(set().union(*(rs.terms for rs in relsets))))
    masks = []
    for rs in relsets:
        at = np.searchsorted(np.array(terms, dtype=object), np.array(rs.terms, dtype=object))
        adj = np.zeros((len(terms), len(terms)), dtype=bool)
        adj[np.ix_(at, at)] = rs.adj
        masks.append(adj)
    return terms, masks


def oracle_complementarity_cells(sets: list, gold: GoldTaxonomy, encode=oracle_encode):
    """The direct, inverse and relative-precision cells of every ordered pair
    of sets, each from ``encode``'s masks over one union table and evaluated
    anew; the sets are :class:`IndexedRelations` for :func:`oracle_encode`
    and :class:`RelationSet` for :func:`union_encode`."""
    terms, masks = encode(sets)
    direct, inverse, relative = {}, {}, {}
    for a, ma in zip(sets, masks):
        size, base = len(a.scores), oracle_precision(terms, ma, gold)
        for b, mb in zip(sets, masks):
            key = (a.method, b.method)
            direct[key] = int(np.count_nonzero(ma & mb)) / size if size else None
            inverse[key] = int(np.count_nonzero(ma & mb.T)) / size if size else None
            relative[key] = oracle_precision(terms, ma & mb, gold) / base if base else None
    return direct, inverse, relative


def oracle_mask_taxonomy(table, adj: np.ndarray) -> Taxonomy:
    """The taxonomy of ``adj``'s edges over the terms of ``table`` they use:
    a relation set's taxonomy when the set kept its whole table."""
    used = np.flatnonzero(adj.any(axis=0) | adj.any(axis=1))
    return Taxonomy._of([table[i] for i in used], adj[np.ix_(used, used)])


def oracle_precision(terms, adj: np.ndarray, gold: GoldTaxonomy) -> float:
    """Precision of the taxonomy of ``adj``'s edges over the terms they use; 0 for none."""
    taxonomy = oracle_mask_taxonomy(terms, adj)
    return evaluate(taxonomy, gold).precision if taxonomy.terms else 0.0


# --- masks embedded in a wider table ---------------------------------------
# The form the library took before it gathered: a set's adjacency embedded,
# zero-filled, in the table of the terms both sets hold (or in a taxonomy's
# wider table), and whole masks ANDed.


def oracle_adj_over(relset: RelationSet, table) -> np.ndarray:
    """``relset.adj`` over the sorted ``table``, cut to the pairs both of
    whose terms it holds; the set's own ``adj`` when ``table`` is its terms."""
    if tuple(table) == relset.terms:
        return relset.adj
    index = {term: i for i, term in enumerate(table)}
    at = np.array([index.get(term, -1) for term in relset.terms], dtype=np.intp)
    held = at >= 0
    adj = np.zeros((len(table), len(table)), dtype=bool)
    adj[np.ix_(at[held], at[held])] = relset.adj[np.ix_(held, held)]
    return adj


def oracle_restricted(a: RelationSet, b: RelationSet):
    """The sorted terms both sets hold, and each set's adjacency embedded over them."""
    terms = a.terms if a.terms == b.terms else tuple(sorted(set(a.terms) & set(b.terms)))
    return terms, oracle_adj_over(a, terms), oracle_adj_over(b, terms)


def oracle_complementarity(a: RelationSet, b: RelationSet) -> tuple[float, float]:
    """|A n B| / |A| and |A n B^T| / |A|, counted on the ANDed masks."""
    if len(a) == 0:
        raise ValueError("complementarity of an empty relation set is undefined")
    _, ma, mb = oracle_restricted(a, b)
    return int(np.count_nonzero(ma & mb)) / len(a), int(np.count_nonzero(ma & mb.T)) / len(a)


def oracle_relative_precision(a: RelationSet, b: RelationSet, gold: GoldTaxonomy) -> float:
    """Precision of the ANDed masks of A and B over A's own precision."""
    p_a = oracle_precision(a.terms, a.adj, gold)
    if p_a == 0:
        raise ValueError("relative precision undefined: base model is empty or has zero precision")
    terms, ma, mb = oracle_restricted(a, b)
    return oracle_precision(terms, ma & mb, gold) / p_a


def oracle_taxonomy(edges, nodes=()) -> tuple[tuple[str, ...], np.ndarray]:
    """The terms and adjacency of ``Taxonomy(edges, nodes)``: the relation
    set of the edges that are no self-loops, embedded in the sorted table of
    its terms and ``nodes``."""
    relset = RelationSet("", [(v, u) for u, v in edges if u != v])
    terms = tuple(sorted(set(nodes).union(relset.terms)))
    return terms, oracle_adj_over(relset, terms)


def oracle_reduction(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Remove-and-test reduction: drop each edge still implied by a path."""
    result = set(edges)
    for edge in sorted(edges):
        result.discard(edge)
        if not oracle_reachable(result, edge[0], edge[1]):
            result.add(edge)
    return result


def oracle_break_cycles(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """While some edge (u, v) has v reaching u, drop the one with the
    largest (v, u)."""
    edges = set(edges)
    while cyclic := [(u, v) for u, v in edges if oracle_reachable(edges, v, u)]:
        edges.remove(max(cyclic, key=lambda e: (e[1], e[0])))
    return edges


def oracle_depths(nodes, edges) -> dict[str, int]:
    """Longest path from a root to each node of a DAG, by recursion over
    the parents."""
    parents = {n: [p for p, c in edges if c == n] for n in nodes}

    def depth(node):
        return max((depth(p) + 1 for p in parents[node]), default=0)

    return {n: depth(n) for n in nodes}


def oracle_components(nodes, edges) -> list[set[str]]:
    """Weakly connected components, sorted by their smallest node."""
    both_ways = set(edges) | {(c, p) for p, c in edges}
    comps: list[set[str]] = []
    for node in sorted(nodes):
        if not any(node in comp for comp in comps):
            comps.append({node} | {n for n in nodes if oracle_reachable(both_ways, node, n)})
    return comps


def oracle_closure(nodes, edges) -> set[tuple[str, str]]:
    """All (ancestor, descendant) pairs via Floyd-Warshall-style closure."""
    nodes = sorted(nodes)
    reach = {(u, v): False for u in nodes for v in nodes}
    for u, v in edges:
        reach[(u, v)] = True
    for k in nodes:
        for i in nodes:
            if reach[(i, k)]:
                for j in nodes:
                    if reach[(k, j)]:
                        reach[(i, j)] = True
    return {pair for pair, ok in reach.items() if ok}


def oracle_best_parent(t: Taxonomy, docm: ContextMatrix) -> set[tuple[str, str]]:
    """Best-parent edge set, one candidate at a time: a breadth-first search
    for the shortest distance to each ancestor of the candidate, one document
    set intersection per ancestor and one exact fraction per distance."""

    def ancestor_distances(term: str) -> dict[str, int]:
        dist: dict[str, int] = {}
        queue = deque((p, 1) for p in t.parents(term))
        while queue:
            cur, d = queue.popleft()
            if cur not in dist:
                dist[cur] = d
                queue.extend((p, d + 1) for p in t.parents(cur))
        return dist

    doc_sets = {n: frozenset(docm.row(n)) for n in t.terms}
    edges = t.edge_set()
    for x in t.terms:
        parents = sorted(t.parents(x))
        if len(parents) < 2:
            continue
        best, best_score = None, Fraction(-1)
        for p in parents:
            # Score times |D_x|: p itself weighs 1 like a distance-1 ancestor.
            counts = {1: len(doc_sets[p] & doc_sets[x])}
            for ancestor, d in ancestor_distances(p).items():
                counts[d] = counts.get(d, 0) + len(doc_sets[ancestor] & doc_sets[x])
            score = sum(Fraction(k, d) for d, k in counts.items())
            if score > best_score:
                best, best_score = p, score
        edges -= {(p, x) for p in parents if p != best}
    return edges


def oracle_evaluate(taxo: Taxonomy, gold: GoldTaxonomy):
    """Literal per-term common-relations evaluation, built from closures.

    Returns (precision, recall, fmeasure, common, extracted, gold_count).
    """
    t_closure = oracle_closure(taxo.nodes, taxo.edge_set())

    synsets = gold.synsets
    syn_edges = {
        (sid, hid) for sid, syn in synsets.items() for hid in syn.hypernym_ids
    }
    syn_closure = oracle_closure(synsets.keys(), {(h, s) for s, h in syn_edges})
    # syn_closure holds (ancestor_synset, descendant_synset) pairs.
    g_closure = set()
    for anc, desc in syn_closure:
        for hyper in synsets[anc].lemmas:
            for hypo in synsets[desc].lemmas:
                g_closure.add((hyper.casefold(), hypo.casefold()))

    # Gold membership and order are case-folded; taxonomy terms keep their
    # case, so "Car" and "car" are two shared terms with one gold lemma.
    c_gs = {l.casefold() for syn in synsets.values() for l in syn.lemmas}
    shared = {t for t in taxo.nodes if t.casefold() in c_gs}

    def cr(c, order_pairs, key):
        out = set()
        for other in shared:
            if (key(other), key(c)) in order_pairs:
                out.add((other, c))
            if (key(c), key(other)) in order_pairs:
                out.add((c, other))
        return out

    common = extracted = gold_count = 0
    for c in shared:
        cr_t = cr(c, t_closure, str)
        cr_g = cr(c, g_closure, str.casefold)
        common += len(cr_t & cr_g)
        extracted += len(cr_t)
        gold_count += len(cr_g)
    precision = common / extracted if extracted else 0.0
    recall = common / gold_count if gold_count else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f, common, extracted, gold_count


def oracle_average_linkage(vectors: dict[str, dict], k: int) -> set[frozenset]:
    """Naive pairwise agglomerative clustering with average linkage."""

    def cosine_distance(u, v):
        dot = sum(w * v[f] for f, w in u.items() if f in v)
        nu = sum(w * w for w in u.values()) ** 0.5
        nv = sum(w * w for w in v.values()) ** 0.5
        if nu == 0 or nv == 0:
            return 1.0
        return 1.0 - dot / (nu * nv)

    terms = sorted(vectors)
    dist = {
        frozenset((u, v)): cosine_distance(vectors[u], vectors[v])
        for u, v in combinations(terms, 2)
    }
    clusters = [[t] for t in terms]
    while len(clusters) > k:
        best = None
        for i, j in combinations(range(len(clusters)), 2):
            pairs = [frozenset((u, v)) for u in clusters[i] for v in clusters[j]]
            d = sum(dist[p] for p in pairs) / len(pairs)
            if best is None or d < best[0] - 1e-12:
                best = (d, i, j)
        _, i, j = best
        merged = sorted(clusters[i] + clusters[j])
        clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)]
        clusters.append(merged)
    return {frozenset(c) for c in clusters}


# --- weighting and extractor oracles over dict rows ------------------------
#
# ``rows`` maps each term to its {context label: count}.  Sums run one value
# after another in sorted label order.


def _ordered_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_weights(rows: dict[str, dict[str, int]], local: bool) -> dict[str, dict[str, float]]:
    """Per-cell PPMI, or LMI with ``local``, from the row, column and grand
    totals; cells with non-positive PMI and then empty rows are dropped."""
    row_totals = {t: sum(r.values()) for t, r in rows.items()}
    col_totals: Counter = Counter()
    for r in rows.values():
        col_totals.update(r)
    grand = sum(row_totals.values())
    out = {}
    for term, r in rows.items():
        weights = {}
        for c, n in sorted(r.items()):
            pmi = math.log(n * grand / (row_totals[term] * col_totals[c]))
            if pmi > 0:
                weights[c] = n * pmi if local else pmi
        if weights:
            out[term] = weights
    return out


def oracle_entropies(rows: dict[str, dict[str, int]]) -> tuple[dict, dict]:
    """Raw entropy of each context, -sum p log2 p over its counts in
    ascending order, and its min-max normalization (all 0 when equal)."""
    columns: dict[str, list[int]] = {}
    for r in rows.values():
        for c, n in r.items():
            columns.setdefault(c, []).append(n)
    raw = {}
    for c, counts in columns.items():
        total = sum(counts)
        h = 0.0
        for n in sorted(counts):
            p = n / total
            h -= p * math.log2(p)
        raw[c] = h
    lo, hi = min(raw.values()), max(raw.values())
    return raw, {c: (v - lo) / (hi - lo) if hi > lo else 0.0 for c, v in raw.items()}


def _ranked_pairs(ranks: dict[str, float], together=lambda u, v: True) -> set:
    """(u, v) for every pair where v ranks strictly higher."""
    return {
        (u, v) if ranks[v] > ranks[u] else (v, u)
        for u, v in combinations(sorted(ranks), 2)
        if ranks[u] != ranks[v] and together(u, v)
    }


def oracle_dsim_pairs(weights: dict[str, dict[str, float]], vocab, measure: str) -> set:
    """Per-pair directional inclusion; the more included term is the hyponym."""

    def inclusion(u, v):
        shared = [
            min(u[f], v[f]) if measure == "clarkede" else u[f] for f in sorted(u) if f in v
        ]
        return _ordered_sum(shared) / _ordered_sum(u[f] for f in sorted(u))

    pairs = set()
    for a, b in combinations(sorted(vocab), 2):
        u, v = weights.get(a, {}), weights.get(b, {})
        if u.keys() & v.keys():
            m_ab, m_ba = inclusion(u, v), inclusion(v, u)
            if m_ab != m_ba:
                pairs.add((a, b) if m_ab > m_ba else (b, a))
    return pairs


def oracle_generalities(
    lmi: dict[str, dict[str, float]], normalized: dict, terms, top_n: int
) -> dict[str, float]:
    """Median normalized entropy of each term's top LMI contexts (ties on
    the label), one sorted row per term; terms without contexts are left
    out."""
    generality = {}
    for t in terms:
        if lmi.get(t):
            ranked = sorted(lmi[t].items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
            generality[t] = statistics.median(normalized[c] for c, _ in ranked)
    return generality


def oracle_slqs_pairs(lmi: dict[str, dict[str, float]], normalized: dict, vocab, top_n: int) -> set:
    """The more general term of a pair (:func:`oracle_generalities`) is the
    hypernym."""
    return _ranked_pairs(oracle_generalities(lmi, normalized, vocab, top_n))


def oracle_frequency_pairs(rows: dict[str, dict[str, int]], vocab, documents: bool) -> set:
    """tf (summed counts) or, with ``documents``, df (number of documents)."""
    return _ranked_pairs(
        {t: len(rows.get(t, {})) if documents else sum(rows.get(t, {}).values()) for t in vocab}
    )


def oracle_docsub_pairs(rows: dict[str, dict[str, int]], vocab, lam: float) -> set:
    """(y, x) when P(x|y) = |D_x n D_y| / |D_y| >= lam and P(x|y) > P(y|x)."""
    pairs = set()
    for x in vocab:
        for y in vocab:
            dx, dy = set(rows.get(x, {})), set(rows.get(y, {}))
            if x != y and dx & dy:
                p_x_given_y = len(dx & dy) / len(dy)
                if p_x_given_y >= lam and p_x_given_y > len(dx & dy) / len(dx):
                    pairs.add((y, x))
    return pairs


def oracle_hclust_pairs(rows: dict[str, dict[str, int]], vocab, clusters) -> set:
    """df pairs whose two terms share a cluster."""
    cluster_of = {t: i for i, members in enumerate(clusters) for t in members}
    df = {t: len(rows.get(t, {})) for t in vocab}
    return _ranked_pairs(df, lambda u, v: cluster_of[u] == cluster_of[v])


# The recursive backtracking matcher as ``taxorel.patterns`` first had it,
# kept verbatim (only ``_match_template`` renamed) as a reference for the
# forward matcher that replaced it.


def _np_at(tokens: Sentence, pos: int, pset: PatternSet) -> tuple[int, str] | None:
    """Match a noun phrase starting at ``pos``; return (end, head lemma).

    An optional leading article is consumed.  English: ADJ* NOUN+ with the
    rightmost noun as head; Portuguese: NOUN+ ADJ* with the leftmost noun
    as head.
    """
    n = len(tokens)
    i = pos
    if i < n and tokens[i].pos == "OTHER" and tokens[i].surface.casefold() in pset.articles:
        i += 1
    if pset.language == "EN":
        while i < n and tokens[i].pos == "ADJ":
            i += 1
        start = i
        while i < n and tokens[i].pos in TARGET_TAGS:
            i += 1
        if i == start:
            return None
        return i, tokens[i - 1].lemma.casefold()
    start = i
    while i < n and tokens[i].pos in TARGET_TAGS:
        i += 1
    if i == start:
        return None
    head = tokens[start].lemma.casefold()
    while i < n and tokens[i].pos == "ADJ":
        i += 1
    return i, head


def _hypo_list(tokens: Sentence, pos: int, pset: PatternSet):
    """All parses of ``NP (SEP NP)*`` from ``pos``, shortest to longest.

    SEP is a comma, a conjunction, or a comma followed by a conjunction.
    Returns (end, heads) checkpoints so the caller can backtrack.
    """
    first = _np_at(tokens, pos, pset)
    if first is None:
        return []
    end, head = first
    checkpoints = [(end, [head])]
    heads = [head]
    n = len(tokens)
    while True:
        cur = checkpoints[-1][0]
        nxt = None
        for width in (2, 1):
            if cur + width > n:
                continue
            seps = [t.surface.casefold() for t in tokens[cur : cur + width]]
            if width == 2 and not (seps[0] == "," and seps[1] in pset.conjunctions):
                continue
            if width == 1 and not (seps[0] == "," or seps[0] in pset.conjunctions):
                continue
            phrase = _np_at(tokens, cur + width, pset)
            if phrase is not None:
                nxt = phrase
                break
        if nxt is None:
            return checkpoints
        heads = heads + [nxt[1]]
        checkpoints.append((nxt[0], heads))


def oracle_match_template(
    template: PatternTemplate, tokens: Sentence, start: int, pset: PatternSet
) -> tuple[str, list[str]] | None:
    elements = template.elements
    n = len(tokens)

    def rec(ei: int, pos: int, hyper: str | None, hypos: list[str] | None):
        if ei == len(elements):
            return (hyper, hypos)
        el = elements[ei]
        if el.kind == "lit":
            if pos < n and tokens[pos].surface.casefold() == el.text:
                found = rec(ei + 1, pos + 1, hyper, hypos)
                if found:
                    return found
            if el.optional:
                return rec(ei + 1, pos, hyper, hypos)
            return None
        if el.kind == "hyper":
            phrase = _np_at(tokens, pos, pset)
            if phrase is None:
                return None
            return rec(ei + 1, phrase[0], phrase[1], hypos)
        # HYPO+ list: prefer the longest parse, backtracking on failure.
        for end, heads in reversed(_hypo_list(tokens, pos, pset)):
            found = rec(ei + 1, end, hyper, heads)
            if found:
                return found
        return None

    return rec(0, start, None, None)


def oracle_match_sentence(tokens, pset: PatternSet) -> list[tuple[str, str]]:
    """Every template tried at every start position, with no literal prefilter."""
    pairs = []
    for start in range(len(tokens)):
        for template in pset.templates:
            found = oracle_match_template(template, tokens, start, pset)
            if found is not None:
                hyper, hypos = found
                pairs.extend((hypo, hyper) for hypo in hypos if hypo != hyper)
    return pairs


# --- ingestion oracles: one token line, one token occurrence at a time -----


def oracle_load_corpus(path, language: str, pos_mapping=None) -> Corpus:
    """Every line of every file split, mapped and checked on its own, read in
    text mode; no token object is shared."""
    path = Path(path)
    files = [path]
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file() and not p.name.startswith("."))
    documents = []
    for file in files:
        sentences, current = [], []
        with open(file, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if not line.strip():
                    if current:
                        sentences.append(tuple(current))
                        current = []
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise CorpusFormatError(
                        f"{file}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                    )
                surface, lemma, tag = fields
                if not surface or not lemma or not tag:
                    raise CorpusFormatError(f"{file}:{lineno}: empty field in token line")
                current.append(TaggedToken(surface, lemma, coarse_pos(tag, pos_mapping)))
        if current:
            sentences.append(tuple(current))
        documents.append(Document(id=file.name, sentences=tuple(sentences)))
    return Corpus(language=language.upper(), documents=tuple(documents))


def oracle_sentence_documents(corpus: Corpus) -> Corpus:
    """Each sentence of ``corpus`` as a document of its own, built by hand."""
    documents = [
        Document(f"{d.id}#s{i}", (sentence,))
        for d in corpus.documents
        for i, sentence in enumerate(d.sentences, 1)
    ]
    return Corpus(corpus.language, tuple(documents))


def assert_coding_equal(coding: TokenCoding, expected: TokenCoding) -> None:
    """``distinct`` holds the very same token objects, and every array is
    equal, dtype included."""
    assert [id(t) for t in coding.distinct] == [id(t) for t in expected.distinct]
    for name, got, want in zip(TokenCoding._fields[1:], coding[1:], expected[1:]):
        assert (got.dtype, got.tolist()) == (want.dtype, want.tolist()), name


def oracle_tokens(corpus: Corpus) -> list:
    """Every token of ``corpus.documents``, in order."""
    return [t for d in corpus.documents for s in d.sentences for t in s]


def oracle_corpus_stats(corpus: Corpus) -> CorpusStats:
    """Every token of every sentence tested and counted on its own."""
    content, lemmas = 0, set()
    for token in oracle_tokens(corpus):
        if token.pos in CONTENT_TAGS:
            content += 1
            lemmas.add(token.lemma.casefold())
    sentences = sum(len(d.sentences) for d in corpus.documents)
    return CorpusStats(len(corpus.documents), sentences, content, len(lemmas))


def oracle_matrix_text(matrix) -> str:
    """``term<TAB>context<TAB>value`` lines, term by term and, within a
    term, in the order of its ``row``."""
    return "".join(
        f"{term}\t{label}\t{value}\n"
        for term in matrix.terms()
        for label, value in matrix.row(term).items()
    )


def oracle_window_contexts(corpus: Corpus, window_size: int) -> ContextMatrix:
    """Each target's window contexts counted into a per-term Counter."""
    half = (window_size - 1) // 2
    rows: dict[str, Counter] = {}
    for document in corpus.documents:
        for sentence in document.sentences:
            labels = [
                f"{t.lemma.casefold()}-{POS_LETTER[t.pos]}-" if t.pos in CONTENT_TAGS else None
                for t in sentence
            ]
            for i, token in enumerate(sentence):
                if token.pos not in TARGET_TAGS:
                    continue
                row = rows.setdefault(token.lemma.casefold(), Counter())
                row.update(c + "l" for c in labels[max(0, i - half) : i] if c)
                row.update(c + "r" for c in labels[i + 1 : i + half + 1] if c)
    return ContextMatrix(rows, window_size)


def oracle_document_contexts(corpus: Corpus) -> ContextMatrix:
    """Each target occurrence counted into its term's per-document Counter."""
    rows: dict[str, Counter] = {}
    for document in corpus.documents:
        for sentence in document.sentences:
            for token in sentence:
                if token.pos in TARGET_TAGS:
                    rows.setdefault(token.lemma.casefold(), Counter())[document.id] += 1
    return ContextMatrix(rows)


# --- random generators -----------------------------------------------------


def random_dag(rng: random.Random, max_nodes: int = 12) -> Taxonomy:
    """Random DAG: edges only go forward in a shuffled node order."""
    n = rng.randint(2, max_nodes)
    names = [f"n{i:02d}" for i in range(n)]
    rng.shuffle(names)
    edges = set()
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.35:
            edges.add((names[i], names[j]))
    return Taxonomy(edges, nodes=names)


def random_corpus(rng: random.Random, language: str = "EN") -> Corpus:
    """Small random corpus mixing POS tags; lemmas drawn from a 12-word pool."""
    pool = [f"w{i:02d}" for i in range(12)]
    tags = ["NOUN", "NOUN", "NOUN", "PROPN", "VERB", "ADJ", "OTHER"]
    documents = []
    for d in range(rng.randint(2, 5)):
        sentences = []
        for _ in range(rng.randint(1, 4)):
            tokens = tuple(
                TaggedToken(w, w, rng.choice(tags))
                for w in rng.choices(pool, k=rng.randint(2, 9))
            )
            sentences.append(tokens)
        documents.append(Document(f"doc{d}.txt", tuple(sentences)))
    return Corpus(language, tuple(documents))


def write_vertical(corpus: Corpus, directory: Path) -> None:
    """Write each document of ``corpus`` as a vertical-format file under
    ``directory``: one ``surface<TAB>lemma<TAB>pos`` line per token and a
    blank line between sentences."""
    directory.mkdir(parents=True, exist_ok=True)
    for document in corpus.documents:
        text = "\n\n".join(
            "\n".join(f"{t.surface}\t{t.lemma}\t{t.pos}" for t in sentence)
            for sentence in document.sentences
        )
        (directory / document.id).write_text(text + ("\n" if text else ""), encoding="utf-8")
