import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import taxorel
from taxorel.relations import RelationSet
from taxorel.taxonomy import (
    Taxonomy,
    _closure,
    best_parent_filter,
    break_cycles,
    build_taxonomy,
    compute_metrics,
    transitive_reduction,
)

from helpers import (
    diamond_dag,
    doc_matrix,
    two_tree_forest,
    oracle_best_parent,
    oracle_break_cycles,
    oracle_closure,
    oracle_components,
    oracle_depths,
    oracle_reachable,
    oracle_reduction,
    outcome,
    random_dag,
)

NAMES = "abcdef"


@st.composite
def graphs(draw):
    """Digraphs with cycles, self-loops (dropped) and isolated nodes."""
    name = st.sampled_from(NAMES)
    edges = draw(st.lists(st.tuples(name, name), max_size=14))
    return Taxonomy(edges, nodes=draw(st.sets(name, max_size=3)))


@st.composite
def dags(draw):
    """DAGs: edges only go forward in a drawn node order."""
    order = draw(st.permutations(NAMES))[: draw(st.integers(1, len(NAMES)))]
    pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1 :]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Taxonomy([pair for pair, k in zip(pairs, keep) if k], nodes=order)


@st.composite
def doc_matrices(draw):
    """Document matrices over a few of NAMES; the other names are missing."""
    rows = draw(
        st.dictionaries(
            st.sampled_from(NAMES), st.sets(st.sampled_from("123"), min_size=1), min_size=1
        )
    )
    return doc_matrix(rows)


def docs(k: int) -> list[str]:
    return [f"d{i}" for i in range(k)]


# 44 ancestors in a chain above the candidate a00: lcm(1..44) > 2**63.
DEEP_CHAIN = [(f"a{k + 1:02d}", f"a{k:02d}") for k in range(44)]


class TestBuildTaxonomy:
    def test_empty_relation_set(self):
        t = build_taxonomy(RelationSet("tf"))
        assert len(t) == 0 and t.num_edges == 0

    def test_single_relation(self):
        t = build_taxonomy(RelationSet("tf", [("dog", "animal")]))
        assert t.nodes == {"dog", "animal"}
        assert t.edges() == [("animal", "dog")]

    def test_two_tree_fixture_shape(self):
        t = two_tree_forest()
        assert len(t.nodes) == 17
        roots = [n for n in t.nodes if not t.parents(n)]
        assert sorted(roots) == ["t01", "t14"]

    def test_self_loops_dropped_at_construction(self):
        t = Taxonomy([("a", "a"), ("a", "b")])
        assert t.edges() == [("a", "b")]

    def test_none_term_rejected(self):
        # Coded as -1, a None term would take the last term's place: a
        # self-loop (a, a), or a node silently dropped.
        for edges, nodes in (([("a", None)], ()), ([(None, "b")], ()), ([("a", "b")], [None])):
            with pytest.raises(TypeError):
                Taxonomy(edges, nodes)


class TestBreakCycles:
    def test_acyclic_input_unchanged(self):
        t = Taxonomy([("a", "b"), ("b", "c"), ("a", "c")])
        assert break_cycles(t).edge_set() == t.edge_set()

    def test_two_cycle_drops_largest_hypo_hyper_edge(self):
        # Candidate keys are (hyponym, hypernym): edge a->b has key (b, a),
        # edge b->a has key (a, b); the largest key (b, a) removes a->b.
        t = Taxonomy([("a", "b"), ("b", "a")])
        assert break_cycles(t).edge_set() == {("b", "a")}

    def test_three_cycle(self):
        t = Taxonomy([("a", "b"), ("b", "c"), ("c", "a")])
        result = break_cycles(t)
        assert result.is_dag
        # Keys: a->b:(b,a), b->c:(c,b), c->a:(a,c); largest is (c,b).
        assert result.edge_set() == {("a", "b"), ("c", "a")}

    def test_only_cycle_edges_removed(self):
        rng = random.Random(17)
        for _ in range(30):
            dag = random_dag(rng, 8)
            extra = [(v, u) for u, v in sorted(dag.edge_set())[:2]]
            noisy = Taxonomy(list(dag.edge_set()) + extra)
            fixed = break_cycles(noisy)
            assert fixed.is_dag
            closure = oracle_closure(noisy.nodes, noisy.edge_set())
            for u, v in noisy.edge_set() - fixed.edge_set():
                # A removed edge u->v must have closed a cycle: v reaches u.
                assert (v, u) in closure

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(20):
            edges = set()
            names = [f"n{i}" for i in range(7)]
            for _ in range(12):
                a, b = rng.sample(names, 2)
                edges.add((a, b))
            once = break_cycles(Taxonomy(edges))
            twice = break_cycles(once)
            assert once.edge_set() == twice.edge_set()

    def test_node_set_preserved(self):
        t = Taxonomy([("a", "b"), ("b", "a")])
        assert break_cycles(t).nodes == {"a", "b"}


@st.composite
def adjacencies(draw):
    """Boolean adjacency matrices with cycles, self-loops and isolated nodes."""
    n = draw(st.integers(0, 9))
    node = st.integers(0, max(n - 1, 0))
    adj = np.zeros((n, n), dtype=bool)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=20 if n else 0)):
        adj[u, v] = True
    return adj


def chain(n: int) -> np.ndarray:
    return np.eye(n, k=1, dtype=bool)


def star(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    return adj


class TestClosureProperties:
    """The one closure per graph against searches over the edge set."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(adjacencies())
    @example(chain(70))  # a path of 69 edges: seven doublings
    @example(np.roll(np.eye(12, dtype=bool), 1, axis=1))  # one cycle through every node
    @example(star(8))  # no middle node
    @example(np.zeros((0, 0), dtype=bool))
    @example(np.zeros((1, 1), dtype=bool))
    @example(np.ones((1, 1), dtype=bool))  # a self-loop is a cycle
    @example(np.triu(np.ones((30, 30), dtype=bool), k=1))  # dense transitive order: one product
    def test_closure_matches_the_oracle(self, adj):
        def pairs(m):
            return set(zip(*(ix.tolist() for ix in np.nonzero(m))))

        closure = _closure(adj)
        assert closure.dtype == bool and closure.shape == adj.shape
        assert pairs(closure) == oracle_closure(range(len(adj)), pairs(adj))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graphs())
    @example(Taxonomy([("a", "b"), ("b", "a"), ("b", "c")]))  # a and b reach themselves
    @example(Taxonomy([("a", "a")], nodes=["b"]))  # self-loop dropped, isolated node
    @example(Taxonomy())
    def test_reaches_and_is_dag_match_search(self, t):
        edges = t.edge_set()
        for u in [*t.nodes, "z"]:  # "z" is in no graph
            for v in [*t.nodes, "z"]:
                assert t.reaches(u, v) == oracle_reachable(edges, u, v)
        assert t.is_dag == (not any(oracle_reachable(edges, u, u) for u in t.nodes))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graphs())
    @example(Taxonomy([("a", "b"), ("b", "c"), ("c", "a"), ("c", "b"), ("d", "a")]))
    @example(Taxonomy([(u, v) for u in "abcd" for v in "abcd"]))  # complete digraph
    @example(Taxonomy(nodes=["a"]))
    def test_break_cycles_matches_dropping_the_largest_cycle_edge(self, t):
        fixed = break_cycles(t)
        assert fixed.edge_set() == oracle_break_cycles(t.edge_set())
        assert fixed.nodes == t.nodes and fixed.is_dag

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dags())
    @example(Taxonomy([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")], nodes=["f"]))
    @example(Taxonomy(nodes=["a", "b"]))  # no edges: every term a root and a leaf
    @example(Taxonomy([("a", "b"), ("c", "d"), ("e", "f")]))  # three components
    @example(  # zigzag a01->b01<-a02->b02<-...: the smallest label travels its length
        Taxonomy(
            [(f"a{i:02}", f"b{i:02}") for i in range(1, 21)]
            + [(f"a{i + 1:02}", f"b{i:02}") for i in range(1, 20)]
        )
    )
    @example(Taxonomy([("b", "a"), ("c", "b"), ("e", "d")]))  # smallest terms are leaves
    def test_metrics_match_longest_paths_and_weak_components(self, t):
        m = compute_metrics(t)
        nodes, edges = t.nodes, t.edge_set()
        depth = oracle_depths(nodes, edges)
        roots = [n for n in nodes if not any(c == n for _, c in edges)]
        leaf_depths = [depth[n] for n in nodes if not any(p == n for p, _ in edges)]
        width = {n: sum(p == n for p, _ in edges) for n in nodes}
        inner = [w for w in width.values() if w]
        per_component = [
            [width[n] for n in comp if width[n]] for comp in oracle_components(nodes, edges)
        ]
        tax_widths = [sum(ws) / len(ws) for ws in per_component if ws]
        assert (m.total_terms, m.total_roots, m.number_rels) == (
            len(nodes),
            len(roots),
            len(edges),
        )
        assert (m.max_depth, m.min_depth) == (max(leaf_depths), min(leaf_depths))
        assert m.avg_depth == sum(leaf_depths) / len(roots)
        assert m.avg_depth_per_leaf == sum(leaf_depths) / len(leaf_depths)
        assert (m.max_width, m.min_width) == (max(inner, default=0), min(inner, default=0))
        assert m.avg_width == (sum(tax_widths) / len(roots) if tax_widths else 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(graphs(), st.randoms(use_true_random=False).map(random_dag)))
    @example(Taxonomy([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]))
    @example(Taxonomy([("a", "b"), ("a", "c"), ("d", "c"), ("e", "f")]))  # no middle node
    @example(Taxonomy())
    def test_reduction_carries_the_closure_of_its_result(self, t):
        fixed = break_cycles(t)
        reduced = transitive_reduction(fixed)
        assert (fixed is t) == t.is_dag
        assert fixed.edge_set() == oracle_break_cycles(t.edge_set())
        assert reduced.edge_set() == oracle_reduction(fixed.edge_set())
        assert np.array_equal(reduced.closure, _closure(reduced.adj))

    def test_metrics_of_a_closed_dag_take_no_closure(self, monkeypatch):
        # Evaluation takes the closure of each taxonomy first; the metrics
        # stage reuses it, and finds the weak components without one.
        t = diamond_dag()
        assert t.is_dag
        calls = []
        monkeypatch.setattr(taxorel.taxonomy, "_closure", lambda a: calls.append(a) or _closure(a))
        compute_metrics(transitive_reduction(break_cycles(t)))
        assert len(calls) == 0


class TestTransitiveReduction:
    def test_diamond_fixture_removes_three_edges(self):
        original = diamond_dag()
        reduced = transitive_reduction(original)
        removed = original.edge_set() - reduced.edge_set()
        assert removed == {("A", "F"), ("B", "F"), ("C", "F")}
        # Reachability is untouched.
        assert oracle_closure(original.nodes, original.edge_set()) == oracle_closure(
            reduced.nodes, reduced.edge_set()
        )

    def test_chain_already_reduced(self):
        t = Taxonomy([("a", "b"), ("b", "c")])
        assert transitive_reduction(t).edge_set() == t.edge_set()

    def test_cyclic_input_is_an_error(self):
        with pytest.raises(ValueError):
            transitive_reduction(Taxonomy([("a", "b"), ("b", "a")]))

    def test_matches_remove_and_test_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            dag = random_dag(rng)
            reduced = transitive_reduction(dag)
            assert reduced.edge_set() == oracle_reduction(dag.edge_set())

    def test_complete_order_reduces_to_a_chain(self):
        # Frequency-style extractors connect almost every pair; on a strict
        # total order the reduction must collapse the dense graph to a
        # chain, which is what makes the deep narrow taxonomies measurable.
        n = 400
        terms = [f"t{i:03d}" for i in range(n)]
        edges = [(terms[i], terms[j]) for i in range(n) for j in range(i + 1, n)]
        reduced = transitive_reduction(Taxonomy(edges))
        assert reduced.num_edges == n - 1
        m = compute_metrics(reduced)
        assert m.max_depth == n - 1
        assert m.total_roots == 1
        assert m.max_width == 1

    def test_node_set_preserved(self):
        t = Taxonomy([("a", "b")], nodes=["isolated"])
        assert "isolated" in transitive_reduction(t).nodes


class TestHierarchyMetrics:
    def test_two_tree_fixture_golden_values(self):
        m = compute_metrics(two_tree_forest())
        assert m.total_terms == 17
        assert m.total_roots == 2
        assert m.number_rels == 15
        assert m.max_depth == 6
        assert m.min_depth == 1
        assert m.avg_depth == pytest.approx(14.5)
        assert m.depth_cohesion == pytest.approx(6 / 14.5, abs=1e-6)
        assert m.max_width == 4
        assert m.min_width == 1
        assert m.avg_width == pytest.approx((12 / 7 + 3 / 2) / 2, abs=1e-6)

    def test_per_leaf_average_depth(self):
        # Eight leaves with depth sum 29.
        m = compute_metrics(two_tree_forest())
        assert m.avg_depth_per_leaf == pytest.approx(29 / 8)
        assert m.depth_cohesion_per_leaf == pytest.approx(6 / (29 / 8), abs=1e-6)

    def test_single_edge(self):
        m = compute_metrics(Taxonomy([("a", "b")]))
        assert m.max_depth == m.min_depth == 1
        assert m.avg_depth == 1.0
        assert m.depth_cohesion == 1.0
        assert m.max_width == m.min_width == 1
        assert m.avg_width == 1.0

    def test_forest_of_chains_property(self):
        rng = random.Random(31)
        for _ in range(20):
            edges = []
            leaf_depths = []
            n_chains = rng.randint(1, 4)
            for c in range(n_chains):
                length = rng.randint(1, 5)
                leaf_depths.append(length)
                for i in range(length):
                    edges.append((f"c{c}n{i}", f"c{c}n{i+1}"))
            m = compute_metrics(Taxonomy(edges))
            assert m.max_width == 1
            assert m.depth_cohesion == pytest.approx(
                m.max_depth * n_chains / sum(leaf_depths)
            )

    def test_empty_taxonomy_is_an_error(self):
        with pytest.raises(ValueError):
            compute_metrics(Taxonomy())

    def test_cyclic_taxonomy_is_an_error(self):
        with pytest.raises(ValueError):
            compute_metrics(Taxonomy([("a", "b"), ("b", "a")]))

    def test_longest_path_defines_leaf_depth(self):
        # b is reachable at depths 1 and 2; the longest path wins.
        m = compute_metrics(Taxonomy([("r", "a"), ("a", "b"), ("r", "b")]))
        assert m.max_depth == 2
        assert m.min_depth == 2


class TestBestParentFilter:
    def test_single_parent_unchanged(self):
        t = Taxonomy([("p", "x")])
        m = doc_matrix({"p": ["d1"], "x": ["d1"]})
        assert best_parent_filter(t, m).edge_set() == {("p", "x")}

    def test_hand_computed_scores_pick_ancestor_backed_parent(self):
        # score(p1, x) = P(p1|x) = 6/10 = 0.6
        # score(p2, x) = P(p2|x) + P(a|x)/1 = 3/10 + 5/10 = 0.8 -> keep p2.
        t = Taxonomy([("p1", "x"), ("p2", "x"), ("a", "p2")])
        m = doc_matrix(
            {
                "x": [f"d{i}" for i in range(10)],
                "p1": [f"d{i}" for i in range(6)],
                "p2": [f"d{i}" for i in range(3)],
                "a": [f"d{i}" for i in range(5)],
            }
        )
        filtered = best_parent_filter(t, m)
        assert filtered.edge_set() == {("p2", "x"), ("a", "p2")}

    def test_ancestor_weight_decays_with_distance(self):
        # Grandparent of the candidate parent contributes P/2.
        t = Taxonomy([("g", "a"), ("a", "p2"), ("p2", "x"), ("p1", "x")])
        m = doc_matrix(
            {
                "x": [f"d{i}" for i in range(10)],
                "p1": [f"d{i}" for i in range(6)],
                "p2": [f"d{i}" for i in range(3)],
                "a": [f"d{i}" for i in range(2)],
                "g": [f"d{i}" for i in range(8)],
            }
        )
        # score(p2) = 0.3 + 0.2/1 + 0.8/2 = 0.9 > score(p1) = 0.6.
        filtered = best_parent_filter(t, m)
        assert ("p2", "x") in filtered.edge_set()
        assert ("p1", "x") not in filtered.edge_set()

    def test_score_tie_keeps_lexicographically_smaller_parent(self):
        t = Taxonomy([("pa", "x"), ("pb", "x")])
        m = doc_matrix({"x": ["d1"], "pa": ["d1"], "pb": ["d1"]})
        assert best_parent_filter(t, m).edge_set() == {("pa", "x")}

    def test_exact_tie_is_independent_of_hash_seed(self):
        # score(pa) = 6/10 and score(pb) = 0 + 1/10 + 2/10 + 3/10 tie
        # exactly, but float sums of pb's ancestors depend on their order,
        # which follows the string hash seed of the process.
        script = (
            "from taxorel.contexts import ContextMatrix\n"
            "from taxorel.taxonomy import Taxonomy, best_parent_filter\n"
            "docs = lambda k: {f'd{i}': 1 for i in range(k)}\n"
            "t = Taxonomy([('pa', 'x'), ('pb', 'x'), ('a1', 'pb'), ('a2', 'pb'), ('a3', 'pb')])\n"
            "m = ContextMatrix({'x': docs(10), 'pa': docs(6), "
            "'a1': docs(1), 'a2': docs(2), 'a3': docs(3)})\n"
            "print(sorted(best_parent_filter(t, m).edge_set()))\n"
        )
        src = str(Path(taxorel.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        # pb's own parents all score 0 (pb has no documents): a1 is kept.
        expected = [("a1", "pb"), ("pa", "x")]
        assert outputs == [f"{expected}\n"] * 2

    def test_terms_missing_from_matrix_score_zero(self):
        t = Taxonomy([("pa", "x"), ("pb", "x")])
        m = doc_matrix({"x": ["d1"], "pb": ["d1"]})
        assert best_parent_filter(t, m).edge_set() == {("pb", "x")}

    def test_indegree_at_most_one_and_edges_subset(self):
        rng = random.Random(41)
        for _ in range(25):
            dag = random_dag(rng, 9)
            docs = {
                n: [f"d{rng.randrange(12)}" for _ in range(rng.randint(1, 6))]
                for n in dag.nodes
            }
            m = doc_matrix({n: set(ds) for n, ds in docs.items()})
            filtered = best_parent_filter(dag, m)
            assert filtered.nodes == dag.nodes
            assert filtered.edge_set() <= dag.edge_set()
            for node in filtered.nodes:
                assert len(filtered.parents(node)) <= 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(graphs(), doc_matrices())
    # The exact tie of test_exact_tie_is_independent_of_hash_seed.
    @example(
        Taxonomy([("pa", "x"), ("pb", "x"), ("a1", "pb"), ("a2", "pb"), ("a3", "pb")]),
        doc_matrix({"x": docs(10), "pa": docs(6), "a1": docs(1), "a2": docs(2), "a3": docs(3)}),
    )
    # p lies on a cycle and counts itself at distance 2: 2 + 2/2 ties r's 3.
    @example(
        Taxonomy([("p", "x"), ("r", "x"), ("q", "p"), ("p", "q")]),
        doc_matrix({"x": docs(10), "p": docs(2), "r": docs(3)}),
    )
    # x lies above its candidate p: 1 + 4/1 + (1 + 3)/2 for p, with x at
    # distance 1 and p and q at 2, against 3 for q.
    @example(
        Taxonomy([("p", "x"), ("q", "x"), ("x", "p")]),
        doc_matrix({"x": docs(4), "p": docs(1), "q": docs(3)}),
    )
    # Terms missing from the matrix: the candidate pa and the node y.
    @example(
        Taxonomy([("pa", "x"), ("pb", "x"), ("pa", "y"), ("pb", "y")]),
        doc_matrix({"x": ["d1"], "pb": ["d1"]}),
    )
    # p and q share ancestors at different depths: a2 at 2 and a3 at 3 above
    # p, at 1 and 2 above q, so q's 1 + 2 + 3/2 beats p's 1 + 0 + 2/2 + 3/3.
    @example(
        Taxonomy([("a3", "a2"), ("a2", "a1"), ("a1", "p"), ("a2", "q"), ("p", "x"), ("q", "x")]),
        doc_matrix({"x": docs(6), "p": docs(1), "q": docs(1), "a2": docs(2), "a3": docs(3)}),
    )
    @example(Taxonomy([("p", "x")], nodes=["z"]), doc_matrix({"p": ["d1"], "x": ["d1"]}))
    @example(Taxonomy(), doc_matrix({"p": ["d1"]}))
    # Scaled by lcm(1..44), a00's score overflows int64 and turns negative.
    @example(
        Taxonomy([*DEEP_CHAIN, ("a00", "x"), ("q", "x")]),
        doc_matrix({"x": ["d1"], "a00": ["d1"]}),
    )
    def test_matches_per_candidate_oracle(self, t, m):
        filtered = best_parent_filter(t, m)
        assert filtered.edge_set() == oracle_best_parent(t, m)
        assert filtered.terms == t.terms


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: Taxonomy([("animal", "dog")]).parents("cat"), frozenset(), id="absent"),
        pytest.param(
            lambda: Taxonomy([("animal", "dog")]).parents("dog"), frozenset({"animal"}), id="held"
        ),
    ],
)
def test_rarely_run_paths_keep_their_behaviour(call, expected):
    assert outcome(call) == expected
