import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import taxorel
from taxorel.relations import RelationSet
from taxorel.taxonomy import (
    Taxonomy,
    best_parent_filter,
    break_cycles,
    build_taxonomy,
    compute_metrics,
    load_taxonomy,
    save_taxonomy,
    transitive_reduction,
)

from helpers import (
    diamond_dag,
    doc_matrix,
    two_tree_forest,
    oracle_closure,
    oracle_reduction,
    random_dag,
)


class TestBuildTaxonomy:
    def test_empty_relation_set(self):
        t = build_taxonomy(RelationSet("tf"))
        assert len(t) == 0 and t.num_edges == 0

    def test_single_relation(self):
        rels = RelationSet("tf")
        rels.add("dog", "animal")
        t = build_taxonomy(rels)
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
            "m = ContextMatrix('document', {'x': docs(10), 'pa': docs(6), "
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


class TestPersistence:
    def test_round_trip(self, tmp_path):
        t = two_tree_forest()
        save_taxonomy(t, tmp_path / "t.tsv")
        again = load_taxonomy(tmp_path / "t.tsv")
        assert again.edge_set() == t.edge_set()
