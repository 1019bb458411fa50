"""Taxonomy graphs: reduction, metrics, and the single-parent filter.

Shows how dense relation sets are characterized: break cycles, apply the
transitive reduction, read off hierarchy metrics, and optionally force a
tree shape by keeping each node's best-scoring parent.
"""

from taxorel import (
    ContextMatrix,
    Taxonomy,
    best_parent_filter,
    break_cycles,
    compute_metrics,
    transitive_reduction,
)


def main() -> None:
    print("Transitive reduction")
    dense = Taxonomy(
        [(u, v) for u in "ABC" for v in "DEF"] + [("D", "F"), ("E", "F")]
    )
    reduced = transitive_reduction(dense)
    print(f"  edges before: {dense.num_edges}, after: {reduced.num_edges}")
    print(f"  removed: {sorted(dense.edge_set() - reduced.edge_set())}")
    print("  (direct links into F are implied by the paths through D and E)")

    print("\nCycle breaking (pattern evidence can contradict itself)")
    noisy = Taxonomy([("animal", "dog"), ("dog", "animal"), ("animal", "cat")])
    fixed = break_cycles(noisy)
    print(f"  kept edges: {fixed.edges()}")

    print("\nHierarchy metrics of a two-tree forest")
    forest = Taxonomy(
        [
            ("t01", "t02"), ("t01", "t03"), ("t03", "t04"), ("t04", "t05"),
            ("t05", "t06"), ("t05", "t07"), ("t05", "t09"), ("t05", "t10"),
            ("t07", "t08"), ("t10", "t11"), ("t10", "t12"), ("t12", "t13"),
            ("t14", "t15"), ("t15", "t16"), ("t15", "t17"),
        ]
    )
    metrics = compute_metrics(forest)
    for key, value in sorted(metrics.to_dict().items()):
        print(f"  {key}: {value}")

    print("\nBest-parent filter (one hypernym per term)")
    taxo = Taxonomy([("p1", "x"), ("p2", "x"), ("a", "p2")])
    docm = ContextMatrix(
        {
            "x": {f"d{i}": 1 for i in range(10)},
            "p1": {f"d{i}": 1 for i in range(6)},
            "p2": {f"d{i}": 1 for i in range(3)},
            "a": {f"d{i}": 1 for i in range(5)},
        },
    )
    filtered = best_parent_filter(taxo, docm)
    print(f"  x had parents {sorted(taxo.parents('x'))}")
    print(f"  kept {sorted(filtered.parents('x'))}: p2 scores 0.3 + 0.5 from its")
    print("  ancestor against 0.6 for p1 alone")


if __name__ == "__main__":
    main()
