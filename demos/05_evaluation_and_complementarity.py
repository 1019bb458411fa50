"""Scoring against a gold standard and comparing methods.

Evaluation walks per-term common relations: for every shared term, the
relations the extracted taxonomy claims (through its transitive order) are
checked against the gold synset graph's transitive hypernym closure.
Complementarity then measures how much two methods' relation sets overlap,
directly or with inverted direction.
"""

from taxorel import (
    GoldTaxonomy,
    RelationSet,
    Synset,
    Taxonomy,
    build_taxonomy,
    common_relations,
    complementarity_matrix,
    evaluate,
)

GOLD = GoldTaxonomy(
    [
        Synset(1, frozenset(["vehicle"]), frozenset()),
        Synset(2, frozenset(["car"]), frozenset([1])),
        Synset(3, frozenset(["cab"]), frozenset([2])),
        Synset(4, frozenset(["tram"]), frozenset([1])),
        Synset(5, frozenset(["bus"]), frozenset([1])),
    ]
)


def relset(method, *pairs):
    return RelationSet(method, pairs)


def main() -> None:
    print("Common relations of one term")
    extracted = Taxonomy(
        [
            ("vehicle", "motor_vehicle"),
            ("motor_vehicle", "car"),
            ("car", "cab"),
            ("car", "tram"),
        ]
    )
    pairs = common_relations("car", extracted, GOLD)
    print(f"  car: {sorted(pairs)}")
    print("  (vehicle,car) is inherited through an intermediate the gold")
    print("  does not know; (car,tram) is claimed but wrong in the gold.")

    print("\nPrecision / recall / F-measure")
    report = evaluate(extracted, GOLD)
    print(f"  precision={report.precision:.4f} recall={report.recall:.4f} "
          f"fmeasure={report.fmeasure:.4f}")
    print(f"  common={report.common_count} extracted={report.extracted_count} "
          f"gold={report.gold_count}")

    print("\nComplementarity between three toy methods")
    methods = [
        relset("patt", ("car", "vehicle"), ("cab", "car")),
        relset("tf", ("car", "vehicle"), ("tram", "vehicle"), ("bus", "vehicle")),
        relset("dsim", ("vehicle", "car"), ("cab", "car")),  # one inverted pair
    ]
    matrix = complementarity_matrix(methods, GOLD)
    header = "        " + "".join(f"{m:>8s}" for m in matrix.methods)
    print("  direct ratios (row shared with column / row size)")
    print(f"  {header}")
    for ma in matrix.methods:
        cells = "".join(f"{matrix.direct[(ma, mb)]:8.2f}" for mb in matrix.methods)
        print(f"  {ma:>8s}{cells}")
    print("  inverse ratios (row shared with column after swapping direction)")
    print(f"  {header}")
    for ma in matrix.methods:
        cells = "".join(f"{matrix.inverse[(ma, mb)]:8.2f}" for mb in matrix.methods)
        print(f"  {ma:>8s}{cells}")

    print("\nTaxonomy built from the best method, reduced and measured, is")
    print("what the CLI writes per method; see README for the pipeline.")
    print(f"  patt taxonomy nodes: {sorted(build_taxonomy(methods[0]).nodes)}")


if __name__ == "__main__":
    main()
