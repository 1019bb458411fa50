"""Association weights and entropy-based generality.

Starts from a raw count matrix, derives PPMI and LMI weights, computes
context entropies, and ranks words by generality (median normalized
entropy of their most associated contexts).  General words keep
uninformative contexts; specific words live in sharp ones.
"""

from taxorel import (
    ContextMatrix,
    context_entropies,
    weight_lmi,
    weight_ppmi,
    word_generalities,
)

# Rows: how often each target noun co-occurs with each context.
# "animal" dominates the widely shared contexts (live, eat, move) while
# "dog" and "poodle" own the sharp ones (bark, groom).
COUNTS = {
    "animal": {"live": 8, "eat": 6, "move": 5},
    "dog": {"live": 4, "eat": 3, "bark": 6, "move": 1},
    "poodle": {"live": 2, "eat": 1, "bark": 3, "groom": 5},
}


def main() -> None:
    matrix = ContextMatrix(COUNTS)

    print("PPMI weights (positive associations only)")
    ppmi = weight_ppmi(matrix)
    for term in ppmi.terms():
        row = ", ".join(f"{c}={w:.3f}" for c, w in sorted(ppmi.row(term).items()))
        print(f"  {term}: {row}")

    print("\nLMI weights (count times PMI, used to rank contexts)")
    lmi = weight_lmi(matrix)
    for term in lmi.terms():
        row = ", ".join(f"{c}={w:.3f}" for c, w in sorted(lmi.row(term).items()))
        print(f"  {term}: {row}")

    print("\nContext entropies (raw -> min-max normalized)")
    table = context_entropies(matrix)
    for context in sorted(table.raw):
        print(
            f"  {context}: H={table.raw[context]:.4f} "
            f"normalized={table.normalized[context]:.4f}"
        )

    print("\nWord generality (median normalized entropy of top contexts)")
    generality = word_generalities(lmi, table, COUNTS, top_n=50)
    for term, value in sorted(generality.items(), key=lambda kv: -kv[1]):
        print(f"  {term}: {value:.4f}")
    print("  Higher scores mark broader terms; the ordering feeds the")
    print("  entropy-based extractor in the next demo.")


if __name__ == "__main__":
    main()
