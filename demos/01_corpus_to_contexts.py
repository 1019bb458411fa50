"""From tagged text to co-occurrence contexts.

Builds a tiny corpus in the vertical token format, loads it, and shows the
two context models: positional window contexts (lemma-pos-side keys) and
document contexts (document-id keys).
"""

import tempfile
from pathlib import Path

from taxorel import (
    corpus_stats,
    extract_document_contexts,
    extract_window_contexts,
    load_corpus,
)

VERTICAL = {
    "zoo.txt": (
        "The\tthe\tDT\n"
        "energetic\tenergetic\tJJ\n"
        "dog\tdog\tNN\n"
        "barked\tbark\tVBD\n"
        ".\t.\t.\n"
        "\n"
        "Cats\tcat\tNNS\n"
        "sleep\tsleep\tVBP\n"
        ".\t.\t.\n"
    ),
    "farm.txt": (
        "Dogs\tdog\tNNS\n"
        "chase\tchase\tVBP\n"
        "fast\tfast\tJJ\n"
        "horses\thorse\tNNS\n"
        ".\t.\t.\n"
    ),
}

# Parser tags are mapped to five coarse tags at load time.
POS_MAPPING = {
    "NN": "NOUN", "NNS": "NOUN", "NNP": "PROPN",
    "VBD": "VERB", "VBP": "VERB", "JJ": "ADJ",
}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in VERTICAL.items():
            (root / name).write_text(text, encoding="utf-8")

        corpus = load_corpus(root, "EN", POS_MAPPING)
        stats = corpus_stats(corpus)
        print("Corpus statistics")
        print(f"  documents:       {stats.num_documents}")
        print(f"  sentences:       {stats.num_sentences}")
        print(f"  content words:   {stats.num_content_words}")
        print(f"  distinct lemmas: {stats.vocabulary_size}")

        print("\nWindow contexts (size 5: two tokens to each side)")
        window = extract_window_contexts(corpus, window_size=5)
        for term in window.terms():
            row = ", ".join(
                f"{label} x{count}"
                for label, count in sorted(window.row(term).items())
            )
            print(f"  {term}: {row}")
        print("  ('energetic-j-l' reads: adjective 'energetic' to the left)")

        print("\nDocument contexts (context = containing file)")
        documents = extract_document_contexts(corpus)
        for term in documents.terms():
            row = ", ".join(
                f"{doc} x{count}" for doc, count in sorted(documents.row(term).items())
            )
            print(f"  {term}: {row}")


if __name__ == "__main__":
    main()
