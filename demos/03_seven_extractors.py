"""The seven relation extractors side by side.

A small animal-themed corpus is planted so that broader terms occur in
more documents and subsume the document sets of their narrower terms.
Each extractor then proposes (hyponym is-a hypernym) pairs from its own
kind of evidence: patterns, context inclusion, context entropy, term and
document frequency, document subsumption, and clustering.
"""

from taxorel import (
    Corpus,
    Document,
    TaggedToken,
    TermSet,
    context_entropies,
    extract_df,
    extract_docsub,
    extract_document_contexts,
    extract_dsim,
    extract_hclust,
    extract_patterns,
    extract_slqs,
    extract_tf,
    extract_window_contexts,
    default_patterns,
    weight_lmi,
    weight_ppmi,
)

_POS = {"N": "NOUN", "P": "PROPN", "V": "VERB", "J": "ADJ", "O": "OTHER"}


def sentence(text: str):
    """'dogs|dog:N bark:V' -> tagged tokens (surface|lemma:POS)."""
    tokens = []
    for item in text.split():
        word, _, pos = item.rpartition(":")
        surface, _, lemma = word.partition("|")
        tokens.append(TaggedToken(surface, lemma or surface, _POS[pos]))
    return tuple(tokens)


DOCS = {
    "d1": ["animals|animal:N such:J as:O dogs|dog:N and:O cats|cat:N"],
    "d2": ["big:J dogs|dog:N bark:V", "cats|cat:N watch:V birds|bird:N"],
    "d3": ["small:J dogs|dog:N eat:V", "animals|animal:N eat:V"],
    "d4": ["cats|cat:N sleep:V", "animals|animal:N sleep:V"],
    "d5": ["animals|animal:N move:V", "birds|bird:N fly:V"],
    "d6": ["dogs|dog:N play:V", "animals|animal:N play:V"],
}


def show(relset):
    pairs = sorted(relset.pair_set())
    text = ", ".join(f"{hypo} is-a {hyper}" for hypo, hyper in pairs) or "(none)"
    print(f"  {relset.method:7s} {text}")


def main() -> None:
    corpus = Corpus(
        "EN",
        tuple(
            Document(doc_id, tuple(sentence(s) for s in sents))
            for doc_id, sents in DOCS.items()
        ),
    )
    window = extract_window_contexts(corpus, window_size=5)
    documents = extract_document_contexts(corpus)
    vocab = TermSet(sorted(documents.terms()))
    print(f"Vocabulary: {', '.join(vocab)}\n")

    ppmi = weight_ppmi(window)
    lmi = weight_lmi(window)
    entropies = context_entropies(window)

    print("What each method proposes:")
    show(extract_patterns(corpus, default_patterns("EN"), vocab))
    show(extract_dsim(ppmi, vocab))
    show(extract_slqs(lmi, entropies, vocab))
    show(extract_tf(documents, vocab))
    show(extract_df(documents, vocab))
    show(extract_docsub(documents, vocab, lam=0.5))
    show(extract_hclust(ppmi, documents, vocab, k=2))

    print("\nNotes: the pattern method is precise but sparse; frequency and")
    print("entropy methods order almost every pair; document subsumption")
    print("only links terms whose document sets nest.  On a corpus this")
    print("small the inclusion method happily inverts pairs; the inverse")
    print("complementarity ratios of demo 05 quantify that tendency.")


if __name__ == "__main__":
    main()
