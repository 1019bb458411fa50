import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxorel.contexts import (
    ContextMatrix,
    TermSet,
    extract_document_contexts,
    extract_window_contexts,
    load_matrix,
    matrix_text,
    select_vocabulary,
)
from taxorel.corpus import (
    CONTENT_TAGS,
    TARGET_TAGS,
    Corpus,
    Document,
    corpus_stats,
    load_corpus,
    sentence_documents,
)
from taxorel.patterns import default_patterns, extract_patterns
from taxorel.weighting import weight_lmi, weight_ppmi

from helpers import (
    corpus,
    doc,
    gold_from,
    oracle_corpus_stats,
    oracle_document_contexts,
    oracle_match_sentence,
    oracle_matrix_text,
    oracle_sentence_documents,
    oracle_tokens,
    oracle_window_contexts,
    outcome,
    random_corpus,
    tok,
    write_vertical,
)


def labels(row):
    return dict(row)


class TestWindowContexts:
    def test_adjective_left_verb_right(self):
        c = corpus(
            doc(
                "a",
                [
                    tok("The", "the", "OTHER"),
                    tok("energetic", "energetic", "ADJ"),
                    tok("dog", "dog", "NOUN"),
                    tok("barked", "barked", "VERB"),
                    tok(".", ".", "OTHER"),
                ],
            )
        )
        m = extract_window_contexts(c, 5)
        assert labels(m.row("dog")) == {"energetic-j-l": 1, "barked-v-r": 1}

    def test_single_token_sentence_has_no_contexts(self):
        m = extract_window_contexts(corpus(doc("a", "dog:N")), 5)
        assert m.distinct_contexts("dog") == 0

    def test_repeated_target_counts_accumulate(self):
        # Window 5 reaches 2 tokens to each side: position-by-position,
        # cat@1 sees big@0 on the left, cat@3 sees big@2; total 2.
        m = extract_window_contexts(corpus(doc("a", "big:J cat:N big:J cat:N")), 5)
        row = labels(m.row("cat"))
        assert row["big-j-l"] == 2
        assert row["big-j-r"] == 1
        assert row["cat-n-r"] == 1
        assert row["cat-n-l"] == 1

    def test_windows_do_not_cross_sentences(self):
        m = extract_window_contexts(corpus(doc("a", "dog:N", "cat:N")), 5)
        assert m.distinct_contexts("dog") == 0
        assert m.distinct_contexts("cat") == 0

    def test_other_tokens_occupy_positions(self):
        # "far" sits 3 tokens away once the two OTHER tokens are counted.
        m = extract_window_contexts(corpus(doc("a", "dog:N of:O the:O far:N")), 5)
        assert m.distinct_contexts("dog") == 0

    def test_window_size_validation(self):
        c = corpus(doc("a", "dog:N"))
        with pytest.raises(ValueError):
            extract_window_contexts(c, 4)
        with pytest.raises(ValueError):
            extract_window_contexts(c, 1)

    def test_window_symmetry_for_noun_pairs(self):
        # On an all-noun corpus every context word is also a target, so u as
        # a right context of v must mirror v as a left context of u exactly.
        from taxorel.corpus import Document, TaggedToken

        for seed in range(10):
            c = random_corpus(random.Random(seed))
            pure = Corpus(
                "EN",
                tuple(
                    Document(
                        d.id,
                        tuple(
                            tuple(TaggedToken(t.surface, t.lemma, "NOUN") for t in s)
                            for s in d.sentences
                        ),
                    )
                    for d in c.documents
                ),
            )
            m = extract_window_contexts(pure, 5)
            for v in m.terms():
                for label, count in m.row(v).items():
                    lemma, _, side = label.rsplit("-", 2)
                    mirror = f"{v}-n-{'l' if side == 'r' else 'r'}"
                    assert m.row(lemma).get(mirror, 0) == count


class TestDocumentContexts:
    def test_two_documents(self):
        c = corpus(doc("doc_1.txt", "dog:N cat:N"), doc("doc_2.txt", "dog:N fish:N"))
        m = extract_document_contexts(c)
        assert labels(m.row("dog")) == {"doc_1.txt": 1, "doc_2.txt": 1}
        assert labels(m.row("cat")) == {"doc_1.txt": 1}
        assert labels(m.row("fish")) == {"doc_2.txt": 1}

    def test_repeats_in_one_document_counted(self):
        m = extract_document_contexts(corpus(doc("d", "dog:N dog:N")))
        assert m.row("dog")["d"] == 2

    def test_three_document_fixture_matches_hand_table(self):
        c = corpus(
            doc("d1", "dog:N cat:N dog:N"),
            doc("d2", "cat:N"),
            doc("d3", "dog:N fish:N", "fish:N"),
        )
        m = extract_document_contexts(c)
        assert labels(m.row("dog")) == {"d1": 2, "d3": 1}
        assert labels(m.row("cat")) == {"d1": 1, "d2": 1}
        assert labels(m.row("fish")) == {"d3": 2}

    def test_row_sums_equal_corpus_frequency(self):
        for seed in range(10):
            c = random_corpus(random.Random(seed))
            m = extract_document_contexts(c)
            freq: dict[str, int] = {}
            for t in c.tokens():
                if t.pos in ("NOUN", "PROPN"):
                    freq[t.lemma.casefold()] = freq.get(t.lemma.casefold(), 0) + 1
            for term in m.terms():
                assert sum(m.row(term).values()) == freq[term]


# Token objects shared across sentences, as ``load_corpus`` shares them, plus
# an equal copy that is a distinct object; one lemma as noun and verb, and
# mixed-case lemmas.
TOKENS = [
    tok(surface, lemma, pos)
    for surface, lemma, pos in [
        ("x", "x", "NOUN"), ("x", "x", "VERB"), ("X", "X", "NOUN"), ("Dogs", "Dog", "PROPN"),
        ("dog", "dog", "NOUN"), ("dog", "dog", "NOUN"), ("big", "big", "ADJ"),
        ("the", "the", "OTHER"), ("ran", "run", "VERB"), ("runs", "run", "NOUN"),
    ]
]
DOC_IDS = ["a.txt", "b.txt", "d#s3", "d#s10", "d#s1", "Z"]

corpora = st.lists(
    st.tuples(
        st.sampled_from(DOC_IDS),
        st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=8).map(tuple), max_size=4),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda d: d[0],
).map(lambda docs: Corpus("EN", tuple(Document(i, tuple(s)) for i, s in docs)))


def same_matrix(got: ContextMatrix, expected: ContextMatrix) -> None:
    assert (got.model, got.window_size) == (expected.model, expected.window_size)
    assert got.term_labels == expected.term_labels
    assert got.context_labels == expected.context_labels
    assert got.csr.shape == expected.csr.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got.csr, part), getattr(expected.csr, part)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


class TestContextOracles:
    @settings(max_examples=150, deadline=None)
    @given(c=corpora)
    @example(c=corpus(Document("a.txt", ()), doc("b.txt", "dog:N big:J")))
    @example(c=corpus(Document("a.txt", ()), Document("b.txt", ())))
    @example(c=corpus(doc("a.txt", "run:V big:J the:O", "ran:V")))
    @example(
        c=corpus(
            doc(
                "a.txt",
                [tok("x", "x", "NOUN"), tok("x", "x", "VERB"), tok("X", "X", "NOUN")],
                [tok("Dog", "Dog", "PROPN"), tok("dog", "dog", "NOUN"), tok("X", "x", "VERB")],
            )
        )
    )
    @example(c=corpus(doc("a.txt", "dog:N big:J the:O cat:N", "fish:N", "cat:N dog:N")))
    @example(c=corpus(doc("d#s3", "dog:N cat:N"), doc("d#s10", "dog:N"), doc("d#s1", "cat:N")))
    @example(c=corpus(doc("a.txt", "dog:N big:J run:V the:O")))  # a target first in its sentence
    @example(c=corpus(doc("a.txt", "the:O big:J run:V dog:N")))  # a target last in its sentence
    @example(c=corpus(doc("a.txt", "big:J run:V", "dog:N", "run:V big:J")))  # a one-token target
    @example(c=corpus(doc("a.txt", "big:J dog:N cat:N run:V")))  # two adjacent targets
    @example(c=corpus(doc("a.txt", "big:J dog:N run:V the:O cat:N fish:N")))  # shorter than 7 and 9
    def test_counts_equal_the_counter_loops(self, c):
        pairs = [(c, c)]
        if c.coding.lengths.size:
            pairs.append((sentence_documents(c), oracle_sentence_documents(c)))
        for got, oracle in pairs:
            for w in (3, 5, 7, 9):
                same_matrix(extract_window_contexts(got, w), oracle_window_contexts(oracle, w))
            same_matrix(extract_document_contexts(got), oracle_document_contexts(oracle))


# One lemma as a NOUN, a PROPN and a VERB, written "Run" and "run", in a
# pattern match and around targets; and a corpus with no content token.
LEMMA_CORPORA = {
    "noun-and-verb": corpus(
        doc(
            "a.txt",
            [
                tok("Animals", "animal", "NOUN"), tok("such", "such", "ADJ"),
                tok("as", "as", "OTHER"), tok("Runs", "Run", "NOUN"),
                tok("and", "and", "OTHER"), tok("dogs", "dog", "NOUN"),
            ],
            [tok("dogs", "dog", "NOUN"), tok("run", "run", "VERB"), tok("Run", "Run", "PROPN")],
        ),
        doc("b.txt", [tok("run", "run", "VERB"), tok("fast", "fast", "ADJ")], "run:N"),
    ),
    "no-content": corpus(doc("a.txt", "the:O of:O", "and:O"), Document("b.txt", ())),
}


class TestLemmaCoding:
    @pytest.mark.parametrize("name", LEMMA_CORPORA)
    def test_one_coding_per_distinct_token(self, name):
        c = LEMMA_CORPORA[name]
        table, content, target = lemmas = c.lemmas
        assert c.lemmas is lemmas
        tokens, distinct = oracle_tokens(c), c.coding.distinct
        assert table == sorted({t.lemma.casefold() for t in tokens if t.pos in CONTENT_TAGS})
        index = {term: i for i, term in enumerate(table)}
        expected = [index[t.lemma.casefold()] if t.pos in CONTENT_TAGS else -1 for t in distinct]
        assert content.tolist() == expected
        expected = [i if t.pos in TARGET_TAGS else -1 for t, i in zip(distinct, expected)]
        assert target.tolist() == expected
        for array in (content, target):
            assert array.dtype == np.int32
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    @pytest.mark.parametrize("name", LEMMA_CORPORA)
    def test_every_reader_matches_its_oracle(self, tmp_path, name):
        built = LEMMA_CORPORA[name]
        write_vertical(built, tmp_path)
        loaded = load_corpus(tmp_path, "EN")
        split = (sentence_documents(loaded), oracle_sentence_documents(built))
        vocab = TermSet(["animal", "dog", "fast", "run"])
        patterns = default_patterns("EN")
        for got, oracle in ((built, built), (loaded, built), split):
            assert corpus_stats(got) == oracle_corpus_stats(oracle)
            for w in (3, 5):
                same_matrix(extract_window_contexts(got, w), oracle_window_contexts(oracle, w))
            same_matrix(extract_document_contexts(got), oracle_document_contexts(oracle))
            pairs = {
                pair
                for d in oracle.documents
                for sentence in d.sentences
                for pair in oracle_match_sentence(sentence, patterns)
                if set(pair) <= set(vocab)
            }
            assert extract_patterns(got, patterns, vocab).pair_set() == pairs
        expected = {("run", "animal"), ("dog", "animal")} if name == "noun-and-verb" else set()
        assert pairs == expected


class TestSelectVocabulary:
    gold = staticmethod(
        lambda: gold_from((1, ["dog"], []), (2, ["cat"], [1]), (3, ["fish"], [1]))
    )

    def test_caps_at_available_overlap(self):
        m = ContextMatrix({"dog": {"d1": 1}, "cat": {"d1": 1}, "mouse": {"d1": 1}})
        vocab = select_vocabulary(m, self.gold(), 10)
        assert set(vocab) == {"dog", "cat"}

    def test_most_contexts_win(self):
        m = ContextMatrix({"dog": {"d1": 1, "d2": 1, "d3": 1}, "cat": {"d1": 1, "d2": 1}})
        vocab = select_vocabulary(m, self.gold(), 1)
        assert list(vocab) == ["dog"]

    def test_context_count_tie_breaks_lexicographically(self):
        m = ContextMatrix({"fish": {"d1": 5}, "cat": {"d2": 9}})
        vocab = select_vocabulary(m, self.gold(), 1)
        assert list(vocab) == ["cat"]

    def test_invariant_under_document_reordering(self):
        docs = [doc("d1", "dog:N cat:N"), doc("d2", "cat:N fish:N"), doc("d3", "dog:N")]
        forward = extract_document_contexts(corpus(*docs))
        backward = extract_document_contexts(corpus(*reversed(docs)))
        v1 = select_vocabulary(forward, self.gold(), 2)
        v2 = select_vocabulary(backward, self.gold(), 2)
        assert list(v1) == list(v2)

    def test_no_overlap_is_an_error(self):
        m = ContextMatrix({"qux": {"d1": 1}})
        with pytest.raises(ValueError):
            select_vocabulary(m, self.gold(), 1)

    def test_n_validation(self):
        m = ContextMatrix({"dog": {"d1": 1}})
        with pytest.raises(ValueError):
            select_vocabulary(m, self.gold(), 0)


class TestTermSet:
    def test_membership_and_order(self):
        ts = TermSet(["b", "a"])
        assert "a" in ts and "c" not in ts
        assert list(ts) == ["b", "a"]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            TermSet(["a", "a"])


class TestMatrixPersistence:
    def test_window_round_trip(self, tmp_path):
        c = corpus(doc("a", "big:J dog:N barked:V", "dog:N bites:V"))
        m = extract_window_contexts(c, 5)
        (tmp_path / "m.tsv").write_text(matrix_text(m), encoding="utf-8")
        again = load_matrix(tmp_path / "m.tsv", 5)
        assert {t: dict(m.row(t)) for t in m.terms()} == {
            t: dict(again.row(t)) for t in again.terms()
        }

    def test_document_round_trip(self, tmp_path):
        m = extract_document_contexts(corpus(doc("d1", "dog:N dog:N cat:N")))
        (tmp_path / "m.tsv").write_text(matrix_text(m), encoding="utf-8")
        again = load_matrix(tmp_path / "m.tsv")
        assert dict(again.row("dog")) == {"d1": 2}

    def test_output_is_sorted(self):
        m = ContextMatrix({"b": {"d2": 1, "d1": 1}, "a": {"d9": 2}})
        lines = matrix_text(m).splitlines()
        assert lines == sorted(lines)

    @pytest.mark.parametrize("seed", range(8))
    def test_text_equals_the_row_by_row_oracle(self, seed):
        c = random_corpus(random.Random(seed))
        window = extract_window_contexts(c, 5)
        for m in (window, extract_document_contexts(c), weight_ppmi(window), weight_lmi(window)):
            assert matrix_text(m) == oracle_matrix_text(m)

    @pytest.mark.parametrize(
        "line",
        [
            "dog\tbig-x-l\t1",  # no such POS letter
            "dog\tbig\t1",  # no dashes
            "dog\tbig-j-up\t1",  # no such side
            "dog\tbig-j-l\tmany",  # not an integer
            "dog\tbig-j-l\t0",  # not positive
            "dog\tbarked-v-r\t5",  # same term and context as line 1
            "dog\tb\udcffig-j-l\t1",  # byte 0xff: not UTF-8
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "m.tsv"
        path.write_text(f"dog\tbarked-v-r\t2\n{line}\n", "utf-8", "surrogateescape")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            load_matrix(path, 5)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            ContextMatrix({}, window_size=4)
        with pytest.raises(ValueError):
            ContextMatrix({"a": {"d": 0}})


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: ContextMatrix({"dog": {"d1": 1}}).scaled(0),
            (ValueError, "scale factor must be a positive integer"),
            id="scaled-by-zero",
        ),
        pytest.param(lambda: ContextMatrix({"dog": {"d1": 1}}).model, "document", id="document"),
        pytest.param(lambda: ContextMatrix({"dog": {"big-j-l": 1}}, 5).model, "window", id="window"),
        pytest.param(
            lambda: ContextMatrix({"dog": {"big-j-l": 1}}, 3).scaled(2).window_size,
            3,
            id="scaled-keeps-the-window",
        ),
        pytest.param(lambda: TermSet("ab") == TermSet("ab"), True, id="termset-equal"),
        pytest.param(lambda: TermSet("ab") == TermSet("ba"), False, id="termset-order"),
        pytest.param(lambda: TermSet("ab") == ("a", "b"), False, id="termset-and-a-tuple"),
        pytest.param(lambda: repr(TermSet("ab")), "TermSet(2 terms)", id="termset-repr"),
    ],
)
def test_rarely_run_paths_keep_their_behaviour(call, expected):
    assert outcome(call) == expected
