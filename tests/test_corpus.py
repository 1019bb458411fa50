import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxorel import corpus as corpus_module
from taxorel.corpus import (
    Corpus,
    CorpusFormatError,
    CorpusStats,
    Document,
    TaggedToken,
    corpus_stats,
    load_corpus,
    load_pos_mapping,
    sentence_documents,
)
from taxorel.contexts import load_matrix, matrix_text
from taxorel.gold import GoldFormatError, load_gold
from taxorel.relations import load_relations, relations_text

from helpers import (
    assert_coding_equal,
    corpus,
    doc,
    oracle_corpus_stats,
    oracle_load_corpus,
    oracle_sentence_documents,
    oracle_tokens,
    outcome,
    random_corpus,
    tok,
    write_vertical,
)


# A vertical file for the loader property test: (line, line end) pairs and
# whether the last line keeps its end.  NN and NNS lines give equal coarse
# tokens, and the small pool repeats lines within and across files.
VERTICAL_LINES = st.sampled_from([
    "dogs\tdog\tNN", "dogs\tdog\tNNS", "cat\tcat\tNOUN", "ran\trun\tVBD", "the\tthe\tDT",
    "", "", " ", " \t ",
])
VERTICAL_FILES = st.tuples(
    st.lists(st.tuples(VERTICAL_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
    st.booleans(),
)


class TestLoadCorpus:
    def test_single_token_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("dog\tdog\tNOUN\n", encoding="utf-8")
        c = load_corpus(tmp_path / "a.txt", "EN")
        stats = corpus_stats(c)
        assert stats.num_documents == 1
        assert stats.num_sentences == 1
        assert stats.num_content_words == 1

    def test_blank_line_splits_sentences(self, tmp_path):
        (tmp_path / "a.txt").write_text(
            "dog\tdog\tNOUN\n\ncat\tcat\tNOUN\n", encoding="utf-8"
        )
        c = load_corpus(tmp_path / "a.txt", "EN")
        assert len(c.documents) == 1
        assert len(c.documents[0].sentences) == 2

    def test_three_files_two_sentences_each(self, tmp_path):
        # Hand count on the fixture: 3 documents x 2 sentences = 6.
        body = "dog\tdog\tNOUN\n\ncat\tcat\tNOUN\n"
        for name in ("a.txt", "b.txt", "c.txt"):
            (tmp_path / name).write_text(body, encoding="utf-8")
        stats = corpus_stats(load_corpus(tmp_path, "EN"))
        assert stats.num_documents == 3
        assert stats.num_sentences == 6

    @pytest.mark.parametrize(
        "body, line",
        [
            (b"dog\tdog\tNOUN\ncat cat NOUN\n", 2),
            (b"dog\tdog\tNOUN\n\ncat\t\tNOUN\n", 3),
            # The bad byte starts line 3; "\r\n" ends the lines before it.
            (b"dog\tdog\tNOUN\r\n\r\n\xffcat\tcat\tNOUN\n\ndog\tdog\tNOUN\n", 3),
            # A bad line after 500 repeats of a cached good one.
            (b"dog\tdog\tNOUN\n" * 500 + b"dog\tdog\n", 501),
        ],
        ids=["malformed-line", "empty-field", "invalid-utf8", "after-cached-repeats"],
    )
    def test_malformed_line_reports_file_and_line(self, tmp_path, body, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(body)
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:{line}: "):
            load_corpus(path, "EN")

    def test_one_coarse_pos_call_per_distinct_token_line(self, tmp_path, monkeypatch):
        calls = []
        real = corpus_module.coarse_pos

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(corpus_module, "coarse_pos", counting)
        lines = ["dog\tdog\tNOUN", "the\tthe\tDET", "dog\tdog\tNOUN", "", "barked\tbark\tVERB"]
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text("\n".join(lines * 3) + "\n", encoding="utf-8")
        c = load_corpus(tmp_path, "EN")
        assert sum(1 for _ in c.tokens()) == 24
        assert len(calls) == 3

    def test_one_read_per_file_and_one_token_per_distinct_token_line(self, tmp_path, monkeypatch):
        reads, made = [], []
        text, token = corpus_module._text, corpus_module.TaggedToken
        monkeypatch.setattr(corpus_module, "_text", lambda *a: reads.append(a) or text(*a))
        monkeypatch.setattr(corpus_module, "TaggedToken", lambda *a: made.append(a) or token(*a))
        # NN and NNS give equal tokens from distinct lines; lines repeat across files.
        lines = ["dogs\tdog\tNN", "the\tthe\tDT", "dogs\tdog\tNNS", "", "dogs\tdog\tNN"]
        for name in ("a.txt", "b.txt", "c.txt"):
            (tmp_path / name).write_text("\n".join(lines * 2) + "\n", encoding="utf-8")
        c = load_corpus(tmp_path, "EN", {"NN": "NOUN", "NNS": "NOUN"})
        assert [Path(args[0]).name for args in reads] == ["a.txt", "b.txt", "c.txt"]
        assert made == [("dogs", "dog", "NOUN"), ("the", "the", "OTHER"), ("dogs", "dog", "NOUN")]
        assert len(c.coding.distinct) == 3 and len(c.coding.token) == 24

    @pytest.mark.parametrize(
        "files",
        [
            {"a.txt": b"dog\tdog\tNOUN\r\ncat\tcat\tNOUN\r\n\r\nfish\tfish\tNOUN\r\n"},
            {"a.txt": b"dog\tdog\tNOUN\ncat\tcat\tNOUN", "b.txt": b"cat\tcat\tNOUN\n"},
            {"a.txt": b"dog\tdog\tNOUN\n  \t \n\ncat\tcat\tNOUN\n \ndog\tdog\tNOUN\n"},
            {"a.txt": b"dogs\tdog\tNN\ndogs\tdog\tNNS\n\ndogs\tdog\tNNS\r\nran\trun\tVBD"},
            {"a.txt": b"\n\n", "b.txt": b"dog\tdog\tNN\rcat\tcat\tNN\r\rfish\tfish\tNN"},
        ],
        ids=["crlf", "no-final-newline", "blank-whitespace", "nn-and-nns", "empty-and-cr"],
    )
    def test_equals_the_per_line_oracle(self, tmp_path, files):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        mapping = {"NN": "NOUN", "NNS": "NOUN", "VBD": "VERB"}
        loaded = load_corpus(tmp_path, "EN", mapping)
        assert loaded == oracle_load_corpus(tmp_path, "EN", mapping)
        assert_coding_equal(loaded.coding, corpus_module._code_tokens(loaded.documents))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(files=st.lists(VERTICAL_FILES, min_size=1, max_size=4))
    def test_random_files_equal_the_per_line_oracle(self, files):
        mapping = {"NN": "NOUN", "NNS": "NOUN", "VBD": "VERB"}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for i, (lines, final) in enumerate(files):
                text = "".join(line + end for line, end in lines)
                if lines and not final:
                    text = text[: -len(lines[-1][1])]
                (root / f"d{i}.txt").write_text(text, encoding="utf-8", newline="")
            loaded, again = (load_corpus(root, "EN", mapping) for _ in range(2))
            oracle = oracle_load_corpus(root, "EN", mapping)
        assert list(loaded.tokens()) == oracle_tokens(oracle)
        # Equal from either side, before and after the documents are built.
        assert loaded == oracle and oracle == loaded
        assert oracle == again and again == oracle
        assert hash(loaded) == hash(again) == hash(oracle)
        assert loaded.ids == tuple(d.id for d in oracle.documents)
        assert_coding_equal(loaded.coding, corpus_module._code_tokens(loaded.documents))
        # Equal token lines share one token, and only equal lines do.
        token_lines = {line for lines, _ in files for line, _ in lines if line.strip()}
        assert len(loaded.coding.distinct) == len(token_lines)
        if loaded.coding.lengths.size:
            split = sentence_documents(loaded)
            assert split == sentence_documents(oracle) == oracle_sentence_documents(oracle)
            assert split.ids == tuple(d.id for d in split.documents)
            assert_coding_equal(split.coding, corpus_module._code_tokens(split.documents))
        else:
            with pytest.raises(ValueError, match="no sentences"):
                sentence_documents(loaded)

    @pytest.mark.parametrize(
        "files, bad",
        [
            # New good lines, then a bad one, then a bad one seen before.
            ({"a.txt": b"dog\tdog\tNOUN\ncat\tcat\tNOUN\n\ncat cat\ndog\n"}, "a.txt:4"),
            ({"a.txt": b"dog\tdog\tNOUN\n", "b.txt": b"fish\tfish\tNOUN\ndog\n"}, "b.txt:2"),
            # A format error in the first file before bad UTF-8 in the second.
            ({"a.txt": b"dog\tdog\tNOUN\ncat\tcat\n", "b.txt": b"\xffdog\tdog\tNOUN\n"}, "a.txt:2"),
            ({"a.txt": b"dog\tdog\tNOUN\n\xff\n", "b.txt": b"cat\tcat\n"}, "a.txt:2"),
            # A bad line repeated within one file: its first line is named.
            ({"a.txt": b"dog\tdog\tNOUN\n\ncat cat\nfish\tfish\tNOUN\ncat cat\n"}, "a.txt:3"),
            ({"a.txt": b"dog\tdog\tNOUN\n", "b.txt": b"x\tx\n\ndog\tdog\tNOUN\nx\tx\n"}, "b.txt:1"),
            # Whitespace-only lines stay sentence breaks before the bad line.
            ({"a.txt": b"dog\tdog\tNOUN\n \n\t\ncat\tcat\tNOUN\n\t\n \ncat\t\tNOUN\n"}, "a.txt:7"),
            ({"a.txt": b" \n\t\n", "b.txt": b"\t\n \ndog\tdog\n"}, "b.txt:3"),
        ],
        ids=[
            "after-new-lines",
            "second-file",
            "format-before-utf8",
            "utf8-before-format",
            "repeated-bad-line",
            "repeated-bad-line-second-file",
            "whitespace-breaks",
            "whitespace-only-file",
        ],
    )
    def test_first_bad_line_in_file_order_is_reported(self, tmp_path, files, bad):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(tmp_path / bad))}: "):
            load_corpus(tmp_path, "EN")

    def test_lists_regular_files_as_path_iterdir_does(self, tmp_path):
        root, elsewhere = tmp_path / "corpus", tmp_path / "elsewhere"
        (root / "sub").mkdir(parents=True)
        elsewhere.mkdir()
        for path, body in [
            (root / "b.txt", "cat\tcat\tNOUN\n"),
            (root / "a.txt", "dog\tdog\tNOUN\n"),
            (root / ".hidden", "bad line\n"),
            (root / "sub" / "c.txt", "fish\tfish\tNOUN\n"),
            (elsewhere / "linked.txt", "bird\tbird\tNOUN\n"),
        ]:
            path.write_text(body, encoding="utf-8")
        os.symlink(elsewhere / "linked.txt", root / "link.txt")
        os.symlink(elsewhere, root / "dir-link")
        os.symlink(tmp_path / "missing.txt", root / "dangling.txt")
        loaded = load_corpus(root, "EN")
        assert loaded == oracle_load_corpus(root, "EN")
        assert [d.id for d in loaded.documents] == ["a.txt", "b.txt", "link.txt"]

    def test_unknown_language_is_rejected_before_any_file_is_read(self, tmp_path, monkeypatch):
        (tmp_path / "a.txt").write_text("dog\tdog\tNOUN\n", encoding="utf-8")
        read = []
        monkeypatch.setattr(corpus_module, "_text", lambda *args: read.append(args))
        with pytest.raises(ValueError, match=r"^language must be one of \('EN', 'PT'\), got 'DE'$"):
            load_corpus(tmp_path, "de")
        assert read == []

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path, "EN")

    def test_documents_follow_sorted_file_names(self, tmp_path):
        for name in ("b.txt", "a.txt", "c.txt"):
            (tmp_path / name).write_text("x\tx\tNOUN\n", encoding="utf-8")
        c = load_corpus(tmp_path, "EN")
        assert [d.id for d in c.documents] == ["a.txt", "b.txt", "c.txt"]

    def test_unknown_tag_becomes_other(self, tmp_path):
        (tmp_path / "a.txt").write_text("the\tthe\tDET\n", encoding="utf-8")
        c = load_corpus(tmp_path / "a.txt", "EN")
        assert c.documents[0].sentences[0][0].pos == "OTHER"

    def test_pos_mapping_applies(self, tmp_path):
        (tmp_path / "map.tsv").write_text("NN\tNOUN\nVBD\tVERB\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text(
            "dog\tdog\tNN\nbarked\tbark\tVBD\n", encoding="utf-8"
        )
        mapping = load_pos_mapping(tmp_path / "map.tsv")
        c = load_corpus(tmp_path / "a.txt", "EN", mapping)
        assert [t.pos for t in c.documents[0].sentences[0]] == ["NOUN", "VERB"]

    def test_bad_mapping_coarse_tag(self, tmp_path):
        path = tmp_path / "map.tsv"
        # Not a coarse tag; one field; byte 0xff, which is not UTF-8.
        for line in ("NN\tNOUNISH", "NN", "N\udcffN\tNOUN"):
            path.write_text(f"VBD\tVERB\n{line}\n", "utf-8", "surrogateescape")
            with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:2: "):
                load_pos_mapping(path)

    def test_repeated_fine_tag_names_its_line(self, tmp_path):
        # A second mapping of NN would silently replace the first.
        path = tmp_path / "map.tsv"
        for line in ("NN\tVERB", " NN \tNOUN"):
            path.write_text(f"NN\tNOUN\nVBD\tVERB\n{line}\n", encoding="utf-8")
            message = f"{path}:3: fine tag 'NN' is mapped twice"
            with pytest.raises(CorpusFormatError, match=f"^{re.escape(message)}$"):
                load_pos_mapping(path)

    def test_round_trip(self, tmp_path):
        original = corpus(
            doc("a.txt", "The:O energetic:J dog:N barked:V", "cat:N sat:V"),
            doc("b.txt", "fish:N swim:V"),
        )
        write_vertical(original, tmp_path / "out")
        reloaded = load_corpus(tmp_path / "out", "EN")
        assert reloaded == original

    def test_loads_are_stable(self, tmp_path):
        import random

        write_vertical(random_corpus(random.Random(7)), tmp_path / "c")
        first = load_corpus(tmp_path / "c", "EN")
        second = load_corpus(tmp_path / "c", "EN")
        assert first == second

    def test_language_validation(self):
        with pytest.raises(ValueError):
            corpus(doc("a", "dog:N"), language="DE")


class TestCorpusStats:
    def test_single_content_token(self):
        stats = corpus_stats(corpus(doc("a", "dog:N")))
        assert stats.num_content_words == 1
        assert stats.vocabulary_size == 1

    def test_non_content_excluded_and_lemmas_collapse(self):
        stats = corpus_stats(corpus(doc("a", "dog:N dog:N the:O")))
        assert stats.num_content_words == 2
        assert stats.vocabulary_size == 1

    def test_hand_counted_fixture(self):
        # 10 content tokens over 7 distinct lemmas, counted by hand.
        c = corpus(
            doc("a", "dog:N cat:N dog:N the:O", "fish:N bird:N bird:N"),
            doc("b", "cat:N tree:N of:O", "sun:N moon:N"),
        )
        stats = corpus_stats(c)
        assert stats.num_content_words == 10
        assert stats.vocabulary_size == 7

    def test_vocabulary_bounded_by_tokens(self):
        import random

        for seed in range(10):
            c = random_corpus(random.Random(seed))
            stats = corpus_stats(c)
            total = sum(1 for _ in c.tokens())
            assert stats.vocabulary_size <= stats.num_content_words <= total


# Token lines for the coded-view property test: PROPN and NOUN targets,
# lemmas that differ only in case (and fold together), and every coarse tag.
TOKEN_LINES = [
    ("Dogs", "Dog", "PROPN"), ("dogs", "dog", "NOUN"), ("DOG", "DOG", "NOUN"),
    ("Bach", "Bach", "PROPN"), ("bach", "bach", "NOUN"), ("Straße", "Straße", "NOUN"),
    ("STRASSE", "STRASSE", "PROPN"), ("runs", "run", "VERB"), ("Run", "Run", "VERB"),
    ("big", "big", "ADJ"), ("the", "the", "OTHER"),
]
SHARED = [TaggedToken(*line) for line in TOKEN_LINES]
# A token is (line number, shared): the one shared object of the line, as
# load_corpus interns it, or a fresh equal one built with tok().
TOKENS = st.tuples(st.integers(0, len(TOKEN_LINES) - 1), st.booleans())
SENTENCES = st.lists(TOKENS, min_size=1, max_size=6)
DOCUMENTS = st.lists(st.lists(SENTENCES, max_size=3), min_size=1, max_size=4)


def build_corpus(documents) -> Corpus:
    def sentence(drawn):
        return tuple(SHARED[k] if shared else tok(*TOKEN_LINES[k]) for k, shared in drawn)

    return Corpus(
        "EN",
        tuple(Document(f"d{i}", tuple(map(sentence, s))) for i, s in enumerate(documents)),
    )


class TestTokenCoding:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(documents=DOCUMENTS, split=st.booleans())
    # Documents without sentences, before, between and after the others.
    @example(documents=[[], [[(0, True)], [(1, False)]], [], [[(2, True)]], []], split=False)
    @example(documents=[[]], split=False)
    # Equal tokens, one interned and one not, in one sentence.
    @example(documents=[[[(3, True), (3, False), (3, True)]]], split=True)
    def test_coding_and_stats_match_a_token_walk(self, documents, split):
        c = build_corpus(documents)
        if split and any(documents):
            c = sentence_documents(c)
        coding = c.coding
        assert c.coding is coding
        tokens = oracle_tokens(c)
        assert list(map(id, c.tokens())) == list(map(id, tokens))
        assert len(coding.token) == len(tokens)
        assert all(coding.distinct[k] is t for k, t in zip(coding.token.tolist(), tokens))
        # Each token object once, in order of first occurrence.
        assert [id(t) for t in coding.distinct] == list(dict.fromkeys(map(id, tokens)))
        sentences = [(i, s) for i, d in enumerate(c.documents) for s in d.sentences]
        assert coding.lengths.tolist() == [len(s) for _, s in sentences]
        assert coding.documents.tolist() == [i for i, _ in sentences]
        for start, (_, sentence) in zip(coding.starts.tolist(), sentences):
            assert tokens[start : start + len(sentence)] == list(sentence)
        assert corpus_stats(c) == oracle_corpus_stats(c)

    @pytest.mark.parametrize("kind", ["loaded", "split", "built"])
    def test_every_corpus_holds_its_coding_from_the_start(self, tmp_path, kind):
        write_vertical(corpus(doc("a.txt", "dog:N big:J", "cat:N")), tmp_path)
        c = load_corpus(tmp_path, "EN")
        if kind == "split":
            c = sentence_documents(c)
        elif kind == "built":
            c = Corpus("EN", c.documents)
        assert {"language", "ids", "coding"} <= vars(c).keys()
        assert_coding_equal(c.coding, corpus_module._code_tokens(c.documents))

    @pytest.mark.parametrize("kind", ["loaded", "split", "built"])
    def test_every_array_is_read_only(self, tmp_path, kind):
        write_vertical(corpus(doc("a.txt", "dog:N big:J", "cat:N")), tmp_path)
        c = load_corpus(tmp_path, "EN")
        c = {"loaded": c, "split": sentence_documents(c), "built": corpus(*c.documents)}[kind]
        assert c.coding.token.dtype == np.int32
        for array in c.coding[1:]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_mixed_case_lemmas_and_proper_nouns_counted(self):
        dogs, straße = [(0, True), (1, False), (2, True)], [(5, False), (6, True), (10, True)]
        c = build_corpus([[dogs, straße]])
        # Dog, dog and DOG fold to one lemma, Straße and STRASSE to another.
        assert corpus_stats(c) == CorpusStats(1, 2, 5, 2)


class TestPseudoDocuments:
    def test_each_sentence_becomes_a_document(self):
        c = corpus(doc("a.txt", "dog:N", "cat:N"), doc("b.txt", "fish:N"))
        split = sentence_documents(c)
        assert [d.id for d in split.documents] == ["a.txt#s1", "a.txt#s2", "b.txt#s1"]
        assert all(len(d.sentences) == 1 for d in split.documents)

    def test_token_content_preserved(self):
        c = corpus(doc("a.txt", "dog:N barked:V", "cat:N"))
        split = sentence_documents(c)
        assert list(split.tokens()) == list(c.tokens())


class TestInvariants:
    def test_empty_sentence_rejected(self):
        from taxorel.corpus import Document

        with pytest.raises(ValueError):
            Document("a", (tuple(),))

    @pytest.mark.parametrize(
        "language, documents",
        [
            ("DE", [("a", [1])]),
            ("EN", []),
            ("EN", [("a", [1]), ("a", [])]),
        ],
        ids=["language", "no-documents", "duplicate-ids"],
    )
    def test_a_coded_corpus_is_checked_as_a_built_one(self, language, documents):
        token = TaggedToken("dog", "dog", "NOUN")
        with pytest.raises(ValueError) as built:
            Corpus(language, tuple(Document(i, tuple((token,) * n for n in s)) for i, s in documents))
        lengths = np.array([n for _, s in documents for n in s], dtype=np.int64)
        coding = corpus_module._coding(
            [token], np.zeros(lengths.sum(), np.int64), lengths, [len(s) for _, s in documents]
        )
        with pytest.raises(ValueError) as coded:
            corpus_module._coded(language, tuple(i for i, _ in documents), coding)
        assert str(coded.value) == str(built.value)

    def test_duplicate_document_ids_rejected(self):
        with pytest.raises(ValueError):
            corpus(doc("a", "dog:N"), doc("a", "cat:N"))

    def test_empty_token_fields_rejected(self):
        with pytest.raises(ValueError):
            TaggedToken("", "dog", "NOUN")
        with pytest.raises(ValueError):
            TaggedToken("dog", "", "NOUN")


# Each tab-separated loader: its call, its error class, its field count,
# two valid lines, and a comparable view of what it loads.
TAB_SEPARATED_LOADERS = {
    "pos-mapping": (load_pos_mapping, CorpusFormatError, 2, ("NN\tNOUN", "VBD\tVERB"), dict),
    "gold": (
        load_gold,
        GoldFormatError,
        3,
        ("1\tanimal\t", "2\tdog|hound\t1"),
        lambda gold: gold.synsets,
    ),
    "matrix": (load_matrix, ValueError, 3, ("dog\td1\t2", "cat\td1\t1"), matrix_text),
    "relations": (
        load_relations,
        ValueError,
        4,
        ("dog\tanimal\tpatt\t0.5", "cat\tanimal\tpatt\t"),
        relations_text,
    ),
}


@pytest.mark.parametrize("name", TAB_SEPARATED_LOADERS)
class TestTabSeparatedLoaders:
    """The one contract of :func:`taxorel.corpus._records` for every loader."""

    def test_whitespace_only_lines_are_skipped(self, tmp_path, name):
        load, _, _, (first, second), view = TAB_SEPARATED_LOADERS[name]
        plain, spaced = tmp_path / "plain.tsv", tmp_path / "spaced.tsv"
        plain.write_text(f"{first}\n{second}\n", encoding="utf-8")
        spaced.write_text(f" \n{first}\n\t\t\t\n \t \n\n{second}\n\t\n", encoding="utf-8")
        assert view(load(spaced)) == view(load(plain)) and view(load(plain))

    def test_wrong_field_count_names_file_and_line(self, tmp_path, name):
        load, error, width, (first, second), _ = TAB_SEPARATED_LOADERS[name]
        path = tmp_path / "bad.tsv"
        for line in (f"{second}\textra", second.split("\t", 1)[1]):  # one field more, one less
            path.write_text(f"{first}\n{line}\n", encoding="utf-8")
            expected = f"^{re.escape(str(path))}:2: expected {width} tab-separated fields, got "
            with pytest.raises(error, match=expected) as caught:
                load(path)
            assert type(caught.value) is error

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_load_as_newlines(self, tmp_path, name, end):
        load, _, _, lines, view = TAB_SEPARATED_LOADERS[name]
        unix, other = tmp_path / "unix.tsv", tmp_path / "other.tsv"
        unix.write_bytes("".join(f"{line}\n" for line in lines).encode())
        other.write_bytes("".join(f"{line}{end}" for line in lines).encode())
        assert view(load(other)) == view(load(unix)) and view(load(unix))


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: TaggedToken("dog", "dog", "NN"),
            (ValueError, "unknown coarse POS tag: 'NN'"),
            id="unknown-coarse-tag",
        ),
        pytest.param(
            lambda: Document("", ()), (ValueError, "document id must be non-empty"), id="empty-id"
        ),
    ],
)
def test_rarely_run_paths_keep_their_behaviour(call, expected):
    assert outcome(call) == expected
