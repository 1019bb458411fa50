import gc
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxorel import patterns
from taxorel.contexts import TermSet
from taxorel.patterns import (
    default_patterns,
    extract_patterns,
    load_patterns,
    match_sentence,
    parse_template,
)

from helpers import corpus, doc, oracle_match_sentence, oracle_match_template, sent, tok


EN = default_patterns("EN")
PT = default_patterns("PT")


def en_pairs(tokens):
    return set(match_sentence(tokens, EN))


class TestEnglishPatterns:
    def test_such_as_with_np_head(self):
        tokens = (
            tok("The", "the", "OTHER"),
            tok("bow", "bow", "NOUN"),
            tok("lute", "lute", "NOUN"),
            tok(",", ",", "OTHER"),
            tok("such", "such", "ADJ"),
            tok("as", "as", "OTHER"),
            tok("the", "the", "OTHER"),
            tok("Bambarandang", "Bambarandang", "PROPN"),
            tok(",", ",", "OTHER"),
            tok("is", "be", "VERB"),
            tok("plucked", "pluck", "VERB"),
        )
        assert en_pairs(tokens) == {("bambarandang", "lute")}

    def test_no_trigger_yields_nothing(self):
        assert en_pairs(sent("the:O dog:N barked:V")) == set()

    def test_such_as_list(self):
        tokens = (
            tok("animals", "animal", "NOUN"),
            tok("such", "such", "ADJ"),
            tok("as", "as", "OTHER"),
            tok("dogs", "dog", "NOUN"),
            tok(",", ",", "OTHER"),
            tok("cats", "cat", "NOUN"),
            tok("and", "and", "OTHER"),
            tok("horses", "horse", "NOUN"),
        )
        assert en_pairs(tokens) == {
            ("dog", "animal"),
            ("cat", "animal"),
            ("horse", "animal"),
        }

    def test_or_other(self):
        tokens = (
            tok("bruises", "bruise", "NOUN"),
            tok(",", ",", "OTHER"),
            tok("wounds", "wound", "NOUN"),
            tok("or", "or", "OTHER"),
            tok("other", "other", "ADJ"),
            tok("injuries", "injury", "NOUN"),
        )
        assert en_pairs(tokens) == {("bruise", "injury"), ("wound", "injury")}

    def test_and_other_with_oxford_comma(self):
        tokens = (
            tok("cars", "car", "NOUN"),
            tok(",", ",", "OTHER"),
            tok("trucks", "truck", "NOUN"),
            tok(",", ",", "OTHER"),
            tok("and", "and", "OTHER"),
            tok("other", "other", "ADJ"),
            tok("vehicles", "vehicle", "NOUN"),
        )
        assert en_pairs(tokens) == {("car", "vehicle"), ("truck", "vehicle")}

    def test_including(self):
        tokens = (
            tok("continents", "continent", "NOUN"),
            tok(",", ",", "OTHER"),
            tok("including", "include", "VERB"),
            tok("Africa", "Africa", "PROPN"),
            tok("and", "and", "OTHER"),
            tok("Asia", "Asia", "PROPN"),
        )
        assert en_pairs(tokens) == {("africa", "continent"), ("asia", "continent")}

    def test_especially(self):
        tokens = (
            tok("composers", "composer", "NOUN"),
            tok(",", ",", "OTHER"),
            tok("especially", "especially", "OTHER"),
            tok("Bach", "Bach", "PROPN"),
        )
        assert en_pairs(tokens) == {("bach", "composer")}

    def test_such_np_as(self):
        tokens = (
            tok("such", "such", "ADJ"),
            tok("trees", "tree", "NOUN"),
            tok("as", "as", "OTHER"),
            tok("oaks", "oak", "NOUN"),
            tok("and", "and", "OTHER"),
            tok("pines", "pine", "NOUN"),
        )
        assert en_pairs(tokens) == {("oak", "tree"), ("pine", "tree")}

    def test_head_is_rightmost_noun_of_run(self):
        tokens = (
            tok("big", "big", "ADJ"),
            tok("sea", "sea", "NOUN"),
            tok("animals", "animal", "NOUN"),
            tok("such", "such", "ADJ"),
            tok("as", "as", "OTHER"),
            tok("whales", "whale", "NOUN"),
        )
        assert en_pairs(tokens) == {("whale", "animal")}

    def test_self_pairs_are_dropped(self):
        tokens = (
            tok("animals", "animal", "NOUN"),
            tok("such", "such", "ADJ"),
            tok("as", "as", "OTHER"),
            tok("animals", "animal", "NOUN"),
        )
        assert en_pairs(tokens) == set()


class TestPortuguesePatterns:
    def test_tais_como(self):
        tokens = (
            tok("animais", "animal", "NOUN"),
            tok("tais", "tal", "OTHER"),
            tok("como", "como", "OTHER"),
            tok("cães", "cão", "NOUN"),
            tok("e", "e", "OTHER"),
            tok("gatos", "gato", "NOUN"),
        )
        assert set(match_sentence(tokens, PT)) == {
            ("cão", "animal"),
            ("gato", "animal"),
        }

    def test_np_head_is_leftmost_noun(self):
        tokens = (
            tok("cachorros", "cachorro", "NOUN"),
            tok("pequenos", "pequeno", "ADJ"),
            tok("e", "e", "OTHER"),
            tok("outros", "outro", "OTHER"),
            tok("animais", "animal", "NOUN"),
        )
        assert set(match_sentence(tokens, PT)) == {("cachorro", "animal")}

    def test_incluindo(self):
        tokens = (
            tok("frutas", "fruta", "NOUN"),
            tok(",", ",", "OTHER"),
            tok("incluindo", "incluir", "VERB"),
            tok("maçãs", "maçã", "NOUN"),
        )
        assert set(match_sentence(tokens, PT)) == {("maçã", "fruta")}


class TestExtractPatterns:
    def _corpus(self):
        tokens = (
            tok("animals", "animal", "NOUN"),
            tok("such", "such", "ADJ"),
            tok("as", "as", "OTHER"),
            tok("dogs", "dog", "NOUN"),
            tok("and", "and", "OTHER"),
            tok("cats", "cat", "NOUN"),
        )
        return corpus(doc("a.txt", tokens))

    def test_relations_filtered_to_vocabulary(self):
        relset = extract_patterns(self._corpus(), EN, TermSet(["animal", "dog"]))
        assert relset.pair_set() == {("dog", "animal")}
        assert relset.method == "patt"

    def test_full_vocabulary(self):
        relset = extract_patterns(
            self._corpus(), EN, TermSet(["animal", "dog", "cat"])
        )
        assert relset.pair_set() == {("dog", "animal"), ("cat", "animal")}

    def test_language_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            extract_patterns(self._corpus(), PT, TermSet(["animal"]))

    def test_duplicate_matches_deduped(self):
        c = corpus(doc("a.txt", self._corpus().documents[0].sentences[0],
                       self._corpus().documents[0].sentences[0]))
        relset = extract_patterns(c, EN, TermSet(["animal", "dog", "cat"]))
        assert len(relset) == 2


class TestTemplateParsing:
    def test_slots_required(self):
        with pytest.raises(ValueError):
            parse_template("HYPER such as")
        with pytest.raises(ValueError):
            parse_template("such as HYPO+")

    def test_optional_literal(self):
        template = parse_template("HYPER ,? like HYPO+")
        kinds = [(e.kind, e.text, e.optional) for e in template.elements]
        assert kinds[1] == ("lit", ",", True)

    def test_required_literals_are_the_casefolded_non_optional_ones(self):
        assert parse_template("HYPER ,? Such AS HYPO+").required == {"such", "as"}
        assert parse_template("HYPO+ ,? or? HYPER").required == frozenset()

    def test_load_custom_file(self, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text("# comment\nHYPER like HYPO+\n", encoding="utf-8")
        pset = load_patterns(path, "EN")
        assert len(pset.templates) == 1
        tokens = (
            tok("animals", "animal", "NOUN"),
            tok("like", "like", "OTHER"),
            tok("dogs", "dog", "NOUN"),
        )
        assert set(match_sentence(tokens, pset)) == {("dog", "animal")}

    @pytest.mark.parametrize(
        "line",
        [
            "HYPER like",  # no HYPO+ slot
            "HYPER li\udcffke HYPO+",  # byte 0xff: not UTF-8
        ],
    )
    def test_bad_template_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "patterns.txt"
        path.write_text(f"# comment\nHYPER such as HYPO+\n{line}\n", "utf-8", "surrogateescape")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            load_patterns(path, "EN")

    def test_file_without_templates_names_the_file(self, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text("# comment\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_patterns(path, "EN")

    def test_default_sets_have_six_templates_each(self):
        assert len(EN.templates) == 6
        assert len(PT.templates) == 6

    def test_unknown_language(self):
        with pytest.raises(ValueError):
            default_patterns("DE")


class TestLiteralPrefilter:
    def test_sentences_without_template_literals_never_reach_the_matcher(self, monkeypatch):
        calls = []
        real = patterns._match_template

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(patterns, "_match_template", counting)
        vocab = TermSet(["animal", "cat", "dog"])
        plain = corpus(doc("a.txt", "the:O big:J dog:N chased:V a:O cat:N", "dog:N and:O cat:N"))
        assert len(extract_patterns(plain, EN, vocab)) == 0
        assert calls == []
        # Control: a sentence holding a template's literals does reach it.
        extract_patterns(corpus(doc("b.txt", "animal:N such:J as:O dog:N")), EN, vocab)
        assert calls


# Surfaces and tags for the property test: every EN and PT template literal
# (some in mixed case), commas, conjunctions, articles, adjectives and nouns.
WORDS = {
    "such": "ADJ", "Such": "ADJ", "as": "OTHER", "AS": "OTHER", "or": "OTHER",
    "other": "ADJ", "Other": "ADJ", "and": "OTHER", "including": "VERB",
    "especially": "OTHER", "tais": "OTHER", "como": "OTHER", "COMO": "OTHER",
    "e": "OTHER", "ou": "OTHER", "outros": "OTHER", "Outros": "ADJ",
    "incluindo": "VERB", "especialmente": "OTHER", ",": "OTHER", ":": "OTHER",
    "like": "OTHER", "Like": "OTHER", "the": "OTHER", "a": "OTHER", "os": "OTHER",
    "uma": "OTHER", "big": "ADJ", "pequeno": "ADJ", "is": "VERB",
    "animals": "NOUN", "Dogs": "NOUN", "cats": "NOUN", "cão": "NOUN",
    "gatos": "NOUN", "Bach": "PROPN",
}
# Drawn sentences alternate a connector with a noun phrase, so that template
# matches, partial matches and literals out of order all come up often.
CONNECTORS = [
    "", ",", "is", "and", "e", "or", "like", "Like", ":", "such", "as", "such as",
    "Such AS", ", such as", "or other", ", and other", "other", "including",
    ", especially", "tais como", "COMO", ", e outros", "ou Outros", "outros",
    "incluindo", "especialmente", "big",
]
NOUN_PHRASES = [
    "animals", "cats", "Bach", "cão", "the big Dogs", "a cats", "os gatos pequeno",
    "uma cão", "Other animals",
]
# Lemmas other than the casefolded surface, so that matching literals on
# lemmas instead of surfaces would show.
LEMMAS = {
    "including": "include", "incluindo": "incluir", "outros": "outro", "Outros": "outro",
    "Other": "other", "animals": "animal", "Dogs": "dog", "cats": "cat", "gatos": "gato",
}


def lemma(surface: str) -> str:
    return LEMMAS.get(surface, surface.casefold())


def words(text: str):
    return tuple(tok(w, lemma(w), WORDS[w]) for w in text.split())


# Template sets as users would load them from files; see ``user_sets``.
USER_TEMPLATES = {
    "upper": ("EN", "HYPER LIKE HYPO+\nHYPO+ ,? AND Other HYPER\n"),
    "optional": ("PT", "HYPER ,? HYPO+\nHYPO+ :? outros? HYPER\n"),
}


@pytest.fixture(scope="module")
def user_sets(tmp_path_factory):
    sets = {"EN": EN, "PT": PT}
    for name, (language, text) in USER_TEMPLATES.items():
        path = tmp_path_factory.mktemp("templates") / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        sets[name] = load_patterns(path, language)
    return sets


SENTENCES = st.lists(
    st.tuples(st.sampled_from(CONNECTORS), st.sampled_from(NOUN_PHRASES)),
    min_size=1,
    max_size=5,
).map(lambda pieces: words(" ".join(" ".join(piece) for piece in pieces)))
VOCABULARIES = st.sets(st.sampled_from(sorted(map(lemma, WORDS))))


class TestPrefilterAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(["EN", "PT", *USER_TEMPLATES]), tokens=SENTENCES, vocab=VOCABULARIES
    )
    # Literals present but out of order; only some of a template's literals.
    @example(name="EN", tokens=words("Dogs as such animals or cats other"), vocab={"animal", "cat"})
    @example(name="PT", tokens=words("animals tais gatos e cão"), vocab={"animal", "gato", "cão"})
    # A template file with an uppercase literal; one with only optional literals.
    @example(name="upper", tokens=words("animals Like Dogs"), vocab={"animal", "dog"})
    @example(name="optional", tokens=words("animals , cats"), vocab={"animal", "cat"})
    def test_matches_the_full_scan(self, user_sets, name, tokens, vocab):
        pset = user_sets[name]
        expected = oracle_match_sentence(tokens, pset)
        assert match_sentence(tokens, pset) == expected
        relset = extract_patterns(
            corpus(doc("a.txt", tokens, tokens), language=pset.language), pset, TermSet(vocab)
        )
        assert relset.pair_set() == {
            (hypo, hyper) for hypo, hyper in expected if hypo in vocab and hyper in vocab
        }


class TestMatcherAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["EN", "PT", *USER_TEMPLATES]), tokens=SENTENCES)
    # The longest hyponym list fails where a shorter one succeeds.
    @example(name="EN", tokens=words("Dogs , cats , and other animals"))
    # An optional literal present in the sentence.
    @example(name="EN", tokens=words("animals , such as cats"))
    # A Portuguese phrase with trailing adjectives.
    @example(name="PT", tokens=words("os gatos pequeno , cão e outros animals"))
    # An article before each slot.
    @example(name="EN", tokens=words("the big Dogs , a cats and other the animals"))
    # A comma and a conjunction together separate two hyponyms.
    @example(name="PT", tokens=words("animals tais como cão , e gatos"))
    def test_every_template_at_every_start(self, user_sets, name, tokens):
        pset = user_sets[name]
        for template in pset.templates:
            for start in range(len(tokens)):
                assert patterns._match_template(
                    template, tokens, start, pset
                ) == oracle_match_template(template, tokens, start, pset)

    def test_an_optional_literal_is_taken_before_it_is_skipped(self):
        # Taken, ``gatos`` leaves the phrase ``animals``; skipped, it heads
        # the Portuguese phrase ``gatos animals``.
        template = parse_template("gatos? HYPER como HYPO+")
        tokens = words("gatos animals como cão")
        assert patterns._match_template(template, tokens, 0, PT) == ("animal", ["cão"])
        assert oracle_match_template(template, tokens, 0, PT) == ("animal", ["cão"])


def test_matching_leaves_no_garbage_cycles():
    """Matching frees everything it makes by reference counting alone."""
    tokens = words("animals , such as Dogs , cats and the big Dogs")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert match_sentence(tokens, EN)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def matched(monkeypatch):
    """The sentence and the template sources of every call of the matcher."""
    calls = []
    real = patterns._matches

    def recording(tokens, templates, pset):
        calls.append((tokens, [t.source for t in templates]))
        return real(tokens, templates, pset)

    monkeypatch.setattr(patterns, "_matches", recording)
    return calls


def oracle_pairs(c, pset, vocab) -> set:
    """The in-vocabulary pairs of the unfiltered matcher on every sentence."""
    return {
        (hypo, hyper)
        for d in c.documents
        for sentence in d.sentences
        for hypo, hyper in oracle_match_sentence(sentence, pset)
        if hypo in vocab and hyper in vocab
    }


class TestCorpusPrefilter:
    """``extract_patterns`` decides the prefilter for all sentences at once."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(["EN", "PT", *USER_TEMPLATES]),
        documents=st.lists(st.lists(SENTENCES, max_size=3), min_size=1, max_size=4),
        vocab=VOCABULARIES,
    )
    # A Portuguese phrase heads on its leftmost noun ("animals gatos" on
    # animal; gato is out of the vocabulary); a lemma in another case than
    # its vocabulary term.
    @example(name="PT", documents=[[words("animals gatos tais como cão")]], vocab={"animal", "cão"})
    @example(
        name="EN",
        documents=[[(*words("animals such as"), tok("Dogs", "Dog", "NOUN"))]],
        vocab={"animal", "dog"},
    )
    def test_matches_the_oracle_on_every_sentence(self, user_sets, name, documents, vocab):
        pset = user_sets[name]
        c = corpus(
            *(doc(f"d{i}.txt", *sentences) for i, sentences in enumerate(documents)),
            language=pset.language,
        )
        assert extract_patterns(c, pset, TermSet(vocab)).pair_set() == oracle_pairs(c, pset, vocab)

    def test_literals_in_two_sentences_are_not_live(self, matched):
        # "such" ends a sentence and "as" starts the next, within a document
        # and across two documents.
        c = corpus(
            doc("a.txt", words("animals such"), words("as Dogs"), words("cats such")),
            doc("b.txt", words("as cats")),
        )
        assert len(extract_patterns(c, EN, TermSet(["animal", "cat", "dog"]))) == 0
        assert matched == []

    def test_required_literal_ending_a_document(self, matched):
        ends_a, ends_corpus = words("Dogs , cats or other"), words("cats or other")
        c = corpus(
            doc("a.txt", words("animals like Dogs"), ends_a),
            doc("b.txt", words("Dogs and cats"), ends_corpus),
        )
        vocab = TermSet(["animal", "cat", "dog"])
        assert extract_patterns(c, EN, vocab).pair_set() == oracle_pairs(c, EN, vocab)
        # ``ends_corpus`` holds only one vocabulary term, so no pair is kept.
        assert matched == [(ends_a, ["HYPO+ ,? or other HYPER"])]

    def test_template_without_required_literals_needs_two_terms(self, user_sets, matched):
        pset = user_sets["optional"]
        sentences = [words("animals , cats"), words("big"), words("cão outros gatos")]
        c = corpus(doc("a.txt", *sentences[:2]), doc("b.txt", sentences[2]), language="PT")
        vocab = {"animal", "cat", "cão", "gato"}
        assert extract_patterns(c, pset, TermSet(vocab)).pair_set() == oracle_pairs(c, pset, vocab)
        sources = [t.source for t in pset.templates]
        # Every sentence holds every required literal; "big" holds no term.
        assert matched == [(sentences[0], sources), (sentences[2], sources)]

    @pytest.mark.parametrize("width", [8, 9, 70])
    def test_template_sets_of_any_width(self, tmp_path, matched, width):
        # 8 literals fit one byte per token, 9 need two, and 70 more than 64.
        fillers = " ".join(f"w{i}:O" for i in range(width - 2))
        path = tmp_path / "wide.txt"
        path.write_text(f"HYPER such as HYPO+\nHYPER {fillers.replace(':O', '')} HYPO+\n")
        pset = load_patterns(path, "EN")
        sentences = [
            sent("animal:N such:J as:O dog:N"),
            sent(f"cat:N {fillers} dog:N"),
            sent(f"cat:N {fillers.rpartition(' ')[0]} dog:N such:J"),
        ]
        c = corpus(doc("a.txt", *sentences))
        vocab = {"animal", "cat", "dog"}
        assert extract_patterns(c, pset, TermSet(vocab)).pair_set() == {
            ("dog", "animal"),
            ("dog", "cat"),
        }
        assert oracle_pairs(c, pset, vocab) == {("dog", "animal"), ("dog", "cat")}
        first, second = (t.source for t in pset.templates)
        assert matched == [(sentences[0], [first]), (sentences[1], [second])]

    def test_one_distinct_term_never_reaches_the_matcher(self, matched):
        c = corpus(doc("a.txt", words("animals such as animals"), words("Dogs , such as Dogs")))
        assert len(extract_patterns(c, EN, TermSet(["animal", "dog"]))) == 0
        assert matched == []

    def test_terms_outside_the_vocabulary_never_reach_the_matcher(self, matched):
        # Two distinct noun lemmas, of which only "animal" is in the vocabulary.
        c = corpus(doc("a.txt", words("animals such as Dogs")))
        assert len(extract_patterns(c, EN, TermSet(["animal", "cat"]))) == 0
        assert matched == []
        # Control: with both in the vocabulary it does reach the matcher.
        assert extract_patterns(c, EN, TermSet(["animal", "dog"])).pair_set() == {("dog", "animal")}
        assert len(matched) == 1

    @pytest.mark.parametrize("tag", ["J", "V"])
    def test_terms_count_only_as_nouns(self, matched, tag):
        vocab = TermSet(["animal", "dog"])
        c = corpus(doc("a.txt", f"animal:N such:J as:O dog:{tag}"))
        assert len(extract_patterns(c, EN, vocab)) == 0
        assert matched == []
        # Control: the same lemma as a proper noun does reach it.
        c = corpus(doc("a.txt", "animal:N such:J as:O dog:P"))
        assert extract_patterns(c, EN, vocab).pair_set() == {("dog", "animal")}
        assert len(matched) == 1
