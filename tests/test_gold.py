import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxorel.gold import GoldFormatError, GoldTaxonomy, Synset, load_gold

from helpers import gold_from, oracle_is_hypernym, outcome


class TestLoadGold:
    def test_self_cycle_is_dropped(self):
        g = gold_from((1, ["dog"], [1]))
        assert g.synsets[1].hypernym_ids == frozenset()

    def test_direct_edge(self):
        g = gold_from((1, ["animal"], []), (2, ["dog"], [1]))
        assert g.is_hypernym("animal", "dog")
        assert not g.is_hypernym("dog", "animal")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text(
            "1\tanimal\t\n2\tdog|hound\t1\n3\tcat\t1\n", encoding="utf-8"
        )
        g = load_gold(path)
        assert g.is_hypernym("animal", "hound")
        assert g.contains_term("cat")

    def test_duplicate_id_is_an_error(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("1\tdog\t\n1\tcat\t\n", encoding="utf-8")
        with pytest.raises(GoldFormatError) as err:
            load_gold(path)
        assert "duplicate" in str(err.value)

    @pytest.mark.parametrize(
        "line, message",
        [("x1\tcat\t1", "bad synset id 'x1'"), ("2\tcat\t1,y", "bad hypernym id list '1,y'")],
        ids=["synset-id", "hypernym-list"],
    )
    def test_bad_number_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "gold.tsv"
        path.write_text(f"1\tdog\t\n{line}\n", encoding="utf-8")
        with pytest.raises(GoldFormatError) as err:
            load_gold(path)
        assert str(err.value) == f"{path}:2: {message}"

    def test_duplicate_synset_rejected(self):
        with pytest.raises(ValueError) as err:
            gold_from((1, ["dog"], []), (1, ["cat"], []))
        assert str(err.value) == "duplicate synset id 1"

    def test_dangling_reference_names_the_id(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("1\tdog\t99\n", encoding="utf-8")
        with pytest.raises(GoldFormatError) as err:
            load_gold(path)
        assert "99" in str(err.value)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "gold.tsv"
        # One field; then byte 0xff, which is not UTF-8.
        for line in ("not a line", "2\td\udcffg\t1"):
            path.write_text(f"1\tdog\t\n{line}\n", "utf-8", "surrogateescape")
            with pytest.raises(GoldFormatError, match=f"^{re.escape(str(path))}:2: "):
                load_gold(path)

    def test_synset_without_lemmas_rejected(self):
        with pytest.raises(ValueError):
            Synset(1, frozenset(), frozenset())


class TestTransitivity:
    def test_two_step_chain(self):
        g = gold_from(
            (1, ["plant"], []), (2, ["vegetable"], [1]), (3, ["potato"], [2])
        )
        assert g.is_hypernym("vegetable", "potato")
        assert g.is_hypernym("plant", "potato")  # inherited by transitivity
        assert not g.is_hypernym("potato", "plant")  # asymmetry

    def test_animal_noise_fixture(self):
        # A lemma repeated across two related synsets makes the lemma its
        # own (transitive) hypernym; mirrors the noise found in automatic
        # gold standards.
        g = gold_from(
            (300, ["mulher", "fêmea"], []),
            (200, ["fêmea"], [300]),
            (100, ["cão", "cadela"], [200]),
        )
        assert g.is_hypernym("fêmea", "cão")
        assert g.is_hypernym("mulher", "cão")  # two steps up
        assert g.is_hypernym("mulher", "cadela")
        assert not g.is_hypernym("cão", "mulher")
        assert g.is_hypernym("fêmea", "fêmea")  # distinct related synsets
        assert not g.is_hypernym("mulher", "mulher")

    def test_cycles_between_distinct_synsets_terminate(self):
        g = gold_from((1, ["a"], [2]), (2, ["b"], [1]))
        assert g.is_hypernym("a", "b")
        assert g.is_hypernym("b", "a")
        assert g.is_hypernym("a", "a")


class TestContainsTerm:
    def test_indexed_and_unknown(self):
        g = gold_from((1, ["dog"], []))
        assert g.contains_term("dog")
        assert not g.contains_term("cat")

    def test_case_folded_lookup(self):
        g = gold_from((1, ["Fêmea"], []), (2, ["DOG"], []))
        assert g.contains_term("fêmea")
        assert g.contains_term("dog")
        assert g.is_hypernym("dog", "dog") is False

    def test_unknown_lemmas_in_queries_return_false(self):
        g = gold_from((1, ["dog"], []))
        assert not g.is_hypernym("dog", "ghost")
        assert not g.is_hypernym("ghost", "dog")


class TestReachabilityOracle:
    def test_matches_brute_force_dfs(self):
        rng = random.Random(42)
        n = 120
        edges: dict[int, set[int]] = {i: set() for i in range(n)}
        for _ in range(600):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges[a].add(b)
        lemma_pool = [f"w{i}" for i in range(40)]
        synsets = [
            Synset(
                i,
                frozenset(rng.sample(lemma_pool, rng.randint(1, 2))),
                frozenset(edges[i]),
            )
            for i in range(n)
        ]
        g = GoldTaxonomy(synsets)

        def oracle(hyper: str, hypo: str) -> bool:
            targets = {s.id for s in synsets if hyper.casefold() in
                       {l.casefold() for l in s.lemmas}}
            starts = [s.id for s in synsets if hypo.casefold() in
                      {l.casefold() for l in s.lemmas}]

            def dfs(sid, seen):
                for parent in edges[sid]:
                    if parent in targets:
                        return True
                    if parent not in seen:
                        seen.add(parent)
                        if dfs(parent, seen):
                            return True
                return False

            return any(dfs(s, {s}) for s in starts)

        for _ in range(400):
            hyper, hypo = rng.choice(lemma_pool), rng.choice(lemma_pool)
            assert g.is_hypernym(hyper, hypo) == oracle(hyper, hypo)

    def test_ancestor_lemmas(self):
        g = gold_from(
            (1, ["animal"], []), (2, ["dog"], [1]), (3, ["puppy"], [2])
        )
        assert g.ancestor_lemmas("puppy") == {"dog", "animal"}
        assert g.ancestor_lemmas("animal") == frozenset()


# "a"/"A" and "c"/"C" fold to one lemma; "zz" is in no synset.
QUERY_LEMMAS = ["a", "A", "b", "c", "C", "d", "zz"]


class TestIsHypernymProperty:
    # Rows of (lemmas, hypernym ids); ids past the last synset are dropped,
    # and a synset listed as its own hypernym loses that edge.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.sets(st.sampled_from(QUERY_LEMMAS[:-1]), min_size=1, max_size=2),
                st.sets(st.integers(0, 5), max_size=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example([({"a"}, {1}), ({"b"}, {2}), ({"c"}, {0})])  # cycle through all three
    @example([({"a"}, set()), ({"b"}, {0}), ({"b", "d"}, set()), ({"c"}, {2})])  # b in two synsets
    @example([({"A"}, set()), ({"a", "b"}, {0}), ({"C"}, {1})])  # case variants
    @example([({"d"}, {0})])  # self-cycle only
    # b in two synsets whose chains meet at c and go on to a
    @example([({"a"}, set()), ({"c"}, {0}), ({"b"}, {1}), ({"b", "d"}, {1})])
    # a cycle leads back to b's first synset; its second has no hypernym
    @example([({"b", "d"}, {1}), ({"c"}, {0}), ({"b"}, set())])
    def test_matches_synset_bfs(self, rows):
        gold = gold_from(
            *((sid, lemmas, {h for h in hypers if h < len(rows)})
              for sid, (lemmas, hypers) in enumerate(rows))
        )
        for hyper in QUERY_LEMMAS:
            for hypo in QUERY_LEMMAS:
                expected = oracle_is_hypernym(gold, hyper, hypo)
                assert gold.is_hypernym(hyper, hypo) == expected
                assert gold.reaches(hyper, hypo) == expected


def animal_gold() -> GoldTaxonomy:
    return gold_from((1, ["Animal"], []), (2, ["dog", "hound"], [1]), (3, ["Dog"], [1]))


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: len(animal_gold()), 3, id="len"),
        pytest.param(
            lambda: animal_gold().term_set(), frozenset({"animal", "dog", "hound"}), id="term-set"
        ),
    ],
)
def test_rarely_run_paths_keep_their_behaviour(call, expected):
    assert outcome(call) == expected
