import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxorel.evaluation import complementarity_matrix
from taxorel.relations import RelationSet, load_relations, relations_text
from taxorel.taxonomy import build_taxonomy

from helpers import (
    gold_from,
    oracle_build_taxonomy,
    oracle_complementarity_cells,
    oracle_from_mask,
    oracle_from_pairs,
    oracle_mask_taxonomy,
    oracle_relations_text,
    outcome,
)


TERMS = "abcd"
# Scored pairs with repeats and both orientations; None is a missing score.
SCORED_PAIRS = st.lists(
    st.tuples(
        st.tuples(st.sampled_from(TERMS), st.sampled_from(TERMS)).filter(lambda p: p[0] != p[1]),
        st.one_of(st.none(), st.floats(allow_nan=False)),
    ),
    max_size=14,
)


def first_scores(scored) -> dict:
    """The set-of-pairs oracle: each pair with its first score."""
    first = {}
    for pair, score in scored:
        first.setdefault(pair, score)
    return first


class TestRelationSetProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(SCORED_PAIRS, SCORED_PAIRS)
    @example([(("a", "b"), 0.5), (("b", "a"), None), (("a", "b"), 0.9)], [(("a", "b"), None)])
    @example([], [])
    def test_matches_a_set_of_pairs(self, scored, other):
        rs = RelationSet("m", [p for p, _ in scored], [s for _, s in scored])
        first = first_scores(scored)
        assert rs.pair_set() == set(first) and len(rs) == len(first)
        for u in TERMS + "z":
            for v in TERMS + "z":
                assert ((u, v) in rs) == ((u, v) in first)
        again = RelationSet("other", reversed([p for p, _ in scored]))
        assert rs == again
        other_pairs = [p for p, _ in other]
        assert (rs == RelationSet("m", other_pairs)) == (set(first) == set(other_pairs))
        assert relations_text(rs) == "".join(
            f"{u}\t{v}\tm\t{'' if s is None else repr(s)}\n" for (u, v), s in sorted(first.items())
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(SCORED_PAIRS)
    def test_mask_constructor_equals_the_pair_constructor(self, scored):
        index = {t: i for i, t in enumerate(TERMS)}
        mask = np.zeros((len(TERMS), len(TERMS)), dtype=bool)
        values = np.zeros(mask.shape)
        for (u, v), score in first_scores(scored).items():
            mask[index[v], index[u]] = True
            values[index[v], index[u]] = 0.0 if score is None else score
        pairs = [p for p, _ in scored]
        expected = RelationSet("m", pairs, [values[index[v], index[u]].item() for u, v in pairs])
        got = RelationSet.from_mask("m", TERMS, mask, values)
        assert got == expected and got.terms == expected.terms
        assert relations_text(got) == relations_text(expected)
        unscored = RelationSet.from_mask("m", TERMS, mask)
        assert relations_text(unscored) == relations_text(RelationSet("m", pairs))


# The table the statistical extractors of one run share, and the gold of
# the complementarity cells ("f" is in no synset).
SHARED = tuple("abcdef")
NAN, SUBNORMAL = float("nan"), 5e-324


@st.composite
def relation_specs(draw):
    """(kind, table, pairs, scores) of one set: a mask over ``table`` (the
    shared one or its own) with a float per pair or none, or a list of
    pairs, repeats included, with a float or None each, or none at all."""
    floats = st.floats() | st.sampled_from([NAN, -0.0, SUBNORMAL])
    if draw(st.booleans()):
        table = draw(st.just(SHARED) | st.sets(st.sampled_from(SHARED)).map(sorted).map(tuple))
        pair = st.permutations(table).map(lambda p: tuple(p[:2])) if table[1:] else st.nothing()
        pairs = sorted(draw(st.sets(pair)))
        scores = draw(st.none() | st.lists(floats, min_size=len(pairs), max_size=len(pairs)))
        return "mask", table, pairs, scores
    pairs = draw(st.lists(st.permutations(SHARED).map(lambda p: tuple(p[:2])), max_size=8))
    score = st.none() | floats
    scores = draw(st.none() | st.lists(score, min_size=len(pairs), max_size=len(pairs)))
    return "pairs", (), pairs, scores


def mask_of(spec):
    """The adjacency of a mask ``spec``'s pairs over its table, and the grid
    of their scores (None when unscored)."""
    _, table, pairs, scores = spec
    at = {term: i for i, term in enumerate(table)}
    adj, grid = np.zeros((len(table),) * 2, dtype=bool), np.zeros((len(table),) * 2)
    for k, (hypo, hyper) in enumerate(pairs):
        adj[at[hyper], at[hypo]] = True
        grid[at[hyper], at[hypo]] = 0.0 if scores is None else scores[k]
    return adj, None if scores is None else grid


def build(method: str, spec):
    """The set of ``spec`` in the mask form and in the index-array form."""
    kind, table, pairs, scores = spec
    if kind == "pairs":
        return RelationSet(method, pairs, scores), oracle_from_pairs(method, pairs, scores)
    adj, grid = mask_of(spec)
    relset = RelationSet.from_mask(method, table, adj, grid)
    return relset, oracle_from_mask(method, table, adj, grid)


class TestMaskFormMatchesIndexArrays:
    gold = staticmethod(
        lambda: gold_from((1, ["a"], []), (2, ["b"], [1]), (3, ["c"], [2]), (4, ["d", "e"], [1]))
    )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(relation_specs(), max_size=4))
    # An empty set beside a one-pair set.
    @example([("pairs", (), [], None), ("mask", SHARED, [("b", "a")], [0.5])])
    # Sets on the shared table that use fewer of its terms than it holds.
    @example(
        [("mask", SHARED, [("c", "b")], None), ("mask", SHARED, [("b", "a"), ("e", "d")], [1, 2])]
    )
    # Sets on their own tables beside sets on the shared one.
    @example(
        [
            ("mask", SHARED, [("b", "a"), ("c", "b"), ("f", "a")], [0.25, 0.5, 1.0]),
            ("mask", ("a", "c", "f"), [("c", "a"), ("f", "c")], None),
            ("pairs", (), [("b", "a"), ("e", "c"), ("a", "b")], None),
            ("mask", SHARED, [("c", "a"), ("d", "a")], None),
        ]
    )
    # None, nan, -0.0 and a subnormal, from pairs and from a mask.
    @example(
        [
            ("pairs", (), [("b", "a"), ("c", "a"), ("f", "a")], [None, NAN, -0.0]),
            ("pairs", (), [("d", "a"), ("a", "b")], [1e-310, None]),
            ("mask", SHARED, [("b", "a"), ("c", "a"), ("d", "a")], [NAN, -0.0, SUBNORMAL]),
        ]
    )
    # One set mixes scored and unscored pairs; a repeat keeps its first score.
    @example([("pairs", (), [("b", "a"), ("c", "b"), ("b", "a"), ("d", "c")], [None, 2.0, 3, NAN])])
    # Empty masks over the shared table, scored and unscored.
    @example([("mask", SHARED, [], []), ("mask", SHARED, [], None)])
    def test_text_taxonomy_and_cells_equal_the_index_array_path(self, specs):
        built = [build(f"m{k}", spec) for k, spec in enumerate(specs)]
        for spec, (relset, indexed) in zip(specs, built):
            assert relations_text(relset) == oracle_relations_text(indexed)
            assert relset.terms == indexed.terms
            tax, expected = build_taxonomy(relset), oracle_build_taxonomy(indexed)
            assert tax.terms == expected.terms and np.array_equal(tax.adj, expected.adj)
            # The taxonomy shares the set's mask, which is C-ordered (counts
            # of B at A's pairs read an F-ordered one at half the speed) and
            # holds only the terms its pairs use: as the pair constructor's
            # set of the same pairs, and as the taxonomy cut from the table.
            assert tax.adj is relset.adj and relset.adj.flags.c_contiguous
            kind, table, pairs, scores = spec
            if kind == "mask":
                alike = RelationSet(relset.method, pairs, scores)
                assert relset.terms == alike.terms and np.array_equal(relset.adj, alike.adj)
                assert list(map(repr, relset.scores)) == list(map(repr, alike.scores))
                assert relset == alike and relset.pair_set() == alike.pair_set()
                assert relations_text(relset) == relations_text(alike)
                names = SHARED + ("z",)
                assert all(((u, v) in relset) == ((u, v) in alike) for u in names for v in names)
                expected = oracle_mask_taxonomy(table, mask_of(spec)[0])
                assert tax.terms == expected.terms and np.array_equal(tax.adj, expected.adj)
        gold = self.gold()
        matrix = complementarity_matrix([relset for relset, _ in built], gold)
        cells = oracle_complementarity_cells([indexed for _, indexed in built], gold)
        assert (matrix.direct, matrix.inverse, matrix.relative) == cells


class TestRelationSet:
    def test_add_and_membership(self):
        rs = RelationSet("tf", [("dog", "animal")], [0.5])
        assert ("dog", "animal") in rs
        assert ("animal", "dog") not in rs
        assert ("dog", "cat") not in rs
        assert rs.scores == (0.5,)

    def test_duplicates_keep_first_score(self):
        rs = RelationSet("tf", [("dog", "animal"), ("dog", "animal")], [0.5, 0.9])
        assert len(rs) == 1
        assert rs.scores == (0.5,)

    def test_self_relation_rejected(self):
        with pytest.raises(ValueError):
            RelationSet("tf", [("dog", "dog")])
        with pytest.raises(ValueError, match="^self-relation not allowed: 'dog'$"):
            RelationSet("tf", [("dog", "cat"), ("dog", "dog"), ("ant", "ant")])

    def test_none_term_rejected(self):
        # Coded as -1, a None term would take the last term's place: (a, b)
        # and (None, b) would hold the self-relation (b, b).
        for pairs in ([("a", "b"), (None, "b")], [("a", None)], [(None, None)]):
            with pytest.raises(TypeError):
                RelationSet("m", pairs)

    def test_scores_of_another_length_rejected(self):
        for scores in ([0.5], [0.5, 0.25, None]):
            with pytest.raises(ValueError):
                RelationSet("tf", [("dog", "animal"), ("cat", "animal")], scores)

    def test_iteration_is_sorted(self):
        rs = RelationSet("tf", [("z", "a"), ("b", "a")], [0.5, None])
        assert rs.terms == ("a", "b", "z")
        walk = list(zip(sorted(rs.pair_set()), rs.scores))
        assert walk == [(("b", "a"), None), (("z", "a"), 0.5)]
        assert relations_text(rs) == "b\ta\ttf\t\nz\ta\ttf\t0.5\n"

    def test_mask_constructor_keeps_only_the_terms_of_its_pairs(self):
        # (hypernym, hyponym), as in a taxonomy: a is-a c and d is-a a.
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 0] = mask[0, 3] = True
        scores = np.arange(16.0).reshape(4, 4).T
        rs = RelationSet.from_mask("tf", ["a", "b", "c", "d"], mask, scores)
        assert rs.terms == ("a", "c", "d")
        assert rs == RelationSet("tf", [("d", "a"), ("a", "c")])
        assert relations_text(rs) == "a\tc\ttf\t2.0\nd\ta\ttf\t12.0\n"

    def test_opposite_orientations_are_distinct_pairs(self):
        # Pattern evidence can claim both directions of a pair.
        rs = RelationSet("patt", [("a", "b"), ("b", "a")])
        assert len(rs) == 2

    def test_every_constructor_builds_the_one_taxonomy_of_its_set(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("d\ta\ttf\t\na\tc\ttf\t0.5\n")
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 0] = mask[0, 3] = True
        for rs in (
            RelationSet("tf", [("d", "a"), ("a", "c")]),
            RelationSet.from_mask("tf", ["a", "b", "c", "d"], mask),
            load_relations(path),
        ):
            # The same object on every call, so a closure taken once stays.
            assert build_taxonomy(rs) is rs.taxonomy is build_taxonomy(rs)
            assert (rs.terms, rs.adj) == (rs.taxonomy.terms, rs.taxonomy.adj)
            assert rs.taxonomy.edge_set() == {("a", "d"), ("c", "a")}


class TestPersistence:
    def test_round_trip_with_scores(self, tmp_path):
        rs = RelationSet("dsim", [("dog", "animal"), ("cat", "animal")], [0.75, None])
        path = tmp_path / "rels.tsv"
        path.write_text(relations_text(rs), encoding="utf-8")
        again = load_relations(path)
        assert again.method == "dsim"
        assert again == rs
        assert again.scores == (None, 0.75)  # cat, then dog

    def test_round_trip_with_numpy_and_int_scores(self, tmp_path):
        rs = RelationSet(
            "dsim",
            [("dog", "animal"), ("cat", "animal"), ("ant", "animal")],
            [np.float64(0.5), np.float32(0.25), 1],
        )
        assert all(type(score) is float for score in rs.scores)
        path = tmp_path / "rels.tsv"
        path.write_text(relations_text(rs), encoding="utf-8")
        assert path.read_text().splitlines()[0] == "ant\tanimal\tdsim\t1.0"
        again = load_relations(path)
        assert again == rs and again.scores == rs.scores == (1.0, 0.25, 0.5)

    def test_file_is_sorted(self):
        rs = RelationSet("tf", [("z", "a"), ("b", "a")])
        lines = relations_text(rs).splitlines()
        assert lines == sorted(lines)

    def test_mixed_methods_rejected(self, tmp_path):
        path = tmp_path / "rels.tsv"
        path.write_text("a\tb\ttf\t\nc\td\tdf\t\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_relations(path)

    def test_empty_file_is_untagged_without_a_method(self, tmp_path):
        path = tmp_path / "rels.tsv"
        for text in ("", "\n\n"):
            path.write_text(text, encoding="utf-8")
            untagged = load_relations(path)
            assert untagged.method == "" and len(untagged) == 0
            tagged = load_relations(path, method="tf")
            assert tagged.method == "tf" and len(tagged) == 0

    def test_method_argument_renames_a_uniform_file(self, tmp_path):
        path = tmp_path / "rels.tsv"
        path.write_text("a\tb\ttf\t\nc\td\ttf\t\n", encoding="utf-8")
        relset = load_relations(path, method="df")
        assert relset.method == "df"
        assert relset.pair_set() == {("a", "b"), ("c", "d")}

    @pytest.mark.parametrize(
        "line",
        [
            "a\tb\tpatt\tx",  # score is not a number
            "dog\tdog\tpatt\t",  # self-relation
            "a\tb\tpatt",  # three fields
            "a\tb\ttf\t",  # method tag differs from line 1
            "x\ty\tpatt\t0.7",  # repeats the pair of line 1
            "\tb\tpatt\t",  # empty hyponym
            "a\tb\udcff\tpatt\t",  # byte 0xff, which is not UTF-8
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "rels.tsv"
        path.write_text(f"x\ty\tpatt\t0.5\n{line}\n", "utf-8", "surrogateescape")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            load_relations(path)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: RelationSet("m", [("dog", "animal")]) == {("dog", "animal")},
            False,
            id="equal-to-a-python-set",
        ),
        pytest.param(
            lambda: repr(RelationSet("m", [("dog", "animal"), ("cat", "animal")])),
            "RelationSet('m', 2 relations)",
            id="repr",
        ),
    ],
)
def test_rarely_run_paths_keep_their_behaviour(call, expected):
    assert outcome(call) == expected
