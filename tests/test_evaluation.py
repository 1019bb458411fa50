import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import taxorel
from taxorel import taxonomy as taxonomy_module
from taxorel.evaluation import (
    ComplementarityMatrix,
    _restricted,
    common_relations,
    complementarity,
    complementarity_matrix,
    evaluate,
    fmeasure,
    relative_precision,
)
from taxorel.gold import GoldTaxonomy, Synset
from taxorel.relations import RelationSet
from taxorel.taxonomy import Taxonomy, build_taxonomy

from helpers import (
    car_taxonomy_and_gold,
    gold_from,
    inverted,
    oracle_complementarity,
    oracle_complementarity_cells,
    oracle_evaluate,
    oracle_relative_precision,
    oracle_restricted,
    oracle_taxonomy,
    outcome,
    union_encode,
)


# "x" and "y" never occur in a generated gold; "Car" and "car" fold to one
# gold lemma, which the gold may also spell "CAR".
TAXO_TERMS = ["a", "b", "c", "d", "Car", "car", "x", "y"]
GOLD_LEMMAS = ["a", "b", "c", "d", "car", "CAR", "e"]


@st.composite
def taxonomies(draw):
    nodes = draw(st.sets(st.sampled_from(TAXO_TERMS), min_size=1, max_size=4))
    term = st.sampled_from(TAXO_TERMS)
    edges = draw(st.lists(st.tuples(term, term), max_size=12))
    return Taxonomy(edges, nodes=nodes)


@st.composite
def golds(draw):
    """Synset graphs with cycles and lemmas in several synsets."""
    n = draw(st.integers(1, 6))
    return GoldTaxonomy(
        Synset(
            sid,
            frozenset(draw(st.sets(st.sampled_from(GOLD_LEMMAS), min_size=1, max_size=3))),
            frozenset(draw(st.sets(st.integers(0, n - 1), max_size=3))),
        )
        for sid in range(n)
    )


def relset(method, *pairs):
    return RelationSet(method, pairs)


class TestCommonRelations:
    def test_car_fixture_exact(self):
        extracted, gold = car_taxonomy_and_gold()
        assert common_relations("car", extracted, gold) == {
            ("vehicle", "car"),  # inherited through an unshared intermediate
            ("car", "cab"),
            ("car", "tram"),  # absent from the gold relations, term is shared
        }

    def test_isolated_term_yields_nothing(self):
        t = Taxonomy([("a", "b")], nodes=["lonely"])
        gold = gold_from((1, ["lonely"], []), (2, ["a"], []), (3, ["b"], [2]))
        assert common_relations("lonely", t, gold) == set()

    def test_chain_matches_closure_oracle(self):
        t = Taxonomy([("a", "b"), ("b", "c")])
        gold = gold_from((1, ["a"], []), (2, ["b"], [1]), (3, ["c"], [2]))
        assert common_relations("b", t, gold) == {("a", "b"), ("b", "c")}
        # Transitive pair appears for the endpoints of the chain.
        assert common_relations("a", t, gold) == {("a", "b"), ("a", "c")}

    def test_gold_side_uses_gold_order(self):
        t = Taxonomy([("a", "b")])
        gold = gold_from((1, ["a"], []), (2, ["b"], [1]), (3, ["c"], [2]))
        # c is not in the taxonomy, so it cannot appear in gold-side CR.
        assert common_relations("b", gold, t) == {("a", "b")}

    def test_missing_term_returns_empty(self):
        t = Taxonomy([("a", "b")])
        gold = gold_from((1, ["a"], []))
        assert common_relations("zz", t, gold) == set()


class TestEvaluate:
    def test_identical_single_sense_gold_scores_one(self):
        t = Taxonomy([("animal", "dog"), ("animal", "cat"), ("dog", "puppy")])
        gold = gold_from(
            (1, ["animal"], []),
            (2, ["dog"], [1]),
            (3, ["cat"], [1]),
            (4, ["puppy"], [2]),
        )
        report = evaluate(t, gold)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.fmeasure == 1.0

    def test_inverted_edges_have_zero_precision(self):
        t = Taxonomy([("dog", "animal")])
        gold = gold_from((1, ["animal"], []), (2, ["dog"], [1]))
        report = evaluate(t, gold)
        assert report.precision == 0.0

    def test_no_shared_terms_flags_warning(self):
        t = Taxonomy([("x", "y")])
        gold = gold_from((1, ["dog"], []))
        report = evaluate(t, gold)
        assert report.no_shared_terms
        assert report.precision == report.recall == report.fmeasure == 0.0

    def test_empty_taxonomy_is_an_error(self):
        with pytest.raises(ValueError):
            evaluate(Taxonomy(), gold_from((1, ["dog"], [])))

    def test_five_term_hand_enumeration(self):
        # Gold chain: top > mid > low, plus top > side.  Extracted claims
        # (low, mid), (mid, top), (side, low), (low, top missing).
        gold = gold_from(
            (1, ["top"], []),
            (2, ["mid"], [1]),
            (3, ["low"], [2]),
            (4, ["side"], [1]),
            (5, ["unused"], [1]),
        )
        t = Taxonomy([("mid", "low"), ("top", "mid"), ("low", "side")])
        report = evaluate(t, gold)
        oracle = oracle_evaluate(t, gold)
        assert (report.precision, report.recall, report.fmeasure) == oracle[:3]
        assert (report.common_count, report.extracted_count, report.gold_count) == oracle[3:]
        # Hand enumeration: the extracted closure holds 6 ordered pairs over
        # the 4 shared terms and each pair counts for both endpoints (12);
        # the gold closure holds 4 such pairs (8), all extracted (8 common).
        assert report.extracted_count == 12
        assert report.gold_count == 8
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == 1.0

    def test_matches_enumeration_oracle_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(60):
            terms = [f"t{i}" for i in range(rng.randint(2, 8))]
            edges = set()
            for _ in range(rng.randint(1, 10)):
                a, b = rng.sample(terms, 2)
                edges.add((a, b))
            taxo = Taxonomy(edges)
            gold_terms = [t for t in terms if rng.random() < 0.8] or terms[:1]
            order = list(gold_terms)
            rng.shuffle(order)
            synsets = []
            for i, term in enumerate(order):
                hypers = {
                    order.index(other)
                    for other in order[:i]
                    if rng.random() < 0.4
                }
                synsets.append(Synset(i, frozenset([term]), frozenset(hypers)))
            gold = GoldTaxonomy(synsets)
            report = evaluate(taxo, gold) if taxo.nodes else None
            if report is None:
                continue
            oracle = oracle_evaluate(taxo, gold)
            assert (report.precision, report.recall, report.fmeasure) == oracle[:3]

    def test_invariant_under_duplicates_and_reordering(self):
        gold = gold_from((1, ["a"], []), (2, ["b"], [1]), (3, ["c"], [2]))
        r1 = relset("tf", ("b", "a"), ("c", "b"))
        r2 = RelationSet("tf", [("c", "b"), ("b", "a"), ("b", "a")])  # a repeat is a no-op
        assert evaluate(build_taxonomy(r1), gold) == evaluate(build_taxonomy(r2), gold)

    def test_self_evaluation_against_own_closure(self):
        t = Taxonomy([("a", "b"), ("b", "c"), ("a", "d")])
        gold = gold_from(
            (1, ["a"], []), (2, ["b"], [1]), (3, ["c"], [2]), (4, ["d"], [1])
        )
        report = evaluate(t, gold)
        assert report.precision == 1.0 and report.recall == 1.0

    def test_fmeasure_bounds(self):
        rng = random.Random(3)
        for _ in range(200):
            p, r = rng.random(), rng.random()
            f = fmeasure(p, r)
            assert f <= min(2 * p, 2 * r) + 1e-12
            assert f <= max(p, r) + 1e-12


class TestEvaluateProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(taxonomies(), golds())
    @example(  # cycle through the shared terms a and b
        Taxonomy([("a", "b"), ("b", "a"), ("b", "c")]),
        gold_from((1, ["a"], []), (2, ["b"], [1]), (3, ["c"], [2])),
    )
    @example(  # gold cycle; "a" sits in two synsets
        Taxonomy([("a", "c"), ("b", "a"), ("c", "d")]),
        gold_from((1, ["a"], [2]), (2, ["b"], [1]), (3, ["c", "a"], [2]), (4, ["d"], [3])),
    )
    @example(  # "Car" and "car" are two shared terms with one gold lemma
        Taxonomy([("a", "Car"), ("car", "b"), ("Car", "car")]),
        gold_from((1, ["a"], []), (2, ["CAR"], [1]), (3, ["b"], [2])),
    )
    @example(  # x and y are missing from the gold
        Taxonomy([("x", "a"), ("a", "y"), ("y", "b")]),
        gold_from((1, ["a"], []), (2, ["b"], [1])),
    )
    @example(  # no shared terms
        Taxonomy([("x", "y")]),
        gold_from((1, ["a"], [])),
    )
    def test_matches_closure_oracle(self, taxo, gold):
        report = evaluate(taxo, gold)
        p, r, f, common, extracted, gold_count = oracle_evaluate(taxo, gold)
        assert (report.common_count, report.extracted_count, report.gold_count) == (
            common,
            extracted,
            gold_count,
        )
        assert (report.precision, report.recall, report.fmeasure) == (p, r, f)
        assert report.no_shared_terms == (not any(gold.contains_term(t) for t in taxo.nodes))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(taxonomies(), min_size=1, max_size=5), golds())
    @example(  # "car" first; its ancestors "b", then "a", join the gold order later
        [
            Taxonomy([("Car", "car")]),
            Taxonomy([("car", "a"), ("x", "car")]),
            Taxonomy([("b", "y"), ("c", "a")]),
            Taxonomy([("a", "b"), ("b", "car"), ("Car", "d")]),
        ],
        gold_from((1, ["a"], []), (2, ["b"], [1]), (3, ["CAR"], [2]), (4, ["d", "c"], [3])),
    )
    def test_one_gold_serves_a_sequence_of_calls(self, taxos, gold):
        # The gold order grows as calls ask about new lemmas; each report
        # still equals a fresh oracle evaluation, whatever came before it.
        for taxo in taxos:
            report = evaluate(taxo, gold)
            p, r, f, common, extracted, gold_count = oracle_evaluate(taxo, gold)
            assert (report.common_count, report.extracted_count, report.gold_count) == (
                common,
                extracted,
                gold_count,
            )
            assert (report.precision, report.recall, report.fmeasure) == (p, r, f)


class TestComplementarity:
    def test_self_overlap_is_one(self):
        a = relset("tf", ("a", "b"), ("c", "d"))
        direct, inverse = complementarity(a, a)
        assert direct == 1.0
        assert inverse == 0.0  # antisymmetric set

    def test_inverted_set(self):
        a = relset("tf", ("a", "b"), ("c", "d"))
        direct, inverse = complementarity(a, inverted(a))
        assert direct == 0.0
        assert inverse == 1.0

    def test_reported_ratio_reproduced(self):
        a = RelationSet("patt", [(f"h{i}", f"H{i}") for i in range(15797)])
        b = RelationSet("dsim", [(f"h{i}", f"H{i}") for i in range(4014)])
        direct, _ = complementarity(a, b)
        assert direct == pytest.approx(0.2541, abs=1e-4)

    def test_empty_base_is_an_error(self):
        with pytest.raises(ValueError):
            complementarity(RelationSet("tf"), relset("df", ("a", "b")))

    def test_ratios_are_rational_counts(self):
        rng = random.Random(8)
        for _ in range(20):
            a_pairs, b_pairs = [], []
            for _ in range(rng.randint(1, 12)):
                x, y = rng.sample("abcdefgh", 2)
                (a_pairs if rng.random() < 0.7 else b_pairs).append((x, y))
            a, b = RelationSet("a", a_pairs), RelationSet("b", b_pairs)
            if len(a) == 0:
                continue
            direct, inverse = complementarity(a, b)
            assert 0.0 <= direct <= 1.0 and 0.0 <= inverse <= 1.0
            assert (direct * len(a)) == pytest.approx(round(direct * len(a)))

    def test_imports_no_masked_arrays(self):
        # Importing numpy.ma takes longer than a small complementarity
        # matrix, so no step of one may load it: not the pair restrictions, the
        # masks' counts, nor the closures of the evaluated intersections.
        script = (
            "import sys\n"
            "from taxorel.evaluation import complementarity_matrix\n"
            "from taxorel.gold import GoldTaxonomy, Synset\n"
            "from taxorel.relations import RelationSet\n"
            "t = [f't{i:02d}' for i in range(41)]\n"
            "a = RelationSet('a', [(t[i], t[i + 1]) for i in range(40)])\n"
            "b = RelationSet('b', [(t[0], t[1]), (t[39], t[40])])\n"
            "gold = GoldTaxonomy([Synset('1', frozenset({'t00'}), frozenset())])\n"
            "complementarity_matrix([a, b], gold)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(taxorel.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestComplementarityProperty:
    gold = staticmethod(
        lambda: gold_from(
            (1, ["a"], []), (2, ["b", "f"], [1]), (3, ["c"], [2]), (4, ["d", "g"], [1])
        )
    )

    # a draws on "abcde" and b on "cdefg": the two term tables differ, and
    # a, b, f and g belong to one side only.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.sets(st.permutations("abcde").map(lambda p: (p[0], p[1])), max_size=8),
        st.sets(st.permutations("cdefg").map(lambda p: (p[0], p[1])), max_size=8),
    )
    @example({("b", "a"), ("c", "b")}, set())
    @example({("c", "d"), ("d", "e"), ("a", "c")}, {("d", "c"), ("c", "d"), ("f", "g")})
    @example({("b", "a"), ("a", "b"), ("c", "b")}, {("b", "a"), ("c", "b")})  # cycle in a
    @example(set(), {("c", "d")})
    @example({("b", "a")}, {("g", "f")})  # disjoint term tables
    @example({("c", "d"), ("d", "e"), ("e", "c")}, {("d", "c"), ("e", "d"), ("c", "e")})  # b = a^T
    def test_matches_set_arithmetic_on_pairs(self, a_pairs, b_pairs):
        a, b = RelationSet("a", a_pairs), RelationSet("b", b_pairs)
        pa, pb = a.pair_set(), b.pair_set()
        if not pa:
            with pytest.raises(ValueError):
                complementarity(a, b)
            return
        assert complementarity(a, b) == (
            len(pa & pb) / len(pa),
            len(pa & {(hyper, hypo) for hypo, hyper in pb}) / len(pa),
        )
        gold = self.gold()
        p_a = evaluate(build_taxonomy(a), gold).precision
        if p_a == 0:
            return
        shared = RelationSet("a", pa & pb)
        expected = evaluate(build_taxonomy(shared), gold).precision / p_a if pa & pb else 0.0
        assert relative_precision(a, b, gold) == expected


class TestRelativePrecision:
    gold = staticmethod(
        lambda: gold_from(
            (1, ["a"], []), (2, ["b"], [1]), (3, ["c"], [2]), (4, ["d"], [1])
        )
    )

    def test_self_intersection_is_one(self):
        a = relset("tf", ("b", "a"), ("c", "b"))
        assert relative_precision(a, a, self.gold()) == 1.0

    def test_empty_intersection_is_zero(self):
        a = relset("tf", ("b", "a"))
        b = relset("df", ("d", "a"))
        assert relative_precision(a, b, self.gold()) == 0.0

    def test_filtering_to_correct_subset_raises_precision(self):
        # a has one right and one wrong relation; b keeps only the right one.
        a = relset("tf", ("b", "a"), ("a", "c"))
        b = relset("patt", ("b", "a"))
        value = relative_precision(a, b, self.gold())
        assert value > 1.0

    def test_zero_base_precision_is_undefined(self):
        a = relset("tf", ("a", "b"))  # inverted, precision 0
        with pytest.raises(ValueError):
            relative_precision(a, a, self.gold())

    def test_matrix_assembles_all_cells(self):
        a = relset("tf", ("b", "a"), ("c", "b"))
        b = relset("df", ("b", "a"))
        empty = RelationSet("patt")
        matrix = complementarity_matrix([a, b, empty], self.gold())
        assert matrix.methods == ("tf", "df", "patt")
        assert matrix.direct[("tf", "tf")] == 1.0
        assert matrix.direct[("df", "tf")] == 1.0
        assert matrix.direct[("tf", "df")] == 0.5
        assert matrix.direct[("patt", "tf")] is None  # empty base
        assert matrix.relative[("tf", "tf")] == 1.0
        assert complementarity_matrix([], self.gold()) == ComplementarityMatrix((), {}, {}, {})

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.sets(st.permutations("abcd").map(lambda p: (p[0], p[1])), max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    @example([{("b", "a"), ("c", "b")}, {("b", "a")}, {("a", "b")}, set()])
    def test_matrix_cells_match_per_cell_calls(self, pair_sets):
        # The example's third set has zero precision and its fourth is
        # empty: both rows are None in the relative matrix.
        gold = self.gold()
        sets = [relset(f"m{i}", *pairs) for i, pairs in enumerate(pair_sets)]
        matrix = complementarity_matrix(sets, gold)
        for a in sets:
            for b in sets:
                key = (a.method, b.method)
                try:
                    ratios = complementarity(a, b)
                except ValueError:
                    ratios = (None, None)
                try:
                    rel = relative_precision(a, b, gold)
                except ValueError:
                    rel = None
                assert (matrix.direct[key], matrix.inverse[key]) == ratios
                assert matrix.relative[key] == rel

    def test_matrix_requires_distinct_methods(self):
        a = relset("tf", ("b", "a"))
        with pytest.raises(ValueError):
            complementarity_matrix([a, a], self.gold())


class TestMatrixOracles:
    gold = staticmethod(
        lambda: gold_from(
            (1, ["a"], []), (2, ["b"], [1]), (3, ["c"], [2]), (4, ["d"], [1])
        )
    )

    # Each set draws on its own alphabet, so the term tables differ, and
    # "A"/"a" and "D"/"d" are case variants of one gold lemma.
    ALPHABETS = ("aAbc", "Abcd", "acdD", "abBd")

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(3, 4).flatmap(
            lambda k: st.tuples(
                *(
                    st.sets(st.permutations(letters).map(lambda p: (p[0], p[1])), max_size=5)
                    for letters in TestMatrixOracles.ALPHABETS[:k]
                )
            )
        )
    )
    # The first example's third set has zero precision and its fourth is
    # empty; the second example's empty set sits between two others.  In the
    # third every set is empty, and in the fourth a one-pair set shares no
    # term with the two others.  In the fifth the second set is the first's
    # intersection with it, and every base is positive.
    @example(({("b", "a"), ("c", "b"), ("A", "c")}, {("b", "A"), ("c", "b")}, {("a", "c")}, set()))
    @example(({("b", "a")}, set(), {("d", "a"), ("D", "a"), ("a", "c")}))
    @example((set(), set(), set()))
    @example(({("b", "a")}, {("d", "c"), ("c", "A")}, {("D", "c"), ("d", "D")}))
    @example(({("c", "b"), ("b", "A")}, {("c", "b")}, {("d", "a")}))
    def test_matches_pair_arithmetic_and_evaluate(self, pair_sets):
        gold = self.gold()
        sets = [RelationSet(f"m{i}", pairs) for i, pairs in enumerate(pair_sets)]
        base = [evaluate(build_taxonomy(a), gold).precision if pa else 0.0
                for a, pa in zip(sets, pair_sets)]
        # One call for the base of every non-empty set, and one for each
        # unordered pair whose two bases are positive and whose intersection
        # is non-empty and neither set: one equal to a set has its precision.
        calls = sum(map(bool, pair_sets)) + sum(
            bool(shared and base[x] and base[y] and shared not in (pair_sets[x], pair_sets[y]))
            for x in range(len(sets))
            for y in range(x + 1, len(sets))
            for shared in [pair_sets[x] & pair_sets[y]]
        )
        expected = {}
        for a, pa, p_a in zip(sets, pair_sets, base):
            for b, pb in zip(sets, pair_sets):
                shared, key = pa & pb, (a.method, b.method)
                if not pa:
                    expected[key] = (None, None, None)
                    continue
                relative = 0.0 if p_a else None
                if p_a and shared:
                    inter = RelationSet(a.method, shared)
                    relative = evaluate(build_taxonomy(inter), gold).precision / p_a
                swapped = {(hyper, hypo) for hypo, hyper in pb}
                expected[key] = (len(shared) / len(pa), len(pa & swapped) / len(pa), relative)
        with mock.patch("taxorel.evaluation.evaluate", wraps=evaluate) as spy:
            matrix = complementarity_matrix(sets, gold)
        assert spy.call_count == calls
        for key, cells in expected.items():
            got = (matrix.direct[key], matrix.inverse[key], matrix.relative[key])
            assert got == cells
            assert all(v is None or type(v) is float for v in got)

    # Two sets' term tables as runs [first, stop) of "aAbcdDef": equal,
    # nested, overlapping, disjoint, or with one of them empty.
    TABLES = {
        "equal": ((0, 5), (0, 5)),
        "nested": ((0, 8), (2, 6)),
        "overlapping": ((0, 5), (3, 8)),
        "disjoint": ((0, 3), (4, 8)),
        "empty": ((0, 5), (0, 0)),
    }

    @staticmethod
    def draw_sets(tables, data) -> list[RelationSet]:
        """Two sets over the ``tables`` runs and a third over every term."""

        def pairs_of(run):
            pair = st.permutations(run).map(lambda p: (p[0], p[1]))
            return st.lists(pair, max_size=6 if len(run) > 1 else 0)

        # A path through each run, each step oriented at random, holds every
        # term of it; random pairs of the run, repeats among them, ride
        # along.  A third set draws on every term.
        sets = []
        for first, stop in tables:
            run = "aAbcdDef"[first:stop]
            path = list(zip(run, run[1:]))
            flips = data.draw(st.lists(st.booleans(), min_size=len(path), max_size=len(path)))
            pairs = [(y, x) if flip else (x, y) for (x, y), flip in zip(path, flips)]
            sets.append(RelationSet(f"m{len(sets)}", pairs + data.draw(pairs_of(run))))
        sets.append(RelationSet("m2", data.draw(pairs_of("aAbcdDef"))))
        assert [rs.terms for rs in sets[:2]] == [tuple(sorted("aAbcdDef"[a:b])) for a, b in tables]
        return sets

    @pytest.mark.parametrize("tables", TABLES.values(), ids=TABLES)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_cell_equals_the_union_table_oracle(self, tables, data):
        sets, gold = self.draw_sets(tables, data), self.gold()
        matrix = complementarity_matrix(sets, gold)
        direct, inverse, relative = oracle_complementarity_cells(sets, gold, union_encode)
        assert (matrix.direct, matrix.inverse, matrix.relative) == (direct, inverse, relative)

    # Two sets whose intersection is one of them, each with a positive base:
    # the second holds the first and a wrong pair over "D", a case variant of
    # "d", so the tables differ; then the same two swapped, and one set under
    # two tags.
    RIGHT, WRONG = {("b", "a"), ("c", "b")}, {("a", "D")}
    NESTS = {
        "a_in_b": (RIGHT, RIGHT | WRONG),
        "b_in_a": (RIGHT | WRONG, RIGHT),
        "equal": (RIGHT, RIGHT),
    }
    # A third set shares one pair with each, so A n C and B n C are neither side.
    THIRD = {("c", "b"), ("d", "a"), ("a", "c")}

    @pytest.mark.parametrize("pairs", NESTS.values(), ids=NESTS)
    def test_an_intersection_equal_to_a_side_equals_the_union_table_oracle(self, pairs):
        sets = [RelationSet(f"m{i}", p) for i, p in enumerate((*pairs, self.THIRD))]
        gold = self.gold()
        assert all(evaluate(build_taxonomy(rs), gold).precision for rs in sets)
        matrix = complementarity_matrix(sets, gold)
        cells = oracle_complementarity_cells(sets, gold, union_encode)
        assert (matrix.direct, matrix.inverse, matrix.relative) == cells

    def test_closes_only_the_intersections_that_are_neither_side(self, monkeypatch):
        gold = self.gold()
        pair_sets = (self.RIGHT, self.RIGHT | self.WRONG, self.RIGHT, self.THIRD, {("b", "a")})
        sets = [RelationSet(f"m{i}", p) for i, p in enumerate(pair_sets)]
        assert all(evaluate(build_taxonomy(rs), gold).precision for rs in sets)
        closures, real = [], taxonomy_module._closure
        monkeypatch.setattr(taxonomy_module, "_closure", lambda adj: closures.append(adj) or real(adj))
        complementarity_matrix(sets, gold)
        # Every base was closed when its set was evaluated above.  Of the ten
        # intersections, six equal a side and m3 n m4 is empty; only m3's
        # with each of m0, m1 and m2, {("c", "b")}, is evaluated.
        assert len(closures) == 3

    @pytest.mark.parametrize("tables", TABLES.values(), ids=TABLES)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gathered_masks_equal_the_embedded_ones(self, tables, data):
        sets, gold = self.draw_sets(tables, data), self.gold()
        matrix = complementarity_matrix(sets, gold)
        for a in sets:
            for b in sets:
                terms, ma, mb = _restricted(a, b)
                expected = oracle_restricted(a, b)
                assert terms == expected[0]
                assert np.array_equal(ma, expected[1]) and np.array_equal(mb, expected[2])
                # A set that holds just the shared terms passes its mask through.
                assert (ma is a.adj) == (a.terms == terms) and (mb is b.adj) == (b.terms == terms)
                ratios = outcome(lambda: complementarity(a, b))
                assert ratios == outcome(lambda: oracle_complementarity(a, b))
                rel = outcome(lambda: relative_precision(a, b, gold))
                assert rel == outcome(lambda: oracle_relative_precision(a, b, gold))
                # The matrix holds None where a call raises.
                key = (a.method, b.method)
                cells = (matrix.direct[key], matrix.inverse[key], matrix.relative[key])
                ratios = (None, None) if ratios[0] is ValueError else ratios
                assert cells == (*ratios, None if isinstance(rel, tuple) else rel)
        # Taxonomy(edges, nodes) of the drawn edges and nodes (either may be
        # empty), and of them with a self-loop, a repeated edge and a lone node.
        term = st.sampled_from("aAbcdDef")
        edges = data.draw(st.lists(st.tuples(term, term), max_size=8))
        nodes = data.draw(st.sets(term, max_size=3))
        more = edges + [("e", "e"), ("a", "b"), ("a", "b")], nodes | {"lone"}
        for e, n in ((edges, nodes), more):
            taxonomy, (terms, adj) = Taxonomy(e, n), oracle_taxonomy(e, n)
            assert taxonomy.terms == terms and np.array_equal(taxonomy.adj, adj)

    # Drawn as above, two sets at a time.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        *(
            st.sets(st.permutations(letters).map(lambda p: (p[0], p[1])), max_size=5)
            for letters in ALPHABETS[:2]
        )
    )
    @example({("A", "b"), ("b", "c")}, {("A", "b")})
    def test_zero_base_leaves_the_intersection_at_zero(self, a_pairs, b_pairs):
        # complementarity_matrix evaluates no intersection with a zero-base
        # side: A n B is a subset of A, so it holds none of A's common
        # relations either.
        gold = self.gold()
        a = RelationSet("a", a_pairs)
        if not a_pairs or evaluate(build_taxonomy(a), gold).precision:
            return
        shared = a_pairs & b_pairs
        if shared:
            inter = build_taxonomy(RelationSet("a", shared))
            assert evaluate(inter, gold).precision == 0.0
