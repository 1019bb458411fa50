import re

import numpy as np
import pytest

from taxorel.relations import Relation, RelationSet, load_relations, save_relations


class TestRelationSet:
    def test_add_and_membership(self):
        rs = RelationSet("tf", [("dog", "animal")], [0.5])
        assert ("dog", "animal") in rs
        assert ("animal", "dog") not in rs
        assert rs.score("dog", "animal") == 0.5

    def test_duplicates_keep_first_score(self):
        rs = RelationSet("tf", [("dog", "animal"), ("dog", "animal")], [0.5, 0.9])
        assert len(rs) == 1
        assert rs.score("dog", "animal") == 0.5

    def test_self_relation_rejected(self):
        with pytest.raises(ValueError):
            RelationSet("tf", [("dog", "dog")])

    def test_iteration_is_sorted(self):
        rs = RelationSet("tf", [("z", "a"), ("b", "a")])
        assert [(r.hyponym, r.hypernym) for r in rs] == [("b", "a"), ("z", "a")]
        assert all(isinstance(r, Relation) and r.method == "tf" for r in rs)

    def test_mask_constructor_keeps_only_the_terms_of_its_pairs(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 2] = mask[3, 0] = True
        scores = np.arange(16.0).reshape(4, 4)
        rs = RelationSet.from_mask("tf", ["a", "b", "c", "d"], mask, scores)
        assert rs.terms == ("a", "c", "d")
        assert rs == RelationSet("tf", [("d", "a"), ("a", "c")])
        assert [(r.hyponym, r.hypernym, r.score) for r in rs] == [
            ("a", "c", 2.0),
            ("d", "a", 12.0),
        ]

    def test_opposite_orientations_are_distinct_pairs(self):
        # Pattern evidence can claim both directions of a pair.
        rs = RelationSet("patt", [("a", "b"), ("b", "a")])
        assert len(rs) == 2


class TestPersistence:
    def test_round_trip_with_scores(self, tmp_path):
        rs = RelationSet("dsim", [("dog", "animal"), ("cat", "animal")], [0.75, None])
        path = tmp_path / "rels.tsv"
        save_relations(rs, path)
        again = load_relations(path)
        assert again.method == "dsim"
        assert again.pair_set() == rs.pair_set()
        assert again.score("dog", "animal") == 0.75
        assert again.score("cat", "animal") is None

    def test_file_is_sorted(self, tmp_path):
        rs = RelationSet("tf", [("z", "a"), ("b", "a")])
        save_relations(rs, tmp_path / "rels.tsv")
        lines = (tmp_path / "rels.tsv").read_text().splitlines()
        assert lines == sorted(lines)

    def test_mixed_methods_rejected(self, tmp_path):
        path = tmp_path / "rels.tsv"
        path.write_text("a\tb\ttf\t\nc\td\tdf\t\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_relations(path)

    def test_empty_file_needs_method(self, tmp_path):
        path = tmp_path / "rels.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_relations(path)
        assert len(load_relations(path, method="tf")) == 0

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
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "rels.tsv"
        path.write_text(f"x\ty\tpatt\t0.5\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            load_relations(path)
