import re

import pytest

from taxorel.relations import Relation, RelationSet, load_relations, save_relations


class TestRelationSet:
    def test_add_and_membership(self):
        rs = RelationSet("tf")
        rs.add("dog", "animal", 0.5)
        assert ("dog", "animal") in rs
        assert ("animal", "dog") not in rs
        assert rs.score("dog", "animal") == 0.5

    def test_duplicates_keep_first_score(self):
        rs = RelationSet("tf")
        rs.add("dog", "animal", 0.5)
        rs.add("dog", "animal", 0.9)
        assert len(rs) == 1
        assert rs.score("dog", "animal") == 0.5

    def test_self_relation_rejected(self):
        rs = RelationSet("tf")
        with pytest.raises(ValueError):
            rs.add("dog", "dog")

    def test_iteration_is_sorted(self):
        rs = RelationSet("tf")
        rs.add("z", "a")
        rs.add("b", "a")
        assert [(r.hyponym, r.hypernym) for r in rs] == [("b", "a"), ("z", "a")]
        assert all(isinstance(r, Relation) and r.method == "tf" for r in rs)

    def test_inverted(self):
        rs = RelationSet("patt")
        rs.add("dog", "animal")
        assert rs.inverted().pair_set() == {("animal", "dog")}

    def test_restricted(self):
        rs = RelationSet("tf")
        rs.add("dog", "animal", 1.0)
        rs.add("cat", "animal", 2.0)
        sub = rs.restricted({("dog", "animal")}, method="tf&df")
        assert sub.pair_set() == {("dog", "animal")}
        assert sub.method == "tf&df"
        assert sub.score("dog", "animal") == 1.0

    def test_opposite_orientations_are_distinct_pairs(self):
        # Pattern evidence can claim both directions of a pair.
        rs = RelationSet("patt")
        rs.add("a", "b")
        rs.add("b", "a")
        assert len(rs) == 2


class TestPersistence:
    def test_round_trip_with_scores(self, tmp_path):
        rs = RelationSet("dsim")
        rs.add("dog", "animal", 0.75)
        rs.add("cat", "animal", None)
        path = tmp_path / "rels.tsv"
        save_relations(rs, path)
        again = load_relations(path)
        assert again.method == "dsim"
        assert again.pair_set() == rs.pair_set()
        assert again.score("dog", "animal") == 0.75
        assert again.score("cat", "animal") is None

    def test_file_is_sorted(self, tmp_path):
        rs = RelationSet("tf")
        rs.add("z", "a")
        rs.add("b", "a")
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
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "rels.tsv"
        path.write_text(f"x\ty\tpatt\t0.5\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            load_relations(path)
