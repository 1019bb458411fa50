import json
from dataclasses import replace
from pathlib import Path

import pytest

from taxorel import corpus as corpus_module
from taxorel.cli import METHODS, RunConfig, StageError, load_config, main, run, validate

GOLD = (
    "1\tanimal\t\n"
    "2\tdog\t1\n"
    "3\tcat\t1\n"
    "4\thorse\t1\n"
    "5\tplant\t\n"
    "6\ttree\t5\n"
)


def write_fixture(tmp_path, gold_text=GOLD):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "d1.txt").write_text(
        "animals\tanimal\tNOUN\nsuch\tsuch\tADJ\nas\tas\tOTHER\n"
        "dogs\tdog\tNOUN\nand\tand\tOTHER\ncats\tcat\tNOUN\n"
        "\n"
        "big\tbig\tADJ\ndogs\tdog\tNOUN\nbark\tbark\tVERB\n",
        encoding="utf-8",
    )
    (corpus_dir / "d2.txt").write_text(
        "dogs\tdog\tNOUN\nchase\tchase\tVERB\ncats\tcat\tNOUN\n"
        "\n"
        "animals\tanimal\tNOUN\neat\teat\tVERB\n",
        encoding="utf-8",
    )
    (corpus_dir / "d3.txt").write_text(
        "animals\tanimal\tNOUN\nsleep\tsleep\tVERB\n"
        "\n"
        "horses\thorse\tNOUN\nrun\trun\tVERB\nfast\tfast\tADJ\n"
        "\n"
        "big\tbig\tADJ\ntrees\ttree\tNOUN\ngrow\tgrow\tVERB\n",
        encoding="utf-8",
    )
    (corpus_dir / "d4.txt").write_text(
        "dogs\tdog\tNOUN\nand\tand\tOTHER\nanimals\tanimal\tNOUN\n"
        "\n"
        "cats\tcat\tNOUN\nsleep\tsleep\tVERB\n",
        encoding="utf-8",
    )
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text(gold_text, encoding="utf-8")
    return corpus_dir, gold_path


def write_config(tmp_path, outdir="out", methods="tf, df, docsub", extra=""):
    corpus_dir, gold_path = write_fixture(tmp_path)
    config = tmp_path / "run.ini"
    config.write_text(
        f"[corpus]\npath = {corpus_dir}\nlanguage = EN\n\n"
        f"[gold]\npath = {gold_path}\n\n"
        "[vocabulary]\nn = 10\n\n"
        f"[methods]\nmethods = {methods}\n\n"
        "[docsub]\nlambdas = 0.1, 0.5, 0.9\n\n"
        "[hclust]\nclusters = 2\n\n"
        f"[output]\ndir = {tmp_path / outdir}\n"
        f"{extra}",
        encoding="utf-8",
    )
    return config


class TestValidate:
    def test_valid_config_has_no_problems(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert validate(config) == []

    def test_config_without_optional_keys_loads_the_defaults(self, tmp_path):
        path = tmp_path / "minimal.ini"
        path.write_text("[corpus]\npath = c\n\n[gold]\npath = g\n", encoding="utf-8")
        assert load_config(path) == RunConfig("c", "EN", "g", "out")

    def test_missing_gold_is_a_problem(self, tmp_path):
        config = load_config(write_config(tmp_path))
        config.gold_path = str(tmp_path / "nope.tsv")
        problems = validate(config)
        assert len(problems) == 1 and "gold" in problems[0]

    def test_lambda_out_of_range(self, tmp_path):
        config = load_config(write_config(tmp_path))
        config.docsub_lambdas = (1.5,)
        assert any("lambda" in p for p in validate(config))

    def test_lambdas_sharing_an_eval_file_rejected(self, tmp_path):
        # Both would write eval_docsub_0.5.json, the second over the first.
        config = load_config(write_config(tmp_path))
        config.docsub_lambdas = (0.5, 0.5000001, 0.9, 0.5)
        assert validate(config) == [
            "docsub lambdas 0.5 and 0.5000001 share eval_docsub_0.5.json",
            "docsub lambdas 0.5 and 0.5 share eval_docsub_0.5.json",
        ]

    def test_even_window_rejected(self, tmp_path):
        config = load_config(write_config(tmp_path))
        config.window_size = 4
        assert any("window" in p for p in validate(config))

    def test_unknown_method(self, tmp_path):
        config = load_config(write_config(tmp_path))
        config.methods = ("tf", "lsa")
        assert any("lsa" in p for p in validate(config))

    def test_duplicate_method_rejected(self, tmp_path):
        config = load_config(write_config(tmp_path, methods="tf, df, tf"))
        assert validate(config) == ["duplicate method 'tf'"]

    def test_bad_value_names_file_section_and_key(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("n = 10", "n = ten"), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: [vocabulary] n: invalid literal")

    def test_percent_sign_is_a_literal_value(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "\n[patt]\npatterns = /data/a%b\n", encoding="utf-8")
        assert load_config(path).patterns_path == "/data/a%b"

    def test_file_without_section_header_is_an_error_line(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("path = corpus\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestRun:
    def test_single_method_produces_relations_metrics_report(self, tmp_path):
        config = load_config(write_config(tmp_path, methods="tf"))
        outdir = tmp_path / "out"
        run(config)
        assert (outdir / "relations_tf.tsv").exists()
        assert (outdir / "metrics_tf.json").exists()
        assert (outdir / "metrics_tf.txt").exists()
        assert (outdir / "eval_tf.json").exists()
        assert (outdir / "manifest.json").exists()

    def test_all_methods_end_to_end(self, tmp_path):
        config = load_config(
            write_config(tmp_path, methods="patt, dsim, slqs, tf, df, docsub, hclust")
        )
        manifest_path = run(config)
        manifest = json.loads(manifest_path.read_text())
        outdir = tmp_path / "out"
        for method in ("patt", "dsim", "slqs", "tf", "df", "docsub", "hclust"):
            assert f"relations_{method}.tsv" in manifest["outputs"]
            assert (outdir / f"eval_{method}.json").exists()
        assert (outdir / "complementarity_direct.csv").exists()
        assert (outdir / "complementarity_inverse.csv").exists()
        assert (outdir / "relative_precision.csv").exists()
        # The pattern sentence is present, so patt finds (dog|cat, animal).
        patt = (outdir / "relations_patt.tsv").read_text()
        assert "dog\tanimal\tpatt" in patt

    def test_docsub_sweep_reports_and_summary(self, tmp_path):
        config = load_config(write_config(tmp_path, methods="docsub"))
        run(config)
        outdir = tmp_path / "out"
        for lam in ("0.1", "0.5", "0.9"):
            assert (outdir / f"eval_docsub_{lam}.json").exists()
        sweep = json.loads((outdir / "docsub_sweep.json").read_text())
        assert len(sweep["sweep"]) == 3
        assert sweep["best_lambda"] in (0.1, 0.5, 0.9)
        best_f = max(entry["fmeasure"] for entry in sweep["sweep"])
        chosen = [e for e in sweep["sweep"] if e["lambda"] == sweep["best_lambda"]][0]
        assert chosen["fmeasure"] == best_f

    def test_reruns_are_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path)
        first = run(load_config(config_path, {"output_dir": str(tmp_path / "o1")}))
        second = run(load_config(config_path, {"output_dir": str(tmp_path / "o2")}))
        files1 = sorted(p.name for p in first.parent.iterdir())
        files2 = sorted(p.name for p in second.parent.iterdir())
        assert files1 == files2
        for name in files1:
            if name == "manifest.json":
                # Manifests differ only in the configured output dir.
                m1 = json.loads((first.parent / name).read_text())
                m2 = json.loads((second.parent / name).read_text())
                assert m1["outputs"] == m2["outputs"]
            else:
                assert (first.parent / name).read_bytes() == (
                    second.parent / name
                ).read_bytes()

    def test_same_config_rerun_gives_identical_manifest(self, tmp_path):
        config_path = write_config(tmp_path)
        first = run(load_config(config_path)).read_bytes()
        second = run(load_config(config_path)).read_bytes()
        assert first == second

    def test_manifest_digests_match_files(self, tmp_path):
        import hashlib

        manifest_path = run(load_config(write_config(tmp_path)))
        manifest = json.loads(manifest_path.read_text())
        for name, digest in manifest["outputs"].items():
            content = (manifest_path.parent / name).read_bytes()
            assert hashlib.sha256(content).hexdigest() == digest

    @pytest.mark.parametrize("pseudo", [False, True], ids=["documents", "pseudo-documents"])
    def test_one_run_codes_its_corpus_once(self, tmp_path, monkeypatch, pseudo):
        coded = []
        real = corpus_module._code_tokens

        def counting(c):
            coded.append(c)
            return real(c)

        monkeypatch.setattr(corpus_module, "_code_tokens", counting)
        config = load_config(write_config(tmp_path, methods=",".join(METHODS)))
        run(replace(config, pseudo_documents=pseudo, best_parent=True))
        # Stats, both context models and the patterns all read the run
        # corpus; a split corpus has one document per sentence.
        assert [len(c.documents) for c in coded] == [9 if pseudo else 4]

    def test_best_parent_toggle_writes_filtered_files(self, tmp_path):
        config = load_config(
            write_config(tmp_path, methods="tf", extra="\n[filter]\nbest_parent = true\n")
        )
        run(config)
        assert (tmp_path / "out" / "filtered_tf.tsv").exists()

    def test_failed_stage_removes_partial_outputs(self, tmp_path):
        disjoint_gold = "1\tquasar\t\n"
        corpus_dir, gold_path = write_fixture(tmp_path, gold_text=disjoint_gold)
        config = tmp_path / "bad.ini"
        outdir = tmp_path / "out_bad"
        config.write_text(
            f"[corpus]\npath = {corpus_dir}\nlanguage = EN\n\n"
            f"[gold]\npath = {gold_path}\n\n"
            f"[output]\ndir = {outdir}\n",
            encoding="utf-8",
        )
        with pytest.raises(StageError) as err:
            run(load_config(config))
        assert err.value.stage == "vocabulary"
        assert not list(outdir.iterdir())

    def test_write_cut_short_leaves_no_file_under_the_output_name(self, tmp_path, monkeypatch):
        config_path = write_config(tmp_path)
        outdir = tmp_path / "out"
        write_text = Path.write_text

        def cut_short(path, text, *args, **kwargs):
            if path.name.startswith("eval_tf.json"):
                write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError("disk full")
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", cut_short)
        with pytest.raises(StageError) as err:
            run(load_config(config_path))
        assert err.value.stage == "evaluate:tf"
        assert not list(outdir.iterdir())

    def test_failed_rerun_leaves_no_manifest(self, tmp_path):
        config_path = write_config(tmp_path)
        outdir = tmp_path / "out"
        run(load_config(config_path))
        (tmp_path / "gold.tsv").write_text("1\tquasar\t\n", encoding="utf-8")
        with pytest.raises(StageError):
            run(load_config(config_path))
        assert not list(outdir.iterdir())

    def test_narrowed_sweep_leaves_no_unlisted_reports(self, tmp_path):
        config_path = write_config(tmp_path, methods="docsub")
        run(load_config(config_path))
        manifest_path = run(load_config(config_path, {"docsub_lambdas": (0.5,)}))
        listed = json.loads(manifest_path.read_text())["outputs"]
        assert "eval_docsub_0.5.json" in listed
        assert sorted(p.name for p in manifest_path.parent.iterdir()) == sorted(
            [*listed, "manifest.json"]
        )

    def test_rerun_keeps_files_it_did_not_write(self, tmp_path):
        config_path = write_config(tmp_path)
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "notes.txt").write_text("mine", encoding="utf-8")
        run(load_config(config_path))
        run(load_config(config_path))
        (tmp_path / "gold.tsv").write_text("1\tquasar\t\n", encoding="utf-8")
        with pytest.raises(StageError):
            run(load_config(config_path))
        assert [p.name for p in outdir.iterdir()] == ["notes.txt"]
        assert (outdir / "notes.txt").read_text() == "mine"

    def test_validation_failure_names_stage(self, tmp_path):
        config = load_config(write_config(tmp_path))
        config.gold_path = str(tmp_path / "missing.tsv")
        with pytest.raises(StageError) as err:
            run(config)
        assert err.value.stage == "validate"


class TestCommandLine:
    def test_stats_verb(self, tmp_path, capsys):
        corpus_dir, _ = write_fixture(tmp_path)
        assert main(["stats", str(corpus_dir), "--language", "EN"]) == 0
        out = capsys.readouterr().out
        assert "documents\t4" in out

    @pytest.mark.parametrize("flags", [[], ["--pseudo-documents"]], ids=["documents", "pseudo"])
    def test_stats_verb_prints_the_run_corpus_stats(self, tmp_path, capsys, flags):
        config = write_config(tmp_path, methods="tf")
        assert main(["run", "--config", str(config), *flags]) == 0
        capsys.readouterr()
        corpus_dir = tmp_path / "corpus"
        assert main(["stats", str(corpus_dir), "--language", "EN", *flags]) == 0
        assert capsys.readouterr().out == (tmp_path / "out" / "corpus_stats.txt").read_text(
            encoding="utf-8"
        )

    def test_contexts_verb(self, tmp_path, capsys):
        corpus_dir, _ = write_fixture(tmp_path)
        out_file = tmp_path / "matrix.tsv"
        code = main(
            [
                "contexts",
                str(corpus_dir),
                "--language",
                "EN",
                "--model",
                "window",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert "dog\tbig-j-l" in out_file.read_text()

    def test_extract_evaluate_metrics_verbs(self, tmp_path, capsys):
        corpus_dir, gold_path = write_fixture(tmp_path)
        rel_file = tmp_path / "tf.tsv"
        assert (
            main(
                [
                    "extract",
                    str(corpus_dir),
                    "--language",
                    "EN",
                    "--gold",
                    str(gold_path),
                    "--method",
                    "tf",
                    "--n",
                    "10",
                    "--out",
                    str(rel_file),
                ]
            )
            == 0
        )
        assert rel_file.exists()
        assert (
            main(["evaluate", str(rel_file), "--gold", str(gold_path)]) == 0
        )
        assert "precision=" in capsys.readouterr().out
        assert main(["metrics", str(rel_file)]) == 0
        assert "total_terms" in capsys.readouterr().out

    def test_filter_parent_verb(self, tmp_path):
        corpus_dir, gold_path = write_fixture(tmp_path)
        rel_file = tmp_path / "tf.tsv"
        main(
            [
                "extract", str(corpus_dir), "--language", "EN",
                "--gold", str(gold_path), "--method", "tf",
                "--n", "10", "--out", str(rel_file),
            ]
        )
        out_file = tmp_path / "filtered.tsv"
        code = main(
            [
                "filter-parent", str(rel_file), str(corpus_dir),
                "--language", "EN", "--out", str(out_file),
            ]
        )
        assert code == 0 and out_file.exists()

    def test_complement_verb(self, tmp_path):
        corpus_dir, gold_path = write_fixture(tmp_path)
        files = []
        for method in ("tf", "df"):
            rel_file = tmp_path / f"{method}.tsv"
            main(
                [
                    "extract", str(corpus_dir), "--language", "EN",
                    "--gold", str(gold_path), "--method", method,
                    "--n", "10", "--out", str(rel_file),
                ]
            )
            files.append(str(rel_file))
        code = main(
            ["complement", *files, "--gold", str(gold_path), "--out-dir",
             str(tmp_path / "comp")]
        )
        assert code == 0
        header = (tmp_path / "comp" / "complementarity_direct.csv").read_text()
        assert header.startswith("method,tf,df")

    def test_complement_verb_writes_the_matrices_of_run(self, tmp_path):
        config_path = write_config(tmp_path, methods=", ".join(METHODS))
        outdir = run(load_config(config_path, {"docsub_lambdas": (0.5,)})).parent
        files = [str(outdir / f"relations_{method}.tsv") for method in METHODS]
        code = main(
            ["complement", *files, "--gold", str(tmp_path / "gold.tsv"), "--out-dir",
             str(tmp_path / "comp")]
        )
        assert code == 0
        for name in ("complementarity_direct.csv", "complementarity_inverse.csv",
                     "relative_precision.csv"):
            assert (tmp_path / "comp" / name).read_bytes() == (outdir / name).read_bytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_extract_verb_writes_the_relations_of_run(self, tmp_path, method):
        config_path = write_config(tmp_path, methods=method)
        manifest_path = run(load_config(config_path, {"docsub_lambdas": (0.5,)}))
        out_file = tmp_path / "verb.tsv"
        code = main(
            [
                "extract", str(tmp_path / "corpus"), "--language", "EN",
                "--gold", str(tmp_path / "gold.tsv"), "--method", method,
                "--n", "10", "--lam", "0.5", "--clusters", "2", "--out", str(out_file),
            ]
        )
        assert code == 0
        expected = manifest_path.parent / f"relations_{method}.tsv"
        assert out_file.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_filter_parent_verb_writes_the_filtered_file_of_run(self, tmp_path, method):
        extra = "\n[filter]\nbest_parent = true\n"
        config_path = write_config(tmp_path, methods=method, extra=extra)
        outdir = run(load_config(config_path, {"docsub_lambdas": (0.5,)})).parent
        out_file = tmp_path / "verb.tsv"
        code = main(
            [
                "filter-parent", str(outdir / f"relations_{method}.tsv"),
                str(tmp_path / "corpus"), "--language", "EN", "--out", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.read_bytes() == (outdir / f"filtered_{method}.tsv").read_bytes()

    def test_evaluate_verb_writes_the_eval_file_of_run(self, tmp_path):
        manifest_path = run(load_config(write_config(tmp_path, methods="tf")))
        out_file = tmp_path / "verb.json"
        relations = manifest_path.parent / "relations_tf.tsv"
        code = main(
            ["evaluate", str(relations), "--gold", str(tmp_path / "gold.tsv"), "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.read_bytes() == (manifest_path.parent / "eval_tf.json").read_bytes()
        assert json.loads(out_file.read_text())["empty_relation_set"] is False

    def test_run_verb_rejects_zero_n(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--n", "0"]) == 1
        assert "vocabulary size" in capsys.readouterr().err

    def test_run_verb_methods_override_accepts_trailing_comma(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--methods", "tf,"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["methods"] == ["tf"]

    def test_run_verb_and_stage_error_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        bad = tmp_path / "bad.ini"
        bad.write_text("[corpus]\npath = /nope\n", encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 1
        assert "validate" in capsys.readouterr().err
