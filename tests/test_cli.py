import ast
import builtins
import configparser
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import taxorel
from taxorel import cli as cli_module
from taxorel import contexts as contexts_module
from taxorel import corpus as corpus_module
from taxorel import evaluation as evaluation_module
from taxorel import extractors as extractors_module
from taxorel import taxonomy as taxonomy_module
from taxorel.cli import METHODS, RunConfig, StageError, load_config, main, run, validate
from taxorel.gold import GoldTaxonomy

from helpers import assert_coding_equal, oracle_load_corpus, oracle_sentence_documents, outcome

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


GOLD_PT = (
    "1\tser vivo\t\n"
    "2\tanimal\t1\n"
    "3\tcão|cachorro\t2\n"
    "4\tgato\t2\n"
    "5\tfruta\t1\n"
    "6\tmaçã\t5\n"
    "7\tlaranja\t5\n"
    "8\tárvore\t1\n"
)

# Portuguese documents as (surface, lemma, tag) sentences; adjectives follow
# the noun.  The planted "tais como" and "e outros" sentences give patt's
# four pairs, and "Maçãs" carries a capitalised lemma that folds to maçã.
CORPUS_PT = {
    "d1.txt": [
        "frutas fruta NOUN | tais tal OTHER | como como OTHER | maçãs maçã NOUN"
        " | e e OTHER | laranjas laranja NOUN",
        "cães cão NOUN | latem latir VERB | alto alto ADJ",
    ],
    "d2.txt": [
        "cães cão NOUN | , , OTHER | gatos gato NOUN | e e OTHER | outros outro OTHER"
        " | animais animal NOUN | dormem dormir VERB",
        "Maçãs Maçã NOUN | vermelhas vermelho ADJ | caem cair VERB",
    ],
    "d3.txt": [
        "gatos gato NOUN | pretos preto ADJ | comem comer VERB | laranjas laranja NOUN",
        "árvores árvore NOUN | altas alto ADJ | dão dar VERB | frutas fruta NOUN",
        "animais animal NOUN | grandes grande ADJ | correm correr VERB",
    ],
    "d4.txt": [
        "o o OTHER | cão cão NOUN | velho velho ADJ | come comer VERB | maçãs maçã NOUN",
        "árvores árvore NOUN | verdes verde ADJ | crescem crescer VERB",
    ],
}


def write_pt_config(tmp_path) -> Path:
    """A run of all seven methods over :data:`CORPUS_PT` and :data:`GOLD_PT`."""
    corpus_dir = tmp_path / "corpus_pt"
    corpus_dir.mkdir()
    for name, sentences in CORPUS_PT.items():
        lines = [
            ["\t".join(token.split(" ")) for token in sentence.split(" | ")]
            for sentence in sentences
        ]
        text = "\n\n".join("\n".join(tokens) for tokens in lines) + "\n"
        (corpus_dir / name).write_text(text, encoding="utf-8")
    gold_path = tmp_path / "gold_pt.tsv"
    gold_path.write_text(GOLD_PT, encoding="utf-8")
    config = tmp_path / "run_pt.ini"
    config.write_text(
        f"[corpus]\npath = {corpus_dir}\nlanguage = PT\n\n"
        f"[gold]\npath = {gold_path}\n\n"
        "[vocabulary]\nn = 10\n\n"
        f"[methods]\nmethods = {', '.join(METHODS)}\n\n"
        "[docsub]\nlambdas = 0.1, 0.5, 0.9\n\n"
        "[hclust]\nclusters = 2\n\n"
        f"[output]\ndir = {tmp_path / 'out_pt'}\n",
        encoding="utf-8",
    )
    return config


def cut_writes_short(monkeypatch, prefix):
    """Make every write to a file whose name starts with ``prefix`` stop
    halfway with a full disk."""
    write_bytes = Path.write_bytes

    def cut_short(path, data):
        if path.name.startswith(prefix):
            write_bytes(path, data[: len(data) // 2])
            raise OSError("disk full")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", cut_short)


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


def empty_hclust_run(tmp_path) -> Path:
    """The output dir of an hclust run with as many clusters as vocabulary
    terms, which writes an empty relation file."""
    config = load_config(write_config(tmp_path, methods="hclust"),
                         {"vocabulary_size": 5, "hclust_clusters": 5})
    outdir = run(config).parent
    assert (outdir / "relations_hclust.tsv").read_bytes() == b""
    return outdir


def modules_after_runs(config, *changes) -> list[str]:
    """The modules loaded in a fresh interpreter that runs ``config`` once
    with each dict of RunConfig field ``changes``."""
    script = (
        "import sys\n"
        "from dataclasses import replace\n"
        "import taxorel.cli as cli\n"
        f"config = cli.load_config({str(config)!r})\n"
        f"for changes in {changes!r}:\n"
        "    cli.run(replace(config, **changes))\n"
        "print(*sorted(sys.modules), sep='\\n')\n"
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
    return proc.stdout.split()


# sha256 of every file an all-methods run of the fixture writes, manifest
# excepted (it names the output directory), keyed by ``best_parent``.  A
# change that alters an output updates its digest only together with a
# CHANGES.md line that says why.
PINNED_DIGESTS = {
    False: {
        "complementarity_direct.csv": "b11d47221c7cbecd79c6f1fb3d90a2a6573a6f9a0501d22ec45ea473b5d14956",
        "complementarity_inverse.csv": "baa92516b08f50a46cb6a8dcc2525285b7abeaf334be0fa84a2519002648d464",
        "corpus_stats.txt": "45b35ee87760354eea58d3fe2eaade3594a2702434852d942ae25b2816703715",
        "docsub_sweep.json": "0d3cec331f495a73c8f876b42e3dddf104756135a02e2d16bd665bb2d0dac01f",
        "eval_df.json": "007adf5b0e669b28647b2fc5c0e0b4b2e77143fbeeee79908e9cf53ef33f3fe6",
        "eval_docsub.json": "25913c3fbe9ea836d4fd0c71b871ac400b882245940b6cd53ac008e290ebeed2",
        "eval_docsub_0.1.json": "c38df78fbf4089b63df4ebed88e5eb9c9d32c3a24350fa1f487b48b17fa8787f",
        "eval_docsub_0.5.json": "c38df78fbf4089b63df4ebed88e5eb9c9d32c3a24350fa1f487b48b17fa8787f",
        "eval_docsub_0.9.json": "c38df78fbf4089b63df4ebed88e5eb9c9d32c3a24350fa1f487b48b17fa8787f",
        "eval_dsim.json": "8c12fb1049be382b3973db4d7486d4ddf38b1bbaa70d86da79b90684474af47f",
        "eval_hclust.json": "5cbfc978b5d54ac04d13e00c637776c7e488b7b3f5443ea6888a3974986999eb",
        "eval_patt.json": "57e54c3761bb370064a30a6653d2e3fc452015f1b31bff99c733ff7345020da8",
        "eval_slqs.json": "7c6b7d5bd32ff4c16dc5709b24448980f3efb90126df502f4ad349ecdde7c737",
        "eval_tf.json": "5e33b14908aa0f8926335eef19a02509008f3df1779786e03e5a56483fe88877",
        "metrics_df.json": "470c39a2268ceaadc2eccb204efec00ce449ce02b986e75f89e7b20b787d176c",
        "metrics_df.txt": "81095aed38583076bc2b0081dc0846dd23066f26935d45c4d8de9a459488f1bf",
        "metrics_docsub.json": "c1689467b6dca4e8bd4cec4a7f2cbe9d64b81bf46e620a4b6801487bb346d5cf",
        "metrics_docsub.txt": "e3fd1cdcb30e1251e7864214a24b041a3f9f5cc57fe1700d18201f4506df4b7d",
        "metrics_dsim.json": "75e920a17984661a8194e27eee0dc718aa83395ee39a836ce045a445013efbd7",
        "metrics_dsim.txt": "766089035da56336e3d0df6817cd33a876c3eaac9f19a654ebe9d2932e67edb5",
        "metrics_hclust.json": "d3295f096d86ca5743309179bee56a7e881a40031b2ef6e1423d33486ded43dd",
        "metrics_hclust.txt": "29b229443a90092e7a27871d91761b15e1307675c1301d58dae9d36fa813e63f",
        "metrics_patt.json": "8cf0768247430bd984b59dd7bef568384ab136186950ee67fb05123a57862374",
        "metrics_patt.txt": "ad62e94035e385113489973c8262f29f9aa911faa79edcec03ad0bf43ab25e06",
        "metrics_slqs.json": "0db4e885ce93aef31c64bb423c3c91d100bf08193908333079be675c8184da8f",
        "metrics_slqs.txt": "1738217765a668f601a1b883c89328d783d83a28240cf68afee58a365f84d2e7",
        "metrics_tf.json": "0127e86129dcf4513d078615d5ac13f967cac2b4e76dfd2bd5c3e48e3475c2e9",
        "metrics_tf.txt": "50305a620b1fb5e3e8d78a2944034a95f6d2ca2fe6aba332781fec24c3e8c684",
        "relations_df.tsv": "076eba394a73347d5e6aa455c6dc50da93beeca84598e592ac008a695dec7973",
        "relations_docsub.tsv": "7ee9ab6bfcac5dff5014a3d5c99bca1b88c6b92b16d6d3115f9d9512d1f2b6c0",
        "relations_dsim.tsv": "4f2a42775fe702d52a71fe8f5642906ebad7e76c81b69035d981a2118eac06aa",
        "relations_hclust.tsv": "84ad5116cf9be49c53dc2ce66c8874c3a3a02f7a40d9cef5c3d5c292509c60b1",
        "relations_patt.tsv": "afa5e6c8b268775f1185842b4aea5e302065b283e1c459f4f1154e5ea495ce80",
        "relations_slqs.tsv": "94dae0cf8cf43833488e6b0aca7b0306082776965c114bd8eb9dde6c690f3ae8",
        "relations_tf.tsv": "b8bde39cbc37722f83a7ef575d69aca4080968e45a9417c72f10a180c8590258",
        "relative_precision.csv": "1d0073144b855d350b052693618e66e1c969a9d19ef0d8eb2d0c63e35e15dbc9",
        "vocabulary.txt": "52f3bfefeafcfe9f29245c281433b73db0b5e3346536acfc9b945afbdc72cf0c",
    },
    True: {
        "complementarity_direct.csv": "b11d47221c7cbecd79c6f1fb3d90a2a6573a6f9a0501d22ec45ea473b5d14956",
        "complementarity_inverse.csv": "baa92516b08f50a46cb6a8dcc2525285b7abeaf334be0fa84a2519002648d464",
        "corpus_stats.txt": "45b35ee87760354eea58d3fe2eaade3594a2702434852d942ae25b2816703715",
        "docsub_sweep.json": "0d3cec331f495a73c8f876b42e3dddf104756135a02e2d16bd665bb2d0dac01f",
        "eval_df.json": "25913c3fbe9ea836d4fd0c71b871ac400b882245940b6cd53ac008e290ebeed2",
        "eval_docsub.json": "25913c3fbe9ea836d4fd0c71b871ac400b882245940b6cd53ac008e290ebeed2",
        "eval_docsub_0.1.json": "c38df78fbf4089b63df4ebed88e5eb9c9d32c3a24350fa1f487b48b17fa8787f",
        "eval_docsub_0.5.json": "c38df78fbf4089b63df4ebed88e5eb9c9d32c3a24350fa1f487b48b17fa8787f",
        "eval_docsub_0.9.json": "c38df78fbf4089b63df4ebed88e5eb9c9d32c3a24350fa1f487b48b17fa8787f",
        "eval_dsim.json": "8c12fb1049be382b3973db4d7486d4ddf38b1bbaa70d86da79b90684474af47f",
        "eval_hclust.json": "ce02e1bd2296a8a1ea7c188446628d5e5a9ec9c170635955d1661d9ebb476463",
        "eval_patt.json": "57e54c3761bb370064a30a6653d2e3fc452015f1b31bff99c733ff7345020da8",
        "eval_slqs.json": "7c6b7d5bd32ff4c16dc5709b24448980f3efb90126df502f4ad349ecdde7c737",
        "eval_tf.json": "ce02e1bd2296a8a1ea7c188446628d5e5a9ec9c170635955d1661d9ebb476463",
        "filtered_df.tsv": "1ce160beedd46891c59630f54dfb28e42ea980e770b7ad0ba7a95693ac3b19b1",
        "filtered_docsub.tsv": "2a2ceec2b7ae5abe6d948443ba4645b3ac6ed9c7ce27ab64936d92ae826787fc",
        "filtered_dsim.tsv": "8f2063dc6bb1c646d4dc66256b8ddc519b09d96e3d15ae33db7c22dbed5947f1",
        "filtered_hclust.tsv": "01310866627407cad08398297192da91b95e168d7e69808be5bf7f33b5f89a09",
        "filtered_patt.tsv": "afa5e6c8b268775f1185842b4aea5e302065b283e1c459f4f1154e5ea495ce80",
        "filtered_slqs.tsv": "a51b193709b3d1e2d11f392aa843c793a3f29ba2d53ddafcc7393c6ace3f14f8",
        "filtered_tf.tsv": "8c86aac9425067906b1ae6442df9ad07151c78ea8790946c3ddb60ac808abb2d",
        "metrics_df.json": "c1689467b6dca4e8bd4cec4a7f2cbe9d64b81bf46e620a4b6801487bb346d5cf",
        "metrics_df.txt": "e3fd1cdcb30e1251e7864214a24b041a3f9f5cc57fe1700d18201f4506df4b7d",
        "metrics_docsub.json": "c1689467b6dca4e8bd4cec4a7f2cbe9d64b81bf46e620a4b6801487bb346d5cf",
        "metrics_docsub.txt": "e3fd1cdcb30e1251e7864214a24b041a3f9f5cc57fe1700d18201f4506df4b7d",
        "metrics_dsim.json": "75e920a17984661a8194e27eee0dc718aa83395ee39a836ce045a445013efbd7",
        "metrics_dsim.txt": "766089035da56336e3d0df6817cd33a876c3eaac9f19a654ebe9d2932e67edb5",
        "metrics_hclust.json": "9567a3bd8392560c31592757ad640de87f0ab16fad651479a57ff26723ff4811",
        "metrics_hclust.txt": "b93a6735546f6b679603028ff8ba5b50503464672af51a4ef0f30ee445efa0ae",
        "metrics_patt.json": "8cf0768247430bd984b59dd7bef568384ab136186950ee67fb05123a57862374",
        "metrics_patt.txt": "ad62e94035e385113489973c8262f29f9aa911faa79edcec03ad0bf43ab25e06",
        "metrics_slqs.json": "0db4e885ce93aef31c64bb423c3c91d100bf08193908333079be675c8184da8f",
        "metrics_slqs.txt": "1738217765a668f601a1b883c89328d783d83a28240cf68afee58a365f84d2e7",
        "metrics_tf.json": "a0c4b88d0bc95cf5885dd5dcf419d6eaf305796e4e334d0c1d632f5f430c6dd2",
        "metrics_tf.txt": "1582640129b31595197b9539125f2e4193cd3e088eb5c431e04c0a501b1c1197",
        "relations_df.tsv": "076eba394a73347d5e6aa455c6dc50da93beeca84598e592ac008a695dec7973",
        "relations_docsub.tsv": "7ee9ab6bfcac5dff5014a3d5c99bca1b88c6b92b16d6d3115f9d9512d1f2b6c0",
        "relations_dsim.tsv": "4f2a42775fe702d52a71fe8f5642906ebad7e76c81b69035d981a2118eac06aa",
        "relations_hclust.tsv": "84ad5116cf9be49c53dc2ce66c8874c3a3a02f7a40d9cef5c3d5c292509c60b1",
        "relations_patt.tsv": "afa5e6c8b268775f1185842b4aea5e302065b283e1c459f4f1154e5ea495ce80",
        "relations_slqs.tsv": "94dae0cf8cf43833488e6b0aca7b0306082776965c114bd8eb9dde6c690f3ae8",
        "relations_tf.tsv": "b8bde39cbc37722f83a7ef575d69aca4080968e45a9417c72f10a180c8590258",
        "relative_precision.csv": "1d0073144b855d350b052693618e66e1c969a9d19ef0d8eb2d0c63e35e15dbc9",
        "vocabulary.txt": "52f3bfefeafcfe9f29245c281433b73db0b5e3346536acfc9b945afbdc72cf0c",
    },
}


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

    def test_only_the_methods_of_the_table_are_methods(self, tmp_path):
        # The table also derives the corpus, the matrices and the sweep;
        # none of those is a method that a config may name.
        config = load_config(write_config(tmp_path))
        names = {*cli_module._DERIVED, "lsa"}
        accepted = {m for m in names if not validate(replace(config, methods=(m,)))}
        assert accepted == set(METHODS) and set(METHODS) <= set(cli_module._DERIVED)

    def test_duplicate_method_rejected(self, tmp_path):
        config = load_config(write_config(tmp_path, methods="tf, df, tf"))
        assert validate(config) == ["duplicate method 'tf'"]

    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"language": "DE"}, "language must be EN or PT, got 'DE'"),
            ({"pos_mapping": "no/such.map"}, "pos mapping does not exist: 'no/such.map'"),
            ({"patterns_path": "no/such.pat"}, "patterns file does not exist: 'no/such.pat'"),
            ({"methods": ()}, "no methods configured"),
            ({"dsim_measure": "dice"}, "dsim measure must be one of ('clarkede', 'weedsprec')"),
            ({"slqs_contexts": 0}, "slqs top_contexts must be >= 1"),
            ({"docsub_lambdas": ()}, "docsub requires at least one lambda"),
            ({"hclust_clusters": 0}, "hclust clusters must be >= 1"),
        ],
        ids=["language", "pos-mapping", "patterns", "no-methods", "dsim-measure",
             "slqs-contexts", "docsub-lambdas", "hclust-clusters"],
    )
    def test_each_problem_has_its_message(self, tmp_path, change, problem):
        config = load_config(write_config(tmp_path))
        assert validate(replace(config, **change)) == [problem]

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

    @pytest.mark.parametrize(
        "old, new, section, key",
        [
            # Would run with n = 1000 and with every method.
            ("n = 10", "size = 45", "vocabulary", "size"),
            ("[methods]", "[method]", "method", "methods"),
            ("[docsub]", "[DEFAULT]\nn = 5\n\n[docsub]", "DEFAULT", "n"),
        ],
        ids=["vocabulary-size", "method", "default"],
    )
    def test_unknown_key_names_file_section_and_key(self, tmp_path, capsys, old, new, section, key):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace(old, new), encoding="utf-8")
        message = f"{path}: [{section}] {key}: unknown key"
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == message
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[corpus]\npath = c\xff\n")
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not valid UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize(
        "text",
        ["[corpus]\npath = a\n[corpus]\n", "[corpus]\npath = a\npath = b\n", "path = a\n"],
        ids=["duplicate-section", "duplicate-key", "no-section"],
    )
    def test_parser_errors_keep_the_parsers_message(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(configparser.Error) as direct:
            configparser.ConfigParser(interpolation=None).read(path, encoding="utf-8")
        assert outcome(lambda: load_config(path)) == (ValueError, f"{path}: {direct.value}")

    @pytest.mark.parametrize("make", [lambda path: None, Path.mkdir], ids=["missing", "directory"])
    def test_unreadable_config_is_named(self, tmp_path, capsys, make):
        path = tmp_path / "run.ini"
        make(path)
        assert outcome(lambda: load_config(path)) == (ValueError, f"cannot read config file {path}")
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: cannot read config file {path}\n"

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "run.ini"
        path.write_text(block, encoding="utf-8")
        assert load_config(path) == RunConfig("corpora/en", "EN", "gold/wordnet.tsv", "out")


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

    def test_portuguese_run_end_to_end(self, tmp_path):
        config = write_pt_config(tmp_path)
        outdir = tmp_path / "out_pt"
        snapshots = []
        for _ in range(2):
            assert main(["run", "--config", str(config)]) == 0
            snapshots.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
        first, second = snapshots
        assert first == second
        listed = json.loads(first["manifest.json"])["outputs"]
        assert sorted([*listed, "manifest.json"]) == sorted(first)
        for method in METHODS:
            assert f"relations_{method}.tsv" in listed and f"eval_{method}.json" in listed
        assert "maçã" in first["vocabulary.txt"].decode().split("\n")  # from "Maçã" too
        patt = first["relations_patt.tsv"].decode().splitlines()
        patt = {tuple(line.split("\t")) for line in patt}
        assert patt == {
            ("cão", "animal", "patt", ""),
            ("gato", "animal", "patt", ""),
            ("maçã", "fruta", "patt", ""),
            ("laranja", "fruta", "patt", ""),
        }

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

    @pytest.mark.parametrize("best_parent", [False, True], ids=["plain", "best-parent"])
    def test_all_methods_outputs_match_the_pinned_digests(self, tmp_path, best_parent):
        import hashlib

        config = load_config(write_config(tmp_path, methods=",".join(METHODS)))
        outdir = run(replace(config, best_parent=best_parent)).parent
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())
            if path.name != "manifest.json"
        }
        assert digests == PINNED_DIGESTS[best_parent]

    def test_a_run_loads_no_scipy(self, tmp_path):
        # Importing scipy would take longer than a small run; nothing needs it.
        config = write_config(tmp_path, methods=",".join(METHODS))
        modules = modules_after_runs(config, {}, {"best_parent": True})
        assert [m for m in modules if m.split(".")[0] == "scipy"] == []

    def test_a_run_loads_no_numpy_ma(self, tmp_path):
        # A bare ``np.unique`` imports numpy.ma, which costs a small run tens
        # of milliseconds and about 1 MB of peak RSS; nothing needs it.
        config = write_config(tmp_path, methods=",".join(METHODS))
        modules = modules_after_runs(
            config, {}, {"best_parent": True}, {"pseudo_documents": True}
        )
        assert "numpy.ma" not in modules

    @pytest.mark.parametrize("pseudo", [False, True], ids=["documents", "pseudo-documents"])
    def test_one_run_codes_its_corpus_once(self, tmp_path, monkeypatch, pseudo):
        coded, loaded, built = [], [], []
        real_code, real_load = corpus_module._code_tokens, cli_module._load_run_corpus
        real_documents = corpus_module._documents

        def counting(documents):
            coded.append(documents)
            return real_code(documents)

        def building(ids, coding):
            built.append(ids)
            return real_documents(ids, coding)

        def keeping(source):
            loaded.append(real_load(source))
            return loaded[-1]

        monkeypatch.setattr(corpus_module, "_code_tokens", counting)
        monkeypatch.setattr(corpus_module, "_documents", building)
        monkeypatch.setattr(cli_module, "_load_run_corpus", keeping)
        config = load_config(write_config(tmp_path, methods=",".join(METHODS)))
        run(replace(config, pseudo_documents=pseudo, best_parent=True))
        # Stats, both context models and the patterns all read the coding
        # the loader built while parsing, and a split corpus shares it; no
        # step of the run builds a Document or a sentence tuple.
        assert coded == []
        assert built == []
        [c] = loaded
        expected = oracle_load_corpus(tmp_path / "corpus", "EN")
        assert c == (oracle_sentence_documents(expected) if pseudo else expected)
        assert len(c.documents) == (9 if pseudo else 4)
        assert_coding_equal(c.coding, real_code(c.documents))

    def test_one_run_codes_its_lemmas_once(self, tmp_path, monkeypatch):
        # Each ``_codes`` call is one pass over the distinct tokens or the
        # document ids.  A run makes three: the lemma coding that the stats,
        # both context models and the pattern prefilter share, the window
        # labels and the document ids.  Before the lemma coding was kept on
        # the corpus a run made five, coding the target rule once per
        # context model and once more in the prefilter.
        passes, real = [], contexts_module._codes

        def counting(labels):
            passes.append(len(labels))
            return real(labels)

        for module in (corpus_module, contexts_module):
            monkeypatch.setattr(module, "_codes", counting)
        run(load_config(write_config(tmp_path, methods=",".join(METHODS))))
        assert len(passes) <= 3

    @pytest.mark.parametrize("best_parent", [False, True], ids=["plain", "best-parent"])
    def test_one_run_stays_within_its_closure_budget(self, tmp_path, monkeypatch, best_parent):
        closures = []
        real = taxonomy_module._closure

        def counting(adj):
            closures.append(len(adj))
            return real(adj)

        monkeypatch.setattr(taxonomy_module, "_closure", counting)
        config = load_config(write_config(tmp_path, methods=",".join(METHODS)))
        run(replace(config, best_parent=best_parent))
        # Closures are the run's costliest step at paper scale; this pins
        # how many one all-methods run takes.  The metrics reuse the closure
        # evaluation took, and find the weak components without one.  A set
        # keeps its taxonomy, so the complementarity bases reuse the run's
        # closures (CHANGES.md FOUND 14), and an intersection equal to one
        # of its sides is not evaluated; both runs took 37 before.
        assert len(closures) == (25 if best_parent else 21)

    def test_one_run_makes_its_pinned_number_of_evaluations(self, tmp_path, monkeypatch):
        evaluated = []
        real = evaluation_module.evaluate

        def counting(tax, gold):
            evaluated.append(tax)
            return real(tax, gold)

        monkeypatch.setattr(evaluation_module, "evaluate", counting)
        run(load_config(write_config(tmp_path, methods=",".join(METHODS))))
        # 3 for the docsub sweep, 7 for eval_<method>.json, 7 for the
        # complementarity bases and 12 for the intersections that equal
        # neither side.  Eight of them evaluate a taxonomy this run has
        # already evaluated: docsub's set at its best lambda, which the sweep
        # scored, and the seven bases, which eval_<method>.json scored.
        assert len(evaluated) == 29

    @pytest.mark.parametrize("best_parent", [False, True], ids=["plain", "best-parent"])
    def test_one_run_stays_within_its_gram_budget(self, tmp_path, monkeypatch, best_parent):
        counts = []
        real = contexts_module._gram

        def counting(*args, **kwargs):
            counts.append(args[0].shape)
            return real(*args, **kwargs)

        for module in (extractors_module, taxonomy_module):
            monkeypatch.setattr(module, "_gram", counting)
        config = load_config(write_config(tmp_path, methods=",".join(METHODS)))
        run(replace(config, best_parent=best_parent))
        # Each ``_gram`` call is a product of a matrix with its transpose:
        # one each for docsub, dsim and hclust, and with best-parent one more
        # shared-document count per filtered graph that has a multi-parent
        # node, over the same document rows (CHANGES.md FOUND 31).  ROADMAP
        # item 6 aims at one count per document matrix; these bounds pin
        # today's counts until then, which read 3 and 9 at paper scale.
        assert len(counts) <= (7 if best_parent else 3), counts

    def test_one_run_asks_the_gold_once_per_lemma(self, tmp_path, monkeypatch):
        asked = []
        real = GoldTaxonomy.ancestor_lemmas

        def counting(gold, lemma):
            asked.append(lemma.casefold())
            return real(gold, lemma)

        monkeypatch.setattr(GoldTaxonomy, "ancestor_lemmas", counting)
        config = load_config(write_config(tmp_path, methods=",".join(METHODS)))
        run(config)
        # Every evaluation slices one gold order; a lemma joins it once.
        assert asked and len(asked) == len(set(asked))

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
        cut_writes_short(monkeypatch, "eval_tf.json")
        with pytest.raises(StageError) as err:
            run(load_config(config_path))
        assert err.value.stage == "evaluate:tf"
        assert not list(outdir.iterdir())

    def test_sweep_write_cut_short_names_the_docsub_stage(self, tmp_path, monkeypatch):
        # hclust, the last method, is extracted after docsub; the sweep's
        # files are written with its reports, under docsub's stage.
        config_path = write_config(tmp_path, methods=",".join(METHODS))
        cut_writes_short(monkeypatch, "docsub_sweep.json")
        with pytest.raises(StageError) as err:
            run(load_config(config_path))
        assert err.value.stage == "extract:docsub"
        assert not list((tmp_path / "out").iterdir())

    def test_one_run_reaches_each_library_call_of_the_table_once(self, tmp_path, monkeypatch):
        # The table and the stages of ``run`` call the library through the
        # module globals of ``cli``, which a tracer rebinds; each input is
        # derived once, and docsub comes from the sweep alone.
        names = (
            "load_corpus", "load_pos_mapping", "load_gold", "extract_window_contexts",
            "extract_document_contexts", "select_vocabulary", "weight_ppmi", "weight_lmi",
            "context_entropies", "default_patterns", "extract_patterns", "extract_dsim",
            "extract_slqs", "extract_tf", "extract_df", "docsub_sweep", "extract_hclust",
        )
        calls = []

        def counting(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in names:
            monkeypatch.setattr(cli_module, name, counting(name, getattr(cli_module, name)))
        real_docsub = extractors_module.extract_docsub
        for module in (cli_module, extractors_module):
            monkeypatch.setattr(
                module, "extract_docsub", counting("extract_docsub", real_docsub), raising=False
            )
        mapping = tmp_path / "pos.map"
        mapping.write_text("NN\tNOUN\n", encoding="utf-8")
        config_path = write_config(tmp_path, methods=",".join(METHODS))
        run(load_config(config_path, {"pos_mapping": str(mapping)}))
        assert sorted(calls) == sorted(names)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupted_run_removes_its_outputs(self, tmp_path, monkeypatch, interrupt):
        config_path = write_config(tmp_path, methods="tf, df")
        outdir = tmp_path / "out"
        run(load_config(config_path))

        def interrupted(*args):
            raise interrupt()

        monkeypatch.setattr(cli_module, "complementarity_matrix", interrupted)
        # The interrupt propagates as it is, and no output of either run stays.
        with pytest.raises(interrupt):
            run(load_config(config_path))
        assert not list(outdir.iterdir())

    def test_a_run_reads_none_of_its_outputs_back(self, tmp_path, monkeypatch):
        outdir = tmp_path / "out"
        reads = []
        real_open = io.open

        def recording(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).parent == outdir:
                if "r" in mode:
                    reads.append(Path(file).name)
            return real_open(file, mode, *args, **kwargs)

        # pathlib opens through io.open, everything else through the builtin.
        monkeypatch.setattr(io, "open", recording)
        monkeypatch.setattr(builtins, "open", recording)
        config = load_config(write_config(tmp_path, methods=",".join(METHODS)))
        run(config)
        # The manifest hashes the bytes it wrote; it does not read them again.
        assert reads == []
        assert len(json.loads((outdir / "manifest.json").read_text())["outputs"]) > 20

    def test_failed_rerun_leaves_no_manifest(self, tmp_path):
        config_path = write_config(tmp_path)
        outdir = tmp_path / "out"
        run(load_config(config_path))
        (tmp_path / "gold.tsv").write_text("1\tquasar\t\n", encoding="utf-8")
        with pytest.raises(StageError):
            run(load_config(config_path))
        assert not list(outdir.iterdir())

    def test_previous_manifest_that_is_not_utf8_names_its_line(self, tmp_path):
        config = load_config(write_config(tmp_path, methods="tf"))
        manifest = tmp_path / "out" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_bytes(b'{"outputs":\n\xff}\n')
        with pytest.raises(StageError) as err:
            run(config)
        message = f"{manifest}:2: not valid UTF-8 (invalid start byte)"
        assert (err.value.stage, err.value.cause) == ("clean", message)

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

    @pytest.mark.parametrize("model", ["window", "document"])
    @pytest.mark.parametrize("flags", [[], ["--pseudo-documents"]], ids=["documents", "pseudo"])
    def test_contexts_verb_writes_the_matrix_of_the_library(self, tmp_path, capsys, model, flags):
        corpus_dir, _ = write_fixture(tmp_path)
        out_file = tmp_path / "matrix.tsv"
        argv = ["contexts", str(corpus_dir), "--language", "EN", "--model", model]
        assert main([*argv, "--out", str(out_file), *flags]) == 0
        corpus = taxorel.load_corpus(corpus_dir, "EN")
        if flags:
            corpus = taxorel.sentence_documents(corpus)
        if model == "window":
            matrix = taxorel.extract_window_contexts(corpus, RunConfig.window_size)
        else:
            matrix = taxorel.extract_document_contexts(corpus)
        assert len(matrix) > 0
        assert out_file.read_text(encoding="utf-8") == taxorel.matrix_text(matrix)

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

    def test_extract_verb_at_the_best_lambda_writes_the_docsub_relations_of_run(self, tmp_path):
        # dog's documents are all animal's, car's only half: below 0.5 docsub
        # also says that a car is an animal, which costs it precision.
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        docs = {"a": "animal dog", "b": "animal dog", "c": "animal dog", "d": "animal car",
                "e": "car"}
        for name, lemmas in docs.items():
            text = "".join(f"{lemma}\t{lemma}\tNOUN\nrun\trun\tVERB\n" for lemma in lemmas.split())
            (corpus_dir / f"{name}.txt").write_text(text, encoding="utf-8")
        gold_path = tmp_path / "gold.tsv"
        gold_path.write_text("1\tanimal\t\n2\tdog\t1\n3\tcar\t\n", encoding="utf-8")
        config_path = tmp_path / "run.ini"
        config_path.write_text(
            f"[corpus]\npath = {corpus_dir}\nlanguage = EN\n\n[gold]\npath = {gold_path}\n\n"
            "[methods]\nmethods = docsub\n\n[docsub]\nlambdas = 0.3, 0.5, 0.7, 0.9\n\n"
            f"[output]\ndir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        outdir = run(load_config(config_path)).parent
        sweep = json.loads((outdir / "docsub_sweep.json").read_text())
        assert [entry["relations"] for entry in sweep["sweep"]] == [2, 2, 1, 1]
        assert sweep["best_lambda"] == 0.7  # 0.9 ties; the smaller lambda wins
        out_file = tmp_path / "verb.tsv"
        code = main(
            [
                "extract", str(corpus_dir), "--language", "EN", "--gold", str(gold_path),
                "--method", "docsub", "--lam", str(sweep["best_lambda"]), "--out", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.read_bytes() == (outdir / "relations_docsub.tsv").read_bytes()
        assert out_file.read_text(encoding="utf-8").startswith("dog\tanimal\tdocsub\t")

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

    def test_metrics_verb_writes_the_metrics_of_run_for_an_empty_file(self, tmp_path):
        outdir = empty_hclust_run(tmp_path)
        out_json, out_text = tmp_path / "verb.json", tmp_path / "verb.txt"
        code = main(
            ["metrics", str(outdir / "relations_hclust.tsv"),
             "--out-json", str(out_json), "--out-text", str(out_text)]
        )
        assert code == 0
        assert out_json.read_bytes() == (outdir / "metrics_hclust.json").read_bytes()
        assert out_text.read_bytes() == (outdir / "metrics_hclust.txt").read_bytes()

    def test_evaluate_verb_writes_the_eval_file_of_run_for_an_empty_file(self, tmp_path):
        outdir = empty_hclust_run(tmp_path)
        out_file = tmp_path / "verb.json"
        code = main(
            ["evaluate", str(outdir / "relations_hclust.tsv"), "--gold",
             str(tmp_path / "gold.tsv"), "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.read_bytes() == (outdir / "eval_hclust.json").read_bytes()

    def test_filter_parent_verb_writes_an_empty_file_for_an_empty_file(self, tmp_path):
        outdir = empty_hclust_run(tmp_path)
        out_file = tmp_path / "verb.tsv"
        code = main(
            [
                "filter-parent", str(outdir / "relations_hclust.tsv"),
                str(tmp_path / "corpus"), "--language", "EN", "--out", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.read_bytes() == b""

    def test_complement_verb_names_an_empty_file_it_cannot_tag(self, tmp_path, capsys):
        outdir = empty_hclust_run(tmp_path)
        tagged = tmp_path / "tf.tsv"
        tagged.write_text("dog\tanimal\ttf\t\n", encoding="utf-8")
        empty = outdir / "relations_hclust.tsv"
        code = main(
            ["complement", str(tagged), str(empty), "--gold", str(tmp_path / "gold.tsv"),
             "--out-dir", str(tmp_path / "comp")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: no method tag to name its row\n"
        assert not (tmp_path / "comp").exists()

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

    @pytest.mark.parametrize(
        "verb, cut, whole",
        [
            ("complement", "complementarity_inverse.csv", ["complementarity_direct.csv"]),
            ("metrics", "metrics.json", []),
            ("contexts", "m.tsv", []),
        ],
    )
    def test_verb_write_cut_short_leaves_no_file_under_the_output_name(
        self, tmp_path, monkeypatch, capsys, verb, cut, whole
    ):
        outdir = run(load_config(write_config(tmp_path, methods="tf, df"))).parent
        files = [str(outdir / f"relations_{method}.tsv") for method in ("tf", "df")]
        target = tmp_path / "verb"
        target.mkdir()
        argv = {
            "complement": [*files, "--gold", str(tmp_path / "gold.tsv"), "--out-dir", str(target)],
            "metrics": [files[0], "--out-json", str(target / cut)],
            "contexts": [
                str(tmp_path / "corpus"), "--language", "EN", "--model", "window",
                "--out", str(target / cut),
            ],
        }[verb]
        cut_writes_short(monkeypatch, cut)
        assert main([verb, *argv]) == 1
        assert "disk full" in capsys.readouterr().err
        # The files written before the failed one are whole; it is absent.
        assert sorted(p.name for p in target.iterdir()) == whole
        for name in whole:
            assert (target / name).read_bytes() == (outdir / name).read_bytes()

    def test_extract_flags_set_their_run_config_fields(self, tmp_path, monkeypatch):
        corpus_dir, gold_path = write_fixture(tmp_path)
        mapping = tmp_path / "pos.map"
        mapping.write_text("NN\tNOUN\n", encoding="utf-8")
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("HYPER such as HYPO+\n", encoding="utf-8")
        configs = []

        def capturing(config, inputs):
            configs.append(config)
            return taxorel.RelationSet("dsim")

        monkeypatch.setitem(cli_module._DERIVED, "dsim", capturing)
        common = [
            "extract", str(corpus_dir), "--gold", str(gold_path), "--method", "dsim",
            "--out", str(tmp_path / "rel.tsv"),
        ]
        flags = [
            "--language", "en", "--n", "7", "--window-size", "3", "--measure", "weedsprec",
            "--lam", "0.25", "--clusters", "3", "--top-contexts", "9",
            "--patterns", str(patterns), "--pos-mapping", str(mapping), "--pseudo-documents",
        ]
        assert main([*common, *flags]) == 0
        assert main([*common, "--language", "PT"]) == 0
        assert configs == [
            RunConfig(
                corpus_path=str(corpus_dir),
                language="EN",
                gold_path=str(gold_path),
                output_dir="",
                vocabulary_size=7,
                window_size=3,
                methods=("dsim",),
                pseudo_documents=True,
                pos_mapping=str(mapping),
                patterns_path=str(patterns),
                dsim_measure="weedsprec",
                slqs_contexts=9,
                docsub_lambdas=(0.25,),
                hclust_clusters=3,
            ),
            # Absent flags leave RunConfig's defaults, but for --lam's 0.5.
            RunConfig(
                str(corpus_dir), "PT", str(gold_path), "", methods=("dsim",),
                docsub_lambdas=(0.5,),
            ),
        ]
        # Every field the flags can set differs from its default.
        default = RunConfig(str(corpus_dir), "EN", str(gold_path), "")
        changed = {k for k, v in configs[0].to_dict().items() if v != default.to_dict()[k]}
        assert changed == {
            field.name for field in fields(RunConfig)
        } - {"corpus_path", "language", "gold_path", "output_dir", "best_parent"}

    @pytest.mark.parametrize(
        "flags, field, value",
        [
            ([], None, None),
            (["--output-dir", "elsewhere"], "output_dir", "elsewhere"),
            # An empty directory is the working directory, as `dir =` is.
            (["--output-dir", ""], "output_dir", ""),
            (["--methods", "df, tf,"], "methods", ("df", "tf")),
            (["--n", "7"], "vocabulary_size", 7),
            (["--best-parent"], "best_parent", True),
            (["--pseudo-documents"], "pseudo_documents", True),
        ],
        ids=["none", "output-dir", "output-dir-empty", "methods", "n", "best-parent",
             "pseudo-documents"],
    )
    def test_run_flag_overrides_exactly_its_field(
        self, tmp_path, monkeypatch, capsys, flags, field, value
    ):
        config_path = write_config(tmp_path)
        configs = []
        monkeypatch.setattr(cli_module, "run", lambda config: configs.append(config))
        assert main(["run", "--config", str(config_path), *flags]) == 0
        [config] = configs
        base = load_config(config_path).to_dict()
        changed = {k: v for k, v in config.to_dict().items() if v != base[k]}
        assert changed == ({} if field is None else {field: value})

    @pytest.mark.parametrize(
        "verb, flag, choices",
        [("extract", "--method", set(METHODS)), ("contexts", "--model", {"window", "document"})],
    )
    def test_verb_choices_are_inputs_of_the_table(self, capsys, verb, flag, choices):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        [listed] = set(re.findall(rf"{flag} \{{([^}}]*)\}}", capsys.readouterr().out))
        assert set(listed.split(",")) == choices
        assert choices <= set(cli_module._DERIVED)

    @pytest.mark.parametrize(
        "verb, spellings",
        [
            ("stats", ["corpus", "--language {EN,PT}", "--pos-mapping POS_MAPPING",
                       "--pseudo-documents"]),
            ("contexts", ["--model {window,document}", "--window-size WINDOW_SIZE",
                          "--out OUT"]),
            ("extract", ["--gold GOLD", "--method {patt,dsim,slqs,tf,df,docsub,hclust}",
                         "--n N", "--window-size WINDOW_SIZE", "--measure {clarkede,weedsprec}",
                         "--lam LAM", "--clusters CLUSTERS", "--top-contexts TOP_CONTEXTS",
                         "--patterns PATTERNS", "--out OUT", "--pseudo-documents"]),
            ("filter-parent", ["relations", "corpus", "--language {EN,PT}", "--out OUT"]),
            ("metrics", ["relations", "--out-json OUT_JSON", "--out-text OUT_TEXT"]),
            ("evaluate", ["relations", "--gold GOLD", "--out OUT"]),
            ("complement", ["relations", "--gold GOLD", "--out-dir OUT_DIR"]),
            ("run", ["--config CONFIG", "--output-dir OUTPUT_DIR", "--methods METHODS",
                     "--n N", "--best-parent", "--pseudo-documents"]),
        ],
    )
    def test_verb_help_keeps_its_flag_spellings(self, capsys, verb, spellings):
        with pytest.raises(SystemExit) as exit_:
            main([verb, "--help"])
        assert exit_.value.code == 0
        usage = " ".join(capsys.readouterr().out.split())
        assert usage.startswith(f"usage: taxorel {verb} [-h]")
        for spelling in spellings:
            assert f" {spelling} " in f"{usage} "


def _file_writes(tree: ast.AST):
    """The calls under ``tree`` that write a file: ``open(file, mode)`` and
    ``path.open(mode)`` with a mode that writes, appends, creates or updates
    (or one that is not a literal), ``.write_text`` and ``.write_bytes``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield node
        elif name == "open":
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(
                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes
            ):
                yield node


def test_only_cli_write_writes_files():
    """Every output goes through ``cli._write``, which stages and renames."""
    writes = []
    for path in sorted(Path(taxorel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:  # a module-level function or class, or a statement
            writes += [(path.name, getattr(top, "name", None), n.lineno) for n in _file_writes(top)]
    assert [(file, name) for file, name, _ in writes] == [("cli.py", "_write")], writes


def test_only_three_functions_open_files():
    """Every ``open`` call is in ``cli._write``, ``corpus._text`` (whole
    files) or ``corpus._records`` (tab-separated rows), and every ``read``,
    ``read_text`` or ``read_bytes`` call is in ``corpus._text``."""
    opens, reads = set(), set()
    for path in sorted(Path(taxorel.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "open":
                    opens.add((path.name, getattr(top, "name", None)))
                elif name in ("read", "read_text", "read_bytes"):
                    reads.add((path.name, getattr(top, "name", None)))
    assert opens <= {("cli.py", "_write"), ("corpus.py", "_text"), ("corpus.py", "_records")}, opens
    assert reads <= {("corpus.py", "_text")}, reads


def test_only_named_private_helpers_cross_modules():
    """A private name imported from another module of the package is one of
    the helpers the modules share on purpose; any other stays in its module."""
    shared = {
        "corpus._codes", "corpus._text", "corpus._records",
        "contexts._gram", "contexts._ranges", "evaluation._evaluate",
    }
    imported = set()
    for path in sorted(Path(taxorel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= {f"{node.module}.{a.name}" for a in node.names if a.name[0] == "_"}
    assert imported <= shared, imported - shared


def test_every_private_module_name_is_used():
    """A module-level private function, class or constant that no other
    statement of the package reads is code nothing runs."""
    defined, reads = {}, []
    for path in sorted(Path(taxorel.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, ast.Assign):
                names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name[0] == "_" and name[:2] != "__":
                    defined[f"{path.stem}.{name}"] = (name, statement)
            loads = [
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(statement)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            ]
            reads.append((statement, set(loads)))
    unused = {
        key
        for key, (name, own) in defined.items()
        if not any(name in names for statement, names in reads if statement is not own)
    }
    assert len(defined) >= 50 and not unused, unused


def test_taxonomy_imports_neither_relations_nor_evaluation():
    """A relation set holds its taxonomy, so relations and evaluation depend
    on taxonomy and never the other way round: no import cycle."""
    path = Path(taxorel.__file__).parent / "taxonomy.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.name for a in node.names}
    modules = {part for name in imported for part in name.split(".")}
    assert not modules & {"relations", "evaluation"}, imported


def test_no_nested_function_refers_to_itself():
    """A nested function that names itself holds its own closure cell, so each
    call of the function around it leaves a cycle for the garbage collector."""
    found = set()
    for path in sorted(Path(taxorel.__file__).parent.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                    found.add(f"{path.stem}.{outer.name}.{inner.name}")
    assert found == set(), found
