"""Command-line pipeline: ingest -> contexts -> extract -> filter ->
metrics -> evaluate -> complementarity.

A run is driven by a declarative INI config (sections and key/value pairs);
command-line flags may override config keys.  Runs are deterministic: the
pipeline contains no randomness, every file is written in sorted order, and
a manifest records the config digest and the digest of the bytes written to
each output file, so identical inputs produce byte-identical outputs.  Every
verb writes a file under a ``.tmp`` name and renames it, so it is whole or
absent.  The flags of ``run`` and of every verb that reads a corpus are
named as the RunConfig fields they set, and those verbs read their corpus,
matrices and relations from the one table that ``run`` derives its own from.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .contexts import (
    extract_document_contexts,
    extract_window_contexts,
    matrix_text,
    select_vocabulary,
)
from .corpus import (
    LANGUAGES,
    Corpus,
    CorpusStats,
    _text,
    corpus_stats,
    load_corpus,
    load_pos_mapping,
    sentence_documents,
)
from .evaluation import ComplementarityMatrix, EvalReport, _evaluate, complementarity_matrix
from .extractors import (
    MEASURES,
    docsub_sweep,
    extract_df,
    extract_dsim,
    extract_hclust,
    extract_slqs,
    extract_tf,
)
from .gold import load_gold
from .patterns import default_patterns, extract_patterns, load_patterns
from .relations import RelationSet, load_relations, relations_text
from .taxonomy import (
    Taxonomy,
    best_parent_filter,
    break_cycles,
    build_taxonomy,
    compute_metrics,
    transitive_reduction,
)
from .weighting import DEFAULT_TOP_CONTEXTS, context_entropies, weight_lmi, weight_ppmi

METHODS = ("patt", "dsim", "slqs", "tf", "df", "docsub", "hclust")
DEFAULT_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class StageError(RuntimeError):
    """A pipeline stage failed; partial outputs have been removed."""

    def __init__(self, stage: str, cause: str) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    corpus_path: str
    language: str
    gold_path: str
    output_dir: str
    vocabulary_size: int = 1000
    window_size: int = 5
    methods: tuple[str, ...] = METHODS
    pseudo_documents: bool = False
    best_parent: bool = False
    pos_mapping: str | None = None
    patterns_path: str | None = None
    dsim_measure: str = "clarkede"
    slqs_contexts: int = DEFAULT_TOP_CONTEXTS
    docsub_lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    hclust_clusters: int = 100

    def to_dict(self) -> dict:
        return asdict(self)


def _split_list(text: str) -> tuple[str, ...]:
    """The comma-separated items of ``text``, blank items dropped."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an INI file, applying any overrides on top."""
    parser = configparser.ConfigParser(
        interpolation=None,
        converters={
            "list": _split_list,
            "floats": lambda text: tuple(map(float, _split_list(text))),
        },
    )
    try:
        parser.read_string(_text(path), source=path)
    except OSError:
        raise ValueError(f"cannot read config file {path}") from None
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from None

    read = set()  # the (section, key) pairs that some field reads

    def get(getter, section, key, fallback):
        read.add((section, key))
        try:
            return getter(section, key, fallback=fallback)
        except ValueError as exc:
            raise ValueError(f"{path}: [{section}] {key}: {exc}") from None

    config = RunConfig(
        corpus_path=get(parser.get, "corpus", "path", ""),
        language=get(parser.get, "corpus", "language", "EN").upper(),
        gold_path=get(parser.get, "gold", "path", ""),
        output_dir=get(parser.get, "output", "dir", "out"),
        vocabulary_size=get(parser.getint, "vocabulary", "n", RunConfig.vocabulary_size),
        window_size=get(parser.getint, "contexts", "window_size", RunConfig.window_size),
        methods=get(parser.getlist, "methods", "methods", RunConfig.methods),
        pseudo_documents=get(
            parser.getboolean, "corpus", "pseudo_documents", RunConfig.pseudo_documents
        ),
        best_parent=get(parser.getboolean, "filter", "best_parent", RunConfig.best_parent),
        pos_mapping=get(parser.get, "corpus", "pos_mapping", None) or None,
        patterns_path=get(parser.get, "patt", "patterns", None) or None,
        dsim_measure=get(parser.get, "dsim", "measure", RunConfig.dsim_measure).lower(),
        slqs_contexts=get(parser.getint, "slqs", "top_contexts", RunConfig.slqs_contexts),
        docsub_lambdas=get(parser.getfloats, "docsub", "lambdas", RunConfig.docsub_lambdas),
        hclust_clusters=get(parser.getint, "hclust", "clusters", RunConfig.hclust_clusters),
    )
    for section in parser:
        for key in parser[section]:
            if (section, key) not in read:
                raise ValueError(f"{path}: [{section}] {key}: unknown key")
    if overrides:
        config = replace(config, **overrides)
    return config


def validate(config: RunConfig) -> list[str]:
    """Return every problem that would prevent a run; empty means runnable."""
    problems = []
    if not config.corpus_path or not Path(config.corpus_path).exists():
        problems.append(f"corpus path does not exist: {config.corpus_path!r}")
    if not config.gold_path or not Path(config.gold_path).exists():
        problems.append(f"gold path does not exist: {config.gold_path!r}")
    if config.language not in LANGUAGES:
        problems.append(f"language must be {' or '.join(LANGUAGES)}, got {config.language!r}")
    if config.pos_mapping and not Path(config.pos_mapping).exists():
        problems.append(f"pos mapping does not exist: {config.pos_mapping!r}")
    if config.patterns_path and not Path(config.patterns_path).exists():
        problems.append(f"patterns file does not exist: {config.patterns_path!r}")
    if config.vocabulary_size < 1:
        problems.append("vocabulary size n must be >= 1")
    if config.window_size < 3 or config.window_size % 2 == 0:
        problems.append("window_size must be an odd integer >= 3")
    if not config.methods:
        problems.append("no methods configured")
    for i, m in enumerate(config.methods):
        if m not in METHODS:
            problems.append(f"unknown method {m!r}")
        elif m in config.methods[:i]:
            problems.append(f"duplicate method {m!r}")
    if config.dsim_measure not in MEASURES:
        problems.append(f"dsim measure must be one of {MEASURES}")
    if config.slqs_contexts < 1:
        problems.append("slqs top_contexts must be >= 1")
    if "docsub" in config.methods and not config.docsub_lambdas:
        problems.append("docsub requires at least one lambda")
    for i, lam in enumerate(config.docsub_lambdas):
        if not 0 < lam <= 1:
            problems.append(f"docsub lambda {lam} outside (0, 1]")
        clash = next((x for x in config.docsub_lambdas[:i] if f"{x:g}" == f"{lam:g}"), None)
        if clash is not None:
            problems.append(f"docsub lambdas {clash} and {lam} share eval_docsub_{lam:g}.json")
    if config.hclust_clusters < 1:
        problems.append("hclust clusters must be >= 1")
    return problems


def _load_run_corpus(config: RunConfig) -> Corpus:
    """The corpus named by ``config``."""
    mapping = load_pos_mapping(config.pos_mapping) if config.pos_mapping else None
    corpus = load_corpus(config.corpus_path, config.language, mapping)
    return sentence_documents(corpus) if config.pseudo_documents else corpus


def _docsub_sweep(config: RunConfig, inputs: _Inputs):
    """The best-F relation set of one docsub sweep (the smaller lambda on a
    tie), the sweep summary and each lambda's report."""
    relsets = docsub_sweep(inputs["document"], inputs["vocab"], config.docsub_lambdas)
    reports = [_evaluate(build_taxonomy(relset), inputs["gold"]) for relset in relsets]
    summary = [
        {
            "lambda": lam,
            "relations": len(relset),
            "precision": report.precision,
            "recall": report.recall,
            "fmeasure": report.fmeasure,
        }
        for lam, relset, report in zip(config.docsub_lambdas, relsets, reports)
    ]
    best, relset = max(zip(summary, relsets), key=lambda b: (b[0]["fmeasure"], -b[0]["lambda"]))
    return relset, {"best_lambda": best["lambda"], "sweep": summary}, reports


# How every input of a run, each method's relation set included, derives
# from the config and the other inputs (see _Inputs).  The entries call the
# library through its module-global names, so that rebinding a name, as a
# tracer does, reaches every call.
_DERIVED = {
    "corpus": lambda c, i: _load_run_corpus(c),
    "gold": lambda c, i: load_gold(c.gold_path),
    "window": lambda c, i: extract_window_contexts(i["corpus"], c.window_size),
    "document": lambda c, i: extract_document_contexts(i["corpus"]),
    "vocab": lambda c, i: select_vocabulary(i["window"], i["gold"], c.vocabulary_size),
    "ppmi": lambda c, i: weight_ppmi(i["window"]),
    "lmi": lambda c, i: weight_lmi(i["window"]),
    "entropies": lambda c, i: context_entropies(i["window"]),
    "patterns": lambda c, i: (
        load_patterns(c.patterns_path, c.language)
        if c.patterns_path
        else default_patterns(c.language)
    ),
    "patt": lambda c, i: extract_patterns(i["corpus"], i["patterns"], i["vocab"]),
    "dsim": lambda c, i: extract_dsim(i["ppmi"], i["vocab"], c.dsim_measure),
    "slqs": lambda c, i: extract_slqs(i["lmi"], i["entropies"], i["vocab"], c.slqs_contexts),
    "tf": lambda c, i: extract_tf(i["document"], i["vocab"]),
    "df": lambda c, i: extract_df(i["document"], i["vocab"]),
    "sweep": _docsub_sweep,
    "docsub": lambda c, i: i["sweep"][0],
    "hclust": lambda c, i: extract_hclust(
        i["ppmi"], i["document"], i["vocab"], min(c.hclust_clusters, len(i["vocab"]))
    ),
}


class _Inputs(dict):
    """The inputs and relation sets of one config, each derived on first use
    and then kept."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config

    def __missing__(self, name: str):
        self[name] = value = _DERIVED[name](self.config, self)
        return value


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _stats_text(stats: CorpusStats) -> str:
    return (
        f"documents\t{stats.num_documents}\n"
        f"sentences\t{stats.num_sentences}\n"
        f"content_words\t{stats.num_content_words}\n"
        f"vocabulary\t{stats.vocabulary_size}\n"
    )


def _reduced_metrics(tax: Taxonomy) -> dict:
    """Hierarchy metrics of the cycle-free transitive reduction of ``tax``."""
    if not tax.terms:
        return {"empty_relation_set": True}
    return compute_metrics(transitive_reduction(break_cycles(tax))).to_dict()


def _metrics_text(metrics_dict: dict) -> str:
    return "".join(f"{k}\t{v}\n" for k, v in sorted(metrics_dict.items()))


def _matrix_files(matrix: ComplementarityMatrix) -> list[tuple[str, str]]:
    """File name and CSV text of each of the three method-by-method matrices."""
    files = []
    for name, cells in (
        ("complementarity_direct.csv", matrix.direct),
        ("complementarity_inverse.csv", matrix.inverse),
        ("relative_precision.csv", matrix.relative),
    ):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", *matrix.methods])
        for ma in matrix.methods:
            values = (cells[(ma, mb)] for mb in matrix.methods)
            writer.writerow([ma, *("" if v is None else f"{v:.4f}" for v in values)])
        files.append((name, buf.getvalue()))
    return files


def _eval_json(report: EvalReport, tax: Taxonomy) -> str:
    """The ``eval_<method>.json`` text of the evaluation of ``tax``."""
    return _json_text({**report.to_dict(), "empty_relation_set": not tax.terms})


def _write(path: str | Path, text: str) -> str:
    """Write ``text`` to ``path`` under the sibling name ``<path>.tmp``, then
    rename it over ``path``; return the sha256 of the bytes written."""
    data = text.encode("utf-8")
    staged = Path(f"{path}.tmp")
    try:
        staged.write_bytes(data)
        staged.replace(path)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise
    return hashlib.sha256(data).hexdigest()


def _remove_previous_outputs(outdir: Path) -> None:
    """Delete an earlier run's manifest, then the outputs it lists, so that
    none of them outlives this run.  Other files in ``outdir`` stay."""
    manifest_path = outdir / "manifest.json"
    if not manifest_path.exists():
        return
    outputs = json.loads(_text(manifest_path))["outputs"]
    manifest_path.unlink()
    for name in outputs:
        if Path(name).name == name:
            (outdir / name).unlink(missing_ok=True)


def run(config: RunConfig) -> Path:
    """Execute the full pipeline; return the manifest path.

    The outputs of the run recorded in ``output_dir``'s manifest are removed
    first, and the manifest is written last.  Each file is written under a
    sibling ``.tmp`` name and then renamed, so that it is either whole or
    absent.  Any stage failure removes the files already written and raises
    StageError naming the stage; an interrupt (KeyboardInterrupt, SystemExit)
    removes them too and propagates unchanged.
    """
    problems = validate(config)
    if problems:
        raise StageError("validate", "; ".join(problems))
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}  # file name -> sha256 of its bytes

    def emit(name: str, text: str) -> None:
        outputs[name] = _write(outdir / name, text)

    stage = "clean"
    try:
        _remove_previous_outputs(outdir)

        stage = "ingest"
        inputs = _Inputs(config)
        emit("corpus_stats.txt", _stats_text(corpus_stats(inputs["corpus"])))

        stage = "gold"
        gold = inputs["gold"]

        stage = "vocabulary"
        emit("vocabulary.txt", "".join(f"{t}\n" for t in inputs["vocab"].terms))

        for method in config.methods:
            stage = f"extract:{method}"
            relset = inputs[method]
            if method == "docsub":
                _, summary, reports = inputs["sweep"]
                for lam, report in zip(config.docsub_lambdas, reports):
                    emit(f"eval_docsub_{lam:g}.json", _json_text(report.to_dict()))
                emit("docsub_sweep.json", _json_text(summary))
            stage = f"relations:{method}"
            emit(f"relations_{method}.tsv", relations_text(relset))

            stage = f"taxonomy:{method}"
            tax = build_taxonomy(relset)
            if config.best_parent and tax.terms:
                tax = best_parent_filter(tax, inputs["document"])
                emit(
                    f"filtered_{method}.tsv",
                    relations_text(RelationSet.from_mask(method, tax.terms, tax.adj)),
                )

            stage = f"evaluate:{method}"
            emit(f"eval_{method}.json", _eval_json(_evaluate(tax, gold), tax))

            stage = f"metrics:{method}"
            metrics = _reduced_metrics(tax)
            emit(f"metrics_{method}.json", _json_text(metrics))
            emit(f"metrics_{method}.txt", _metrics_text(metrics))

        stage = "complementarity"
        if len(config.methods) > 1:
            matrix = complementarity_matrix([inputs[m] for m in config.methods], gold)
            for name, text in _matrix_files(matrix):
                emit(name, text)

        stage = "manifest"
        config_dict = config.to_dict()
        digest = hashlib.sha256(
            json.dumps(config_dict, sort_keys=True).encode("utf-8")
        ).hexdigest()
        manifest = {"config": config_dict, "config_digest": digest, "outputs": outputs}
        emit("manifest.json", _json_text(manifest))
        return outdir / "manifest.json"
    except BaseException as exc:
        for name in outputs:
            (outdir / name).unlink(missing_ok=True)
        if not isinstance(exc, Exception):
            raise
        raise StageError(stage, str(exc)) from exc


# ---------------------------------------------------------------------------
# command-line interface


def _add_corpus_args(parser) -> None:
    parser.add_argument(
        "corpus_path", metavar="corpus", help="corpus file or directory (vertical format)"
    )
    parser.add_argument("--language", required=True, type=str.upper, choices=LANGUAGES)
    parser.add_argument("--pos-mapping", help="finePOS<TAB>coarsePOS mapping file")
    parser.add_argument(
        "--pseudo-documents",
        action="store_true",
        help="treat every sentence as its own document",
    )


def _one_lambda(text: str) -> tuple[float]:
    return (float(text),)


def _config_fields(args) -> dict:
    """The parsed arguments that set RunConfig fields, by field name."""
    names = {field.name for field in fields(RunConfig)}
    return {name: value for name, value in vars(args).items() if name in names}


def _verb_inputs(args, **config) -> _Inputs:
    """The inputs of the RunConfig that a verb's flags and ``config`` set; a
    required field that neither sets is ``""``."""
    config = {"gold_path": "", "output_dir": "", **_config_fields(args), **config}
    return _Inputs(RunConfig(**config))


def _cmd_stats(args) -> int:
    sys.stdout.write(_stats_text(corpus_stats(_verb_inputs(args)["corpus"])))
    return 0


def _cmd_contexts(args) -> int:
    matrix = _verb_inputs(args)[args.model]
    _write(args.out, matrix_text(matrix))
    print(f"wrote {args.out} ({len(matrix)} terms)")
    return 0


def _cmd_extract(args) -> int:
    relset = _verb_inputs(args, methods=(args.method,))[args.method]
    _write(args.out, relations_text(relset))
    print(f"wrote {args.out} ({len(relset)} relations)")
    return 0


def _cmd_filter_parent(args) -> int:
    document = _verb_inputs(args)["document"]
    relset = load_relations(args.relations)
    tax = best_parent_filter(build_taxonomy(relset), document)
    _write(args.out, relations_text(RelationSet.from_mask(relset.method, tax.terms, tax.adj)))
    print(f"wrote {args.out} ({tax.num_edges} relations kept)")
    return 0


def _cmd_metrics(args) -> int:
    metrics = _reduced_metrics(build_taxonomy(load_relations(args.relations)))
    if args.out_json:
        _write(args.out_json, _json_text(metrics))
    if args.out_text:
        _write(args.out_text, _metrics_text(metrics))
    if not args.out_json and not args.out_text:
        sys.stdout.write(_metrics_text(metrics))
    return 0


def _cmd_evaluate(args) -> int:
    tax = build_taxonomy(load_relations(args.relations))
    report = _evaluate(tax, load_gold(args.gold))
    if args.out:
        _write(args.out, _eval_json(report, tax))
    print(
        f"precision={report.precision:.4f} recall={report.recall:.4f} "
        f"fmeasure={report.fmeasure:.4f}"
    )
    return 0


def _cmd_complement(args) -> int:
    relsets = [load_relations(path) for path in args.relations]
    if untagged := [path for path, rs in zip(args.relations, relsets) if not rs.method]:
        raise ValueError(f"{untagged[0]}: no method tag to name its row")
    matrix = complementarity_matrix(relsets, load_gold(args.gold))
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in _matrix_files(matrix):
        _write(outdir / name, text)
    print(f"wrote 3 matrices under {outdir}")
    return 0


def _cmd_run(args) -> int:
    manifest = run(load_config(args.config, _config_fields(args)))
    print(f"wrote {manifest}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="taxorel",
        description="Extract and evaluate taxonomic (is-a) relations from "
        "POS-tagged corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics")
    _add_corpus_args(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("contexts", help="export a co-occurrence matrix")
    _add_corpus_args(p)
    p.add_argument("--model", required=True, choices=("window", "document"))
    p.add_argument("--window-size", type=int, default=RunConfig.window_size)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_contexts)

    # In extract and run, an absent flag sets no RunConfig field.
    unset = argparse.SUPPRESS
    p = sub.add_parser("extract", help="run one extraction method", argument_default=unset)
    _add_corpus_args(p)
    p.add_argument("--gold", dest="gold_path", metavar="GOLD", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--n", dest="vocabulary_size", metavar="N", type=int, help="vocabulary size")
    p.add_argument("--window-size", type=int)
    p.add_argument("--measure", dest="dsim_measure", choices=MEASURES)
    p.add_argument(
        "--lam", dest="docsub_lambdas", metavar="LAM", type=_one_lambda, default=(0.5,),
        help="docsub threshold",
    )
    p.add_argument("--clusters", dest="hclust_clusters", metavar="CLUSTERS", type=int)
    p.add_argument("--top-contexts", dest="slqs_contexts", metavar="TOP_CONTEXTS", type=int)
    p.add_argument(
        "--patterns", dest="patterns_path", metavar="PATTERNS", help="pattern template file"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("filter-parent", help="keep the best parent per term")
    p.add_argument("relations", help="relations TSV to filter")
    _add_corpus_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter_parent)

    p = sub.add_parser("metrics", help="hierarchy metrics of a relation file")
    p.add_argument("relations")
    p.add_argument("--out-json")
    p.add_argument("--out-text")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("evaluate", help="score relations against a gold standard")
    p.add_argument("relations")
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("complement", help="cross-method overlap matrices")
    p.add_argument("relations", nargs="+")
    p.add_argument("--gold", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("run", help="full pipeline from a config file", argument_default=unset)
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.add_argument("--methods", type=_split_list)
    p.add_argument("--n", dest="vocabulary_size", metavar="N", type=int)
    p.add_argument("--best-parent", action="store_true")
    p.add_argument("--pseudo-documents", action="store_true")
    p.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error in {exc.stage}: {exc.cause}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
