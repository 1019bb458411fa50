"""Correctness check of one pipeline run's outputs.

A run passes when
- its manifest lists exactly the outputs the workload's config implies, and
  every listed digest matches the file on disk;
- ``vocabulary.txt``, the ``tf``/``df`` pair sets and the ``docsub`` pair
  set of every swept lambda equal the benchmark's own oracle, computed from
  the generated token stream by the definitions (top-n gold terms by
  distinct window contexts; the more frequent term, or the term in more
  documents, is the hypernym; document subsumption);
- every eval file's counts equal the oracle's count of common, extracted
  and gold relations over the evaluated pair set and ``gold.tsv``;
- its integer outputs equal those of the first passing run of the same
  benchmark invocation, and, for the seed a reference was recorded with,
  that reference.

The integer outputs are the relation pair set per method, the eval
``common_count``/``extracted_count``/``gold_count``, the integer hierarchy
metrics, the corpus statistics and docsub's ``best_lambda``.  Float scores
are left out on purpose: summation-order changes may move their last digits.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from itertools import combinations
from pathlib import Path

from generate import POS_MAPPING, GeneratedInputs, Workload

DOCSUB_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
WINDOW_HALF = 2  # the default window_size of 5


def expected_outputs(workload: Workload) -> set[str]:
    names = {"corpus_stats.txt", "vocabulary.txt"}
    for m in workload.methods:
        names |= {f"relations_{m}.tsv", f"eval_{m}.json", f"metrics_{m}.json", f"metrics_{m}.txt"}
    if "docsub" in workload.methods:
        names.add("docsub_sweep.json")
        names |= {f"eval_docsub_{lam:g}.json" for lam in DOCSUB_LAMBDAS}
    if len(workload.methods) > 1:
        names |= {
            "complementarity_direct.csv",
            "complementarity_inverse.csv",
            "relative_precision.csv",
        }
    return names


def _pairs(path: Path) -> list[tuple[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return sorted(tuple(line.split("\t")[:2]) for line in lines if line)


def _pair_digest(pairs) -> dict:
    text = "".join(f"{a}\t{b}\n" for a, b in pairs)
    return {"count": len(pairs), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _integers(data: dict) -> dict:
    return {k: v for k, v in sorted(data.items()) if isinstance(v, int)}


def summarize(outdir: Path) -> dict:
    """The integer outputs of one run, in a form that compares with ``==``."""
    summary: dict = {"relations": {}, "eval": {}, "metrics": {}}
    for path in sorted(outdir.iterdir()):
        name, stem = path.name, path.stem
        if name.startswith("relations_"):
            summary["relations"][stem[len("relations_"):]] = _pair_digest(_pairs(path))
        elif name.startswith("eval_"):
            summary["eval"][stem[len("eval_"):]] = _integers(json.loads(path.read_text()))
        elif name.startswith("metrics_") and name.endswith(".json"):
            summary["metrics"][stem[len("metrics_"):]] = _integers(json.loads(path.read_text()))
    summary["corpus_stats"] = (outdir / "corpus_stats.txt").read_text().splitlines()
    summary["vocabulary"] = (outdir / "vocabulary.txt").read_text().splitlines()
    sweep = outdir / "docsub_sweep.json"
    if sweep.exists():
        data = json.loads(sweep.read_text())
        summary["docsub_best_lambda"] = data["best_lambda"]
        summary["docsub_sweep_relations"] = [row["relations"] for row in data["sweep"]]
    return summary


def _gold_above(gold_path: Path) -> dict[str, set[str]]:
    """Every gold lemma -> the lemmas of all synsets above any of its synsets."""
    lemmas, parents = {}, {}
    for line in gold_path.read_text(encoding="utf-8").splitlines():
        sid, words, hypernyms = line.split("\t")
        lemmas[sid] = words.split("|")
        parents[sid] = [h for h in hypernyms.split(",") if h]
    above: dict[str, set[str]] = {}

    def synsets_above(sid: str) -> set[str]:
        if sid not in above:
            above[sid] = set()
            for parent in parents[sid]:
                above[sid] |= {parent} | synsets_above(parent)
        return above[sid]

    out: dict[str, set[str]] = defaultdict(set)
    for sid, words in lemmas.items():
        up = {w for a in synsets_above(sid) for w in lemmas[a]}
        for word in words:
            out[word] |= up
    return dict(out)


def eval_counts(pairs, gold_above: dict[str, set[str]]) -> dict[str, int]:
    """Common, extracted and gold relation counts of a (hyponym, hypernym)
    pair set: for each term c shared with the gold, the shared terms above
    and below c under each side's transitive order, compared as pairs."""
    below: dict[str, set[str]] = defaultdict(set)
    for hypo, hyper in pairs:
        below[hyper].add(hypo)
    nodes = {t for pair in pairs for t in pair}
    down = {}
    for top in nodes:
        seen, stack = set(), list(below[top])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(below[node])
        down[top] = seen
    shared = [t for t in nodes if t in gold_above]
    common = extracted = gold = 0
    for c in shared:
        ours = {(a, c) for a in shared if c in down[a]} | {(c, d) for d in shared if d in down[c]}
        theirs = {(a, c) for a in shared if a in gold_above[c]}
        theirs |= {(c, d) for d in shared if c in gold_above[d]}
        common += len(ours & theirs)
        extracted += len(ours)
        gold += len(theirs)
    return {"common_count": common, "extracted_count": extracted, "gold_count": gold}


def docsub_pairs(vocab: list[str], documents: dict[str, set], lam: float) -> list[tuple[str, str]]:
    """y is-a x when P(x|y) = |D_x n D_y| / |D_y| >= lam and P(x|y) > P(y|x)."""
    pairs = []
    for u, v in combinations(sorted(vocab), 2):
        shared = len(documents[u] & documents[v])
        if not shared:
            continue
        p_u_given_v = shared / len(documents[v])
        p_v_given_u = shared / len(documents[u])
        if p_u_given_v >= lam and p_u_given_v > p_v_given_u:
            pairs.append((v, u))
        elif p_v_given_u >= lam and p_v_given_u > p_u_given_v:
            pairs.append((u, v))
    return sorted(pairs)


def oracle(inputs: GeneratedInputs, workload: Workload) -> dict:
    """Vocabulary and tf/df/docsub pair sets computed from the generated
    tokens, and the gold's lemmas above each lemma."""
    contexts: dict[str, set] = defaultdict(set)
    frequency: dict[str, int] = defaultdict(int)
    documents: dict[str, set] = defaultdict(set)
    for d, doc in enumerate(inputs.documents):
        for sentence in doc:
            for i, (_, lemma, tag) in enumerate(sentence):
                if POS_MAPPING[tag] != "NOUN":
                    continue
                frequency[lemma] += 1
                documents[lemma].add(d)
                lo, hi = max(0, i - WINDOW_HALF), min(len(sentence), i + WINDOW_HALF + 1)
                for j in range(lo, hi):
                    coarse = POS_MAPPING[sentence[j][2]]
                    if j != i and coarse != "OTHER":
                        contexts[lemma].add((sentence[j][1], coarse, j < i))
    candidates = sorted(t for t in contexts if t in inputs.gold_lemmas)
    candidates.sort(key=lambda t: -len(contexts[t]))
    vocab = candidates[: workload.vocabulary_size]

    def ranked(rank) -> list[tuple[str, str]]:
        pairs = []
        for u, v in combinations(vocab, 2):
            if rank(u) != rank(v):
                pairs.append((u, v) if rank(u) < rank(v) else (v, u))
        return sorted(pairs)

    return {
        "vocabulary": vocab,
        "tf": ranked(lambda t: frequency[t]),
        "df": ranked(lambda t: len(documents[t])),
        "docsub": {lam: docsub_pairs(vocab, documents, lam) for lam in DOCSUB_LAMBDAS},
        "gold_above": _gold_above(inputs.root / "gold.tsv"),
        "eval_counts": {},  # filled by check_run, one entry per pair set
    }


def check_run(
    manifest_path: Path,
    workload: Workload,
    expected: dict,
    first: dict | None,
    reference: dict | None,
) -> tuple[list[str], dict | None]:
    """Problems with one run's outputs, and the run's summary."""
    outdir = manifest_path.parent
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    listed = set(manifest["outputs"])
    want = expected_outputs(workload)
    problems = [f"manifest lacks {name}" for name in sorted(want - listed)]
    problems += [f"manifest lists unexpected {name}" for name in sorted(listed - want)]
    for name, digest in sorted(manifest["outputs"].items()):
        path = outdir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name} does not match its manifest digest")
    if problems:
        return problems, None

    summary = summarize(outdir)
    if summary["vocabulary"] != expected["vocabulary"]:
        problems.append("vocabulary.txt differs from the oracle's vocabulary")
    for method in ("tf", "df"):
        if method in workload.methods:
            got = _pairs(outdir / f"relations_{method}.tsv")
            if got != expected[method]:
                problems.append(f"relations_{method}.tsv differs from the oracle's pairs")
    evaluated = {m: _pairs(outdir / f"relations_{m}.tsv") for m in workload.methods}
    if "docsub" in workload.methods:
        best = summary["docsub_best_lambda"]
        if evaluated["docsub"] != expected["docsub"][best]:
            problems.append("relations_docsub.tsv differs from the oracle's pairs at best_lambda")
        for lam in DOCSUB_LAMBDAS:
            evaluated[f"docsub_{lam:g}"] = expected["docsub"][lam]
    known = expected["eval_counts"]
    for name, pairs in evaluated.items():
        got = {k: summary["eval"][name][k] for k in ("common_count", "extracted_count", "gold_count")}
        key = tuple(pairs)
        if key not in known:
            known[key] = eval_counts(pairs, expected["gold_above"])
        if got != known[key]:
            problems.append(f"eval_{name}.json counts differ from the oracle's")
    for baseline, label in ((first, "the run's first sample"), (reference, "the recorded reference")):
        if baseline is not None and summary != baseline:
            differing = _differences(summary, baseline)
            problems.append(f"{', '.join(differing)} differ from {label}")
    return problems, summary


def _differences(summary: dict, baseline: dict) -> list[str]:
    out = []
    for key in sorted(summary.keys() | baseline.keys()):
        got, want = summary.get(key), baseline.get(key)
        if isinstance(got, dict) and isinstance(want, dict):
            out += [f"{key}[{k}]" for k in sorted(got.keys() | want.keys()) if got.get(k) != want.get(k)]
        elif got != want:
            out.append(key)
    return out
