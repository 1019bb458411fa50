"""Seeded input generator and workload table for the taxorel benchmark.

Everything the pipeline reads is made here from the workload seed: a
vertical-format corpus directory, a synset-lines gold file, a fine-to-coarse
POS mapping and an INI run config.  The same seed and shape give
byte-identical files; nothing iterates a set or a hash-ordered container.

The corpus has the structure the extractors look for:

- a gold synset tree, where some synsets carry a synonym and some lemmas
  belong to two synsets;
- documents about one topic synset that also name its ancestors, so a
  hypernym's documents (nearly) subsume its hyponyms' documents, which is
  the signal of ``docsub``, ``tf`` and ``df``;
- Zipfian filler nouns (gold and non-gold), verbs and adjectives, with
  adjectives biased towards the topic's ancestors, and function words;
- planted Hearst sentences ("X such as Y , Z and W") so that ``patt`` has
  work.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

ALL_METHODS = ("patt", "dsim", "slqs", "tf", "df", "docsub", "hclust")

# Fine tags written to the corpus and their coarse tags in the mapping file.
POS_MAPPING = {
    "NN": "NOUN",
    "NNS": "NOUN",
    "VB": "VERB",
    "VBD": "VERB",
    "JJ": "ADJ",
    "DT": "OTHER",
    "IN": "OTHER",
    "CC": "OTHER",
    "PUNCT": "OTHER",
}

_SYLLABLES = tuple(
    c + v for c in "bdfgklmnprstvz" for v in ("a", "e", "i", "o", "u", "ai", "ou")
)
_PREPOSITIONS = ("of", "in", "with", "for", "on", "from")
_ARTICLES = ("the", "a")

GOLD_SYNSETS = 260
DISTRACTOR_NOUNS = 120
VERBS = 120
ADJECTIVES = 160
HEARST_SHARE = 0.35  # documents with one planted is-a sentence


@dataclass(frozen=True)
class Shape:
    """Size of one generated corpus."""

    documents: int
    sentences_per_document: tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    vocabulary_size: int
    methods: tuple[str, ...] = ALL_METHODS
    hclust_clusters: int = 10


PAPER_SHAPE = Shape(documents=300, sentences_per_document=(7, 15))
INGEST_SHAPE = Shape(documents=600, sentences_per_document=(14, 26))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-full", PAPER_SHAPE, vocabulary_size=45),
        Workload("ingest-heavy", INGEST_SHAPE, vocabulary_size=20, hclust_clusters=5),
    )
}


@dataclass
class GeneratedInputs:
    """What was written, plus the token stream for the benchmark's own oracle."""

    root: Path
    # documents[i] is a list of sentences; a sentence is a list of
    # (surface, lemma, fine_tag) triples, exactly as written to disk.
    documents: list[list[list[tuple[str, str, str]]]] = field(default_factory=list)
    gold_lemmas: frozenset[str] = frozenset()


class _Zipf:
    """Draw items with probability proportional to 1 / rank**s."""

    def __init__(self, items, s: float = 1.0) -> None:
        self.items = list(items)
        weights = [1.0 / (rank + 1) ** s for rank in range(len(self.items))]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random):
        x = rng.random() * self.cumulative[-1]
        return self.items[bisect.bisect_right(self.cumulative, x)]


def _words(rng: random.Random, count: int, syllables: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _gold_tree(rng: random.Random, taken: set[str]):
    """Random recursive tree of synsets with synonyms and shared lemmas.

    Returns (parent of each synset, lemmas of each synset, head lemma of
    each synset); synset 0 is the root.
    """
    n = GOLD_SYNSETS
    heads = _words(rng, n, 3, taken)
    parents = [-1] + [rng.randrange(0, i) for i in range(1, n)]
    lemmas = [[h] for h in heads]
    synonyms = _words(rng, n // 10, 3, taken)
    for word, sid in zip(synonyms, rng.sample(range(1, n), len(synonyms))):
        lemmas[sid].append(word)
    # A head lemma that is also listed in a second, unrelated synset.
    for sid in rng.sample(range(1, n), n // 12):
        other = rng.randrange(1, n)
        if other != sid and heads[other] not in lemmas[sid]:
            lemmas[sid].append(heads[other])
    return parents, lemmas, heads


def _np(rng, noun, adjectives: _Zipf, topic_adjs: list[str], article=True):
    """Tokens of a noun phrase: article? adjective? noun."""
    tokens = []
    if article:
        art = rng.choice(_ARTICLES)
        tokens.append((art, art, "DT"))
    if rng.random() < 0.45:
        adj = rng.choice(topic_adjs) if topic_adjs and rng.random() < 0.6 else adjectives.draw(rng)
        tokens.append((adj, adj, "JJ"))
    plural = rng.random() < 0.3
    tokens.append((noun + "s" if plural else noun, noun, "NNS" if plural else "NN"))
    return tokens


def _hearst(rng, hyper: str, hypos: list[str], adjectives: _Zipf):
    """One planted is-a sentence over the English templates."""

    def listing(nouns):
        out = []
        for i, noun in enumerate(nouns):
            if i:
                if i == len(nouns) - 1:
                    out.append(("and", "and", "CC"))
                else:
                    out.append((",", ",", "PUNCT"))
            out.extend(_np(rng, noun, adjectives, [], article=False))
        return out

    kind = rng.randrange(4)
    head = _np(rng, hyper, adjectives, [])
    if kind == 0:
        body = head + [(",", ",", "PUNCT"), ("such", "such", "DT"), ("as", "as", "IN")] + listing(hypos)
    elif kind == 1:
        body = [("such", "such", "DT")] + _np(rng, hyper, adjectives, [], article=False)
        body += [("as", "as", "IN")] + listing(hypos)
    elif kind == 2:
        body = listing(hypos) + [("and", "and", "CC"), ("other", "other", "DT")]
        body += _np(rng, hyper, adjectives, [], article=False)
    else:
        body = head + [("including", "including", "IN")] + listing(hypos)
    verb = rng.choice(("appear", "exist", "matter"))
    return body + [(verb, verb, "VB"), (".", ".", "PUNCT")]


def generate(workload: Workload, seed: int, root: str | Path) -> GeneratedInputs:
    """Write the workload's inputs for ``seed`` under ``root``.

    Layout: ``corpus/`` (one vertical file per document), ``gold.tsv``,
    ``pos_mapping.tsv`` and ``run.ini`` whose paths are relative to
    ``root``, so a run must use ``root`` as its working directory.
    """
    shape = workload.shape
    rng = random.Random(f"taxorel-bench:{seed}")
    root = Path(root)
    corpus_dir = root / "corpus"
    corpus_dir.mkdir(parents=True)

    taken = set(_ARTICLES) | set(_PREPOSITIONS) | {"and", "or", "such", "as", "other"}
    parents, synset_lemmas, heads = _gold_tree(rng, taken)
    distractors = _words(rng, DISTRACTOR_NOUNS, 3, taken)
    verbs = _Zipf(_words(rng, VERBS, 2, taken))
    adjective_words = _words(rng, ADJECTIVES, 2, taken)
    adjectives = _Zipf(adjective_words)
    # Each synset owns two adjectives; a topic uses those of its ancestors.
    own_adjs = [rng.sample(adjective_words, 2) for _ in heads]

    children: list[list[int]] = [[] for _ in heads]
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(sid)
    inner = [sid for sid, kids in enumerate(children) if len(kids) >= 2]

    noun_pool = heads + distractors
    rng.shuffle(noun_pool)
    filler = _Zipf(noun_pool, s=0.9)
    topic_order = list(range(1, len(heads)))
    rng.shuffle(topic_order)
    topics = _Zipf(topic_order, s=0.7)

    out = GeneratedInputs(root=root)
    for d in range(shape.documents):
        topic = topics.draw(rng)
        chain = []
        sid = topic
        while sid >= 0:
            chain.append(sid)
            sid = parents[sid]
        # Ancestors are named in the document, except for rare omissions,
        # so document sets nest almost but not exactly.
        mentioned = [heads[s] for i, s in enumerate(chain) if i == 0 or rng.random() < 0.9]
        topic_adjs = [a for s in chain for a in own_adjs[s]]
        sentences = []
        for i in range(rng.randint(*shape.sentences_per_document)):
            subject = mentioned[i] if i < len(mentioned) else filler.draw(rng)
            obj = rng.choice(mentioned) if rng.random() < 0.4 else filler.draw(rng)
            verb = verbs.draw(rng)
            sent = _np(rng, subject, adjectives, topic_adjs)
            sent.append((verb, verb, "VBD" if rng.random() < 0.5 else "VB"))
            sent += _np(rng, obj, adjectives, topic_adjs)
            prep = rng.choice(_PREPOSITIONS)
            sent.append((prep, prep, "IN"))
            sent += _np(rng, filler.draw(rng), adjectives, topic_adjs)
            if rng.random() < 0.4:
                verb = verbs.draw(rng)
                sent += [("and", "and", "CC"), (verb, verb, "VBD")]
                sent += _np(rng, filler.draw(rng), adjectives, topic_adjs)
            sent.append((".", ".", "PUNCT"))
            sentences.append(sent)
        if rng.random() < HEARST_SHARE:
            hyper = rng.choice(inner)
            hypos = rng.sample(children[hyper], min(len(children[hyper]), rng.randint(2, 3)))
            sentences.insert(
                rng.randrange(len(sentences) + 1),
                _hearst(rng, heads[hyper], [heads[h] for h in hypos], adjectives),
            )
        out.documents.append(sentences)
        text = "\n\n".join("\n".join("\t".join(tok) for tok in s) for s in sentences)
        (corpus_dir / f"doc{d:05d}.vert").write_text(text + "\n", encoding="utf-8")

    gold_lines = []
    for sid, lemmas in enumerate(synset_lemmas):
        hyper = "" if parents[sid] < 0 else str(parents[sid])
        gold_lines.append(f"{sid}\t{'|'.join(lemmas)}\t{hyper}\n")
    (root / "gold.tsv").write_text("".join(gold_lines), encoding="utf-8")
    out.gold_lemmas = frozenset(l for lemmas in synset_lemmas for l in lemmas)

    mapping = "".join(f"{fine}\t{coarse}\n" for fine, coarse in POS_MAPPING.items())
    (root / "pos_mapping.tsv").write_text(mapping, encoding="utf-8")
    (root / "run.ini").write_text(
        "[corpus]\n"
        "path = corpus\n"
        "language = EN\n"
        "pos_mapping = pos_mapping.tsv\n"
        "pseudo_documents = false\n"
        "\n[gold]\npath = gold.tsv\n"
        "\n[output]\ndir = out\n"
        f"\n[vocabulary]\nn = {workload.vocabulary_size}\n"
        f"\n[methods]\nmethods = {','.join(workload.methods)}\n"
        "\n[filter]\nbest_parent = false\n"
        f"\n[hclust]\nclusters = {workload.hclust_clusters}\n",
        encoding="utf-8",
    )
    return out
