"""Lexico-syntactic pattern matching for is-a relation extraction.

Templates are token sequences over POS-tagged sentences with two slots:
``HYPER`` matches one noun phrase (the hypernym) and ``HYPO+`` a list of
noun phrases separated by commas and/or conjunctions (the hyponyms).
Literal tokens match the token surface case-insensitively; a trailing
``?`` marks an optional literal.  A noun phrase is an optional article and
a noun run with adjectives on the language's modifier side (before the
noun in English, after it in Portuguese); its term is the head-noun lemma.

A template is tried from every start position in one forward pass over
its elements.  Of several parses the first in backtracking order wins: a
literal is taken before it is skipped, the longest hyponym list first.

A two-part prefilter spares the matcher sentences that cannot yield a
pair without changing the pairs found.  The literal part tries a sentence
only against the templates whose non-optional literals (casefolded) all
occur in it.  The vocabulary part, in :func:`extract_patterns` only, skips
a sentence unless it holds two distinct casefolded NOUN/PROPN lemmas of
the vocabulary, since each head is such a lemma and a pair needs two.
:func:`extract_patterns` decides both once per corpus with numpy over the
corpus's codings; :func:`match_sentence` decides the literal part.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .contexts import TermSet, _ranges
from .corpus import TARGET_TAGS, Corpus, Sentence, _text
from .relations import RelationSet

_LANG_CONJUNCTIONS = {"EN": frozenset({"and", "or"}), "PT": frozenset({"e", "ou"})}
_LANG_ARTICLES = {
    "EN": frozenset({"the", "a", "an"}),
    "PT": frozenset({"o", "a", "os", "as", "um", "uma", "uns", "umas"}),
}


@dataclass(frozen=True)
class TemplateElement:
    kind: str  # "lit" | "hyper" | "hypos"
    text: str = ""
    optional: bool = False


@dataclass(frozen=True)
class PatternTemplate:
    source: str
    elements: tuple[TemplateElement, ...]
    # Casefolded literals without ``?``: a sentence lacking one cannot match.
    required: frozenset[str]


@dataclass(frozen=True)
class PatternSet:
    language: str
    templates: tuple[PatternTemplate, ...]
    conjunctions: frozenset[str]
    articles: frozenset[str]


def parse_template(line: str) -> PatternTemplate:
    elements: list[TemplateElement] = []
    for tok in line.split():
        if tok == "HYPER":
            elements.append(TemplateElement("hyper"))
        elif tok == "HYPO+":
            elements.append(TemplateElement("hypos"))
        elif tok.endswith("?") and len(tok) > 1:
            elements.append(TemplateElement("lit", tok[:-1].casefold(), optional=True))
        else:
            elements.append(TemplateElement("lit", tok.casefold()))
    kinds = [e.kind for e in elements]
    if kinds.count("hyper") != 1 or kinds.count("hypos") != 1:
        raise ValueError(
            f"template must contain exactly one HYPER and one HYPO+ slot: {line!r}"
        )
    required = frozenset(e.text for e in elements if e.kind == "lit" and not e.optional)
    return PatternTemplate(source=line, elements=tuple(elements), required=required)


def load_patterns(path: str | Path, language: str) -> PatternSet:
    """Read one template per line; blank lines and ``#`` comments are
    skipped, and a bad template raises ValueError naming ``path:line``."""
    language = language.upper()
    if language not in _LANG_CONJUNCTIONS:
        raise ValueError(f"no pattern support for language {language!r}")
    templates = []
    for lineno, raw in enumerate(_text(path).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            templates.append(parse_template(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not templates:
        raise ValueError(f"{path}: pattern file contains no templates")
    return PatternSet(
        language=language,
        templates=tuple(templates),
        conjunctions=_LANG_CONJUNCTIONS[language],
        articles=_LANG_ARTICLES[language],
    )


def default_patterns(language: str) -> PatternSet:
    """The packaged template set for EN or PT."""
    resource = resources.files("taxorel.data").joinpath(f"patterns_{language.lower()}.txt")
    return load_patterns(resource, language)


def _np_at(tokens: Sentence, pos: int, pset: PatternSet) -> tuple[int, str] | None:
    """Match a noun phrase starting at ``pos``; return (end, head lemma).

    An optional leading article is consumed, then a noun run with adjectives
    on the modifier side: English ADJ* NOUN+ heads on the rightmost noun,
    Portuguese NOUN+ ADJ* on the leftmost."""
    n, i = len(tokens), pos
    en = pset.language == "EN"
    if i < n and tokens[i].pos == "OTHER" and tokens[i].surface.casefold() in pset.articles:
        i += 1
    while en and i < n and tokens[i].pos == "ADJ":
        i += 1
    start = i
    while i < n and tokens[i].pos in TARGET_TAGS:
        i += 1
    if i == start:
        return None
    head = tokens[i - 1 if en else start].lemma.casefold()
    while not en and i < n and tokens[i].pos == "ADJ":
        i += 1
    return i, head


def _hypo_list(tokens: Sentence, pos: int, pset: PatternSet) -> list[tuple[int, list[str]]]:
    """All parses of ``NP (SEP NP)*`` from ``pos`` as (end, heads), shortest
    to longest.  SEP is a comma and a conjunction, else a comma or a
    conjunction: the list grows by the first that a noun phrase follows."""
    parses, heads = [], []
    phrase = _np_at(tokens, pos, pset)
    while phrase is not None:
        end, head = phrase
        heads = [*heads, head]
        parses.append((end, heads))
        after = [t.surface.casefold() for t in tokens[end : end + 2]] + [None, None]
        phrase = None
        if after[0] == "," and after[1] in pset.conjunctions:
            phrase = _np_at(tokens, end + 2, pset)
        if phrase is None and (after[0] == "," or after[0] in pset.conjunctions):
            phrase = _np_at(tokens, end + 1, pset)
    return parses


def _match_template(
    template: PatternTemplate, tokens: Sentence, start: int, pset: PatternSet
) -> tuple[str, list[str]] | None:
    """The (hypernym, hyponym heads) of ``template`` matched from ``start``,
    or None.  Parse states (pos, hyper, hypos) advance one element at a time
    in the order backtracking would try them: a literal is taken before it
    is skipped, hyponym lists go longest first.  So the first state past the
    last element is the parse that backtracking would find."""
    n = len(tokens)
    states = [(start, None, None)]
    for el in template.elements:
        advanced = []
        for pos, hyper, hypos in states:
            if el.kind == "lit":
                if pos < n and tokens[pos].surface.casefold() == el.text:
                    advanced.append((pos + 1, hyper, hypos))
                if el.optional:
                    advanced.append((pos, hyper, hypos))
            elif el.kind == "hyper":
                phrase = _np_at(tokens, pos, pset)
                if phrase is not None:
                    advanced.append((phrase[0], phrase[1], hypos))
            else:
                advanced += [(end, hyper, h) for end, h in reversed(_hypo_list(tokens, pos, pset))]
        states = advanced
    return (states[0][1], states[0][2]) if states else None


def _matches(tokens: Sentence, templates, pset: PatternSet) -> list[tuple[str, str]]:
    """All (hyponym, hypernym) lemma pairs that ``templates`` match anywhere
    in the sentence."""
    found = (_match_template(t, tokens, i, pset) for i in range(len(tokens)) for t in templates)
    return [
        (hypo, hyper) for hyper, hypos in filter(None, found) for hypo in hypos if hypo != hyper
    ]


def match_sentence(tokens: Sentence, pset: PatternSet) -> list[tuple[str, str]]:
    """All (hyponym, hypernym) lemma pairs matched anywhere in the sentence."""
    surfaces = {t.surface.casefold() for t in tokens}
    return _matches(tokens, [t for t in pset.templates if t.required <= surfaces], pset)


def extract_patterns(corpus: Corpus, patterns: PatternSet, vocab: TermSet) -> RelationSet:
    """Match the sentences that pass both parts of the prefilter (some
    template's required literals, and two distinct vocabulary lemmas of
    NOUN/PROPN tokens), decided for all sentences at once over the corpus's
    token coding; keep the in-vocabulary pairs."""
    if corpus.language != patterns.language:
        raise ValueError(
            f"corpus language {corpus.language} does not match "
            f"pattern language {patterns.language}"
        )
    templates, coding = patterns.templates, corpus.coding
    literals = set().union(*(t.required for t in templates))
    bit = {literal: 1 << i for i, literal in enumerate(literals)}
    needs = [sum(map(bit.__getitem__, t.required)) for t in templates]
    # Each distinct token's bitmask holds the bit of the literal its surface
    # equals, in the narrowest dtype that holds every bit (object past 64).
    masks = np.array(
        [bit.get(t.surface.casefold(), 0) for t in coding.distinct],
        dtype=np.min_scalar_type(1 << len(literals) >> 1),
    )
    held = np.bitwise_or.reduceat(masks[coding.token], coding.starts)
    # A live sentence holds every required literal of some template.
    live = np.zeros(len(held), dtype=bool)
    for need in set(needs):
        live |= (held & need) == need
    rows = np.flatnonzero(live)
    # Each distinct token's target lemma if it is in the vocabulary, else -1
    # (which reads the appended False); a live sentence whose smallest and
    # largest lemma differ holds two distinct ones.
    table, _, target = corpus.lemmas
    term = np.where(np.array([t in vocab for t in table] + [False])[target], target, -1)
    lengths = coding.lengths[rows]
    offsets = np.cumsum(lengths) - lengths
    found = term[coding.token[_ranges(coding.starts[rows], lengths)]]
    least = np.minimum.reduceat(np.where(found < 0, len(table), found), offsets)
    rows = rows[least < np.maximum.reduceat(found, offsets)]
    starts, stops = coding.starts, coding.starts + coding.lengths
    pairs = [
        (hypo, hyper)
        for i in rows.tolist()
        for hypo, hyper in _matches(
            tuple(map(coding.distinct.__getitem__, coding.token[starts[i] : stops[i]].tolist())),
            [t for t, need in zip(templates, needs) if (held[i] & need) == need],
            patterns,
        )
        if hypo in vocab and hyper in vocab
    ]
    return RelationSet("patt", pairs)
