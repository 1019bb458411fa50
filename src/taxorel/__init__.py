"""taxorel: taxonomic (is-a) relation extraction from POS-tagged corpora.

The library covers the full pipeline: corpus ingestion, window and document
co-occurrence contexts, association weighting, seven relation extractors,
taxonomy assembly with transitive reduction and hierarchy metrics, and
evaluation against a synset-based gold standard, including cross-method
complementarity analysis.
"""

from .contexts import (
    ContextMatrix,
    TermSet,
    extract_document_contexts,
    extract_window_contexts,
    load_matrix,
    matrix_text,
    select_vocabulary,
)
from .corpus import (
    Corpus,
    CorpusFormatError,
    CorpusStats,
    Document,
    TaggedToken,
    corpus_stats,
    load_corpus,
    load_pos_mapping,
    sentence_documents,
)
from .evaluation import (
    ComplementarityMatrix,
    EvalReport,
    common_relations,
    complementarity,
    complementarity_matrix,
    evaluate,
    relative_precision,
)
from .extractors import (
    cluster_terms,
    docsub_sweep,
    extract_df,
    extract_docsub,
    extract_dsim,
    extract_hclust,
    extract_slqs,
    extract_tf,
    measure_clarke_de,
    measure_weeds_prec,
)
from .gold import GoldFormatError, GoldTaxonomy, Synset, load_gold
from .patterns import (
    PatternSet,
    default_patterns,
    extract_patterns,
    load_patterns,
    match_sentence,
)
from .relations import RelationSet, load_relations, relations_text
from .taxonomy import (
    HierarchyMetrics,
    Taxonomy,
    best_parent_filter,
    break_cycles,
    build_taxonomy,
    compute_metrics,
    transitive_reduction,
)
from .weighting import (
    EntropyTable,
    WeightedMatrix,
    context_entropies,
    weight_lmi,
    weight_ppmi,
    word_generalities,
)

__version__ = "0.1.0"
