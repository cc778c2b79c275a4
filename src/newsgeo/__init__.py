"""Multilingual news location detection.

The pipeline recognizes entities in a news article, infers candidate
locations from article categories and from the knowledge-base pages of
non-location entities, ranks the candidates against the document with cosine
similarity over shared embeddings, and evaluates predictions with macro
Precision@Top-1 at city and country level.
"""

from .corpus import (
    Article,
    CorpusStats,
    GoldAnnotation,
    LanguageStats,
    LoadReport,
    ParsedMention,
    SUPPORTED_LANGUAGES,
    compute_stats,
    format_stats_table,
    load_corpus,
    load_gold,
    save_corpus,
    split_train_validation,
)
from .embedding import (
    AVERAGE,
    TRUNCATE,
    ChunkingConfig,
    EmbeddingProvider,
    MockEmbedder,
    chunk_document,
    cosine,
    embed_document,
    split_sentences,
    truncate_text,
)
from .evaluation import (
    EvalReport,
    LevelResult,
    Pipeline,
    TraceEntry,
    baseline_predictor,
    format_report_table,
    precision_at_1,
    run_experiment,
)
from .kb import (
    CACHE_ONLY,
    ONLINE,
    DbpediaClient,
    DbpediaRecord,
    KbCache,
    KbCacheMiss,
    KbError,
    KbNotFound,
    KbRemoteError,
    RateLimiter,
    WikidataClient,
    WikidataItem,
)
from .linking import LinkResult, WikipediaLinker, normalized_match
from .locations import (
    CATEGORY_LOCATION_MARKERS,
    CITY_CLASS_MARKERS,
    LocatedEntity,
    LocationTuple,
    Resolver,
    Unresolvable,
    render_location,
    resolve_city,
    resolve_country,
)
from .ner import (
    GazetteerNer,
    NerSpan,
    ensemble_spans,
    is_location_label,
)
from .ranking import (
    REPRESENTATION_MODES,
    Candidate,
    RankedCandidate,
    baseline_first_location,
    build_candidate_pool,
    build_representation,
    predict_location,
    rank_candidates,
)
from .training import (
    EarlyStopping,
    LinearAdapter,
    LossConfig,
    TrainingDiverged,
    TrainingPair,
    TrainingReport,
    generate_pairs,
    load_pairs,
    loss_contrastive,
    loss_cosine,
    loss_infonce,
    loss_triplet,
    save_pairs,
    train,
)

__version__ = "0.1.0"
