"""The ranked system as one Pipeline, macro Precision@Top-1 at country and
city level, and experiment running.

A document scores a hit when its single predicted location matches any of the
document's gold locations at the requested level; ids are compared when both
sides have them, names otherwise. The headline number averages per-language
precisions with equal weight (the test corpus is language-stratified); a
per-document micro average is reported alongside for transparency.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Any, Callable, Sequence

from .config import AVERAGE
from .corpus import Article, GoldAnnotation
from .embedding import EmbeddingProvider
from .kb import KbError
from .linking import normalized_match
from .locations import LocationTuple, Resolver
from .memo import Memo, map_articles
from .ner import NerProvider, ensemble_spans
from .ranking import (
    Candidate,
    build_candidate_pool,
    candidates,
    predict_location,
    rank_candidates,
)

logger = logging.getLogger(__name__)

Predictor = Callable[[Article], LocationTuple | None]

LEVELS = ("country", "city")


@dataclasses.dataclass
class LevelResult:
    """MP@1 at one level: per-language values plus their macro/micro averages."""

    level: str
    per_language: dict[str, float]
    macro: float
    micro: float
    hits: int
    documents: int

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def precision_at_1(
    predictions: dict[str, LocationTuple | None],
    gold: dict[str, GoldAnnotation],
    languages: dict[str, str],
    level: str,
) -> LevelResult:
    """Score one prediction per gold document at `level`.

    A hit requires the prediction to match ANY gold tuple of the document.
    Missing or None predictions are misses; predictions for ids outside the
    gold set are ignored with a warning.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    if not gold:
        raise ValueError("empty gold standard: nothing to evaluate")
    for article_id in predictions:
        if article_id not in gold:
            logger.warning("prediction for unknown article %r ignored", article_id)
    hits_by_language: dict[str, int] = {}
    docs_by_language: dict[str, int] = {}
    total_hits = 0
    for article_id in sorted(gold):
        annotation = gold[article_id]
        if article_id not in languages:
            raise ValueError(f"gold article {article_id!r} is not in the corpus")
        language = languages[article_id]
        if article_id not in predictions:
            logger.warning("no prediction entry for article %r; counted as a miss", article_id)
        prediction = predictions.get(article_id)
        hit = any(
            normalized_match(prediction, gold_location, level)
            for gold_location in annotation.locations
        )
        docs_by_language[language] = docs_by_language.get(language, 0) + 1
        if hit:
            hits_by_language[language] = hits_by_language.get(language, 0) + 1
            total_hits += 1
    per_language = {
        language: hits_by_language.get(language, 0) / docs_by_language[language]
        for language in sorted(docs_by_language)
    }
    macro = sum(per_language.values()) / len(per_language)
    documents = sum(docs_by_language.values())
    return LevelResult(
        level=level,
        per_language=per_language,
        macro=macro,
        micro=total_hits / documents,
        hits=total_hits,
        documents=documents,
    )


@dataclasses.dataclass
class TraceEntry:
    """What happened on one document, for auditing and error analysis."""

    article_id: str
    language: str
    prediction: LocationTuple | None
    gold: tuple[LocationTuple, ...]
    country_hit: bool
    city_hit: bool
    error: str | None = None

    def to_json(self) -> dict[str, Any]:
        return dict(
            article_id=self.article_id,
            language=self.language,
            prediction=self.prediction.to_json() if self.prediction else None,
            gold=[location.to_json() for location in self.gold],
            country_hit=self.country_hit,
            city_hit=self.city_hit,
            error=self.error,
        )


@dataclasses.dataclass
class EvalReport:
    system: str
    country: LevelResult
    city: LevelResult
    trace: list[TraceEntry]

    def to_json(self) -> dict[str, Any]:
        return dict(
            system=self.system,
            country=self.country.to_json(),
            city=self.city.to_json(),
            trace=[entry.to_json() for entry in self.trace],
        )


def run_experiment(
    corpus: Sequence[Article],
    gold: dict[str, GoldAnnotation],
    predictor: Predictor,
    system: str = "system",
    workers: int = 1,
) -> EvalReport:
    """Predict every gold document and score both levels.

    A document whose prediction raises is recorded as a miss with the error in
    its trace entry, except that a KB failure (a cache miss, a remote error or
    a corrupt cache record) or an `OSError` (a cache write that failed) aborts
    the run: an unreachable KB is not a wrong prediction. Documents are
    processed by a thread pool in corpus order, so reports are identical for
    any worker count.
    """
    if not gold:
        raise ValueError("empty gold standard: nothing to evaluate")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    articles = [article for article in corpus if article.id in gold]
    known = {article.id for article in articles}
    missing = sorted(set(gold) - known)
    if missing:
        raise ValueError(f"gold articles missing from the corpus: {missing}")

    def predict_one(article: Article) -> tuple[str, LocationTuple | None, str | None]:
        try:
            return article.id, predictor(article), None
        except (KbError, OSError):
            raise
        except Exception as exc:  # hard per-document failure -> miss, not abort
            logger.exception("prediction failed for article %s", article.id)
            return article.id, None, f"{type(exc).__name__}: {exc}"

    outcomes = map_articles(predict_one, articles, workers)
    predictions = {article_id: prediction for article_id, prediction, _ in outcomes}
    errors = {article_id: error for article_id, _, error in outcomes}
    languages = {article.id: article.language for article in articles}
    country = precision_at_1(predictions, gold, languages, "country")
    city = precision_at_1(predictions, gold, languages, "city")
    trace = []
    for article in articles:
        prediction = predictions[article.id]
        annotation = gold[article.id]
        trace.append(
            TraceEntry(
                article_id=article.id,
                language=article.language,
                prediction=prediction,
                gold=annotation.locations,
                country_hit=any(
                    normalized_match(prediction, g, "country") for g in annotation.locations
                ),
                city_hit=any(
                    normalized_match(prediction, g, "city") for g in annotation.locations
                ),
                error=errors[article.id],
            )
        )
    return EvalReport(system=system, country=country, city=city, trace=trace)


@dataclasses.dataclass(frozen=True)
class Pipeline:
    """The ranked system: recognize, represent, rank, resolve the top.

    A pipeline serves one command. It embeds each distinct text (document or
    candidate) once and keeps the vector for its lifetime, beside the
    resolver's memo of KB results: the distinct inputs of one command.
    """

    resolver: Resolver
    providers: Sequence[NerProvider]
    embedder: EmbeddingProvider
    modes: Sequence[str]
    chunking: str = AVERAGE
    _vectors: Memo = dataclasses.field(
        default_factory=Memo, init=False, repr=False, compare=False
    )

    def rank(self, article: Article) -> list[Candidate]:
        spans = ensemble_spans(article.text, article.language, self.providers)
        pool = build_candidate_pool(spans, article.language, self.modes, self.resolver)
        return rank_candidates(article.text, pool, self.embedder, self.chunking, self._vectors)

    def predict(self, article: Article) -> LocationTuple | None:
        return predict_location(self.rank(article), article.language, self.resolver)


def baseline_predictor(
    resolver: Resolver, providers: Sequence[NerProvider], modes: Sequence[str]
) -> Predictor:
    """First-mention baseline: the first candidate under `modes`, in text
    order, that resolves to a location."""

    def predict(article: Article) -> LocationTuple | None:
        spans = ensemble_spans(article.text, article.language, providers)
        pool = candidates(spans, article.language, modes, resolver)
        return predict_location(pool, article.language, resolver)

    return predict


def format_report_table(reports: Sequence[EvalReport]) -> str:
    """Render reports as an aligned table, one row per system and level."""
    languages = sorted(
        {lang for report in reports for lang in report.country.per_language}
    )
    header = ["System", "Level", *languages, "Macro", "Micro"]
    rows = []
    for report in reports:
        for result in (report.country, report.city):
            rows.append(
                [
                    report.system,
                    result.level,
                    *(f"{result.per_language.get(lang, 0.0):.4f}" for lang in languages),
                    f"{result.macro:.4f}",
                    f"{result.micro:.4f}",
                ]
            )
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))
    ]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
