"""The ranked system as one Pipeline, macro Precision@Top-1 at country and
city level, and experiment running.

A document scores a hit when its single predicted location matches any of the
document's gold locations at the requested level; ids are compared when both
sides have them, names otherwise. The headline number averages per-language
precisions with equal weight (the test corpus is language-stratified); a
per-document micro average is reported alongside for transparency.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from .config import AVERAGE
from .corpus import Article, GoldAnnotation
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

if TYPE_CHECKING:
    from .embedding import EmbeddingProvider

logger = logging.getLogger(__name__)

Predictor = Callable[[Article], LocationTuple | None]


class LevelResult(NamedTuple):
    """MP@1 at one level: per-language values plus their macro/micro averages."""

    level: str
    per_language: dict[str, float]
    macro: float
    micro: float
    hits: int
    documents: int

    def to_json(self) -> dict[str, Any]:
        return self._asdict()


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
        hit = _hit(predictions.get(article_id), annotation, level)
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


def _hit(prediction: LocationTuple | None, annotation: GoldAnnotation, level: str) -> bool:
    """Whether `prediction` matches any gold location of `annotation` at `level`."""
    return any(normalized_match(prediction, gold, level) for gold in annotation.locations)


class TraceEntry(NamedTuple):
    """What happened on one document, for auditing and error analysis."""

    article_id: str
    language: str
    prediction: LocationTuple | None
    gold: tuple[LocationTuple, ...]
    country_hit: bool
    city_hit: bool

    def to_json(self) -> dict[str, Any]:
        return dict(
            article_id=self.article_id,
            language=self.language,
            prediction=self.prediction.to_json() if self.prediction else None,
            gold=[location.to_json() for location in self.gold],
            country_hit=self.country_hit,
            city_hit=self.city_hit,
            # Always null: a prediction that raises fails the run. The key
            # stays, so reports keep the layout their readers parse.
            error=None,
        )


class EvalReport(NamedTuple):
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

    A prediction that raises fails the run, as in `rank`, so neither an
    unreachable KB nor a program defect is scored as a wrong prediction;
    `map_articles` names the failing article. Documents are processed in
    corpus order, with up to `workers` articles in flight while some wait on
    the KB, so reports are identical for any worker count.
    """
    articles = [article for article in corpus if article.id in gold]
    known = {article.id for article in articles}
    missing = sorted(set(gold) - known)
    if missing:
        raise ValueError(f"gold articles missing from the corpus: {missing}")
    found = map_articles(predictor, articles, workers)
    predictions = {article.id: prediction for article, prediction in zip(articles, found)}
    languages = {article.id: article.language for article in articles}
    country = precision_at_1(predictions, gold, languages, "country")
    city = precision_at_1(predictions, gold, languages, "city")
    trace = [
        TraceEntry(
            article_id=article.id,
            language=article.language,
            prediction=prediction,
            gold=gold[article.id].locations,
            country_hit=_hit(prediction, gold[article.id], "country"),
            city_hit=_hit(prediction, gold[article.id], "city"),
        )
        for article, prediction in zip(articles, found)
    ]
    return EvalReport(system=system, country=country, city=city, trace=trace)


class Pipeline:
    """The ranked system: recognize, represent, rank, resolve the top.

    A pipeline serves one command. It embeds each distinct text (document or
    candidate) once and keeps the vector for its lifetime, beside the
    resolver's memo of KB results: the distinct inputs of one command.
    """

    __slots__ = ("resolver", "providers", "embedder", "modes", "chunking", "_vectors")

    def __init__(
        self,
        resolver: Resolver,
        providers: Sequence[NerProvider],
        embedder: EmbeddingProvider,
        modes: Sequence[str],
        chunking: str = AVERAGE,
    ) -> None:
        self.resolver = resolver
        self.providers = providers
        self.embedder = embedder
        self.modes = modes
        self.chunking = chunking
        self._vectors = Memo()

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
