"""Data model and persistence for news articles, gold annotations and corpus stats.

Articles arrive as JSONL produced by an external dump parser, one object per
line:

    {"id": str, "lang": str, "title": str, "text": str, "categories": [str],
     "mentions": [{"surface": str, "start": int, "end": int, "qid": str|null}],
     "url": str|null}

The loader validates every record against the invariants below and skips (with
a warning) anything that does not hold, so downstream stages can assume clean
data.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import random
from pathlib import Path
from typing import Any, Iterable, Sequence, TypeVar

from .kb import _QID_RE
from .locations import LocationTuple

logger = logging.getLogger(__name__)

SUPPORTED_LANGUAGES = ("de", "en", "es", "fr", "it")

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class ParsedMention:
    """An entity-linked span produced by the dump parser."""

    surface: str
    start: int
    end: int
    qid: str | None = None

    def validate(self, text: str) -> None:
        if self.end <= self.start or self.start < 0 or self.end > len(text):
            raise ValueError(f"mention span ({self.start}, {self.end}) out of bounds")
        if text[self.start : self.end] != self.surface:
            raise ValueError(
                f"mention surface {self.surface!r} does not match text span"
            )
        if self.qid is not None and not _QID_RE.match(self.qid):
            raise ValueError(f"malformed WikiData id {self.qid!r}")

    @staticmethod
    def from_json(d: dict[str, Any]) -> "ParsedMention":
        return ParsedMention(
            surface=d["surface"], start=d["start"], end=d["end"], qid=d.get("qid")
        )

    def to_json(self) -> dict[str, Any]:
        return dict(surface=self.surface, start=self.start, end=self.end, qid=self.qid)


@dataclasses.dataclass
class Article:
    """One parsed news item.

    `text` always starts with the title: the loader prepends it (separated by a
    newline) when the parser emitted title and body separately, so that
    truncation keeps the most informative part of the document.
    """

    id: str
    language: str
    title: str
    text: str
    categories: list[str]
    mentions: list[ParsedMention]
    source_url: str | None = None

    def validate(self) -> None:
        if self.language not in SUPPORTED_LANGUAGES:
            raise ValueError(f"unsupported language {self.language!r}")
        if not self.text:
            raise ValueError("empty text")
        if not self.text.startswith(self.title):
            raise ValueError("title is not a prefix of text")
        for mention in self.mentions:
            mention.validate(self.text)

    @staticmethod
    def from_json(d: dict[str, Any], default_language: str | None = None) -> "Article":
        title = d["title"]
        text = d["text"]
        mentions = [ParsedMention.from_json(m) for m in d.get("mentions", [])]
        if not text.startswith(title):
            # Parser emitted the body alone; prepend the title and shift spans.
            offset = len(title) + 1
            text = title + "\n" + text
            mentions = [
                dataclasses.replace(m, start=m.start + offset, end=m.end + offset)
                for m in mentions
            ]
        article = Article(
            id=str(d["id"]),
            language=d.get("lang") or default_language or "",
            title=title,
            text=text,
            categories=list(d.get("categories", [])),
            mentions=mentions,
            source_url=d.get("url"),
        )
        article.validate()
        return article

    def to_json(self) -> dict[str, Any]:
        return dict(
            id=self.id,
            lang=self.language,
            title=self.title,
            text=self.text,
            categories=self.categories,
            mentions=[m.to_json() for m in self.mentions],
            url=self.source_url,
        )


@dataclasses.dataclass(frozen=True)
class GoldAnnotation:
    """Hand-labelled main locations of one article."""

    article_id: str
    locations: tuple[LocationTuple, ...]

    def validate(self) -> None:
        if not self.locations:
            raise ValueError(f"gold row {self.article_id} has no locations")
        for loc in self.locations:
            loc.validate()

    @staticmethod
    def from_json(d: dict[str, Any]) -> "GoldAnnotation":
        ann = GoldAnnotation(
            article_id=str(d["article_id"]),
            locations=tuple(LocationTuple.from_json(loc) for loc in d["locations"]),
        )
        ann.validate()
        return ann


@dataclasses.dataclass
class LoadReport:
    """Outcome of loading one JSONL file."""

    path: str
    loaded: int = 0
    skipped: int = 0
    warnings: list[str] = dataclasses.field(default_factory=list)

    def warn(self, message: str) -> None:
        self.skipped += 1
        self.warnings.append(message)
        logger.warning("%s: %s", self.path, message)


def load_corpus(path: str | Path, language: str) -> tuple[list[Article], LoadReport]:
    """Read articles from a JSONL file, skipping invalid records.

    `language` declares the file's language; records carrying a conflicting
    `lang` field are treated as invalid. A missing file is fatal, a malformed
    line is a per-record warning.
    """
    path = Path(path)
    report = LoadReport(path=str(path))
    articles: list[Article] = []
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                report.warn(f"line {lineno}: invalid JSON ({exc})")
                continue
            if not isinstance(record, dict):
                report.warn(f"line {lineno}: not a JSON object ({type(record).__name__})")
                continue
            if record.get("lang") not in (None, language):
                report.warn(
                    f"line {lineno}: language {record.get('lang')!r} does not match file language {language!r}"
                )
                continue
            try:
                articles.append(Article.from_json(record, default_language=language))
            except (KeyError, TypeError, ValueError) as exc:
                report.warn(f"line {lineno}: {exc}")
                continue
            report.loaded += 1
    return articles, report


def save_corpus(articles: Iterable[Article], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for article in articles:
            handle.write(json.dumps(article.to_json(), ensure_ascii=False) + "\n")


def load_gold(path: str | Path) -> dict[str, GoldAnnotation]:
    """Read the gold file: `{"article_id": ..., "locations": [...]}` per line.

    Gold is ground truth, so a bad line is not skipped: it raises ValueError
    naming the file and line.
    """
    gold: dict[str, GoldAnnotation] = {}
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"not a JSON object ({type(record).__name__})")
                ann = GoldAnnotation.from_json(record)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            gold[ann.article_id] = ann
    return gold


@dataclasses.dataclass
class LanguageStats:
    """Per-language corpus counts (one dump-statistics table row)."""

    documents: int = 0
    mentions: int = 0
    unique_entity_ids: int = 0
    locations_in_categories: int = 0
    documents_with_locations: int = 0

    @property
    def documents_with_locations_pct(self) -> float:
        if self.documents == 0:
            return 0.0
        return self.documents_with_locations / self.documents


@dataclasses.dataclass
class CorpusStats:
    per_language: dict[str, LanguageStats]
    total: LanguageStats


def compute_stats(
    corpus: Sequence[Article],
    category_locations: dict[str, list[LocationTuple]],
) -> CorpusStats:
    """Count documents, mentions, distinct entity ids and category locations.

    `category_locations` maps article id to the locations recovered from its
    categories. The totals row counts unique entity ids across all languages,
    so it is generally smaller than the per-language sum.
    """
    per_language: dict[str, LanguageStats] = {}
    qids_by_language: dict[str, set[str]] = {}
    all_qids: set[str] = set()
    for article in corpus:
        stats = per_language.setdefault(article.language, LanguageStats())
        qids = qids_by_language.setdefault(article.language, set())
        stats.documents += 1
        stats.mentions += len(article.mentions)
        for mention in article.mentions:
            if mention.qid:
                qids.add(mention.qid)
                all_qids.add(mention.qid)
        locations = category_locations.get(article.id, [])
        stats.locations_in_categories += len(locations)
        if locations:
            stats.documents_with_locations += 1
    for language, stats in per_language.items():
        stats.unique_entity_ids = len(qids_by_language[language])
    total = LanguageStats(
        documents=sum(s.documents for s in per_language.values()),
        mentions=sum(s.mentions for s in per_language.values()),
        unique_entity_ids=len(all_qids),
        locations_in_categories=sum(
            s.locations_in_categories for s in per_language.values()
        ),
        documents_with_locations=sum(
            s.documents_with_locations for s in per_language.values()
        ),
    )
    return CorpusStats(per_language=per_language, total=total)


def format_stats_table(stats: CorpusStats) -> str:
    """Render corpus statistics as an aligned plain-text table."""
    header = (
        "Language",
        "Documents",
        "Mentions",
        "Unique entity IDs",
        "Locations in categories",
        "Documents with locations",
    )
    rows = []
    for language in sorted(stats.per_language):
        s = stats.per_language[language]
        rows.append(_stats_row(language, s))
    rows.append(_stats_row("Total", stats.total))
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _stats_row(label: str, s: LanguageStats) -> tuple[str, ...]:
    return (
        label,
        f"{s.documents:,}",
        f"{s.mentions:,}",
        f"{s.unique_entity_ids:,}",
        f"{s.locations_in_categories:,}",
        f"{s.documents_with_locations:,} ({s.documents_with_locations_pct:.2%})",
    )


def split_train_validation(
    items: Sequence[T], validation_fraction: float, seed: int
) -> tuple[list[T], list[T]]:
    """Deterministically partition `items` into (train, validation).

    The partition is disjoint and exhaustive and depends only on the input
    order and the seed. Both sides are non-empty whenever len(items) >= 2.
    """
    if not 0 < validation_fraction < 1:
        raise ValueError(
            f"validation_fraction must be in (0, 1), got {validation_fraction}"
        )
    items = list(items)
    n = len(items)
    if n < 2:
        return items, []
    n_validation = int(n * validation_fraction + 0.5)
    n_validation = min(max(n_validation, 1), n - 1)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    validation_indices = set(indices[:n_validation])
    train = [items[i] for i in range(n) if i not in validation_indices]
    validation = [items[i] for i in range(n) if i in validation_indices]
    return train, validation
