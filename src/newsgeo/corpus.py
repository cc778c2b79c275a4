"""Data model and persistence for news articles, gold annotations and corpus stats.

Articles arrive as JSONL produced by an external dump parser, one object per
line:

    {"id": str, "lang": str, "title": str, "text": str, "categories": [str],
     "mentions": [{"surface": str, "start": int, "end": int, "qid": str|null}],
     "url": str|null}

The loader validates every record against the invariants below and skips (with
a warning) anything that does not hold, so downstream stages can assume clean
data.

The (city, country) :class:`LocationTuple`, its rendering and the WikiData id
check live here too: gold rows and mentions use them, and the KB layers
(``kb``, ``linking``, ``locations``) and ``pairs`` import them from here, so a
command that only reads a corpus or a pairs file loads none of those layers.
"""

from __future__ import annotations

import json
import logging
import random
import re
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence, TypeVar

logger = logging.getLogger(__name__)

SUPPORTED_LANGUAGES = ("de", "en", "es", "fr", "it")

T = TypeVar("T")

_QID_RE = re.compile(r"^Q[0-9]+\Z")


def _check_qid(qid: Any) -> str:
    """`qid` itself; ValueError unless it is a WikiData item id."""
    if type(qid) is not str or not _QID_RE.match(qid):
        raise ValueError(f"malformed WikiData id {qid!r}")
    return qid


class LocationTuple(NamedTuple):
    """The (city, country) output unit. A tuple always carries a country."""

    country: str
    country_qid: str | None = None
    city: str | None = None
    city_qid: str | None = None

    def validate(self) -> None:
        if type(self.country) is not str or not self.country:
            raise ValueError(f"country must be a non-empty string, got {self.country!r}")
        if self.city is not None and type(self.city) is not str:
            raise ValueError(f"city must be a string or null, got {self.city!r}")
        if self.city_qid and not self.city:
            raise ValueError("city_qid without a city name")
        for qid in (self.country_qid, self.city_qid):
            if qid is not None:
                _check_qid(qid)

    @staticmethod
    def from_json(d: dict[str, Any]) -> "LocationTuple":
        return LocationTuple(
            country=d["country"],
            country_qid=d.get("country_qid"),
            city=d.get("city"),
            city_qid=d.get("city_qid"),
        )

    def to_json(self) -> dict[str, Any]:
        return dict(
            city=self.city,
            city_qid=self.city_qid,
            country=self.country,
            country_qid=self.country_qid,
        )


def render_location(location: LocationTuple, anchor: str | None = None) -> str:
    """Render "City, Country" (or "Country"), prefixed by a distinct anchor."""
    parts = []
    seen = set()
    for part in (anchor, location.city, location.country):
        if part and part.casefold() not in seen:
            parts.append(part)
            seen.add(part.casefold())
    return ", ".join(parts)


class ParsedMention(NamedTuple):
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
        if self.qid is not None:
            _check_qid(self.qid)

    @staticmethod
    def from_json(d: dict[str, Any]) -> "ParsedMention":
        start, end = d["start"], d["end"]
        if type(start) is not int or type(end) is not int:
            raise ValueError(f"mention offsets must be integers, got ({start!r}, {end!r})")
        return ParsedMention(surface=d["surface"], start=start, end=end, qid=d.get("qid"))

    def to_json(self) -> dict[str, Any]:
        return dict(surface=self.surface, start=self.start, end=self.end, qid=self.qid)


class Article(NamedTuple):
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
        if type(self.id) is not str or not self.id:
            raise ValueError(f"id must be a non-empty string, got {self.id!r}")
        if self.language not in SUPPORTED_LANGUAGES:
            raise ValueError(f"unsupported language {self.language!r}")
        if not self.text:
            raise ValueError("empty text")
        if not self.text.startswith(self.title):
            raise ValueError("title is not a prefix of text")
        categories = self.categories
        if type(categories) is not list or not all(type(c) is str and c for c in categories):
            raise ValueError(f"categories must be a list of non-empty strings, got {categories!r}")
        for mention in self.mentions:
            mention.validate(self.text)

    @staticmethod
    def from_json(d: dict[str, Any], default_language: str | None = None) -> "Article":
        title, text, url = d["title"], d["text"], d.get("url")
        for name, value in (("title", title), ("text", text)):
            if type(value) is not str:
                raise ValueError(f"{name} must be a string, got {value!r}")
        if url is not None and type(url) is not str:
            raise ValueError(f"url must be a string or null, got {url!r}")
        mentions = [ParsedMention.from_json(m) for m in d.get("mentions", [])]
        if not text.startswith(title):
            # Parser emitted the body alone; prepend the title and shift spans.
            offset = len(title) + 1
            text = title + "\n" + text
            mentions = [
                m._replace(start=m.start + offset, end=m.end + offset)
                for m in mentions
            ]
        article = Article(
            id=d["id"],
            language=d.get("lang") or default_language or "",
            title=title,
            text=text,
            categories=d.get("categories", []),
            mentions=mentions,
            source_url=url,
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


class GoldAnnotation(NamedTuple):
    """Hand-labelled main locations of one article."""

    article_id: str
    locations: tuple[LocationTuple, ...]

    def validate(self) -> None:
        if type(self.article_id) is not str or not self.article_id:
            raise ValueError(f"article_id must be a non-empty string, got {self.article_id!r}")
        if not self.locations:
            raise ValueError(f"gold row {self.article_id} has no locations")
        for loc in self.locations:
            loc.validate()

    @staticmethod
    def from_json(d: dict[str, Any]) -> "GoldAnnotation":
        ann = GoldAnnotation(
            article_id=d["article_id"],
            locations=tuple(LocationTuple.from_json(loc) for loc in d["locations"]),
        )
        ann.validate()
        return ann


def _strict_utf8(line: str) -> str:
    """A line read with errors="surrogateescape", decoded again strictly: a
    UnicodeDecodeError, a ValueError, where its bytes are not UTF-8."""
    return line.encode("utf-8", "surrogateescape").decode("utf-8")


class LoadReport(NamedTuple):
    """Outcome of loading one JSONL file: one warning per skipped line."""

    path: str
    warnings: list[str]

    @property
    def skipped(self) -> int:
        return len(self.warnings)


def load_corpus(path: str | Path, language: str) -> tuple[list[Article], LoadReport]:
    """Read articles from a JSONL file, skipping invalid records.

    `language` declares the file's language; records carrying a conflicting
    `lang` field are treated as invalid. A missing file is fatal, a malformed
    line is a per-record warning.
    """
    path = Path(path)
    articles: list[Article] = []
    warnings: list[str] = []

    def warn(message: str) -> None:
        warnings.append(message)
        logger.warning("%s: %s", path, message)

    with path.open(encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(_strict_utf8(line))
            except ValueError as exc:
                warn(f"line {lineno}: invalid JSON ({exc})")
                continue
            if not isinstance(record, dict):
                warn(f"line {lineno}: not a JSON object ({type(record).__name__})")
                continue
            if record.get("lang") not in (None, language):
                warn(
                    f"line {lineno}: language {record.get('lang')!r} does not match file language {language!r}"
                )
                continue
            try:
                articles.append(Article.from_json(record, default_language=language))
            except (KeyError, TypeError, ValueError) as exc:
                warn(f"line {lineno}: {exc}")
    return articles, LoadReport(str(path), warnings)


def save_corpus(articles: Iterable[Article], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for article in articles:
            handle.write(json.dumps(article.to_json(), ensure_ascii=False) + "\n")


def read_strict_jsonl(path: str | Path, parse: Callable[[dict[str, Any]], T]) -> list[T]:
    """`parse` of each JSON object in a JSONL file, in file order.

    For files that must be clean: blank lines are skipped, but a line that is
    not a JSON object, or that `parse` rejects with KeyError, TypeError or
    ValueError, raises ValueError naming the file and line.
    """
    parsed = []
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(_strict_utf8(line))
                if not isinstance(record, dict):
                    raise ValueError(f"not a JSON object ({type(record).__name__})")
                parsed.append(parse(record))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return parsed


def load_gold(path: str | Path) -> dict[str, GoldAnnotation]:
    """Read the gold file: `{"article_id": ..., "locations": [...]}` per line.

    Gold is ground truth, so a bad or repeated line is not skipped: it raises
    ValueError naming the file and line.
    """
    gold: dict[str, GoldAnnotation] = {}

    def add(record: dict[str, Any]) -> None:
        ann = GoldAnnotation.from_json(record)
        if ann.article_id in gold:
            raise ValueError(f"duplicate article_id {ann.article_id!r}")
        gold[ann.article_id] = ann

    read_strict_jsonl(path, add)
    return gold


class LanguageStats(NamedTuple):
    """Per-language corpus counts (one dump-statistics table row)."""

    documents: int
    mentions: int
    unique_entity_ids: int


class CorpusStats(NamedTuple):
    per_language: dict[str, LanguageStats]
    total: LanguageStats


def compute_stats(corpus: Sequence[Article]) -> CorpusStats:
    """Count documents, mentions and distinct entity ids per language.

    The totals row counts unique entity ids across all languages, so it is
    generally smaller than the per-language sum.
    """
    by_language: dict[str, list[Article]] = {}
    for article in corpus:
        by_language.setdefault(article.language, []).append(article)
    per_language = {language: _count(articles) for language, articles in by_language.items()}
    return CorpusStats(per_language=per_language, total=_count(corpus))


def _count(articles: Sequence[Article]) -> LanguageStats:
    return LanguageStats(
        documents=len(articles),
        mentions=sum(len(article.mentions) for article in articles),
        unique_entity_ids=len(
            {mention.qid for article in articles for mention in article.mentions if mention.qid}
        ),
    )


def format_stats_table(stats: CorpusStats) -> str:
    """Render corpus statistics as an aligned plain-text table."""
    rows = [("Language", "Documents", "Mentions", "Unique entity IDs")]
    labelled = [*sorted(stats.per_language.items()), ("Total", stats.total)]
    for label, s in labelled:
        rows.append((label, f"{s.documents:,}", f"{s.mentions:,}", f"{s.unique_entity_ids:,}"))
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
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
