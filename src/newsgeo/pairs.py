"""Weakly supervised training pairs from category locations and the KB.

Supervision is free: an article's category-derived locations are positives,
and mentioned entities unrelated to every positive (sharing neither city nor
country) are negatives. Building the pairs needs no encoder, so this module
does not import numpy.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Any, Iterable, Sequence

from .corpus import Article, read_strict_jsonl
from .locations import LocationTuple, Resolver, render_location
from .memo import map_articles


@dataclasses.dataclass(frozen=True)
class TrainingPair:
    article_id: str
    document_text: str
    entity_text: str
    label: int

    def validate(self) -> None:
        if type(self.article_id) is not str or not self.article_id:
            raise ValueError(f"article_id must be a non-empty string, got {self.article_id!r}")
        if type(self.label) is not int or self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        for name, text in (("doc", self.document_text), ("entity", self.entity_text)):
            if type(text) is not str or not text:
                raise ValueError(f"{name} must be a non-empty string, got {text!r}")

    @staticmethod
    def from_json(d: dict[str, Any]) -> "TrainingPair":
        return TrainingPair(
            article_id=d["article_id"],
            document_text=d["doc"],
            entity_text=d["entity"],
            label=d["label"],
        )

    def to_json(self) -> dict[str, Any]:
        return dict(
            article_id=self.article_id,
            doc=self.document_text,
            entity=self.entity_text,
            label=self.label,
        )


def generate_pairs(
    corpus: Sequence[Article],
    category_locations: dict[str, list[LocationTuple]],
    resolver: Resolver,
    seed: int = 13,
    workers: int = 1,
) -> list[TrainingPair]:
    """Label (document, entity) pairs without manual annotation.

    Positives: the rendered string of each category-derived location of the
    document. Negatives: surface forms of mentioned entities that are
    unrelated to every positive, i.e. the mention's id is not a positive's
    city or country id and its own resolved tuple shares neither, capped at
    the document's positive count by a sample seeded with `seed` and the
    article id. Mentions that cannot be resolved are never used as
    negatives, since their unrelatedness is unverifiable. The articles run
    on `workers` threads; their pairs come in corpus order.
    """
    per_article = map_articles(
        lambda article: _article_pairs(
            article, category_locations.get(article.id, []), resolver, seed
        ),
        corpus,
        workers,
    )
    return [pair for pairs in per_article for pair in pairs]


def _article_pairs(
    article: Article, locations: list[LocationTuple], resolver: Resolver, seed: int
) -> list[TrainingPair]:
    """The pairs of one article, given its category-derived locations."""
    if not locations:
        return []
    positive_texts: list[str] = []
    for location in locations:
        text = render_location(location)
        if text and text not in positive_texts:
            positive_texts.append(text)
    positive_qids = set()
    for location in locations:
        positive_qids.update(q for q in (location.city_qid, location.country_qid) if q)
    negatives: list[str] = []
    for mention in article.mentions:
        if not mention.qid or mention.qid in positive_qids:
            continue
        if mention.surface in positive_texts or mention.surface in negatives:
            continue
        resolved = resolver.locate_qid(mention.qid)
        if resolved is None or _related(resolved, locations):
            continue
        negatives.append(mention.surface)
    if len(negatives) > len(positive_texts):
        rng = random.Random(f"{seed}:{article.id}")
        negatives = rng.sample(negatives, len(positive_texts))
    return [TrainingPair(article.id, article.text, text, 1) for text in positive_texts] + [
        TrainingPair(article.id, article.text, text, 0) for text in negatives
    ]


def _related(candidate: LocationTuple, positives: Iterable[LocationTuple]) -> bool:
    for positive in positives:
        if candidate.city_qid is not None and candidate.city_qid == positive.city_qid:
            return True
        if (
            candidate.country_qid is not None
            and candidate.country_qid == positive.country_qid
        ):
            return True
    return False


def save_pairs(pairs: Iterable[TrainingPair], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps(pair.to_json(), ensure_ascii=False) + "\n")


def load_pairs(path: str | Path) -> list[TrainingPair]:
    """Read a pairs file as `save_pairs` writes it.

    A bad line is not skipped: it raises ValueError naming the file and line.
    """

    def parse(record: dict[str, Any]) -> TrainingPair:
        pair = TrainingPair.from_json(record)
        pair.validate()
        return pair

    return read_strict_jsonl(path, parse)
