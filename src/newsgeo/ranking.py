"""Cosine ranking of candidate entities against the document embedding.

Candidates are entity mentions rendered to text under one of six
representation modes; document and candidate go through the same embedding
provider (a Siamese arrangement) and are compared by cosine. The top-ranked
candidate that resolves to a (city, country) tuple becomes the document's
predicted location. Two first-mention baselines are included for comparison.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Any, Sequence

from .config import (
    LOCATED_NON_LOCATIONS,
    LOCATION_ABSTRACTS,
    NON_LOCATION_IN_LOCATION,
    NON_LOCATIONS,
    ONLY_LOCATIONS,
    REPRESENTATION_MODES,
    ChunkingConfig,
)
from .embedding import EmbeddingProvider, cosine, embed_document
from .locations import LocationTuple, Resolver
from .memo import Memo
from .ner import NerSpan, is_location_label

logger = logging.getLogger(__name__)

_LOCATION_MODES = (ONLY_LOCATIONS, LOCATION_ABSTRACTS)


@dataclasses.dataclass
class Candidate:
    """An entity mention rendered to comparable text.

    ``location`` is already populated for modes that resolve during rendering;
    for plain location surfaces it stays None until prediction time.
    """

    span: NerSpan
    text: str
    location: LocationTuple | None = None


@dataclasses.dataclass
class RankedCandidate:
    span: NerSpan
    text: str
    score: float
    location: LocationTuple | None = None

    def to_json(self) -> dict[str, Any]:
        return dict(
            text=self.text,
            score=self.score,
            city_qid=self.location.city_qid if self.location else None,
            country_qid=self.location.country_qid if self.location else None,
        )


def build_representation(
    span: NerSpan, language: str, mode: str, resolver: Resolver
) -> Candidate | None:
    """Render one span under `mode`; None when the span does not qualify.

    Location modes accept only location-class spans and vice versa. Modes that
    need the knowledge base (resolved locations, abstracts) drop the candidate
    with a log line when the lookup comes back empty.
    """
    if mode not in REPRESENTATION_MODES:
        raise ValueError(f"unknown representation mode {mode!r}")
    is_location = is_location_label(span.label)
    if is_location != (mode in _LOCATION_MODES):
        return None
    if mode == ONLY_LOCATIONS or mode == NON_LOCATIONS:
        return Candidate(span=span, text=span.surface)
    if mode in (LOCATED_NON_LOCATIONS, NON_LOCATION_IN_LOCATION):
        located = resolver.implicit_locate(span.surface, language)
        if located is None:
            logger.info("no location found for %r; dropped from %s", span.surface, mode)
            return None
        location_text = located.location_text()
        if mode == NON_LOCATION_IN_LOCATION:
            return Candidate(
                span=span,
                text=f"{span.surface} in {location_text}",
                location=located.location,
            )
        return Candidate(span=span, text=location_text, location=located.location)
    abstract = resolver.page_abstract(span.surface, language)
    if not abstract:
        logger.info("no abstract for %r; dropped from %s", span.surface, mode)
        return None
    return Candidate(span=span, text=abstract)


def build_candidate_pool(
    spans: Sequence[NerSpan],
    language: str,
    modes: Sequence[str],
    resolver: Resolver,
) -> list[Candidate]:
    """Representations of every span under every mode, in text order.

    Identical (offset, text) pairs produced by two modes collapse to one
    candidate so union pools do not double-score.
    """
    pool: list[Candidate] = []
    seen: set[tuple[int, int, str]] = set()
    for mode in modes:
        for span in spans:
            candidate = build_representation(span, language, mode, resolver)
            if candidate is None:
                continue
            key = (span.start, span.end, candidate.text)
            if key in seen:
                continue
            seen.add(key)
            pool.append(candidate)
    pool.sort(key=lambda c: (c.span.start, c.span.end, c.text))
    return pool


def rank_candidates(
    text: str,
    candidates: Sequence[Candidate],
    provider: EmbeddingProvider,
    config: ChunkingConfig | None = None,
    vectors: Memo | None = None,
) -> list[RankedCandidate]:
    """Score every candidate by cosine against the document embedding.

    Result is sorted by descending score, ties broken by earliest text offset.
    A zero-norm embedding cannot be scored; the candidate is kept with score
    -1 and a warning instead of aborting the ranking. `vectors` holds the
    embedding of each text under this provider and config: a text it already
    holds is not embedded again.
    """
    if not candidates:
        return []
    if vectors is None:
        vectors = Memo()

    def embed(piece: str):
        return vectors.get(piece, lambda: embed_document(piece, provider, config))

    document = embed(text)
    ranked = []
    for candidate in candidates:
        vector = embed(candidate.text)
        try:
            score = cosine(document, vector)
        except ValueError:
            logger.warning("zero-norm embedding for %r; scored -1", candidate.text)
            score = -1.0
        ranked.append(
            RankedCandidate(
                span=candidate.span,
                text=candidate.text,
                score=score,
                location=candidate.location,
            )
        )
    ranked.sort(key=lambda c: (-c.score, c.span.start, c.span.end, c.text))
    return ranked


def resolve_location_span(
    span: NerSpan, language: str, resolver: Resolver
) -> LocationTuple | None:
    """Link a location surface and complete it to a (city, country) tuple."""
    link = resolver.link(span.surface, language)
    return resolver.locate_qid(link.qid) if link.qid else None


def predict_location(
    ranked: Sequence[RankedCandidate],
    language: str,
    resolver: Resolver,
) -> LocationTuple | None:
    """Location tuple of the best-ranked resolvable candidate.

    Candidates that carry a tuple from rendering are used as-is; plain
    location surfaces are resolved here. An unresolvable candidate falls
    through to the next with a warning.
    """
    for candidate in ranked:
        if candidate.location is not None:
            return candidate.location
        location = resolve_location_span(candidate.span, language, resolver)
        if location is not None:
            return location
        logger.warning("top candidate %r unresolvable; falling through", candidate.text)
    return None


def baseline_first_location(
    spans: Sequence[NerSpan],
    language: str,
    resolver: Resolver,
    include_located_non_locations: bool = False,
) -> LocationTuple | None:
    """First-mention baseline: earliest resolvable location wins.

    With the flag set, a non-location entity whose page reveals a location
    also qualifies, still in text-offset order.
    """
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        if is_location_label(span.label):
            location = resolve_location_span(span, language, resolver)
            if location is not None:
                return location
            logger.warning("baseline: %r unresolvable; falling through", span.surface)
        elif include_located_non_locations:
            located = resolver.implicit_locate(span.surface, language)
            if located is not None:
                return located.location
    return None


def ranking_record(
    article_id: str, mode: str, ranked: Sequence[RankedCandidate]
) -> dict[str, Any]:
    """One persistable JSONL record of a ranking run."""
    return dict(
        article_id=article_id,
        mode=mode,
        candidates=[candidate.to_json() for candidate in ranked],
    )
