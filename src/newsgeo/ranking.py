"""Cosine ranking of candidate entities against the document embedding.

Candidates are entity mentions rendered to text under one of six
representation modes; document and candidate go through the same embedding
provider (a Siamese arrangement) and are compared by cosine. The top-ranked
candidate that resolves to a (city, country) tuple becomes the document's
predicted location. The first-mention baselines resolve the same candidates
in text order instead of by score: :func:`candidates` yields them lazily, and
:func:`predict_location` stops at the first that resolves.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple, Sequence

from .config import (
    AVERAGE,
    LOCATED_NON_LOCATIONS,
    LOCATION_ABSTRACTS,
    NON_LOCATION_IN_LOCATION,
    NON_LOCATIONS,
    ONLY_LOCATIONS,
    REPRESENTATION_MODES,
)
from .embedding import EmbeddingProvider, embed_document
from .locations import LocationTuple, Resolver
from .memo import Memo, map_in_article
from .ner import NerSpan, is_location_label

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

_LOCATION_MODES = (ONLY_LOCATIONS, LOCATION_ABSTRACTS)


class Candidate(NamedTuple):
    """An entity mention rendered to comparable text.

    ``location`` is already populated for modes that resolve during rendering;
    for plain location surfaces it stays None until prediction time.
    ``score`` is None until :func:`rank_candidates` scores the candidate.
    """

    span: NerSpan
    text: str
    location: LocationTuple | None = None
    score: float | None = None

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


def _in_text_order(spans: Sequence[NerSpan]) -> list[NerSpan]:
    return sorted(spans, key=lambda s: (s.start, s.end))


def _distinct(rendered: Iterable[Candidate | None]) -> Iterator[Candidate]:
    """The candidates of `rendered`, the first of each (offset, text) pair."""
    seen: set[tuple[int, int, str]] = set()
    for candidate in rendered:
        if candidate is None:
            continue
        key = (candidate.span.start, candidate.span.end, candidate.text)
        if key not in seen:
            seen.add(key)
            yield candidate


def candidates(
    spans: Sequence[NerSpan],
    language: str,
    modes: Sequence[str],
    resolver: Resolver,
) -> Iterator[Candidate]:
    """Representations of the spans in text order, each span under every mode.

    A generator: a span is rendered, and its KB records read, only when the
    consumer asks for it, so a first-mention baseline stops at the first
    candidate that resolves. Identical (offset, text) pairs collapse to the
    first one produced, so union pools do not double-score.
    """
    return _distinct(
        build_representation(span, language, mode, resolver)
        for span in _in_text_order(spans)
        for mode in modes
    )


def build_candidate_pool(
    spans: Sequence[NerSpan],
    language: str,
    modes: Sequence[str],
    resolver: Resolver,
) -> list[Candidate]:
    """Every candidate of the spans, in text order, as :func:`candidates`
    yields them.

    Each span is rendered under every mode as one item of
    `memo.map_in_article`, so once a span's KB lookups wait on the network
    the later spans' lookups go out beside them, at most `workers` per
    article, each at the article's place in the rate limiter's queue.
    """

    def render(span: NerSpan) -> list[Candidate | None]:
        return [build_representation(span, language, mode, resolver) for mode in modes]

    rendered = map_in_article(render, _in_text_order(spans))
    return list(_distinct(candidate for per_span in rendered for candidate in per_span))


def rank_candidates(
    text: str,
    candidates: Sequence[Candidate],
    provider: EmbeddingProvider,
    chunking: str = AVERAGE,
    vectors: Memo | None = None,
) -> list[Candidate]:
    """Scored copies of the candidates, by cosine against the document
    embedding under the `chunking` mode.

    Result is sorted by descending score, ties broken by earliest text offset.
    A zero-norm embedding cannot be scored; the candidate is kept with score
    -1 and a warning instead of aborting the ranking. `vectors` holds the
    embedding of each text under this provider and mode, with its norm: a
    text it already holds is not embedded again. numpy is imported here,
    after the empty-pool return, so a command whose articles yield no
    candidate never loads it.
    """
    if not candidates:
        return []
    import numpy as np

    if vectors is None:
        vectors = Memo()

    def embed(piece: str) -> tuple[np.ndarray, float]:
        def compute() -> tuple[np.ndarray, float]:
            vector = embed_document(piece, provider, chunking)
            return vector, float(np.linalg.norm(vector))

        return vectors.get(piece, compute)

    document, document_norm = embed(text)
    ranked = []
    for candidate in candidates:
        vector, norm = embed(candidate.text)
        if document_norm == 0.0 or norm == 0.0:
            logger.warning("zero-norm embedding for %r; scored -1", candidate.text)
            score = -1.0
        else:
            score = float(np.dot(document, vector) / (document_norm * norm))
        ranked.append(Candidate(candidate.span, candidate.text, candidate.location, score))
    ranked.sort(key=lambda c: (-c.score, c.span.start, c.span.end, c.text))
    return ranked


def resolve_location_span(
    span: NerSpan, language: str, resolver: Resolver
) -> LocationTuple | None:
    """Link a location surface and complete it to a (city, country) tuple."""
    return resolver.locate_surface(span.surface, language)


def predict_location(
    ranked: Iterable[Candidate],
    language: str,
    resolver: Resolver,
) -> LocationTuple | None:
    """Location tuple of the first resolvable candidate, in `ranked` order.

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


def ranking_record(
    article_id: str, mode: str, ranked: Sequence[Candidate]
) -> dict[str, Any]:
    """One persistable JSONL record of a ranking run."""
    return dict(
        article_id=article_id,
        mode=mode,
        candidates=[candidate.to_json() for candidate in ranked],
    )
