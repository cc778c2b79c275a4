"""Named-entity recognition: provider protocol, ensembling, location filtering.

The pipeline does not depend on one specific NER system. Anything exposing
``name`` and ``spans(text, language)`` can act as a provider; the ensemble is
the union of all providers' spans with exact duplicates removed. Spans that
merely overlap are both kept, since two systems disagreeing on boundaries is
signal, not noise, for the downstream ranker.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import Protocol, Sequence

# Entity classes that count as location mentions across the supported tagsets.
LOCATION_LABELS = frozenset({"loc", "location", "geopolitical area", "gpe"})


@functools.lru_cache(maxsize=1024)
def normalize_label(label: str) -> str:
    return label.strip().casefold()


def is_location_label(label: str) -> bool:
    return normalize_label(label) in LOCATION_LABELS


@dataclasses.dataclass(frozen=True)
class NerSpan:
    """One entity occurrence found by one provider."""

    surface: str
    start: int
    end: int
    label: str
    provider: str

    def validate(self, text: str) -> None:
        if self.end <= self.start or self.start < 0 or self.end > len(text):
            raise ValueError(f"span ({self.start}, {self.end}) out of bounds")
        if text[self.start : self.end] != self.surface:
            raise ValueError(f"span surface {self.surface!r} does not match text")


class NerProvider(Protocol):
    name: str

    def spans(self, text: str, language: str) -> list[NerSpan]: ...


class GazetteerNer:
    """Dictionary-based provider for tests and demos.

    Finds every whole-word occurrence of each gazetteer name, so its output is
    a pure function of (gazetteer, text). Longer names do not suppress shorter
    ones; deduplication is the ensemble's job. A name is found by literal
    search, and each hit is kept only where the name's whole-word pattern
    matches there; the scan goes on after a match, or one character past a
    rejected hit, which gives exactly the non-overlapping matches of
    ``pattern.finditer(text)``.
    """

    name = "gazetteer"

    def __init__(self, entries: dict[str, str]):
        if "" in entries:
            raise ValueError("a gazetteer name must be non-empty")
        self._patterns = [
            (entry, re.compile(r"(?<!\w)" + re.escape(entry) + r"(?!\w)"), label)
            for entry, label in sorted(entries.items())
        ]

    def spans(self, text: str, language: str) -> list[NerSpan]:
        found = []
        for entry, pattern, label in self._patterns:
            start = text.find(entry)
            while start != -1:
                # `match` at an offset still sees the character before it, so
                # the lookbehind rejects a hit that follows a word character.
                match = pattern.match(text, start)
                if match is None:
                    start = text.find(entry, start + 1)
                    continue
                found.append(
                    NerSpan(
                        surface=match.group(0),
                        start=start,
                        end=match.end(),
                        label=label,
                        provider=self.name,
                    )
                )
                start = text.find(entry, match.end())
        return sorted(found, key=_span_order)


class SpacyNer:
    """Adapter over a loaded spaCy pipeline (optional dependency)."""

    name = "spacy"

    def __init__(self, model: str = "en_core_web_sm"):
        try:
            import spacy
        except ImportError as exc:
            raise ImportError(
                "spaCy is not installed; install it or use another provider"
            ) from exc
        self._nlp = spacy.load(model)

    def spans(self, text: str, language: str) -> list[NerSpan]:
        return [
            NerSpan(
                surface=ent.text,
                start=ent.start_char,
                end=ent.end_char,
                label=ent.label_,
                provider=self.name,
            )
            for ent in self._nlp(text).ents
        ]


def ensemble_spans(
    text: str, language: str, providers: Sequence[NerProvider]
) -> list[NerSpan]:
    """Union of all providers' spans, deduplicated and sorted by offset.

    Two spans are duplicates when (start, end, normalized label) coincide; the
    first provider's span is kept. Overlapping but non-identical spans all
    survive.
    """
    seen: set[tuple[int, int, str]] = set()
    merged: list[NerSpan] = []
    for provider in providers:
        for span in provider.spans(text, language):
            span.validate(text)
            key = (span.start, span.end, normalize_label(span.label))
            if key in seen:
                continue
            seen.add(key)
            merged.append(span)
    return sorted(merged, key=_span_order)


def _span_order(span: NerSpan) -> tuple[int, int, str]:
    return (span.start, span.end, normalize_label(span.label))
