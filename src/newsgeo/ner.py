"""Named-entity recognition: provider protocol, ensembling, location filtering.

The pipeline does not depend on one specific NER system. Anything exposing
``name`` and ``spans(text, language)`` can act as a provider; the ensemble is
the union of all providers' spans with exact duplicates removed. Spans that
merely overlap are both kept, since two systems disagreeing on boundaries is
signal, not noise, for the downstream ranker.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Protocol, Sequence

# Entity classes that count as location mentions across the supported tagsets.
LOCATION_LABELS = frozenset({"loc", "location", "geopolitical area", "gpe"})


@functools.lru_cache(maxsize=1024)
def normalize_label(label: str) -> str:
    return label.strip().casefold()


def is_location_label(label: str) -> bool:
    return normalize_label(label) in LOCATION_LABELS


class NerSpan(NamedTuple):
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
    search, and a hit is kept only when neither the character before it nor
    the one after it is a word character; the scan goes on after a kept hit,
    or one character past a rejected one. That gives exactly the matches of
    ``re.finditer(r"(?<!\\w)" + re.escape(name) + r"(?!\\w)", text)``, without
    compiling a pattern per name.
    """

    name = "gazetteer"

    def __init__(self, entries: dict[str, str]):
        if "" in entries:
            raise ValueError("a gazetteer name must be non-empty")
        self._entries = sorted(entries.items())

    def spans(self, text: str, language: str) -> list[NerSpan]:
        found = []
        for entry, label in self._entries:
            start = text.find(entry)
            while start != -1:
                end = start + len(entry)
                if (start > 0 and _word_character(text[start - 1])) or (
                    end < len(text) and _word_character(text[end])
                ):
                    start = text.find(entry, start + 1)
                    continue
                found.append(
                    NerSpan(surface=entry, start=start, end=end, label=label, provider=self.name)
                )
                start = text.find(entry, end)
        return sorted(found, key=_span_order)


def _word_character(c: str) -> bool:
    """Whether `c` is a word character: what ``\\w`` matches in a str pattern."""
    return c.isalnum() or c == "_"


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
