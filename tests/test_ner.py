"""Gazetteer provider, ensembling and location filtering."""

import json
import random
import re

import pytest

from newsgeo.ner import (
    LOCATION_LABELS,
    GazetteerNer,
    NerSpan,
    _word_character,
    ensemble_spans,
    is_location_label,
    normalize_label,
)

from conftest import FIXTURES


class TestLabels:
    def test_location_label_set(self):
        assert LOCATION_LABELS == {"loc", "location", "geopolitical area", "gpe"}

    @pytest.mark.parametrize("label", ["LOC", "loc", " Location ", "GPE", "Geopolitical Area"])
    def test_location_labels_normalize(self, label):
        assert is_location_label(label)

    @pytest.mark.parametrize("label", ["PER", "person", "ORG", "misc", ""])
    def test_non_location_labels(self, label):
        assert not is_location_label(label)

    def test_normalize_label(self):
        assert normalize_label("  LOC ") == "loc"


class TestNerSpan:
    def test_validate_against_text(self):
        NerSpan("Paris", 0, 5, "LOC", "g").validate("Paris is big")
        with pytest.raises(ValueError):
            NerSpan("Paris", 0, 5, "LOC", "g").validate("Berlin falls")
        with pytest.raises(ValueError):
            NerSpan("Paris", 3, 3, "LOC", "g").validate("aaaParis")


class TestGazetteerNer:
    def test_finds_every_whole_word_occurrence(self):
        ner = GazetteerNer({"Paris": "LOC"})
        spans = ner.spans("Paris, then Paris again. Comparison.", "en")
        assert [s.start for s in spans] == [0, 12]
        assert all(s.surface == "Paris" and s.label == "LOC" for s in spans)

    def test_no_substring_matches(self):
        ner = GazetteerNer({"London": "LOC"})
        assert ner.spans("Londra and Londoners", "en") == []

    def test_multi_word_entries(self):
        ner = GazetteerNer({"Eiffel Tower": "MISC"})
        spans = ner.spans("The Eiffel Tower sparkles.", "en")
        assert [(s.start, s.end) for s in spans] == [(4, 16)]

    def test_output_sorted_by_offset(self):
        ner = GazetteerNer({"Berlin": "LOC", "Aachen": "LOC"})
        spans = ner.spans("Berlin before Aachen", "en")
        assert [s.surface for s in spans] == ["Berlin", "Aachen"]

    @pytest.mark.parametrize(
        "entries, text",
        [
            ({"Paris": "LOC"}, "Parisian cafés"),
            ({"Paris": "LOC", "Parisian": "MISC"}, "A Parisian in Paris."),
            # A rejected hit overlaps the match after it; matches never overlap.
            ({"a a": "LOC"}, "ba a a"),
            ({"a a": "LOC"}, "a a a a a"),
            # The character before a hit is a word character.
            ({"ab": "LOC"}, "xab ab"),
            ({"ab": "LOC"}, "_ab ab_ ab"),
            # Names at the start and at the end of the text.
            ({"Rome": "LOC", "Oslo": "LOC"}, "Rome, then Oslo"),
            ({"Rome": "LOC"}, "Rome"),
            # A Unicode letter next to the name is a word character.
            ({"Paris": "LOC"}, "éParis Parisé Paris"),
            ({"España": "LOC", "São Paulo": "LOC"}, "ñEspaña España, São Paulo São Pauloã"),
            # An underscore or a digit is a word character; punctuation is not.
            ({"Paris": "LOC"}, "Paris_"),
            ({"Paris": "LOC"}, "2Paris"),
            ({"Paris": "LOC"}, "Parisé"),
            ({"Paris": "LOC"}, "Paris."),
            # Back-to-back repeats.
            ({"Paris": "LOC"}, "ParisParis"),
            ({"Paris": "LOC"}, "Paris Paris.Paris,Paris"),
            ({"Paris": "LOC"}, "ParisParis Paris"),
        ],
    )
    def test_spans_match_an_unfiltered_regex_scan(self, entries, text):
        assert _spans(GazetteerNer(entries), text) == regex_scan(entries, text)

    def test_spans_match_an_unfiltered_regex_scan_on_random_texts(self):
        entries = {
            "a a": "LOC",
            "ab": "LOC",
            "b": "MISC",
            "Paris": "LOC",
            "São Paulo": "LOC",
            "New York City": "GPE",
            "New York": "LOC",
            "O'Hare": "ORG",
        }
        pieces = [*entries, "a", "b", "é", "ß", "_", "1", " ", " ", ", ", ".", "-", "'", "\n"]
        ner = GazetteerNer(entries)
        rng = random.Random(16)
        for _ in range(500):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 24)))
            assert _spans(ner, text) == regex_scan(entries, text), text

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            GazetteerNer({"": "LOC"})

    def test_spans_match_an_unfiltered_regex_scan_on_fixture_articles(
        self, gazetteer_ner, articles
    ):
        entries = json.loads((FIXTURES / "gazetteer.json").read_text(encoding="utf-8"))
        for article in articles:
            assert _spans(gazetteer_ner, article.text) == regex_scan(entries, article.text)

    def test_word_character_is_what_backslash_w_matches(self):
        word = re.compile(r"\w").match
        mismatches = [
            code for code in range(0x110000)
            if _word_character(chr(code)) != (word(chr(code)) is not None)
        ]
        assert mismatches == []

    def test_unicode_boundaries(self):
        ner = GazetteerNer({"España": "LOC"})
        spans = ner.spans("Viva España!", "es")
        assert [(s.start, s.end) for s in spans] == [(5, 11)]


def regex_scan(entries, text):
    """Every whole-word match of every entry, with no pre-filter."""
    found = []
    for entry, label in entries.items():
        for match in re.finditer(r"(?<!\w)" + re.escape(entry) + r"(?!\w)", text):
            found.append((match.start(), match.end(), match.group(0), label))
    return sorted(found)


def _spans(ner, text):
    return sorted((s.start, s.end, s.surface, s.label) for s in ner.spans(text, "xx"))


class ScriptedNer:
    def __init__(self, name, spans):
        self.name = name
        self._spans = spans

    def spans(self, text, language):
        return list(self._spans)


class TestEnsemble:
    TEXT = "Queen Elizabeth II visited Paris."

    def test_union_of_providers(self):
        a = ScriptedNer("a", [NerSpan("Paris", 27, 32, "LOC", "a")])
        b = ScriptedNer("b", [NerSpan("Queen Elizabeth II", 0, 18, "PER", "b")])
        spans = ensemble_spans(self.TEXT, "en", [a, b])
        assert [s.surface for s in spans] == ["Queen Elizabeth II", "Paris"]

    def test_exact_duplicates_keep_first_provider(self):
        a = ScriptedNer("a", [NerSpan("Paris", 27, 32, "LOC", "a")])
        b = ScriptedNer("b", [NerSpan("Paris", 27, 32, "loc", "b")])
        spans = ensemble_spans(self.TEXT, "en", [a, b])
        assert len(spans) == 1
        assert spans[0].provider == "a"

    def test_same_span_different_label_both_kept(self):
        a = ScriptedNer("a", [NerSpan("Paris", 27, 32, "LOC", "a")])
        b = ScriptedNer("b", [NerSpan("Paris", 27, 32, "ORG", "b")])
        assert len(ensemble_spans(self.TEXT, "en", [a, b])) == 2

    def test_overlapping_spans_both_kept(self):
        a = ScriptedNer("a", [NerSpan("Queen Elizabeth II", 0, 18, "PER", "a")])
        b = ScriptedNer("b", [NerSpan("Elizabeth II", 6, 18, "PER", "b")])
        spans = ensemble_spans(self.TEXT, "en", [a, b])
        assert [(s.start, s.end) for s in spans] == [(0, 18), (6, 18)]

    def test_invalid_span_rejected(self):
        bad = ScriptedNer("bad", [NerSpan("Nope", 0, 4, "LOC", "bad")])
        with pytest.raises(ValueError):
            ensemble_spans(self.TEXT, "en", [bad])

    def test_fixture_gazetteer_on_fixture_article(self, gazetteer_ner, articles):
        """The checked-in gazetteer finds the seeded mentions of each article."""
        article = next(a for a in articles if a.id == "en-001")
        spans = ensemble_spans(article.text, "en", [gazetteer_ner])
        surfaces = {s.surface for s in spans}
        assert "Paris" in surfaces
        assert "Eiffel Tower" in surfaces
        found = {(s.start, s.end) for s in spans}
        for mention in article.mentions:
            assert (mention.start, mention.end) in found
