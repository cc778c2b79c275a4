"""Candidate rendering, cosine ranking and the first-mention baseline."""

import numpy as np
import pytest

from newsgeo.config import (
    LOCATED_NON_LOCATIONS,
    LOCATION_ABSTRACTS,
    NON_LOCATION_ABSTRACTS,
    NON_LOCATION_IN_LOCATION,
    NON_LOCATIONS,
    ONLY_LOCATIONS,
    REPRESENTATION_MODES,
)
from newsgeo.embedding import MockEmbedder, cosine, embed_document
from newsgeo.locations import LocationTuple
from newsgeo.ner import NerSpan
from newsgeo.ranking import (
    Candidate,
    baseline_first_location,
    build_candidate_pool,
    build_representation,
    predict_location,
    rank_candidates,
    ranking_record,
)

PARIS_SPAN = NerSpan("Paris", 27, 32, "LOC", "g")
QUEEN_SPAN = NerSpan("Queen Elizabeth II", 0, 18, "person", "g")
TEXT = "Queen Elizabeth II visited Paris."


class TestBuildRepresentation:
    def test_location_surface_mode(self, resolver):
        candidate = build_representation(PARIS_SPAN, "en", ONLY_LOCATIONS, resolver)
        assert candidate.text == "Paris"
        assert candidate.location is None

    def test_location_mode_rejects_non_location_span(self, resolver):
        assert build_representation(QUEEN_SPAN, "en", ONLY_LOCATIONS, resolver) is None
        assert build_representation(QUEEN_SPAN, "en", LOCATION_ABSTRACTS, resolver) is None

    def test_non_location_modes_reject_location_span(self, resolver):
        for mode in (NON_LOCATIONS, LOCATED_NON_LOCATIONS, NON_LOCATION_IN_LOCATION):
            assert build_representation(PARIS_SPAN, "en", mode, resolver) is None

    def test_non_location_surface_mode(self, resolver):
        candidate = build_representation(QUEEN_SPAN, "en", NON_LOCATIONS, resolver)
        assert candidate.text == "Queen Elizabeth II"

    def test_located_non_location_renders_resolved_chain(self, resolver):
        candidate = build_representation(QUEEN_SPAN, "en", LOCATED_NON_LOCATIONS, resolver)
        assert candidate.text == "Mayfair, London, United Kingdom"
        assert candidate.location.city == "London"
        assert candidate.location.country_qid == "Q145"

    def test_surface_in_location_mode(self, resolver):
        candidate = build_representation(QUEEN_SPAN, "en", NON_LOCATION_IN_LOCATION, resolver)
        assert candidate.text == "Queen Elizabeth II in Mayfair, London, United Kingdom"
        assert candidate.location.city == "London"

    def test_abstract_modes_use_page_abstracts(self, resolver):
        located = build_representation(PARIS_SPAN, "en", LOCATION_ABSTRACTS, resolver)
        assert located.text == "Paris is a major city of France."
        person = build_representation(QUEEN_SPAN, "en", NON_LOCATION_ABSTRACTS, resolver)
        assert "reigned for decades" in person.text

    def test_unlocatable_non_location_dropped(self, resolver):
        span = NerSpan("Politics", 0, 8, "misc", "g")
        assert build_representation(span, "en", LOCATED_NON_LOCATIONS, resolver) is None

    def test_unknown_mode_rejected(self, resolver):
        with pytest.raises(ValueError):
            build_representation(PARIS_SPAN, "en", "best_guess", resolver)

    def test_all_modes_are_known(self):
        assert set(REPRESENTATION_MODES) == {
            ONLY_LOCATIONS,
            NON_LOCATIONS,
            LOCATED_NON_LOCATIONS,
            NON_LOCATION_IN_LOCATION,
            LOCATION_ABSTRACTS,
            NON_LOCATION_ABSTRACTS,
        }


class TestCandidatePool:
    def test_default_mode_union(self, resolver):
        spans = [QUEEN_SPAN, PARIS_SPAN]
        pool = build_candidate_pool(
            spans, "en", [ONLY_LOCATIONS, LOCATED_NON_LOCATIONS], resolver
        )
        assert [c.text for c in pool] == [
            "Mayfair, London, United Kingdom",
            "Paris",
        ]

    def test_duplicate_offset_text_collapsed(self, resolver):
        pool = build_candidate_pool(
            [PARIS_SPAN, PARIS_SPAN], "en", [ONLY_LOCATIONS], resolver
        )
        assert len(pool) == 1

    def test_sorted_by_offset(self, resolver):
        late = NerSpan("Berlin", 40, 46, "LOC", "g")
        pool = build_candidate_pool([late, PARIS_SPAN], "en", [ONLY_LOCATIONS], resolver)
        assert [c.span.start for c in pool] == [27, 40]


class ScriptedProvider:
    """Embeds by table lookup; unknown texts map to a fixed fallback vector."""

    name = "scripted"
    max_tokens = 64

    def __init__(self, table, fallback=(1.0, 0.0)):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        self.fallback = np.asarray(fallback, dtype=float)
        self.dimension = len(self.fallback)

    def token_count(self, text):
        return len(text.split())

    def embed(self, text):
        return self.table.get(text, self.fallback)


class TestRankCandidates:
    def test_empty_pool(self, mock_provider):
        assert rank_candidates("doc", [], mock_provider) == []

    def test_single_candidate_gets_its_cosine(self, mock_provider):
        candidates = [Candidate(PARIS_SPAN, "Paris")]
        ranked = rank_candidates(TEXT, candidates, mock_provider)
        expected = cosine(
            embed_document(TEXT, mock_provider), mock_provider.embed("Paris")
        )
        assert len(ranked) == 1
        assert ranked[0].score == pytest.approx(expected, abs=1e-12)

    def test_known_vectors_rank_as_expected(self):
        provider = ScriptedProvider(
            {"doc": [1.0, 0.0], "aligned": [1.0, 0.0], "orthogonal": [0.0, 1.0]}
        )
        candidates = [
            Candidate(NerSpan("orthogonal", 0, 10, "LOC", "g"), "orthogonal"),
            Candidate(NerSpan("aligned", 11, 18, "LOC", "g"), "aligned"),
        ]
        ranked = rank_candidates("doc", candidates, provider)
        assert [c.text for c in ranked] == ["aligned", "orthogonal"]
        assert ranked[0].score == pytest.approx(1.0)
        assert ranked[1].score == pytest.approx(0.0)

    def test_order_matches_brute_force_sort(self, mock_provider):
        texts = ["Paris", "Berlin", "Madrid", "London", "Rome"]
        candidates = [
            Candidate(NerSpan(t, 10 * i, 10 * i + len(t), "LOC", "g"), t)
            for i, t in enumerate(texts)
        ]
        document = "A summit of European capitals."
        ranked = rank_candidates(document, candidates, mock_provider)
        doc_vector = embed_document(document, mock_provider)
        expected = sorted(
            texts,
            key=lambda t: (-cosine(doc_vector, mock_provider.embed(t)), t),
        )
        # No cosine ties among hashed vectors, so text order is irrelevant.
        assert [c.text for c in ranked] == expected

    def test_ties_broken_by_earliest_offset(self):
        provider = ScriptedProvider({"doc": [1.0, 0.0]})
        early = Candidate(NerSpan("same", 5, 9, "LOC", "g"), "same")
        late = Candidate(NerSpan("same", 30, 34, "LOC", "g"), "same")
        ranked = rank_candidates("doc", [late, early], provider)
        assert [c.span.start for c in ranked] == [5, 30]

    def test_zero_norm_candidate_flagged_not_fatal(self, caplog):
        provider = ScriptedProvider(
            {"doc": [1.0, 0.0], "void": [0.0, 0.0], "fine": [1.0, 1.0]}
        )
        candidates = [
            Candidate(NerSpan("void", 0, 4, "LOC", "g"), "void"),
            Candidate(NerSpan("fine", 5, 9, "LOC", "g"), "fine"),
        ]
        with caplog.at_level("WARNING"):
            ranked = rank_candidates("doc", candidates, provider)
        assert [c.text for c in ranked] == ["fine", "void"]
        assert ranked[1].score == -1.0
        assert [r.getMessage() for r in caplog.records] == [
            "zero-norm embedding for 'void'; scored -1"
        ]

    def test_permutation_of_pool_does_not_change_ranking(self, mock_provider):
        texts = ["Paris", "Berlin", "Madrid", "London"]
        candidates = [
            Candidate(NerSpan(t, 10 * i, 10 * i + len(t), "LOC", "g"), t)
            for i, t in enumerate(texts)
        ]
        forward = rank_candidates("doc text", candidates, mock_provider)
        backward = rank_candidates("doc text", candidates[::-1], mock_provider)
        assert [c.text for c in forward] == [c.text for c in backward]


class TestPredictLocation:
    def test_empty_ranking(self, resolver):
        assert predict_location([], "en", resolver) is None

    def test_carried_location_wins(self, resolver):
        carried = LocationTuple("France", "Q142", "Paris", "Q90")
        ranked = [Candidate(PARIS_SPAN, "anything", location=carried, score=0.9)]
        assert predict_location(ranked, "en", resolver) == carried

    def test_top_surface_resolved(self, resolver):
        ranked = [Candidate(PARIS_SPAN, "Paris", score=0.9)]
        location = predict_location(ranked, "en", resolver)
        assert location == LocationTuple("France", "Q142", "Paris", "Q90")

    def test_unresolvable_top_falls_through(self, resolver, kb_cache):
        from newsgeo.linking import LinkResult

        kb_cache.put(
            "wplink", "en:Nowhereville", LinkResult("Nowhereville", "en").to_json()
        )
        nowhere = NerSpan("Nowhereville", 0, 12, "LOC", "g")
        ranked = [
            Candidate(nowhere, "Nowhereville", score=0.99),
            Candidate(NerSpan("Berlin", 20, 26, "LOC", "g"), "Berlin", score=0.5),
        ]
        location = predict_location(ranked, "en", resolver)
        assert location == LocationTuple("Germany", "Q183", "Berlin", "Q64")


class TestBaseline:
    def span(self, surface, start, label="LOC"):
        return NerSpan(surface, start, start + len(surface), label, "g")

    def test_earliest_location_wins(self, resolver):
        spans = [self.span("Paris", 50), self.span("Berlin", 10)]
        location = baseline_first_location(spans, "en", resolver)
        assert location.city == "Berlin"

    def test_unresolvable_first_falls_through(self, resolver, kb_cache):
        from newsgeo.linking import LinkResult

        kb_cache.put("wplink", "en:Nowhere", LinkResult("Nowhere", "en").to_json())
        spans = [self.span("Nowhere", 0), self.span("Paris", 20)]
        location = baseline_first_location(spans, "en", resolver)
        assert location.city == "Paris"

    def test_plain_baseline_skips_non_locations(self, resolver):
        spans = [self.span("Eiffel Tower", 0, label="misc"), self.span("Berlin", 40)]
        location = baseline_first_location(spans, "en", resolver)
        assert location.city == "Berlin"

    def test_located_non_location_variant_uses_page_location(self, resolver):
        """With the flag, the Eiffel Tower mention places the document in Paris."""
        spans = [self.span("Eiffel Tower", 0, label="misc"), self.span("Berlin", 40)]
        location = baseline_first_location(
            spans, "en", resolver, include_located_non_locations=True
        )
        assert location == LocationTuple("France", "Q142", "Paris", "Q90")

    def test_no_resolvable_span(self, resolver):
        spans = [self.span("Politics", 0, label="misc")]
        assert baseline_first_location(spans, "en", resolver) is None
        assert (
            baseline_first_location(
                spans, "en", resolver, include_located_non_locations=True
            )
            is None
        )


class TestHelpers:
    def test_ranking_record_shape(self):
        ranked = [
            Candidate(
                PARIS_SPAN,
                "Paris",
                score=0.75,
                location=LocationTuple("France", "Q142", "Paris", "Q90"),
            )
        ]
        record = ranking_record("en-001", ONLY_LOCATIONS, ranked)
        assert record == {
            "article_id": "en-001",
            "mode": ONLY_LOCATIONS,
            "candidates": [
                {
                    "text": "Paris",
                    "score": 0.75,
                    "city_qid": "Q90",
                    "country_qid": "Q142",
                }
            ],
        }

