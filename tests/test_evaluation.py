"""MP@1 scoring, experiment runs and report formatting."""

import time
from collections import Counter

import pytest

from newsgeo.corpus import Article, GoldAnnotation
from newsgeo.embedding import MockEmbedder
from newsgeo.config import LOCATED_NON_LOCATIONS, ONLY_LOCATIONS, load_config
from newsgeo.evaluation import (
    EvalReport,
    Pipeline,
    baseline_predictor,
    format_report_table,
    precision_at_1,
    run_experiment,
)
from newsgeo.kb import KbCache
from newsgeo.locations import LocationTuple
from newsgeo.memo import map_articles, waiting
from newsgeo.ner import GazetteerNer

from conftest import count_calls

PARIS = LocationTuple("France", "Q142", "Paris", "Q90")
BERLIN = LocationTuple("Germany", "Q183", "Berlin", "Q64")
FRANCE_ONLY = LocationTuple("France", "Q142")


def gold_for(*pairs):
    return {
        article_id: GoldAnnotation(article_id, (location,))
        for article_id, location in pairs
    }


class TestPrecisionAt1:
    def test_single_hit_and_level_separation(self):
        gold = gold_for(("a-1", PARIS))
        languages = {"a-1": "en"}
        predictions = {"a-1": FRANCE_ONLY}
        country = precision_at_1(predictions, gold, languages, "country")
        city = precision_at_1(predictions, gold, languages, "city")
        assert country.macro == 1.0 and country.hits == 1
        assert city.macro == 0.0 and city.hits == 0

    def test_none_prediction_is_a_miss(self):
        gold = gold_for(("a-1", PARIS))
        result = precision_at_1({"a-1": None}, gold, {"a-1": "en"}, "country")
        assert result.macro == 0.0

    def test_missing_entry_is_a_miss_with_warning(self, caplog):
        gold = gold_for(("a-1", PARIS), ("a-2", BERLIN))
        languages = {"a-1": "en", "a-2": "en"}
        with caplog.at_level("WARNING"):
            result = precision_at_1({"a-1": PARIS}, gold, languages, "country")
        assert result.per_language["en"] == 0.5
        assert "a-2" in caplog.text

    def test_unknown_prediction_ignored_with_warning(self, caplog):
        gold = gold_for(("a-1", PARIS))
        with caplog.at_level("WARNING"):
            result = precision_at_1(
                {"a-1": PARIS, "ghost": PARIS}, gold, {"a-1": "en"}, "country"
            )
        assert result.documents == 1
        assert "ghost" in caplog.text

    def test_any_gold_tuple_matches(self):
        gold = {"a-1": GoldAnnotation("a-1", (BERLIN, PARIS))}
        result = precision_at_1({"a-1": PARIS}, gold, {"a-1": "en"}, "city")
        assert result.macro == 1.0

    def test_macro_is_unweighted_language_mean(self):
        """3/5 in one language and 4/5 in another average to 0.70 exactly."""
        gold = {}
        languages = {}
        predictions = {}
        for i in range(5):
            for language, hits in (("en", 3), ("fr", 4)):
                article_id = f"{language}-{i}"
                gold[article_id] = GoldAnnotation(article_id, (PARIS,))
                languages[article_id] = language
                predictions[article_id] = PARIS if i < hits else BERLIN
        result = precision_at_1(predictions, gold, languages, "country")
        assert result.per_language == {"en": 3 / 5, "fr": 4 / 5}
        assert result.macro == (3 / 5 + 4 / 5) / 2
        assert result.macro == 0.70
        assert result.micro == 7 / 10
        assert result.hits == 7 and result.documents == 10

    def test_macro_differs_from_micro_on_skewed_languages(self):
        gold = gold_for(
            ("en-1", PARIS), ("en-2", PARIS), ("en-3", PARIS), ("fr-1", PARIS)
        )
        languages = {"en-1": "en", "en-2": "en", "en-3": "en", "fr-1": "fr"}
        predictions = {"en-1": PARIS, "en-2": BERLIN, "en-3": BERLIN, "fr-1": PARIS}
        result = precision_at_1(predictions, gold, languages, "country")
        assert result.macro == (1 / 3 + 1.0) / 2
        assert result.micro == 2 / 4

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            precision_at_1({}, {}, {}, "country")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            precision_at_1({}, gold_for(("a-1", PARIS)), {"a-1": "en"}, "region")

    def test_gold_article_missing_language_rejected(self):
        with pytest.raises(ValueError):
            precision_at_1({}, gold_for(("a-1", PARIS)), {}, "country")

    def test_result_independent_of_prediction_insert_order(self):
        gold = gold_for(("a-1", PARIS), ("a-2", BERLIN), ("a-3", PARIS))
        languages = {"a-1": "en", "a-2": "fr", "a-3": "en"}
        forward = {"a-1": PARIS, "a-2": BERLIN, "a-3": None}
        backward = dict(reversed(list(forward.items())))
        a = precision_at_1(forward, gold, languages, "country")
        b = precision_at_1(backward, gold, languages, "country")
        assert a == b


class TestRunExperiment:
    def make_world(self):
        corpus = [
            Article(
                id=f"{lang}-{i}",
                language=lang,
                title="t",
                text="t\nbody",
                categories=[],
                mentions=[],
            )
            for lang in ("en", "fr")
            for i in range(2)
        ]
        gold = {
            a.id: GoldAnnotation(a.id, (PARIS,)) for a in corpus
        }
        return corpus, gold

    def test_scores_and_trace(self):
        corpus, gold = self.make_world()
        answers = {"en-0": PARIS, "en-1": BERLIN, "fr-0": PARIS, "fr-1": PARIS}
        report = run_experiment(corpus, gold, lambda a: answers[a.id], system="scripted")
        assert report.system == "scripted"
        assert report.country.per_language == {"en": 0.5, "fr": 1.0}
        assert report.country.macro == 0.75
        assert [t.article_id for t in report.trace] == ["en-0", "en-1", "fr-0", "fr-1"]
        entry = {t.article_id: t for t in report.trace}
        assert entry["en-1"].country_hit is False
        assert entry["en-0"].city_hit is True
        assert entry["en-0"].to_json()["error"] is None

    def test_city_hit_implies_country_hit_on_consistent_gold(self):
        corpus, gold = self.make_world()
        answers = {"en-0": PARIS, "en-1": FRANCE_ONLY, "fr-0": BERLIN, "fr-1": None}
        report = run_experiment(corpus, gold, lambda a: answers[a.id])
        for entry in report.trace:
            if entry.city_hit:
                assert entry.country_hit

    def test_predictor_exception_fails_the_run(self):
        corpus, gold = self.make_world()

        def moody(article):
            if article.id == "fr-0":
                raise RuntimeError("provider exploded")
            return PARIS

        with pytest.raises(RuntimeError, match="^provider exploded$"):
            run_experiment(corpus, gold, moody)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_predictor_value_error_names_the_article(self, workers):
        corpus, gold = self.make_world()

        def moody(article):
            if article.id == "fr-0":
                raise ValueError("bad value")
            return PARIS

        with pytest.raises(ValueError, match="^article fr-0: bad value$"):
            run_experiment(corpus, gold, moody, workers=workers)

    def test_gold_article_absent_from_corpus_rejected(self):
        corpus, gold = self.make_world()
        gold["ghost"] = GoldAnnotation("ghost", (PARIS,))
        with pytest.raises(ValueError, match="ghost"):
            run_experiment(corpus, gold, lambda a: PARIS)

    def test_empty_gold_rejected(self):
        corpus, _ = self.make_world()
        with pytest.raises(ValueError):
            run_experiment(corpus, {}, lambda a: PARIS)

    def test_worker_count_does_not_change_the_report(self):
        corpus, gold = self.make_world()
        answers = {"en-0": PARIS, "en-1": BERLIN, "fr-0": None, "fr-1": PARIS}
        reports = [
            run_experiment(corpus, gold, lambda a: answers[a.id], workers=w)
            for w in (1, 2, 4)
        ]
        as_json = [r.to_json() for r in reports]
        assert as_json[0] == as_json[1] == as_json[2]

    def test_invalid_worker_count_rejected(self):
        corpus, gold = self.make_world()
        with pytest.raises(ValueError):
            run_experiment(corpus, gold, lambda a: PARIS, workers=0)

    def test_map_articles_keeps_corpus_order_on_a_pool(self):
        corpus, _ = self.make_world()
        delays = {"en-0": 0.03, "en-1": 0.0, "fr-0": 0.02, "fr-1": 0.0}

        def slow_id(article):
            waiting()  # as a KB fetch does; without it the map stays on one thread
            time.sleep(delays[article.id])
            return article.id

        expected = [a.id for a in corpus]
        assert map_articles(slow_id, corpus) == expected
        assert map_articles(slow_id, corpus, workers=4) == expected


class TestFixturePipeline:
    """End-to-end scoring of the offline mini-world."""

    def test_baseline_country_macro(self, articles, gold, resolver, gazetteer_ner):
        predictor = baseline_predictor(resolver, [gazetteer_ner], (ONLY_LOCATIONS,))
        report = run_experiment(articles, gold, predictor, system="baseline")
        # Every fixture title leads with the gold city, so the baseline is exact
        # at country level; es-002 has country-only gold, so city macro dips.
        assert report.country.macro == 1.0
        assert report.city.per_language == {
            "de": 1.0,
            "en": 1.0,
            "es": 0.5,
            "fr": 1.0,
            "it": 1.0,
        }
        assert report.city.macro == 0.9

    @pytest.mark.parametrize(
        "modes, gets",
        [((ONLY_LOCATIONS,), 20), ((ONLY_LOCATIONS, LOCATED_NON_LOCATIONS), 26)],
    )
    def test_baselines_read_only_the_records_up_to_their_prediction(
        self, articles, gold, resolver, gazetteer_ner, monkeypatch, modes, gets
    ):
        """A baseline stops at its first resolvable candidate: rendering every
        candidate first would read more KB records."""
        calls = count_calls(monkeypatch, KbCache, "get")
        run_experiment(articles, gold, baseline_predictor(resolver, [gazetteer_ner], modes))
        assert len(calls) == gets

    def test_ranked_predictor_runs_deterministically(
        self, articles, gold, resolver, gazetteer_ner, mock_provider
    ):
        predictor = Pipeline(
            resolver,
            [gazetteer_ner],
            mock_provider,
            [ONLY_LOCATIONS, LOCATED_NON_LOCATIONS],
        ).predict
        first = run_experiment(articles, gold, predictor, system="ranked", workers=1)
        second = run_experiment(articles, gold, predictor, system="ranked", workers=4)
        assert first.to_json() == second.to_json()
        assert first.country.documents == 10

    def test_pipeline_predicts_its_best_resolvable_candidate(
        self, articles, resolver, gazetteer_ner, mock_provider
    ):
        from newsgeo.ranking import predict_location

        pipeline = Pipeline(
            resolver, [gazetteer_ner], mock_provider, [ONLY_LOCATIONS, LOCATED_NON_LOCATIONS]
        )
        for article in articles:
            ranked = pipeline.rank(article)
            assert [c.score for c in ranked] == sorted((c.score for c in ranked), reverse=True)
            assert pipeline.predict(article) == predict_location(
                ranked, article.language, resolver
            )

    def test_build_pipeline_follows_the_config(self, fixture_tree):
        config = load_config(fixture_tree["config"])._replace(
            representation_modes=["only_locations"], chunking_mode="truncate"
        )
        pipeline = config.build_pipeline()
        assert pipeline.modes == ("only_locations",)
        assert pipeline.chunking == "truncate"
        assert pipeline.embedder.name == "mock-16d"
        assert [p.name for p in pipeline.providers] == ["gazetteer"]
        assert pipeline.resolver.linker.policy == "cache-only"

    def test_person_first_article_agrees_across_baseline_variants(
        self, articles, resolver, gazetteer_ner
    ):
        """en-002 opens with the Queen; her page location and the first explicit
        location mention both resolve to London, so the two variants agree."""
        article = next(a for a in articles if a.id == "en-002")
        plain = baseline_predictor(resolver, [gazetteer_ner], (ONLY_LOCATIONS,))
        located = baseline_predictor(
            resolver, [gazetteer_ner], (ONLY_LOCATIONS, LOCATED_NON_LOCATIONS)
        )
        assert plain(article).city == "London"
        assert located(article) == plain(article)


class TestPipelineMemo:
    """A pipeline resolves and embeds each distinct input once."""

    def test_a_second_predict_reads_no_cache_and_embeds_nothing(
        self, fixture_tree, articles, monkeypatch
    ):
        pipeline = load_config(fixture_tree["config"]).build_pipeline()
        gets = count_calls(monkeypatch, KbCache, "get")
        embeds = count_calls(monkeypatch, MockEmbedder, "embed")
        for article in articles:
            first = pipeline.predict(article)
            before = (len(gets), len(embeds))
            assert pipeline.predict(article) == first
            assert (len(gets), len(embeds)) == before

    def test_a_new_pipeline_starts_with_an_empty_memo(
        self, fixture_tree, articles, monkeypatch
    ):
        config = load_config(fixture_tree["config"])
        gets = count_calls(monkeypatch, KbCache, "get")
        embeds = count_calls(monkeypatch, MockEmbedder, "embed")
        counts = []
        for _ in range(2):
            pipeline = config.build_pipeline()
            start = (len(gets), len(embeds))
            pipeline.predict(articles[0])
            counts.append((len(gets) - start[0], len(embeds) - start[1]))
        assert counts[0] == counts[1] and min(counts[0]) > 0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_each_distinct_text_is_embedded_once(
        self, fixture_tree, articles, monkeypatch, workers
    ):
        pipeline = load_config(fixture_tree["config"]).build_pipeline()
        embeds = count_calls(monkeypatch, MockEmbedder, "embed")
        map_articles(pipeline.rank, articles * 2, workers)
        texts = Counter(text for (text,) in embeds)
        assert {article.text for article in articles} <= set(texts)
        assert set(texts.values()) == {1}


class TestFormatting:
    def test_table_lists_languages_and_systems(self):
        gold = gold_for(("en-1", PARIS), ("fr-1", PARIS))
        languages = {"en-1": "en", "fr-1": "fr"}
        predictions = {"en-1": PARIS, "fr-1": None}
        country = precision_at_1(predictions, gold, languages, "country")
        city = precision_at_1(predictions, gold, languages, "city")
        report = EvalReport(system="demo", country=country, city=city, trace=[])
        table = format_report_table([report])
        assert "demo" in table
        assert "country" in table and "city" in table
        assert "0.5000" in table
