"""Corpus loading, validation, statistics and the train/validation split."""

import json
import random

import pytest

from newsgeo.config import LossConfig, PipelineConfig
from newsgeo.corpus import (
    Article,
    GoldAnnotation,
    LanguageStats,
    LoadReport,
    ParsedMention,
    compute_stats,
    format_stats_table,
    load_corpus,
    load_gold,
    save_corpus,
    split_train_validation,
)
from newsgeo.evaluation import LevelResult
from newsgeo.kb import DbpediaRecord, WikidataItem
from newsgeo.linking import LinkResult
from newsgeo.locations import LocatedEntity, LocationTuple
from newsgeo.ner import NerSpan
from newsgeo.pairs import TrainingPair
from newsgeo.training import TrainingReport


def make_article(article_id="a-1", language="en"):
    text = "Paris summit\nLeaders met in Paris today."
    start = text.index("Paris", 13)
    return Article(
        id=article_id,
        language=language,
        title="Paris summit",
        text=text,
        categories=["Paris"],
        mentions=[ParsedMention("Paris", start, start + 5, "Q90")],
        source_url=None,
    )


class TestArticle:
    def test_round_trip(self):
        article = make_article()
        again = Article.from_json(article.to_json())
        assert again == article

    def test_title_prepended_and_mentions_shifted(self):
        """A record with a separate body gets the title glued on in front."""
        body = "Leaders met in Paris today."
        record = {
            "id": "a-2",
            "lang": "en",
            "title": "Paris summit",
            "text": body,
            "categories": [],
            "mentions": [{"surface": "Paris", "start": 15, "end": 20, "qid": "Q90"}],
        }
        article = Article.from_json(record)
        assert article.text == "Paris summit\n" + body
        mention = article.mentions[0]
        assert article.text[mention.start : mention.end] == "Paris"
        assert mention.start == 15 + len("Paris summit\n")

    def test_title_already_prefix_is_untouched(self):
        article = make_article()
        reloaded = Article.from_json(article.to_json())
        assert reloaded.text == article.text
        assert reloaded.mentions == article.mentions

    def test_mention_surface_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParsedMention("Paris", 0, 5, "Q90").validate("London calling")

    def test_mention_span_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            ParsedMention("x", 3, 2, None).validate("abcdef")
        with pytest.raises(ValueError):
            ParsedMention("de", 3, 99, None).validate("abcde")

    def test_malformed_qid_rejected(self):
        with pytest.raises(ValueError):
            ParsedMention("ab", 0, 2, "90").validate("abcd")

    def test_unsupported_language_rejected(self):
        article = make_article(language="en")._replace(language="xx")
        with pytest.raises(ValueError):
            article.validate()


class TestLoadCorpus:
    def test_load_save_round_trip(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        original = [make_article("a-1"), make_article("a-2")]
        save_corpus(original, path)
        loaded, report = load_corpus(path, "en")
        assert loaded == original
        assert report.skipped == 0

    def test_bad_lines_skipped_with_warning(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        good = json.dumps(make_article("a-1").to_json())
        conflicting = json.dumps({**make_article("a-2").to_json(), "lang": "fr"})
        bad_span = make_article("a-3").to_json()
        bad_span["mentions"][0]["start"] = 0
        string_categories = json.dumps({**make_article("a-4").to_json(), "categories": "Paris"})
        lines = [good, "{not json", conflicting, json.dumps(bad_span), "[1, 2]", '"x"']
        path.write_text("\n".join([*lines, string_categories, ""]), encoding="utf-8")
        loaded, report = load_corpus(path, "en")
        assert [a.id for a in loaded] == ["a-1"]
        assert report.skipped == 6
        assert [w.split(":")[0] for w in report.warnings] == [f"line {n}" for n in range(2, 8)]
        assert report.warnings[-1] == (
            "line 7: categories must be a list of non-empty strings, got 'Paris'"
        )

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("text", 5, "text must be a string, got 5"),
            ("text", ["Paris"], "text must be a string, got ['Paris']"),
            ("text", None, "text must be a string, got None"),
            ("title", 5, "title must be a string, got 5"),
            ("url", 5, "url must be a string or null, got 5"),
            ("start", 2.0, "mention offsets must be integers, got (2.0, 5)"),
            ("start", True, "mention offsets must be integers, got (True, 5)"),
            ("id", None, "id must be a non-empty string, got None"),
            ("id", ["a"], "id must be a non-empty string, got ['a']"),
            ("id", 7, "id must be a non-empty string, got 7"),
            ("id", "", "id must be a non-empty string, got ''"),
            (
                "categories",
                ["Politics", ""],
                "categories must be a list of non-empty strings, got ['Politics', '']",
            ),
            (
                "categories",
                ["Politics", 5],
                "categories must be a list of non-empty strings, got ['Politics', 5]",
            ),
        ],
        ids=[
            "text-int", "text-list", "text-null", "title-int", "url-int", "start-float",
            "start-bool", "id-null", "id-list", "id-int", "id-empty", "category-empty",
            "category-int",
        ],
    )
    def test_field_of_the_wrong_type_skipped_with_warning(self, tmp_path, field, value, problem):
        record = {"id": "x1", "title": "T", "text": "Paris", "categories": [], "url": None}
        record["mentions"] = [{"surface": "Paris", "start": 0, "end": 5}]
        if field == "start":
            record["mentions"][0]["start"] = value
        else:
            record[field] = value
        path = tmp_path / "articles.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        loaded, report = load_corpus(path, "en")
        assert loaded == []
        assert report.warnings == [f"line 1: {problem}"]

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent.jsonl", "en")

    def test_missing_lang_field_uses_file_language(self, tmp_path):
        record = make_article("a-1").to_json()
        del record["lang"]
        path = tmp_path / "articles.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        loaded, _ = load_corpus(path, "en")
        assert loaded[0].language == "en"


class TestGold:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"article_id": "a-1", "locations": [{"city": "Paris", "city_qid": "Q90",'
            ' "country": "France", "country_qid": "Q142"}]}\n'
            '{"article_id": "a-2", "locations": [{"country": "Canada", "country_qid": "Q16"}]}\n',
            encoding="utf-8",
        )
        annotations = [
            GoldAnnotation(
                "a-1", (LocationTuple("France", "Q142", "Paris", "Q90"),)
            ),
            GoldAnnotation("a-2", (LocationTuple("Canada", "Q16"),)),
        ]
        gold = load_gold(path)
        assert gold["a-1"] == annotations[0]
        assert gold["a-2"] == annotations[1]

    def test_gold_without_locations_rejected(self):
        with pytest.raises(ValueError):
            GoldAnnotation("a-1", ()).validate()

    @pytest.mark.parametrize(
        "bad, problem",
        [
            ("[1]", "not a JSON object (list)"),
            ('{"article_id": "a-2", "locations": []}', "gold row a-2 has no locations"),
            ('{"article_id": "a-2"}', "missing field 'locations'"),
            ("{not json", "Expecting property name"),
            (
                '{"article_id": "a-2", "locations": [{"country": 5}]}',
                "country must be a non-empty string, got 5",
            ),
            (
                '{"article_id": "a-2", "locations": [{"country": "Peru", "city": ["Lima"]}]}',
                "city must be a string or null, got ['Lima']",
            ),
            (
                '{"article_id": null, "locations": [{"country": "Peru", "country_qid": "Q419"}]}',
                "article_id must be a non-empty string, got None",
            ),
            (
                '{"article_id": ["a"], "locations": [{"country": "Peru", "country_qid": "Q419"}]}',
                "article_id must be a non-empty string, got ['a']",
            ),
        ],
        ids=[
            "list",
            "empty-locations",
            "no-locations-field",
            "bad-json",
            "country-not-a-string",
            "city-not-a-string",
            "id-null",
            "id-list",
        ],
    )
    def test_bad_line_is_fatal_and_names_file_and_line(self, tmp_path, bad, problem):
        path = tmp_path / "gold.jsonl"
        good = '{"article_id": "a-1", "locations": [{"country": "Canada", "country_qid": "Q16"}]}'
        path.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc_info:
            load_gold(path)
        assert str(exc_info.value).startswith(f"{path}:3: {problem}")


class TestStats:
    def test_counts_and_cross_language_dedup(self):
        en_1 = make_article("en-1", "en")
        en_2 = make_article("en-2", "en")
        fr_article = Article(
            id="fr-1",
            language="fr",
            title="Paris",
            text="Paris et Berlin.",
            categories=[],
            mentions=[
                ParsedMention("Paris", 0, 5, "Q90"),
                ParsedMention("Berlin", 9, 15, "Q64"),
            ],
        )
        stats = compute_stats([en_1, en_2, fr_article])
        assert stats.per_language["en"].documents == 2
        assert stats.per_language["en"].mentions == 2
        assert stats.per_language["en"].unique_entity_ids == 1
        assert stats.per_language["fr"].unique_entity_ids == 2
        assert stats.total.documents == 3
        assert stats.total.mentions == 4
        # Q90 appears in both languages but counts once in the union.
        assert stats.total.unique_entity_ids == 2

    def test_table_contains_total_row(self):
        stats = compute_stats([make_article()])
        table = format_stats_table(stats)
        assert "Language" in table.splitlines()[0]
        assert table.splitlines()[-1].startswith("Total")


class TestSplit:
    def test_partition_is_disjoint_and_exhaustive(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(2, 40)
            items = [f"doc-{i}" for i in range(n)]
            fraction = rng.uniform(0.05, 0.95)
            train, validation = split_train_validation(items, fraction, seed=rng.randint(0, 99))
            assert sorted(train + validation) == sorted(items)
            assert not set(train) & set(validation)
            assert train and validation

    def test_validation_size_rounds_half_up(self):
        items = list(range(10))
        train, validation = split_train_validation(items, 0.25, seed=1)
        assert len(validation) == 3  # int(10 * 0.25 + 0.5)
        train, validation = split_train_validation(items, 0.2, seed=1)
        assert len(validation) == 2

    def test_same_seed_same_split(self):
        items = list(range(30))
        assert split_train_validation(items, 0.3, seed=7) == split_train_validation(
            items, 0.3, seed=7
        )

    def test_different_seed_changes_split(self):
        items = list(range(30))
        splits = {tuple(split_train_validation(items, 0.3, seed=s)[1]) for s in range(5)}
        assert len(splits) > 1

    def test_order_preserved_within_sides(self):
        items = list(range(20))
        train, validation = split_train_validation(items, 0.4, seed=3)
        assert train == sorted(train)
        assert validation == sorted(validation)

    def test_degenerate_sizes(self):
        assert split_train_validation(["only"], 0.5, seed=0) == (["only"], [])
        assert split_train_validation([], 0.5, seed=0) == ([], [])

    def test_fraction_out_of_range_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_train_validation([1, 2, 3], bad, seed=0)


# Factories of the record types that are immutable and hashable by value;
# each call builds a new, equal record.
FROZEN_RECORDS = {
    "LocationTuple": lambda: LocationTuple("France", "Q142", "Paris", "Q90"),
    "ParsedMention": lambda: ParsedMention("Paris", 0, 5, "Q90"),
    "GoldAnnotation": lambda: GoldAnnotation("en-0", (LocationTuple("France"),)),
    "NerSpan": lambda: NerSpan("Paris", 0, 5, "LOC", "gazetteer"),
    "TrainingPair": lambda: TrainingPair("en-0", "Paris summit", "Paris, France", 1),
    "LinkResult": lambda: LinkResult("Paris", "en", "Paris", "Q90", 0),
    "LocatedEntity": lambda: LocatedEntity(
        "Queen Elizabeth II", LocationTuple("United Kingdom"), "birthplace", "Mayfair"
    ),
}


class TestRecords:
    """Every record type is a NamedTuple."""

    @pytest.mark.parametrize("make", FROZEN_RECORDS.values(), ids=FROZEN_RECORDS)
    def test_frozen_records_reject_assignment_and_hash_by_value(self, make):
        record, twin = make(), make()
        assert record is not twin and record == twin and hash(record) == hash(twin)
        assert len({record, twin}) == 1
        for name in type(record).__annotations__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_location_repr(self):
        assert repr(LocationTuple("France")) == (
            "LocationTuple(country='France', country_qid=None, city=None, city_qid=None)"
        )

    def test_to_json(self):
        assert LinkResult("Paris", "en", "Paris", "Q90", 0).to_json() == {
            "surface": "Paris", "language": "en", "page_title": "Paris", "qid": "Q90",
            "rank_in_results": 0,
        }
        level = LevelResult("country", {"en": 0.5, "fr": 1.0}, 0.75, 2 / 3, 2, 3)
        assert level.to_json() == {
            "level": "country", "per_language": {"en": 0.5, "fr": 1.0}, "macro": 0.75,
            "micro": 2 / 3, "hits": 2, "documents": 3,
        }
        report = TrainingReport(
            "contrastive", 4, 3, 2, 1, 0.25, [0.5, 0.4], [0.3, 0.25], True, 8, 2, 0.05
        )
        assert report.to_json() == {
            "loss": "contrastive", "batch_size": 4, "epochs_requested": 3, "epochs_run": 2,
            "best_epoch": 1, "best_validation_loss": 0.25, "train_losses": [0.5, 0.4],
            "validation_losses": [0.3, 0.25], "stopped_early": True, "train_pairs": 8,
            "validation_pairs": 2, "learning_rate": 0.05,
        }

    @pytest.mark.parametrize(
        "cls",
        [PipelineConfig, LossConfig, WikidataItem, DbpediaRecord, LoadReport, LanguageStats],
    )
    def test_config_annotations_name_every_field(self, cls):
        """Each field is annotated, once; a config file may set exactly these."""
        assert tuple(cls.__annotations__) == cls._fields

    @pytest.mark.parametrize("config", [PipelineConfig(), LossConfig()], ids=["pipeline", "loss"])
    def test_a_configuration_rejects_assignment(self, config):
        for name in config._fields:
            with pytest.raises(AttributeError):
                setattr(config, name, getattr(config, name))
