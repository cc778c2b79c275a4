"""Corpus loading, validation, statistics and the train/validation split."""

import json
import random

import pytest

from newsgeo.corpus import (
    Article,
    GoldAnnotation,
    ParsedMention,
    compute_stats,
    format_stats_table,
    load_corpus,
    load_gold,
    save_corpus,
    split_train_validation,
)
from newsgeo.locations import LocationTuple


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
        article = make_article(language="en")
        article.language = "xx"
        with pytest.raises(ValueError):
            article.validate()


class TestLoadCorpus:
    def test_load_save_round_trip(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        original = [make_article("a-1"), make_article("a-2")]
        save_corpus(original, path)
        loaded, report = load_corpus(path, "en")
        assert loaded == original
        assert report.loaded == 2
        assert report.skipped == 0

    def test_bad_lines_skipped_with_warning(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        good = json.dumps(make_article("a-1").to_json())
        conflicting = json.dumps({**make_article("a-2").to_json(), "lang": "fr"})
        bad_span = make_article("a-3").to_json()
        bad_span["mentions"][0]["start"] = 0
        path.write_text(
            "\n".join([good, "{not json", conflicting, json.dumps(bad_span), "[1, 2]", '"x"', ""]),
            encoding="utf-8",
        )
        loaded, report = load_corpus(path, "en")
        assert [a.id for a in loaded] == ["a-1"]
        assert report.loaded == 1
        assert report.skipped == 5
        assert [w.split(":")[0] for w in report.warnings] == [f"line {n}" for n in range(2, 7)]

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
        ],
        ids=["list", "empty-locations", "no-locations-field", "bad-json"],
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
        locations = {"en-1": [LocationTuple("France", "Q142", "Paris", "Q90")]}
        stats = compute_stats([en_1, en_2, fr_article], locations)
        assert stats.per_language["en"].documents == 2
        assert stats.per_language["en"].mentions == 2
        assert stats.per_language["en"].unique_entity_ids == 1
        assert stats.per_language["fr"].unique_entity_ids == 2
        assert stats.total.documents == 3
        assert stats.total.mentions == 4
        # Q90 appears in both languages but counts once in the union.
        assert stats.total.unique_entity_ids == 2
        assert stats.per_language["en"].documents_with_locations == 1
        assert stats.total.locations_in_categories == 1

    def test_table_contains_total_row(self):
        stats = compute_stats([make_article()], {})
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
