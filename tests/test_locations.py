"""Category classification, city/country resolution and implicit location."""

import pytest

from newsgeo.kb import (
    DbpediaClient,
    DbpediaRecord,
    KbCache,
    KbCacheMiss,
    WikidataItem,
    forbidden_transport,
)
from newsgeo.linking import LinkResult
from newsgeo.locations import (
    CITY_CLASS_MARKERS,
    PROPERTY_KEYWORDS,
    LocationTuple,
    _best_geographic_property,
    render_location,
    resolve_city,
    resolve_country,
)

from conftest import DictKb, bfs_nearest_city, cache_only_resolver, count_calls


class TestLocationTuple:
    def test_round_trip(self):
        location = LocationTuple("France", "Q142", "Paris", "Q90")
        assert LocationTuple.from_json(location.to_json()) == location

    def test_country_required(self):
        with pytest.raises(ValueError):
            LocationTuple("").validate()

    def test_city_qid_requires_city_name(self):
        with pytest.raises(ValueError):
            LocationTuple("France", "Q142", None, "Q90").validate()

    def test_malformed_qid_rejected(self):
        with pytest.raises(ValueError):
            LocationTuple("France", "142").validate()

    def test_country_only_tuple_is_valid(self):
        LocationTuple("Canada", "Q16").validate()


class TestRenderLocation:
    def test_city_and_country(self):
        assert render_location(LocationTuple("France", city="Paris")) == "Paris, France"

    def test_country_only(self):
        assert render_location(LocationTuple("Canada")) == "Canada"

    def test_anchor_prefixed(self):
        rendered = render_location(
            LocationTuple("United Kingdom", city="London"), anchor="Mayfair"
        )
        assert rendered == "Mayfair, London, United Kingdom"

    def test_anchor_equal_to_city_deduplicated(self):
        rendered = render_location(LocationTuple("France", city="Paris"), anchor="paris")
        assert rendered == "paris, France"


def city_item(qid, label, country=None, p31_label="city"):
    return WikidataItem(
        qid=qid,
        labels={"en": label},
        p17=[country] if country else [],
        p31=[("Q0", p31_label)],
        p131=[],
    )


def area_item(qid, label, parents, country=None, p31_label="district"):
    return WikidataItem(
        qid=qid,
        labels={"en": label},
        p17=[country] if country else [],
        p31=[("Q0", p31_label)],
        p131=list(parents),
    )


class TestResolveCity:
    @pytest.mark.parametrize(
        "class_label",
        [
            "city",
            "Capital City",
            "municipality of Austria",
            "market town",
            "VILLAGE",
            "commune of France",
            "big city with millions of inhabitants",
        ],
    )
    def test_item_is_its_own_city(self, class_label):
        item = city_item("Q1", "Somewhere", p31_label=class_label)
        assert resolve_city(item, DictKb({"Q1": item})) == ("Somewhere", "Q1")

    def test_non_city_classes_do_not_match(self):
        item = city_item("Q1", "Somewhere", p31_label="sovereign state")
        assert resolve_city(item, DictKb({"Q1": item})) is None

    def test_two_hop_chain(self):
        """Mayfair-style chain: area -> borough -> city."""
        items = {
            "Q1": area_item("Q1", "Mayfair", ["Q2"], p31_label="area of London"),
            "Q2": area_item("Q2", "Westminster", ["Q3"], p31_label="borough"),
            "Q3": city_item("Q3", "London", p31_label="capital"),
        }
        assert resolve_city(items["Q1"], DictKb(items)) == ("London", "Q3")

    def test_targets_tried_in_listed_order(self):
        items = {
            "Q1": area_item("Q1", "Crossroads", ["Q2", "Q3"]),
            "Q2": city_item("Q2", "First City"),
            "Q3": city_item("Q3", "Second City"),
        }
        assert resolve_city(items["Q1"], DictKb(items)) == ("First City", "Q2")

    def test_dead_first_branch_falls_through(self):
        items = {
            "Q1": area_item("Q1", "Start", ["Q2", "Q3"]),
            "Q2": area_item("Q2", "Dead end", []),
            "Q3": city_item("Q3", "Found"),
        }
        assert resolve_city(items["Q1"], DictKb(items)) == ("Found", "Q3")

    def test_cycle_terminates_and_still_finds_exit(self):
        items = {
            "Q1": area_item("Q1", "A", ["Q2"]),
            "Q2": area_item("Q2", "B", ["Q1", "Q3"], p31_label="county"),
            "Q3": city_item("Q3", "Exit Town", p31_label="town"),
        }
        assert resolve_city(items["Q1"], DictKb(items)) == ("Exit Town", "Q3")

    def test_pure_cycle_returns_none(self):
        items = {
            "Q1": area_item("Q1", "A", ["Q2"]),
            "Q2": area_item("Q2", "B", ["Q1"]),
        }
        assert resolve_city(items["Q1"], DictKb(items)) is None

    def test_depth_cap(self):
        items = {
            "Q1": area_item("Q1", "Level 0", ["Q2"]),
            "Q2": area_item("Q2", "Level 1", ["Q3"]),
            "Q3": city_item("Q3", "Deep City"),
        }
        kb = DictKb(items)
        assert resolve_city(items["Q1"], kb, max_depth=1) is None
        assert resolve_city(items["Q1"], kb, max_depth=2) == ("Deep City", "Q3")

    def test_max_depth_below_one_rejected(self):
        item = city_item("Q1", "X")
        with pytest.raises(ValueError):
            resolve_city(item, DictKb({"Q1": item}), max_depth=0)

    def test_missing_target_skipped(self):
        items = {
            "Q1": area_item("Q1", "Start", ["Q404", "Q3"]),
            "Q3": city_item("Q3", "Found"),
        }
        assert resolve_city(items["Q1"], DictKb(items)) == ("Found", "Q3")

    def test_agrees_with_breadth_first_oracle(self, admin_graph):
        """Spot check on the synthetic graph; the full sweep is an acceptance test."""
        items, acyclic, _ = admin_graph
        kb = DictKb(items)
        for qid in acyclic[:10]:
            assert resolve_city(items[qid], kb, max_depth=60) == bfs_nearest_city(
                items, qid
            )


class TestResolveCountry:
    def test_country_claim_resolved_to_label(self):
        items = {
            "Q1": city_item("Q1", "Paris", country="Q2"),
            "Q2": WikidataItem("Q2", {"en": "France"}, [], [], []),
        }
        assert resolve_country(items["Q1"], DictKb(items)) == ("France", "Q2")

    def test_no_country_claim(self):
        item = city_item("Q1", "Nowhere")
        assert resolve_country(item, DictKb({"Q1": item})) is None

    def test_unlabelled_country_kept_with_empty_label(self, caplog):
        item = city_item("Q1", "Paris", country="Q404")
        with caplog.at_level("WARNING"):
            assert resolve_country(item, DictKb({"Q1": item})) == ("", "Q404")
        assert "Q404" in caplog.text


class TestMarkerSets:
    def test_city_class_markers(self):
        assert set(CITY_CLASS_MARKERS) == {
            "city",
            "capital",
            "municipality",
            "town",
            "village",
            "commune",
        }

    def test_property_keywords_priority_order(self):
        assert PROPERTY_KEYWORDS == ("location", "city", "country", "place")


class TestClassifyCategory:
    def test_city_category(self, resolver):
        location = resolver.classify_category("Paris", "en")
        assert location == LocationTuple("France", "Q142", "Paris", "Q90")

    def test_country_category_has_no_city(self, resolver):
        location = resolver.classify_category("Canadá", "es")
        assert location == LocationTuple("Canada", "Q16")

    def test_topic_category_is_not_a_location(self, resolver):
        assert resolver.classify_category("Politics", "en") is None

    def test_wikidata_claims_qualify_without_dbpedia_markers(self, kb_cache):
        """No page markers, but a located-in claim still makes it a location."""
        from newsgeo.kb import CACHE_ONLY, DbpediaClient, WikidataClient
        from newsgeo.linking import WikipediaLinker
        from newsgeo.locations import Resolver

        kb_cache.put(
            "wplink",
            "en:Obscureville",
            LinkResult("Obscureville", "en", "Obscureville", "Q7777", 0).to_json(),
        )
        kb_cache.put("dbpedia", "en:Obscureville", {"__missing__": True})
        kb_cache.put(
            "wikidata",
            "Q7777",
            WikidataItem("Q7777", {"en": "Obscureville"}, [], [], ["Q84"]).to_json(),
        )
        resolver = Resolver(
            wikidata=WikidataClient(kb_cache, policy=CACHE_ONLY, transport=forbidden_transport),
            dbpedia=DbpediaClient(kb_cache, policy=CACHE_ONLY, transport=forbidden_transport),
            linker=WikipediaLinker(kb_cache, policy=CACHE_ONLY, transport=forbidden_transport),
        )
        location = resolver.classify_category("Obscureville", "en")
        assert location is not None
        assert location.city == "London"

    def test_dbpedia_place_markers_without_claims_are_not_a_location(self, kb_cache, monkeypatch):
        """A page full of place markers cannot locate an item that has no
        country or located-in claim, so the page is never asked for."""
        kb_cache.put(
            "wplink", "en:Markerton", LinkResult("Markerton", "en", "Markerton", "Q7778", 0).to_json()
        )
        kb_cache.put(
            "dbpedia",
            "en:Markerton",
            DbpediaRecord(
                "Markerton", "en", {"populationtotal": ["1200"], "location": ["Paris"]},
                ["Place", "PopulatedPlace", "Settlement"],
            ).to_json(),
        )
        kb_cache.put(
            "wikidata",
            "Q7778",
            WikidataItem("Q7778", {"en": "Markerton"}, [], [("Q515", "city")], []).to_json(),
        )
        pages = count_calls(monkeypatch, DbpediaClient, "fetch")
        assert cache_only_resolver(kb_cache).classify_category("Markerton", "en") is None
        assert pages == []

    def test_unlinkable_category_returns_none(self, resolver, kb_cache):
        kb_cache.put(
            "wplink", "en:Gibberish", LinkResult("Gibberish", "en").to_json()
        )
        assert resolver.classify_category("Gibberish", "en") is None

    def test_cache_miss_propagates(self, resolver):
        with pytest.raises(KbCacheMiss):
            resolver.classify_category("Atlantis", "en")

    def test_missing_wikidata_item_is_unresolvable(self, resolver, kb_cache):
        kb_cache.put(
            "wplink", "en:Ghostton", LinkResult("Ghostton", "en", "Ghostton", "Q9402", 0).to_json()
        )
        kb_cache.put("dbpedia", "en:Ghostton", {"__missing__": True})
        kb_cache.put("wikidata", "Q9402", {"__missing__": True})
        assert resolver.classify_category("Ghostton", "en") is None

    def test_classify_categories_skips_failures_and_deduplicates(
        self, resolver, kb_cache
    ):
        kb_cache.put(
            "wplink", "en:Ghostton", LinkResult("Ghostton", "en", "Ghostton", "Q9402", 0).to_json()
        )
        kb_cache.put("dbpedia", "en:Ghostton", {"__missing__": True})
        kb_cache.put("wikidata", "Q9402", {"__missing__": True})
        locations = resolver.classify_categories(
            ["Paris", "Ghostton", "Politics", "Paris"], "en"
        )
        assert locations == [LocationTuple("France", "Q142", "Paris", "Q90")]


class TestLocateItem:
    def test_country_borrowed_from_resolved_city(self, resolver, kb_cache):
        """An item without a country claim inherits the country of its city."""
        kb_cache.put(
            "wikidata",
            "Q8801",
            WikidataItem("Q8801", {"en": "Arch"}, [], [("Q0", "monument")], ["Q90"]).to_json(),
        )
        location = resolver.locate_qid("Q8801")
        assert location == LocationTuple("France", "Q142", "Paris", "Q90")

    def test_no_country_reachable_returns_none(self, resolver, kb_cache):
        kb_cache.put(
            "wikidata",
            "Q8802",
            WikidataItem("Q8802", {"en": "Orphan"}, [], [("Q0", "concept")], []).to_json(),
        )
        assert resolver.locate_qid("Q8802") is None

    def test_unknown_qid_returns_none(self, resolver, kb_cache):
        kb_cache.put("wikidata", "Q8803", {"__missing__": True})
        assert resolver.locate_qid("Q8803") is None


class TestImplicitLocate:
    def test_person_via_birthplace(self, resolver):
        located = resolver.implicit_locate("Queen Elizabeth II", "en")
        assert located is not None
        assert located.via_property == "birthplace"
        assert located.anchor == "Mayfair"
        assert located.location.city == "London"
        assert located.location.country == "United Kingdom"
        assert located.location_text() == "Mayfair, London, United Kingdom"

    def test_building_via_location(self, resolver):
        located = resolver.implicit_locate("Eiffel Tower", "en")
        assert located is not None
        assert located.via_property == "location"
        assert located.location_text() == "Paris, France"

    def test_entity_without_geographic_properties(self, resolver):
        assert resolver.implicit_locate("Politics", "en") is None


class TestResolverMemo:
    LOOKUPS = [
        ("link", ("Paris", "fr")),
        ("locate_qid", ("Q90",)),
        ("implicit_locate", ("Queen Elizabeth II", "en")),
        ("page_abstract", ("Eiffel Tower", "en")),
        ("classify_category", ("Paris", "en")),
    ]

    @pytest.mark.parametrize("name, args", LOOKUPS)
    def test_a_repeated_lookup_reads_the_cache_once(self, resolver, monkeypatch, name, args):
        gets = count_calls(monkeypatch, KbCache, "get")
        first = getattr(resolver, name)(*args)
        assert first is not None and gets
        read = len(gets)
        assert getattr(resolver, name)(*args) is first
        assert len(gets) == read

    @pytest.mark.parametrize("name, args", LOOKUPS)
    def test_a_cache_miss_raises_again_until_the_cache_has_the_record(
        self, tmp_path, kb_cache, name, args
    ):
        cache = KbCache(tmp_path / "empty.jsonl")
        resolver = cache_only_resolver(cache)
        for _ in range(2):
            with pytest.raises(KbCacheMiss):
                getattr(resolver, name)(*args)
        for source, key in kb_cache.keys():
            cache.put(source, key, kb_cache.get(source, key))
        expected = getattr(cache_only_resolver(kb_cache), name)(*args)
        assert getattr(resolver, name)(*args) == expected is not None


class TestBestGeographicProperty:
    def test_exact_name_beats_containing_name(self):
        properties = {
            "headquarterlocation": ["Lyon"],
            "location": ["Paris"],
            "birthplace": ["Mayfair"],
        }
        assert _best_geographic_property(properties) == ("location", "Paris")

    def test_exact_names_follow_keyword_priority(self):
        properties = {"place": ["Nice"], "city": ["Paris"], "country": ["France"]}
        assert _best_geographic_property(properties) == ("city", "Paris")

    def test_containing_names_ranked_by_keyword_then_name(self):
        properties = {"deathplace": ["Windsor"], "birthplace": ["Mayfair"]}
        assert _best_geographic_property(properties) == ("birthplace", "Mayfair")
        properties = {"birthplace": ["Mayfair"], "headquarterlocation": ["Lyon"]}
        assert _best_geographic_property(properties) == ("headquarterlocation", "Lyon")

    def test_no_geographic_property(self):
        assert _best_geographic_property({"architect": ["Sauvestre"]}) is None
        assert _best_geographic_property({}) is None

    def test_empty_values_ignored(self):
        assert _best_geographic_property({"location": []}) is None
