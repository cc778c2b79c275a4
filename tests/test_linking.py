"""Entity linking via the search API and id-based location matching."""

import re
import sys
import threading
import time
import urllib.parse

import pytest

from newsgeo.kb import (
    CACHE_ONLY,
    ONLINE,
    DbpediaClient,
    KbCache,
    KbCacheCorrupt,
    KbCacheMiss,
    KbRemoteError,
    RateLimiter,
    WikidataClient,
    forbidden_transport,
)
from newsgeo.linking import PAGEPROPS_URL, SEARCH_URL, LinkResult, WikipediaLinker, normalized_match
from newsgeo.locations import LocatedEntity, LocationTuple, Resolver

from test_kb import FakeTransport, wikidata_payload


def search_payload(*titles):
    return {"query": {"search": [{"title": t} for t in titles]}}


def pageprops_payload(qid):
    pages = {"1": {"pageprops": {"wikibase_item": qid}}} if qid else {"1": {}}
    return {"query": {"pages": pages}}


class TestWikipediaLinker:
    def test_first_search_hit_wins(self, tmp_path):
        import urllib.parse

        base = "https://en.wikipedia.org/w/api.php"
        search_url = (
            f"{base}?action=query&list=search&srlimit=max&srnamespace=0&format=json"
            f"&srsearch={urllib.parse.quote('U.S.A.')}"
        )
        props_url = (
            f"{base}?action=query&prop=pageprops&ppprop=wikibase_item&format=json"
            f"&titles={urllib.parse.quote('United States')}"
        )
        transport = FakeTransport(
            {
                search_url: search_payload("United States", "United States Navy"),
                props_url: pageprops_payload("Q30"),
            }
        )
        linker = WikipediaLinker(KbCache(tmp_path), policy=ONLINE, transport=transport)
        result = linker.link("U.S.A.", "en")
        assert result.page_title == "United States"
        assert result.qid == "Q30"
        assert result.rank_in_results == 0

    @pytest.mark.parametrize("title_first", [False, True])
    def test_no_hits_is_cached_as_empty_result(self, tmp_path, title_first):
        transport = FakeTransport({search_url("en", "qqzzxx"): search_payload()})
        cache = KbCache(tmp_path)
        linker = WikipediaLinker(cache, policy=ONLINE, transport=transport)
        if title_first:
            assert linker.title("qqzzxx", "en") is None
        # A cold full lookup sends the search alone; after a title lookup,
        # the full lookup reads the search's cached absence. Later calls come
        # from the cache.
        assert linker.link("qqzzxx", "en") == LinkResult("qqzzxx", "en")
        assert linker.link("qqzzxx", "en") == LinkResult("qqzzxx", "en")
        assert linker.title("qqzzxx", "en") is None
        assert len(transport.calls) == 1
        assert cache.keys() == [("wplink", "en:qqzzxx"), ("wptitle", "en:qqzzxx")]

    @pytest.mark.parametrize("lookup", ["link", "title"])
    def test_cache_only_miss_names_key(self, tmp_path, lookup):
        linker = WikipediaLinker(
            KbCache(tmp_path), policy=CACHE_ONLY, transport=forbidden_transport
        )
        with pytest.raises(KbCacheMiss) as exc_info:
            getattr(linker, lookup)("Zanzibar", "en")
        assert exc_info.value.source == "wplink"
        assert exc_info.value.key == "en:Zanzibar"

    def test_cached_result_served_offline(self, tmp_path):
        cache = KbCache(tmp_path)
        stored = LinkResult("Paris", "fr", "Paris", "Q90", 0)
        cache.put("wplink", "fr:Paris", stored.to_json())
        linker = WikipediaLinker(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert linker.link("Paris", "fr") == stored

    def test_cached_absence_is_not_found(self, tmp_path):
        cache = KbCache(tmp_path)
        cache.put("wplink", "en:Atlantis", {"__missing__": True})
        linker = WikipediaLinker(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert linker.link("Atlantis", "en") == LinkResult("Atlantis", "en")

    def test_search_404_is_cached_as_absence(self, tmp_path):
        import urllib.parse

        search_url = (
            "https://en.wikipedia.org/w/api.php"
            "?action=query&list=search&srlimit=max&srnamespace=0&format=json"
            f"&srsearch={urllib.parse.quote('Atlantis')}"
        )
        transport = FakeTransport({search_url: LookupError(search_url)})
        cache = KbCache(tmp_path)
        linker = WikipediaLinker(cache, policy=ONLINE, transport=transport)
        assert linker.link("Atlantis", "en") == LinkResult("Atlantis", "en")
        assert cache.get("wplink", "en:Atlantis") == {"__missing__": True}
        assert linker.link("Atlantis", "en") == LinkResult("Atlantis", "en")
        assert len(transport.calls) == 1

    @pytest.mark.parametrize(
        "payload",
        [{"query": {"pages": []}}, {"query": {"pages": {"1": []}}}, ["query"]],
        ids=["pages-list", "page-list", "payload-list"],
    )
    def test_malformed_pageprops_is_a_remote_error_naming_its_url(self, tmp_path, payload):
        import urllib.parse

        base = "https://fr.wikipedia.org/w/api.php"
        search_url = (
            f"{base}?action=query&list=search&srlimit=max&srnamespace=0&format=json"
            f"&srsearch={urllib.parse.quote('Paris')}"
        )
        props_url = (
            f"{base}?action=query&prop=pageprops&ppprop=wikibase_item&format=json"
            f"&titles={urllib.parse.quote('Paris')}"
        )
        transport = FakeTransport(
            {
                search_url: search_payload("Paris"),
                props_url: [payload, pageprops_payload("Q90")],
            }
        )
        cache = KbCache(tmp_path)
        linker = WikipediaLinker(cache, policy=ONLINE, transport=transport)
        with pytest.raises(KbRemoteError, match=f"^{re.escape(props_url)}: malformed payload"):
            linker.link("Paris", "fr")
        assert ("wplink", "fr:Paris") not in cache
        # The search was answered: its title is kept, and only pageprops is asked again.
        assert cache.get("wptitle", "fr:Paris") == "Paris"
        assert linker.link("Paris", "fr").qid == "Q90"
        assert transport.calls == [search_url, props_url, props_url]

    @pytest.mark.parametrize("qid", ["X9", "Q90\n", 90])
    def test_a_pageprops_id_that_is_not_an_item_id_is_a_remote_error(self, tmp_path, qid):
        props_url = pageprops_url("fr", "Paris")
        transport = RecordingTransport(
            {search_url("fr", "Paris"): search_payload("Paris"), props_url: pageprops_payload(qid)}
        )
        cache = KbCache(tmp_path)
        linker = WikipediaLinker(cache, policy=ONLINE, transport=transport)
        message = f"^{re.escape(props_url)}: malformed payload .*malformed WikiData id "
        with pytest.raises(KbRemoteError, match=message + re.escape(repr(qid))):
            linker.link("Paris", "fr")
        assert cache.keys() == [("wptitle", "fr:Paris")]
        assert transport.calls == [search_url("fr", "Paris"), props_url]

    def test_a_cached_qid_that_is_not_an_item_id_is_corrupt(self, tmp_path):
        path = tmp_path / "c.jsonl"
        KbCache(path).put("wplink", "fr:Paris", LinkResult("Paris", "fr", "Paris", "Q90").to_json())
        KbCache(path).put("wplink", "fr:Lyon", LinkResult("Lyon", "fr", "Lyon", "X9").to_json())
        linker = WikipediaLinker(KbCache(path), policy=CACHE_ONLY, transport=forbidden_transport)
        assert linker.link("Paris", "fr").qid == "Q90"
        message = re.escape(f"{path}:2: bad cache record (malformed WikiData id 'X9')")
        with pytest.raises(KbCacheCorrupt, match=message):
            linker.link("Lyon", "fr")

    def test_a_page_without_an_item_is_cached_without_a_qid(self, tmp_path):
        transport = RecordingTransport(
            {
                search_url("fr", "Atlantide"): search_payload("Atlantide"),
                pageprops_url("fr", "Atlantide"): pageprops_payload(None),
            }
        )
        linked = WikipediaLinker(KbCache(tmp_path), policy=ONLINE, transport=transport).link(
            "Atlantide", "fr"
        )
        assert linked == LinkResult("Atlantide", "fr", "Atlantide", None, 0)
        offline = WikipediaLinker(KbCache(tmp_path), transport=forbidden_transport)
        assert offline.link("Atlantide", "fr") == linked

    @pytest.mark.parametrize("lookup", ["link", "title"])
    def test_malformed_search_caches_nothing_under_either_source(self, tmp_path, lookup):
        malformed = {"query": {"search": [{"pageid": 1}]}}
        transport = RecordingTransport({search_url("en", "Paris"): malformed})
        cache = KbCache(tmp_path)
        linker = WikipediaLinker(cache, policy=ONLINE, transport=transport)
        with pytest.raises(KbRemoteError, match="malformed payload"):
            getattr(linker, lookup)("Paris", "en")
        assert cache.keys() == []
        assert transport.calls == [search_url("en", "Paris")]

    @pytest.mark.parametrize("lookup", ["link", "title"])
    def test_empty_surface_rejected(self, tmp_path, lookup):
        linker = WikipediaLinker(KbCache(tmp_path), policy=ONLINE, transport=forbidden_transport)
        with pytest.raises(ValueError):
            getattr(linker, lookup)("", "en")

    def test_spelling_variants_share_an_id(self, resolver):
        """Different surfaces for one entity normalize to the same WikiData id."""
        first = resolver.linker.link("U.S.A.", "en")
        second = resolver.linker.link("the United States", "en")
        assert first.qid == second.qid == "Q30"

    def test_round_trip(self):
        result = LinkResult("Berlin", "de", "Berlin", "Q64", 0)
        assert LinkResult.from_json(result.to_json()) == result


def search_url(language, surface):
    return SEARCH_URL.format(lang=language, query=urllib.parse.quote(surface))


def pageprops_url(language, title):
    return PAGEPROPS_URL.format(lang=language, title=urllib.parse.quote(title))


class RecordingTransport:
    """Answers from a URL -> payload map, 404 for any other URL, and records
    every URL asked, with an optional delay for the searches."""

    def __init__(self, responses, search_delay=0.0):
        self.responses = responses
        self.search_delay = search_delay
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, url):
        with self._lock:
            self.calls.append(url)
        if "list=search" in url:
            time.sleep(self.search_delay)
        if url not in self.responses:
            raise LookupError(url)
        return self.responses[url]


# A small online KB: "Ada" links to the page "Ada Lovelace", whose DBpedia
# birthPlace is London, a city of the United Kingdom.
ADA_WORLD = {
    search_url("en", "Ada"): search_payload("Ada Lovelace"),
    pageprops_url("en", "Ada Lovelace"): pageprops_payload("Q7259"),
    "https://en.dbpedia.org/data/Ada_Lovelace.json": {
        "http://dbpedia.org/resource/Ada_Lovelace": {
            "http://dbpedia.org/ontology/birthPlace": [
                {"type": "uri", "value": "http://dbpedia.org/resource/London"}
            ],
        }
    },
    search_url("en", "London"): search_payload("London"),
    pageprops_url("en", "London"): pageprops_payload("Q84"),
    "https://www.wikidata.org/wiki/Special:EntityData/Q84.json": wikidata_payload(
        "Q84", {"en": "London"}, p17=["Q145"], p31=["Q515"]
    ),
    "https://www.wikidata.org/wiki/Special:EntityData/Q515.json": wikidata_payload(
        "Q515", {"en": "city"}
    ),
    "https://www.wikidata.org/wiki/Special:EntityData/Q145.json": wikidata_payload(
        "Q145", {"en": "United Kingdom"}
    ),
}

LONDON = LocationTuple("United Kingdom", "Q145", "London", "Q84")


def online_resolver(cache, transport):
    clients = dict(policy=ONLINE, transport=transport)
    return Resolver(
        wikidata=WikidataClient(cache, rate_limiter=RateLimiter(1e9), **clients),
        dbpedia=DbpediaClient(cache, rate_limiter=RateLimiter(1e9), **clients),
        linker=WikipediaLinker(cache, rate_limiter=RateLimiter(1e9), **clients),
    )


class TestRequestCounts:
    """Each lookup sends only the requests whose answers it reads."""

    def test_implicit_locate_asks_no_pageprops_for_the_surface(self, tmp_path):
        transport = RecordingTransport(ADA_WORLD)
        resolver = online_resolver(KbCache(tmp_path), transport)
        assert resolver.implicit_locate("Ada", "en") == LocatedEntity(
            "Ada", LONDON, "birthplace", "London"
        )
        assert search_url("en", "Ada") in transport.calls
        assert "https://en.dbpedia.org/data/Ada_Lovelace.json" in transport.calls
        assert pageprops_url("en", "Ada Lovelace") not in transport.calls
        # The anchor's id is read, so its pageprops is asked.
        assert pageprops_url("en", "London") in transport.calls

    def test_a_later_qid_lookup_asks_only_pageprops(self, tmp_path):
        transport = RecordingTransport(ADA_WORLD)
        cache = KbCache(tmp_path)
        resolver = online_resolver(cache, transport)
        resolver.implicit_locate("Ada", "en")
        asked = len(transport.calls)
        linked = resolver.linker.link("Ada", "en")
        assert linked == LinkResult("Ada", "en", "Ada Lovelace", "Q7259", 0)
        assert transport.calls[asked:] == [pageprops_url("en", "Ada Lovelace")]
        assert cache.get("wptitle", "en:Ada") == "Ada Lovelace"
        assert cache.get("wplink", "en:Ada") == linked.to_json()

    def test_classify_category_asks_no_dbpedia(self, tmp_path):
        transport = RecordingTransport(ADA_WORLD)
        resolver = online_resolver(KbCache(tmp_path), transport)
        assert resolver.classify_categories(["London"], "en") == [LONDON]
        assert not any("dbpedia.org" in url for url in transport.calls)

    @pytest.mark.parametrize(
        "lookups", [("link",), ("title", "link"), ("title",)], ids=["full", "mixed", "title"]
    )
    def test_threads_linking_one_surface_send_each_url_once(self, tmp_path, lookups):
        transport = RecordingTransport(ADA_WORLD, search_delay=0.05)
        linker = WikipediaLinker(
            KbCache(tmp_path), policy=ONLINE, transport=transport, rate_limiter=RateLimiter(1e9)
        )
        names = [lookups[index % len(lookups)] for index in range(8)]
        start = threading.Barrier(len(names), timeout=10)
        results = {}

        def link(index):
            start.wait()
            found = getattr(linker, names[index])("Ada", "en")
            results[index] = found if names[index] == "title" else found.page_title

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=link, args=(index,)) for index in range(len(names))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert set(results.values()) == {"Ada Lovelace"}
        assert len(results) == len(names)
        wanted = [search_url("en", "Ada")]
        if "link" in names:
            wanted.append(pageprops_url("en", "Ada Lovelace"))
        assert sorted(transport.calls) == sorted(wanted)

    def test_full_records_serve_both_lookups_offline(self, tmp_path):
        cache = KbCache(tmp_path)
        stored = LinkResult("Paris", "fr", "Paris", "Q90", 0)
        cache.put("wplink", "fr:Paris", stored.to_json())
        linker = WikipediaLinker(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert linker.title("Paris", "fr") == "Paris"
        assert linker.link("Paris", "fr") == stored
        assert cache.keys() == [("wplink", "fr:Paris")]

    def test_a_title_record_serves_only_title_lookups_offline(self, tmp_path):
        cache = KbCache(tmp_path)
        cache.put("wptitle", "fr:Paris", "Paris")
        linker = WikipediaLinker(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert linker.title("Paris", "fr") == "Paris"
        with pytest.raises(KbCacheMiss) as exc_info:
            linker.link("Paris", "fr")
        assert (exc_info.value.source, exc_info.value.key) == ("wplink", "fr:Paris")

    def test_a_title_record_that_is_not_a_string_is_corrupt(self, tmp_path):
        cache = KbCache(tmp_path)
        cache.put("wptitle", "fr:Paris", {"title": "Paris"})
        linker = WikipediaLinker(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        with pytest.raises(KbCacheCorrupt, match="page title must be a string"):
            linker.title("Paris", "fr")

    @pytest.mark.parametrize("title", [5, ["Paris"]])
    def test_a_link_record_whose_title_is_not_a_string_is_corrupt(self, tmp_path, title):
        cache = KbCache(tmp_path)
        record = {"surface": "Paris", "language": "fr", "page_title": title, "qid": "Q90"}
        cache.put("wplink", "fr:Paris", record)
        linker = WikipediaLinker(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        for lookup in (linker.link, linker.title):
            with pytest.raises(KbCacheCorrupt, match="page title must be a string"):
                lookup("Paris", "fr")

    def test_a_link_record_without_a_page_has_no_title(self, tmp_path):
        cache = KbCache(tmp_path)
        record = {"surface": "Atlantide", "language": "fr", "page_title": None}
        cache.put("wplink", "fr:Atlantide", record)
        linker = WikipediaLinker(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert linker.link("Atlantide", "fr") == LinkResult("Atlantide", "fr")


PARIS = LocationTuple("France", "Q142", "Paris", "Q90")


class TestNormalizedMatch:
    def test_qid_equality_wins(self):
        other_name = LocationTuple("Frankreich", "Q142", "Parigi", "Q90")
        assert normalized_match(PARIS, other_name, "country")
        assert normalized_match(PARIS, other_name, "city")

    def test_qid_mismatch_beats_equal_names(self):
        """When both sides carry ids, names are not consulted."""
        impostor = LocationTuple("France", "Q999999", "Paris", "Q999998")
        assert not normalized_match(PARIS, impostor, "country")
        assert not normalized_match(PARIS, impostor, "city")

    def test_name_fallback_is_case_insensitive(self):
        no_ids = LocationTuple("FRANCE", None, "paris", None)
        assert normalized_match(PARIS, no_ids, "country")
        assert normalized_match(PARIS, no_ids, "city")

    def test_none_never_matches(self):
        assert not normalized_match(None, PARIS, "country")
        assert not normalized_match(PARIS, None, "city")
        country_only = LocationTuple("France", "Q142")
        assert not normalized_match(country_only, PARIS, "city")
        assert not normalized_match(country_only, country_only, "city")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            normalized_match(PARIS, PARIS, "continent")
