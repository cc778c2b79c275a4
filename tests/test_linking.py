"""Entity linking via the search API and id-based location matching."""

import re

import pytest

from newsgeo.kb import CACHE_ONLY, ONLINE, KbCache, KbCacheMiss, KbRemoteError, forbidden_transport
from newsgeo.linking import LinkResult, WikipediaLinker, normalized_match
from newsgeo.locations import LocationTuple

from test_kb import FakeTransport


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

    def test_no_hits_is_cached_as_empty_result(self, tmp_path):
        import urllib.parse

        search_url = (
            "https://en.wikipedia.org/w/api.php"
            "?action=query&list=search&srlimit=max&srnamespace=0&format=json"
            f"&srsearch={urllib.parse.quote('qqzzxx')}"
        )
        transport = FakeTransport({search_url: search_payload()})
        cache = KbCache(tmp_path)
        linker = WikipediaLinker(cache, policy=ONLINE, transport=transport)
        result = linker.link("qqzzxx", "en")
        assert result.qid is None and result.page_title is None
        # Second call comes from the cache.
        linker.link("qqzzxx", "en")
        assert len(transport.calls) == 1

    def test_cache_only_miss_names_key(self, tmp_path):
        linker = WikipediaLinker(
            KbCache(tmp_path), policy=CACHE_ONLY, transport=forbidden_transport
        )
        with pytest.raises(KbCacheMiss) as exc_info:
            linker.link("Zanzibar", "en")
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
                search_url: [search_payload("Paris"), search_payload("Paris")],
                props_url: [payload, pageprops_payload("Q90")],
            }
        )
        cache = KbCache(tmp_path)
        linker = WikipediaLinker(cache, policy=ONLINE, transport=transport)
        with pytest.raises(KbRemoteError, match=f"^{re.escape(props_url)}: malformed payload"):
            linker.link("Paris", "fr")
        assert ("wplink", "fr:Paris") not in cache
        assert linker.link("Paris", "fr").qid == "Q90"
        assert transport.calls == [search_url, props_url, search_url, props_url]

    def test_empty_surface_rejected(self, tmp_path):
        linker = WikipediaLinker(KbCache(tmp_path), transport=forbidden_transport)
        with pytest.raises(ValueError):
            linker.link("", "en")

    def test_spelling_variants_share_an_id(self, resolver):
        """Different surfaces for one entity normalize to the same WikiData id."""
        first = resolver.linker.link("U.S.A.", "en")
        second = resolver.linker.link("the United States", "en")
        assert first.qid == second.qid == "Q30"

    def test_round_trip(self):
        result = LinkResult("Berlin", "de", "Berlin", "Q64", 0)
        assert LinkResult.from_json(result.to_json()) == result


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
