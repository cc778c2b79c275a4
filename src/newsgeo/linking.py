"""Entity linking through the Wikipedia search API, and id-based matching.

A surface form is linked by querying the article language's Wikipedia search
endpoint, taking the first result and retrieving the page's WikiData id. This
normalizes spelling variants ("U.S.A.", "the United States") to one id, which
is what the evaluation compares on. The first result is not guaranteed to be
the intended page; ``rank_in_results`` records its place in the results, which
is always 0 for a hit and -1 without one.

`WikipediaLinker.link` sends two requests, and `WikipediaLinker.title`, for a
caller that reads only the page title (the DBpedia page of a surface), sends
only the first:

* the search, whose first hit's title is cached as a `wptitle` record;
* the page's properties (pageprops), for its WikiData id; the full result is
  cached as a `wplink` record, which answers title lookups too.
"""

from __future__ import annotations

import urllib.parse
from typing import Any, NamedTuple

from .config import CACHE_ONLY
from .corpus import LocationTuple, _check_qid
from .kb import _CachedClient, _check_string

SEARCH_URL = (
    "https://{lang}.wikipedia.org/w/api.php"
    "?action=query&list=search&srlimit=max&srnamespace=0&format=json&srsearch={query}"
)
PAGEPROPS_URL = (
    "https://{lang}.wikipedia.org/w/api.php"
    "?action=query&prop=pageprops&ppprop=wikibase_item&format=json&titles={title}"
)


class LinkResult(NamedTuple):
    """Outcome of linking one surface form in one language."""

    surface: str
    language: str
    page_title: str | None = None
    qid: str | None = None
    rank_in_results: int = -1

    @staticmethod
    def from_json(d: dict[str, Any]) -> "LinkResult":
        qid, title = d.get("qid"), d.get("page_title")
        return LinkResult(
            surface=d["surface"],
            language=d["language"],
            page_title=None if title is None else _as_title(title),
            qid=None if qid is None else _check_qid(qid),
            rank_in_results=d.get("rank_in_results", -1),
        )

    def to_json(self) -> dict[str, Any]:
        return self._asdict()


class WikipediaLinker(_CachedClient):
    """Search-API entity linker with the same cache/policy behaviour as kb clients."""

    SOURCE = "wplink"
    TITLE_SOURCE = "wptitle"

    def link(self, surface: str, language: str) -> LinkResult:
        """Link `surface` to its first search hit, with the page's WikiData id;
        the empty LinkResult (no page, no qid) when nothing matches."""
        found = self._lookup(
            self.SOURCE, _key(surface, language),
            lambda: self._linked(surface, language), LinkResult.from_json,
        )
        return found or LinkResult(surface=surface, language=language)

    def title(self, surface: str, language: str) -> str | None:
        """Title of the page `surface` links to; None when nothing matches. A
        cached full record answers; without one, the title record does, or
        online the search alone, which does not ask for the page's WikiData
        id. Under `cache-only` with neither, the miss names the full record's key."""
        key = _key(surface, language)
        if (self.SOURCE, key) in self.cache or (
            self.policy == CACHE_ONLY and (self.TITLE_SOURCE, key) not in self.cache
        ):
            return self.link(surface, language).page_title
        return self._search(surface, language)

    def _search(self, surface: str, language: str) -> str | None:
        """Title of the first search hit; None when nothing matches."""
        url = SEARCH_URL.format(lang=language, query=urllib.parse.quote(surface))
        return self._lookup(
            self.TITLE_SOURCE, _key(surface, language),
            lambda: self._fetch_reduced(url, _first_title), _as_title,
        )

    def _linked(self, surface: str, language: str) -> dict[str, Any] | None:
        """The full record of the first search hit, with its page's WikiData id."""
        title = self._search(surface, language)
        if title is None:
            return None
        url = PAGEPROPS_URL.format(lang=language, title=urllib.parse.quote(title))
        qid = self._fetch_reduced(url, _pageprops_qid)
        return LinkResult(surface, language, title, qid, rank_in_results=0).to_json()


def _key(surface: str, language: str) -> str:
    if not surface:
        raise ValueError("empty surface form")
    return f"{language}:{surface}"


def _first_title(payload: Any) -> str | None:
    hits = payload.get("query", {}).get("search", [])
    return _as_title(hits[0]["title"]) if hits else None


def _as_title(value: Any) -> str:
    return _check_string(value, "page title")


def _pageprops_qid(payload: Any) -> str | None:
    for page in payload.get("query", {}).get("pages", {}).values():
        qid = page.get("pageprops", {}).get("wikibase_item")
        if qid:
            return _check_qid(qid)
    return None


def normalized_match(a: LocationTuple | None, b: LocationTuple | None, level: str) -> bool:
    """Whether two location tuples agree at ``country`` or ``city`` level.

    Matching is on WikiData ids; when either side lacks an id the comparison
    falls back to case-insensitive name equality so rows without ids still
    evaluate. None never matches anything.
    """
    if level not in ("country", "city"):
        raise ValueError(f"unknown match level {level!r}")
    if a is None or b is None:
        return False
    if level == "country":
        return _ids_or_names_match(a.country_qid, b.country_qid, a.country, b.country)
    return _ids_or_names_match(a.city_qid, b.city_qid, a.city, b.city)


def _ids_or_names_match(
    qid_a: str | None, qid_b: str | None, name_a: str | None, name_b: str | None
) -> bool:
    if qid_a and qid_b:
        return qid_a == qid_b
    if name_a and name_b:
        return name_a.casefold() == name_b.casefold()
    return False
