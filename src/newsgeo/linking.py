"""Entity linking through the Wikipedia search API, and id-based matching.

A surface form is linked by querying the article language's Wikipedia search
endpoint, taking the first result and retrieving the page's WikiData id. This
normalizes spelling variants ("U.S.A.", "the United States") to one id, which
is what the evaluation compares on. The first result is not guaranteed to be
the intended page; ``rank_in_results`` is kept on the result for auditing.

Linking takes two requests, and a caller that reads only the page title
(the DBpedia page of a surface) sends only the first:

* the search, whose first hit's title is cached as a `wptitle` record;
* the page's properties (pageprops), sent only when the WikiData id is
  read; the full result is cached as a `wplink` record, which answers
  title lookups too.
"""

from __future__ import annotations

import dataclasses
import urllib.parse
from typing import TYPE_CHECKING, Any

from .kb import ONLINE, _CachedClient

if TYPE_CHECKING:
    from .locations import LocationTuple

SEARCH_URL = (
    "https://{lang}.wikipedia.org/w/api.php"
    "?action=query&list=search&srlimit=max&srnamespace=0&format=json&srsearch={query}"
)
PAGEPROPS_URL = (
    "https://{lang}.wikipedia.org/w/api.php"
    "?action=query&prop=pageprops&ppprop=wikibase_item&format=json&titles={title}"
)


@dataclasses.dataclass(frozen=True)
class LinkResult:
    """Outcome of linking one surface form in one language."""

    surface: str
    language: str
    page_title: str | None = None
    qid: str | None = None
    rank_in_results: int = -1

    @staticmethod
    def from_json(d: dict[str, Any]) -> "LinkResult":
        return LinkResult(
            surface=d["surface"],
            language=d["language"],
            page_title=d.get("page_title"),
            qid=d.get("qid"),
            rank_in_results=d.get("rank_in_results", -1),
        )

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class WikipediaLinker(_CachedClient):
    """Search-API entity linker with the same cache/policy behaviour as kb clients."""

    SOURCE = "wplink"
    TITLE_SOURCE = "wptitle"

    def link(self, surface: str, language: str, *, title_only: bool = False) -> LinkResult:
        """Link `surface` to its first search hit; the empty LinkResult (no
        page, no qid) when nothing matches.

        With `title_only` the page's WikiData id is not asked for: the result
        carries no qid unless the full record is cached. Under `cache-only`,
        a surface with neither record is a cache miss for its `wplink` key.
        """
        if not surface:
            raise ValueError("empty surface form")
        key = f"{language}:{surface}"
        # A full record answers a title lookup. Without one, the title record
        # does, or online the search alone; offline with neither, the miss
        # names the full record's key.
        if title_only and (self.SOURCE, key) not in self.cache and (
            self.policy == ONLINE or (self.TITLE_SOURCE, key) in self.cache
        ):
            title = self._title(surface, language)
            return LinkResult(surface, language, title, rank_in_results=-1 if title is None else 0)
        found = self._lookup(
            self.SOURCE, key, lambda: self._linked(surface, language), LinkResult.from_json
        )
        return found or LinkResult(surface=surface, language=language)

    def _title(self, surface: str, language: str) -> str | None:
        """Title of the first search hit; None when nothing matches."""
        url = SEARCH_URL.format(lang=language, query=urllib.parse.quote(surface))
        return self._lookup(
            self.TITLE_SOURCE, f"{language}:{surface}",
            lambda: self._fetch_reduced(url, _first_title), _as_title,
        )

    def _linked(self, surface: str, language: str) -> dict[str, Any] | None:
        """The full record of the first search hit, with its page's WikiData id."""
        title = self._title(surface, language)
        if title is None:
            return None
        url = PAGEPROPS_URL.format(lang=language, title=urllib.parse.quote(title))
        qid = self._fetch_reduced(url, _pageprops_qid)
        return LinkResult(surface, language, title, qid, rank_in_results=0).to_json()


def _first_title(payload: Any) -> str | None:
    hits = payload.get("query", {}).get("search", [])
    return _as_title(hits[0]["title"]) if hits else None


def _as_title(value: Any) -> str:
    if type(value) is not str:
        raise TypeError(f"page title must be a string, got {value!r}")
    return value


def _pageprops_qid(payload: Any) -> str | None:
    for page in payload.get("query", {}).get("pages", {}).values():
        qid = page.get("pageprops", {}).get("wikibase_item")
        if qid:
            return qid
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
