"""Entity linking through the Wikipedia search API, and id-based matching.

A surface form is linked by querying the article language's Wikipedia search
endpoint, taking the first result and retrieving the page's WikiData id. This
normalizes spelling variants ("U.S.A.", "the United States") to one id, which
is what the evaluation compares on. The first result is not guaranteed to be
the intended page; ``rank_in_results`` is kept on the result for auditing.
"""

from __future__ import annotations

import dataclasses
import urllib.parse
from typing import TYPE_CHECKING, Any

from .kb import _CachedClient

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

    def link(self, surface: str, language: str) -> LinkResult:
        """Link `surface` to its first search hit; the empty LinkResult (no
        page, no qid) when nothing matches."""
        if not surface:
            raise ValueError("empty surface form")
        url = SEARCH_URL.format(lang=language, query=urllib.parse.quote(surface))
        found = self._lookup(
            self.SOURCE, f"{language}:{surface}", url,
            lambda p: self._first_hit(surface, language, p).to_json(), LinkResult.from_json,
        )
        return found or LinkResult(surface=surface, language=language)

    def _first_hit(self, surface: str, language: str, payload: Any) -> LinkResult:
        hits = payload.get("query", {}).get("search", [])
        if not hits:
            return LinkResult(surface=surface, language=language)
        title = hits[0]["title"]
        return LinkResult(
            surface=surface,
            language=language,
            page_title=title,
            qid=self._page_qid(title, language),
            rank_in_results=0,
        )

    def _page_qid(self, title: str, language: str) -> str | None:
        url = PAGEPROPS_URL.format(lang=language, title=urllib.parse.quote(title))
        return self._fetch_reduced(url, _pageprops_qid)


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
