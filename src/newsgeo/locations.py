"""Location inference over the knowledge base.

Three capabilities live here:

* deciding whether a category names a location (its WikiData item reaches a
  country through the country / located-in properties);
* completing any located entity to a (city, country) tuple, where the city is
  found by walking "located in the administrative territorial entity" edges
  until an item whose instance-of class names a city-like settlement;
* locating non-location entities through the geographic properties of their
  DBpedia page (the "birthPlace" route), so a document can be placed even
  when no location is mentioned explicitly.

The (city, country) tuple these produce, :class:`~newsgeo.corpus.LocationTuple`,
lives in ``corpus`` with the gold rows that hold it, so that reading a gold
or pairs file loads no KB layer; it is importable from here too.
"""

from __future__ import annotations

import functools
import logging
from typing import Callable, NamedTuple

from .corpus import LocationTuple, render_location
from .kb import DbpediaClient, DbpediaRecord, WikidataClient, WikidataItem
from .linking import WikipediaLinker
from .memo import Memo

logger = logging.getLogger(__name__)

# Substrings of an instance-of class label that make the item itself a city.
CITY_CLASS_MARKERS = ("city", "capital", "municipality", "town", "village", "commune")

# Keywords scanned for in DBpedia property names, in priority order.
PROPERTY_KEYWORDS = ("location", "city", "country", "place")


class LocatedEntity(NamedTuple):
    """A non-location entity together with the location inferred for it.

    `anchor` is the raw property value that seeded the resolution (for
    "birthPlace" = Mayfair it stays "Mayfair" even though the resolved city is
    London), so representations can render the full chain.
    """

    surface: str
    location: LocationTuple
    via_property: str
    anchor: str | None = None

    def location_text(self) -> str:
        return render_location(self.location, anchor=self.anchor)


def resolve_country(
    item: WikidataItem, wikidata: WikidataClient
) -> tuple[str, str] | None:
    """First country claim of the item as (label, qid); None without one.

    The label comes from the country's full record, which a located-in walk
    that reaches the country reads too. A country whose label cannot be
    resolved is returned with an empty label and flagged, rather than dropped.
    """
    if not item.p17:
        return None
    qid = item.p17[0]
    country = wikidata.fetch(qid)
    label = country.label() if country else None
    if not label:
        logger.warning("no label for country %s (via %s)", qid, item.qid)
        return "", qid
    return label, qid


def resolve_city(
    item: WikidataItem, wikidata: WikidataClient, max_depth: int = 10
) -> tuple[str, str] | None:
    """Find the city an item belongs to as (label, qid).

    The item itself is the city when any of its instance-of class labels
    contains a city-like word; otherwise each located-in target is tried in
    listed order, recursively, until a city is found, the chain runs out, or
    `max_depth` edges have been followed. A visited set terminates cycles.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    return _resolve_city(item, wikidata, max_depth, visited={item.qid})


def _resolve_city(
    item: WikidataItem, wikidata: WikidataClient, depth_left: int, visited: set[str]
) -> tuple[str, str] | None:
    if _is_city(item):
        return item.label() or item.qid, item.qid
    if depth_left == 0:
        return None
    for target in item.p131:
        if target in visited:
            continue
        visited.add(target)
        next_item = wikidata.fetch(target)
        if next_item is None:
            logger.warning("located-in target %s of %s does not exist", target, item.qid)
            continue
        found = _resolve_city(next_item, wikidata, depth_left - 1, visited)
        if found is not None:
            return found
    return None


def _is_city(item: WikidataItem) -> bool:
    for _, label in item.p31:
        folded = label.casefold()
        if any(marker in folded for marker in CITY_CLASS_MARKERS):
            return True
    return False


def _memoized(method: Callable) -> Callable:
    """Keep a `Resolver` lookup's results in its memo, by name and arguments."""
    name = method.__name__

    @functools.wraps(method)
    def lookup(self: Resolver, *args):
        return self._memo.get((name, *args), lambda: method(self, *args))

    return lookup


class Resolver:
    """Bundles the KB clients behind the location-resolution operations.

    Each KB question has one method: `page_title` (the page a surface links
    to), `locate_surface` (the location of the item it links to),
    `locate_qid` (the location of an item), `page_abstract` and
    `implicit_locate`. They are memoized by their arguments for the life of
    the resolver, that is, one command: their results are frozen values (or
    None), so every caller may share them. Records the clients return hold
    dicts and lists a caller could change, so they are never memoized, nor
    is a `KbError`: a lookup that raised asks the cache again on its next
    call. Worker threads share the memo, and each key is computed once.
    """

    def __init__(
        self,
        wikidata: WikidataClient,
        dbpedia: DbpediaClient,
        linker: WikipediaLinker,
        max_depth: int = 10,
    ):
        self.wikidata = wikidata
        self.dbpedia = dbpedia
        self.linker = linker
        self.max_depth = max_depth
        # Memoized lookups only call ones listed before them here: page_title,
        # locate_qid, then locate_surface, page_abstract, implicit_locate.
        self._memo = Memo()

    @_memoized
    def page_title(self, surface: str, language: str) -> str | None:
        """Title of the page `surface` links to; its WikiData id is not asked for."""
        return self.linker.title(surface, language)

    @_memoized
    def locate_surface(self, surface: str, language: str) -> LocationTuple | None:
        """The (city, country) tuple of the WikiData item `surface` links to;
        None when it links to no item, or to one that reaches no country."""
        qid = self.linker.link(surface, language).qid
        return self.locate_qid(qid) if qid else None

    def _page(self, surface: str, language: str) -> DbpediaRecord | None:
        """The DBpedia page `surface` links to; None without one."""
        title = self.page_title(surface, language)
        return self.dbpedia.fetch(title, language) if title else None

    @_memoized
    def page_abstract(self, surface: str, language: str) -> str | None:
        """Abstract of the DBpedia page `surface` links to; None without one."""
        record = self._page(surface, language)
        return record.abstract if record else None

    def classify_categories(self, categories: list[str], language: str) -> list[LocationTuple]:
        """The locations the categories name, in order, duplicates removed.

        A category names a location when its WikiData item reaches a country
        through its country (P17) or located-in (P131) claims; its DBpedia
        page is not read, since no page could locate an item without them.
        """
        found = (self.locate_surface(category, language) for category in categories)
        return list(dict.fromkeys(location for location in found if location is not None))

    def locate_item(self, item: WikidataItem) -> LocationTuple | None:
        """Complete an item to a LocationTuple; None when no country is reachable."""
        city = resolve_city(item, self.wikidata, self.max_depth)
        country = resolve_country(item, self.wikidata)
        if country is None and city is not None:
            # The item has no country claim of its own; borrow the city's.
            city_item = self.wikidata.fetch(city[1])
            country = resolve_country(city_item, self.wikidata) if city_item else None
        if country is None:
            return None
        country_label, country_qid = country
        return LocationTuple(
            country=country_label or country_qid,
            country_qid=country_qid,
            city=(city[0] or city[1]) if city else None,
            city_qid=city[1] if city else None,
        )

    @_memoized
    def locate_qid(self, qid: str) -> LocationTuple | None:
        """LocationTuple for a bare WikiData id; None when unlocatable."""
        item = self.wikidata.fetch(qid)
        return None if item is None else self.locate_item(item)

    @_memoized
    def implicit_locate(self, surface: str, language: str) -> LocatedEntity | None:
        """Locate a non-location entity through its DBpedia page properties.

        The page's property names are scanned for "location", "city",
        "country" and "place"; the first value of the best-matching property
        is linked back to WikiData and completed to a (city, country) tuple.
        """
        record = self._page(surface, language)
        match = _best_geographic_property(record.properties) if record else None
        if match is None:
            return None
        property_name, anchor = match
        location = self.locate_surface(anchor, language)
        if location is None:
            return None
        return LocatedEntity(
            surface=surface,
            location=location,
            via_property=property_name,
            anchor=anchor,
        )


def _best_geographic_property(
    properties: dict[str, list[str]]
) -> tuple[str, str] | None:
    """Pick the property whose name best indicates a location, and its value.

    Exact keyword names win in keyword order; otherwise any name containing a
    keyword, ordered by (keyword priority, name) for determinism.
    """
    for keyword in PROPERTY_KEYWORDS:
        values = properties.get(keyword)
        if values:
            return keyword, values[0]
    containing: list[tuple[int, str]] = []
    for name, values in properties.items():
        if not values:
            continue
        for priority, keyword in enumerate(PROPERTY_KEYWORDS):
            if keyword in name.casefold():
                containing.append((priority, name))
                break
    if not containing:
        return None
    _, name = min(containing, key=lambda pair: (pair[0], pair[1]))
    return name, properties[name][0]
