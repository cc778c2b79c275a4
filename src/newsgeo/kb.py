"""Cached clients for the WikiData and DBpedia knowledge bases.

Both clients share a persistent key-value cache so that a warmed cache makes
every lookup reproducible offline: with the ``cache-only`` policy no network
call is ever issued and a miss raises :class:`KbCacheMiss` naming the missing
key. The ``online-then-cache`` policy fetches through a rate-limited transport
and records results (including confirmed absences) for later runs.

A lookup ends in one of three ways. The KB answered, and the client returns
the record. The entity has no record (a 404, or a payload that holds nothing
for it): that confirmed absence is cached and returned as ``None`` (an empty
:class:`~newsgeo.linking.LinkResult` for the linker). Or the KB could not be
asked (:class:`KbCacheMiss`, :class:`KbRemoteError`): that raises and fails
the command, so an unreachable KB is never scored as a wrong prediction.

Cache file format: one JSON object per line, ``{"source": s, "key": k,
"value": v}``, append-only with the last write winning. The format is
deliberately diff-friendly so recorded fixtures can live in version control.
Loading indexes the keys; a value is decoded when it is read, and a corrupt
one raises :class:`KbCacheCorrupt` naming its file and line at that point.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
import threading
import time
import urllib.parse
from json.decoder import scanstring
from pathlib import Path
from typing import Any, Callable

logger = logging.getLogger(__name__)

ONLINE = "online-then-cache"
CACHE_ONLY = "cache-only"

WIKIDATA_ENTITY_URL = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
DBPEDIA_DATA_URL = "https://{lang}.dbpedia.org/data/{title}.json"

_QID_RE = re.compile(r"^Q[0-9]+$")

# Marker stored as a cache value when the remote endpoint confirmed absence.
_MISSING = {"__missing__": True}

Transport = Callable[[str, dict[str, Any] | None], Any]


class KbError(Exception):
    """Base class for knowledge-base access failures."""


class KbCacheMiss(KbError):
    """A key is absent from the cache while the policy forbids network use."""

    def __init__(self, source: str, key: str):
        self.source = source
        self.key = key
        super().__init__(
            f"no cached entry for {source}:{key} (network policy is cache-only)"
        )


class KbRemoteError(KbError):
    """The remote endpoint kept failing after retries."""


class KbCacheCorrupt(KbError, ValueError):
    """A cache line is not a valid record; the message names file and line."""


class KbCache:
    """Append-only JSON key-value store, keyed by (source, key).

    Loading indexes the file: each (source, key) maps to the line number and
    text of its last record, and a value is decoded only when `get` reads it,
    so a command pays for the records it uses, not for the whole history. A
    line in the exact form `put` writes has its source and key read from the
    prefix; any other line is decoded in full at load, so a malformed one
    fails there. A corrupt value behind a well-formed prefix is found when it
    is first read: `get` raises :class:`KbCacheCorrupt` naming the file and
    line.

    Concurrent reads are safe; writes are serialized through a single lock and
    flushed immediately so parallel workers sharing one cache never observe a
    torn line.
    """

    FILENAME = "kb_cache.jsonl"

    def __init__(self, path: str | Path):
        path = Path(path)
        if path.suffix != ".jsonl":
            path.mkdir(parents=True, exist_ok=True)
            path = path / self.FILENAME
        self.path = path
        self._lock = threading.Lock()
        # (source, key) -> (line number or None for a `put` of this run, line)
        self._entries: dict[tuple[str, str], tuple[int | None, str]] = {}
        # A crash in the middle of `put` leaves a torn last line without its
        # newline: it is skipped here and cut off by the next `put`.
        self._torn_at: int | None = None
        self._unterminated = False
        if path.exists():
            with path.open("rb") as handle:
                for number, raw in enumerate(handle, 1):
                    if not raw.strip():
                        continue
                    self._unterminated = not raw.endswith(b"\n")
                    try:
                        line = raw.decode("utf-8")
                        self._entries[_put_form_key(line) or _decode(line)[0]] = (number, line)
                    except (ValueError, KeyError, TypeError) as exc:
                        if not self._unterminated:
                            message = f"{path}:{number}: bad cache record ({exc})"
                            raise KbCacheCorrupt(message) from exc
                        logger.warning("%s:%d: skipping a torn last line", path, number)
                        self._torn_at = handle.tell() - len(raw)

    def __contains__(self, source_key: tuple[str, str]) -> bool:
        return source_key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, source: str, key: str) -> Any:
        """The value of (source, key), decoded afresh on every call."""
        number, line = self._entries[(source, key)]
        try:
            found, value = _decode(line)
            if found != (source, key):
                raise ValueError(f"record is for {found[0]}:{found[1]}")
            return value
        except (ValueError, KeyError, TypeError) as exc:
            raise KbCacheCorrupt(f"{self.path}:{number}: bad cache record ({exc})") from exc

    def put(self, source: str, key: str, value: Any) -> None:
        line = json.dumps(
            {"source": source, "key": key, "value": value}, ensure_ascii=False
        )
        with self._lock:
            self._entries[(source, key)] = (None, line)
            with self.path.open("a", encoding="utf-8") as handle:
                if self._torn_at is not None:
                    handle.truncate(self._torn_at)
                elif self._unterminated:
                    handle.write("\n")
                handle.write(line + "\n")
            self._torn_at, self._unterminated = None, False

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._entries)

    def export(self, path: str | Path) -> int:
        """Write a deduplicated snapshot, sorted by (source, key)."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for source, key in self.keys():
                handle.write(
                    json.dumps(
                        {"source": source, "key": key, "value": self.get(source, key)},
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        return len(self._entries)


def _decode(line: str) -> tuple[tuple[str, str], Any]:
    record = json.loads(line)
    return (record["source"], record["key"]), record["value"]


_PUT_SOURCE = '{"source": "'
_PUT_KEY = ', "key": "'
_PUT_VALUE = ', "value": '


def _put_form_key(line: str) -> tuple[str, str] | None:
    """(source, key) of a line in the exact form `put` writes, else None.

    Only the two leading strings are decoded, with the JSON string scanner
    itself, so escapes and non-ASCII text read exactly as `json.loads` gives
    them; the value is left for `get`. A line without its newline, possibly
    torn, is never in this form.
    """
    if not line.startswith(_PUT_SOURCE) or not line.endswith("}\n"):
        return None
    try:
        source, end = scanstring(line, len(_PUT_SOURCE))
        if not line.startswith(_PUT_KEY, end):
            return None
        key, end = scanstring(line, end + len(_PUT_KEY))
    except ValueError:
        return None
    return (source, key) if line.startswith(_PUT_VALUE, end) else None


class RateLimiter:
    """Enforces a minimum interval between calls across threads."""

    def __init__(self, per_second: float = 10.0):
        self._interval = 1.0 / per_second
        self._lock = threading.Lock()
        self._last = 0.0

    def wait(self) -> None:
        with self._lock:
            now = time.monotonic()
            delay = self._last + self._interval - now
            if delay > 0:
                time.sleep(delay)
            self._last = time.monotonic()


def default_transport(url: str, params: dict[str, Any] | None = None) -> Any:
    """GET a JSON document. Raises LookupError on HTTP 404."""
    import requests

    response = requests.get(
        url,
        params=params,
        headers={"User-Agent": "newsgeo/0.1 (news location detection pipeline)"},
        timeout=30,
    )
    if response.status_code == 404:
        raise LookupError(url)
    response.raise_for_status()
    return response.json()


def forbidden_transport(url: str, params: dict[str, Any] | None = None) -> Any:
    """Transport that fails on use; injected in tests to prove offline runs."""
    raise AssertionError(f"network access attempted in cache-only mode: {url}")


@dataclasses.dataclass
class WikidataItem:
    """A WikiData entity reduced to the properties the pipeline consumes.

    ``p31`` keeps the English label of each target class next to its id so
    that the city test (substring match on the class name) needs no further
    lookups.
    """

    qid: str
    labels: dict[str, str]
    p17: list[str]
    p31: list[tuple[str, str]]
    p131: list[str]

    def label(self, language: str = "en") -> str | None:
        return _pick_label(self.labels, language)

    @staticmethod
    def from_json(d: dict[str, Any]) -> "WikidataItem":
        return WikidataItem(
            qid=d["qid"],
            labels=dict(d["labels"]),
            p17=list(d["p17"]),
            p31=[(qid, label) for qid, label in d["p31"]],
            p131=list(d["p131"]),
        )

    def to_json(self) -> dict[str, Any]:
        return dict(
            qid=self.qid,
            labels=self.labels,
            p17=self.p17,
            p31=[list(pair) for pair in self.p31],
            p131=self.p131,
        )


@dataclasses.dataclass
class DbpediaRecord:
    """A DBpedia page: properties (names lowercased at ingest), types, abstract."""

    title: str
    language: str
    properties: dict[str, list[str]]
    ontology_types: list[str]
    abstract: str | None = None

    @staticmethod
    def from_json(d: dict[str, Any]) -> "DbpediaRecord":
        return DbpediaRecord(
            title=d["title"],
            language=d["language"],
            properties={name: list(values) for name, values in d["properties"].items()},
            ontology_types=list(d["ontology_types"]),
            abstract=d.get("abstract"),
        )

    def to_json(self) -> dict[str, Any]:
        return dict(
            title=self.title,
            language=self.language,
            properties=self.properties,
            ontology_types=self.ontology_types,
            abstract=self.abstract,
        )


class _CachedClient:
    def __init__(
        self,
        cache: KbCache,
        policy: str = CACHE_ONLY,
        transport: Transport | None = None,
        rate_limiter: RateLimiter | None = None,
        retries: int = 3,
        backoff: float = 0.5,
    ):
        if policy not in (ONLINE, CACHE_ONLY):
            raise ValueError(f"unknown fetch policy {policy!r}")
        self.cache = cache
        self.policy = policy
        self.transport = transport or default_transport
        self.rate_limiter = rate_limiter or RateLimiter()
        self.retries = retries
        self.backoff = backoff

    def _lookup(
        self, source: str, key: str, url: str, reduce: Callable[[Any], Any]
    ) -> Any:
        """Cached record of (source, key), else `reduce` of the fetched `url`.

        Honours the network policy. A 404, or a payload that `reduce` finds
        nothing in (it returns None), is a confirmed absence: it is cached
        and gives None, on this call and every later one.
        """
        if (source, key) in self.cache:
            value = self.cache.get(source, key)
        elif self.policy == CACHE_ONLY:
            raise KbCacheMiss(source, key)
        else:
            payload = self._fetch_remote(url)
            value = None if payload is None else reduce(payload)
            if value is None:
                value = _MISSING
            self.cache.put(source, key, value)
        return None if value == _MISSING else value

    def _fetch_remote(self, url: str) -> Any:
        """The payload at `url`; None on a 404. Raises KbRemoteError when the
        transport keeps failing after the retries."""
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            self.rate_limiter.wait()
            try:
                return self.transport(url, None)
            except LookupError:
                return None
            except Exception as exc:
                last_error = exc
                if attempt == self.retries:
                    break
                delay = self.backoff * (2**attempt)
                logger.warning("fetch failed (%s); retrying in %.1fs", exc, delay)
                time.sleep(delay)
        raise KbRemoteError(f"{url}: {last_error}")


class WikidataClient(_CachedClient):
    """Per-entity WikiData lookups with label resolution for target classes."""

    SOURCE = "wikidata"
    LABEL_SOURCE = "wikidata-label"

    def __init__(self, cache: KbCache, *, base_url: str = WIKIDATA_ENTITY_URL, **kw):
        super().__init__(cache, **kw)
        self.base_url = base_url

    def fetch(self, qid: str) -> WikidataItem | None:
        """The entity with country / instance-of / located-in populated; None
        when it does not exist."""
        if not _QID_RE.match(qid or ""):
            raise ValueError(f"malformed WikiData id {qid!r}")
        value = self._lookup(
            self.SOURCE, qid, self.base_url.format(qid=qid), lambda p: self._parse_entity(qid, p)
        )
        return None if value is None else WikidataItem.from_json(value)

    def label(self, qid: str, language: str = "en") -> str | None:
        """English (or requested-language) label of an entity, cache-backed;
        None when the entity does not exist or has no labels."""
        if (self.SOURCE, qid) in self.cache:
            value = self.cache.get(self.SOURCE, qid)
            if value != _MISSING:
                return _pick_label(value["labels"], language)
        value = self._lookup(
            self.LABEL_SOURCE, qid, self.base_url.format(qid=qid), lambda p: _labels_record(qid, p)
        )
        return None if value is None else _pick_label(value["labels"], language)

    def _parse_entity(self, qid: str, payload: dict[str, Any]) -> dict[str, Any] | None:
        entity = _entity_node(qid, payload)
        if entity is None:
            return None
        labels = _entity_labels(entity)
        claims = entity.get("claims", {})
        p17 = _claim_targets(claims.get("P17", []))
        p131 = _claim_targets(claims.get("P131", []))
        p31 = []
        for target in _claim_targets(claims.get("P31", [])):
            p31.append((target, self.label(target) or ""))
        return WikidataItem(qid=qid, labels=labels, p17=p17, p31=p31, p131=p131).to_json()


def _pick_label(labels: dict[str, str], language: str) -> str | None:
    """The label in `language`, else the English one, else any; None without labels."""
    if language in labels:
        return labels[language]
    if "en" in labels:
        return labels["en"]
    return next(iter(labels.values()), None)


def _entity_node(qid: str, payload: dict[str, Any]) -> dict[str, Any] | None:
    entities = payload.get("entities", {})
    if qid in entities:
        return entities[qid]
    # A redirected entity is keyed by its canonical id; no entity is an absence.
    return next(iter(entities.values()), None)


def _labels_record(qid: str, payload: dict[str, Any]) -> dict[str, Any] | None:
    entity = _entity_node(qid, payload)
    return None if entity is None else {"labels": _entity_labels(entity)}


def _entity_labels(entity: dict[str, Any]) -> dict[str, str]:
    return {lang: record["value"] for lang, record in entity.get("labels", {}).items()}


def _claim_targets(claims: list[dict[str, Any]]) -> list[str]:
    targets = []
    for claim in claims:
        value = claim.get("mainsnak", {}).get("datavalue", {}).get("value")
        if isinstance(value, dict) and "id" in value:
            targets.append(value["id"])
    return targets


class DbpediaClient(_CachedClient):
    """Per-page DBpedia lookups against the language edition's data endpoint."""

    SOURCE = "dbpedia"

    def __init__(self, cache: KbCache, *, base_url: str = DBPEDIA_DATA_URL, **kw):
        super().__init__(cache, **kw)
        self.base_url = base_url

    def fetch(
        self, title: str, language: str, english_fallback: bool = True
    ) -> DbpediaRecord | None:
        """The page record, else the English edition's; None when absent."""
        if not title:
            raise ValueError("empty DBpedia title")
        record = self._fetch_edition(title, language)
        if record is None and english_fallback and language != "en":
            record = self._fetch_edition(title, "en")
        return record

    def _fetch_edition(self, title: str, language: str) -> DbpediaRecord | None:
        key = f"{language}:{title}"
        url = self.base_url.format(
            lang=language, title=urllib.parse.quote(title.replace(" ", "_"))
        )
        value = self._lookup(self.SOURCE, key, url, lambda p: _parse_dbpedia(title, language, p))
        return None if value is None else DbpediaRecord.from_json(value)


def _parse_dbpedia(title: str, language: str, payload: dict[str, Any]) -> dict[str, Any] | None:
    """Reduce the raw data-endpoint payload to a DbpediaRecord's JSON; None
    when it holds no node for the page."""
    suffix = "/resource/" + urllib.parse.quote(title.replace(" ", "_"))
    node = None
    for uri, predicates in payload.items():
        if uri.endswith(suffix):
            node = predicates
            break
    if node is None:
        return None
    properties: dict[str, list[str]] = {}
    ontology_types: list[str] = []
    abstract_by_lang: dict[str, str] = {}
    for predicate, values in node.items():
        name = _local_name(predicate)
        if name == "type":
            for value in values:
                uri = value.get("value", "")
                if "dbpedia.org/ontology/" in uri:
                    ontology_types.append(_local_name(uri))
            continue
        rendered = []
        for value in values:
            if value.get("type") == "uri":
                rendered.append(_resource_title(value["value"]))
            else:
                text = str(value.get("value", ""))
                if name.lower() == "abstract":
                    abstract_by_lang[value.get("lang", "")] = text
                    continue
                rendered.append(text)
        if rendered:
            properties.setdefault(name.lower(), []).extend(rendered)
    abstract = (
        abstract_by_lang.get(language)
        or abstract_by_lang.get("en")
        or next(iter(abstract_by_lang.values()), None)
    )
    return DbpediaRecord(
        title=title,
        language=language,
        properties=properties,
        ontology_types=ontology_types,
        abstract=abstract,
    ).to_json()


def _local_name(uri: str) -> str:
    return re.split(r"[/#]", uri)[-1]


def _resource_title(uri: str) -> str:
    return urllib.parse.unquote(_local_name(uri)).replace("_", " ")
