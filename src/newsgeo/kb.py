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
asked (:class:`KbCacheMiss`, :class:`KbRemoteError`, also for a payload not
of the endpoint's documented shape): that raises, caches nothing and fails
the command, so an unreachable KB is never scored as a wrong prediction.

Cache file format: one JSON object per line, ``{"source": s, "key": k,
"value": v}``, append-only with the last write winning. The format is
deliberately diff-friendly so recorded fixtures can live in version control.
Loading indexes the offset of each key's last line, and keeps that index in
a file beside the cache for the next load; a value is decoded when it is
read, and a corrupt one (invalid JSON or UTF-8) raises :class:`KbCacheCorrupt`
naming its file and line at that point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import os
import re
import threading
import time
import urllib.parse
import zlib
from pathlib import Path
from typing import Any, Callable

from .memo import Memo

logger = logging.getLogger(__name__)

ONLINE = "online-then-cache"
CACHE_ONLY = "cache-only"

WIKIDATA_ENTITY_URL = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
DBPEDIA_DATA_URL = "https://{lang}.dbpedia.org/data/{title}.json"

_QID_RE = re.compile(r"^Q[0-9]+$")

# Marker stored as a cache value when the remote endpoint confirmed absence.
_MISSING = {"__missing__": True}

# GET of a URL that carries its whole query; the JSON payload, or LookupError on a 404.
Transport = Callable[[str], Any]


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
    """The remote endpoint kept failing after retries, or sent a payload
    without the shape it documents."""


class KbCacheCorrupt(KbError, ValueError):
    """A cache line is not a valid record; the message names file and line."""


class KbCache:
    """Append-only JSON key-value store, keyed by (source, key).

    Loading reads the file once as bytes and indexes it in one regex pass:
    each (source, key) maps to the offset of its last line, and a value is
    decoded only when `get` reads it, so a command pays for the records it
    uses, not for the whole history. A line in the form `put` writes, with a
    source and key free of quotes, backslashes and control characters, has
    them read from its prefix; any other line is decoded in full at load, so
    a malformed one, or one whose source or key is not a string, fails there.
    A corrupt value behind a well-formed prefix, invalid UTF-8 included, is
    found when it is first read: `get` raises :class:`KbCacheCorrupt` naming
    the file and line.

    The pass starts where the index file beside the cache (`<cache>.index`)
    ends: it holds the offsets of the first `covered` bytes, up to a newline,
    with their CRC-32, and is used only while those bytes are unchanged.
    A load that indexes any line rewrites it (a temporary file, then a
    rename). The index is disposable: a failed write is ignored, and a
    missing, unreadable or stale index only makes the pass start at 0.

    Concurrent reads are safe; writes are serialized through a single lock and
    flushed immediately so parallel workers sharing one cache never observe a
    torn line.
    """

    FILENAME = "kb_cache.jsonl"

    def __init__(self, path: str | Path):
        path = Path(path)
        if path.suffix != ".jsonl":
            path = path / self.FILENAME
        self.path = path
        self._lock = threading.Lock()
        self._data = path.read_bytes() if path.exists() else b""
        end = self._data.rfind(b"\n") + 1
        # source -> key -> offset of its last line in `_data`, or its `put` line
        self._entries: dict[str, dict[str, int | str]]
        self._entries, start, crc = self._load_index(end)
        keys_of: dict[bytes, dict[str, int | str]] = {}  # by the source's bytes
        offset = -1  # of the last line indexed
        try:
            for match in _LINE.finditer(self._data, start, end):
                offset = match.start()
                source, key = match.group(1, 2)
                if source is None:
                    source, key = self._read(offset)[0]
                    self._entries.setdefault(source, {})[key] = offset
                else:
                    if source not in keys_of:
                        keys_of[source] = self._entries.setdefault(source.decode("utf-8"), {})
                    keys_of[source][key.decode("utf-8")] = offset
        except (ValueError, KeyError, TypeError) as exc:
            raise _corrupt(path, self._number(offset), exc) from exc
        if offset >= 0:
            self._save_index(end, zlib.crc32(memoryview(self._data)[start:end], crc))
        # A crash in the middle of `put` leaves a torn last line without its
        # newline: it is skipped here and cut off by the next `put`.
        self._torn_at: int | None = None
        self._unterminated = bool(self._data[end:].strip())
        if self._unterminated:
            try:
                (source, key), _ = self._read(end)
                self._entries.setdefault(source, {})[key] = end
            except (ValueError, KeyError, TypeError):
                logger.warning("%s:%d: skipping a torn last line", path, self._number(end))
                self._torn_at = end

    def __contains__(self, source_key: tuple[str, str]) -> bool:
        source, key = source_key
        return key in self._entries.get(source, ())

    def __len__(self) -> int:
        return sum(map(len, self._entries.values()))

    def get(self, source: str, key: str, decode: Callable[[Any], Any] = lambda v: v) -> Any:
        """`decode` of the value of (source, key), read afresh on every call; a
        value `decode` cannot take is a corrupt record, like one not in JSON."""
        entry = self._entries[source][key]
        try:
            found, value = self._read(entry)
            if found != (source, key):
                raise ValueError(f"record is for {found[0]}:{found[1]}")
            return decode(value)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise _corrupt(self.path, self._number(entry), exc) from exc

    def put(self, source: str, key: str, value: Any) -> None:
        line = json.dumps(
            {"source": source, "key": key, "value": value}, ensure_ascii=False
        )
        with self._lock:
            self._entries.setdefault(source, {})[key] = line
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                if self._torn_at is not None:
                    handle.truncate(self._torn_at)
                elif self._unterminated:
                    handle.write("\n")
                handle.write(line + "\n")
            self._torn_at, self._unterminated = None, False

    def keys(self) -> list[tuple[str, str]]:
        return sorted((source, key) for source, keys in self._entries.items() for key in keys)

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
        return len(self)

    def _read(self, entry: int | str) -> tuple[tuple[str, str], Any]:
        """(source, key) and value of the line at an offset of `_data`, or of a `put`."""
        if isinstance(entry, int):
            end = self._data.find(b"\n", entry)
            entry = self._data[entry : None if end < 0 else end].decode("utf-8")
        record = json.loads(entry)
        source, key = record["source"], record["key"]
        if type(source) is not str or type(key) is not str:
            raise TypeError(f"source and key must be strings, got {source!r} and {key!r}")
        return (source, key), record["value"]

    def _load_index(self, end: int) -> tuple[dict[str, dict[str, int | str]], int, int]:
        """The entries of the index file, the number of bytes of `_data` they
        cover and their CRC; ({}, 0, 0) when the index is missing, unreadable
        or does not match the first bytes of `_data`."""
        try:
            index = json.loads(self._index_path().read_bytes())
            covered, crc, entries = index["covered"], index["crc32"], index["entries"]
        except (OSError, ValueError, KeyError, TypeError):
            return {}, 0, 0
        if not (
            type(covered) is int
            and type(crc) is int
            and 0 < covered <= end
            and zlib.crc32(memoryview(self._data)[:covered]) == crc
            and type(entries) is dict
            and all(
                type(keys) is dict and all(type(offset) is int for offset in keys.values())
                for keys in entries.values()
            )
        ):
            return {}, 0, 0
        return entries, covered, crc

    def _save_index(self, covered: int, crc: int) -> None:
        """Write `_entries` as the index of the first `covered` bytes of `_data`.

        The cache file stays the only authority, so a failed write is ignored.
        """
        index = self._index_path()
        temp = index.with_name(f"{index.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            temp.write_text(
                json.dumps({"covered": covered, "crc32": crc, "entries": self._entries}),
                encoding="ascii",
            )
            os.replace(temp, index)
        except OSError:
            with contextlib.suppress(OSError):
                temp.unlink()

    def _index_path(self) -> Path:
        return self.path.with_name(self.path.name + ".index")

    def _number(self, entry: int | str) -> int | None:
        """The line number of an offset of `_data`; None for the line of a `put`."""
        return self._data.count(b"\n", 0, entry) + 1 if isinstance(entry, int) else None


# A line of `_data` that is not blank; one in the form `put` writes, with a
# source and key that need no JSON unescaping, has them as groups 1 and 2.
_LINE = re.compile(
    rb'^(?:\{"source": "([^"\\\x00-\x1f]*)", "key": "([^"\\\x00-\x1f]*)", "value": [^\n]*\}\n'
    rb"|[ \t\r\f\v]*\S[^\n]*)",
    re.M,
)


def _corrupt(path: Path, number: int | None, exc: Exception) -> KbCacheCorrupt:
    detail = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
    return KbCacheCorrupt(f"{path}:{number}: bad cache record ({detail})")


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


def default_transport(url: str) -> Any:
    """GET a JSON document. Raises LookupError on HTTP 404."""
    import requests

    response = requests.get(
        url,
        headers={"User-Agent": "newsgeo/0.1 (news location detection pipeline)"},
        timeout=30,
    )
    if response.status_code == 404:
        raise LookupError(url)
    response.raise_for_status()
    return response.json()


def forbidden_transport(url: str) -> Any:
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
        # Fetches of this run by (source, key). It holds only a marker, since
        # the cache is the store; the second thread to miss a key waits for
        # the first one's fetch and reads its record.
        self._fetched = Memo()

    def _lookup(self, source: str, key: str, fetch: Callable[[], Any], decode: Callable) -> Any:
        """`decode` of the record of (source, key); a missing one is first
        `fetch`ed (usually a `_fetch_reduced` of one URL) and cached.

        Honours the network policy. A 404, or a payload that holds nothing
        for the key (`fetch` returns None), is a confirmed absence: it is
        cached and gives None, on this call and every later one. A record
        that `decode` cannot take raises :class:`KbCacheCorrupt`. Threads
        that miss one key together fetch and write it once.
        """
        if (source, key) not in self.cache:
            if self.policy == CACHE_ONLY:
                raise KbCacheMiss(source, key)
            self._fetched.get((source, key), lambda: self._fetch_into_cache(source, key, fetch))
        return self.cache.get(
            source, key, lambda value: None if value == _MISSING else decode(value)
        )

    def _fetch_into_cache(self, source: str, key: str, fetch: Callable[[], Any]) -> bool:
        # Nested lookups go from `wikidata` to `wikidata-label` and from
        # `wplink` to `wptitle` only, so no fetch waits on a key whose fetch
        # waits on it.
        value = fetch()
        self.cache.put(source, key, _MISSING if value is None else value)
        return True

    def _fetch_reduced(self, url: str, reduce: Callable[[Any], Any]) -> Any:
        """`reduce` of the payload at `url`; None on a 404. A `KbError` from
        `reduce` passes unchanged; a payload `reduce` cannot read raises
        :class:`KbRemoteError` naming `url`."""
        payload = self._fetch_remote(url)
        try:
            return None if payload is None else reduce(payload)
        except KbError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError, IndexError) as exc:
            # Not the shape the endpoint documents: an outage of the KB, not
            # an answer, so nothing is cached and a later run asks again.
            raise KbRemoteError(f"{url}: malformed payload ({type(exc).__name__}: {exc})") from exc

    def _fetch_remote(self, url: str) -> Any:
        """The payload at `url`; None on a 404. Raises KbRemoteError when the
        transport keeps failing after the retries."""
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            self.rate_limiter.wait()
            try:
                return self.transport(url)
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

    def fetch(self, qid: str) -> WikidataItem | None:
        """The entity with country / instance-of / located-in populated; None
        when it does not exist."""
        if not _QID_RE.match(qid or ""):
            raise ValueError(f"malformed WikiData id {qid!r}")
        url = WIKIDATA_ENTITY_URL.format(qid=qid)
        return self._lookup(
            self.SOURCE, qid,
            lambda: self._fetch_reduced(url, lambda p: self._parse_entity(qid, p)),
            WikidataItem.from_json,
        )

    def label(self, qid: str) -> str | None:
        """English label of an entity (else any), from its labels-only record
        (`wikidata-label`); None when the entity does not exist or has no labels."""
        url = WIKIDATA_ENTITY_URL.format(qid=qid)
        return self._lookup(
            self.LABEL_SOURCE, qid,
            lambda: self._fetch_reduced(url, lambda p: _labels_record(qid, p)),
            lambda value: _pick_label(value["labels"], "en"),
        )

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
        page = urllib.parse.quote(title.replace(" ", "_"))
        url = DBPEDIA_DATA_URL.format(lang=language, title=page)
        return self._lookup(
            self.SOURCE, f"{language}:{title}",
            lambda: self._fetch_reduced(url, lambda p: _parse_dbpedia(title, language, p)),
            DbpediaRecord.from_json,
        )


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
