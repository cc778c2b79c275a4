"""Cached clients for the WikiData and DBpedia knowledge bases.

Both clients share a persistent key-value cache so that a warmed cache makes
every lookup reproducible offline: with the ``cache-only`` policy no network
call is ever issued and a miss raises :class:`KbCacheMiss` naming the missing
key. The ``online-then-cache`` policy fetches through a rate-limited transport
and records results (including confirmed absences) for later runs. The
policies are named in ``config``, and the WikiData id check that every id
passes is in ``corpus``, which mentions and gold rows use too.

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
a binary file beside the cache: sorted 64-bit key hashes and their offsets,
which the next load checks and then searches in place, so opening a long
cache decodes none of its history. A value is decoded when it is read, and a
corrupt one (invalid JSON or UTF-8) raises :class:`KbCacheCorrupt` naming its
file and line at that point.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import logging
import os
import re
import struct
import sys
import threading
import time
import urllib.parse
import zlib
from array import array
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .config import CACHE_ONLY, ONLINE
from .corpus import _check_qid
from .memo import Memo, article_index, waiting

try:  # hashlib's own blake2b, without the OpenSSL bindings `import hashlib` loads (3 ms)
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

logger = logging.getLogger(__name__)

WIKIDATA_ENTITY_URL = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
DBPEDIA_DATA_URL = "https://{lang}.dbpedia.org/data/{title}.json"

# Marker stored as a cache value when the remote endpoint confirmed absence.
_MISSING = {"__missing__": True}

# A failed request is retried RETRIES times, after BACKOFF_S seconds, doubled each time.
RETRIES = 3
BACKOFF_S = 0.5

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
    ends. That binary file, in this machine's byte order, covers the first
    `covered` bytes, up to a newline: a header (a tag naming the format and
    byte order, `covered` and their CRC-32, the counts of distinct keys and
    of entries, the body's CRC-32), then the entries' 64-bit key hashes,
    sorted, and their line offsets in the same order. A key's hash is the
    8-byte BLAKE2b digest of `source + "\\0" + key` in UTF-8, the same in
    every process. A load that finds the index whole searches it in place,
    decoding nothing per key. A hit counts only when the line at its offset,
    read by the load's rule, holds that source and key, and the last such
    line wins, so neither a hash collision nor a damaged index can answer
    with another key's record. A load that indexes any line merges their
    entries into the index, searches the merged index from then on, and
    rewrites the file with it (a temporary file, then a rename).
    The index is disposable: a failed write is ignored, and a missing,
    unreadable or stale index only makes the pass start at 0.

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
        # source -> key -> offset of its last line in `_data`, or its `put`
        # line: the keys of `put`s, and those found in the index
        self._entries: dict[str, dict[str, int | str]] = {}
        # the index's hashes and offsets, and its count of distinct keys
        self._hashes, self._offsets, self._len, start, crc = self._load_index(end)
        # source -> key -> offset of the last line, both in UTF-8, so that a
        # line in `put`'s form is hashed from the bytes its match holds
        keys_of: dict[bytes, dict[bytes, int]] = {}
        offset = -1  # of the last line indexed
        try:
            for match in _LINE.finditer(self._data, start, end):
                offset = match.start()
                source, key = match.group(1, 2)
                if source is None:
                    source, key = map(_utf8, self._read(offset)[0])
                else:  # invalid UTF-8 fails at its own line
                    key.decode("utf-8")
                    if source not in keys_of:
                        source.decode("utf-8")
                keys_of.setdefault(source, {})[key] = offset
        except (ValueError, KeyError, TypeError) as exc:
            raise _corrupt(path, self._number(offset), exc) from exc
        added = []  # (hash, offset) of each key of the lines after the index
        for source, keys in keys_of.items():
            for key, offset in keys.items():
                digest = _key_hash(source, key)
                added.append((digest, offset))
                # every key is new to an empty index; `_search` finds the others
                if not start or self._search(digest, _text(source), _text(key)) is None:
                    self._len += 1
        if added:
            self._merge_index(end, zlib.crc32(memoryview(self._data)[start:end], crc), added)
        # A crash in the middle of `put` leaves a torn last line without its
        # newline: it is skipped here and cut off by the next `put`.
        self._torn_at: int | None = None
        self._unterminated = bool(self._data[end:].strip())
        if self._unterminated:
            try:
                (source, key), _ = self._read(end)
                self._len += (source, key) not in self
                self._entries.setdefault(source, {})[key] = end
            except (ValueError, KeyError, TypeError):
                logger.warning("%s:%d: skipping a torn last line", path, self._number(end))
                self._torn_at = end

    def __contains__(self, source_key: tuple[str, str]) -> bool:
        return self._entry(*source_key) is not None

    def __len__(self) -> int:
        return self._len

    def get(self, source: str, key: str, decode: Callable[[Any], Any] = lambda v: v) -> Any:
        """`decode` of the value of (source, key), read afresh on every call; a
        value `decode` cannot take is a corrupt record, like one not in JSON."""
        entry = self._entry(source, key)
        if entry is None:
            raise KeyError((source, key))
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
            self._len += (source, key) not in self
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
        """Every (source, key), sorted; the one call that reads every entry of the index."""
        found = {(source, key) for source, keys in self._entries.items() for key in keys}
        for digest, offset in zip(self._hashes, self._offsets):
            source_key = self._key_at(offset)
            if source_key is not None and _key_hash(*map(_utf8, source_key)) == digest:
                found.add(source_key)
        return sorted(found)

    def export(self, path: str | Path) -> int:
        """Write a deduplicated snapshot, sorted by (source, key)."""
        keys = self.keys()
        with Path(path).open("w", encoding="utf-8") as handle:
            for source, key in keys:
                handle.write(
                    json.dumps(
                        {"source": source, "key": key, "value": self.get(source, key)},
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        return len(keys)

    def _entry(self, source: str, key: str) -> int | str | None:
        """The offset of the last line of (source, key) in `_data`, or its
        `put` line; None when it has neither. An index hit is kept in `_entries`."""
        keys = self._entries.get(source)
        if keys is not None and key in keys:
            return keys[key]
        offset = self._search(_key_hash(_utf8(source), _utf8(key)), source, key)
        if offset is None:
            return None
        # unless a `put` of the key came first
        return self._entries.setdefault(source, {}).setdefault(key, offset)

    def _search(self, digest: int, source: str, key: str) -> int | None:
        """The highest offset in the index of a line of (source, key), whose
        hash is `digest`; None when the index holds none."""
        low = bisect.bisect_left(self._hashes, digest)
        for i in reversed(range(low, bisect.bisect_right(self._hashes, digest, low))):
            if self._key_at(self._offsets[i]) == (source, key):
                return self._offsets[i]
        return None

    def _key_at(self, offset: int) -> tuple[str, str] | None:
        """(source, key) of the line at `offset` of `_data` as loading reads
        it; None when no record starts there."""
        match = _LINE.match(self._data, offset)
        if match is None:
            return None
        source, key = match.group(1, 2)
        try:
            if source is None:
                return self._read(offset)[0]
            return source.decode("utf-8"), key.decode("utf-8")
        except (ValueError, KeyError, TypeError):
            return None

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

    def _load_index(self, end: int) -> tuple[memoryview, memoryview, int, int, int]:
        """The hashes, offsets and key count of the index file, the number of
        bytes of `_data` it covers and their CRC; empty arrays and zeros when
        the index is missing, unreadable or does not match the first bytes of
        `_data`."""
        empty = memoryview(b"").cast("Q")
        try:
            index = memoryview(self._index_path().read_bytes())
            magic, covered, crc, keys, entries, body_crc = _INDEX_HEADER.unpack_from(index)
        except (OSError, struct.error):
            return empty, empty, 0, 0, 0
        body = index[_INDEX_HEADER.size :]
        if not (
            magic == _INDEX_MAGIC
            and len(body) == 16 * entries
            and keys <= entries
            and 0 < covered <= end
            and zlib.crc32(body) == body_crc
            and zlib.crc32(memoryview(self._data)[:covered]) == crc
        ):
            return empty, empty, 0, 0, 0
        hashes, offsets = body[: 8 * entries].cast("Q"), body[8 * entries :].cast("Q")
        return hashes, offsets, keys, covered, crc

    def _merge_index(self, covered: int, crc: int, added: list[tuple[int, int]]) -> None:
        """Merge the (hash, offset) entries `added` into the loaded index in
        one pass, search the result from now on, and write it as the index of
        the first `covered` bytes of `_data`, whose CRC is `crc`.

        The cache file stays the only authority, so a failed write is ignored.
        """
        added.sort()
        if not self._hashes:  # no index was loaded: `added` is the whole index
            hashes, offsets = zip(*added)
            body = array("Q", hashes).tobytes() + array("Q", offsets).tobytes()
        else:
            hashes, offsets = [], []  # the pieces of the two arrays' bytes
            start = 0
            for digest, offset in added:
                # after the loaded entries of an equal hash, whose lines come first
                cut = bisect.bisect_right(self._hashes, digest, start)
                if cut > start:
                    hashes.append(self._hashes[start:cut].cast("B"))
                    offsets.append(self._offsets[start:cut].cast("B"))
                hashes.append(_INDEX_ITEM.pack(digest))
                offsets.append(_INDEX_ITEM.pack(offset))
                start = cut
            hashes.append(self._hashes[start:].cast("B"))
            offsets.append(self._offsets[start:].cast("B"))
            body = b"".join(hashes + offsets)
        view, half = memoryview(body), len(body) // 2
        self._hashes, self._offsets = view[:half].cast("Q"), view[half:].cast("Q")
        header = _INDEX_HEADER.pack(
            _INDEX_MAGIC, covered, crc, self._len, len(body) // 16, zlib.crc32(body)
        )
        index = self._index_path()
        temp = index.with_name(f"{index.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            temp.write_bytes(header + body)
            os.replace(temp, index)
        except OSError:
            with contextlib.suppress(OSError):
                temp.unlink()

    def _index_path(self) -> Path:
        return self.path.with_name(self.path.name + ".index")

    def _number(self, entry: int | str) -> int | None:
        """The line number of an offset of `_data`; None for the line of a `put`."""
        return self._data.count(b"\n", 0, entry) + 1 if isinstance(entry, int) else None


# The index file's header: tag, covered, its CRC-32, keys, entries, body CRC-32.
_INDEX_MAGIC = f"kbindex2 {sys.byteorder}".encode().ljust(16)
_INDEX_HEADER = struct.Struct("=16sQIQQI")
_INDEX_ITEM = struct.Struct("=Q")


def _key_hash(source: bytes, key: bytes) -> int:
    """A 64-bit hash of (source, key), each in UTF-8, the same in every
    process (unlike `hash`); a line in `put`'s form holds both bytes."""
    return int.from_bytes(blake2b(source + b"\0" + key, digest_size=8).digest(), "little")


def _utf8(text: str) -> bytes:
    """`text` in UTF-8, a lone surrogate included."""
    return text.encode("utf-8", "surrogatepass")


def _text(utf8: bytes) -> str:
    """The inverse of `_utf8`."""
    return utf8.decode("utf-8", "surrogatepass")


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
    """Enforces a minimum interval between calls across threads.

    Each slot goes to the waiting thread whose article comes first in corpus
    order (`memo.article_index`), so a later article's request never takes
    the slot an earlier article waits for, and the articles finish about in
    the order `map_articles` starts them. Threads that run no article of a
    map go first; they, and threads of one article, go in arrival order.
    """

    def __init__(self, per_second: float = 10.0):
        self._interval = 1.0 / per_second
        self._ready = threading.Condition()
        # (article index, arrival number) of each waiting thread; the least goes next
        self._waiting: list[tuple[int, int]] = []
        self._arrivals = 0
        self._last = 0.0

    def wait(self) -> None:
        """Return at this thread's slot: when no earlier article waits and the
        interval since the last slot has passed. An interrupted wait leaves
        the queue, so it holds up no other thread."""
        index = article_index()
        with self._ready:
            me = (-1 if index is None else index, self._arrivals)
            self._arrivals += 1
            self._waiting.append(me)
            try:
                while True:
                    if min(self._waiting) != me:
                        self._ready.wait()
                        continue
                    delay = self._last + self._interval - time.monotonic()
                    if delay <= 0:
                        break
                    # An earlier article that comes meanwhile takes the slot.
                    self._ready.wait(delay)
                self._last = time.monotonic()
            finally:
                self._waiting.remove(me)
                self._ready.notify_all()


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


class WikidataItem(NamedTuple):
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

    def label(self) -> str | None:
        return _pick_label(self.labels)

    @staticmethod
    def from_json(d: dict[str, Any]) -> "WikidataItem":
        qid, labels, p17, p31, p131 = d["qid"], d["labels"], d["p17"], d["p31"], d["p131"]
        # Fetched payloads and cached records both become items here, so a
        # field of the wrong JSON type, an id or claim target that is not an
        # item id, or a label that is not a string never reaches a lookup or
        # a report; a string where a list belongs would read as its characters.
        if type(labels) is not dict:
            raise TypeError(f"labels must be an object, got {labels!r}")
        for field, ids in (("p17", p17), ("p131", p131)):
            if type(ids) is not list:
                raise TypeError(f"{field} must be a list of item ids, got {ids!r}")
        if type(p31) is not list or any(
            type(pair) not in (list, tuple) or len(pair) != 2 for pair in p31
        ):
            raise TypeError(f"p31 must be a list of [qid, label] pairs, got {p31!r}")
        p31 = [tuple(pair) for pair in p31]
        for target in (qid, *p17, *(class_qid for class_qid, _ in p31), *p131):
            _check_qid(target)
        for label in (*labels.values(), *(label for _, label in p31)):
            _check_string(label, "label")
        return WikidataItem(qid, labels, p17, p31, p131)

    def to_json(self) -> dict[str, Any]:
        return dict(self._asdict(), p31=[list(pair) for pair in self.p31])


class DbpediaRecord(NamedTuple):
    """A DBpedia page: properties (names lowercased at ingest), types, abstract."""

    title: str
    language: str
    properties: dict[str, list[str]]
    ontology_types: list[str]
    abstract: str | None = None

    @staticmethod
    def from_json(d: dict[str, Any]) -> "DbpediaRecord":
        title, language, properties = d["title"], d["language"], d["properties"]
        ontology_types, abstract = d["ontology_types"], d.get("abstract")
        # Fetched payloads and cached records both become records here, so a
        # field of the wrong JSON type never reaches a lookup; a string where
        # a list belongs would read as its characters.
        _check_string(title, "title")
        _check_string(language, "language")
        if abstract is not None:
            _check_string(abstract, "abstract")
        if type(properties) is not dict:
            raise TypeError(f"properties must be an object, got {properties!r}")
        for name, values in properties.items():
            _check_strings(values, f"property {name!r}")
        _check_strings(ontology_types, "ontology_types")
        return DbpediaRecord(title, language, properties, ontology_types, abstract)

    def to_json(self) -> dict[str, Any]:
        return self._asdict()


class _CachedClient:
    def __init__(
        self,
        cache: KbCache,
        policy: str = CACHE_ONLY,
        transport: Transport | None = None,
        rate_limiter: RateLimiter | None = None,
    ):
        if policy not in (ONLINE, CACHE_ONLY):
            raise ValueError(f"unknown fetch policy {policy!r}")
        self.cache = cache
        self.policy = policy
        self.transport = transport or default_transport
        self.rate_limiter = rate_limiter or RateLimiter()
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
        """`reduce` of the payload at `url`; None on a 404. A transport that
        keeps failing after the retries, or a payload `reduce` cannot read,
        raises :class:`KbRemoteError` naming `url`; a `KbError` passes unchanged."""
        waiting()  # another thread may take the map's next article meanwhile
        for attempt in range(RETRIES + 1):
            self.rate_limiter.wait()
            try:
                payload = self.transport(url)
                break
            except LookupError:
                return None
            except Exception as exc:
                if attempt == RETRIES:
                    raise KbRemoteError(f"{url}: {exc}") from exc
                delay = BACKOFF_S * (2**attempt)
                logger.warning("fetch failed (%s); retrying in %.1fs", exc, delay)
                time.sleep(delay)
        try:
            return None if payload is None else reduce(payload)
        except KbError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError, IndexError) as exc:
            # Not the shape the endpoint documents: an outage of the KB, not
            # an answer, so nothing is cached and a later run asks again.
            raise KbRemoteError(f"{url}: malformed payload ({type(exc).__name__}: {exc})") from exc


class WikidataClient(_CachedClient):
    """Per-entity WikiData lookups with label resolution for target classes."""

    SOURCE = "wikidata"
    LABEL_SOURCE = "wikidata-label"

    def fetch(self, qid: str) -> WikidataItem | None:
        """The entity with country / instance-of / located-in populated; None
        when it does not exist."""
        url = WIKIDATA_ENTITY_URL.format(qid=_check_qid(qid))
        return self._lookup(
            self.SOURCE, qid,
            lambda: self._fetch_reduced(url, lambda p: self._parse_entity(qid, p)),
            WikidataItem.from_json,
        )

    def label(self, qid: str) -> str | None:
        """English label of an entity (else any), from its labels-only record
        (`wikidata-label`); None when the entity does not exist or has no labels."""
        url = WIKIDATA_ENTITY_URL.format(qid=_check_qid(qid))
        return self._lookup(
            self.LABEL_SOURCE, qid,
            lambda: self._fetch_reduced(url, lambda p: _labels_record(qid, p)),
            lambda value: _pick_label(
                {lang: _check_string(label, "label") for lang, label in value["labels"].items()}
            ),
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
        return WikidataItem.from_json(
            dict(qid=qid, labels=labels, p17=p17, p31=p31, p131=p131)
        ).to_json()


def _check_string(value: Any, field: str) -> str:
    """`value` itself; TypeError unless it is a string."""
    if type(value) is not str:
        raise TypeError(f"{field} must be a string, got {value!r}")
    return value


def _check_strings(values: Any, field: str) -> None:
    """TypeError unless `values` is a list of strings."""
    if type(values) is not list or any(type(value) is not str for value in values):
        raise TypeError(f"{field} must be a list of strings, got {values!r}")


def _pick_label(labels: dict[str, str]) -> str | None:
    """The English label, else any; None without labels."""
    return labels["en"] if "en" in labels else next(iter(labels.values()), None)


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
    labels = entity.get("labels", {})
    return {lang: _check_string(record["value"], "label") for lang, record in labels.items()}


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
    return DbpediaRecord.from_json(
        dict(
            title=title,
            language=language,
            properties=properties,
            ontology_types=ontology_types,
            abstract=abstract,
        )
    ).to_json()


def _local_name(uri: str) -> str:
    return re.split(r"[/#]", uri)[-1]


def _resource_title(uri: str) -> str:
    return urllib.parse.unquote(_local_name(uri)).replace("_", " ")
