"""Cache, fetch policies, retry behaviour and payload parsing."""

import hashlib
import json
import os
import random
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from newsgeo import kb
from newsgeo.kb import (
    CACHE_ONLY,
    ONLINE,
    DbpediaClient,
    KbCache,
    KbCacheCorrupt,
    KbCacheMiss,
    KbError,
    KbRemoteError,
    RateLimiter,
    WikidataClient,
    WikidataItem,
    forbidden_transport,
)
from newsgeo.linking import WikipediaLinker
from newsgeo.locations import LocationTuple, Resolver, resolve_city

from conftest import FIXTURES, cache_only_resolver, count_calls
from oracles import CORRUPT, oracle_kb_cache


@pytest.fixture()
def scans(monkeypatch):
    """The (start, end) of every indexing pass over a cache file's bytes."""
    found = []
    line = kb._LINE

    class Recording:
        match = line.match

        def finditer(self, data, start, end):
            found.append((start, end))
            return line.finditer(data, start, end)

    monkeypatch.setattr(kb, "_LINE", Recording())
    return found


HEADER = struct.Struct("=16sQIQQI")  # magic, covered, crc32, keys, entries, body_crc32


def key_hash(source, key):
    text = f"{source}\0{key}".encode("utf-8", "surrogatepass")
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")


def read_index(path):
    """The header fields and the (hash, offset) entries of the index beside cache `path`."""
    data = path.with_name(path.name + ".index").read_bytes()
    magic, covered, crc, keys, count, body_crc = HEADER.unpack_from(data)
    assert len(data) == HEADER.size + 16 * count
    assert zlib.crc32(data[HEADER.size :]) == body_crc
    hashes = struct.unpack_from(f"={count}Q", data, HEADER.size)
    offsets = struct.unpack_from(f"={count}Q", data, HEADER.size + 8 * count)
    assert list(hashes) == sorted(hashes)
    return dict(
        magic=magic, covered=covered, crc32=crc, keys=keys, entries=list(zip(hashes, offsets))
    )


def rewrite_index(index, body=None, **fields):
    """`index` with header `fields` replaced and a body CRC that matches `body`."""
    names = ["magic", "covered", "crc32", "keys", "entries", "body_crc32"]
    header = dict(zip(names, HEADER.unpack_from(index)))
    body = index[HEADER.size :] if body is None else body
    header.update(body_crc32=zlib.crc32(body), **fields)
    return HEADER.pack(*(header[name] for name in names)) + body


class TestKbCache:
    def test_fixture_put_leaves_the_committed_cache_alone(self, kb_cache):
        committed = FIXTURES / "kb_cache.jsonl"
        before = committed.read_bytes()
        kb_cache.put("wikidata", "Q1", {"labels": {"en": "Universe"}})
        assert kb_cache.path != committed
        assert committed.read_bytes() == before

    def test_put_get_contains(self, tmp_path):
        cache = KbCache(tmp_path / "c.jsonl")
        cache.put("src", "k", {"a": 1})
        assert ("src", "k") in cache
        assert cache.get("src", "k") == {"a": 1}
        assert ("src", "other") not in cache

    def test_a_put_over_an_existing_key_keeps_the_length(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = KbCache(path)
        cache.put("src", "k", 1)
        cache.put("src", "k", 2)
        assert len(cache) == 1
        reloaded = KbCache(path)  # through the index
        reloaded.put("src", "k", 3)
        assert len(reloaded) == 1 and reloaded.get("src", "k") == 3
        reloaded.put("src", "k2", 4)
        assert len(reloaded) == 2 and len(KbCache(path)) == 2

    def test_directory_argument_appends_filename(self, tmp_path):
        cache = KbCache(tmp_path)
        assert cache.path == tmp_path / "kb_cache.jsonl"

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = KbCache(path)
        cache.put("src", "k", "old")
        cache.put("src", "k", "new")
        assert cache.get("src", "k") == "new"
        # The duplicate lines persist in the file; reloading keeps the latest.
        assert KbCache(path).get("src", "k") == "new"
        assert len(path.read_text().splitlines()) == 2

    def test_appends_survive_reopen(self, tmp_path):
        path = tmp_path / "c.jsonl"
        KbCache(path).put("src", "k1", 1)
        cache = KbCache(path)
        cache.put("src", "k2", 2)
        reloaded = KbCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("src", "k1") == 1

    def test_torn_last_line_is_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        KbCache(path).put("src", "k1", "Zürich")
        whole = json.dumps({"source": "src", "key": "k2", "value": "Zürich"}, ensure_ascii=False)
        torn = whole.encode("utf-8")[: whole.encode("utf-8").index("ü".encode("utf-8")) + 1]
        with path.open("ab") as handle:
            handle.write(torn)  # cut inside a two-byte character
        cache = KbCache(path)
        assert len(cache) == 1 and cache.get("src", "k1") == "Zürich"
        assert f"{path}:2: skipping a torn last line" in caplog.text

    def test_put_after_torn_line_replaces_the_fragment(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        KbCache(path).put("src", "k1", 1)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"source": "src", "key": "k2", "val')
        KbCache(path).put("src", "k3", 3)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["key"] for line in lines] == ["k1", "k3"]
        caplog.clear()
        reopened = KbCache(path)
        assert reopened.keys() == [("src", "k1"), ("src", "k3")]
        assert "torn" not in caplog.text

    def test_unterminated_last_record_is_kept_and_next_put_starts_a_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"source": "src", "key": "k1", "value": 1}), encoding="utf-8")
        cache = KbCache(path)
        assert cache.get("src", "k1") == 1
        cache.put("src", "k2", 2)
        assert KbCache(path).keys() == [("src", "k1"), ("src", "k2")]

    @pytest.mark.parametrize(
        "bad", ["{not json", '{"source": "src"}', "[1, 2]", '{"source": "src", "key": "k", "val'],
    )
    def test_bad_line_before_the_last_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"source": "src", "key": "k", "value": 1})
        path.write_text("\n".join([good, "", bad, good]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}:3: bad cache record"):
            KbCache(path)

    def test_bad_terminated_last_line_is_not_torn(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}:1: bad cache record"):
            KbCache(path)

    @pytest.mark.parametrize(
        "line",
        [
            # put's own form, with keys that need escapes or are not ASCII
            json.dumps({"source": 's"q', "key": "back\\slash", "value": [1]}, ensure_ascii=False),
            json.dumps({"source": "src", "key": 'Zürich, "key": "x', "value": 1}, ensure_ascii=False),
            # other forms are decoded in full at load
            json.dumps({"value": {"a": 1}, "key": "k", "source": "src"}),
            json.dumps({"source": "src", "key": "k", "value": [1, "ü"]}, separators=(",", ":")),
            json.dumps({"source": "sé", "key": "Zürich\n\t", "value": "日本"}, ensure_ascii=True),
            json.dumps({"source": "src", "key": "k", "value": 2, "extra": 3}, ensure_ascii=False),
        ],
    )
    def test_any_record_form_reads_back_as_json_loads(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        record = json.loads(line)
        cache = KbCache(path)
        assert cache.keys() == [(record["source"], record["key"])]
        assert cache.get(record["source"], record["key"]) == record["value"]

    @pytest.mark.parametrize("compact_last", [True, False])
    def test_last_write_wins_across_record_forms(self, tmp_path, compact_last):
        put_form = json.dumps({"source": "src", "key": "k", "value": "put"})
        compact = json.dumps(
            {"key": "k", "source": "src", "value": "compact"}, separators=(",", ":")
        )
        lines = [put_form, compact] if compact_last else [compact, put_form]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert KbCache(path).get("src", "k") == ("compact" if compact_last else "put")

    def test_put_form_lines_are_not_decoded_at_load(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        KbCache(path).put("src", "k1", {"a": 1})
        KbCache(path).put("src", "k2", [2])
        path.with_name("c.jsonl.index").unlink()
        lines = path.read_text(encoding="utf-8").splitlines()
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
        cache = KbCache(path)
        assert [text for text in decoded if text in lines] == []
        assert cache.get("src", "k2") == [2]
        assert [text for text in decoded if text in lines] == [lines[1]]

    def test_a_load_with_a_valid_index_scans_only_the_appended_tail(
        self, tmp_path, monkeypatch, scans
    ):
        path = tmp_path / "c.jsonl"
        compact = json.dumps({"key": "k1", "source": "src", "value": 1}, separators=(",", ":"))
        path.write_text(compact + "\n", encoding="utf-8")
        KbCache(path).put("src", "k2", 2)
        covered = len(compact) + 1
        assert read_index(path)["covered"] == covered
        lines = path.read_text(encoding="utf-8").splitlines()
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
        scans.clear()
        cache = KbCache(path)
        assert scans == [(covered, path.stat().st_size)]
        assert [text for text in decoded if text in lines] == []
        assert cache.keys() == [("src", "k1"), ("src", "k2")]
        assert cache.get("src", "k1") == 1 and cache.get("src", "k2") == 2
        scans.clear()
        KbCache(path)
        assert scans == [(path.stat().st_size, path.stat().st_size)]

    @pytest.mark.parametrize(
        "line",
        [
            {"source": "s", "key": 5, "value": 2},
            {"source": None, "key": "k", "value": 2},
            {"source": "s", "key": ["a"], "value": 2},
            {"source": {"s": 1}, "key": "k", "value": 2},
        ],
    )
    def test_source_or_key_that_is_not_a_string_fails_the_load(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"source": "s", "key": "k", "value": 1})
        data = "\n".join([good, json.dumps(line), good]) + "\n"
        path.write_text(data, encoding="utf-8")
        with pytest.raises(KbCacheCorrupt, match=f"{path}:2: bad cache record .*must be strings"):
            KbCache(path)
        assert oracle_kb_cache(data.encode()).load_error == 2

    def test_corrupt_value_fails_when_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = [json.dumps({"source": "src", "key": k, "value": 1}) for k in ("a", "b")]
        corrupt = '{"source": "src", "key": "k", "value": {oops}'
        path.write_text("\n".join([good[0], corrupt, good[1]]) + "\n", encoding="utf-8")
        cache = KbCache(path)
        assert ("src", "k") in cache and len(cache) == 3
        with pytest.raises(KbCacheCorrupt, match=f"{path}:2: bad cache record"):
            cache.get("src", "k")
        assert issubclass(KbCacheCorrupt, ValueError) and issubclass(KbCacheCorrupt, KbError)
        assert cache.get("src", "a") == 1 and cache.get("src", "b") == 1

    def test_invalid_utf8_fails_in_a_key_at_load_and_in_a_value_when_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"source": "src", "key": "a", "value": 1}).encode()
        in_value = b'{"source": "src", "key": "k", "value": "\xff"}'
        path.write_bytes(b"\n".join([good, in_value, good]) + b"\n")
        cache = KbCache(path)
        with pytest.raises(KbCacheCorrupt, match=f"{path}:2: bad cache record .*utf-8"):
            cache.get("src", "k")
        in_key = b'{"source": "src", "key": "\xffk", "value": 1}'
        path.write_bytes(b"\n".join([good, good, in_key, good]) + b"\n")
        with pytest.raises(KbCacheCorrupt, match=f"{path}:3: bad cache record .*utf-8"):
            KbCache(path)

    def test_put_creates_a_missing_directory(self, tmp_path):
        path = tmp_path / "new" / "dir" / "c.jsonl"
        cache = KbCache(path)
        assert not path.parent.exists()
        cache.put("src", "k", 1)
        assert KbCache(path).get("src", "k") == 1

    def test_mutating_a_read_value_leaves_the_cache_unchanged(self, tmp_path):
        path = tmp_path / "c.jsonl"
        KbCache(path).put("src", "loaded", {"labels": ["a"]})
        cache = KbCache(path)
        cache.put("src", "put", {"labels": ["b"]})
        for key in ("loaded", "put"):
            cache.get("src", key)["labels"].append("mutated")
        assert cache.get("src", "loaded") == {"labels": ["a"]}
        assert cache.get("src", "put") == {"labels": ["b"]}

    def test_export_is_sorted_and_deduplicated(self, tmp_path):
        cache = KbCache(tmp_path / "c.jsonl")
        cache.put("b", "z", 1)
        cache.put("a", "y", 2)
        cache.put("b", "z", 3)
        out = tmp_path / "snapshot.jsonl"
        count = cache.export(out)
        assert count == 2
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["source"], r["key"]) for r in records] == [("a", "y"), ("b", "z")]
        assert records[1]["value"] == 3


class TestKbCacheIndex:
    """The key index beside the cache is used only while it matches the file."""

    def write(self, path, *records):
        lines = [json.dumps(dict(source="src", key=k, value=v)) for k, v in records]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_first_load_writes_the_index_of_every_whole_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write(path, ("k1", 1), ("k2", 2))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"source": "src", "key": "k3", "value": 3}')  # unterminated
        KbCache(path)
        index = read_index(path)
        covered = path.read_bytes().rfind(b"\n") + 1
        assert index["magic"] == f"kbindex2 {sys.byteorder}".encode().ljust(16)
        assert index["covered"] == covered
        assert index["crc32"] == zlib.crc32(path.read_bytes()[:covered])
        assert index["keys"] == 2
        assert index["entries"] == sorted(
            [(key_hash("src", "k1"), 0), (key_hash("src", "k2"), covered // 2)]
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "c.jsonl.index"]

    def test_the_first_index_hashes_each_key_as_its_text(self, tmp_path):
        """A line in `put`'s form and one decoded in full (an escape, another
        field order) give a key the same hash, and its last line wins."""
        path = tmp_path / "c.jsonl"
        records = [
            ({"source": "dbpedia", "key": "de:Köln", "value": 1}, False),
            ({"source": "dbpedia", "key": "de:Zürich", "value": 2}, False),
            ({"source": "dbpedia", "key": "de:Zürich", "value": 3}, True),
            ({"key": "de:Köln", "source": "dbpedia", "value": 4}, False),
        ]
        lines = [json.dumps(record, ensure_ascii=escaped) + "\n" for record, escaped in records]
        path.write_text("".join(lines), encoding="utf-8")
        starts = [len("".join(lines[:i]).encode("utf-8")) for i in range(len(lines))]
        cache = KbCache(path)
        index = read_index(path)
        assert index["keys"] == 2 and len(cache) == 2
        assert index["entries"] == sorted(
            [(key_hash("dbpedia", "de:Köln"), starts[3]), (key_hash("dbpedia", "de:Zürich"), starts[2])]
        )
        assert [KbCache(path).get("dbpedia", key) for key in ("de:Köln", "de:Zürich")] == [4, 3]

    def test_a_load_merges_the_appended_lines_into_the_index(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write(path, *[(f"k{i}", i) for i in range(50)])
        KbCache(path)
        before = read_index(path)["entries"]
        with path.open("a", encoding="utf-8") as handle:
            for key in ("k7", "new1", "new2"):  # k7 is written again
                offset = handle.tell()
                handle.write(json.dumps(dict(source="src", key=key, value=key)) + "\n")
                before.append((key_hash("src", key), offset))
        cache = KbCache(path)
        index = read_index(path)
        assert index["entries"] == sorted(before)
        assert index["keys"] == len(cache) == 52
        assert KbCache(path).get("src", "k7") == "k7"

    def test_a_warm_load_decodes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        self.write(path, *[(f"k{i}", {"n": i}) for i in range(2000)])
        KbCache(path)
        calls = []
        loads = kb.json.loads
        monkeypatch.setattr(kb.json, "loads", lambda text: calls.append(text) or loads(text))
        cache = KbCache(path)
        assert calls == [] and len(cache) == 2000
        assert cache.get("src", "k1234") == {"n": 1234}
        assert len(calls) == 1

    def test_a_rewritten_prefix_of_the_same_length_is_reindexed(self, tmp_path, scans):
        path = tmp_path / "c.jsonl"
        self.write(path, ("k1", 1), ("k2", 2))
        KbCache(path)
        self.write(path, ("k1", 7), ("k9", 9))
        scans.clear()
        cache = KbCache(path)
        assert scans == [(0, path.stat().st_size)]
        assert cache.keys() == [("src", "k1"), ("src", "k9")]
        assert cache.get("src", "k1") == 7 and cache.get("src", "k9") == 9

    def test_a_file_truncated_below_the_index_is_reindexed(self, tmp_path, scans):
        path = tmp_path / "c.jsonl"
        self.write(path, ("k1", 1), ("k2", 2))
        KbCache(path)
        self.write(path, ("k1", 1))
        scans.clear()
        cache = KbCache(path)
        assert scans == [(0, path.stat().st_size)]
        assert cache.keys() == [("src", "k1")]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda index: b"\x00garbage\xff",
            lambda index: index[: len(index) // 2],
            lambda index: rewrite_index(index, body=index[HEADER.size : -8]),
            lambda index: rewrite_index(index, magic=b"kbindex1 little"),
            lambda index: rewrite_index(
                index, magic=f"kbindex2 {'big' if sys.byteorder == 'little' else 'little'}".encode()
            ),
            lambda index: json.dumps(
                {"covered": HEADER.unpack_from(index)[1], "crc32": HEADER.unpack_from(index)[2],
                 "entries": {"src": {"k1": 0, "k2": 43}}}
            ).encode(),
            lambda index: rewrite_index(index, covered=HEADER.unpack_from(index)[1] + 43),
            lambda index: rewrite_index(index, crc32=HEADER.unpack_from(index)[2] ^ 1),
            lambda index: index[:-1] + bytes([index[-1] ^ 1]),
            lambda index: rewrite_index(index, keys=3),
        ],
        ids=[
            "garbage", "truncated", "size-not-the-entries", "other-version", "other-byte-order",
            "earlier-json-format", "covered-past-the-end", "data-crc-mismatch",
            "body-crc-mismatch", "more-keys-than-entries",
        ],
    )
    def test_an_unusable_index_is_ignored_and_replaced(self, tmp_path, scans, damage):
        path = tmp_path / "c.jsonl"
        self.write(path, ("k1", 1), ("k2", 2))
        KbCache(path)
        index = path.with_name("c.jsonl.index")
        good = index.read_bytes()
        index.write_bytes(damage(good))
        scans.clear()
        cache = KbCache(path)
        assert scans == [(0, path.stat().st_size)]
        assert cache.get("src", "k1") == 1 and cache.get("src", "k2") == 2
        assert index.read_bytes() == good

    def test_a_stale_offset_that_passes_the_checks_fails_loudly(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write(path, ("k1", 1), ("k2", 2))
        KbCache(path)
        index = path.with_name("c.jsonl.index")
        good, entries = index.read_bytes(), read_index(path)["entries"]
        hashes = good[HEADER.size : HEADER.size + 16]
        for offsets in (
            [offset for _, offset in entries[::-1]],  # each at the other key's line
            [offset + 1 for _, offset in entries],  # inside a line
            [10**6, 10**6],  # past the end of the file
        ):
            index.write_bytes(rewrite_index(good, body=hashes + struct.pack("=2Q", *offsets)))
            cache = KbCache(path)
            assert ("src", "k1") not in cache and ("src", "k2") not in cache
            with pytest.raises(KeyError):
                cache.get("src", "k1")
            assert cache.keys() == []

    def test_keys_of_one_hash_are_told_apart_by_their_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kb, "_key_hash", lambda source, key: 7)
        path = tmp_path / "c.jsonl"
        self.write(path, ("k1", 1), ("k2", 2), ("k1", 3))
        path.write_text(
            path.read_text(encoding="utf-8")
            + json.dumps({"key": "k3", "source": "src", "value": 4}, separators=(",", ":"))
            + "\n",
            encoding="utf-8",
        )
        KbCache(path)
        assert {digest for digest, _ in read_index(path)["entries"]} == {7}
        cache = KbCache(path)
        assert len(cache) == 3 and ("src", "k4") not in cache
        assert [cache.get("src", key) for key in ("k1", "k2", "k3")] == [3, 2, 4]
        assert cache.keys() == [("src", "k1"), ("src", "k2"), ("src", "k3")]

    def test_loads_in_many_threads_leave_one_valid_index(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write(path, *[(f"k{i}", i) for i in range(200)])
        index = path.with_name("c.jsonl.index")
        failures = []

        def load_again():
            try:
                for _ in range(20):
                    index.unlink(missing_ok=True)
                    assert KbCache(path).get("src", "k199") == 199
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=load_again) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        KbCache(path)
        assert read_index(path)["covered"] == path.stat().st_size
        assert len(read_index(path)["entries"]) == read_index(path)["keys"] == 200
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "c.jsonl.index"]

    def test_an_index_that_cannot_be_written_changes_nothing(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        self.write(path, ("k1", 1), ("k2", 2))
        index = path.with_name("c.jsonl.index")
        index.mkdir()
        (index / "keep").touch()
        cache = KbCache(path)
        assert cache.get("src", "k1") == 1 and cache.get("src", "k2") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "c.jsonl.index"]
        cache.put("src", "k3", 3)
        assert KbCache(path).keys() == [("src", "k1"), ("src", "k2"), ("src", "k3")]
        assert caplog.text == ""


# A writer that reports each key once its `put` has returned, until killed.
# The pause between puts keeps the file to a few tens of MB at the last kill.
WRITER = """
import sys, time
from newsgeo.kb import KbCache
cache = KbCache(sys.argv[1])
print("ready", flush=True)
i = 0
while True:
    cache.put("wikidata", f"Q{i}", {"blob": f"{i:08d}" * 25_000})
    print(i, flush=True)
    i += 1
    time.sleep(0.002)
"""

# A load that stops, to be killed, in the middle of writing its merged index
# ("write": half of the temporary file written) or before renaming it over
# the old one ("rename").
MERGER = """
import os, sys, time
from pathlib import Path
from newsgeo.kb import KbCache

def stop(*args):
    print("stopped", flush=True)
    time.sleep(60)

stage, path = sys.argv[1:]
if stage == "write":
    def write_half(self, data):
        with self.open("wb") as handle:
            handle.write(data[: len(data) // 2])
        stop()
    Path.write_bytes = write_half
else:
    os.replace = stop
KbCache(path)
print("finished", flush=True)
"""


def blob(i: int) -> dict:
    return {"blob": f"{i:08d}" * 25_000}


def start_child(code: str, *argv: str) -> subprocess.Popen:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv], env=env, stdout=subprocess.PIPE, text=True
    )


def kill(child: subprocess.Popen) -> list[str]:
    """Kill `child` and return the lines it printed that were not read."""
    child.send_signal(signal.SIGKILL)
    child.wait(timeout=60)
    lines = child.stdout.read().split()
    child.stdout.close()
    return lines


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
class TestKilledWriter:
    """A writer killed at any moment loses no record whose `put` returned:
    the next load skips a torn last line, and a half-written index file
    changes no answer."""

    def test_every_put_that_returned_survives_the_kill(self, tmp_path, caplog):
        delays = random.Random(19).sample(range(50, 401), 5)
        for delay in delays:
            path = tmp_path / f"c-{delay}.jsonl"
            writer = start_child(WRITER, str(path))
            try:
                assert writer.stdout.readline() == "ready\n"
                time.sleep(delay / 1000)
            finally:
                reported = {("wikidata", f"Q{i}") for i in map(int, kill(writer))}
            caplog.clear()
            cache = KbCache(path)
            for _, key in reported:
                assert cache.get("wikidata", key) == blob(int(key[1:]))
            # the one put that may have written its line before it was killed
            assert set(cache.keys()) - reported <= {("wikidata", f"Q{len(reported)}")}
            data = path.read_bytes()
            last = data.count(b"\n") + 1
            torn = False
            if data[-1:] not in (b"", b"\n"):  # the kill cut the last line
                try:
                    json.loads(data[data.rfind(b"\n") + 1 :])
                except ValueError:
                    torn = True
            assert (f"{path}:{last}: skipping a torn last line" in caplog.text) == torn
            path.unlink()
            path.with_name(path.name + ".index").unlink(missing_ok=True)

    @pytest.mark.parametrize("stage", ["write", "rename"])
    def test_a_load_killed_while_it_merges_the_index_changes_no_answer(
        self, tmp_path, stage
    ):
        path = tmp_path / "c.jsonl"
        cache = KbCache(path)
        for i in range(300):
            cache.put("wikidata", f"Q{i}", {"i": i})
            if i == 199:  # an index of the first 200 lines, stale after the rest
                cache = KbCache(path)
        index = path.with_name("c.jsonl.index")
        before = index.read_bytes()
        merger = start_child(MERGER, stage, str(path))
        try:
            assert merger.stdout.readline() == "stopped\n"
        finally:
            rest = kill(merger)
        assert rest == []
        assert index.read_bytes() == before
        assert len(list(tmp_path.glob("c.jsonl.index.*.tmp"))) == 1  # the killed load's
        for _ in range(2):  # the load after the kill, and the one after its own merge
            cache = KbCache(path)
            assert cache.keys() == sorted(("wikidata", f"Q{i}") for i in range(300))
            for i in range(300):
                assert cache.get("wikidata", f"Q{i}") == {"i": i}
            assert list(tmp_path.glob("c.jsonl.index.*.tmp")) == []

    def test_only_the_temporary_files_of_this_index_s_dead_writers_are_removed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        KbCache(path).put("wikidata", "Q1", {"i": 1})
        dead = start_child("")
        dead.wait(timeout=60)
        dead.stdout.close()
        names = [
            f"c.jsonl.index.{os.getpid()}-1.tmp",  # a running writer's: this process
            f"d.jsonl.index.{dead.pid}-1.tmp",  # another index's
            f"c.jsonl.index.{dead.pid}.tmp",  # not a writer's name
            f"c.jsonl.index.{dead.pid}-1.tmp",  # a dead writer's
        ]
        for name in names:
            (tmp_path / name).write_bytes(b"half")
        KbCache(path)  # merges the line into a new index
        assert (tmp_path / "c.jsonl.index").exists()
        assert sorted(p.name for p in tmp_path.glob("*.tmp")) == sorted(names[:3])


SOURCES = ["wikidata", "dbpedia", "wplink", "sé", 's"q']
KEYS = [
    "Q1", "Q42", "fr:Île-de-France", "it:Roma", "Zürich", "en:Paris", "日本", "", "a b",
    'a"b', "back\\slash", "tab\there", "\x01", "}\n{",
]
VALUES = [
    1, None, "Zürich", {"__missing__": True}, {"labels": {"en": "x"}}, [1, "ü"], '}, "value": {',
]
FORMS = [
    lambda r: json.dumps(r, ensure_ascii=False),  # put's own
    lambda r: json.dumps(r),
    lambda r: json.dumps(r, separators=(",", ":"), ensure_ascii=False),
    lambda r: json.dumps(dict(reversed(r.items())), ensure_ascii=False),
    lambda r: json.dumps({**r, "extra": 2}, ensure_ascii=False),
    lambda r: "\t" + json.dumps(r, ensure_ascii=False),
    lambda r: "\r " + json.dumps(r, ensure_ascii=False),
]
# What replaces the rendered value or key of a damaged line.
BAD_VALUES = [b"{oops}", b"[1,", b"tru", b'"\xff"', b'"\xc3("', b'"\xed\xa0\x80"']
BAD_KEYS = [b'\xffk', b'\xed\xa0\x80', b'\x01k']  # a surrogate is never UTF-8


def generated_cache(seed: int) -> bytes:
    """A seeded cache file mixing record forms, escaped, non-ASCII and control
    character keys, blank lines, CRLF ends, rewrites of a key, invalid JSON
    or UTF-8 in keys and values, and a tail that may be torn or unterminated."""
    rng = random.Random(seed)
    damage_rate = rng.choice([0.0, 0.05, 0.2])
    any_damage = rng.random() < 0.3  # else only to values of lines in put's own form
    out = []
    for _ in range(rng.randint(1, 30)):
        if rng.random() < 0.1:
            out.append(rng.choice([b"", b" ", b"\t\r"]) + b"\n")
            continue
        record = dict(source=rng.choice(SOURCES), key=rng.choice(KEYS), value=rng.choice(VALUES))
        form = FORMS[0] if rng.random() < 0.5 else rng.choice(FORMS)
        damage = None
        if rng.random() < damage_rate and (any_damage or form is FORMS[0]):
            damage = rng.choice(["value", "key", "cut"]) if any_damage else "value"
        if damage in ("value", "key"):
            record[damage] = f"@{damage}@"
        line = form(record).encode("utf-8")
        if damage == "value":
            line = line.replace(b'"@value@"', rng.choice(BAD_VALUES))
        elif damage == "key":
            line = line.replace(b"@key@", rng.choice(BAD_KEYS))
        elif damage == "cut":  # torn by a crash, then written after
            line = line[: rng.randrange(len(line))]
        out.append(line + (b"\r\n" if rng.random() < 0.1 else b"\n"))
    data = b"".join(out)
    tail = rng.choice(["whole", "unterminated", "torn", "blank"])
    if tail == "unterminated":
        data = data[:-1]
    elif tail == "torn":
        data = data[: rng.randint(data.rfind(b"\n", 0, len(data) - 1) + 1, len(data) - 1)]
    elif tail == "blank":
        data += b"  "
    return data


SEEDS = range(120)


class TestKbCacheAgainstOracle:
    """`KbCache` reads generated files as `json.loads` on every line does."""

    def check(self, path, caplog):
        expected = oracle_kb_cache(path.read_bytes())
        caplog.clear()
        if expected.load_error is not None:
            with pytest.raises(KbCacheCorrupt, match=re.escape(f"{path}:{expected.load_error}: ")):
                KbCache(path)
            return None
        cache = KbCache(path)
        assert cache.keys() == sorted(expected.records)
        for (source, key), (number, value) in expected.records.items():
            if value is CORRUPT:
                with pytest.raises(KbCacheCorrupt, match=re.escape(f"{path}:{number}: ")):
                    cache.get(source, key)
            else:
                assert cache.get(source, key) == value
        if expected.torn is None:
            assert "torn" not in caplog.text
        else:
            assert f"{path}:{expected.torn}: skipping a torn last line" in caplog.text
        return cache

    @pytest.mark.parametrize("seed", SEEDS)
    def test_load_get_and_put_agree_with_the_oracle(self, tmp_path, seed, caplog, scans):
        path = tmp_path / "c.jsonl"
        data = generated_cache(seed)
        path.write_bytes(data)
        cache = self.check(path, caplog)
        if cache is None:
            return
        expected = oracle_kb_cache(data)
        assert len(cache) == len(expected.records)
        end = data.rfind(b"\n") + 1
        indexed = any(line.strip() for line in data[:end].split(b"\n"))
        assert path.with_name("c.jsonl.index").exists() == indexed
        scans.clear()
        cache = self.check(path, caplog)
        assert len(cache) == len(expected.records)
        cache.put("sé", 'new "key"', {"v": seed})
        assert len(cache) == len(expected.records) + 1
        assert scans == [(end if indexed else 0, end)]
        assert self.check(path, caplog).get("sé", 'new "key"') == {"v": seed}

    def test_the_generated_files_cover_every_case(self):
        found = [oracle_kb_cache(generated_cache(seed)) for seed in SEEDS]
        loaded = [cache for cache in found if cache.load_error is None]
        assert len(loaded) >= len(SEEDS) / 2
        assert len(loaded) < len(SEEDS)
        assert sum(cache.torn is not None for cache in loaded) >= 10
        assert sum(any(v is CORRUPT for _, v in cache.records.values()) for cache in loaded) >= 5
        assert sum(len(cache.records) for cache in loaded) >= 500


class FakeTransport:
    """Scripted transport: url -> payload, LookupError, or Exception."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def __call__(self, url):
        self.calls.append(url)
        outcome = self.responses[url]
        if isinstance(outcome, list):
            outcome = outcome.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def wikidata_payload(qid, labels=None, p17=(), p31=(), p131=()):
    def claims(prop, targets):
        return [
            {"mainsnak": {"datavalue": {"value": {"id": t}}}} for t in targets
        ]

    return {
        "entities": {
            qid: {
                "labels": {
                    lang: {"language": lang, "value": value}
                    for lang, value in (labels or {}).items()
                },
                "claims": {
                    "P17": claims("P17", p17),
                    "P31": claims("P31", p31),
                    "P131": claims("P131", p131),
                },
            }
        }
    }


class TestPolicies:
    def test_cache_only_miss_names_source_and_key(self, tmp_path):
        client = WikidataClient(
            KbCache(tmp_path), policy=CACHE_ONLY, transport=forbidden_transport
        )
        with pytest.raises(KbCacheMiss) as exc_info:
            client.fetch("Q42")
        assert exc_info.value.source == "wikidata"
        assert exc_info.value.key == "Q42"
        assert "wikidata:Q42" in str(exc_info.value)

    def test_cache_only_serves_cached_values_offline(self, tmp_path):
        cache = KbCache(tmp_path)
        item = WikidataItem("Q90", {"en": "Paris"}, ["Q142"], [("Q515", "city")], [])
        cache.put("wikidata", "Q90", item.to_json())
        client = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert client.fetch("Q90").to_json() == item.to_json()

    def test_online_fetch_parses_and_caches_reduced_form(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
        transport = FakeTransport(
            {
                url.format(qid="Q90"): wikidata_payload(
                    "Q90",
                    labels={"en": "Paris", "fr": "Paris"},
                    p17=["Q142"],
                    p31=["Q515"],
                ),
                url.format(qid="Q515"): wikidata_payload(
                    "Q515", labels={"en": "city"}
                ),
            }
        )
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        item = client.fetch("Q90", class_labels=False)
        assert item.labels["en"] == "Paris"
        assert item.p17 == ["Q142"]
        # The class label is not fetched with the entity: the record holds null.
        assert item.p31 == [("Q515", None)]
        assert transport.calls == [url.format(qid="Q90")]
        assert cache.get("wikidata", "Q90")["p31"] == [["Q515", None]]
        # Second fetch is served from the cache, even offline.
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.fetch("Q90", class_labels=False).to_json() == item.to_json()
        # The city test fetches the label once and caches its labels-only record.
        assert resolve_city(item, client, client.label) == ("Paris", "Q90")
        assert transport.calls == [url.format(qid="Q90"), url.format(qid="Q515")]
        assert resolve_city(offline.fetch("Q90", class_labels=False), offline, offline.label) == (
            "Paris", "Q90"
        )
        # By default a fetch fills the label in from that record.
        assert offline.fetch("Q90").p31 == [("Q515", "city")]

    def test_absence_is_cached(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q404.json"
        transport = FakeTransport({url: LookupError(url)})
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        assert client.fetch("Q404") is None
        assert len(transport.calls) == 1
        # Confirmed absence is in the cache: no second network call.
        assert client.fetch("Q404") is None
        assert len(transport.calls) == 1
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.fetch("Q404") is None

    @pytest.mark.parametrize(
        "client, keyword",
        [
            (WikidataClient, "base_url"),
            (DbpediaClient, "base_url"),
            (WikipediaLinker, "search_url"),
            (WikipediaLinker, "pageprops_url"),
            (WikidataClient, "retries"),
            (WikidataClient, "backoff"),
        ],
    )
    def test_endpoints_and_retries_are_not_options(self, tmp_path, client, keyword):
        with pytest.raises(TypeError):
            client(KbCache(tmp_path), **{keyword: "https://example.org/{qid}"})

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WikidataClient(KbCache(tmp_path), policy="sometimes")

    def test_forbidden_transport_raises(self):
        with pytest.raises(AssertionError):
            forbidden_transport("https://example.org")


class TestRetries:
    def test_transient_failures_are_retried(self, tmp_path, monkeypatch):
        monkeypatch.setattr("newsgeo.kb.time.sleep", lambda seconds: None)
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q90.json"
        transport = FakeTransport(
            {
                url: [
                    ConnectionError("boom"),
                    ConnectionError("boom"),
                    wikidata_payload("Q90", labels={"en": "Paris"}),
                ]
            }
        )
        client = WikidataClient(KbCache(tmp_path), policy=ONLINE, transport=transport)
        assert client.fetch("Q90").labels["en"] == "Paris"
        assert len(transport.calls) == 3

    def test_persistent_failure_raises_after_retries(self, tmp_path, monkeypatch):
        monkeypatch.setattr("newsgeo.kb.time.sleep", lambda seconds: None)
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q90.json"
        transport = FakeTransport({url: ConnectionError("down")})
        client = WikidataClient(KbCache(tmp_path), policy=ONLINE, transport=transport)
        with pytest.raises(KbRemoteError):
            client.fetch("Q90")
        assert len(transport.calls) == 4  # initial attempt + 3 retries

    def test_backs_off_only_between_attempts(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr("newsgeo.kb.time.sleep", sleeps.append)
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q90.json"
        client = WikidataClient(
            KbCache(tmp_path),
            policy=ONLINE,
            transport=FakeTransport({url: ConnectionError("down")}),
            rate_limiter=RateLimiter(per_second=float("inf")),
        )
        with pytest.raises(KbRemoteError):
            client.fetch("Q90")
        assert sleeps == [0.5, 1.0, 2.0]


class TestWikidataClient:
    def test_malformed_qid_rejected(self, tmp_path):
        client = WikidataClient(KbCache(tmp_path), policy=ONLINE, transport=forbidden_transport)
        for bad in ("", "90", "P31", "Q90x", "Q90\n", "bogus id", None, 90):
            for lookup in (client.fetch, client.label):
                with pytest.raises(ValueError, match="malformed WikiData id"):
                    lookup(bad)

    def test_redirect_payload_keyed_by_canonical_id(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q1000.json"
        transport = FakeTransport(
            {url: wikidata_payload("Q90", labels={"en": "Paris"})}
        )
        client = WikidataClient(KbCache(tmp_path), policy=ONLINE, transport=transport)
        assert client.fetch("Q1000").labels["en"] == "Paris"

    def test_absent_instance_of_class_keeps_the_entity(self, tmp_path):
        """A P31 class that answers 404 is not a city, and the entity stays cached."""
        url = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
        transport = FakeTransport(
            {
                url.format(qid="Q90"): wikidata_payload(
                    "Q90", labels={"en": "Paris"}, p31=["Q404", "Q515"]
                ),
                url.format(qid="Q404"): LookupError("Q404"),
                url.format(qid="Q515"): wikidata_payload("Q515", labels={"en": "city"}),
            }
        )
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        item = client.fetch("Q90", class_labels=False)
        assert item.p31 == [("Q404", None), ("Q515", None)]
        assert resolve_city(item, client, client.label) == ("Paris", "Q90")
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.fetch("Q90", class_labels=False).to_json() == item.to_json()
        assert offline.label("Q404") is None
        assert offline.fetch("Q90").p31 == [("Q404", ""), ("Q515", "city")]
        absent_only = item._replace(p31=[("Q404", None)])
        assert resolve_city(absent_only, offline, offline.label) is None

    def test_a_class_after_a_city_like_one_is_never_requested(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
        transport = FakeTransport(
            {
                url.format(qid="Q90"): wikidata_payload(
                    "Q90", labels={"en": "Paris"}, p31=["Q515", "Q5119"]
                ),
                url.format(qid="Q515"): wikidata_payload("Q515", labels={"en": "city"}),
            }
        )
        client = WikidataClient(KbCache(tmp_path), policy=ONLINE, transport=transport)
        item = client.fetch("Q90", class_labels=False)
        assert resolve_city(item, client, client.label) == ("Paris", "Q90")
        assert transport.calls == [url.format(qid="Q90"), url.format(qid="Q515")]

    def test_inline_class_labels_are_read_without_a_request(self, tmp_path):
        """Records written with the class label beside its id (older caches,
        the fixture cache) need no labels-only record."""
        cache = KbCache(tmp_path)
        item = WikidataItem("Q90", {"en": "Paris"}, ["Q142"], [("Q5119", "capital")], [])
        cache.put("wikidata", "Q90", item.to_json())
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.fetch("Q90") == item
        assert resolve_city(item, offline, offline.label) == ("Paris", "Q90")
        assert cache.keys() == [("wikidata", "Q90")]

    def test_a_resolver_reads_each_class_label_once(self, tmp_path, monkeypatch):
        cache = KbCache(tmp_path)
        cache.put("wikidata-label", "Q515", {"labels": {"en": "city"}})
        cache.put("wikidata", "Q142", WikidataItem("Q142", {"en": "France"}, [], [], []).to_json())
        for qid, name in (("Q90", "Paris"), ("Q456", "Lyon")):
            item = WikidataItem(qid, {"en": name}, ["Q142"], [("Q515", None)], [])
            cache.put("wikidata", qid, item.to_json())
        labels = count_calls(monkeypatch, WikidataClient, "label")
        resolver = cache_only_resolver(cache)
        assert resolver.locate_qid("Q90") == LocationTuple("France", "Q142", "Paris", "Q90")
        assert resolver.locate_qid("Q456") == LocationTuple("France", "Q142", "Lyon", "Q456")
        assert labels == [("Q515",)]

    def test_label_is_english_else_any_from_the_labels_record_only(self, tmp_path):
        cache = KbCache(tmp_path)
        cache.put("wikidata-label", "Q183", {"labels": {"de": "Deutschland", "en": "Germany"}})
        cache.put("wikidata-label", "Q1055", {"labels": {"de": "Hamburg"}})
        item = WikidataItem("Q64", {"en": "Berlin"}, [], [], [])
        cache.put("wikidata", "Q64", item.to_json())
        client = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert client.label("Q183") == "Germany"
        assert client.label("Q1055") == "Hamburg"
        # The entity's full record is not a label source.
        with pytest.raises(KbCacheMiss, match="wikidata-label:Q64"):
            client.label("Q64")

    def test_item_label_is_english_else_any(self):
        assert WikidataItem("Q1", {"de": "Köln", "en": "Cologne"}, [], [], []).label() == "Cologne"
        assert WikidataItem("Q1", {"de": "Köln"}, [], [], []).label() == "Köln"
        assert WikidataItem("Q1", {}, [], [], []).label() is None

    def test_label_fetched_online_is_cached_as_labels(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q99.json"
        transport = FakeTransport(
            {url: wikidata_payload("Q99", labels={"en": "Somewhere", "de": "Irgendwo"})}
        )
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        assert client.label("Q99") == "Somewhere"
        assert cache.get("wikidata-label", "Q99") == {
            "labels": {"en": "Somewhere", "de": "Irgendwo"}
        }
        assert ("wikidata", "Q99") not in cache
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.label("Q99") == "Somewhere"
        assert len(transport.calls) == 1

    def test_label_of_a_cached_absence_is_not_fetched_again(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q404.json"
        transport = FakeTransport({url: LookupError(url)})
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        assert client.label("Q404") is None
        assert client.label("Q404") is None
        assert len(transport.calls) == 1
        assert cache.keys() == [("wikidata-label", "Q404")]
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.label("Q404") is None

    def test_country_is_fetched_once_on_a_cold_run(self, tmp_path):
        """Q90 names its country, and Q1's located-in walk reaches it."""
        url = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
        transport = FakeTransport(
            {
                url.format(qid="Q90"): wikidata_payload(
                    "Q90", labels={"en": "Paris"}, p17=["Q142"], p31=["Q515"]
                ),
                url.format(qid="Q1"): wikidata_payload(
                    "Q1", labels={"en": "Region"}, p17=["Q142"], p31=["Q2"], p131=["Q142"]
                ),
                url.format(qid="Q142"): wikidata_payload(
                    "Q142", labels={"en": "France"}, p31=["Q6256"]
                ),
                url.format(qid="Q515"): wikidata_payload("Q515", labels={"en": "city"}),
                url.format(qid="Q2"): wikidata_payload("Q2", labels={"en": "region"}),
                url.format(qid="Q6256"): wikidata_payload("Q6256", labels={"en": "country"}),
            }
        )
        cache = KbCache(tmp_path)
        resolver = Resolver(
            wikidata=WikidataClient(
                cache, policy=ONLINE, transport=transport, rate_limiter=RateLimiter(1000.0)
            ),
            dbpedia=DbpediaClient(cache, transport=forbidden_transport),
            linker=WikipediaLinker(cache, transport=forbidden_transport),
        )
        assert resolver.locate_qid("Q90") == LocationTuple("France", "Q142", "Paris", "Q90")
        assert resolver.locate_qid("Q1") == LocationTuple("France", "Q142")
        assert transport.calls.count(url.format(qid="Q142")) == 1

    def test_a_record_missing_a_field_is_corrupt(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [
            {"source": "wikidata", "key": "Q90", "value": {"qid": "Q90"}},
            {"source": "wikidata-label", "key": "Q90", "value": {"label": "Paris"}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        client = WikidataClient(KbCache(path), policy=CACHE_ONLY, transport=forbidden_transport)
        for number, lookup in ((1, client.fetch), (2, client.label)):
            message = re.escape(f"{path}:{number}: bad cache record (no field 'labels')")
            with pytest.raises(KbCacheCorrupt, match=message):
                lookup("Q90")

    def test_label_falls_back_to_label_cache(self, tmp_path):
        cache = KbCache(tmp_path)
        cache.put("wikidata-label", "Q99", {"labels": {"en": "Somewhere"}})
        client = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert client.label("Q99") == "Somewhere"


class TestClaimTargets:
    """Every country, instance-of and located-in target is an item id, in a
    fetched payload and in a cached record alike."""

    URL = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"

    @pytest.mark.parametrize(
        "claims, bad",
        [({"p131": ["X9"]}, "X9"), ({"p31": ["bogus id"]}, "bogus id"), ({"p17": ["Q1", "P17"]}, "P17")],
        ids=["located-in", "instance-of", "country"],
    )
    def test_a_fetched_target_that_is_not_an_id_is_a_remote_error(self, tmp_path, claims, bad):
        url = self.URL.format(qid="Q90")
        transport = FakeTransport(
            {url: wikidata_payload("Q90", labels={"en": "Paris"}, **claims)}
        )
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        message = f"^{re.escape(url)}: malformed payload .*malformed WikiData id {bad!r}"
        with pytest.raises(KbRemoteError, match=message):
            client.fetch("Q90")
        assert transport.calls == [url]
        assert cache.keys() == []

    @pytest.mark.parametrize("field", ["qid", "p17", "p31", "p131"])
    def test_a_cached_target_that_is_not_an_id_is_corrupt(self, tmp_path, field):
        path = tmp_path / "c.jsonl"
        value = WikidataItem("Q90", {"en": "Paris"}, [], [], []).to_json()
        value[field] = {"qid": "X9", "p31": [["X9", "city"]]}.get(field, ["X9"])
        path.write_text(
            json.dumps({"source": "wikidata", "key": "Q90", "value": value}) + "\n",
            encoding="utf-8",
        )
        client = WikidataClient(KbCache(path), policy=CACHE_ONLY, transport=forbidden_transport)
        message = re.escape(f"{path}:1: bad cache record (malformed WikiData id 'X9')")
        with pytest.raises(KbCacheCorrupt, match=message):
            client.fetch("Q90")


class TestLabels:
    """Every WikiData label is a string, in a fetched payload and in a cached
    record alike, for items and labels-only records."""

    URL = TestClaimTargets.URL

    @pytest.mark.parametrize("bad", [5, ["Paris"]], ids=["int", "list"])
    @pytest.mark.parametrize("source", ["wikidata", "wikidata-label"])
    def test_a_fetched_label_that_is_not_a_string_is_a_remote_error(self, tmp_path, source, bad):
        url = self.URL.format(qid="Q90")
        transport = FakeTransport({url: wikidata_payload("Q90", labels={"de": "Paris", "en": bad})})
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        lookup = client.fetch if source == "wikidata" else client.label
        message = f"^{re.escape(url)}: malformed payload .*label must be a string, got "
        with pytest.raises(KbRemoteError, match=message + re.escape(repr(bad))):
            lookup("Q90")
        assert transport.calls == [url]
        assert cache.keys() == []

    def test_a_fetched_class_label_that_is_not_a_string_is_a_remote_error(self, tmp_path):
        """The city test reads the class label; the entity fetch does not."""
        city, item = self.URL.format(qid="Q515"), self.URL.format(qid="Q90")
        transport = FakeTransport(
            {
                item: wikidata_payload("Q90", labels={"en": "Paris"}, p31=["Q515"]),
                city: wikidata_payload("Q515", labels={"en": 5}),
            }
        )
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        paris = client.fetch("Q90", class_labels=False)
        assert transport.calls == [item]
        with pytest.raises(KbRemoteError, match=f"^{re.escape(city)}: malformed payload"):
            resolve_city(paris, client, client.label)
        assert transport.calls == [item, city]
        assert cache.keys() == [("wikidata", "Q90")]

    @pytest.mark.parametrize("where", ["labels", "p31", "labels-record"])
    def test_a_cached_label_that_is_not_a_string_is_corrupt(self, tmp_path, where):
        path = tmp_path / "c.jsonl"
        source, value = "wikidata-label", {"labels": {"de": "Paris", "en": 5}}
        if where != "labels-record":
            source = "wikidata"
            value = WikidataItem("Q90", {"en": "Paris"}, [], [("Q515", "city")], []).to_json()
            if where == "labels":
                value["labels"]["en"] = 5
            else:
                value["p31"][0][1] = 5
        path.write_text(
            json.dumps({"source": source, "key": "Q90", "value": value}) + "\n", encoding="utf-8"
        )
        client = WikidataClient(KbCache(path), policy=CACHE_ONLY, transport=forbidden_transport)
        lookup = client.fetch if source == "wikidata" else client.label
        message = re.escape(f"{path}:1: bad cache record (label must be a string, got 5)")
        with pytest.raises(KbCacheCorrupt, match=message):
            lookup("Q90")


class TestWikidataFields:
    """Every field of a cached WikiData item has its JSON type: a string
    where a list belongs would read as its characters."""

    CASES = [
        ("labels", "Paris", "labels must be an object, got 'Paris'"),
        ("labels", [["en", "Paris"]], "labels must be an object, got [['en', 'Paris']]"),
        ("p17", "", "p17 must be a list of item ids, got ''"),
        ("p17", "Q142", "p17 must be a list of item ids, got 'Q142'"),
        ("p131", {"Q1": "Region"}, "p131 must be a list of item ids, got {'Q1': 'Region'}"),
        ("p31", "Q515", "p31 must be a list of [qid, label] pairs, got 'Q515'"),
        ("p31", ["Q515"], "p31 must be a list of [qid, label] pairs, got ['Q515']"),
        (
            "p31",
            [["Q515", "city", "x"]],
            "p31 must be a list of [qid, label] pairs, got [['Q515', 'city', 'x']]",
        ),
    ]
    IDS = [
        "labels-string", "labels-list", "p17-empty", "p17-id", "p131-object",
        "p31-string", "p31-unpaired", "p31-triple",
    ]

    @pytest.mark.parametrize("field, value, problem", CASES, ids=IDS)
    def test_a_cached_field_of_the_wrong_type_is_corrupt(self, tmp_path, field, value, problem):
        path = tmp_path / "c.jsonl"
        record = WikidataItem("Q90", {"en": "Paris"}, ["Q142"], [("Q515", "city")], []).to_json()
        record[field] = value
        path.write_text(
            json.dumps({"source": "wikidata", "key": "Q90", "value": record}) + "\n",
            encoding="utf-8",
        )
        client = WikidataClient(KbCache(path), policy=CACHE_ONLY, transport=forbidden_transport)
        message = re.escape(f"{path}:1: bad cache record ({problem})")
        with pytest.raises(KbCacheCorrupt, match=message):
            client.fetch("Q90")


class TestConcurrentFetches:
    def test_threads_missing_one_key_fetch_and_write_it_once(self, tmp_path, monkeypatch):
        url = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
        qids = ("Q90", "Q64")
        calls = []

        def transport(url):
            calls.append(url)
            time.sleep(0.2)  # the other threads miss the key meanwhile
            qid = url.rsplit("/", 1)[1].removesuffix(".json")
            return wikidata_payload(qid, labels={"en": qid})

        cache = KbCache(tmp_path)
        puts = []
        put = cache.put
        monkeypatch.setattr(cache, "put", lambda *args: (puts.append(args[:2]), put(*args)))
        client = WikidataClient(
            cache, policy=ONLINE, transport=transport, rate_limiter=RateLimiter(1000.0)
        )
        start = threading.Barrier(4)
        results = {qid: [] for qid in qids}

        def worker(qid):
            start.wait(timeout=5)
            results[qid].append(client.fetch(qid))

        threads = [threading.Thread(target=worker, args=(qid,)) for qid in qids * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert sorted(calls) == sorted(url.format(qid=qid) for qid in qids)
        assert sorted(puts) == sorted(("wikidata", qid) for qid in qids)
        for qid in qids:
            first, second = results[qid]
            assert first.to_json() == second.to_json() and first.labels == {"en": qid}

    def test_a_failed_fetch_is_tried_again(self, tmp_path, monkeypatch):
        monkeypatch.setattr("newsgeo.kb.RETRIES", 0)
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q90.json"
        transport = FakeTransport(
            {url: [RuntimeError("down"), wikidata_payload("Q90", labels={"en": "Paris"})]}
        )
        client = WikidataClient(KbCache(tmp_path), policy=ONLINE, transport=transport)
        with pytest.raises(KbRemoteError):
            client.fetch("Q90")
        assert client.fetch("Q90").labels == {"en": "Paris"}
        assert len(transport.calls) == 2


class TestMalformedPayloads:
    """A payload without the shape its endpoint documents is a remote error."""

    URL = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"

    @pytest.mark.parametrize(
        "payload",
        [{"entities": []}, {"entities": {"Q90": {"labels": {"en": {}}}}}, ["entities"]],
        ids=["entities-list", "label-without-value", "payload-list"],
    )
    def test_is_a_remote_error_that_caches_nothing(self, tmp_path, payload):
        url = self.URL.format(qid="Q90")
        good = wikidata_payload("Q90", labels={"en": "Paris"})
        transport = FakeTransport({url: [payload, good]})
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        with pytest.raises(KbRemoteError, match=f"^{re.escape(url)}: malformed payload"):
            client.fetch("Q90")
        assert ("wikidata", "Q90") not in cache
        assert client.fetch("Q90").labels == {"en": "Paris"}
        assert len(transport.calls) == 2

    @pytest.mark.parametrize("nested", ["remote-error", "corrupt-record"])
    def test_a_kb_error_reading_a_class_label_passes_unchanged(self, tmp_path, monkeypatch, nested):
        monkeypatch.setattr("newsgeo.kb.RETRIES", 0)
        city, target = self.URL.format(qid="Q90"), self.URL.format(qid="Q515")
        transport = FakeTransport(
            {city: wikidata_payload("Q90", p31=["Q515"]), target: ConnectionError("down")}
        )
        cache = KbCache(tmp_path)
        if nested == "corrupt-record":
            cache.put("wikidata-label", "Q515", {"no-labels": {}})
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        item = client.fetch("Q90", class_labels=False)
        error = KbRemoteError if nested == "remote-error" else KbCacheCorrupt
        with pytest.raises(error) as excinfo:
            resolve_city(item, client, client.label)
        assert type(excinfo.value) is error and "malformed" not in str(excinfo.value)
        if nested == "remote-error":
            assert str(excinfo.value) == f"{target}: down"
            assert ("wikidata-label", "Q515") not in cache
        assert ("wikidata", "Q90") in cache


def dbpedia_payload(title, type_uris=(), properties=None, abstracts=None):
    node = {}
    for uri in type_uris:
        node.setdefault("http://www.w3.org/1999/02/22-rdf-syntax-ns#type", []).append(
            {"type": "uri", "value": uri}
        )
    for predicate, values in (properties or {}).items():
        node[predicate] = values
    for lang, text in (abstracts or {}).items():
        node.setdefault("http://dbpedia.org/ontology/abstract", []).append(
            {"type": "literal", "lang": lang, "value": text}
        )
    resource = f"http://dbpedia.org/resource/{title.replace(' ', '_')}"
    return {resource: node, "http://unrelated.example/node": {}}


class TestDbpediaClient:
    def test_parse_reduces_payload(self, tmp_path):
        url = "https://en.dbpedia.org/data/Eiffel_Tower.json"
        payload = dbpedia_payload(
            "Eiffel Tower",
            type_uris=[
                "http://dbpedia.org/ontology/Building",
                "http://schema.org/Place",
            ],
            properties={
                "http://dbpedia.org/ontology/location": [
                    {"type": "uri", "value": "http://dbpedia.org/resource/Paris"}
                ],
                "http://dbpedia.org/property/Architect": [
                    {"type": "literal", "value": "Sauvestre"}
                ],
            },
            abstracts={"en": "A tower in Paris.", "fr": "Une tour."},
        )
        transport = FakeTransport({url: payload})
        client = DbpediaClient(KbCache(tmp_path), policy=ONLINE, transport=transport)
        record = client.fetch("Eiffel Tower", "en")
        assert record.properties["location"] == ["Paris"]
        # Property names are lowercased local names.
        assert record.properties["architect"] == ["Sauvestre"]
        assert record.ontology_types == ["Building"]
        assert record.abstract == "A tower in Paris."

    def test_abstract_prefers_page_language(self, tmp_path):
        url = "https://fr.dbpedia.org/data/Tour_Eiffel.json"
        payload = dbpedia_payload(
            "Tour Eiffel", abstracts={"en": "A tower.", "fr": "Une tour à Paris."}
        )
        transport = FakeTransport({url: payload})
        client = DbpediaClient(KbCache(tmp_path), policy=ONLINE, transport=transport)
        assert client.fetch("Tour Eiffel", "fr").abstract == "Une tour à Paris."

    def test_english_fallback_on_missing_edition(self, tmp_path):
        cache = KbCache(tmp_path)
        cache.put("dbpedia", "fr:Thing", {"__missing__": True})
        record = {
            "title": "Thing",
            "language": "en",
            "properties": {"location": ["Paris"]},
            "ontology_types": [],
            "abstract": None,
        }
        cache.put("dbpedia", "en:Thing", record)
        client = DbpediaClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert client.fetch("Thing", "fr").properties["location"] == ["Paris"]
        assert client.fetch("Thing", "fr", english_fallback=False) is None

    RECORD = {
        "title": "Thing",
        "language": "en",
        "properties": {"location": ["Paris"]},
        "ontology_types": ["Place"],
        "abstract": None,
    }

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("title", 5, "title must be a string, got 5"),
            ("language", None, "language must be a string, got None"),
            ("abstract", ["A"], "abstract must be a string, got ['A']"),
            ("properties", ["location"], "properties must be an object, got ['location']"),
            (
                "properties",
                {"location": "Paris"},
                "property 'location' must be a list of strings, got 'Paris'",
            ),
            ("ontology_types", "Place", "ontology_types must be a list of strings, got 'Place'"),
            ("ontology_types", [5], "ontology_types must be a list of strings, got [5]"),
        ],
    )
    def test_a_cached_field_of_the_wrong_type_is_corrupt(self, tmp_path, field, value, problem):
        path = tmp_path / "c.jsonl"
        record = {**self.RECORD, field: value}
        path.write_text(
            json.dumps({"source": "dbpedia", "key": "en:Thing", "value": record}) + "\n",
            encoding="utf-8",
        )
        client = DbpediaClient(KbCache(path), policy=CACHE_ONLY, transport=forbidden_transport)
        message = re.escape(f"{path}:1: bad cache record ({problem})")
        with pytest.raises(KbCacheCorrupt, match=message):
            client.fetch("Thing", "en")

    def test_a_fetched_field_of_the_wrong_type_is_a_remote_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr("newsgeo.kb._resource_title", lambda uri: 5)
        url = "https://en.dbpedia.org/data/Thing.json"
        payload = dbpedia_payload(
            "Thing",
            properties={
                "http://dbpedia.org/ontology/location": [
                    {"type": "uri", "value": "http://dbpedia.org/resource/Paris"}
                ]
            },
        )
        cache = KbCache(tmp_path)
        client = DbpediaClient(cache, policy=ONLINE, transport=FakeTransport({url: payload}))
        message = f"^{re.escape(url)}: malformed payload .*'location' must be a list of strings"
        with pytest.raises(KbRemoteError, match=message):
            client.fetch("Thing", "en")
        assert cache.keys() == []

    def test_empty_title_rejected(self, tmp_path):
        client = DbpediaClient(KbCache(tmp_path), transport=forbidden_transport)
        with pytest.raises(ValueError):
            client.fetch("", "en")

    def test_missing_resource_node_is_not_found(self, tmp_path):
        """A payload without the page's node is an absence, cached like a 404."""
        url = "https://en.dbpedia.org/data/Ghost.json"
        transport = FakeTransport({url: {"http://other/node": {}}})
        cache = KbCache(tmp_path)
        client = DbpediaClient(cache, policy=ONLINE, transport=transport)
        assert client.fetch("Ghost", "en") is None
        assert client.fetch("Ghost", "en") is None
        assert len(transport.calls) == 1
        assert cache.get("dbpedia", "en:Ghost") == {"__missing__": True}
        offline = DbpediaClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.fetch("Ghost", "en") is None


class TestRateLimiter:
    # The interval of the ordering tests: long enough that every thread has
    # queued before the first slot after a `wait` comes.
    INTERVAL = 0.25

    @pytest.fixture()
    def article(self, monkeypatch):
        """A thread-local whose `index` the limiter reads as the article its
        thread runs (unset: no article of a map)."""
        local = threading.local()
        monkeypatch.setattr(kb, "article_index", lambda: getattr(local, "index", None))
        return local

    @staticmethod
    def waiters(limiter, article, waiting, slots):
        """One thread per (label, article index) of `waiting`, each started
        after the last has queued on `limiter`; the label and time of each
        slot go to `slots` in slot order."""
        lock = threading.Lock()

        def run(label, index):
            if index is not None:
                article.index = index
            limiter.wait()
            with lock:
                slots.append((label, time.monotonic()))

        threads = []
        for label, index in waiting:
            queued = len(limiter._waiting) + 1
            thread = threading.Thread(target=run, args=(label, index), daemon=True)
            thread.start()
            threads.append(thread)
            deadline = time.monotonic() + 5
            while len(limiter._waiting) < queued and time.monotonic() < deadline:
                time.sleep(0.001)
        return threads

    @staticmethod
    def join(threads):
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_enforces_minimum_interval(self):
        limiter = RateLimiter(per_second=50.0)
        start = time.monotonic()
        for _ in range(3):
            limiter.wait()
        elapsed = time.monotonic() - start
        assert elapsed >= 0.04  # two 20 ms gaps after the first call

    @pytest.mark.parametrize(
        "waiting, order",
        [
            ([("c", 2), ("a", 0), ("b", 1)], ["a", "b", "c"]),
            ([("a", None), ("b", None), ("c", None)], ["a", "b", "c"]),
            ([("a", 1), ("b", 1), ("c", 0)], ["c", "a", "b"]),
        ],
        ids=["earliest-article-first", "outside-a-map-in-arrival-order", "ties-in-arrival-order"],
    )
    def test_slots_go_in_article_order(self, article, waiting, order):
        limiter = RateLimiter(per_second=1 / self.INTERVAL)
        start = time.monotonic()
        limiter.wait()  # the next slot is an interval away
        slots = []
        threads = self.waiters(limiter, article, waiting, slots)
        assert slots == [], "a slot came before every thread had queued"
        self.join(threads)
        assert [label for label, _ in slots] == order
        for count, (_, at) in enumerate(slots, start=1):
            assert at - start >= count * self.INTERVAL

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
    def test_an_interrupted_waiter_holds_up_no_one(self, article):
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        limiter = RateLimiter(per_second=1 / self.INTERVAL)
        start = time.monotonic()
        limiter.wait()
        slots = []
        threads = self.waiters(limiter, article, [("later", 1)], slots)
        # This thread, as article 0, is first in line until the timer
        # interrupts its wait, before its slot.
        article.index = 0
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL / 3)
            with pytest.raises(Interrupted):
                limiter.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            del article.index
        self.join(threads)
        assert [label for label, _ in slots] == ["later"]
        assert slots[0][1] - start >= self.INTERVAL
        assert limiter._waiting == []

    def test_many_threads_each_get_every_slot_they_ask_for(self, article):
        """More threads than cores, switching often, all on one limiter."""
        per_second, rounds = 2000.0, 5
        limiter = RateLimiter(per_second)
        indices = list(range(2 * (os.cpu_count() or 1) + 2))
        random.Random(7).shuffle(indices)
        lock = threading.Lock()
        slots = []

        def run(index):
            article.index = index
            for _ in range(rounds):
                limiter.wait()
                with lock:
                    slots.append(index)

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in indices]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            for thread in threads:
                thread.start()
            self.join(threads)
            elapsed = time.monotonic() - start
        finally:
            sys.setswitchinterval(switch)
        assert sorted(slots) == sorted(indices * rounds)
        assert elapsed >= (len(slots) - 1) / per_second
        assert limiter._waiting == []
