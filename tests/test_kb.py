"""Cache, fetch policies, retry behaviour and payload parsing."""

import json
import random
import re
import threading
import time

import pytest

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
from newsgeo.locations import LocationTuple, Resolver

from conftest import FIXTURES
from oracles import CORRUPT, oracle_kb_cache


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
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
        cache = KbCache(path)
        assert decoded == []
        assert cache.get("src", "k2") == [2]
        assert len(decoded) == 1

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
    def test_load_get_and_put_agree_with_the_oracle(self, tmp_path, seed, caplog):
        path = tmp_path / "c.jsonl"
        path.write_bytes(generated_cache(seed))
        cache = self.check(path, caplog)
        if cache is not None:
            cache.put("sé", 'new "key"', {"v": seed})
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

    def __call__(self, url, params=None):
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
        assert client.fetch("Q90") == item

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
        item = client.fetch("Q90")
        assert item.labels["en"] == "Paris"
        assert item.p17 == ["Q142"]
        assert item.p31 == [("Q515", "city")]
        # Second fetch is served from the cache, even offline.
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.fetch("Q90") == item

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
        ],
    )
    def test_endpoint_urls_are_not_options(self, tmp_path, client, keyword):
        with pytest.raises(TypeError):
            client(KbCache(tmp_path), **{keyword: "https://example.org/{qid}"})

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WikidataClient(KbCache(tmp_path), policy="sometimes")

    def test_forbidden_transport_raises(self):
        with pytest.raises(AssertionError):
            forbidden_transport("https://example.org")


class TestRetries:
    def test_transient_failures_are_retried(self, tmp_path):
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
        client = WikidataClient(
            KbCache(tmp_path), policy=ONLINE, transport=transport, backoff=0.0
        )
        assert client.fetch("Q90").labels["en"] == "Paris"
        assert len(transport.calls) == 3

    def test_persistent_failure_raises_after_retries(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q90.json"
        transport = FakeTransport({url: ConnectionError("down")})
        client = WikidataClient(
            KbCache(tmp_path), policy=ONLINE, transport=transport, retries=2, backoff=0.0
        )
        with pytest.raises(KbRemoteError):
            client.fetch("Q90")
        assert len(transport.calls) == 3  # initial attempt + 2 retries

    def test_backs_off_only_between_attempts(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr("newsgeo.kb.time.sleep", sleeps.append)
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q90.json"
        client = WikidataClient(
            KbCache(tmp_path),
            policy=ONLINE,
            transport=FakeTransport({url: ConnectionError("down")}),
            rate_limiter=RateLimiter(per_second=float("inf")),
            retries=3,
        )
        with pytest.raises(KbRemoteError):
            client.fetch("Q90")
        assert sleeps == [0.5, 1.0, 2.0]


class TestWikidataClient:
    def test_malformed_qid_rejected(self, tmp_path):
        client = WikidataClient(KbCache(tmp_path), transport=forbidden_transport)
        for bad in ("", "90", "P31", "Q90x", None):
            with pytest.raises(ValueError):
                client.fetch(bad)

    def test_redirect_payload_keyed_by_canonical_id(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q1000.json"
        transport = FakeTransport(
            {url: wikidata_payload("Q90", labels={"en": "Paris"})}
        )
        client = WikidataClient(KbCache(tmp_path), policy=ONLINE, transport=transport)
        assert client.fetch("Q1000").labels["en"] == "Paris"

    def test_absent_instance_of_class_keeps_the_entity(self, tmp_path):
        """A P31 class that answers 404 gets the label "", and the entity is cached."""
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
        item = WikidataClient(cache, policy=ONLINE, transport=transport).fetch("Q90")
        assert item.p31 == [("Q404", ""), ("Q515", "city")]
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.fetch("Q90") == item
        assert offline.label("Q404") is None

    def test_label_prefers_requested_language_then_english(self, tmp_path):
        cache = KbCache(tmp_path)
        item = WikidataItem("Q183", {"en": "Germany", "de": "Deutschland"}, [], [], [])
        cache.put("wikidata", "Q183", item.to_json())
        client = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert client.label("Q183", "de") == "Deutschland"
        assert client.label("Q183", "it") == "Germany"

    def test_label_fetched_online_is_cached_as_labels(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q99.json"
        transport = FakeTransport(
            {url: wikidata_payload("Q99", labels={"en": "Somewhere", "de": "Irgendwo"})}
        )
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        assert client.label("Q99", "de") == "Irgendwo"
        assert cache.get("wikidata-label", "Q99") == {
            "labels": {"en": "Somewhere", "de": "Irgendwo"}
        }
        offline = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert offline.label("Q99", "it") == "Somewhere"
        assert len(transport.calls) == 1

    def test_label_of_a_cached_absence_is_not_fetched_again(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q404.json"
        transport = FakeTransport({url: LookupError(url)})
        cache = KbCache(tmp_path)
        client = WikidataClient(cache, policy=ONLINE, transport=transport)
        assert client.fetch("Q404") is None
        assert client.label("Q404") is None
        assert len(transport.calls) == 1
        assert len(cache.path.read_text(encoding="utf-8").splitlines()) == 1

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
        record = {"source": "wikidata", "key": "Q90", "value": {"qid": "Q90"}}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        client = WikidataClient(KbCache(path), policy=CACHE_ONLY, transport=forbidden_transport)
        message = re.escape(f"{path}:1: bad cache record (no field 'labels')")
        with pytest.raises(KbCacheCorrupt, match=message):
            client.fetch("Q90")
        with pytest.raises(KbCacheCorrupt, match=message):
            client.label("Q90")

    def test_label_falls_back_to_label_cache(self, tmp_path):
        cache = KbCache(tmp_path)
        cache.put("wikidata-label", "Q99", {"labels": {"en": "Somewhere"}})
        client = WikidataClient(cache, policy=CACHE_ONLY, transport=forbidden_transport)
        assert client.label("Q99") == "Somewhere"


class TestConcurrentFetches:
    def test_threads_missing_one_key_fetch_and_write_it_once(self, tmp_path, monkeypatch):
        url = "https://www.wikidata.org/wiki/Special:EntityData/{qid}.json"
        qids = ("Q90", "Q64")
        calls = []

        def transport(url, params=None):
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
            assert first == second and first.labels == {"en": qid}

    def test_a_failed_fetch_is_tried_again(self, tmp_path):
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q90.json"
        transport = FakeTransport(
            {url: [RuntimeError("down"), wikidata_payload("Q90", labels={"en": "Paris"})]}
        )
        client = WikidataClient(
            KbCache(tmp_path), policy=ONLINE, transport=transport, retries=0
        )
        with pytest.raises(KbRemoteError):
            client.fetch("Q90")
        assert client.fetch("Q90").labels == {"en": "Paris"}
        assert len(transport.calls) == 2


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
    def test_enforces_minimum_interval(self):
        import time

        limiter = RateLimiter(per_second=50.0)
        start = time.monotonic()
        for _ in range(3):
            limiter.wait()
        elapsed = time.monotonic() - start
        assert elapsed >= 0.04  # two 20 ms gaps after the first call
