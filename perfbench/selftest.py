"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        (from the repository root)

Covers the world generator's determinism, the output checks' ability to
reject tampered outputs, the simulated endpoint's agreement with the warm
cache, the tracer's span and self-time arithmetic, and the rescaling of command
times to the reference host speed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from simkb import SimulatedEndpoint  # noqa: E402
from run import at_reference_speed  # noqa: E402
from tracer import Tracer, percentile, self_times  # noqa: E402
from world import Settings, World  # noqa: E402

SMALL = Settings(name="selftest", languages=("de", "en"), docs_per_language=6, countries=2,
                 cities_per_country=2, unlocatable=1, dangling=1, backlog=10)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_world(self):
        a, b = World(SMALL, 5), World(SMALL, 5)
        self.assertEqual(a.articles, b.articles)
        self.assertEqual(a.gold, b.gold)
        self.assertEqual(a.gazetteer, b.gazetteer)
        self.assertEqual(a.cache_records(), b.cache_records())
        with tempfile.TemporaryDirectory() as tmp:
            a.write(Path(tmp) / "a")
            b.write(Path(tmp) / "b")
            for path in sorted((Path(tmp) / "a").iterdir()):
                self.assertEqual(path.read_bytes(), (Path(tmp) / "b" / path.name).read_bytes(), path.name)

    def test_other_seed_other_world(self):
        self.assertNotEqual(World(SMALL, 5).articles, World(SMALL, 6).articles)

    def test_mentions_are_exactly_the_gazetteer_matches(self):
        from newsgeo.ner import GazetteerNer

        world = World(SMALL, 5)
        ner = GazetteerNer(world.gazetteer)
        for article in world.articles:
            found = sorted((s.start, s.end) for s in ner.spans(article["text"], article["lang"]))
            wanted = sorted((m["start"], m["end"]) for m in article["mentions"])
            self.assertEqual(found, wanted, article["id"])


class SimulatedEndpointTest(unittest.TestCase):
    def test_online_fetches_reduce_to_the_warm_records(self):
        from newsgeo.kb import ONLINE, DbpediaClient, KbCache, RateLimiter, WikidataClient
        from newsgeo.linking import WikipediaLinker

        world = World(SMALL, 5)
        endpoint = SimulatedEndpoint(world, rtt_s=0.0, fail_every=10**9)
        with tempfile.TemporaryDirectory() as tmp:
            cache = KbCache(Path(tmp) / "cold.jsonl")
            kw = dict(policy=ONLINE, transport=endpoint, rate_limiter=RateLimiter(1e9))
            wikidata, dbpedia = WikidataClient(cache, **kw), DbpediaClient(cache, **kw)
            linker = WikipediaLinker(cache, **kw)
            for source, key, value in world.cache_records():
                if value == {"__missing__": True}:
                    continue
                if source == "wikidata":
                    self.assertEqual(wikidata.fetch(key).to_json(), value, key)
                elif source == "dbpedia":
                    language, title = key.split(":", 1)
                    self.assertEqual(dbpedia.fetch(title, language, english_fallback=False).to_json(), value, key)
                else:
                    language, surface = key.split(":", 1)
                    self.assertEqual(linker.link(surface, language).to_json(), value, key)

    def test_transient_failure_fails_once(self):
        endpoint = SimulatedEndpoint(World(SMALL, 5), rtt_s=0.0, fail_every=1)
        url = "https://www.wikidata.org/wiki/Special:EntityData/Q515.json"
        with self.assertRaises(ConnectionError):
            endpoint(url)
        self.assertIn("Q515", endpoint(url)["entities"])


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from newsgeo.cli import main

        cls.world = World(SMALL, 5)
        cls.tmp = tempfile.TemporaryDirectory()
        root = Path(cls.tmp.name)
        cls.world.write(root)
        with contextlib.redirect_stdout(io.StringIO()):
            config = str(root / "config.json")
            assert main(["evaluate", "--config", config, "--output", str(root / "report.json")]) == 0
            assert main(["rank", "--config", config, "--output", str(root / "ranked.jsonl")]) == 0
        cls.report = json.loads((root / "report.json").read_text(encoding="utf-8"))
        cls.ranked = [json.loads(line) for line in (root / "ranked.jsonl").read_text(encoding="utf-8").splitlines()]
        cls.gold = {g["article_id"]: g["locations"] for g in cls.world.gold}
        cls.languages = {a["id"]: a["lang"] for a in cls.world.articles}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_genuine_outputs_pass(self):
        checks.recount_p1(self.report, self.gold, self.languages)
        checked = checks.predictions_follow_ranking(self.report, self.ranked, self.world.truth_by_text(),
                                                    self.languages)
        self.assertEqual(checked, len(self.world.articles))

    def test_tampered_macro_rejected(self):
        report = copy.deepcopy(self.report)
        report["city"]["macro"] += 0.01
        with self.assertRaises(CheckFailed):
            checks.recount_p1(report, self.gold, self.languages)

    def test_tampered_prediction_rejected(self):
        report = copy.deepcopy(self.report)
        entry = report["trace"][0]
        gold = entry["gold"][0]
        entry["prediction"] = None if entry["city_hit"] else dict(gold)
        with self.assertRaises(CheckFailed):
            checks.recount_p1(report, self.gold, self.languages)
        with self.assertRaises(CheckFailed):
            checks.predictions_follow_ranking(report, self.ranked, self.world.truth_by_text(), self.languages)

    def test_reordered_ranking_rejected(self):
        truth = self.world.truth_by_text()
        ranked = copy.deepcopy(self.ranked)
        for record in ranked:
            language = self.languages[record["article_id"]]
            resolvable = [c for c in record["candidates"] if truth[(language, c["text"])] is not None]
            locations = {truth[(language, c["text"])] for c in resolvable}
            if len(locations) > 1:
                first = record["candidates"].index(resolvable[0])
                other = next(c for c in resolvable if truth[(language, c["text"])] != truth[(language, resolvable[0]["text"])])
                record["candidates"].remove(other)
                record["candidates"].insert(first, other)
                break
        else:
            self.skipTest("no article with two distinct resolvable candidates")
        with self.assertRaises(CheckFailed):
            checks.predictions_follow_ranking(self.report, ranked, truth, self.languages)

    def test_changed_bytes_rejected(self):
        with self.assertRaises(CheckFailed):
            checks.identical("evaluate", b'{"a": 1}', b'{"a": 2}')

    def test_bad_training_report_rejected(self):
        good = dict(loss="triplet", epochs_run=2, epochs_requested=2, train_losses=[0.5, 0.4],
                    validation_losses=[0.6, 0.5], best_validation_loss=0.5)
        checks.training_report(good, "triplet", 2)
        for change in (dict(train_losses=[0.5, math.nan]), dict(epochs_run=1), dict(loss="infonce"),
                       dict(validation_losses=[0.6])):
            with self.assertRaises(CheckFailed, msg=str(change)):
                checks.training_report(good | change, "triplet", 2)


class TracerTest(unittest.TestCase):
    def test_self_time_arithmetic(self):
        spans = [
            ["root", 0.0, 10.0, None, None, 1, None],
            ["child", 1.0, 4.0, 0, None, 1, None],
            ["leaf", 2.0, 3.0, 1, None, 1, None],
            ["child", 5.0, 6.0, 0, None, 1, None],
            ["other", 8.0, 12.0, None, None, 2, None],
            ["late", 14.0, 15.0, None, None, 1, None],
        ]
        times, covered = self_times(spans)
        self.assertEqual(times, {"root": 6.0, "child": 3.0, "leaf": 1.0, "other": 4.0, "late": 1.0})
        self.assertEqual(covered, 13.0)

    def test_spans_nest_per_thread_and_record_articles(self):
        tracer = Tracer()
        inner = tracer.span("inner", lambda x: x + 1)
        outer = tracer.span("outer", lambda x: inner(x) * 2)

        def work():
            tracer.set_article("a-1")
            self.assertEqual(outer(1), 4)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        self.assertFalse(thread.is_alive())
        outer(2)
        (o1, i1, o2, i2) = tracer.spans
        self.assertIs(i1[3], o1)
        self.assertIs(i2[3], o2)
        self.assertIsNone(o1[3])
        self.assertEqual((o1[4], o2[4]), ("a-1", None))
        self.assertNotEqual(o1[5], o2[5])

    def test_missing_boundary_is_reported_not_raised(self):
        tracer = Tracer()
        tracer.patch("newsgeo.ranking:no_such_function", lambda f: f)
        tracer.patch("newsgeo.no_such_module:f", lambda f: f)
        self.assertEqual(tracer.missing, ["newsgeo.ranking:no_such_function", "newsgeo.no_such_module:f"])

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 99), 99)
        self.assertEqual(percentile([3.0], 99), 3.0)


class ReferenceSpeedTest(unittest.TestCase):
    def test_only_the_busy_share_is_rescaled(self):
        self.assertAlmostEqual(at_reference_speed(2.0, 2.0, 2.0), 1.0)
        self.assertAlmostEqual(at_reference_speed(2.0, 0.0, 2.0), 2.0)
        self.assertAlmostEqual(at_reference_speed(2.0, 1.0, 2.0), 1.5)
        self.assertAlmostEqual(at_reference_speed(1.0, 0.5, 0.5), 1.5)

    def test_two_busy_threads_count_as_fully_busy(self):
        self.assertAlmostEqual(at_reference_speed(1.0, 1.8, 2.0), 0.5)


if __name__ == "__main__":
    unittest.main()
