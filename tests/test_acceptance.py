"""Acceptance gate: one test per graded criterion, one printed line each.

Every criterion prints ``[ACCEPTANCE] <name>: PASS`` when it holds (run with
``pytest tests/test_acceptance.py -v -s`` to watch the lines go by), FAIL just
before the assertion propagates, or SKIP for the opt-in networked check. The
hermetic criteria are the gate; the live-KB score reproduction is best effort
by design and needs explicit opt-in because remote results drift.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time

import numpy as np
import pytest

from conftest import DictKb, bfs_nearest_city, build_admin_graph
from oracles import (
    central_difference,
    gradient_agreement,
    loss_contrastive,
    loss_cosine,
    loss_infonce,
    loss_triplet,
    oracle_loss_contrastive,
    oracle_loss_cosine,
    oracle_loss_infonce,
    oracle_loss_triplet,
)

from newsgeo.cli import main
from newsgeo.config import AVERAGE
from newsgeo.corpus import GoldAnnotation
from newsgeo.embedding import MockEmbedder, chunk_document, embed_document
from newsgeo.evaluation import precision_at_1
from newsgeo.locations import LocationTuple, resolve_city
from newsgeo.ner import NerSpan
from newsgeo.ranking import Candidate, rank_candidates
from newsgeo.training import (
    loss_contrastive_grad,
    loss_cosine_grad,
    loss_infonce_grad,
    loss_triplet_grad,
)

CONFIG_ENV = "NEWSGEO_EVAL_CONFIG"


@contextlib.contextmanager
def criterion(name: str):
    """Print one status line per criterion, whatever the outcome."""
    try:
        yield
    except BaseException as exc:
        outcome = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"[ACCEPTANCE] {name}: {outcome}")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


class TestLossOracles:
    def test_values_match_independent_recomputation(self):
        with criterion("loss values vs brute-force oracles (1000 inputs each, tol 1e-9)"):
            start = time.perf_counter()
            rng = np.random.default_rng(1001)
            worst = 0.0
            for _ in range(1000):
                dim = int(rng.integers(2, 12))
                u = rng.normal(size=dim)
                v = rng.normal(size=dim)
                w = rng.normal(size=dim)
                y = int(rng.integers(0, 2))
                margin = float(rng.uniform(0.1, 1.5))
                literal = bool(rng.integers(0, 2))
                worst = max(worst, abs(loss_cosine(u, v, y) - oracle_loss_cosine(u, v, y)))
                worst = max(
                    worst,
                    abs(
                        loss_contrastive(u, v, y, margin, literal)
                        - oracle_loss_contrastive(u, v, y, margin, literal)
                    ),
                )
                worst = max(
                    worst, abs(loss_triplet(u, v, w, margin) - oracle_loss_triplet(u, v, w, margin))
                )
            for _ in range(1000):
                batch = int(rng.integers(2, 7))
                dim = int(rng.integers(2, 9))
                us = rng.normal(size=(batch, dim))
                vs = rng.normal(size=(batch, dim))
                scale = float(rng.uniform(0.5, 20.0))
                worst = max(worst, abs(loss_infonce(us, vs, scale) - oracle_loss_infonce(us, vs, scale)))
            assert worst <= 1e-9
            for batch in (2, 4, 8):
                us = np.tile(rng.normal(size=5), (batch, 1))
                vs = np.tile(rng.normal(size=5), (batch, 1))
                assert abs(loss_infonce(us, vs) - np.log(batch)) <= 1e-12
            assert time.perf_counter() - start < 10.0

    def test_gradients_match_central_differences(self):
        with criterion("analytic gradients vs central differences (100 inputs each, tol 1e-4)"):
            rng = np.random.default_rng(2002)

            def agree(analytic, f, x):
                assert gradient_agreement(analytic, central_difference(f, x)) <= 1e-4

            checked = 0
            while checked < 100:
                u = rng.normal(size=5)
                v = rng.normal(size=5)
                y = int(rng.integers(0, 2))
                _, gu, gv = loss_cosine_grad(u, v, y)
                agree(gu, lambda x: loss_cosine(x, v, y), u)
                agree(gv, lambda x: loss_cosine(u, x, y), v)
                checked += 1

            checked = 0
            while checked < 100:
                u = rng.normal(size=5)
                v = rng.normal(size=5)
                y = int(rng.integers(0, 2))
                margin = float(rng.uniform(0.2, 1.2))
                literal = bool(rng.integers(0, 2))
                c = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
                d = c if literal else 1.0 - c
                if y == 0 and abs(margin - d) < 1e-3:
                    continue
                _, gu, gv = loss_contrastive_grad(u, v, y, margin, literal)
                agree(gu, lambda x: loss_contrastive(x, v, y, margin, literal), u)
                agree(gv, lambda x: loss_contrastive(u, x, y, margin, literal), v)
                checked += 1

            checked = 0
            while checked < 100:
                u = rng.normal(size=4)
                vp = rng.normal(size=4)
                vn = rng.normal(size=4)
                margin = float(rng.uniform(0.2, 1.2))
                uh = u / np.linalg.norm(u)
                d_pos = float(np.linalg.norm(uh - vp / np.linalg.norm(vp)))
                d_neg = float(np.linalg.norm(uh - vn / np.linalg.norm(vn)))
                if abs(d_pos - d_neg + margin) < 1e-3:
                    continue
                _, gu, gp, gn = loss_triplet_grad(u, vp, vn, margin)
                agree(gu, lambda x: loss_triplet(x, vp, vn, margin), u)
                agree(gp, lambda x: loss_triplet(u, x, vn, margin), vp)
                agree(gn, lambda x: loss_triplet(u, vp, x, margin), vn)
                checked += 1

            for _ in range(100):
                batch = int(rng.integers(2, 6))
                us = rng.normal(size=(batch, 4))
                vs = rng.normal(size=(batch, 4))
                scale = float(rng.uniform(0.5, 10.0))
                _, gu, gv = loss_infonce_grad(us, vs, scale)
                agree(gu, lambda x: loss_infonce(x, vs, scale), us)
                agree(gv, lambda x: loss_infonce(us, x, scale), vs)


class TestEmbeddingMeanProperty:
    def test_average_mode_equals_external_chunk_mean(self):
        with criterion("document embedding == mean of chunk embeddings (tol 1e-9, p=1 exact)"):
            provider = MockEmbedder(dimension=12, seed=3, max_tokens=8)
            config = AVERAGE
            rng = random.Random(77)
            vocabulary = ["north", "harbour", "council", "river", "press", "vote", "storm"]
            worst = 0.0
            for _ in range(50):
                sentences = []
                for _ in range(rng.randint(4, 9)):
                    words = rng.choices(vocabulary, k=rng.randint(3, 6))
                    sentences.append(" ".join(words) + ". ")
                text = "".join(sentences).rstrip()
                chunks = chunk_document(text, provider)
                assert len(chunks) >= 2
                external = np.mean([provider.embed(chunk) for chunk in chunks], axis=0)
                worst = max(worst, float(np.max(np.abs(embed_document(text, provider, config) - external))))
            assert worst <= 1e-9
            short = "one two three"
            assert np.array_equal(embed_document(short, provider, config), provider.embed(short))


class TestCityResolutionOracle:
    def test_depth_first_matches_breadth_first_on_synthetic_graphs(self):
        with criterion("city resolution vs breadth-first oracle (50-item graph, < 1 s)"):
            start = time.perf_counter()
            for seed in (5, 6, 7, 8, 9):
                items, acyclic, cyclic = build_admin_graph(n_items=50, seed=seed)
                kb = DictKb(items)
                for qid in acyclic:
                    assert resolve_city(items[qid], kb, max_depth=60) == bfs_nearest_city(items, qid)
                for qid in cyclic:
                    resolve_city(items[qid], kb, max_depth=60)
            assert time.perf_counter() - start < 1.0


class TestMetricFixture:
    def test_hand_computed_macro_and_micro(self):
        with criterion("metric equals hand-computed values (macro country 0.70)"):
            paris = LocationTuple("France", "Q142", "Paris", "Q90")
            berlin = LocationTuple("Germany", "Q183", "Berlin", "Q64")
            gold = {}
            languages = {}
            predictions = {}
            for i in range(5):
                for language, hits in (("en", 3), ("fr", 4)):
                    article_id = f"{language}-{i}"
                    gold[article_id] = GoldAnnotation(article_id, (paris,))
                    languages[article_id] = language
                    predictions[article_id] = paris if i < hits else berlin
            result = precision_at_1(predictions, gold, languages, "country")
            assert result.per_language == {"en": 3 / 5, "fr": 4 / 5}
            assert result.macro == 0.70
            assert result.micro == 7 / 10
            assert result.hits == 7 and result.documents == 10


class TestEndToEndDeterminism:
    def test_rank_and_evaluate_byte_identical(self, tmp_path, fixture_tree):
        with criterion("rank + evaluate byte-identical (3 runs, workers 1 and 4)"):
            config = str(fixture_tree["config"])
            rank_outputs = set()
            eval_outputs = set()
            for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "1"), ("w4", "4")):
                ranked = tmp_path / f"ranked_{name}.jsonl"
                report = tmp_path / f"report_{name}.json"
                argv = ["--config", config, "--workers", workers]
                assert main(["rank", *argv, "--output", str(ranked)]) == 0
                assert main(["evaluate", *argv, "--output", str(report)]) == 0
                rank_outputs.add(ranked.read_bytes())
                eval_outputs.add(report.read_bytes())
            assert len(rank_outputs) == 1
            assert len(eval_outputs) == 1


class ScaledProvider:
    """Same embeddings as the wrapped provider, multiplied by a constant."""

    def __init__(self, base, factor: float):
        self.base = base
        self.factor = factor
        self.name = f"{base.name}-x{factor}"
        self.dimension = base.dimension
        self.max_tokens = base.max_tokens

    def token_count(self, text: str) -> int:
        return self.base.token_count(text)

    def embed(self, text: str) -> np.ndarray:
        return self.factor * self.base.embed(text)


class TestRankingScaleInvariance:
    def test_rescaled_embeddings_keep_every_order(self):
        with criterion("ranking order invariant under embedding scale 0.1 and 10"):
            base = MockEmbedder(dimension=16, seed=21)
            rng = random.Random(93)
            vocabulary = ["delta", "summit", "accord", "strike", "launch", "quarter", "border"]
            for index in range(50):
                text = " ".join(rng.choices(vocabulary, k=rng.randint(8, 40))) + "."
                pool = []
                offset = 0
                for j in range(rng.randint(3, 9)):
                    surface = f"cand-{index}-{j}"
                    span = NerSpan(surface, offset, offset + len(surface), "LOC", "synthetic")
                    rendered = " ".join(rng.choices(vocabulary, k=rng.randint(1, 6)))
                    pool.append(Candidate(span=span, text=rendered))
                    offset += len(surface) + 1
                reference = [
                    (c.span.start, c.text) for c in rank_candidates(text, pool, base)
                ]
                for factor in (0.1, 10.0):
                    scaled = ScaledProvider(base, factor)
                    order = [
                        (c.span.start, c.text) for c in rank_candidates(text, pool, scaled)
                    ]
                    assert order == reference


class TestPublishedScores:
    def test_live_reproduction_is_best_effort(self, tmp_path):
        """Country-level scores from the original experiments, +-2 points.

        Needs live KB access, the real NER and embedding providers, and the
        full annotated corpus, none of which ship with the repository. Opt in
        by pointing NEWSGEO_EVAL_CONFIG at a config with those resources; the
        hermetic criteria above remain the gating suite either way.
        """
        with criterion("published-score reproduction (networked, best effort)"):
            config = os.environ.get(CONFIG_ENV)
            if not config:
                pytest.skip(
                    f"set {CONFIG_ENV} to a config file with live network access, "
                    "real providers and the annotated corpus (see README)"
                )
            baseline_report = tmp_path / "baseline.json"
            ranked_report = tmp_path / "ranked.json"
            assert (
                main(
                    [
                        "evaluate",
                        "--config",
                        config,
                        "--baseline",
                        "first-location",
                        "--output",
                        str(baseline_report),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "evaluate",
                        "--config",
                        config,
                        "--mode",
                        "only_locations",
                        "--mode",
                        "located_non_locations",
                        "--output",
                        str(ranked_report),
                    ]
                )
                == 0
            )
            baseline = json.loads(baseline_report.read_text(encoding="utf-8"))
            ranked = json.loads(ranked_report.read_text(encoding="utf-8"))
            assert abs(baseline["country"]["macro"] * 100 - 67.54) <= 2.0
            assert abs(ranked["country"]["macro"] * 100 - 70.57) <= 2.0
