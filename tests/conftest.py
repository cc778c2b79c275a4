"""Shared test fixtures: the offline mini-world and a synthetic admin graph."""

from __future__ import annotations

import json
import random
import shutil
from collections import deque
from pathlib import Path

import pytest

from newsgeo.corpus import load_corpus, load_gold
from newsgeo.embedding import MockEmbedder
from newsgeo.kb import (
    CACHE_ONLY,
    DbpediaClient,
    KbCache,
    WikidataClient,
    WikidataItem,
    forbidden_transport,
)
from newsgeo.linking import WikipediaLinker
from newsgeo.locations import CITY_CLASS_MARKERS, Resolver
from newsgeo.ner import GazetteerNer

# The committed fixture world. Tests read it in place and write only to copies.
FIXTURES = Path(__file__).resolve().parents[1] / "data" / "fixtures"


@pytest.fixture()
def fixture_tree(tmp_path):
    """The committed fixture world copied into `tmp_path`, by role."""
    copy = shutil.copytree(FIXTURES, tmp_path / "fx")
    paths = {path.stem: path for path in copy.iterdir()}
    paths["cache"] = paths.pop("kb_cache")
    return paths


@pytest.fixture()
def kb_cache(tmp_path):
    return KbCache(shutil.copy(FIXTURES / "kb_cache.jsonl", tmp_path / "kb_cache.jsonl"))


@pytest.fixture()
def resolver(kb_cache):
    """Cache-only resolver whose transport fails loudly if ever touched."""
    return Resolver(
        wikidata=WikidataClient(kb_cache, policy=CACHE_ONLY, transport=forbidden_transport),
        dbpedia=DbpediaClient(kb_cache, policy=CACHE_ONLY, transport=forbidden_transport),
        linker=WikipediaLinker(kb_cache, policy=CACHE_ONLY, transport=forbidden_transport),
    )


@pytest.fixture()
def articles():
    everything = []
    for language in ("en", "fr", "de", "es", "it"):
        loaded, report = load_corpus(FIXTURES / f"articles_{language}.jsonl", language)
        assert report.skipped == 0, report.warnings
        everything.extend(loaded)
    return everything


@pytest.fixture()
def gold():
    return load_gold(FIXTURES / "gold.jsonl")


@pytest.fixture()
def gazetteer_ner():
    return GazetteerNer(json.loads((FIXTURES / "gazetteer.json").read_text(encoding="utf-8")))


@pytest.fixture()
def mock_provider():
    return MockEmbedder(dimension=16, seed=7)


class DictKb:
    """Minimal in-memory stand-in for the WikiData client."""

    def __init__(self, items: dict[str, WikidataItem]):
        self.items = items

    def fetch(self, qid: str) -> WikidataItem | None:
        return self.items.get(qid)

    def label(self, qid: str, language: str = "en") -> str | None:
        item = self.items.get(qid)
        return item.label(language) if item else None


_CITY_PHRASES = (
    "city",
    "capital city",
    "municipality",
    "market town",
    "village",
    "commune of France",
)
_OTHER_PHRASES = ("district", "county", "region", "borough", "metropolitan area")


def build_admin_graph(
    n_items: int = 50, seed: int = 5
) -> tuple[dict[str, WikidataItem], list[str], list[str]]:
    """A random containment DAG plus one two-node cycle.

    Items only point at lower-numbered items, so the bulk of the graph is
    acyclic; the last two items reference each other before escaping to a
    city. Each item's containment list is ordered by the target's distance to
    the nearest city, which makes depth-first resolution agree with a
    breadth-first search.
    """
    rng = random.Random(seed)
    qids = [f"Q{2000 + i}" for i in range(n_items)]
    acyclic = qids[: n_items - 2]
    cyclic = qids[n_items - 2 :]
    items: dict[str, WikidataItem] = {}
    distance: dict[str, float] = {}
    city_qids: list[str] = []
    for i, qid in enumerate(acyclic):
        is_city = rng.random() < 0.3 or i == 1
        if is_city:
            p31 = [(f"Q{3000 + i}", rng.choice(_CITY_PHRASES))]
            p131: list[str] = []
            distance[qid] = 0.0
            city_qids.append(qid)
        else:
            p31 = [(f"Q{3000 + i}", rng.choice(_OTHER_PHRASES))]
            n_targets = rng.randint(0, min(3, i))
            p131 = rng.sample(acyclic[:i], n_targets)
            p131.sort(key=lambda t: (distance[t], t))
            reachable = [distance[t] for t in p131 if distance[t] != float("inf")]
            distance[qid] = 1.0 + min(reachable) if reachable else float("inf")
        items[qid] = WikidataItem(
            qid=qid, labels={"en": f"Item {i}"}, p17=[], p31=p31, p131=p131
        )
    a, b = cyclic
    items[a] = WikidataItem(
        qid=a, labels={"en": "Cycle A"}, p17=[], p31=[("Q3998", "district")], p131=[b]
    )
    items[b] = WikidataItem(
        qid=b,
        labels={"en": "Cycle B"},
        p17=[],
        p31=[("Q3999", "county")],
        p131=[a, city_qids[0]],
    )
    return items, acyclic, cyclic


def bfs_nearest_city(
    items: dict[str, WikidataItem], qid: str
) -> tuple[str, str] | None:
    """Independent oracle: breadth-first search for the nearest city-like item."""
    seen = {qid}
    queue = deque([qid])
    while queue:
        current = queue.popleft()
        item = items[current]
        if _oracle_is_city(item):
            return item.label() or item.qid, item.qid
        for target in item.p131:
            if target in seen or target not in items:
                continue
            seen.add(target)
            queue.append(target)
    return None


def _oracle_is_city(item: WikidataItem) -> bool:
    for _, label in item.p31:
        lowered = label.lower()
        for marker in CITY_CLASS_MARKERS:
            if marker in lowered:
                return True
    return False


@pytest.fixture()
def admin_graph():
    return build_admin_graph()
