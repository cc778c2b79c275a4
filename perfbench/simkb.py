"""Simulated WikiData / DBpedia / Wikipedia endpoint for cold-cache runs.

``SimulatedEndpoint`` is a drop-in for ``newsgeo.kb.default_transport``: it
answers the same URLs with raw JSON payloads shaped like the real services'
(WikiData entity documents, DBpedia data documents, Wikipedia search and
pageprops responses) for one generated world, after a fixed simulated
round-trip time. Pages a world does not carry answer 404 (``LookupError``),
which the clients record as confirmed absences. Every ``fail_every``-th new
URL fails once with a connection error before the retry succeeds, so a
world's number of retries does not depend on its seed.

The endpoint is installed only inside the process that runs the command
line, never in the benchmark runner.
"""

from __future__ import annotations

import threading
import time
import urllib.parse
from typing import Any

from world import CLASSES, LANGUAGES, World

ONTOLOGY = "http://dbpedia.org/ontology/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


class SimulatedEndpoint:
    def __init__(self, world: World, rtt_s: float = 0.02, fail_every: int = 30):
        self.world = world
        self.rtt_s = rtt_s
        self.fail_every = fail_every
        self._lock = threading.Lock()
        self._requested: set[str] = set()
        self._pages = world.page_entities()
        self._search = {language: world.search_index(language) for language in LANGUAGES}
        self._classes = dict(CLASSES)

    def __call__(self, url: str, params: dict[str, Any] | None = None) -> Any:
        time.sleep(self.rtt_s)
        if self._fails_once(url):
            raise ConnectionError(f"simulated connection reset: {url}")
        parsed = urllib.parse.urlsplit(url)
        host = parsed.netloc
        if host == "www.wikidata.org":
            qid = parsed.path.rsplit("/", 1)[-1].removesuffix(".json")
            return self._entity(qid, url)
        language = host.split(".", 1)[0]
        if host.endswith(".dbpedia.org"):
            title = urllib.parse.unquote(parsed.path.rsplit("/", 1)[-1].removesuffix(".json")).replace("_", " ")
            return self._dbpedia(language, title, url)
        if host.endswith(".wikipedia.org"):
            query = urllib.parse.parse_qs(parsed.query)
            if "srsearch" in query:
                return self._search_hits(language, query["srsearch"][0])
            return self._pageprops(language, query["titles"][0])
        raise LookupError(url)

    def _fails_once(self, url: str) -> bool:
        with self._lock:
            if url in self._requested:
                return False
            self._requested.add(url)
            return len(self._requested) % self.fail_every == 0

    def _entity(self, qid: str, url: str) -> dict[str, Any]:
        if qid in self._classes:
            labels = {"en": {"language": "en", "value": self._classes[qid]}}
            return {"entities": {qid: {"id": qid, "labels": labels, "claims": {}}}}
        entity = self.world.entities.get(qid)
        if entity is None:
            raise LookupError(url)
        claims = {
            prop: [_claim(target) for target in targets]
            for prop, targets in (("P17", entity.p17), ("P31", [q for q, _ in entity.p31]), ("P131", entity.p131))
            if targets
        }
        labels = {lang: {"language": lang, "value": value} for lang, value in entity.labels.items()}
        return {"entities": {qid: {"id": qid, "labels": labels, "claims": claims}}}

    def _dbpedia(self, language: str, title: str, url: str) -> dict[str, Any]:
        entity = self._pages.get((language, title))
        record = entity.pages.get(language) if entity else None
        if record is None:
            raise LookupError(url)
        node: dict[str, list[dict[str, Any]]] = {
            RDF_TYPE: [{"type": "uri", "value": ONTOLOGY + t} for t in record["ontology_types"]]
        }
        for name, values in record["properties"].items():
            predicate = ONTOLOGY + {"birthplace": "birthPlace", "populationtotal": "populationTotal"}.get(name, name)
            node[predicate] = [
                {"type": "uri", "value": f"http://{language}.dbpedia.org/resource/{_resource(value)}"}
                if name in ("birthplace", "location", "country")
                else {"type": "literal", "value": value}
                for value in values
            ]
        if record["abstract"]:
            node[ONTOLOGY + "abstract"] = [{"type": "literal", "lang": language, "value": record["abstract"]}]
        return {f"http://{language}.dbpedia.org/resource/{_resource(title)}": node}

    def _search_hits(self, language: str, query: str) -> dict[str, Any]:
        entity = self._search[language].get(query)
        hits = [] if entity is None else [{"ns": 0, "title": entity.label(language)}]
        return {"query": {"search": hits}}

    def _pageprops(self, language: str, title: str) -> dict[str, Any]:
        entity = self._pages.get((language, title))
        if entity is None:
            raise LookupError(title)
        return {"query": {"pages": {"1": {"title": title, "pageprops": {"wikibase_item": entity.qid}}}}}


def _claim(target: str) -> dict[str, Any]:
    return {"mainsnak": {"datavalue": {"value": {"entity-type": "item", "id": target}}}}


def _resource(title: str) -> str:
    return urllib.parse.quote(title.replace(" ", "_"))
