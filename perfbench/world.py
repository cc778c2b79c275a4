"""Seeded synthetic news world: knowledge base, gazetteer, corpora and gold.

The generator builds one self-consistent world per (settings, seed) and lays
it out as the on-disk tree the ``newsgeo`` command line consumes:

* ``kb_cache.jsonl`` in the documented cache format (reduced WikiData items,
  DBpedia records, confirmed absences and Wikipedia link results), followed
  by an unrelated backlog so that loading the cache costs what a long-lived
  cache costs;
* ``gazetteer.json`` for the dictionary recognizer;
* ``articles_<lang>.jsonl`` with categories and qid-carrying mentions, and
  ``gold.jsonl`` with each article's main (city, country);
* ``config.json`` with the mock encoder at an encoder-sized dimension.

The world contains two-hop containment chains (neighbourhood -> borough ->
capital), a containment cycle (district <-> county -> town), persons and
buildings whose pages carry a birthplace or location anchor, unlocatable
persons, dangling location names that link to nothing, and topic categories
that are not locations. ``truth`` maps every candidate text the ranker can
produce to the location the world defines for it; it is computed from the
construction, not through the library, so checks against it are independent.

The same structures also drive the simulated remote endpoint (``simkb``),
which serves raw WikiData / DBpedia / Wikipedia payloads for the same world.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Any

LANGUAGES = ("de", "en", "es", "fr", "it")
CITY = ("Q515", "city")
TOWN = ("Q3957", "town")
COUNTRY = ("Q6256", "country")
HUMAN = ("Q5", "human")
NEIGHBOURHOOD = ("Q9100001", "neighbourhood")
BOROUGH = ("Q9100002", "borough")
DISTRICT = ("Q9100003", "district")
COUNTY = ("Q9100004", "county")
BUILDING = ("Q9100005", "building")
DISCIPLINE = ("Q9100006", "academic discipline")
CLASSES = (CITY, TOWN, COUNTRY, HUMAN, NEIGHBOURHOOD, BOROUGH, DISTRICT, COUNTY, BUILDING, DISCIPLINE)
MISSING = {"__missing__": True}
# Share of an article's further mentions that lie inside its city.
FOCUS = 0.8

TOPICS = (
    ("Q9200001", {"de": "Politik", "en": "Politics", "es": "Política", "fr": "Politique", "it": "Politica"}),
    ("Q9200002", {"de": "Wirtschaft", "en": "Economy", "es": "Economía", "fr": "Économie", "it": "Economia"}),
    ("Q9200003", {"de": "Kultur", "en": "Culture", "es": "Cultura", "fr": "Culture", "it": "Cultura"}),
)

# Lowercase filler per language; entity names are capitalized synthetic words,
# so the case-sensitive gazetteer can never match filler.
FILLER = {
    "de": "die der und mit auf wurde heute nach einem neuen plan sagte sprecher am montag über stadt rat bericht woche".split(),
    "en": "the officials said on monday that a new plan was announced after talks with local council members this week".split(),
    "es": "los funcionarios dijeron el lunes que un nuevo plan fue anunciado tras conversaciones con el consejo local".split(),
    "fr": "les responsables ont dit lundi que un nouveau plan a été annoncé après des discussions avec le conseil".split(),
    "it": "i funzionari hanno detto lunedì che un nuovo piano è stato annunciato dopo colloqui con il consiglio".split(),
}
HEADLINE = {
    "de": "Gipfel in {}",
    "en": "Summit opens in {}",
    "es": "Cumbre en {}",
    "fr": "Sommet à {}",
    "it": "Vertice a {}",
}
SYLLABLES = "ka lo ve ni ra so mu te bi da zo ri fe lu na go pe si ta vo".split()
CODAS = ("n", "r", "s", "l", "m", "")


@dataclasses.dataclass(frozen=True)
class Settings:
    """Shape of one world. Counts and layout are fixed per workload; the seed picks names."""

    name: str
    languages: tuple[str, ...] = LANGUAGES
    docs_per_language: int = 200
    words: tuple[int, int] = (30, 60)
    countries: int = 4
    cities_per_country: int = 3
    unlocatable: int = 2  # persons whose pages carry no geographic property
    dangling: int = 2  # location names that link to nothing
    backlog: int = 30000  # unrelated cache lines after the world's own
    location_mentions: int = 3  # per article, counting the body's mention of its city
    nonlocation_mentions: int = 2


@dataclasses.dataclass
class Entity:
    qid: str | None
    kind: str
    labels: dict[str, str]
    p17: list[str] = dataclasses.field(default_factory=list)
    p31: list[tuple[str, str]] = dataclasses.field(default_factory=list)
    p131: list[str] = dataclasses.field(default_factory=list)
    # language -> reduced DBpedia record; a language absent here has no page.
    pages: dict[str, dict[str, Any]] = dataclasses.field(default_factory=dict)
    anchor: "Entity | None" = None
    truth: tuple | None = None  # (city_qid, city_label, country_qid, country_label)

    def label(self, language: str) -> str:
        return self.labels.get(language, self.labels["en"])

    def item_json(self) -> dict[str, Any]:
        return dict(
            qid=self.qid,
            labels=dict(self.labels),
            p17=list(self.p17),
            p31=[list(pair) for pair in self.p31],
            p131=list(self.p131),
        )


class World:
    """All facts of one generated world, plus the ground truth derived from them."""

    def __init__(self, settings: Settings, seed: int):
        self.settings = settings
        self.seed = seed
        # The seed picks every name, and through the names the texts, the mock
        # embeddings and so the ranking. The layout (which entity each mention
        # is, lengths, filler) depends on the workload alone, so that seeds
        # change the content but not the amount of work or of remote traffic.
        self.rng = random.Random(f"newsgeo-world:{settings.name}:{seed}")
        self.layout = random.Random(f"newsgeo-layout:{settings.name}")
        self.entities: dict[str, Entity] = {}
        self.deleted_qids: list[str] = []
        self._next_qid = 3000001
        self._used_names: set[str] = set(w.capitalize() for words in FILLER.values() for w in words)
        self.gazetteer: dict[str, str] = {}
        self.articles: list[dict[str, Any]] = []
        self.gold: list[dict[str, Any]] = []
        self._build_entities()
        self._build_articles()

    # -- names and ids -------------------------------------------------------

    def _qid(self) -> str:
        qid = f"Q{self._next_qid}"
        self._next_qid += 1
        return qid

    def _stem(self) -> str:
        while True:
            parts = [self.rng.choice(SYLLABLES) for _ in range(self.rng.randint(2, 3))]
            stem = ("".join(parts) + self.rng.choice(CODAS)).capitalize()
            if stem not in self._used_names:
                self._used_names.add(stem)
                return stem

    def _add(self, entity: Entity) -> Entity:
        if entity.qid:
            self.entities[entity.qid] = entity
        return entity

    # -- knowledge base ------------------------------------------------------

    def _build_entities(self) -> None:
        s = self.settings
        self.topics = [
            self._add(Entity(qid, "topic", dict(labels), p31=[DISCIPLINE])) for qid, labels in TOPICS
        ]
        for topic in self.topics:
            for language, title in topic.labels.items():
                topic.pages[language] = _record(
                    title, language, {"field": ["Social science"]}, [], f"{title} is a field of study."
                )
        self.countries: list[Entity] = []
        self.cities: dict[str, list[Entity]] = {}  # country qid -> cities, capital first
        self.admin: dict[str, list[Entity]] = {}  # city qid -> mentionable units inside it
        self.persons: dict[str, Entity] = {}  # city qid -> person born there
        self.buildings: dict[str, Entity] = {}  # city qid -> building located there
        for _ in range(s.countries):
            self._build_country()
        self.unlocatable = []
        for index in range(s.unlocatable):
            name = f"{self._stem()} {self._stem()}"
            person = self._add(Entity(self._qid(), "person", {"en": name}, p31=[HUMAN]))
            for language in self._page_languages(index):
                person.pages[language] = _record(
                    name, language, {"occupation": ["Politician"]}, ["Agent", "Person"], f"{name} is a public figure."
                )
            self.unlocatable.append(person)
        self.dangling = [
            Entity(None, "dangling", {"en": f"{self._stem()} Harbor"}) for _ in range(s.dangling)
        ]
        for entity in self.entities.values():
            if entity.kind in ("country", "city", "neighbourhood", "district"):
                for language in s.languages:
                    self.gazetteer[entity.label(language)] = "LOC"
            elif entity.kind == "person":
                self.gazetteer[entity.labels["en"]] = "person"
            elif entity.kind == "building":
                self.gazetteer[entity.labels["en"]] = "misc"
        for entity in self.dangling:
            self.gazetteer[entity.labels["en"]] = "LOC"

    def _build_country(self) -> None:
        s = self.settings
        stem = self._stem()
        qid = self._qid()
        labels = {"en": stem + "ia", "de": stem + "ien", "fr": stem + "ie", "es": stem + "ia", "it": stem + "ia"}
        country = self._add(Entity(qid, "country", labels, p17=[qid], p31=[COUNTRY]))
        country.truth = (None, None, qid, labels["en"])
        self.countries.append(country)
        cities = []
        for position in range(s.cities_per_country):
            name = self._stem() + self.rng.choice(("burg", "ville", "port", "stad", ""))
            labels = {"en": name}
            if position == 0:
                labels["it"] = name + "a"
            kind = TOWN if position == s.cities_per_country - 1 and position > 0 else CITY
            city = self._add(Entity(self._qid(), "city", labels, p17=[qid], p31=[kind]))
            city.truth = (city.qid, name, qid, country.labels["en"])
            for language in LANGUAGES:
                city.pages[language] = _record(
                    city.label(language),
                    language,
                    {"country": [country.label(language)], "populationtotal": ["1000000"]},
                    ["Place", "PopulatedPlace", "Settlement", "City"],
                    f"{city.label(language)} is a city of {country.label(language)}.",
                )
            cities.append(city)
            self.admin[city.qid] = []
        self.cities[qid] = cities
        capital, town = cities[0], cities[-1]
        # Two-hop chain: neighbourhood -> borough -> capital.
        borough = self._add(Entity(self._qid(), "borough", {"en": self._stem() + " Borough"},
                                   p17=[qid], p31=[BOROUGH], p131=[capital.qid]))
        hood = self._add(Entity(self._qid(), "neighbourhood", {"en": self._stem()},
                                p17=[qid], p31=[NEIGHBOURHOOD], p131=[borough.qid]))
        borough.truth = hood.truth = capital.truth
        self.admin[capital.qid].append(hood)
        # Containment cycle: district <-> county; the county also lies in the
        # town, which the walk reaches after skipping the visited district.
        district_qid, county_qid = self._qid(), self._qid()
        district = self._add(Entity(district_qid, "district", {"en": self._stem() + " District"},
                                    p17=[qid], p31=[DISTRICT], p131=[county_qid]))
        county = self._add(Entity(county_qid, "county", {"en": self._stem() + " County"},
                                  p17=[qid], p31=[COUNTY], p131=[district_qid, town.qid]))
        district.truth = county.truth = town.truth
        for language in LANGUAGES:
            district.pages[language] = _record(
                district.label(language), language, {"country": [country.label(language)]},
                ["Place"], f"{district.label(language)} is a district of {country.label(language)}.",
            )
        self.admin[town.qid].append(district)
        for index, city in enumerate(cities):
            anchor = (self.admin[city.qid] or [city])[0]
            name = f"{self._stem()} {self._stem()}"
            person = self._add(Entity(self._qid(), "person", {"en": name}, p31=[HUMAN], anchor=anchor,
                                      truth=anchor.truth))
            for language in self._page_languages(len(self.persons)):
                person.pages[language] = _record(
                    name, language, {"birthplace": [anchor.label(language)], "occupation": ["Politician"]},
                    ["Agent", "Person"], f"{name} is a public figure.",
                )
            self.persons[city.qid] = person
            p131 = [city.qid]
            if len(self.buildings) % 2 == 1:
                # A located-in target deleted upstream: a confirmed absence.
                deleted = self._qid()
                self.deleted_qids.append(deleted)
                p131 = [deleted, city.qid]
            name = f"{self._stem()} {self.rng.choice(('Tower', 'Hall', 'Arena'))}"
            building = self._add(Entity(self._qid(), "building", {"en": name}, p17=[qid], p31=[BUILDING],
                                        p131=p131, anchor=city, truth=city.truth))
            for language in self._page_languages(len(self.buildings)):
                building.pages[language] = _record(
                    name, language, {"location": [city.label(language)], "architect": ["Studio Arch"]},
                    ["ArchitecturalStructure", "Building"], f"{name} is a landmark.",
                )
            self.buildings[city.qid] = building

    def _page_languages(self, index: int) -> list[str]:
        """English always; every other edition but one carries the page, so
        some lookups go through the English fallback after a confirmed absence."""
        skip = LANGUAGES[index % len(LANGUAGES)]
        return [language for language in LANGUAGES if language == "en" or language != skip]

    # -- articles ------------------------------------------------------------

    def _build_articles(self) -> None:
        s = self.settings
        seen_texts: set[str] = set()
        for language in s.languages:
            for index in range(s.docs_per_language):
                while True:
                    article, gold = self._article(language, index)
                    if article["text"] not in seen_texts:
                        break
                seen_texts.add(article["text"])
                self.articles.append(article)
                self.gold.append(gold)

    def _article(self, language: str, index: int) -> tuple[dict[str, Any], dict[str, Any]]:
        """One article about a city: the title and body name it; each further
        location mention is, with probability ``FOCUS``, a unit inside the
        city and otherwise its country or another of its cities; one mention
        is from abroad (or a dangling name). Persons and buildings belong to
        the city with probability ``FOCUS``."""
        s = self.settings
        rng = self.layout
        country = self.countries[(index + LANGUAGES.index(language)) % len(self.countries)]
        cities = self.cities[country.qid]
        main = rng.choice(cities)
        inside = self.admin[main.qid] or [main]
        around = [country, *(c for c in cities if c is not main)]
        foreign: list[Entity] = []
        for other in self.countries:
            if other is not country:
                foreign += [other, *self.cities[other.qid]]
        mentions: list[Entity] = [main]
        for _ in range(s.location_mentions - 2):
            mentions.append(rng.choice(inside if rng.random() < FOCUS else around))
        if self.dangling and rng.random() < 0.15:
            mentions.append(rng.choice(self.dangling))
        else:
            mentions.append(rng.choice(foreign))
        for slot in range(s.nonlocation_mentions):
            own = self.persons if slot % 2 == 0 else self.buildings
            if rng.random() < FOCUS:
                mentions.append(own[main.qid])
            else:
                mentions.append(rng.choice([*own.values(), *(self.unlocatable if slot % 2 == 0 else [])]))
        rng.shuffle(mentions)

        title = HEADLINE[language].format(main.label(language))
        target_words = rng.randint(*s.words) - len(title.split())
        filler = FILLER[language]
        words_per_mention = max(target_words // max(len(mentions), 1), 3)
        parts: list[tuple[str, Entity | None]] = []
        written = 0
        pending = list(mentions)
        sentence_words = 0
        while written < target_words or pending:
            if pending and sentence_words >= rng.randint(2, max(words_per_mention - 1, 2)):
                entity = pending.pop()
                parts.append((entity.label(language), entity))
            else:
                parts.append((rng.choice(filler), None))
            written += 1
            sentence_words += 1
            if sentence_words >= rng.randint(8, 22):
                parts.append((".", None))
                sentence_words = 0
        if not parts or parts[-1][0] != ".":
            parts.append((".", None))

        text = title + "\n"
        offsets: list[dict[str, Any]] = []
        main_label = main.label(language)
        start = title.index(main_label)
        offsets.append(dict(surface=main_label, start=start, end=start + len(main_label), qid=main.qid))
        sentence_start = True
        for word, entity in parts:
            if word == ".":
                text = text.rstrip(" ") + ". "
                sentence_start = True
                continue
            if entity is None and sentence_start:
                word = word.capitalize()
            start = len(text)
            text += word + " "
            if entity is not None:
                offsets.append(dict(surface=word, start=start, end=start + len(word), qid=entity.qid))
            sentence_start = False
        text = text.rstrip(" ")
        topic = rng.choice(self.topics)
        category = main.label(language)
        article_id = f"{language}-{index:05d}"
        article = dict(
            id=article_id,
            lang=language,
            title=title,
            text=text,
            categories=[category, topic.label(language)],
            mentions=offsets,
            url=f"https://news.example/{article_id}",
        )
        city_qid, city, country_qid, country_label = main.truth
        gold = dict(
            article_id=article_id,
            locations=[dict(city=city, city_qid=city_qid, country=country_label, country_qid=country_qid)],
        )
        return article, gold

    # -- ground truth --------------------------------------------------------

    def truth_by_text(self) -> dict[tuple[str, str], tuple | None]:
        """(language, candidate text) -> world location, for every text the
        ranker can produce: location surfaces and rendered located entities."""
        table: dict[tuple[str, str], tuple | None] = {}
        for entity in self.entities.values():
            if entity.kind in ("country", "city", "neighbourhood", "district"):
                for language in self.settings.languages:
                    table[(language, entity.label(language))] = entity.truth
        for entity in self.dangling:
            for language in self.settings.languages:
                table[(language, entity.label(language))] = None
        for entity in [*self.persons.values(), *self.buildings.values()]:
            for language in self.settings.languages:
                page_language = language if language in entity.pages else "en"
                anchor = entity.anchor.label(page_language)
                table[(language, render(anchor, entity.truth))] = entity.truth
        return table

    # -- knowledge-base views ------------------------------------------------

    def page_entities(self) -> dict[tuple[str, str], Entity]:
        """(language, title) -> entity whose page carries that title there."""
        pages = {}
        for entity in self.entities.values():
            for language in LANGUAGES:
                pages[(language, entity.label(language))] = entity
        return pages

    def search_index(self, language: str) -> dict[str, Entity]:
        """Surface -> entity for the language's search endpoint: each entity is
        found under its own label and under its English label."""
        index: dict[str, Entity] = {}
        for entity in self.entities.values():
            index.setdefault(entity.label(language), entity)
            index.setdefault(entity.labels["en"], entity)
        return index

    def cache_records(self) -> list[tuple[str, str, Any]]:
        """Every (source, key, value) a warm cache holds for this world."""
        records: list[tuple[str, str, Any]] = []
        for qid in sorted(self.entities):
            records.append(("wikidata", qid, self.entities[qid].item_json()))
        for qid in self.deleted_qids:
            records.append(("wikidata", qid, MISSING))
        for language in LANGUAGES:
            for surface, entity in sorted(self.search_index(language).items()):
                records.append((
                    "wplink",
                    f"{language}:{surface}",
                    dict(surface=surface, language=language, page_title=entity.label(language),
                         qid=entity.qid, rank_in_results=0),
                ))
            for entity in self.dangling:
                surface = entity.label(language)
                records.append((
                    "wplink",
                    f"{language}:{surface}",
                    dict(surface=surface, language=language, page_title=None, qid=None, rank_in_results=-1),
                ))
            for (page_language, title), entity in sorted(self.page_entities().items()):
                if page_language != language or not entity.pages:
                    continue
                record = entity.pages.get(language)
                records.append(("dbpedia", f"{language}:{title}", record if record else MISSING))
        return records

    # -- output --------------------------------------------------------------

    def write(self, root: Path, network: str = "cache-only", workers: int = 1) -> Path:
        """Lay the world out under `root`; returns the config path."""
        root.mkdir(parents=True, exist_ok=True)
        corpus = {}
        for language in self.settings.languages:
            path = root / f"articles_{language}.jsonl"
            with path.open("w", encoding="utf-8") as handle:
                for article in self.articles:
                    if article["lang"] == language:
                        handle.write(json.dumps(article, ensure_ascii=False) + "\n")
            corpus[language] = path.name
        _write_jsonl(root / "gold.jsonl", self.gold)
        (root / "gazetteer.json").write_text(
            json.dumps(self.gazetteer, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        self.write_cache(root / "kb_cache.jsonl")
        minimal = dict(
            id="setup-00001", lang="en", title="Quiet day",
            text="Quiet day\nnothing of note was reported today.", categories=[], mentions=[], url=None,
        )
        _write_jsonl(root / "setup_articles.jsonl", [minimal])
        _write_jsonl(root / "setup_gold.jsonl", [self.gold[0] | {"article_id": minimal["id"]}])
        config = dict(
            cache="kb_cache.jsonl",
            chunking_mode="average_subdivisions",
            corpus=corpus,
            embedder="mock:384",
            gold="gold.jsonl",
            loss=dict(batch_size=64, early_stop_patience=3, epochs=4, loss="contrastive",
                      seed=13, validation_fraction=0.2),
            max_depth=10,
            ner_providers=["gazetteer:gazetteer.json"],
            network=network,
            representation_modes=["only_locations", "located_non_locations"],
            seed=13,
            workers=workers,
        )
        path = root / "config.json"
        path.write_text(json.dumps(config, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return path

    def write_cache(self, path: Path) -> None:
        rng = random.Random(f"newsgeo-backlog:{self.seed}")
        with path.open("w", encoding="utf-8") as handle:
            for source, key, value in self.cache_records():
                handle.write(json.dumps({"source": source, "key": key, "value": value}, ensure_ascii=False) + "\n")
            # Unrelated history: entities, pages and links of other worlds,
            # some superseded by a later line (last write wins).
            for index in range(self.settings.backlog):
                qid = f"Q{7000000 + index % (self.settings.backlog * 9 // 10 or 1)}"
                name = "".join(rng.choice(SYLLABLES) for _ in range(3)).capitalize()
                kind = index % 3
                if kind == 0:
                    line = {"source": "wikidata", "key": qid, "value": {
                        "qid": qid, "labels": {"en": name}, "p17": [], "p31": [list(HUMAN)], "p131": []}}
                elif kind == 1:
                    line = {"source": "dbpedia", "key": f"en:{name} {index}", "value": _record(
                        f"{name} {index}", "en", {"occupation": ["Writer"]}, ["Agent"], None)}
                else:
                    line = {"source": "wplink", "key": f"en:{name} {index}", "value": dict(
                        surface=f"{name} {index}", language="en", page_title=None, qid=None, rank_in_results=-1)}
                handle.write(json.dumps(line, ensure_ascii=False) + "\n")


def render(anchor: str | None, truth: tuple) -> str:
    """The text a located entity is ranked under: "anchor, city, country",
    with case-insensitive repeats dropped."""
    _, city, _, country = truth
    parts: list[str] = []
    for part in (anchor, city, country):
        if part and part.casefold() not in {p.casefold() for p in parts}:
            parts.append(part)
    return ", ".join(parts)


def _record(title: str, language: str, properties: dict[str, list[str]], types: list[str],
            abstract: str | None) -> dict[str, Any]:
    return dict(title=title, language=language, properties=properties, ontology_types=types, abstract=abstract)


def _write_jsonl(path: Path, rows: list[dict[str, Any]]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
