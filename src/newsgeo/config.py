"""Pipeline configuration: JSON file, defaults, and component registries.

A configuration names its inputs (per-language corpus files, gold file, KB
cache) and its components by id strings: embedders as ``kind:argument``
(``mock:16``, ``sentence-transformers:paraphrase-multilingual-mpnet-base-v2``)
and NER providers likewise (``gazetteer:path/to/entries.json``,
``spacy:en_core_web_sm``). Relative paths are resolved against the config
file's directory; the cache directory can also come from the
``NEWSGEO_CACHE_DIR`` environment variable. Precedence is flags > config file
> defaults.

This module also holds the training settings (:class:`LossConfig`) and the
names a configuration chooses from: network policies, chunking modes,
representation modes and training losses. The KB clients take a policy, and
the embedding, ranking and training functions a chunking mode, by its name,
the string in ``network`` or ``chunking_mode``. It imports no other layer:
each ``build_*`` method loads the modules of what it builds when it runs, so
a command loads the KB clients, the resolver, NER or the encoder only if it
uses them.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from .corpus import SUPPORTED_LANGUAGES

if TYPE_CHECKING:
    from .embedding import EmbeddingProvider
    from .evaluation import Pipeline
    from .kb import KbCache
    from .locations import Resolver
    from .ner import NerProvider

CACHE_DIR_ENV = "NEWSGEO_CACHE_DIR"

# Network policies: fetch what the cache misses and record it, or never fetch.
ONLINE = "online-then-cache"
CACHE_ONLY = "cache-only"

# "online" is accepted as shorthand for the full policy name.
_NETWORK_ALIASES = {"online": ONLINE, ONLINE: ONLINE, CACHE_ONLY: CACHE_ONLY}

# Chunking modes: embed the prefix that fits, or average over chunks.
TRUNCATE = "truncate"
AVERAGE = "average_subdivisions"

# Representation modes: how a candidate entity is rendered to text.
ONLY_LOCATIONS = "only_locations"
NON_LOCATIONS = "non_locations"
LOCATED_NON_LOCATIONS = "located_non_locations"
NON_LOCATION_IN_LOCATION = "non_location_in_location"
LOCATION_ABSTRACTS = "location_abstracts"
NON_LOCATION_ABSTRACTS = "non_location_abstracts"

REPRESENTATION_MODES = (
    ONLY_LOCATIONS,
    NON_LOCATIONS,
    LOCATED_NON_LOCATIONS,
    NON_LOCATION_IN_LOCATION,
    LOCATION_ABSTRACTS,
    NON_LOCATION_ABSTRACTS,
)

# Training objectives.
COSINE_MSE = "cosine_mse"
CONTRASTIVE = "contrastive"
TRIPLET = "triplet"
INFONCE = "infonce"
LOSSES = (COSINE_MSE, CONTRASTIVE, TRIPLET, INFONCE)


class ConfigError(ValueError):
    """Configuration rejected; carries one message per offending field."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


class LossConfig(NamedTuple):
    """Objective and loop settings.

    ``margin`` falls back to a per-loss default (0.5 contrastive, 1.0
    triplet). The annotations are the JSON types a config file may give.
    """

    loss: str = CONTRASTIVE
    margin: float | None = None
    batch_size: int = 128
    epochs: int = 32
    early_stop_patience: int = 3
    learning_rate: float = 0.05
    validation_fraction: float = 0.2
    seed: int = 13

    def validate(self) -> None:
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r} (choose from {LOSSES})")
        if self.margin is not None and not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError(f"margin must be finite and >= 0, got {self.margin}")
        minimum = 2 if self.loss == INFONCE else 1
        if self.batch_size < minimum:
            raise ValueError(f"batch_size must be >= {minimum} for {self.loss}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")

    @property
    def resolved_margin(self) -> float:
        if self.margin is not None:
            return self.margin
        return {CONTRASTIVE: 0.5, TRIPLET: 1.0}.get(self.loss, 0.0)


class PipelineConfig(NamedTuple):
    """A run's settings; the annotations are the JSON types a config file
    may give.

    A configuration is a value: flags override a file's settings by building
    a new one with ``_replace``. Every default is built once and shared by
    all configurations, so no code changes a configuration's dict or list in
    place.
    """

    corpus: dict[str, str] = {}
    gold: str | None = None
    cache: str | None = None
    ner_providers: list[str] = []
    embedder: str = "mock:16"
    chunking_mode: str = AVERAGE
    representation_modes: list[str] = [ONLY_LOCATIONS, LOCATED_NON_LOCATIONS]
    network: str = CACHE_ONLY
    seed: int = 13
    workers: int = 1
    max_depth: int = 10
    loss: LossConfig = LossConfig()

    def validate(self) -> None:
        """Raise a :class:`ConfigError` with one message per unusable field."""
        found: list[str] = []
        for language, path in self.corpus.items():
            if language not in SUPPORTED_LANGUAGES:
                found.append(f"corpus[{language}]: language not one of {list(SUPPORTED_LANGUAGES)}")
            elif not Path(path).exists():
                found.append(f"corpus[{language}]: no such file {path!r}")
        if self.gold is not None and not Path(self.gold).exists():
            found.append(f"gold: no such file {self.gold!r}")
        if self.network not in _NETWORK_ALIASES:
            found.append(
                f"network: {self.network!r} is not one of "
                f"{sorted(set(_NETWORK_ALIASES))}"
            )
        if self.chunking_mode not in (TRUNCATE, AVERAGE):
            found.append(f"chunking_mode: unknown mode {self.chunking_mode!r}")
        for mode in self.representation_modes:
            if mode not in REPRESENTATION_MODES:
                found.append(f"representation_modes: unknown mode {mode!r}")
        if not self.representation_modes:
            found.append("representation_modes: at least one mode required")
        if self.workers < 1:
            found.append("workers: must be >= 1")
        if self.max_depth < 1:
            found.append("max_depth: must be >= 1")
        kind, _, argument = self.embedder.partition(":")
        if kind not in ("mock", "sentence-transformers"):
            found.append(f"embedder: unknown provider kind {kind!r}")
        elif kind == "mock" and argument and not (argument.isdecimal() and int(argument) >= 2):
            found.append(f"embedder: mock dimension must be an integer >= 2, got {argument!r}")
        for spec in self.ner_providers:
            kind, _, argument = spec.partition(":")
            if kind not in ("gazetteer", "spacy"):
                found.append(f"ner_providers: unknown provider kind {spec!r}")
            elif kind == "gazetteer" and not Path(argument).is_file():
                found.append(f"ner_providers: no such gazetteer file {argument!r}")
        try:
            self.loss.validate()
        except ValueError as exc:
            found.append(f"loss: {exc}")
        if found:
            raise ConfigError(found)

    def cache_path(self) -> Path:
        path = self.cache or os.environ.get(CACHE_DIR_ENV) or "kb_cache"
        return Path(path)

    def build_cache(self) -> KbCache:
        """The KB cache; a FileNotFoundError if a cache-only run has no file,
        which every lookup would miss. An online run creates the file."""
        from .kb import KbCache

        cache = KbCache(self.cache_path())
        if self.network == CACHE_ONLY and not cache.path.exists():
            raise FileNotFoundError(f"no KB cache file {str(cache.path)!r}")
        return cache

    def build_resolver(self, cache: KbCache | None = None) -> Resolver:
        from .kb import DbpediaClient, WikidataClient
        from .linking import WikipediaLinker
        from .locations import Resolver

        cache = cache or self.build_cache()
        policy = _NETWORK_ALIASES.get(self.network, self.network)
        return Resolver(
            wikidata=WikidataClient(cache, policy=policy),
            dbpedia=DbpediaClient(cache, policy=policy),
            linker=WikipediaLinker(cache, policy=policy),
            max_depth=self.max_depth,
        )

    def build_embedder(self) -> EmbeddingProvider:
        from .embedding import MockEmbedder, SentenceTransformerProvider

        kind, _, argument = self.embedder.partition(":")
        if kind == "mock":
            dimension = int(argument) if argument else 16
            return MockEmbedder(dimension=dimension, seed=self.seed)
        try:
            return SentenceTransformerProvider(argument or "paraphrase-multilingual-mpnet-base-v2")
        except ImportError as exc:
            raise ConfigError([f"embedder: {exc}"]) from exc

    def build_pipeline(self) -> Pipeline:
        """The ranked system over this configuration's components."""
        from .evaluation import Pipeline

        return Pipeline(
            resolver=self.build_resolver(),
            providers=self.build_ner_providers(),
            embedder=self.build_embedder(),
            modes=tuple(self.representation_modes),
            chunking=self.chunking_mode,
        )

    def build_ner_providers(self) -> list[NerProvider]:
        from .ner import GazetteerNer, SpacyNer

        providers: list[NerProvider] = []
        for spec in self.ner_providers:
            kind, _, argument = spec.partition(":")
            if kind == "gazetteer":
                providers.append(GazetteerNer(_gazetteer_entries(argument)))
            else:
                try:
                    providers.append(SpacyNer(argument or "en_core_web_sm"))
                except ImportError as exc:
                    raise ConfigError([f"ner_providers: {exc}"]) from exc
        return providers

    @staticmethod
    def from_json(d: Any) -> "PipelineConfig":
        """The config a parsed JSON file describes; a field that is unknown
        or of the wrong JSON type is a :class:`ConfigError`."""
        if type(d) is not dict:
            raise ConfigError([f"config: expected a JSON object, got {json.dumps(d)}"])
        loss = d.get("loss", {})
        found = _field_problems(PipelineConfig, d, "")
        if type(loss) is dict:
            found += _field_problems(LossConfig, loss, "loss.")
        if found:
            raise ConfigError(found)
        return PipelineConfig(**{**d, "loss": LossConfig(**loss)})


def _gazetteer_entries(path: str) -> dict[str, str]:
    """The name -> label entries of a gazetteer file; a :class:`ConfigError`
    unless it is a JSON object that maps non-empty strings to strings."""
    problem = f"ner_providers: gazetteer file {path!r}"
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError([f"{problem} is not valid JSON ({exc})"])
    if type(entries) is not dict or not all(
        name and type(label) is str for name, label in entries.items()
    ):
        raise ConfigError([f"{problem} must map non-empty strings to strings"])
    return entries


def _strings(values: Any) -> bool:
    return all(type(value) is str for value in values)


# What JSON value each field annotation takes, and its check; `json.loads`
# gives exact types, so a bool is never an int here.
_JSON_TYPES = {
    "str": ("a string", lambda v: type(v) is str),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "list[str]": ("a list of strings", lambda v: type(v) is list and _strings(v)),
    "dict[str, str]": ("an object of strings", lambda v: type(v) is dict and _strings(v.values())),
    "LossConfig": ("an object", lambda v: type(v) is dict),
}


def _field_problems(cls: type, values: dict[str, Any], prefix: str) -> list[str]:
    """A message for each key of `values` that is not an annotated field of
    `cls`, or whose value is not of the field's JSON type."""
    found = []
    for name, value in sorted(values.items()):
        if name not in cls.__annotations__:
            found.append(f"{prefix}{name}: unknown configuration field")
            continue
        # A NamedTuple keeps each postponed annotation as a ForwardRef.
        annotation = cls.__annotations__[name].__forward_arg__
        if annotation.endswith(" | None"):
            if value is None:
                continue
            annotation = annotation.removesuffix(" | None")
        description, accepts = _JSON_TYPES[annotation]
        if not accepts(value):
            found.append(f"{prefix}{name}: expected {description}, got {json.dumps(value)}")
    return found


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config file, resolving relative paths against its parent."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"config: no such file {str(path)!r}"])
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError([f"config: invalid JSON ({exc})"])
    config = PipelineConfig.from_json(raw)
    base = path.parent
    return config._replace(
        corpus={
            language: str(_resolve(base, corpus_path))
            for language, corpus_path in config.corpus.items()
        },
        gold=str(_resolve(base, config.gold)) if config.gold else config.gold,
        cache=str(_resolve(base, config.cache)) if config.cache else config.cache,
        ner_providers=[_resolve_provider_spec(base, spec) for spec in config.ner_providers],
    )


def _resolve(base: Path, path: str) -> Path:
    candidate = Path(path)
    return candidate if candidate.is_absolute() else base / candidate


def _resolve_provider_spec(base: Path, spec: str) -> str:
    kind, _, argument = spec.partition(":")
    if kind == "gazetteer" and argument:
        return f"{kind}:{_resolve(base, argument)}"
    return spec
