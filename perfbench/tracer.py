"""In-process span tracer for the newsgeo command line.

``install`` wraps the public functions and methods at the names the command
line looks them up under (``newsgeo.cli.ensemble_spans``,
``newsgeo.evaluation.predict_location``, ``KbCache.put`` and so on). Each
call records a span: name, start, end, parent span, article id and thread.
Spans stay in memory and are written out once, when the command finishes.
A boundary that no longer exists (a later refactor renamed or removed it) is
reported in ``missing`` instead of raising.

``self_times`` turns dumped spans into per-layer self times: a span's self
time is its duration minus the durations of its child spans (children run
on the span's own thread, nested inside it, so they never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

LOSS_FUNCTIONS = {
    "cosine_mse": "loss_cosine_grad",
    "contrastive": "loss_contrastive_grad",
    "triplet": "loss_triplet_grad",
    "infonce": "loss_infonce_grad",
}
KB_LOOKUPS = ("kb.wikidata", "kb.dbpedia", "kb.wplink")


class Tracer:
    def __init__(self, article_texts: dict[str, str] | None = None):
        self.article_texts = article_texts or {}  # text -> article id
        self.spans: list[list[Any]] = []
        self.counters: Counter[str] = Counter()
        self.unique: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_article(self, article_id: str | None) -> None:
        self._local.article = article_id

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def note(self, name: str, value: Any) -> None:
        with self._lock:
            self.unique[name].add(value)

    def span(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Wrap `fn` so each call records a span; `observe(args, result, error)`
        runs after the call, inside the span's parent context."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      getattr(tracer._local, "article", None), threading.get_ident(), None]
            tracer.spans.append(record)
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = time.perf_counter()
                record[6] = type(exc).__name__
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            record[2] = time.perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` by make(original)."""
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every layer boundary of the command line."""
        s, c = self.span, self.counted

        def ner(args, result, error):
            text = args[0]
            if error is None:
                self.count("ner.calls")
                self.count("ner.spans", len(result))
                self.count("ner.bytes", len(text.encode("utf-8")))

        for module in ("newsgeo.cli", "newsgeo.evaluation"):
            self.patch(f"{module}:ensemble_spans", lambda f: self._per_article(s("ner.ensemble", f, ner)))
            self.patch(f"{module}:build_candidate_pool", lambda f: s("ranking.pool", f))
            self.patch(f"{module}:rank_candidates", lambda f: s("ranking.rank", f))
        self.patch("newsgeo.ner:GazetteerNer.spans", lambda f: s("ner.gazetteer", f))
        self.patch("newsgeo.evaluation:predict_location", lambda f: s("ranking.predict", f))
        self.patch("newsgeo.evaluation:precision_at_1", lambda f: s("evaluation.score", f))
        self.patch("newsgeo.cli:ranked_predictor", self._wrap_predictor_factory)
        self.patch("newsgeo.cli:load_corpus", lambda f: s("corpus.load", f))
        self.patch("newsgeo.cli:generate_pairs", lambda f: s("training.pairs", f))
        self.patch("newsgeo.cli:train", lambda f: s("training.train", f))

        def fallthrough(args, result, error):
            if error is None and result is None:
                self.count("ranking.fallthroughs")

        self.patch("newsgeo.ranking:resolve_location_span", lambda f: s("ranking.resolve_span", f, fallthrough))
        self.patch("newsgeo.ranking:embed_document", lambda f: s("embedding.embed_document", f))

        def chunks(args, result, error):
            if error is None and args[0] in self.article_texts:
                self.count("embedding.doc_chunk_calls")
                self.count("embedding.doc_chunks", len(result))

        self.patch("newsgeo.embedding:chunk_document", lambda f: s("embedding.chunk", f, chunks))

        def embedded(args, result, error):
            self.count("embedding.embed_calls")
            self.count("embedding.texts")
            self.note("embedding.texts", args[1])

        self.patch("newsgeo.embedding:MockEmbedder.embed", lambda f: s("embedding.embed", f, embedded))
        self.patch("newsgeo.embedding:MockEmbedder.token_count",
                   lambda f: c("embedding.token_count_calls", f))

        def feature(args, result, error):
            self.count("training.feature_embeds")

        self.patch("newsgeo.training:embed_document", lambda f: s("training.feature_embed", f, feature))
        for loss, function in LOSS_FUNCTIONS.items():
            def grad(args, result, error, loss=loss):
                self.count(f"training.loss_grad_calls.{loss}")

            self.patch(f"newsgeo.training:{function}",
                       lambda f, loss=loss, grad=grad: s(f"training.loss_grad.{loss}", f, grad))

        def cache_loaded(args, result, error):
            if error is None:
                self.count("kb.cache_loads")
                self.count("kb.cache_entries", len(args[0]))

        self.patch("newsgeo.kb:KbCache.__init__", lambda f: s("kb.cache_load", f, cache_loaded))
        self.patch("newsgeo.kb:KbCache.get", lambda f: c("kb.cache_gets", f))
        self.patch("newsgeo.kb:KbCache.put",
                   lambda f: s("kb.cache_put", f, lambda a, r, e: self.count("kb.cache_puts")))

        def lookup(source: str, key: Callable[[tuple], tuple]):
            def observe(args, result, error):
                self.count(f"kb.lookups.{source}")
                self.note("kb.keys", (source, *key(args)))
                if error is not None and type(error).__name__ == "KbRemoteError" and not any(
                    record[0] in KB_LOOKUPS for record in self._stack()
                ):
                    self.count("kb.remote_failed")
            return observe

        self.patch("newsgeo.kb:WikidataClient.fetch",
                   lambda f: s("kb.wikidata", f, lookup("wikidata", lambda a: (a[1],))))
        self.patch("newsgeo.kb:WikidataClient.label",
                   lambda f: s("kb.wikidata", f, lookup("wikidata", lambda a: ("label", a[1]))))
        self.patch("newsgeo.kb:DbpediaClient.fetch",
                   lambda f: s("kb.dbpedia", f, lookup("dbpedia", lambda a: (a[2], a[1]))))
        self.patch("newsgeo.linking:WikipediaLinker.link",
                   lambda f: s("kb.wplink", f, lookup("wplink", lambda a: (a[2], a[1]))))
        self.patch("newsgeo.kb:RateLimiter.wait", lambda f: s("kb.rate_limit_wait", f))

        def transported(args, result, error):
            self.count("kb.remote_fetches")
            if error is not None and not isinstance(error, LookupError):
                self.count("kb.remote_retries")

        self.patch("newsgeo.kb:default_transport", lambda f: s("kb.transport", f, transported))

        def located(args, result, error):
            self.count("locations.implicit_locate.calls")
            if error is None and result is not None:
                self.count("locations.implicit_locate.located")

        self.patch("newsgeo.locations:Resolver.implicit_locate",
                   lambda f: s("locations.implicit_locate", f, located))
        self.patch("newsgeo.locations:Resolver.locate_qid",
                   lambda f: s("locations.locate_qid", f,
                               lambda a, r, e: self.count("locations.locate_qid.calls")))

    def _per_article(self, traced: Callable) -> Callable:
        """Attribute the spans that follow to the article whose text this is
        (``rank`` recognizes each article first; its loop is not wrappable)."""

        @functools.wraps(traced)
        def wrapper(text, *args, **kwargs):
            article = self.article_texts.get(text)
            if article is not None:
                self.set_article(article)
            return traced(text, *args, **kwargs)

        return wrapper

    def _wrap_predictor_factory(self, factory: Callable) -> Callable:
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            predict = tracer.span("evaluation.predict", factory(*args, **kwargs))

            def traced_predict(article):
                tracer.set_article(article.id)
                try:
                    return predict(article)
                finally:
                    tracer.set_article(None)

            return traced_predict

        return make

    # -- output --------------------------------------------------------------

    def dump(self, path: Path, wall_s: float) -> None:
        ids = {id(record): index for index, record in enumerate(self.spans)}
        spans = [
            [name, start, end, None if parent is None else ids[id(parent)], article, thread, error]
            for name, start, end, parent, article, thread, error in self.spans
        ]
        payload = dict(
            wall_s=wall_s,
            spans=spans,
            counters=dict(self.counters),
            unique={name: len(values) for name, values in self.unique.items()},
            missing=self.missing,
        )
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans: list[list[Any]]) -> tuple[dict[str, float], float]:
    """Per-name self time and the union length of root spans' intervals."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, *_rest) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    roots = sorted((start, end) for _, start, end, parent, *_ in spans if parent is None)
    covered = 0.0
    cursor = float("-inf")
    for start, end in roots:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return dict(totals), covered


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
