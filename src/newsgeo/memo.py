"""A memo that computes each key once, also when worker threads share it,
and the map that runs a command's articles on those threads.

A command's `Resolver` and `Pipeline` each own one, and the KB clients use
one to fetch each missing key once. Once per key keeps a run's work, and so
its counters, the same at any worker count.

`workers` is the most articles in flight while some wait on the KB: the map
starts a thread only when an article is about to wait on the network, so a
run that the KB cache answers stays on one thread. No article starts after
one has failed. Each thread of a map knows the corpus index of the article it
runs (`article_index`), so that a KB rate limiter can give its next request
slot to the earliest article waiting for one.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence, TypeVar

if TYPE_CHECKING:
    from .corpus import Article

T = TypeVar("T")

_ABSENT = object()


class Memo:
    """Values by key, each computed once for the life of the memo.

    A thread that asks for a key another thread is computing waits for that
    computation and takes its value. A computation that raises stores
    nothing: a waiting thread, or a later call, computes the key afresh. A
    computation may ask the memo for other keys, as long as no chain of such
    requests leads back to a key being computed.
    """

    def __init__(self) -> None:
        self._values: dict[Hashable, Any] = {}
        self._computing: dict[Hashable, threading.Event] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value of `key`, from `compute()` on the first call."""
        # A stored value never changes or goes away, so it is read without
        # the lock; one dictionary read is atomic.
        value = self._values.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        while True:
            with self._lock:
                if key in self._values:
                    return self._values[key]
                other = self._computing.get(key)
                if other is None:
                    mine = self._computing[key] = threading.Event()
                    break
            other.wait()
        try:
            value = compute()
            with self._lock:
                self._values[key] = value
            return value
        finally:
            with self._lock:
                del self._computing[key]
            mine.set()


# The map whose article the current thread runs, for `waiting`, and that
# article's index, for `article_index`.
_current = threading.local()


def waiting() -> None:
    """Say that this thread is about to wait on the network. If it runs an
    article of `map_articles`, one more thread starts on the map's later
    articles, up to the map's `workers`; otherwise nothing happens."""
    articles = getattr(_current, "map", None)
    if articles is not None:
        articles.add_thread()


def article_index() -> int | None:
    """The corpus index of the article this thread runs in `map_articles`, or
    None on a thread that runs none."""
    return getattr(_current, "index", None)


class _ArticleMap:
    """The articles of one `map_articles` call. Each of its threads takes the
    next article from one counter until none is left or one has failed."""

    def __init__(self, run: Callable[[Article], Any], articles: Sequence[Article], workers: int):
        self._run, self._articles, self._workers = run, articles, workers
        self._lock = threading.Lock()
        self._next = 0
        self.threads: list[threading.Thread] = []
        self.results: list[Any] = [None] * len(articles)
        self.errors: dict[int, BaseException] = {}

    def _open(self) -> bool:
        """Whether an article may still start; asked under the lock."""
        return not self.errors and self._next < len(self._articles)

    def work(self) -> None:
        """Run articles until none is left or one has failed."""
        outer = getattr(_current, "map", None), article_index()
        _current.map = self
        try:
            while True:
                with self._lock:
                    if not self._open():
                        return
                    index, self._next = self._next, self._next + 1
                _current.index = index
                try:
                    self.results[index] = self._run(self._articles[index])
                except BaseException as exc:
                    with self._lock:
                        self.errors[index] = exc
        finally:
            _current.map, _current.index = outer

    def add_thread(self) -> None:
        """Start one more thread on `work`, unless `workers` already run."""
        with self._lock:
            if self._open() and len(self.threads) + 1 < self._workers:
                # Started before it is listed, so no join finds it unstarted.
                thread = threading.Thread(target=self.work)
                thread.start()
                self.threads.append(thread)


def map_articles(
    fn: Callable[[Article], T], articles: Sequence[Article], workers: int = 1
) -> list[T]:
    """`fn` of every article, in corpus order.

    The articles run in corpus order on the calling thread. Each time an
    article is about to wait on the network (`waiting`), one more thread
    starts on the later articles, up to `workers` threads in all, so a run
    that the KB cache answers stays on one thread. While a thread runs an
    article, `article_index` gives that article's index. No article starts
    after one has failed. The exception of the earliest failed article in
    corpus order is raised, unchanged except that a `ValueError` other than
    a KB failure is raised again with the article's id in its message, so
    every command names the article that failed.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")

    def run(article: Article) -> T:
        try:
            return fn(article)
        except ValueError as exc:
            # Imported here: this module loads no KB layer.
            from .kb import KbError

            if isinstance(exc, KbError):
                raise
            raise ValueError(f"article {article.id}: {exc}") from exc

    mapped = _ArticleMap(run, articles, workers)
    mapped.work()
    # The list grows only while one of its threads, not yet joined, runs.
    for thread in mapped.threads:
        thread.join()
    if mapped.errors:
        raise mapped.errors[min(mapped.errors)]
    return mapped.results
