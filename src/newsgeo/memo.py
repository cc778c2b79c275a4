"""A memo that computes each key once, also when worker threads share it,
and the maps that run a command's articles, and the items of one article,
on those threads.

A command's `Resolver` and `Pipeline` each own one, and the KB clients use
one to fetch each missing key once. Once per key keeps a run's work, and so
its counters, the same at any worker count.

`workers` is the most articles in flight while some wait on the KB: the map
starts a thread only when an article is about to wait on the network, so a
run that the KB cache answers stays on one thread. Within an article,
`map_in_article` runs independent items (the spans of the candidate pool)
the same way: once one waits on the network, the later ones go out beside
it, at most `workers` per article. So threads can reach `workers` squared,
16 at `workers` 4, while articles in flight stay at most `workers`. No
article or item starts after one has failed. Each thread of a map knows the
corpus index of the article it runs or works for (`article_index`), so that
a KB rate limiter can give its next request slot to the earliest article
waiting for one, and an article's requests keep the article's place.
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


# The map whose item the current thread runs, for `waiting`, and the index of
# the article that item is or belongs to, for `article_index`.
_current = threading.local()


def waiting() -> None:
    """Say that this thread is about to wait on the network. If it runs an
    item of a map, one more thread starts on that map's later items, up to
    its `workers`, and the same goes for the map of articles an item of
    `map_in_article` belongs to; outside a map nothing happens."""
    mapped = getattr(_current, "map", None)
    while mapped is not None:
        mapped.add_thread()
        mapped = mapped.outer


def article_index() -> int | None:
    """The corpus index of the article this thread runs in `map_articles`, or
    None on a thread that runs none."""
    return getattr(_current, "index", None)


class _LazyMap:
    """The items of one `map_articles` or `map_in_article` call. Each of its
    threads takes the next item from one counter until none is left or one
    has failed. `article` is None in a map of articles, where each item is
    the article of its own index, and otherwise the index of the article
    whose items these are; `outer` is that article's map."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        workers: int,
        article: int | None = None,
        outer: _LazyMap | None = None,
    ):
        self._fn, self._items, self.workers = fn, items, workers
        self._article, self.outer = article, outer
        self._lock = threading.Lock()
        self._next = 0
        self._threads: list[threading.Thread] = []
        self._results: list[Any] = [None] * len(items)
        self._errors: dict[int, BaseException] = {}

    def _open(self) -> bool:
        """Whether an item may still start; asked under the lock."""
        return not self._errors and self._next < len(self._items)

    def _work(self) -> None:
        """Run items until none is left or one has failed."""
        saved = getattr(_current, "map", None), article_index()
        _current.map = self
        try:
            while True:
                with self._lock:
                    if not self._open():
                        return
                    index, self._next = self._next, self._next + 1
                _current.index = index if self._article is None else self._article
                try:
                    self._results[index] = self._fn(self._items[index])
                except BaseException as exc:
                    with self._lock:
                        self._errors[index] = exc
        finally:
            _current.map, _current.index = saved

    def add_thread(self) -> None:
        """Start one more thread on the items, unless `workers` already run."""
        with self._lock:
            if self._open() and len(self._threads) + 1 < self.workers:
                # Started before it is listed, so no join finds it unstarted.
                thread = threading.Thread(target=self._work)
                thread.start()
                self._threads.append(thread)

    def run(self) -> list[Any]:
        """Run the items from the calling thread on and return their results
        in order, or raise the exception of the earliest failed item."""
        self._work()
        # The list grows only while one of its threads, not yet joined, runs,
        # or an item of an article one of them runs.
        for thread in self._threads:
            thread.join()
        if self._errors:
            raise self._errors[min(self._errors)]
        return self._results


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

    return _LazyMap(run, articles, workers).run()


def map_in_article(fn: Callable[[Any], T], items: Sequence[Any]) -> list[T]:
    """`fn` of every item of the article this thread runs, in item order.

    The items run in order on the calling thread. Each time an item is about
    to wait on the network (`waiting`), one more thread starts on the later
    items, up to the enclosing map's `workers` for this article, and the
    enclosing map may start its next article as well. Every thread keeps the
    article's `article_index`, so a rate limiter ranks their requests at the
    article's place. No item starts after one has failed; the exception of
    the earliest failed item is raised unchanged. Outside a map, or at one
    worker, this is a plain loop.
    """
    enclosing = getattr(_current, "map", None)
    if enclosing is None or enclosing.workers == 1:
        return [fn(item) for item in items]
    return _LazyMap(fn, items, enclosing.workers, article_index(), enclosing).run()
