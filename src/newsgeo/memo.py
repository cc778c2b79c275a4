"""A memo that computes each key once, also when worker threads share it,
and the map that runs a command's articles on those threads.

A command's `Resolver` and `Pipeline` each own one, and the KB clients use
one to fetch each missing key once. Once per key keeps a run's work, and so
its counters, the same at any worker count.
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


def map_articles(
    fn: Callable[[Article], T], articles: Sequence[Article], workers: int = 1
) -> list[T]:
    """`fn` of every article in corpus order: serially, or on a thread pool.

    An exception passes unchanged, except that a `ValueError` other than a
    KB failure is raised again with the failing article's id in its message,
    so every command names the article that failed.
    """

    def run(article: Article) -> T:
        try:
            return fn(article)
        except ValueError as exc:
            # Imported here: this module loads no KB layer.
            from .kb import KbError

            if isinstance(exc, KbError):
                raise
            raise ValueError(f"article {article.id}: {exc}") from exc

    if workers == 1:
        return [run(article) for article in articles]
    # Imported here: a serial command never loads the thread pool's modules.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, articles))
