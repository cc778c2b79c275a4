"""Memo: each key computed once, also across threads; the article map and
the map of one article's items."""

import contextlib
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from newsgeo.memo import Memo, article_index, map_articles, map_in_article, waiting

from conftest import count_calls


class TestMemo:
    def test_value_is_computed_once_and_kept_even_when_none(self):
        memo = Memo()
        calls = []

        def compute():
            calls.append("k")
            return None

        for _ in range(3):
            assert memo.get("k", compute) is None
        assert calls == ["k"]

    def test_a_raising_computation_stores_nothing(self):
        memo = Memo()

        def down():
            raise RuntimeError("down")

        with pytest.raises(RuntimeError):
            memo.get("k", down)
        assert memo.get("k", lambda: "up") == "up"

    def test_a_waiting_thread_computes_after_the_first_one_fails(self):
        memo = Memo()
        entered, release = threading.Event(), threading.Event()
        errors, results = [], []

        def failing():
            entered.set()
            release.wait(timeout=5)
            raise RuntimeError("down")

        def first():
            try:
                memo.get("k", failing)
            except RuntimeError as exc:
                errors.append(exc)

        a = threading.Thread(target=first)
        a.start()
        assert entered.wait(timeout=5)
        b = threading.Thread(target=lambda: results.append(memo.get("k", lambda: "up")))
        b.start()
        time.sleep(0.05)
        assert b.is_alive()  # waiting for the first computation
        release.set()
        for thread in (a, b):
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert len(errors) == 1 and results == ["up"]

    def test_threads_compute_each_key_once(self):
        memo = Memo()
        keys = range(200)
        computed = []
        seen: list[dict] = [{} for _ in range(8)]

        def compute(key):
            computed.append(key)
            time.sleep(0)  # let the other threads run while the key is computed
            return object()

        def worker(index):
            order = list(keys)[index::2] + list(keys)
            for key in order:
                seen[index][key] = memo.get(key, lambda: compute(key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(computed) == list(keys)
        for key in keys:
            assert len({id(values[key]) for values in seen}) == 1


def articles(count):
    return [SimpleNamespace(id=f"a-{index}") for index in range(count)]


class TestMapArticles:
    def test_a_run_that_never_waits_stays_on_the_calling_thread(self):
        threads = []

        def fn(article):
            threads.append(threading.get_ident())
            return article.id

        corpus = articles(20)
        assert map_articles(fn, corpus, workers=4) == [a.id for a in corpus]
        assert set(threads) == {threading.get_ident()}

    def test_waits_start_threads_up_to_workers(self):
        lock = threading.Lock()
        threads, running, most = set(), [0], [0]

        def fn(article):
            with lock:
                threads.add(threading.get_ident())
                running[0] += 1
                most[0] = max(most[0], running[0])
            waiting()
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return article.id

        corpus = articles(20)
        assert map_articles(fn, corpus, workers=3) == [a.id for a in corpus]
        assert 1 < len(threads) <= 3
        assert most[0] <= 3

    def test_threads_run_each_article_once(self):
        runs = []

        def fn(article):
            runs.append(article.id)
            waiting()
            time.sleep(0)  # let the other threads take articles meanwhile
            return article.id

        corpus = articles(400)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert map_articles(fn, corpus, workers=8) == [a.id for a in corpus]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(runs) == sorted(a.id for a in corpus)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_the_earliest_failed_article_is_raised(self, workers):
        def fn(article):
            if article.id == "a-1":
                waiting()
                time.sleep(0.1)  # a-3 fails first on another thread
                raise ValueError("first")
            if article.id == "a-3":
                raise ValueError("second")
            return article.id

        with pytest.raises(ValueError, match="^article a-1: first$"):
            map_articles(fn, articles(6), workers)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_article_starts_after_a_failure(self, workers):
        started = []

        def fn(article):
            started.append(article.id)
            if article.id == "a-0":
                waiting()
                time.sleep(0.1)  # a-1 fails meanwhile on another thread
            if article.id == "a-1":
                raise RuntimeError("down")
            return article.id

        with pytest.raises(RuntimeError, match="^down$"):
            map_articles(fn, articles(6), workers)
        assert started == ["a-0", "a-1"]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_thread_knows_the_index_of_its_article(self, workers):
        def fn(article):
            waiting()
            time.sleep(0.001)  # the other threads take articles meanwhile
            inner = map_articles(lambda _: article_index(), articles(2))
            return article_index(), inner

        assert article_index() is None
        found = map_articles(fn, articles(12), workers)
        assert found == [(index, [0, 1]) for index in range(12)]
        assert article_index() is None

    @pytest.mark.parametrize("fails", [False, True])
    def test_the_map_is_forgotten_when_it_returns(self, monkeypatch, fails):
        def fn(article):
            waiting()
            if fails:
                raise RuntimeError("down")
            return article.id

        with pytest.raises(RuntimeError) if fails else contextlib.nullcontext():
            map_articles(fn, articles(3), workers=4)
        assert article_index() is None
        starts = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread))
        waiting()  # outside a map: starts nothing
        # A map left behind would run these items on threads of its workers.
        assert map_in_article(lambda item: (waiting(), item)[1], [1, 2, 3]) == [1, 2, 3]
        assert starts == []

    def test_fewer_than_one_worker_is_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            map_articles(lambda article: article.id, articles(2), workers=0)


def finished(call, timeout=10):
    """The value of `call()`, run on a thread of its own that must finish
    within `timeout` seconds, so a deadlocked map fails instead of hanging;
    an exception of `call` is raised here."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestMapInArticle:
    def waiting_items(self, count):
        def item(number):
            waiting()
            time.sleep(0.001)
            return number

        return item, list(range(count))

    def test_outside_a_map_it_is_a_plain_loop(self, monkeypatch):
        started = count_calls(monkeypatch, threading.Thread, "start")
        item, items = self.waiting_items(5)
        assert map_in_article(item, items) == items
        assert started == []

    def test_one_worker_starts_no_thread(self, monkeypatch):
        started = count_calls(monkeypatch, threading.Thread, "start")
        item, items = self.waiting_items(5)
        found = map_articles(lambda article: map_in_article(item, items), articles(3), workers=1)
        assert found == [items] * 3
        assert started == []

    def test_items_that_never_wait_start_no_thread(self, monkeypatch):
        started = count_calls(monkeypatch, threading.Thread, "start")
        items = list(range(5))
        found = map_articles(lambda article: map_in_article(str, items), articles(3), workers=4)
        assert found == [[str(number) for number in items]] * 3
        assert started == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_items_of_an_article_run_at_once(self, workers):
        lock = threading.Lock()
        running: dict[int, int] = {}
        most: dict[int, int] = {}

        def item(number):
            article = article_index()
            with lock:
                running[article] = running.get(article, 0) + 1
                most[article] = max(most.get(article, 0), running[article])
            waiting()
            time.sleep(0.01)
            with lock:
                running[article] -= 1
            return number

        items = list(range(8))
        found = finished(
            lambda: map_articles(lambda article: map_in_article(item, items), articles(4), workers)
        )
        assert found == [items] * 4
        assert max(most.values()) > 1
        assert all(count <= workers for count in most.values())

    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_thread_keeps_the_index_of_its_article(self, workers):
        def item(number):
            waiting()
            time.sleep(0.001)  # the other threads take items and articles meanwhile
            return article_index(), number

        def article(_):
            return map_in_article(item, range(6))

        found = finished(lambda: map_articles(article, articles(5), workers))
        assert found == [[(index, number) for number in range(6)] for index in range(5)]
        assert article_index() is None

    @pytest.mark.parametrize("workers", [1, 4])
    def test_the_earliest_failed_item_is_raised_unchanged(self, workers):
        first, second = RuntimeError("first"), RuntimeError("second")

        def item(number):
            if number == 1:
                waiting()
                time.sleep(0.1)  # item 3 fails first on another thread
                raise first
            if number == 3:
                raise second
            waiting()
            return number

        run = lambda: map_articles(lambda a: map_in_article(item, range(6)), articles(1), workers)
        with pytest.raises(RuntimeError) as raised:
            finished(run)
        assert raised.value is first

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_item_starts_after_a_failure(self, workers):
        started = []

        def item(number):
            started.append(number)
            if number == 0:
                waiting()
                time.sleep(0.1)  # item 1 fails meanwhile on another thread
            if number == 1:
                raise RuntimeError("down")
            return number

        run = lambda: map_articles(lambda a: map_in_article(item, range(6)), articles(1), workers)
        with pytest.raises(RuntimeError, match="^down$"):
            finished(run)
        assert started == [0, 1]

    def test_the_article_map_still_names_the_article(self):
        def item(number):
            waiting()
            if number == 2:
                raise ValueError("bad span")
            return number

        run = lambda: map_articles(lambda a: map_in_article(item, range(4)), articles(2), 2)
        with pytest.raises(ValueError, match="^article a-0: bad span$"):
            finished(run)

    def test_a_waiting_item_starts_the_next_article(self):
        second_started = threading.Event()

        def item(article_id):
            if article_id == "a-0":
                waiting()
                # Returns at once only if a-1 started on another thread.
                return second_started.wait(timeout=5)
            second_started.set()
            return True

        def article(article):
            return map_in_article(item, [article.id])

        assert finished(lambda: map_articles(article, articles(2), workers=2)) == [[True], [True]]

    def test_threads_run_each_item_once_under_stress(self):
        runs = []

        def item(number):
            runs.append((article_index(), number))
            waiting()
            time.sleep(0)  # let the other threads take items and articles meanwhile
            return article_index(), number

        def article(_):
            return map_in_article(item, range(20))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            found = finished(lambda: map_articles(article, articles(30), workers=8), timeout=60)
        finally:
            sys.setswitchinterval(interval)
        expected = [[(index, number) for number in range(20)] for index in range(30)]
        assert found == expected
        assert sorted(runs) == [pair for per_article in expected for pair in per_article]
