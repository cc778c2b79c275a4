"""Memo: each key computed once, also across threads; the article map."""

import contextlib
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import newsgeo.memo
from newsgeo.memo import Memo, article_index, map_articles, waiting


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
        assert getattr(newsgeo.memo._current, "map", None) is None
        assert article_index() is None
        starts = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread))
        waiting()  # outside a map: starts nothing
        assert starts == []

    def test_fewer_than_one_worker_is_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            map_articles(lambda article: article.id, articles(2), workers=0)
