"""Memo: each key computed once, also across threads."""

import sys
import threading
import time

import pytest

from newsgeo.memo import Memo


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
