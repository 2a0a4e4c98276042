"""Concurrent-writer safety and the LRU byte-budget gc.

The store's write contract: any number of writers -- threads in one
process, or separate processes -- may put the *same* key at the same
time; every writer succeeds, the entry is never torn, and a reader at
any moment sees either a complete previous entry or a complete new
one (atomic tmp + ``os.replace``, unique tmp name per writer).

The gc contract under a byte budget: code/age passes run first, then
least-recently-used entries (mtime, bumped on every hit) are evicted
until the store fits ``max_bytes``.
"""

import errno
import importlib
import multiprocessing
import os
import threading

import pytest

from repro.experiments.scenario import run_scenario, scenario
from repro.store import ResultStore, job_key

PUTS_PER_WRITER = 20
WRITERS = 6

# Shared across forked workers (set in the parent before the pool).
_SHARED = {}


def _make_result():
    spec = scenario("fig7").configured(samples=60, seed=1)
    return spec, run_scenario(spec)


def _hammer(_writer_index):
    """Worker: repeatedly put the one shared key."""
    store = ResultStore(_SHARED["root"])
    for _ in range(PUTS_PER_WRITER):
        store.put(_SHARED["key"], _SHARED["result"], "codeX")
    return True


@pytest.fixture(scope="module")
def run():
    spec, result = _make_result()
    return spec, result, job_key(spec, "codeX")


class TestConcurrentWriters:
    def test_multiprocess_same_key_no_torn_entry(self, tmp_path, run):
        spec, result, key = run
        root = str(tmp_path / "store")
        _SHARED.update(root=root, key=key, result=result)
        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods:
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=WRITERS) as pool:
            outcomes = pool.map(_hammer, range(WRITERS))
        assert all(outcomes)

        store = ResultStore(root)
        ok, corrupt = store.verify()
        assert corrupt == []
        assert ok == 1
        entry = store.get(key)
        assert entry is not None and not entry.stalled
        assert entry.result.recorder.max() == result.recorder.max()
        assert store.corrupt_reads == 0
        # No writer left a stale tmp behind.
        leftovers = [name for _, _, files in os.walk(root)
                     for name in files if name.endswith(".tmp")]
        assert leftovers == []

    def test_threads_same_key_unique_tmp_names(self, tmp_path, run):
        """Same-pid writers race on one key: the tmp sequence keeps
        their scratch files distinct, so no open() tramples a file
        another thread is about to os.replace."""
        spec, result, key = run
        store = ResultStore(str(tmp_path / "store"))
        errors = []

        def writer():
            try:
                for _ in range(PUTS_PER_WRITER):
                    store.put(key, result, "codeX")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)
                   for _ in range(WRITERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        ok, corrupt = store.verify()
        assert (ok, corrupt) == (1, [])
        assert store.get(key) is not None

    def test_interrupted_writer_leaves_only_tmp(self, tmp_path, run,
                                                dead_pid):
        """A writer that dies before os.replace leaves an orphan tmp
        that gc sweeps; the entry itself is untouched."""
        spec, result, key = run
        store = ResultStore(str(tmp_path / "store"))
        store.put(key, result, "codeX")
        orphan = store.path_for(key) + f".{dead_pid}.99.tmp"
        with open(orphan, "wb") as fh:
            fh.write(b"half-written")
        report = store.gc(keep_code="codeX")
        assert report.tmp_swept == 1
        assert store.get(key) is not None


class _FullDisk:
    """A file object whose write lands half the bytes, then hits ENOSPC."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, blob):
        self._fh.write(blob[:len(blob) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _tmp_files(root):
    return [name for _, _, files in os.walk(root)
            for name in files if name.endswith(".tmp")]


class TestFailedWrite:
    """A write that fails leaves no tmp behind and the entry as it was."""

    @pytest.fixture
    def full_disk(self, monkeypatch):
        module = importlib.import_module("repro.store.store")

        def full_open(file, mode="r", *args, **kwargs):
            return _FullDisk(open(file, mode, *args, **kwargs))

        return lambda: monkeypatch.setattr(module, "open", full_open,
                                           raising=False)

    def test_enospc_keeps_the_existing_entry(self, tmp_path, run, full_disk):
        spec, result, key = run
        root = str(tmp_path / "store")
        store = ResultStore(root)
        path = store.put(key, result, "codeX")
        with open(path, "rb") as fh:
            before = fh.read()
        full_disk()
        with pytest.raises(OSError) as excinfo:
            store.put(key, result, "codeY")
        assert excinfo.value.errno == errno.ENOSPC
        assert _tmp_files(root) == []
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_enospc_on_a_new_entry_leaves_nothing(self, tmp_path, run,
                                                  full_disk):
        spec, result, key = run
        root = str(tmp_path / "store")
        store = ResultStore(root)
        full_disk()
        with pytest.raises(OSError):
            store.put(key, result, "codeX")
        assert _tmp_files(root) == []
        assert not os.path.exists(store.path_for(key))


def _fill(store, n, size=200):
    """n cheap stalled entries with ascending mtimes; returns keys."""
    keys = []
    for i in range(n):
        key = f"{i:02d}" + "ab" * 31
        store.put_stalled(key, "synthetic", "x" * size, code="codeX")
        path = store.path_for(key)
        stamp = 1_000_000 + i * 100
        os.utime(path, (stamp, stamp))
        keys.append(key)
    return keys


class TestGcMaxBytes:
    def test_lru_evicts_oldest_until_budget(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        keys = _fill(store, 5)
        sizes = {k: os.path.getsize(store.path_for(k)) for k in keys}
        budget = sum(sizes.values()) - 1  # force exactly one eviction
        report = store.gc(keep_code="codeX", max_bytes=budget)
        assert report.removed == [keys[0]]
        assert report.by_kind == {"stalled": 1}
        assert not store.contains(keys[0])
        assert all(store.contains(k) for k in keys[1:])

    def test_budget_zero_clears_everything(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        keys = _fill(store, 3)
        report = store.gc(keep_code="codeX", max_bytes=0)
        assert sorted(report.removed) == sorted(keys)
        assert store.stats()["entries"] == 0

    def test_hit_refreshes_recency(self, tmp_path):
        """Reading an entry bumps its mtime, so the LRU pass evicts a
        colder one instead."""
        store = ResultStore(str(tmp_path / "store"))
        keys = _fill(store, 3)
        # Hit the oldest: it becomes the youngest.
        assert store.get(keys[0]) is not None
        total = sum(os.path.getsize(store.path_for(k)) for k in keys)
        report = store.gc(keep_code="codeX", max_bytes=total - 1)
        assert report.removed == [keys[1]]
        assert store.contains(keys[0])

    def test_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        keys = _fill(store, 3)
        report = store.gc(keep_code="codeX", max_bytes=0, dry_run=True)
        assert len(report.removed) == 3
        assert all(store.contains(k) for k in keys)

    def test_code_drop_counts_toward_budget_first(self, tmp_path):
        """Stale-code entries go in the code pass; the budget then
        only needs to evict from what survived."""
        store = ResultStore(str(tmp_path / "store"))
        keys = _fill(store, 4)
        # Rewrite the two oldest under a different code version.
        for key in keys[:2]:
            store.put_stalled(key, "synthetic", "y" * 200, code="OLD")
            stamp = 999_000
            os.utime(store.path_for(key), (stamp, stamp))
        survivors = keys[2:]
        total = sum(os.path.getsize(store.path_for(k))
                    for k in survivors)
        report = store.gc(keep_code="codeX", max_bytes=total)
        assert sorted(report.removed) == sorted(keys[:2])
        assert all(store.contains(k) for k in survivors)
