"""ResultStore behaviour: hits, misses, corruption, gc, journals."""

import os

import pytest

from repro.experiments.__main__ import main
from repro.experiments.scenario import run_scenario, scenario
from repro.store import ResultStore, job_key, open_store
from repro.store.keys import code_version


@pytest.fixture(scope="module")
def result():
    return run_scenario(scenario("fig7").configured(samples=100, seed=5))


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture(scope="module")
def key(result):
    return job_key(scenario("fig7").configured(samples=100, seed=5))


class TestBasics:
    def test_miss_on_empty(self, store, key):
        assert store.get(key) is None
        assert not store.contains(key)

    def test_put_then_hit(self, store, key, result):
        store.put(key, result, code="c")
        assert store.contains(key)
        entry = store.get(key)
        assert entry is not None and not entry.stalled
        assert entry.result.recorder.max() == result.recorder.max()

    def test_put_is_atomic_no_tmp_left(self, store, key, result):
        store.put(key, result, code="c")
        leftovers = [name for _, _, names in os.walk(store.root)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_stalled_entry(self, store, key):
        store.put_stalled(key, "fig7", "no progress", code="c")
        entry = store.get(key)
        assert entry.stalled
        assert entry.error == "no progress"
        assert entry.result is None

    def test_open_store_coercion(self, tmp_path, store):
        assert open_store(None) is None
        assert open_store(store) is store
        opened = open_store(str(tmp_path / "elsewhere"))
        assert isinstance(opened, ResultStore)


class TestCorruptionHandling:
    def test_corrupt_entry_is_a_miss(self, store, key, result):
        path = store.put(key, result, code="c")
        with open(path, "r+b") as fh:
            fh.seek(60)
            fh.write(b"\xff")
        assert store.get(key) is None
        assert store.corrupt_reads == 1

    def test_truncated_entry_is_a_miss(self, store, key, result):
        path = store.put(key, result, code="c")
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        assert store.get(key) is None

    def test_wrong_key_under_path_is_a_miss(self, store, key, result):
        path = store.put(key, result, code="c")
        other = store.path_for("ab" + key[2:])
        os.makedirs(os.path.dirname(other), exist_ok=True)
        os.replace(path, other)
        assert store.get("ab" + key[2:]) is None

    def test_verify_flags_and_deletes(self, store, key, result):
        good_key = "f" * 64
        store.put(good_key, result, code="c")
        bad_path = store.put(key, result, code="c")
        with open(bad_path, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\x00\x01\x02")
        ok, corrupt = store.verify()
        assert ok == 1 and corrupt == [key]
        ok, corrupt = store.verify(delete=True)
        assert corrupt == [key]
        assert not store.contains(key)
        assert store.contains(good_key)


class TestGc:
    def test_gc_drops_other_code_versions(self, store, key, result):
        store.put(key, result, code="old-code")
        keep_key = "e" * 64
        store.put(keep_key, result, code="current")
        report = store.gc(keep_code="current")
        assert report.removed == [key]
        assert store.contains(keep_key)

    def test_gc_reports_bytes_and_kinds(self, store, key, result):
        path = store.put(key, result, code="old-code")
        size = os.path.getsize(path)
        report = store.gc(keep_code="current")
        assert report.reclaimed_bytes == size
        assert report.by_kind == {"result": 1}
        assert not report.dry_run

    def test_gc_dry_run_keeps_files(self, store, key, result):
        store.put(key, result, code="old-code")
        report = store.gc(keep_code="current", dry_run=True)
        assert report.removed == [key]
        assert report.dry_run
        assert report.reclaimed_bytes > 0
        assert store.contains(key)

    def test_gc_age_filter(self, store, key, result):
        path = store.put(key, result, code="current")
        os.utime(path, (1_000, 1_000))
        report = store.gc(keep_code="current", max_age_s=10.0,
                          now_s=2_000.0)
        assert report.removed == [key]

    def test_gc_sweeps_orphan_tmp(self, store, key, result):
        store.put(key, result, code="current")
        orphan = store.path_for(key) + ".999.tmp"
        with open(orphan, "wb") as fh:
            fh.write(b"half-written")
        report = store.gc(keep_code="current")
        assert not os.path.exists(orphan)
        assert report.tmp_swept == 1

    def test_gc_keeps_a_live_writers_tmp(self, store, key, result,
                                         dead_pid):
        store.put(key, result, code="current")
        live = store.path_for(key) + f".{os.getpid()}.7.tmp"
        dead = store.path_for(key) + f".{dead_pid}.7.tmp"
        for path in (live, dead):
            with open(path, "wb") as fh:
                fh.write(b"half-written")
        report = store.gc(keep_code="current")
        assert os.path.exists(live) and not os.path.exists(dead)
        assert report.tmp_swept == 1

    def test_ls_and_stats(self, store, key, result):
        store.put(key, result, code="c")
        entries = list(store.ls())
        assert len(entries) == 1
        ls_key, meta, size = entries[0]
        assert ls_key == key
        assert meta["scenario"] == "fig7"
        assert size > 0
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == size


class TestGcCli:
    @pytest.mark.parametrize("flag, value", [
        ("--max-bytes", "inf"), ("--max-bytes", "1e400"),
        ("--max-bytes", "nan"), ("--max-bytes", "-1"),
        ("--max-bytes", "12Q"), ("--keep-days", "-1"),
        ("--keep-days", "nan"), ("--keep-days", "inf"),
    ])
    def test_malformed_budget_exits_2_and_leaves_the_store(
            self, store, key, result, flag, value, capsys):
        store.put(key, result, code=code_version())
        with pytest.raises(SystemExit) as exc:
            main(["store", "gc", "--store", store.root, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert store.contains(key)

    def test_valid_budgets_keep_a_fresh_entry(self, store, key, result,
                                              capsys):
        store.put(key, result, code=code_version())
        assert main(["store", "gc", "--store", store.root,
                     "--keep-days", "30", "--max-bytes", "1G"]) == 0
        assert "gc: removed 0 entries" in capsys.readouterr().out
        assert store.contains(key)


class TestJournal:
    def test_roundtrip(self, store):
        with store.journal_writer("ck") as writer:
            writer.record(0, "a" * 64)
            writer.record(3, "b" * 64)
        assert store.read_journal("ck") == {0: "a" * 64, 3: "b" * 64}

    def test_missing_journal_is_empty(self, store):
        assert store.read_journal("nope") == {}

    def test_torn_tail_line_skipped(self, store):
        with store.journal_writer("ck") as writer:
            writer.record(0, "a" * 64)
        path = store.journal_path("ck")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("7 ")  # interrupted mid-line
        assert store.read_journal("ck") == {0: "a" * 64}

    def test_rewrite_truncates(self, store):
        with store.journal_writer("ck") as writer:
            writer.record(0, "a" * 64)
            writer.record(1, "b" * 64)
        with store.journal_writer("ck") as writer:
            writer.record(0, "a" * 64)
        assert store.read_journal("ck") == {0: "a" * 64}
