"""The content-addressed result store and campaign journals.

Layout under the store root::

    objects/<k[:2]>/<key>.rrs     one entry per run (see entry.py)
    objects/<k[:2]>/<key>.rts     one RTRACE1 trace recording
    campaigns/<ckey>.journal      completed-job checkpoint, one line
                                  per finished job: "<index> <key>"

Writes are atomic (tmp file + ``os.replace``), so a concurrent reader
never sees a half-written entry and an interrupted writer leaves at
worst an orphaned ``*.tmp`` (swept by ``gc``).  Reads validate the
entry checksum; anything corrupt or truncated is reported as a miss
(and counted on :attr:`ResultStore.corrupt_reads`), never an error --
the runner simply recomputes and overwrites.

The journal is the resume checkpoint: the campaign runner truncates it
at start-up, appends a line the moment each job's result is safely in
the store, and flushes per line, so a ``Ctrl-C``/``SIGKILL``/CI-timeout
at any point leaves a prefix of completed work that the next
``--resume`` invocation trusts (after re-checking each journaled key
against the current job list -- a stale journal from different code or
a different matrix is ignored line by line).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.store.entry import (
    StoreCorruptError,
    decode,
    decode_recording,
    encode_recording,
    encode_result,
    encode_stalled,
    entry_kind_of,
    result_from_entry,
)
from repro.store.keys import code_version

#: Entry-file suffix per kind: results and stalled markers share the
#: RRSTORE1 frame (``.rrs``); trace recordings are RTRACE1 (``.rts``).
ENTRY_SUFFIXES = (".rrs", ".rts")

#: Default store location (relative to the working directory); the
#: CLI and benchmarks use this unless told otherwise.
DEFAULT_STORE_DIR = ".repro-store"

#: Process-wide tmp-file sequence (atomic under the GIL).
_TMP_SEQ = itertools.count()

#: The pid in a :func:`write_atomic` tmp name, ``<path>.<pid>.<seq>.tmp``.
_WRITER_TMP = re.compile(r"\.(\d+)\.\d+\.tmp$")


def write_atomic(path: str, blob: bytes) -> str:
    """Write *blob* to *path* via a writer-unique tmp + ``os.replace``.

    The pid keeps two processes' tmp names apart and :data:`_TMP_SEQ`
    two threads' (the service scheduler and worker threads may race on
    one hot key), so no two writers share a tmp path: last writer
    wins, all succeed, no torn bytes.  A write that fails (a full
    disk, an I/O error, an interrupt) unlinks its tmp and re-raises;
    whatever was at *path* stays as it was.
    """
    tmp = f"{path}.{os.getpid()}.{next(_TMP_SEQ)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def _live_writers_tmp(name: str) -> bool:
    """Whether tmp file *name* is :func:`write_atomic`'s in a process
    that still runs (``gc`` must leave it, or the writer's
    ``os.replace`` fails)."""
    match = _WRITER_TMP.search(name)
    if match is None:
        return False
    try:
        os.kill(int(match.group(1)), 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:
        pass                    # alive, owned by another user
    return True


@dataclass
class StoreEntry:
    """One validated entry: metadata plus the rebuilt result."""

    key: str
    meta: Dict[str, Any]
    result: Any = None          # ScenarioResult, None when stalled

    @property
    def stalled(self) -> bool:
        return bool(self.meta.get("stalled"))

    @property
    def error(self) -> Optional[str]:
        return self.meta.get("error")


@dataclass
class GcReport:
    """What one ``gc`` pass removed (or, dry-run, would remove)."""

    removed: List[str]                       # keys, path order
    reclaimed_bytes: int = 0
    by_kind: Dict[str, int] = None           # type: ignore[assignment]
    tmp_swept: int = 0
    dry_run: bool = False

    def __post_init__(self) -> None:
        if self.by_kind is None:
            self.by_kind = {}

    def to_dict(self) -> Dict[str, Any]:
        return {"removed": list(self.removed),
                "reclaimed_bytes": self.reclaimed_bytes,
                "by_kind": dict(self.by_kind),
                "tmp_swept": self.tmp_swept,
                "dry_run": self.dry_run}


class ResultStore:
    """Content-addressed persistence for scenario runs."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.corrupt_reads = 0

    # -- paths ----------------------------------------------------------
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def path_for(self, key: str) -> str:
        return os.path.join(self._objects_dir(), key[:2], f"{key}.rrs")

    def recording_path_for(self, key: str) -> str:
        return os.path.join(self._objects_dir(), key[:2], f"{key}.rts")

    def journal_path(self, campaign_key: str) -> str:
        return os.path.join(self.root, "campaigns",
                            f"{campaign_key}.journal")

    # -- entries --------------------------------------------------------
    def contains(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    @staticmethod
    def _touch(path: str) -> None:
        """Bump an entry's mtime on a hit (best effort).

        The mtime doubles as the recency clock for ``gc --max-bytes``:
        entries a long-running service keeps hitting stay young,
        entries nobody reads age out first (LRU, not insertion order).
        """
        try:
            os.utime(path)
        except OSError:
            pass

    def get(self, key: str) -> Optional[StoreEntry]:
        """Load and validate one entry; None on miss *or* corruption."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        try:
            meta, arr = decode(blob)
            if meta.get("key") != key:
                raise StoreCorruptError("entry key does not match path")
            result = None if meta.get("stalled") \
                else result_from_entry(meta, arr)
        except StoreCorruptError:
            self.corrupt_reads += 1
            return None
        self._touch(path)
        return StoreEntry(key=key, meta=meta, result=result)

    def _write(self, key: str, blob: bytes,
               path: Optional[str] = None) -> str:
        if path is None:
            path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return write_atomic(path, blob)

    def put(self, key: str, result: Any,
            code: Optional[str] = None) -> str:
        """Store one completed ScenarioResult atomically."""
        return self._write(key, encode_result(
            result, key, code if code is not None else code_version()))

    def put_stalled(self, key: str, scenario: str, error: str,
                    code: Optional[str] = None) -> str:
        """Store a stalled-run marker (margin ladder support)."""
        return self._write(key, encode_stalled(
            scenario, error, key, code if code is not None
            else code_version()))

    def put_recording(self, key: str, body: Dict[str, Any],
                      code: Optional[str] = None) -> str:
        """Store one trace-recording body (RTRACE1) atomically."""
        blob = encode_recording(
            body, key, code if code is not None else code_version())
        return self._write(key, blob,
                           path=self.recording_path_for(key))

    def get_recording(self, key: str) -> Optional[Dict[str, Any]]:
        """Load one recording body; None on miss *or* corruption."""
        path = self.recording_path_for(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        try:
            meta, body = decode_recording(blob)
            if meta.get("key") != key:
                raise StoreCorruptError("entry key does not match path")
        except StoreCorruptError:
            self.corrupt_reads += 1
            return None
        self._touch(path)
        return body

    # -- maintenance ----------------------------------------------------
    def _entry_paths(self) -> Iterator[str]:
        objects = self._objects_dir()
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(ENTRY_SUFFIXES):
                    yield os.path.join(shard_dir, name)

    @staticmethod
    def _key_of(path: str) -> str:
        return os.path.splitext(os.path.basename(path))[0]

    @staticmethod
    def _read_entry(path: str) -> Dict[str, Any]:
        """Decode whichever entry kind *path* holds; returns its meta.

        Raises :class:`StoreCorruptError` (or ``OSError``) on any
        failure, including a meta key that disagrees with the path.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        if path.endswith(".rts"):
            meta, _body = decode_recording(blob)
        else:
            meta, arr = decode(blob)
            if not meta.get("stalled"):
                result_from_entry(meta, arr)
        if meta.get("key") != ResultStore._key_of(path):
            raise StoreCorruptError("entry key does not match path")
        return meta

    def ls(self, kind: Optional[str] = None
           ) -> Iterator[Tuple[str, Dict[str, Any], int]]:
        """Yield (key, meta, size_bytes) for every readable entry.

        Corrupt entries yield ``(key, {}, size)`` so callers can still
        see and clean them.  *kind* filters to one entry kind
        (``result`` | ``stalled`` | ``rtrace``); corrupt entries are
        always reported regardless of the filter.
        """
        for path in self._entry_paths():
            key = self._key_of(path)
            size = os.path.getsize(path)
            try:
                meta = self._read_entry(path)
            except (OSError, StoreCorruptError):
                yield key, {}, size
                continue
            if kind is not None and entry_kind_of(meta) != kind:
                continue
            yield key, meta, size

    def verify(self, delete: bool = False) -> Tuple[int, List[str]]:
        """Fully decode every entry; returns (ok_count, corrupt_keys).

        With *delete*, corrupt entries are removed so the next run
        recomputes them.
        """
        ok = 0
        corrupt: List[str] = []
        for path in self._entry_paths():
            try:
                self._read_entry(path)
                ok += 1
            except (OSError, StoreCorruptError):
                corrupt.append(self._key_of(path))
                if delete:
                    try:
                        os.remove(path)
                    except OSError:
                        pass
        return ok, corrupt

    def gc(self, keep_code: Optional[str] = None,
           max_age_s: Optional[float] = None,
           now_s: Optional[float] = None,
           max_bytes: Optional[int] = None,
           dry_run: bool = False) -> GcReport:
        """Collect entries from other code versions (and stale temps).

        *keep_code* defaults to the current tree digest: entries whose
        recorded code version differs can never be hit again (the key
        embeds the digest), so they are pure disk waste.  *max_age_s*
        additionally drops entries older than the given age relative
        to *now_s* (callers supply the clock; the store itself stays
        wall-clock-free).  *max_bytes* bounds the store for
        long-running hosts (the service): after the code/age passes,
        surviving entries are evicted least-recently-used first (the
        store bumps an entry's mtime on every hit) until the total
        size fits the budget.  Returns a :class:`GcReport` with the
        removed (or, under *dry_run*, removable) keys, the bytes they
        occupied and a per-entry-kind breakdown.  Tmp files go too,
        except a :func:`write_atomic` tmp whose pid is a live process.
        """
        keep = keep_code if keep_code is not None else code_version()
        report = GcReport(removed=[], dry_run=dry_run)
        kept: List[Tuple[float, str, str, int]] = []  # (mtime, path, kind, size)

        def drop_path(path: str, kind: str, size: int) -> None:
            report.removed.append(self._key_of(path))
            report.reclaimed_bytes += size
            report.by_kind[kind] = report.by_kind.get(kind, 0) + 1
            if not dry_run:
                try:
                    os.remove(path)
                except OSError:
                    pass

        for path in self._entry_paths():
            kind = "corrupt"
            drop = False
            try:
                meta = self._read_entry(path)
                kind = entry_kind_of(meta)
                if meta.get("code") != keep:
                    drop = True
            except (OSError, StoreCorruptError):
                drop = True
            try:
                size = os.path.getsize(path)
                mtime = os.path.getmtime(path)
            except OSError:
                size, mtime = 0, 0.0
            if not drop and max_age_s is not None and now_s is not None:
                if now_s - mtime > max_age_s:
                    drop = True
            if drop:
                drop_path(path, kind, size)
            else:
                kept.append((mtime, path, kind, size))
        # LRU budget: evict the coldest survivors until we fit.
        if max_bytes is not None:
            total = sum(size for _, _, _, size in kept)
            for mtime, path, kind, size in sorted(kept):
                if total <= max_bytes:
                    break
                drop_path(path, kind, size)
                total -= size
        # Sweep orphaned tmp files from interrupted writers.
        if not dry_run:
            for dirpath, _dirnames, filenames in os.walk(self.root):
                for name in filenames:
                    if (name.endswith(".tmp")
                            and not _live_writers_tmp(name)):
                        tmp = os.path.join(dirpath, name)
                        try:
                            report.reclaimed_bytes += os.path.getsize(tmp)
                            os.remove(tmp)
                            report.tmp_swept += 1
                        except OSError:
                            pass
        return report

    def stats(self) -> Dict[str, Any]:
        """Entry count and total size (for ``store ls`` footers)."""
        count = 0
        size = 0
        by_kind: Dict[str, int] = {}
        for path in self._entry_paths():
            count += 1
            size += os.path.getsize(path)
            kind = "rtrace" if path.endswith(".rts") else "result"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return {"entries": count, "bytes": size, "by_kind": by_kind,
                "root": self.root}

    # -- journals -------------------------------------------------------
    def read_journal(self, campaign_key: str) -> Dict[int, str]:
        """Completed job indices -> entry keys from a prior run.

        Malformed lines (a torn final write) are skipped: the journal
        is a checkpoint, not a ledger, and a lost tail line merely
        recomputes one job.
        """
        path = self.journal_path(campaign_key)
        done: Dict[int, str] = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) != 2:
                        continue
                    index, key = parts
                    try:
                        done[int(index)] = key
                    except ValueError:
                        continue
        except OSError:
            return {}
        return done

    def journal_writer(self, campaign_key: str) -> "JournalWriter":
        return JournalWriter(self.journal_path(campaign_key))


class JournalWriter:
    """Append-per-completion checkpoint file, flushed per line."""

    def __init__(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8")

    def record(self, index: int, key: str) -> None:
        self._fh.write(f"{index} {key}\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def open_store(store: Any) -> Optional[ResultStore]:
    """Coerce a store argument: ResultStore | path | None."""
    if store is None:
        return None
    if isinstance(store, ResultStore):
        return store
    return ResultStore(str(store))
