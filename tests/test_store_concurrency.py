"""Multi-writer and crash-safety tests for the artifact store.

The store's index is a compacted ``index.json`` snapshot plus one journal
file per entry (``index.d/<digest>.json``), merged on read — so concurrent
writers never race a read-modify-write of a shared file.  These tests drive
that design the hard way:

* N processes putting M artifacts each into ONE store — every entry must
  survive, every object must parse (no lost updates, no torn writes);
* readers running ``get()`` against concurrent ``put()``/``evict()`` —
  never an exception, only hit-or-miss;
* simulated crashes: a writer SIGKILLed mid-write leaves at most a stale
  ``*.tmp`` file, which reopening the store sweeps and rebuilds around;
* the snapshot-cache stamp (mtime, size, inode) invalidating on every
  kind of file replacement, including same-mtime rewrites.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

import sweep_testlib
from repro import api
from repro.api import ExecutionConfig
from repro.io import atomic_write_text
from repro.store import ArtifactStore, artifact_key

SPEC = sweep_testlib.SPEC_NAME

N_WRITERS = 4
PUTS_PER_WRITER = 8


def _artifact(seed, reps=3, **params):
    return api.run(
        SPEC,
        params=dict(params),
        execution=ExecutionConfig(seed=seed, repetitions=reps),
        cache="off",
    )


def _writer_main(root, writer, n_puts, barrier):
    """Put ``n_puts`` distinct artifacts; exit nonzero on any error."""
    store = ArtifactStore(root)
    barrier.wait()  # maximize overlap between writers
    for k in range(n_puts):
        artifact = _artifact(seed=writer * 10_000 + k, p=0.5, label=f"w{writer}-{k}")
        entry = store.put(artifact)
        assert store.get(entry.digest) is not None


def _reader_main(root, stop_path, fail_path):
    """Hammer get()/entries() until told to stop; record any exception."""
    store = ArtifactStore(root)
    try:
        while not os.path.exists(stop_path):
            for entry in store.entries():
                store.get(entry.digest)  # may miss (evicted) but never raise
            store.get("0" * 64)
    except BaseException as exc:  # pragma: no cover - the failure report
        with open(fail_path, "w") as handle:
            handle.write(f"{type(exc).__name__}: {exc}")
        raise


def _churn_main(root, n_puts, barrier):
    """Interleave puts with evictions to stress readers."""
    store = ArtifactStore(root)
    barrier.wait()
    for k in range(n_puts):
        store.put(_artifact(seed=90_000 + k, p=0.25, label=f"churn-{k}"))
        if k % 3 == 2:
            store.evict()  # evict everything currently indexed


class TestConcurrentWriters:
    def test_parallel_puts_lose_nothing(self, tmp_path):
        root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(N_WRITERS)
        procs = [
            ctx.Process(target=_writer_main,
                        args=(str(root), w, PUTS_PER_WRITER, barrier))
            for w in range(N_WRITERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        store = ArtifactStore(root)
        assert len(store) == N_WRITERS * PUTS_PER_WRITER
        for entry in store.entries():
            served = store.get(entry.digest)
            assert served is not None
            assert served.result.rows  # parsed, not corrupt

        # The merged view must agree with a from-scratch rebuild.
        rebuilt = dict(store._rebuild_index())
        assert set(rebuilt) == {entry.digest for entry in store.entries()}

    def test_get_during_concurrent_put_and_evict_never_raises(self, tmp_path):
        root = tmp_path / "store"
        ArtifactStore(root).put(_artifact(seed=1, p=0.5, label="seed"))
        stop_path = tmp_path / "stop"
        fail_path = tmp_path / "reader-failed"

        ctx = multiprocessing.get_context("fork")
        reader = ctx.Process(target=_reader_main,
                             args=(str(root), str(stop_path), str(fail_path)))
        reader.start()
        try:
            barrier = ctx.Barrier(2)
            churners = [
                ctx.Process(target=_churn_main, args=(str(root), 6, barrier))
                for _ in range(2)
            ]
            for proc in churners:
                proc.start()
            for proc in churners:
                proc.join(timeout=120)
                assert proc.exitcode == 0
        finally:
            stop_path.touch()
            reader.join(timeout=30)
        assert not fail_path.exists(), fail_path.read_text()
        assert reader.exitcode == 0


class TestCrashSafety:
    def test_tmp_file_from_killed_writer_is_swept_on_rebuild(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digest = store.put(_artifact(seed=2, p=0.5, label="live")).digest

        # Simulate a writer SIGKILLed between mkstemp and os.replace: a
        # stale orphan .tmp next to the objects, another inside index.d.
        old = time.time() - 2 * 3600
        for parent in (store.objects_dir, store.journal_dir):
            orphan = parent / "dead-writer-1234.tmp"
            orphan.write_text("{\"partial\": tru")
            os.utime(orphan, (old, old))

        rebuilt = store._rebuild_index()
        assert not list((tmp_path / "store").rglob("*.tmp"))
        assert rebuilt[digest]["spec"] == SPEC
        assert store.get(digest) is not None

    def test_fresh_tmp_files_survive_the_sweep(self, tmp_path):
        # A *young* .tmp may belong to a live writer mid-replace: keep it.
        store = ArtifactStore(tmp_path / "store")
        store.put(_artifact(seed=3, p=0.5, label="live"))
        fresh = store.objects_dir / "inflight-42.tmp"
        fresh.write_text("{")
        store._rebuild_index()
        assert fresh.exists()

    def test_kill_mid_put_then_reopen(self, tmp_path):
        """SIGKILL a writer while it puts; a reopened store must still work."""
        root = tmp_path / "store"
        ArtifactStore(root).put(_artifact(seed=4, p=0.5, label="base"))

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        victim = ctx.Process(target=_writer_main, args=(str(root), 7, 50, barrier))
        victim.start()
        barrier.wait()
        time.sleep(0.05)  # let it get mid-stream
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)

        store = ArtifactStore(root)
        entries = store.entries()
        assert entries  # the pre-crash entry is intact
        for entry in entries:
            assert store.get(entry.digest) is not None
        # And the store still accepts writes.
        digest = store.put(_artifact(seed=5, p=0.5, label="after")).digest
        assert store.get(digest) is not None

    def test_corrupt_index_snapshot_recovers_from_objects(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digest = store.put(_artifact(seed=6, p=0.5, label="x")).digest
        store.index_path.write_text("{ truncated by a crash")
        for journal in store.journal_dir.glob("*.json"):
            journal.unlink()
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.contains(digest)
        assert fresh.get(digest).result.rows

    def test_atomic_write_leaves_no_tmp_on_failure(self, tmp_path):
        # Failure injected at replace time: the target is a non-empty
        # directory, which os.replace cannot clobber.
        target = tmp_path / "out.json"
        target.mkdir()
        (target / "occupant").write_text("x")
        with pytest.raises(OSError):
            atomic_write_text(target, "payload")
        assert list(tmp_path.rglob("*.tmp")) == []


class TestSnapshotStamp:
    def test_same_mtime_rewrite_invalidates_cache(self, tmp_path):
        """The (mtime, size, inode) stamp catches same-mtime replacements."""
        store = ArtifactStore(tmp_path / "store")
        store.put(_artifact(seed=7, p=0.5, label="one"))
        store._maybe_compact(force=True)
        assert dict(store._load_snapshot())  # prime the cache
        stat_before = os.stat(store.index_path)

        # Replace the snapshot with a DIFFERENT one pinned to the same
        # mtime — only size/inode reveal the change.
        empty = json.dumps({"kind": "repro-artifact-store-index", "version": 2,
                            "entries": {}})
        atomic_write_text(store.index_path, empty)
        os.utime(store.index_path,
                 ns=(stat_before.st_mtime_ns, stat_before.st_mtime_ns))

        assert dict(store._load_snapshot()) == {}

    def test_cache_hit_on_unchanged_file(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(_artifact(seed=8, p=0.5, label="one"))
        store._maybe_compact(force=True)
        first = store._load_snapshot()
        assert store._load_snapshot() is first  # served from cache
