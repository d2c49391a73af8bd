"""Content-addressed, filesystem-backed store of experiment artifacts.

The sweep orchestrator never recomputes a result it already has.  That
promise lives here: every :class:`~repro.api.artifact.ExperimentArtifact` is
stored under a *content key* — the SHA-256 of the canonical JSON of

* the spec name,
* the fully resolved experiment parameters,
* the numeric-identity fields of the
  :class:`~repro.api.execution.ExecutionConfig` (seed, repetitions, scale;
  engine and checkpoint knobs are excluded because campaigns are
  bit-identical across engines), and
* a fingerprint of the ``repro`` source tree
  (:func:`~repro.store.fingerprint.code_fingerprint`), so editing any code
  invalidates the cache automatically.

Layout on disk::

    <root>/
        index.json                  # compacted snapshot: digest -> metadata
        index.d/<digest>.json       # per-entry journal records (see below)
        index.lock                  # advisory lock serializing compaction
        objects/<aa>/<digest>.json  # full artifact JSON (provenance intact)

**Multi-writer index design.**  The store is safe for any number of
concurrent writer processes (a pooled sweep's workers all write to one
store root).  Object puts were always conflict-free —
content-addressed filenames plus atomic replace — but a single shared
``index.json`` would lose entries to read-modify-write races.  Instead,
``put()`` appends one *journal* file per entry under ``index.d/`` (an
atomic, single-writer create; two writers never touch the same journal
file unless they computed the same artifact, in which case the records are
identical).  Readers merge the ``index.json`` snapshot with every journal
record, journal winning.  When the journal grows past a threshold, whoever
notices compacts it into the snapshot under a non-blocking advisory lock
(``index.lock``); losing the lock race just means someone else is already
compacting.  An entry is therefore visible to every process from the
moment its journal file lands, and no interleaving of writers can drop it.

**Crash safety.**  Object and journal writes go through a same-directory
temp file that is flushed and fsync'd before an atomic ``os.replace``
(followed by an fsync of the parent directory), so a killed process can
never leave a half-written or empty object behind — at worst a stale
``*.tmp`` file, which ``_rebuild_index`` and ``evict`` sweep once it is
old enough to be provably orphaned.  Each object additionally embeds a
``store`` envelope recording its own digest and creation time: rebuilds
verify the digest against the filename (a copied or renamed object file is
skipped with a warning rather than served under the wrong key) and
preserve the original creation order.

The object files are the source of truth; ``index.json`` + ``index.d/``
are a queryable summary that is rebuilt by scanning ``objects/`` whenever
the snapshot is missing or unreadable.

The ``cache`` policy threaded through :func:`repro.api.run` maps onto the
store as:

========== =============================================================
``reuse``   return the stored artifact when the key exists, else run+put
``refresh`` always run, overwrite whatever the key held
``off``     never touch the store (the historical behaviour)
========== =============================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

try:  # advisory file locking: POSIX only; degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.api.artifact import ExperimentArtifact
from repro.api.execution import ExecutionConfig
from repro.io.atomic import _fsync_dir, atomic_write_text
from repro.io.sanitize import canonical_json, json_ready
from repro.store.fingerprint import code_fingerprint
from repro.telemetry.bus import default_bus
from repro.telemetry.events import StoreEvict, StoreHit, StoreMiss, StorePut

__all__ = [
    "CACHE_POLICIES",
    "STORE_ENV_VAR",
    "ArtifactStore",
    "StoreEntry",
    "artifact_key",
    "default_store_root",
    "resolve_store",
    "validate_cache_policy",
]

#: Valid values for the ``cache=`` policy accepted by ``api.run`` / ``api.sweep``.
CACHE_POLICIES = ("reuse", "refresh", "off")

#: Environment variable selecting the default store root directory.
STORE_ENV_VAR = "REPRO_STORE_DIR"

_INDEX_KIND = "repro-artifact-store-index"

#: Journal size at which ``put()`` folds ``index.d/`` into ``index.json``.
_COMPACT_THRESHOLD = 32

#: Age (seconds) past which an orphaned ``*.tmp`` file is provably stale: no
#: healthy writer holds a temp file open this long, so the sweep can never
#: delete a file another process is still writing.
_STALE_TMP_AGE_S = 3600.0

#: Bounded retries when a concurrent writer replaces ``index.json`` mid-read.
_SNAPSHOT_READ_RETRIES = 8


def validate_cache_policy(policy: str) -> str:
    """Check a ``cache=`` policy string, returning it unchanged."""
    if policy not in CACHE_POLICIES:
        raise ValueError(f"cache must be one of {CACHE_POLICIES}, got {policy!r}")
    return policy


def default_store_root() -> Path:
    """Default store directory: ``REPRO_STORE_DIR`` or ``.repro-store``."""
    return Path(os.environ.get(STORE_ENV_VAR, ".repro-store"))


def resolve_store(store: Union["ArtifactStore", str, os.PathLike, None]) -> "ArtifactStore":
    """Coerce a store argument (instance, path, or ``None`` for the default)."""
    if isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(default_store_root() if store is None else store)


def artifact_key(
    spec_name: str,
    params: Mapping[str, Any],
    execution: ExecutionConfig,
    fingerprint: Optional[str] = None,
) -> str:
    """Content key of one experiment invocation (SHA-256 hex digest).

    Pure function of the *semantic* identity of a run: parameter dict
    ordering, numpy scalar types and the execution engine all wash out, so
    the same experiment asked for twice — by any engine, in any order —
    lands on the same key.
    """
    payload = {
        "spec": spec_name,
        "params": params,
        "execution": execution.cache_key_dict(),
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class StoreEntry:
    """One index record: the key plus enough metadata to query without loads."""

    digest: str
    spec_name: str
    params: Dict[str, Any]
    execution_key: Dict[str, Any]
    created_at: float
    wall_time_s: float

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec_name,
            "params": self.params,
            "execution_key": self.execution_key,
            "created_at": self.created_at,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_json_dict(cls, digest: str, data: Mapping[str, Any]) -> "StoreEntry":
        return cls(
            digest=digest,
            spec_name=str(data["spec"]),
            params=dict(data["params"]),
            execution_key=dict(data.get("execution_key") or {}),
            created_at=float(data.get("created_at", 0.0)),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
        )


class _IndexLock:
    """Advisory lock serializing snapshot compaction and eviction.

    Only *optimizations* hide behind it (compacting the journal, rewriting
    the snapshot during evict); correctness of concurrent ``put()`` never
    depends on holding it.  On platforms without ``fcntl`` the lock is a
    no-op, which degrades compaction to last-writer-wins on the snapshot —
    still safe, because journal files are only deleted by the process that
    merged them and the object files remain the source of truth.
    """

    def __init__(self, path: Path, blocking: bool) -> None:
        self.path = path
        self.blocking = blocking
        self._fd: Optional[int] = None

    def __enter__(self) -> bool:
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        flags = fcntl.LOCK_EX if self.blocking else fcntl.LOCK_EX | fcntl.LOCK_NB
        try:
            fcntl.flock(fd, flags)
        except OSError:
            os.close(fd)
            return False  # someone else is compacting; skip
        self._fd = fd
        return True

    def __exit__(self, *exc_info: Any) -> None:
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
            self._fd = None


class ArtifactStore:
    """Filesystem-backed, content-addressed cache of experiment artifacts.

    Safe for concurrent readers *and* writers on one root directory: see
    the module docstring for the journal-merge index design.
    """

    #: Journal entries tolerated before ``put()`` attempts a compaction.
    compact_threshold = _COMPACT_THRESHOLD

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        # In-memory cache of the *snapshot* (index.json) only, validated
        # against an (mtime_ns, size, inode) stamp so a long sweep does not
        # re-parse a large snapshot on every query while still seeing
        # replacements made by other processes.  Journal records are always
        # read fresh — compaction keeps their number small.
        self._snapshot_cache: Optional[Dict[str, Dict[str, Any]]] = None
        self._snapshot_stamp: Optional[Tuple[int, int, int]] = None
        # Lifetime operation counters for *this* store instance.  Always
        # maintained (they are plain integer bumps); the matching telemetry
        # events are only emitted when a bus subscriber is attached.
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    # -- paths ----------------------------------------------------------- #
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def journal_dir(self) -> Path:
        return self.root / "index.d"

    @property
    def lock_path(self) -> Path:
        return self.root / "index.lock"

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def object_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}.json"

    def journal_path(self, digest: str) -> Path:
        return self.journal_dir / f"{digest}.json"

    # -- snapshot -------------------------------------------------------- #
    @staticmethod
    def _stamp(stat: os.stat_result) -> Tuple[int, int, int]:
        # mtime alone is not enough: two replacements within one mtime_ns
        # granularity tick (coarse filesystems) would alias, so the stamp
        # also carries size and inode (os.replace always changes the inode).
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def _load_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The ``index.json`` entries, cached under a replace-proof stamp.

        The file is stat'd *before and after* reading: a concurrent writer
        replacing it mid-read changes the stamp, in which case the read is
        retried rather than poisoning the cache with a torn view.  A
        missing or unreadable snapshot falls back to a rebuild from the
        object files.
        """
        for _ in range(_SNAPSHOT_READ_RETRIES):
            try:
                before = self._stamp(os.stat(self.index_path))
            except OSError:
                break  # missing: rebuild below
            if self._snapshot_cache is not None and before == self._snapshot_stamp:
                return self._snapshot_cache
            try:
                text = self.index_path.read_text()
                after = self._stamp(os.stat(self.index_path))
            except OSError:
                continue  # replaced or removed mid-read; retry
            if after != before:
                continue  # torn read; retry against the new file
            try:
                data = json.loads(text)
                if data.get("kind") != _INDEX_KIND:
                    raise ValueError(f"not a store index: {self.index_path}")
                entries = dict(data.get("entries") or {})
            except (json.JSONDecodeError, ValueError, KeyError):
                break  # unreadable snapshot: rebuild from the object files
            self._snapshot_cache, self._snapshot_stamp = entries, after
            return entries
        entries = self._rebuild_index()
        if entries or self.root.exists():
            self._save_snapshot(entries)
        return entries

    def _save_snapshot(self, entries: Dict[str, Dict[str, Any]]) -> None:
        payload = json.dumps(
            json_ready({"kind": _INDEX_KIND, "version": 2, "entries": entries}),
            indent=2,
            sort_keys=True,
        )
        atomic_write_text(self.index_path, payload)
        # Never stamp our own write: a concurrent writer may have replaced
        # the file already, and pairing our entries with its stamp would
        # serve a stale cache.  The next load re-reads and re-stamps.
        self._snapshot_cache, self._snapshot_stamp = None, None

    # -- journal --------------------------------------------------------- #
    def _journal_entries(self) -> Dict[str, Dict[str, Any]]:
        """Every parseable journal record, keyed by digest."""
        entries: Dict[str, Dict[str, Any]] = {}
        try:
            names = sorted(os.listdir(self.journal_dir))
        except OSError:
            return entries
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                data = json.loads((self.journal_dir / name).read_text())
            except (OSError, json.JSONDecodeError, ValueError):
                continue  # vanished under compaction, or never completed
            if isinstance(data, dict):
                entries[name[: -len(".json")]] = data
        return entries

    def _maybe_compact(self, force: bool = False) -> None:
        """Fold the journal into the snapshot when it has grown enough.

        Runs under a *non-blocking* advisory lock: losing the race simply
        means another process is compacting the same records.  Only the
        journal files actually merged are deleted, so a record landing
        mid-compaction survives in the journal untouched.
        """
        try:
            pending = sum(1 for n in os.listdir(self.journal_dir) if n.endswith(".json"))
        except OSError:
            pending = 0
        if not force and pending < self.compact_threshold:
            return
        with _IndexLock(self.lock_path, blocking=False) as acquired:
            if not acquired:
                return
            journal = self._journal_entries()
            merged = dict(self._load_snapshot())
            merged.update(journal)
            self._save_snapshot(merged)
            for digest in journal:
                try:
                    os.unlink(self.journal_path(digest))
                except OSError:
                    pass

    # -- index ----------------------------------------------------------- #
    def _load_index(self) -> Dict[str, Dict[str, Any]]:
        """The merged view: snapshot overlaid with journal records."""
        entries = dict(self._load_snapshot())
        entries.update(self._journal_entries())
        return entries

    def _sweep_stale_tmp(self, max_age_s: float = _STALE_TMP_AGE_S) -> int:
        """Remove ``*.tmp`` files orphaned by killed writers; returns count.

        Only files older than ``max_age_s`` go — a younger temp file may
        still be open in a live writer about to ``os.replace`` it.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        cutoff = time.time() - max_age_s
        for path in self.root.rglob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue  # raced with its writer or another sweeper
        return removed

    def _rebuild_index(self) -> Dict[str, Dict[str, Any]]:
        """Reconstruct index metadata by scanning ``objects/``.

        Every object verifies against its filename before being indexed:
        the digest recorded in the object's ``store`` envelope (or, for
        objects predating the envelope, the recomputed
        :func:`artifact_key`) must equal the filename stem.  A copied or
        renamed object file therefore gets skipped with a warning instead
        of being served under the wrong key.  Creation times come from the
        envelope, so entry ordering survives a rebuild.
        """
        self._sweep_stale_tmp()
        entries: Dict[str, Dict[str, Any]] = {}
        objects = self.objects_dir
        if not objects.is_dir():
            return entries
        for path in sorted(objects.glob("*/*.json")):
            digest = path.stem
            try:
                data = json.loads(path.read_text())
                artifact = ExperimentArtifact.from_json_dict(data)
            except (ValueError, KeyError, TypeError, json.JSONDecodeError, OSError):
                continue  # corrupt object: skip, never serve
            envelope = data.get("store") if isinstance(data.get("store"), dict) else {}
            recorded = envelope.get("digest")
            if recorded is None:
                recorded = artifact_key(artifact.spec_name, artifact.params, artifact.execution)
            if recorded != digest:
                warnings.warn(
                    f"artifact store object {path} does not verify: recorded key "
                    f"{recorded[:12]}... != filename {digest[:12]}... (copied or "
                    "renamed object file?); skipping",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            created_at = envelope.get("created_at")
            entries[digest] = StoreEntry(
                digest=digest,
                spec_name=artifact.spec_name,
                params=dict(artifact.params),
                execution_key=artifact.execution.cache_key_dict(),
                created_at=float(created_at) if created_at is not None else path.stat().st_mtime,
                wall_time_s=artifact.wall_time_s,
            ).to_json_dict()
        return entries

    # -- core operations -------------------------------------------------- #
    def contains(self, digest: str) -> bool:
        """Whether an object for ``digest`` exists on disk."""
        return self.object_path(digest).is_file()

    def get(self, digest: str) -> Optional[ExperimentArtifact]:
        """Load the artifact stored under ``digest``; ``None`` on a miss.

        An unreadable object file counts as a miss (the caller recomputes
        and overwrites it) rather than an error — a half-corrupted cache
        must never block an experiment.  Safe against concurrent ``put()``
        and ``evict()``: object replacement is atomic and removal surfaces
        as an ordinary miss.
        """
        path = self.object_path(digest)
        bus = default_bus()
        try:
            payload = path.read_text()
        except OSError:
            self.misses += 1  # missing, or evicted between any check and the read
            if bus.active:
                bus.emit(StoreMiss(digest=digest))
            return None
        try:
            artifact = ExperimentArtifact.from_json_dict(json.loads(payload))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            self.misses += 1
            if bus.active:
                bus.emit(StoreMiss(digest=digest))
            return None
        self.hits += 1
        if bus.active:
            bus.emit(StoreHit(digest=digest))
        return artifact

    def put(
        self, artifact: ExperimentArtifact, digest: Optional[str] = None
    ) -> StoreEntry:
        """Store an artifact under its content key (computed if not given).

        The artifact JSON round-trips with full provenance — loading the
        entry back yields an ``ExperimentArtifact`` whose ``to_json_dict()``
        equals the original's exactly.  Concurrency-safe: the object write
        is atomic and content-addressed, and the index entry is a private
        journal file rather than a read-modify-write of shared state, so
        parallel writers never lose each other's entries.
        """
        if digest is None:
            digest = artifact_key(artifact.spec_name, artifact.params, artifact.execution)
        created_at = time.time()
        payload = artifact.to_json_dict()
        # The envelope is store metadata, ignored by ExperimentArtifact
        # loading: the object's own key (verified on rebuild) and its
        # creation time (so rebuilds preserve entry ordering).
        payload["store"] = {"digest": digest, "created_at": created_at}
        atomic_write_text(
            self.object_path(digest), json.dumps(payload, indent=2, default=float)
        )
        entry = StoreEntry(
            digest=digest,
            spec_name=artifact.spec_name,
            params=json_ready(dict(artifact.params)),
            execution_key=artifact.execution.cache_key_dict(),
            created_at=created_at,
            wall_time_s=artifact.wall_time_s,
        )
        atomic_write_text(
            self.journal_path(digest),
            json.dumps(json_ready(entry.to_json_dict()), sort_keys=True),
        )
        # Materialize the snapshot on first contact so `index.json` always
        # exists alongside objects; afterwards only threshold compactions
        # rewrite it.
        self._maybe_compact(force=not self.index_path.exists())
        self.puts += 1
        bus = default_bus()
        if bus.active:
            bus.emit(StorePut(digest=digest))
        return entry

    def entries(self) -> List[StoreEntry]:
        """Every index entry, ordered by creation time then digest."""
        entries = [
            StoreEntry.from_json_dict(digest, data)
            for digest, data in self._load_index().items()
        ]
        return sorted(entries, key=lambda e: (e.created_at, e.digest))

    def query(self, spec: Optional[str] = None, **params: Any) -> List[StoreEntry]:
        """Index entries matching a spec name and/or exact parameter values.

        ``store.query("fig5.inference", approach="nn")`` returns every cached
        fig5 NN artifact regardless of seed or repetition count.
        """
        matched = []
        wanted = json_ready(params)
        for entry in self.entries():
            if spec is not None and entry.spec_name != spec:
                continue
            if all(entry.params.get(key) == value for key, value in wanted.items()):
                matched.append(entry)
        return matched

    def evict(self, digest: Optional[str] = None, *, spec: Optional[str] = None) -> int:
        """Remove entries: one digest, every entry of a spec, or everything.

        Returns the number of objects removed.  With neither ``digest`` nor
        ``spec`` the whole store is cleared.  Runs under the advisory index
        lock so an eviction and a compaction never interleave their
        snapshot rewrites; stale ``*.tmp`` litter is swept on the way.
        """
        with _IndexLock(self.lock_path, blocking=True):
            entries = self._load_index()
            if digest is not None:
                doomed = [digest] if digest in entries or self.contains(digest) else []
            elif spec is not None:
                doomed = [d for d, data in entries.items() if data.get("spec") == spec]
            else:
                doomed = list(entries)
            removed = 0
            bus = default_bus()
            for d in doomed:
                entries.pop(d, None)
                try:
                    os.unlink(self.journal_path(d))
                except OSError:
                    pass
                path = self.object_path(d)
                if path.is_file():
                    path.unlink()
                    removed += 1
                    self.evictions += 1
                    if bus.active:
                        bus.emit(StoreEvict(digest=d))
            self._save_snapshot(entries)
            self._sweep_stale_tmp()
        return removed

    def counters_dict(self) -> Dict[str, int]:
        """This instance's lifetime operation counters, JSON-ready."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return len(self._load_index())

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"
