"""On-disk, ``np.memmap``-backed cross-process store for simulation physics.

The process-level :data:`~repro.sim.level_cache.LEVEL_CACHE` stops at the
process boundary: every worker of a :class:`~repro.sweep.runner.PoolExecutor`
fleet re-derives per-(group, level) drop/candidate arrays its siblings already
computed.  This module is the cache's pluggable *backend* that crosses that
boundary: entries are serialized once into flat binary files under a shared
directory and attached by every other process as **read-only memory-mapped
views** — the OS page cache makes a fleet share one physical copy.

Layout (one directory per store)::

    index.jsonl    # append-only log: {"version": N} header line, then one
                   # {digest, file, size, kind, meta, arrays[], pid, sha256}
                   # line per published entry
    <digest>.bin   # the entry's arrays, raw C-order bytes, 64-byte aligned
    stats.jsonl    # append-only event log ("store"/"hit" + pid), optional
    .lock          # advisory flock serializing index writers

Consistency model — writers are *publish-only*: a ``.bin`` file is written to
a temp name and atomically renamed, then one index line is appended under an
advisory ``flock`` with a single ``O_APPEND`` write; earlier lines are never
re-read or rewritten, so a publish costs the same however large the index has
grown.  Data files are immutable once indexed.  A writer that died mid-append
leaves a line without its newline; the next writer sees that last byte and
starts on a fresh line, so the torn record cannot swallow the next one.

Readers never lock: each keeps a byte offset into the log and on refresh
parses only the new tail up to its last newline, so a line still being
written is never read.  A log that shrank or was replaced is read again from
the start; a log whose header is not this format's is ignored (and a writer
starts a new one).  A later line for a digest wins over an earlier one — a
racing duplicate, or a republish after a stale or corrupt entry.  Every
lookup re-validates the recorded file size before mapping — an index entry
whose data file is missing, truncated or resized is *stale* and treated as a
miss (correctness never depends on a hit; the engine just recomputes).  Two
processes racing to store the same key write bit-identical bytes (entries
are deterministic), so last-rename-wins is safe.

Keys are the level cache's tuples of primitives, digested via their ``repr``.
Keys carrying a process-local workload identity (the ``("token", n)`` /
``("unshared", ...)`` markers of
:func:`~repro.sim.level_cache.workload_cache_key`) are **refused** — token
numbers collide across processes, and silently sharing them would hand one
workload another's physics.  Sweep-built workloads carry a deterministic
fingerprint instead (``("spec", ...)``) and share freely.

Two value kinds are understood: :class:`~repro.sim.level_cache.LevelEntry`
(drop rows + candidate-failure cycles) and the activity-trace dict
(``{macro_index: trace}``).  Anything else is declined.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..power.vf_table import VFPair
from .level_cache import LevelEntry

try:                                        # POSIX advisory locking
    import fcntl
except ImportError:                         # pragma: no cover - non-POSIX
    fcntl = None

__all__ = ["SharedPhysicsStore", "StoreLockTimeout", "shareable_key"]

logger = logging.getLogger("repro.sim.shared_store")

_ALIGN = 64
_FORMAT_VERSION = 2
#: First line of the index log; a log starting with anything else is foreign.
_LOG_HEADER = (json.dumps({"version": _FORMAT_VERSION}) + "\n").encode()

#: Process-local markers of :func:`~repro.sim.level_cache.workload_cache_key`
#: — meaningless (and colliding) in any other process.
_UNSHAREABLE_TAGS = ("token", "unshared")


def shareable_key(key: Hashable) -> bool:
    """Whether a cache key is safe to share across processes.

    True iff the key is built purely from primitives and carries no
    process-local workload identity marker (see module docstring).
    """
    if isinstance(key, tuple):
        if (len(key) == 2 and isinstance(key[0], str)
                and key[0] in _UNSHAREABLE_TAGS):
            return False
        return all(shareable_key(item) for item in key)
    return isinstance(key, (str, int, float, bool, type(None)))


def _digest(key: Hashable) -> str:
    """Stable content digest of a primitives-only key tuple."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:40]


class StoreLockTimeout(TimeoutError):
    """The store's advisory lock could not be acquired within the timeout.

    A ``TimeoutError`` (hence an ``OSError``): a worker that died while
    holding ``.lock`` releases it with its file descriptors, so a timeout
    here means a *live* holder is wedged — the store degrades (the entry
    stays unpublished) rather than blocking the simulation forever.
    """


class _Flock:
    """Advisory exclusive lock on a file (no-op where flock is unavailable).

    With a ``timeout``, acquisition polls ``LOCK_NB`` and raises
    :class:`StoreLockTimeout` when the deadline passes instead of blocking
    indefinitely on a wedged holder.
    """

    def __init__(self, path: str, timeout: Optional[float] = None) -> None:
        self.path = path
        self.timeout = timeout
        self._handle = None

    def __enter__(self) -> "_Flock":
        if fcntl is None:
            return self
        self._handle = open(self.path, "a")
        if self.timeout is None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            return self
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fcntl.flock(self._handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
                return self
            except OSError:
                if time.monotonic() >= deadline:
                    self._handle.close()
                    self._handle = None
                    raise StoreLockTimeout(
                        f"could not acquire store lock {self.path!r} "
                        f"within {self.timeout}s")
                time.sleep(0.01)

    def __exit__(self, *exc) -> None:
        if self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------- #
# value codecs
# ---------------------------------------------------------------------- #
def _encode(value: object) -> Optional[Tuple[str, Dict, List[Tuple[str, np.ndarray]]]]:
    """``value -> (kind, meta, named arrays)``; None when not understood."""
    if isinstance(value, LevelEntry):
        cand = (np.concatenate(value.fail_cycles).astype(np.int64)
                if value.fail_cycles else np.empty(0, dtype=np.int64))
        offsets = np.zeros(len(value.fail_cycles) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in value.fail_cycles], out=offsets[1:])
        meta = {"pair": [int(value.pair.level), float(value.pair.voltage),
                         float(value.pair.frequency)]}
        return "level", meta, [
            ("drop", np.ascontiguousarray(value.drop_rows)),
            ("cand", np.ascontiguousarray(cand)),
            ("offsets", offsets)]
    if (isinstance(value, dict) and value
            and all(isinstance(k, (int, np.integer)) for k in value)
            and all(isinstance(v, np.ndarray) and v.ndim == 1
                    for v in value.values())):
        macros = sorted(int(k) for k in value)
        traces = np.ascontiguousarray(
            np.vstack([value[m] for m in macros]))
        return "activity", {"macros": macros}, [("traces", traces)]
    return None


def _decode(kind: str, meta: Dict, arrays: Dict[str, np.ndarray]
            ) -> Optional[Tuple[object, int]]:
    """``(kind, meta, named arrays) -> (value, nbytes)``; None when unknown."""
    if kind == "level":
        level, voltage, frequency = meta["pair"]
        drop = arrays["drop"]
        cand = arrays["cand"]
        offsets = arrays["offsets"]
        fail_cycles = [cand[offsets[i]:offsets[i + 1]]
                       for i in range(offsets.size - 1)]
        entry = LevelEntry(
            pair=VFPair(level=int(level), voltage=float(voltage),
                        frequency=float(frequency)),
            drop_rows=drop,
            fail_cycles=fail_cycles)
        return entry, entry.nbytes_estimate()
    if kind == "activity":
        traces = arrays["traces"]
        value = {int(m): traces[i] for i, m in enumerate(meta["macros"])}
        return value, int(traces.nbytes)
    return None


# ---------------------------------------------------------------------- #
# the store
# ---------------------------------------------------------------------- #
class SharedPhysicsStore:
    """A directory of memory-mapped physics entries shared by a process fleet.

    Duck-typed as a :class:`~repro.sim.level_cache.ByteBudgetCache` backend:
    ``load(key) -> Optional[(value, nbytes)]`` and ``store(key, value,
    nbytes) -> bool``.  See the module docstring for the on-disk format and
    the consistency model.  ``record_events=True`` (default) appends one line
    per store/cross-load to ``stats.jsonl`` (lock-free ``O_APPEND``; one line
    per entry per process at most) so benchmarks and tests can count
    *cross-worker* reuse after the fleet is gone; pass ``False`` — also
    accepted by :func:`~repro.sim.level_cache.attach_shared_store` — for
    long-lived persistent stores that do not need the audit trail.
    """

    def __init__(self, directory: str, record_events: bool = True,
                 lock_timeout: Optional[float] = 10.0) -> None:
        self.directory = directory
        self.record_events = record_events
        self.lock_timeout = lock_timeout
        self.degraded = False
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as error:
            # Unwritable store root: degrade to the process-local cache —
            # every load misses and every store fails (counted), the
            # simulation itself is unaffected.
            self.degraded = True
            logger.warning("shared store directory %r unusable (%s); "
                           "degrading to process-local caching only",
                           directory, error)
        self._index_path = os.path.join(directory, "index.jsonl")
        self._lock_path = os.path.join(directory, ".lock")
        self._events_path = os.path.join(directory, "stats.jsonl")
        self._index: Dict[str, Dict] = {}
        #: (inode, bytes consumed) of the index log read so far, and whether
        #: that log's header named another format (its lines are ignored).
        self._log_inode: Optional[int] = None
        self._log_offset = 0
        self._log_foreign = False
        #: digests this instance already logged per event kind — one audit
        #: line per (entry, process) even when an oversized-for-memory entry
        #: is re-loaded on every get.
        self._logged: Dict[str, set] = {"hit": set(), "store": set()}
        #: digests whose on-disk bytes this process already checksum-verified
        #: — verification is once per (entry, process), not per load.
        self._verified: set = set()
        self.loads = 0
        self.load_hits = 0
        self.stores = 0
        self.rejected_keys = 0
        self.stale_rejected = 0
        self.corrupt_rejected = 0
        self.load_errors = 0
        self.store_errors = 0
        self.event_log_errors = 0
        self.lock_timeouts = 0

    # ------------------------------------------------------------------ #
    # index handling
    # ------------------------------------------------------------------ #
    def _refresh_index(self) -> None:
        """Fold the index log's new complete lines into ``self._index``.

        Reads only the bytes past the consumed offset and consumes them up
        to the last newline, leaving a line still being appended for a later
        refresh.  A log that shrank or was replaced (new inode) is read again
        from the start.
        """
        try:
            stat = os.stat(self._index_path)
            if (stat.st_ino, stat.st_size) == (self._log_inode,
                                               self._log_offset):
                return
            with open(self._index_path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                if (stat.st_ino != self._log_inode
                        or stat.st_size < self._log_offset):
                    self._index = {}
                    self._log_inode = stat.st_ino
                    self._log_offset = 0
                    self._log_foreign = False
                handle.seek(self._log_offset)
                tail = handle.read(stat.st_size - self._log_offset)
        except FileNotFoundError:
            return
        end = tail.rfind(b"\n") + 1
        lines = tail[:end].splitlines(keepends=True)
        if self._log_offset == 0 and lines:
            self._log_foreign = lines.pop(0) != _LOG_HEADER
        self._log_offset += end
        if self._log_foreign:
            return
        for line in lines:
            try:
                record = json.loads(line)
                digest = record.pop("digest")
            except (ValueError, AttributeError, KeyError, TypeError):
                continue        # a torn line that a later writer fenced off
            self._index[digest] = record

    def _append_index_line(self, line: bytes) -> None:
        """Append one ``\\n``-terminated record to the index log.

        The caller holds the store lock, so the log's last byte is stable:
        when a writer died mid-append it is not a newline, and this line
        starts on a fresh one.  The log is created with its header; a log
        with another format's header is unlinked and started anew (readers
        see the new inode) rather than appended to.
        """
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        while True:
            fd = os.open(self._index_path, flags, 0o644)
            try:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, len(_LOG_HEADER), 0) != _LOG_HEADER:
                    os.unlink(self._index_path)
                    continue
                if size == 0:
                    line = _LOG_HEADER + line
                elif os.pread(fd, 1, size - 1) != b"\n":
                    line = b"\n" + line
                if os.write(fd, line) != len(line):
                    raise OSError("short write to the shared store index")
                return
            finally:
                os.close(fd)

    def _log_event(self, event: str, digest: str) -> None:
        if not self.record_events:
            return
        logged = self._logged[event]
        if digest in logged:
            return                          # bounded: one line per entry
        logged.add(digest)
        # Lock-free: O_APPEND writes of one short line are atomic on POSIX,
        # so concurrent workers interleave whole lines.  With the dedup
        # above, volume is bounded by (entries x processes).
        line = json.dumps({"event": event, "digest": digest,
                           "pid": os.getpid()})
        try:
            with open(self._events_path, "a") as handle:
                handle.write(line + "\n")
        except OSError:                     # audit is never worth a crash —
            self.event_log_errors += 1      # but a sick log must be visible
            logged.discard(digest)          # retry the line on the next event

    def read_events(self) -> List[Dict]:
        """All logged store/hit events (for cross-worker reuse accounting)."""
        try:
            with open(self._events_path) as handle:
                return [json.loads(line) for line in handle if line.strip()]
        except FileNotFoundError:
            return []

    def cross_worker_hits(self) -> int:
        """Loads served to a process that never stored that entry itself.

        Racing writers may both publish one digest (permitted — identical
        bytes); a later hit by either of them is *not* cross-worker, so the
        check is membership in the full storer set, not the last storer.
        """
        events = self.read_events()
        stored_by: Dict[str, set] = {}
        for event in events:
            if event["event"] == "store":
                stored_by.setdefault(event["digest"], set()).add(event["pid"])
        return sum(1 for e in events if e["event"] == "hit"
                   and e["digest"] in stored_by
                   and e["pid"] not in stored_by[e["digest"]])

    def _published(self, digest: str) -> bool:
        """Whether the index lists ``digest`` *and* its data file is intact.

        An index record whose data file vanished or changed size is stale —
        treating it as published would permanently suppress re-publication
        (the disk index can outlive a deleted ``.bin`` under concurrent
        writers), so staleness here means "not published, write it again".
        """
        record = self._index.get(digest)
        if record is None:
            return False
        path = os.path.join(self.directory, record["file"])
        try:
            return os.path.getsize(path) == record["size"]
        except OSError:
            return False

    # ------------------------------------------------------------------ #
    # backend protocol
    # ------------------------------------------------------------------ #
    def load(self, key: Hashable) -> Optional[Tuple[object, int]]:
        """Attach an entry as read-only views; None on miss or stale index.

        Best-effort by contract: any I/O failure (store directory removed
        mid-sweep, permissions, ENOSPC on the audit log) degrades to a miss
        — the engine just recomputes — never to a crashed run.  Swallowed
        failures are counted in ``stats()["load_errors"]``.
        """
        if self.degraded:
            return None
        try:
            return self._load(key)
        except (OSError, ValueError, KeyError, TypeError) as error:
            # OSError: directory/file gone or unreadable; ValueError/KeyError/
            # TypeError: a corrupt index record that survived the size check
            # (np.dtype raises TypeError on a garbage dtype string).
            self.load_errors += 1
            logger.debug("shared store load failed for %r: %r", key, error)
            return None

    def _load(self, key: Hashable) -> Optional[Tuple[object, int]]:
        if not shareable_key(key):
            return None
        self.loads += 1
        digest = _digest(key)
        record = self._index.get(digest)
        if record is None:
            self._refresh_index()
            record = self._index.get(digest)
            if record is None:
                return None
        path = os.path.join(self.directory, record["file"])
        try:
            if os.path.getsize(path) != record["size"]:
                raise OSError("size mismatch")
            mm = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError):
            # Stale index: the data file vanished or changed size after the
            # index snapshot was taken.  Reject the entry and miss.
            self._index.pop(digest, None)
            self.stale_rejected += 1
            return None
        checksum = record.get("sha256")
        if checksum is not None and digest not in self._verified:
            if hashlib.sha256(mm).hexdigest() != checksum:
                # Damaged bytes behind an intact size: quarantine the file
                # (rename for post-mortem) so ``_published`` turns false and
                # the entry can be re-derived and republished.  Correctness
                # never depended on the hit — this is a miss, not an error.
                self._quarantine(digest, path)
                return None
            self._verified.add(digest)
        arrays: Dict[str, np.ndarray] = {}
        for spec in record["arrays"]:
            shape = tuple(spec["shape"])
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            arr = np.frombuffer(mm, dtype=dtype, count=count,
                                offset=spec["offset"]).reshape(shape)
            arrays[spec["name"]] = arr      # read-only view of the memmap
        decoded = _decode(record["kind"], record["meta"], arrays)
        if decoded is None:
            return None
        self.load_hits += 1
        self._log_event("hit", digest)
        return decoded

    def _quarantine(self, digest: str, path: str) -> None:
        """Take a checksum-failed data file out of service, keeping evidence."""
        self.corrupt_rejected += 1
        self._index.pop(digest, None)
        self._verified.discard(digest)
        logger.warning("shared store entry %s failed its checksum; "
                       "quarantining %s for re-derivation", digest, path)
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)             # rename failed: at least unpublish
            except OSError:
                pass

    def store(self, key: Hashable, value: object, nbytes: int) -> bool:
        """Publish an entry (idempotent; refuses process-local keys).

        Best-effort like :meth:`load`: publication failures (directory gone,
        ENOSPC, permissions, a wedged ``.lock`` holder) report ``False``
        instead of raising into the simulation — the fleet just loses sharing
        for that entry.  Swallowed failures are counted in
        ``stats()["store_errors"]`` (lock timeouts additionally in
        ``stats()["lock_timeouts"]``).
        """
        if self.degraded:
            self.store_errors += 1
            return False
        try:
            return self._store(key, value, nbytes)
        except StoreLockTimeout as error:
            self.lock_timeouts += 1
            self.store_errors += 1
            logger.warning("shared store publish skipped: %s", error)
            return False
        except OSError as error:
            self.store_errors += 1
            logger.debug("shared store publish failed for %r: %r", key, error)
            return False

    def _store(self, key: Hashable, value: object, nbytes: int) -> bool:
        if not shareable_key(key):
            self.rejected_keys += 1
            return False
        encoded = _encode(value)
        if encoded is None:
            return False
        digest = _digest(key)
        if not self._published(digest):
            self._refresh_index()
        if self._published(digest):
            # Already on disk — but this process still *derived* the entry
            # (puts only follow computation), so record it as a storer:
            # its own later disk reloads are not cross-worker reuse.
            self._log_event("store", digest)
            return True
        kind, meta, named_arrays = encoded

        specs: List[Dict] = []
        chunks: List[bytes] = []
        offset = 0
        for name, array in named_arrays:
            pad = (-offset) % _ALIGN
            if pad:
                chunks.append(b"\x00" * pad)
                offset += pad
            raw = array.tobytes()
            specs.append({"name": name, "dtype": array.dtype.str,
                          "shape": list(array.shape), "offset": offset})
            chunks.append(raw)
            offset += len(raw)
        blob = b"".join(chunks)

        file_name = digest + ".bin"
        final_path = os.path.join(self.directory, file_name)
        fd, tmp_path = tempfile.mkstemp(dir=self.directory,
                                        prefix=".tmp-" + digest[:8])
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, final_path)
        except OSError as error:
            self.store_errors += 1
            logger.debug("shared store blob write failed for %s: %r",
                         digest, error)
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        # Chaos-harness hook (no-op unarmed): damage the published bytes the
        # way a disk fault would, *after* the atomic rename — the checksum
        # verification on load is what must catch it.
        from ..sweep.faults import store_fault
        store_fault(final_path)

        record = {"file": file_name, "size": len(blob), "kind": kind,
                  "meta": meta, "arrays": specs, "pid": os.getpid(),
                  "sha256": hashlib.sha256(blob).hexdigest()}
        line = json.dumps({"digest": digest, **record}) + "\n"
        with _Flock(self._lock_path, timeout=self.lock_timeout):
            self._append_index_line(line.encode())
        self._index[digest] = record
        self.stores += 1
        self._log_event("store", digest)
        return True

    def kind_counts(self) -> Dict[str, int]:
        """Published entry counts by kind (``"level"`` / ``"activity"``).

        Lets benchmarks and tests assert that a specific physics family —
        e.g. the ``"model"`` builder's compiled-chip activity traces —
        actually crossed the process boundary, not just the level entries.
        """
        self._refresh_index()
        counts: Dict[str, int] = {}
        for record in self._index.values():
            kind = record.get("kind", "unknown")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def stats(self) -> Dict[str, int]:
        if not self.degraded:
            self._refresh_index()
        return {
            "directory": self.directory,
            "entries": len(self._index),
            "loads": self.loads,
            "load_hits": self.load_hits,
            "stores": self.stores,
            "rejected_keys": self.rejected_keys,
            "stale_rejected": self.stale_rejected,
            "corrupt_rejected": self.corrupt_rejected,
            "load_errors": self.load_errors,
            "store_errors": self.store_errors,
            "event_log_errors": self.event_log_errors,
            "lock_timeouts": self.lock_timeouts,
            "degraded": self.degraded,
        }
