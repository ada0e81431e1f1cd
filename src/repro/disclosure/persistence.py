"""Fingerprint persistence, encryption at rest, and retention (§4.4).

"Storing fingerprints long-term to facilitate disclosure calculations
(e.g. DBpar) can introduce an additional attack target if a device gets
compromised. To mitigate this we recommend encrypting all fingerprint
data at rest and performing periodic removal of old fingerprints."

This module implements exactly that: JSON snapshots of a
:class:`~repro.disclosure.engine.DisclosureEngine` (both databases,
with first-seen timestamps preserved so authoritative ownership
survives a restart), optional encryption with the deployment's
:class:`~repro.plugin.crypto.UploadCipher`, and an expiry sweep that
drops segments not updated since a cutoff.

Format version 2 stores one self-contained entry per segment and
nothing per hash: restore derives the hash database from each
segment's first-seen groups in one bulk load (see
:func:`snapshot_engine`, :func:`restore_into`; DESIGN.md §14).

Snapshot writes are atomic: the payload goes to a temp file in the
target directory, is fsynced, and is then ``os.replace``d over the
destination, so a reader never sees a torn snapshot — a crash mid-write
leaves the previous snapshot intact. Crash points can be injected
deterministically through a :class:`~repro.util.faults.FaultInjector`
(see :func:`save_engine`), which is how the regression tests kill the
writer at arbitrary byte positions without sleeps or subprocesses.

Corrupt snapshots surface as :class:`~repro.errors.SnapshotCorrupt`
(a :class:`~repro.errors.DisclosureError`) with a message naming the
file and the failure, never as a raw ``JSONDecodeError`` or
``KeyError`` traceback.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Dict, List, Optional

from repro.disclosure.engine import DisclosureEngine
from repro.disclosure.store import SegmentRecord
from repro.errors import DisclosureError, SimulatedCrash, SnapshotCorrupt
from repro.fingerprint import Fingerprint, FingerprintConfig
from repro.plugin.crypto import UploadCipher
from repro.util.clock import Clock, LogicalClock
from repro.util.faults import FaultInjector


def _max_timestamp(data: dict) -> float:
    """Largest timestamp anywhere in a snapshot (0.0 when empty)."""
    latest = 0.0
    for entry in data.get("segments", ()):
        latest = max(latest, entry.get("last_updated", 0.0))
        for first_seen, _hashes in entry.get("first_seen", ()):
            latest = max(latest, first_seen)
    return latest


#: Snapshot format version; bump on incompatible changes. Other
#: versions, version 1 included, are refused rather than converted.
SNAPSHOT_VERSION = 2


def _check_version(data: dict, where: str = "") -> None:
    """Refuse another format version; :func:`read_snapshot` and
    :func:`restore_engine`, the two ways snapshots come in, both call
    this (``DurableEngine`` reads before it opens any log)."""
    if data.get("version") != SNAPSHOT_VERSION:
        raise DisclosureError(
            f"unsupported snapshot version {data.get('version')!r}{where} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )


def _first_seen_groups(first_seen: Dict[int, float]) -> list:
    """``[[timestamp, [hash, …]], …]``: ascending times, sorted hashes."""
    groups: Dict[float, List[int]] = {}
    for hash_value, timestamp in first_seen.items():
        groups.setdefault(timestamp, []).append(hash_value)
    return [[ts, sorted(groups[ts])] for ts in sorted(groups)]


def snapshot_engine(
    engine: DisclosureEngine,
    *,
    wal_lsn: Optional[int] = None,
    wal_shards: Optional[int] = None,
) -> dict:
    """Serialise an engine's databases to a JSON-compatible dict.

    Each segment entry is self-contained: its record fields, its
    selections as one flat ``[value, start, end, …]`` list, and
    ``first_seen``, the hashes it observes grouped by first-seen time.
    Nothing is stored per hash: a segment observes exactly its
    fingerprint's hashes (the engine's cross-database invariant), so
    the first-seen groups of all segments are the whole hash database.

    *wal_lsn*, when given, records the last WAL log sequence number
    folded into this snapshot; recovery replays only records beyond it
    (see :mod:`repro.disclosure.wal`). *wal_shards* records the WAL
    set's shard count, so recovery opens every ``wal.<i>.log`` file the
    deployment wrote instead of silently dropping the ones a wrong
    shard count would not look for.
    """
    config = engine.config
    first_seen_of = engine.hash_db.first_seen_of
    segments = []
    for record in engine.segment_db:
        segments.append(
            {
                "id": record.segment_id,
                "threshold": record.threshold,
                "kind": record.kind,
                "doc_id": record.doc_id,
                "last_updated": record.last_updated,
                "selections": list(record.fingerprint.flat_selections),
                "first_seen": _first_seen_groups(
                    first_seen_of(record.segment_id)
                ),
            }
        )
    # Owner epochs are history-dependent (a claim/release counter), so
    # the bulk load at restore cannot reproduce them; persist the
    # counters themselves. Restore requires both fields.
    epochs, changes = engine.hash_db.ownership_meta()
    data = {
        "version": SNAPSHOT_VERSION,
        "config": {
            "ngram_size": config.ngram_size,
            "window_size": config.window_size,
            "hash_bits": config.hash_bits,
        },
        "authoritative": engine._authoritative,
        "kind": engine._kind,
        "segments": segments,
        "owner_epochs": {k: v for k, v in epochs.items() if v},
        "ownership_changes": changes,
    }
    if wal_lsn is not None:
        data["wal_lsn"] = wal_lsn
    if wal_shards is not None:
        data["wal_shards"] = wal_shards
    return data


def restore_engine(
    data: dict, *, clock: Optional[Clock] = None
) -> DisclosureEngine:
    """Rebuild an engine from a snapshot dict.

    First-seen timestamps are restored verbatim, so the earliest-owner
    relation — and therefore every disclosure decision — is identical
    to the engine that was saved. Malformed snapshot dicts raise
    :class:`~repro.errors.SnapshotCorrupt` naming the defect.
    """
    if not isinstance(data, dict):
        raise SnapshotCorrupt(
            f"snapshot root must be a JSON object, got {type(data).__name__}"
        )
    _check_version(data)
    try:
        config = FingerprintConfig(**data["config"])
        engine = DisclosureEngine(
            config,
            clock if clock is not None else LogicalClock(
                # Resume the logical clock past every persisted
                # timestamp: otherwise a restarted process hands out
                # timestamps at or before the snapshot's, letting
                # post-restart observations steal authoritative
                # ownership from the true first observers.
                start=int(_max_timestamp(data)) + 1
            ),
            authoritative=data.get("authoritative", True),
            kind=data.get("kind", "paragraph"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorrupt(
            f"snapshot is malformed ({type(exc).__name__}: {exc})"
        ) from exc
    return restore_into(engine, data)


def restore_into(engine: DisclosureEngine, data: dict) -> DisclosureEngine:
    """Load a snapshot dict's segments and hash ownership into *engine*.

    *engine* must be freshly constructed (empty databases) with a config
    matching the snapshot's, at any shard count. Used directly by WAL
    recovery, which builds the engine itself so the recovered tier's
    shard count matches the pre-crash deployment.

    The hash database is built in one pass: every segment's first-seen
    groups, sorted by ``(first_seen, segment_id)``, go to one bulk load,
    where the first group to name a hash owns it — the same owner a
    ``record()`` per observation would pick. Then the persisted owner
    epochs and ``ownership_changes`` are restored. Since the hash
    database is derived rather than stored, each segment is checked
    first, and :class:`~repro.errors.SnapshotCorrupt` names the segment
    when its flat selections are not whole triples, a hash appears in
    its groups twice, or its group hashes differ from its selection
    values; a snapshot without the epoch fields is refused too. The
    format version is the caller's to check (:func:`read_snapshot`,
    :func:`restore_engine`).
    """
    config = engine.config
    snap_config = data.get("config", {})
    if snap_config and (
        config.ngram_size,
        config.window_size,
        config.hash_bits,
    ) != (
        snap_config.get("ngram_size"),
        snap_config.get("window_size"),
        snap_config.get("hash_bits"),
    ):
        raise DisclosureError(
            f"snapshot fingerprint config {snap_config} does not match "
            f"the engine's ({config.ngram_size}, {config.window_size}, "
            f"{config.hash_bits})"
        )
    try:
        groups = []
        for entry in data["segments"]:
            segment_id = entry["id"]
            flat = tuple(entry["selections"])
            if len(flat) % 3:
                raise SnapshotCorrupt(
                    f"segment {segment_id!r}: {len(flat)} selection values "
                    "are not whole [value, start, end] triples"
                )
            hashes = frozenset(flat[0::3])
            observed = set()
            count = 0
            for first_seen, group in entry["first_seen"]:
                groups.append((first_seen, segment_id, group))
                observed.update(group)
                count += len(group)
            if count != len(observed):
                raise SnapshotCorrupt(
                    f"segment {segment_id!r}: a hash appears twice in "
                    "first_seen"
                )
            if observed != hashes:
                raise SnapshotCorrupt(
                    f"segment {segment_id!r}: first_seen hashes differ from "
                    f"its selection values ({len(observed ^ hashes)} "
                    "mismatched)"
                )
            engine.segment_db.put(
                SegmentRecord(
                    segment_id=segment_id,
                    fingerprint=Fingerprint(
                        hashes=hashes, flat_selections=flat, config=config
                    ),
                    threshold=entry["threshold"],
                    kind=entry["kind"],
                    doc_id=entry["doc_id"],
                    last_updated=entry["last_updated"],
                )
            )
        groups.sort(key=lambda group: (group[0], group[1]))
        engine.hash_db.bulk_load(groups)
        engine.hash_db.restore_ownership_meta(
            {str(k): int(v) for k, v in data["owner_epochs"].items()},
            int(data["ownership_changes"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorrupt(
            f"snapshot is malformed ({type(exc).__name__}: {exc})"
        ) from exc
    return engine


def _atomic_write_text(
    path: Path, payload: str, *, faults: Optional[FaultInjector] = None
) -> None:
    """Atomically replace *path* with *payload*.

    The bytes go to an fsynced temp file in the same directory, then an
    ``os.replace`` swings the name; the containing directory is fsynced
    so the rename itself is durable. At no point can a reader observe a
    half-written *path*.

    *faults* injects one deterministic crash decision per call:

    * ``drop`` — crash before anything touches the disk;
    * ``latency`` — a torn write: the first ``int(fault.latency)``
      bytes of the payload reach the temp file, then the process dies;
    * ``error`` — the temp file is complete and fsynced, but the
      process dies before the rename.

    Every crash raises :class:`~repro.errors.SimulatedCrash` and leaves
    any debris a real crash would (a stale temp file) — but never a
    torn *path*.
    """
    fault = faults.next_fault() if faults is not None else None
    if fault is not None and fault.kind == "drop":
        raise SimulatedCrash(f"before writing snapshot {path}")
    data = payload.encode("utf-8")
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(directory)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if fault is not None and fault.kind == "latency":
                # Torn write: at most len-1 bytes land, then the crash.
                torn = min(int(fault.latency), max(len(data) - 1, 0))
                handle.write(data[:torn])
                handle.flush()
                raise SimulatedCrash(
                    f"mid-write after {torn} bytes of snapshot {path}"
                )
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if fault is not None and fault.kind == "error":
            raise SimulatedCrash(f"after temp write, before renaming {path}")
        os.replace(tmp_name, path)
    except SimulatedCrash:
        # A real crash leaves its temp-file debris behind; so do we.
        raise
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise
    _fsync_directory(directory)


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's metadata so a completed rename is durable."""
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(dir_fd)


def save_engine(
    engine: DisclosureEngine,
    path,
    *,
    cipher: Optional[UploadCipher] = None,
    wal_lsn: Optional[int] = None,
    wal_shards: Optional[int] = None,
    faults: Optional[FaultInjector] = None,
) -> None:
    """Atomically write a snapshot to *path*.

    Encrypted when a cipher is given. *wal_lsn* stamps the snapshot
    with the last WAL record it covers (compaction) and *wal_shards*
    the WAL set's shard layout; *faults* injects deterministic crash
    points (see :func:`_atomic_write_text`).
    """
    payload = json.dumps(
        snapshot_engine(engine, wal_lsn=wal_lsn, wal_shards=wal_shards)
    )
    if cipher is not None:
        payload = cipher.encrypt(payload)
    _atomic_write_text(Path(path), payload, faults=faults)


def read_snapshot(path, *, cipher: Optional[UploadCipher] = None) -> dict:
    """Read and decode a snapshot file to its dict form.

    Raises :class:`~repro.errors.SnapshotCorrupt` on truncated, corrupt,
    or wrong-cipher payloads, and a plain
    :class:`~repro.errors.DisclosureError` when the file is encrypted
    but no cipher was supplied or holds another format version.
    """
    path = Path(path)
    try:
        payload = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DisclosureError(f"cannot read snapshot {path}: {exc}") from exc
    if UploadCipher.is_encrypted(payload) and cipher is None:
        raise DisclosureError(
            f"snapshot {path} is encrypted; a cipher is required"
        )
    data = _decode_payload(payload, cipher, f"snapshot {path}")
    _check_version(data, f" in {path}")
    return data


def _decode_payload(
    payload: str, cipher: Optional[UploadCipher], what: str
) -> dict:
    """Decrypt (when encrypted) and parse a JSON-object payload.

    Wrong-key or corrupt ciphertext, invalid (torn) JSON and a non-object
    root raise :class:`~repro.errors.SnapshotCorrupt` naming *what*. The
    caller refuses an encrypted payload without a cipher first.
    """
    if UploadCipher.is_encrypted(payload):
        try:
            payload = cipher.decrypt(payload)
        except Exception as exc:
            raise SnapshotCorrupt(
                f"{what} cannot be decrypted — wrong key or "
                f"corrupt ciphertext ({type(exc).__name__})"
            ) from exc
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SnapshotCorrupt(
            f"{what} is truncated or corrupt: not valid JSON ({exc})"
        ) from exc
    if not isinstance(data, dict):
        raise SnapshotCorrupt(
            f"{what} root must be a JSON object, got {type(data).__name__}"
        )
    return data


def load_engine(
    path, *, cipher: Optional[UploadCipher] = None, clock: Optional[Clock] = None
) -> DisclosureEngine:
    """Read a snapshot from *path*; decrypts when a cipher is given."""
    data = read_snapshot(path, cipher=cipher)
    try:
        return restore_engine(data, clock=clock)
    except SnapshotCorrupt as exc:
        raise SnapshotCorrupt(f"snapshot {path}: {exc}") from exc


def expire_segments(engine: DisclosureEngine, *, older_than: float) -> List[str]:
    """Remove segments whose last update predates *older_than*.

    The periodic-removal half of the §4.4 mitigation: stale fingerprints
    stop being an attack target, and their hash-ownership claims are
    released so younger copies become authoritative.
    """
    stale = [
        record.segment_id
        for record in engine.segment_db
        if record.last_updated < older_than
    ]
    for segment_id in stale:
        engine.remove(segment_id)
    journal = getattr(engine, "_journal", None)
    if journal is not None and stale:
        # The removes above were journaled individually; this marker
        # records *why* (a retention sweep), for audit and shipping.
        journal.log_expire(engine._kind, older_than, stale)
    return stale
