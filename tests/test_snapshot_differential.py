"""Differential tests: snapshot format v2 restore ≡ the live engine.

A v2 snapshot stores no per-hash observations: each segment carries its
selections and its hashes grouped by first-seen time, and
:func:`~repro.disclosure.persistence.restore_into` rebuilds the hash
database from those groups in one bulk load per hash database (per
shard when sharded). Two oracles hold it to account:

* the live engine the snapshot was taken from — the restored engine
  must be field-identical to it after a JSON round trip;
* :func:`reference_restore`, the version-1 algorithm kept as test code:
  one ``hash_db.record()`` per (hash, segment, first_seen) observation,
  then the persisted epochs.

Histories mix observes (with clock-drawn and explicit, tying
timestamps), edited re-observes that migrate ownership (Figure 6),
removes, threshold changes and retention sweeps, in both authoritative
modes, at both granularities, at 1/2/4/8 shards. :class:`TestCorruptSnapshots` covers each rule restore checks
because it no longer stores what it derives.

The last two classes pin recovery around the format: a snapshot in
another version (version 1 included) is refused by ``DurableEngine``
and ``load_engine`` while the WAL beside it stays byte-identical, and
a recovery that fails closes the log files it opened.
"""

from __future__ import annotations

import gc
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disclosure import DisclosureEngine
from repro.disclosure.persistence import (
    expire_segments,
    load_engine,
    restore_engine,
    restore_into,
    snapshot_engine,
)
from repro.disclosure.store import SegmentRecord
from repro.disclosure.wal import DurableEngine, WALSet, scan_wal_file
from repro.errors import DisclosureError, SimulatedCrash, SnapshotCorrupt
from repro.fingerprint import Fingerprint
from repro.fingerprint.config import TINY_CONFIG, FingerprintConfig
from repro.fingerprint.fingerprint import FingerprintHash
from repro.util.clock import LogicalClock
from repro.util.faults import Fault, FaultInjector

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT, assert_databases_agree

CONFIG = FingerprintConfig(ngram_size=4, window_size=3)

#: Shared phrases, so segments overlap and ownership is contested.
PHRASES = [
    "the acquisition target list is confidential",
    "quarterly revenue numbers look strong",
    "interview loops probe consensus protocols",
    "replication lag alerts fire on every replica",
    "we now discuss gardening schedules and tulip beds",
]
SEGMENTS = [f"s{i}" for i in range(5)]
#: Engine shapes: shard counts of the hash database.
SHAPES = [1, 2, 4, 8]
PROBES = [" and ".join(PHRASES[i:i + 2]) for i in range(len(PHRASES))]

texts = st.lists(st.sampled_from(PHRASES), min_size=1, max_size=3).map(
    " and ".join
)
ops = st.one_of(
    st.tuples(
        st.just("observe"),
        st.sampled_from(SEGMENTS),
        texts,
        st.sampled_from([None, "docA", "docB"]),
        # None draws from the clock; explicit times tie and interleave.
        st.one_of(st.none(), st.integers(0, 6).map(float)),
    ),
    st.tuples(st.just("remove"), st.sampled_from(SEGMENTS)),
    st.tuples(
        st.just("threshold"),
        st.sampled_from(SEGMENTS),
        st.sampled_from([0.1, 0.25, 0.5, 0.9]),
    ),
    st.tuples(st.just("expire"), st.integers(0, 12).map(float)),
)
histories = st.lists(ops, max_size=30)

#: Figure 6 by hand: the first observer edits the shared text away and
#: authority migrates to the next-earliest observer that still holds it.
FIGURE_6 = [
    ("observe", "s1", PHRASES[0], "docA", None),
    ("observe", "s2", PHRASES[0] + " and " + PHRASES[1], None, None),
    ("observe", "s3", PHRASES[1], "docB", None),
    ("observe", "s1", PHRASES[4], "docA", None),
    ("threshold", "s2", 0.25),
    ("remove", "s3"),
]


def build(shape=1, *, authoritative=True, kind="paragraph"):
    return DisclosureEngine(
        CONFIG, LogicalClock(), authoritative=authoritative, kind=kind,
        n_shards=shape,
    )


def apply(engine, history):
    for op in history:
        if op[0] == "observe":
            _, segment_id, text, doc_id, timestamp = op
            engine.observe_fingerprint(
                segment_id, engine.fingerprint(text), threshold=0.5,
                doc_id=doc_id, timestamp=timestamp,
            )
        elif op[0] == "remove":
            if op[1] in engine.segment_db:
                engine.remove(op[1])
        elif op[0] == "threshold":
            if op[1] in engine.segment_db:
                engine.set_threshold(op[1], op[2])
        else:
            expire_segments(engine, older_than=op[1])
    return engine


def reference_restore(engine, data):
    """The version-1 restore, kept as the oracle.

    Segments go in through ``segment_db.put``; then every observation
    is replayed through ``hash_db.record()`` — hash by hash, earliest
    observer first, as version 1 stored them — and the persisted epochs
    overwrite the ones those calls bumped.
    """
    observations = {}
    for entry in data["segments"]:
        flat = entry["selections"]
        selections = tuple(
            FingerprintHash(flat[i], flat[i + 1], flat[i + 2])
            for i in range(0, len(flat), 3)
        )
        engine.segment_db.put(
            SegmentRecord(
                segment_id=entry["id"],
                fingerprint=Fingerprint(
                    hashes=frozenset(s.value for s in selections),
                    flat_selections=tuple(flat),
                    config=engine.config,
                ),
                threshold=entry["threshold"],
                kind=entry["kind"],
                doc_id=entry["doc_id"],
                last_updated=entry["last_updated"],
            )
        )
        for first_seen, hashes in entry["first_seen"]:
            for h in hashes:
                observations.setdefault(h, []).append((first_seen, entry["id"]))
    for h, owners in observations.items():
        for first_seen, segment_id in sorted(owners):
            engine.hash_db.record(h, segment_id, first_seen)
    engine.hash_db.restore_ownership_meta(
        dict(data["owner_epochs"]), data["ownership_changes"]
    )
    return engine


def engine_fields(engine) -> dict:
    hash_db = engine.hash_db
    hashes = sorted(hash_db.hashes())
    segment_ids = sorted(engine.segment_db.ids())
    return {
        # SegmentRecord equality covers the fingerprint's selections.
        "records": {sid: engine.segment_db.get(sid) for sid in segment_ids},
        "owners": {h: hash_db.owners(h) for h in hashes},
        "oldest": {h: hash_db.oldest_owner(h) for h in hashes},
        "owned": {sid: hash_db.owned_hashes(sid) for sid in segment_ids},
        "owner_epoch": {sid: hash_db.owner_epoch(sid) for sid in segment_ids},
        "ownership_meta": hash_db.ownership_meta(),
        "ownership_changes": hash_db.ownership_changes,
    }


def verdicts(engine) -> list:
    out = []
    for probe in PROBES:
        report = engine.disclosing_sources(fingerprint=engine.fingerprint(probe))
        out.append((report.sources, report.candidates_checked))
    return out


def assert_restores_identically(live, shape, other_shape):
    data = json.loads(json.dumps(snapshot_engine(live)))
    kwargs = {"authoritative": live._authoritative, "kind": live._kind}
    restored = restore_into(build(shape, **kwargs), data)
    oracle = reference_restore(build(shape, **kwargs), data)
    reshaped = restore_into(build(other_shape, **kwargs), data)
    want = engine_fields(live)
    want_verdicts = verdicts(live)
    for engine in (live, restored, oracle, reshaped):
        engine.hash_db.check_invariants()
        assert_databases_agree(engine)
    for engine in (restored, oracle, reshaped):
        assert engine_fields(engine) == want
        assert verdicts(engine) == want_verdicts


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"shards-{s}")
class TestRestoreDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        history=histories,
        authoritative=st.booleans(),
        kind=st.sampled_from(["paragraph", "document"]),
        other_shape=st.sampled_from(SHAPES),
    )
    def test_restore_matches_live_and_record_replay(
        self, shape, history, authoritative, kind, other_shape
    ):
        live = apply(build(shape, authoritative=authoritative, kind=kind), history)
        assert_restores_identically(live, shape, other_shape)

    @pytest.mark.parametrize("authoritative", [True, False])
    def test_figure_6_migration_survives_restore(self, shape, authoritative):
        live = apply(build(shape, authoritative=authoritative), FIGURE_6)
        # s1 edited the shared phrase away: s2 now owns it.
        shared = live.fingerprint(PHRASES[0]).hashes
        assert shared and all(live.hash_db.oldest_owner(h) == "s2" for h in shared)
        assert_restores_identically(live, shape, 1)

    def test_tied_first_seen_goes_to_smallest_segment_id(self, shape):
        live = build(shape)
        fingerprint = live.fingerprint(PHRASES[0])
        for segment_id in ("s3", "s1", "s2"):
            live.observe_fingerprint(segment_id, fingerprint, timestamp=4.0)
        assert all(live.hash_db.oldest_owner(h) == "s1" for h in fingerprint.hashes)
        assert_restores_identically(live, shape, 1)


class TestSnapshotFormat:
    def test_segment_entries_hold_flat_selections_and_first_seen_groups(self):
        engine = build()
        engine.observe("s1", PHRASES[0])                       # t = 0
        engine.observe("s1", PHRASES[0] + " and " + PHRASES[1])  # t = 1
        data = snapshot_engine(engine)
        assert "observations" not in data
        (entry,) = data["segments"]
        assert "hashes" not in entry
        record = engine.segment_db.get("s1")
        assert entry["selections"] == [
            v for s in record.fingerprint.selections
            for v in (s.value, s.orig_start, s.orig_end)
        ]
        times = [first_seen for first_seen, _hashes in entry["first_seen"]]
        assert times == sorted(times) and times[0] == 0.0
        for first_seen, hashes in entry["first_seen"]:
            assert hashes == sorted(hashes)
            for h in hashes:
                assert engine.hash_db.first_seen(h, "s1") == first_seen


class TestCorruptSnapshots:
    """Each rule restore checks, because v2 derives what v1 stored."""

    @pytest.fixture
    def data(self):
        engine = build()
        engine.observe("s1", PHRASES[0])
        engine.observe("s2", PHRASES[0] + " and " + PHRASES[1])
        return json.loads(json.dumps(snapshot_engine(engine)))

    def test_selections_not_whole_triples(self, data):
        data["segments"][1]["selections"].append(7)
        with pytest.raises(SnapshotCorrupt, match="'s2'.*triples"):
            restore_engine(data)

    def test_first_seen_missing_a_selection_value(self, data):
        data["segments"][0]["first_seen"][0][1].pop()
        with pytest.raises(SnapshotCorrupt, match="'s1'.*differ"):
            restore_engine(data)

    def test_first_seen_names_a_hash_outside_the_selections(self, data):
        data["segments"][0]["first_seen"][0][1].append(12345)
        with pytest.raises(SnapshotCorrupt, match="'s1'.*differ"):
            restore_engine(data)

    def test_hash_twice_in_one_segment(self, data):
        first_seen, hashes = data["segments"][1]["first_seen"][0]
        data["segments"][1]["first_seen"].append([first_seen + 9, hashes[:1]])
        with pytest.raises(SnapshotCorrupt, match="'s2'.*twice"):
            restore_engine(data)

    @pytest.mark.parametrize("field", ["owner_epochs", "ownership_changes"])
    def test_epoch_fields_required(self, data, field):
        del data[field]
        with pytest.raises(SnapshotCorrupt, match=field):
            restore_engine(data)

    def test_version_1_refused(self, data):
        data["version"] = 1
        with pytest.raises(DisclosureError, match="unsupported snapshot version 1"):
            restore_engine(data)


def v1_snapshot(engine, **stamps):
    """*engine* in the version-1 layout: a per-hash observation map and
    per-segment hash lists beside nested selections."""
    hash_db = engine.hash_db
    epochs, changes = hash_db.ownership_meta()
    config = engine.config
    return {
        "version": 1,
        "config": {
            "ngram_size": config.ngram_size,
            "window_size": config.window_size,
            "hash_bits": config.hash_bits,
        },
        "authoritative": True,
        "kind": "paragraph",
        "segments": [
            {
                "id": record.segment_id,
                "threshold": record.threshold,
                "kind": record.kind,
                "doc_id": record.doc_id,
                "last_updated": record.last_updated,
                "hashes": sorted(record.fingerprint.hashes),
                "selections": [
                    [s.value, s.orig_start, s.orig_end]
                    for s in record.fingerprint.selections
                ],
            }
            for record in engine.segment_db
        ],
        "observations": {
            str(h): [[seg, ts] for seg, ts in hash_db.owners(h)]
            for h in hash_db.hashes()
        },
        "owner_epochs": {k: v for k, v in epochs.items() if v},
        "ownership_changes": changes,
        **stamps,
    }


class TestSnapshotVersionCheckedBeforeLogsOpen:
    """A snapshot in another format aborts recovery, and loading, while
    the WAL beside it is untouched — its torn tail included."""

    @pytest.mark.parametrize("layout", ["v1", "v99"])
    def test_refused_with_wal_byte_identical(self, tmp_path, layout):
        primary = DurableEngine(
            tmp_path, config=TINY_CONFIG,
            faults=FaultInjector(
                schedule=[Fault.none(), Fault.none(), Fault.slow(9)]
            ),
        )
        primary.observe("a", SECRET_TEXT)
        primary.compact()
        primary.observe("b", OTHER_TEXT)
        with pytest.raises(SimulatedCrash):
            primary.observe("c", THIRD_TEXT)
        primary.wal.close()  # release the dead process's handles
        snapshot = tmp_path / "snapshot.json"
        data = json.loads(snapshot.read_text())
        if layout == "v1":
            compacted = DisclosureEngine(TINY_CONFIG, LogicalClock())
            compacted.observe("a", SECRET_TEXT)
            data = v1_snapshot(
                compacted, wal_lsn=data["wal_lsn"], wal_shards=data["wal_shards"]
            )
        else:
            data["version"] = 99
        snapshot.write_text(json.dumps(data))
        wal = tmp_path / "wal.log"
        before = wal.read_bytes()
        assert scan_wal_file(wal)[2] > 0  # a torn tail recovery would cut
        with pytest.raises(DisclosureError, match="unsupported snapshot version"):
            DurableEngine(tmp_path, config=TINY_CONFIG)
        with pytest.raises(DisclosureError, match="unsupported snapshot version"):
            load_engine(snapshot)
        assert wal.read_bytes() == before


def _raise_and_collect(call):
    """Run *call*, which must raise a DisclosureError; return its
    message and the ResourceWarnings the collector reports afterwards."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except DisclosureError as exc:
            message = str(exc)
        else:  # pragma: no cover - the regression itself
            pytest.fail(f"{call} did not raise")
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    return message, leaks


class TestFailedRecoveryClosesLogs:
    """A recovery that raises must close the log files it opened."""

    @pytest.mark.parametrize("field", ["segments", "config"])
    def test_malformed_snapshot(self, tmp_path, field):
        primary = DurableEngine(tmp_path, config=TINY_CONFIG)
        primary.observe("a", SECRET_TEXT)
        primary.compact()
        primary.observe("b", OTHER_TEXT)
        primary.close()
        snapshot = tmp_path / "snapshot.json"
        data = json.loads(snapshot.read_text())
        del data[field]
        snapshot.write_text(json.dumps(data))
        message, leaks = _raise_and_collect(
            lambda: DurableEngine(tmp_path, config=TINY_CONFIG)
        )
        assert not leaks, [str(w.message) for w in leaks]
        assert "malformed" in message
        assert str(snapshot) in message

    def test_bad_magic_on_a_later_shard(self, tmp_path):
        wal = WALSet(tmp_path, n_shards=2)
        wal.append("remove", key="a", kind="paragraph", id="a")
        wal.close()
        (tmp_path / "wal.1.log").write_bytes(b"not a log")
        message, leaks = _raise_and_collect(lambda: WALSet(tmp_path, n_shards=2))
        assert "bad magic" in message
        assert not leaks, [str(w.message) for w in leaks]
