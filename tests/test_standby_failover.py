"""Standby catch-up by log shipping, and failover (DESIGN.md §14).

A primary :class:`DisclosureTracker` journals every mutation into one
:class:`WriteAheadLog`; a :class:`StandbyLookupServer` pulls the log
through a :class:`LogShipper` and applies it to its own replica. The
tests prove the availability story end to end: incremental catch-up,
torn in-flight records held back, a primary killed mid-stream leaving
the standby verdict-identical to a recovered primary, suppression audit
shipping, and promotion that resumes the clock and re-journals.
"""

import pytest

from repro.datasets.manuals import ManualsCorpus
from repro.disclosure import DisclosureTracker
from repro.disclosure.wal import (
    WAL_NAME,
    EngineJournal,
    LogShipper,
    WriteAheadLog,
    max_record_timestamp,
    replay_records,
    scan_wal_file,
)
from repro.errors import (
    DisclosureError,
    LookupRejected,
    LookupTimeout,
    SimulatedCrash,
    StandbyGap,
)
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.crypto import UploadCipher
from repro.plugin.server import StandbyLookupServer
from repro.util.faults import Fault, FaultInjector

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT


def open_wal(directory, **kwargs) -> WriteAheadLog:
    directory.mkdir(parents=True, exist_ok=True)
    return WriteAheadLog(directory / WAL_NAME, fsync="always", **kwargs)


def make_primary(directory, *, faults=None, cipher=None):
    """A tracker journaling both granularities into one log."""
    wal = open_wal(directory, faults=faults, cipher=cipher)
    tracker = DisclosureTracker(TINY_CONFIG)
    journal = EngineJournal(wal)
    tracker.paragraphs.attach_journal(journal)
    tracker.documents.attach_journal(journal)
    return wal, tracker


def make_standby(directory, *, cipher=None, faults=None):
    return StandbyLookupServer(
        LogShipper(directory, cipher=cipher),
        config=TINY_CONFIG,
        faults=faults,
    )


def recovered_primary(directory, *, cipher=None):
    """What crash recovery on the primary's host would rebuild."""
    records, _good, _torn = scan_wal_file(directory / WAL_NAME, cipher=cipher)
    tracker = DisclosureTracker(TINY_CONFIG)
    replay_records(
        records,
        lambda kind: tracker.documents if kind == "document"
        else tracker.paragraphs,
    )
    tracker.resume_clock(max_record_timestamp(records))
    return tracker


def verdict_summary(report):
    """Comparable essence of a TrackerReport: who disclosed what."""
    out = []
    for par_id, par_report in report.paragraph_reports:
        out.append(
            (
                par_id,
                sorted((s.segment_id, s.score) for s in par_report.sources),
            )
        )
    doc = report.document_report
    out.append(
        ("__doc__", sorted((s.segment_id, s.score) for s in doc.sources))
        if doc is not None
        else ("__doc__", None)
    )
    return out


DOC = [("p1", SECRET_TEXT), ("p2", OTHER_TEXT)]


class TestCatchUp:
    def test_incremental(self, tmp_path):
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        primary.observe_document("doc1", DOC)
        first = standby.catch_up()
        assert first == 3  # two paragraphs + one document observe
        assert standby.applied_lsn == 3
        primary.observe_document("doc2", [("p3", THIRD_TEXT)])
        assert standby.catch_up() == 2
        assert standby.catch_up() == 0  # idempotent at the tip
        wal.close()

    def test_replica_state_matches_primary(self, tmp_path):
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        primary.observe_document("doc1", DOC)
        standby.catch_up()
        for kind in ("paragraphs", "documents"):
            ours = getattr(standby.tracker, kind).segment_db
            theirs = getattr(primary, kind).segment_db
            assert sorted(ours.ids()) == sorted(theirs.ids())
            for segment_id in theirs.ids():
                assert (
                    ours.get(segment_id).last_updated
                    == theirs.get(segment_id).last_updated
                )
        wal.close()

    def test_torn_inflight_record_held_back(self, tmp_path):
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        primary.observe_document("doc1", DOC)
        standby.catch_up()
        # A torn append in flight: partial bytes past the good tail.
        with open(wal.path, "ab") as handle:
            handle.write(b"\x00\x00\x01")
        assert standby.catch_up() == 0
        wal.close()

    def test_encrypted_log_ships(self, tmp_path):
        cipher = UploadCipher("ship-key")
        wal, primary = make_primary(tmp_path, cipher=cipher)
        standby = make_standby(tmp_path, cipher=cipher)
        primary.observe_document("doc1", DOC)
        standby.catch_up()
        report = standby.check_document("probe", [("q1", SECRET_TEXT)])
        assert report.disclosing
        wal.close()

    def test_caught_up_standby_survives_rotation(self, tmp_path):
        """A standby that polled every record before the primary rotates
        sees the compact record as a harmless marker and keeps going."""
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        primary.observe_document("doc1", DOC)
        standby.catch_up()
        wal.rotate(wal.last_lsn)  # primary compacts; standby is current
        assert standby.catch_up() == 0  # compact marker applies as no-op
        primary.observe_document("doc2", [("p3", THIRD_TEXT)])
        assert standby.catch_up() == 2
        wal.close()

    def test_poll_returns_increasing_lsns_across_rotation(self, tmp_path):
        """The shipper reads one log, whose file order is LSN order: no
        merge, and no sort, is needed before, across or after a
        rotation."""
        wal, primary = make_primary(tmp_path)
        shipper = LogShipper(tmp_path)
        primary.observe_document("doc1", DOC)
        lsns = [r["lsn"] for r in shipper.poll()]
        primary.observe_document("doc2", [("p3", THIRD_TEXT)])
        wal.rotate(wal.last_lsn)
        primary.observe_document("doc3", [("p4", OTHER_TEXT)])
        across = shipper.poll()
        lsns += [r["lsn"] for r in across]
        assert across[0]["op"] == "compact"
        assert lsns == [1, 2, 3, 6, 7, 8]
        assert shipper.poll() == []
        wal.close()

    def test_rotation_gap_raises_instead_of_diverging(self, tmp_path):
        """If the primary rotates records the standby never polled, the
        folded records exist only in the (unshipped) snapshot — catch_up
        must refuse, not silently skip them forever."""
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        primary.observe_document("doc1", DOC)
        standby.catch_up()
        primary.observe_document("doc2", [("p3", THIRD_TEXT)])
        wal.rotate(wal.last_lsn)  # folds doc2's records before any poll
        with pytest.raises(StandbyGap, match="re-seed"):
            standby.catch_up()
        # The gap is permanent: a retry refuses again rather than
        # advancing past the hole.
        with pytest.raises(StandbyGap):
            standby.catch_up()
        assert standby.metrics.snapshot()["gaps_detected"] == 2
        wal.close()

    def test_fresh_standby_cannot_join_from_rotated_log(self, tmp_path):
        """A standby bootstrapped with an empty replica against a
        primary that already compacted is missing everything the
        snapshot holds — that is a gap, not a clean start."""
        wal, primary = make_primary(tmp_path)
        primary.observe_document("doc1", DOC)
        wal.rotate(wal.last_lsn)
        standby = make_standby(tmp_path)
        with pytest.raises(StandbyGap):
            standby.catch_up()
        wal.close()

    def test_failed_apply_is_retried_not_skipped(self, tmp_path):
        """If applying a shipped record raises mid-batch, the cursor
        must stay on the last applied record so the failed record and
        the remainder of the batch are retried — not silently skipped
        because poll() already advanced past them."""
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        primary.paragraphs.observe("good1", SECRET_TEXT)
        good1_lsn = wal.last_lsn
        # A record that decodes but cannot be applied (an observe whose
        # threshold is outside [0, 1]): replay raises on it, with a good
        # record after it.
        wal.append(
            "observe", kind="paragraph", id="bad", doc_id=None,
            threshold=2.0, ts=0.0, selections=b"",
        )
        primary.paragraphs.observe("good2", OTHER_TEXT)
        with pytest.raises(DisclosureError, match="threshold"):
            standby.catch_up()
        assert standby.applied_lsn == good1_lsn  # good1 applied, cursor held
        assert standby.tracker.paragraphs.segment_db.ids() == ["good1"]
        # The bad record is retried (and fails again) instead of the
        # batch remainder being skipped forever.
        with pytest.raises(DisclosureError, match="threshold"):
            standby.catch_up()
        assert standby.applied_lsn == good1_lsn
        assert "good2" not in standby.tracker.paragraphs.segment_db.ids()
        wal.close()

    def test_suppressions_ship_without_state_change(self, tmp_path):
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        primary.observe_document("doc1", DOC)
        journal = EngineJournal(wal)
        journal.log_suppress(
            user="alice", tag="CONTACT_INFO", segment_id="p1",
            justification="sharing my own address", timestamp=5.0,
            target_service="mail",
        )
        standby.catch_up()
        assert len(standby.shipped_suppressions) == 1
        shipped = standby.shipped_suppressions[0]
        assert shipped["user"] == "alice"
        assert shipped["tag"] == "CONTACT_INFO"
        # The audit obligation shipped; the replica's databases did not
        # grow a phantom segment for it.
        assert sorted(standby.tracker.paragraphs.segment_db.ids()) == [
            "p1", "p2",
        ]
        wal.close()


class TestFailover:
    def test_standby_matches_recovered_primary_after_crash(self, tmp_path):
        """Primary dies mid-stream: the standby, caught up from the log,
        serves exactly the verdicts a recovered primary would."""
        faults = FaultInjector(
            schedule=[Fault.none()] * 4 + [Fault.slow(12)]  # torn 5th append
        )
        wal, primary = make_primary(tmp_path, faults=faults)
        standby = make_standby(tmp_path)
        primary.observe_document("doc1", DOC)
        standby.catch_up()  # mid-stream: replica is already warm
        with pytest.raises(SimulatedCrash):
            primary.observe_document(
                "doc2", [("p3", THIRD_TEXT), ("p4", SECRET_TEXT)]
            )
        standby.catch_up()
        reference = recovered_primary(tmp_path)
        probes = [
            ("probe-secret", [("q1", SECRET_TEXT)]),
            ("probe-other", [("q2", OTHER_TEXT), ("q3", THIRD_TEXT)]),
            ("probe-both", [("q4", SECRET_TEXT), ("q5", THIRD_TEXT)]),
        ]
        for doc_id, paragraphs in probes:
            ours = standby.check_document(doc_id, paragraphs)
            theirs = reference.check_document(doc_id, paragraphs)
            assert verdict_summary(ours) == verdict_summary(theirs)
        # The torn 5th append (first paragraph of doc2 made it, the
        # second did not): p3 replicated, p4 lost with the primary.
        assert sorted(standby.tracker.paragraphs.segment_db.ids()) == [
            "p1", "p2", "p3",
        ]

    def test_promote_resumes_clock(self, tmp_path):
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        primary.observe_document("doc1", DOC)
        standby.catch_up()
        promoted = standby.promote()
        # "aaa" sorts before "p1"; with a rewound clock the (timestamp,
        # id) tie-break would let it steal authoritative ownership.
        promoted.paragraphs.observe("aaa", SECRET_TEXT)
        record = promoted.paragraphs.segment_db.get("p1")
        for h in record.fingerprint.hashes:
            assert promoted.paragraphs.hash_db.oldest_owner(h) == "p1"
        wal.close()

    def test_promoted_standby_stops_following(self, tmp_path):
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        standby.promote()
        with pytest.raises(DisclosureError):
            standby.catch_up()
        with pytest.raises(DisclosureError):
            standby.promote()
        wal.close()

    def test_promoted_standby_journals_to_its_own_wal(self, tmp_path):
        wal, primary = make_primary(tmp_path / "primary")
        primary.observe_document("doc1", DOC)
        standby = make_standby(tmp_path / "primary")
        standby.catch_up()
        new_wal = open_wal(tmp_path / "promoted")
        promoted = standby.promote(wal=new_wal)
        promoted.observe_document("doc2", [("p9", THIRD_TEXT)])
        new_wal.close()
        records, _good, _torn = scan_wal_file(new_wal.path)
        assert [r["id"] for r in records] == ["p9", "doc2"]
        # ...which is enough to warm the *next* standby.
        next_standby = make_standby(tmp_path / "promoted")
        next_standby.catch_up()
        assert next_standby.tracker.paragraphs.segment_db.ids() == ["p9"]
        wal.close()

    def test_serving_fault_envelope(self, tmp_path):
        wal, primary = make_primary(tmp_path)
        primary.observe_document("doc1", DOC)
        standby = make_standby(
            tmp_path,
            faults=FaultInjector(
                schedule=[Fault.drop(), Fault.error(), Fault.slow(9.0)]
            ),
        )
        standby.catch_up()
        with pytest.raises(LookupTimeout):
            standby.handle_scan(SECRET_TEXT, timeout=1.0)
        with pytest.raises(LookupRejected):
            standby.handle_scan(SECRET_TEXT, timeout=1.0)
        with pytest.raises(LookupTimeout):  # latency 9.0 > timeout 1.0
            standby.handle_scan(SECRET_TEXT, timeout=1.0)
        report, latency = standby.handle_scan(SECRET_TEXT, timeout=1.0)
        assert report.disclosing
        assert latency == 0.0
        counters = standby.metrics.snapshot()
        assert counters["dropped"] == 1
        assert counters["rejected"] == 1
        assert counters["timed_out"] == 1
        assert counters["scans"] == 1
        wal.close()


class TestManualsVerdictIdentity:
    """Acceptance: a standby caught up by log shipping returns
    verdict-identical Algorithm 1 results on the manuals corpus."""

    def test_verdicts_identical_across_corpus(self, tmp_path):
        corpus = ManualsCorpus.generate(seed=2016)
        wal, primary = make_primary(tmp_path)
        standby = make_standby(tmp_path)
        for chapter in corpus:
            base = chapter.version(chapter.base_version)
            primary.observe_document(
                chapter.chapter_id,
                [
                    (f"{chapter.chapter_id}/p{i}", text)
                    for i, text in enumerate(base.paragraphs)
                ],
            )
            standby.catch_up()  # interleaved: catch-up mid-stream, not once
        for chapter in corpus:
            for version in chapter.versions[1:]:
                doc_id = f"{chapter.chapter_id}@{version.version}"
                paragraphs = [
                    (f"{doc_id}/p{i}", text)
                    for i, text in enumerate(version.paragraphs)
                ]
                ours = standby.check_document(doc_id, paragraphs)
                theirs = primary.check_document(doc_id, paragraphs)
                assert verdict_summary(ours) == verdict_summary(theirs)
        wal.close()
