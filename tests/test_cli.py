"""Tests for the command-line interface."""

import json
import struct
import zlib

import pytest

from repro.cli import main

from conftest import OTHER_TEXT, SECRET_TEXT, SHARDED_LAYOUTS, sharded_directory


@pytest.fixture
def files(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(SECRET_TEXT)
    b.write_text(OTHER_TEXT)
    return a, b, tmp_path


class TestFingerprint:
    def test_basic(self, files, capsys):
        a, _b, _tmp = files
        assert main(["fingerprint", str(a)]) == 0
        out = capsys.readouterr().out
        assert "hashes:" in out
        assert "guarantee:" in out

    def test_show_hashes(self, files, capsys):
        a, _b, _tmp = files
        main(["fingerprint", str(a), "--show-hashes", "3", "--ngram", "6",
              "--window", "3"])
        out = capsys.readouterr().out
        assert any(token.isdigit() for token in out.split())

    def test_custom_config_changes_guarantee(self, files, capsys):
        a, _b, _tmp = files
        main(["fingerprint", str(a), "--ngram", "10", "--window", "11"])
        assert ">= 20 chars" in capsys.readouterr().out


class TestCompare:
    def test_identical_files_disclose(self, files, capsys):
        a, _b, tmp = files
        copy = tmp / "copy.txt"
        copy.write_text(SECRET_TEXT)
        assert main(["compare", str(a), str(copy)]) == 1
        assert "significant disclosure" in capsys.readouterr().out

    def test_unrelated_files_clean(self, files, capsys):
        a, b, _tmp = files
        assert main(["compare", str(a), str(b)]) == 0
        assert "no significant disclosure" in capsys.readouterr().out

    def test_threshold_option(self, files):
        # Half-overlapping files: both directions sit mid-range, so the
        # verdict flips with the threshold.
        a, _b, tmp = files
        mixed = tmp / "mixed.txt"
        mixed.write_text(SECRET_TEXT[: len(SECRET_TEXT) // 2] + " " + OTHER_TEXT)
        strict = main(["compare", str(mixed), str(a), "--threshold", "0.99",
                       "--ngram", "6", "--window", "3"])
        loose = main(["compare", str(mixed), str(a), "--threshold", "0.2",
                      "--ngram", "6", "--window", "3"])
        assert strict == 0
        assert loose == 1


class TestObserveScan:
    def test_observe_then_scan(self, files, capsys):
        a, b, tmp = files
        db = tmp / "db.json"
        assert main(["observe", str(a), "--db", str(db), "--id", "doc-a"]) == 0
        assert db.exists()
        # A copy of the observed file discloses it.
        assert main(["scan", str(a), "--db", str(db)]) == 1
        assert "doc-a" in capsys.readouterr().out
        # An unrelated file does not.
        assert main(["scan", str(b), "--db", str(db)]) == 0

    def test_observe_accumulates(self, files, capsys):
        a, b, tmp = files
        db = tmp / "db.json"
        main(["observe", str(a), "--db", str(db), "--id", "doc-a"])
        main(["observe", str(b), "--db", str(db), "--id", "doc-b"])
        out = capsys.readouterr().out
        assert "2 segments" in out

    def test_encrypted_database(self, files, capsys):
        a, _b, tmp = files
        db = tmp / "db.enc"
        main(["observe", str(a), "--db", str(db), "--id", "doc-a",
              "--key", "disk-secret"])
        raw = db.read_bytes()
        assert b"doc-a" not in raw
        assert main(["scan", str(a), "--db", str(db), "--key", "disk-secret"]) == 1

    def test_scan_missing_db_fails(self, files, capsys):
        a, _b, tmp = files
        assert main(["scan", str(a), "--db", str(tmp / "nope.json")]) == 2


class TestCorpusAndExperiments:
    def test_corpus_table(self, capsys):
        assert main(["corpus", "--revisions", "3", "--books", "2"]) == 0
        out = capsys.readouterr().out
        assert "Wikipedia" in out
        assert "MySQL" in out

    def test_experiment_fig10(self, capsys):
        assert main(["experiment", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "iphone-camera" in out
        assert "browserflow" in out

    def test_experiment_fig11(self, capsys):
        assert main(["experiment", "fig11"]) == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestExperimentSubcommands:
    def test_experiment_fig8(self, capsys):
        assert main(["experiment", "fig8"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_experiment_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "Chicago" in out


class TestStatsAndTrace:
    """The observability subcommands: `repro stats` and `repro trace`."""

    @pytest.fixture
    def observed_db(self, files):
        a, _b, tmp = files
        db = tmp / "db.json"
        assert main(["observe", str(a), "--db", str(db), "--id", "doc-a"]) == 0
        return db

    def test_stats_outputs_registry_snapshot(self, files, observed_db, capsys):
        assert main(["stats", "--db", str(observed_db)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["engine.paragraph.segments"] == 1
        assert snapshot["engine.paragraph.queries"] == 0
        assert "engine.paragraph.algorithm1_seconds" in snapshot

    def test_stats_scan_populates_query_instruments(self, files, observed_db, capsys):
        a, _b, _tmp = files
        assert main(["stats", "--db", str(observed_db), "--scan", str(a)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["engine.paragraph.queries"] == 1
        hist = snapshot["engine.paragraph.algorithm1_seconds"]
        assert hist["count"] == 1
        assert sum(hist["buckets"].values()) == 1
        # The warm round is served from the memo, keyed on the engine's
        # stamp-store version, and its text from the fingerprint cache.
        assert snapshot["decision_cache.hits"] == 1
        assert snapshot["decision_cache.misses"] == 1
        assert snapshot["fingerprint.cache.hits"] == 1

    def test_stats_missing_db_fails(self, files, capsys):
        _a, _b, tmp = files
        assert main(["stats", "--db", str(tmp / "nope.json")]) == 2
        assert "no database" in capsys.readouterr().err

    def test_trace_emits_nested_pipeline_spans(self, files, observed_db, capsys):
        a, _b, _tmp = files
        assert main(["trace", str(a), "--db", str(observed_db)]) == 0
        document = json.loads(capsys.readouterr().out)
        (root,) = document["spans"]
        assert root["name"] == "scan"
        names = set()

        def walk(entry):
            names.add(entry["name"])
            for child in entry["children"]:
                walk(child)

        walk(root)
        # The acceptance bar: a tree covering >= 4 distinct stages.
        assert {"scan", "intercept", "fingerprint", "algorithm1"} <= names
        assert len(names) >= 4
        decision = next(c for c in root["children"] if c["name"] == "decision")
        assert decision["attributes"]["disclosing"] is True

    def test_trace_output_file_validates_against_schema(
        self, files, observed_db, tmp_path
    ):
        import pathlib
        import sys

        tools = pathlib.Path(__file__).resolve().parent.parent / "tools"
        sys.path.insert(0, str(tools))
        try:
            from validate_trace import main as validate_main
        finally:
            sys.path.remove(str(tools))

        a, _b, _tmp = files
        out = tmp_path / "trace.json"
        assert main(
            ["trace", str(a), "--db", str(observed_db), "--output", str(out)]
        ) == 0
        assert (
            validate_main([str(out), "--min-stages", "4"]) == 0
        )


class TestDbLock:
    """The observe read-modify-write cycle holds an advisory lock, so a
    concurrent observe cannot load the same stale snapshot and clobber
    the other's save (the classic lost update)."""

    def test_concurrent_observes_do_not_lose_updates(self, files):
        import threading

        import repro.cli as cli

        a, b, tmp = files
        db = tmp / "db.json"
        first_loaded = threading.Event()
        release_first = threading.Event()
        loads = []

        def hook():
            loads.append(threading.current_thread().name)
            if len(loads) == 1:
                first_loaded.set()
                assert release_first.wait(timeout=10)

        results = {}

        def observe(name, path, segment_id):
            results[name] = main(
                ["observe", str(path), "--db", str(db), "--id", segment_id]
            )

        cli._AFTER_LOAD_HOOK = hook
        try:
            t1 = threading.Thread(
                target=observe, args=("t1", a, "segA"), name="t1"
            )
            t1.start()
            assert first_loaded.wait(timeout=10)
            # t1 sits mid read-modify-write; t2 must block on the lock
            # rather than load the same (empty) snapshot.
            t2 = threading.Thread(
                target=observe, args=("t2", b, "segB"), name="t2"
            )
            t2.start()
            t2.join(timeout=0.5)
            assert t2.is_alive(), "second observe ran unlocked"
            assert loads == ["t1"]
            release_first.set()
            t1.join(timeout=10)
            t2.join(timeout=10)
        finally:
            cli._AFTER_LOAD_HOOK = None
        assert results == {"t1": 0, "t2": 0}
        from repro.disclosure.persistence import load_engine

        assert sorted(load_engine(db).segment_db.ids()) == ["segA", "segB"]

    def test_lock_sidecar_survives_snapshot_replace(self, files):
        # The lock lives beside the db, not on it: save_engine replaces
        # the db file atomically, which would orphan a lock on the
        # inode being replaced.
        a, _b, tmp = files
        db = tmp / "db.json"
        assert main(["observe", str(a), "--db", str(db), "--id", "s1"]) == 0
        assert (tmp / "db.json.lock").exists()
        assert main(["observe", str(a), "--db", str(db), "--id", "s2"]) == 0


class TestCorruptDbErrors:
    """Damaged databases exit 2 with one readable line, no traceback."""

    def observed_db_path(self, files):
        a, _b, tmp = files
        db = tmp / "db.json"
        main(["observe", str(a), "--db", str(db), "--id", "seg1"])
        return a, db

    def test_scan_truncated_db(self, files, capsys):
        a, db = self.observed_db_path(files)
        db.write_bytes(db.read_bytes()[:40])
        assert main(["scan", str(a), "--db", str(db)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "truncated or corrupt" in err

    def test_scan_wrong_key(self, files, capsys):
        a, _b, tmp = files
        db = tmp / "db.enc"
        main(["observe", str(a), "--db", str(db), "--id", "seg1", "--key", "right"])
        assert main(["scan", str(a), "--db", str(db), "--key", "wrong"]) == 2
        assert "wrong key or corrupt ciphertext" in capsys.readouterr().err

    def test_scan_encrypted_without_key(self, files, capsys):
        a, _b, tmp = files
        db = tmp / "db.enc"
        main(["observe", str(a), "--db", str(db), "--id", "seg1", "--key", "right"])
        assert main(["scan", str(a), "--db", str(db)]) == 2
        assert "cipher is required" in capsys.readouterr().err

    def test_observe_onto_corrupt_db(self, files, capsys):
        a, db = self.observed_db_path(files)
        db.write_text("{not json")
        assert main(["observe", str(a), "--db", str(db), "--id", "x"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRecover:
    def durable_dir(self, tmp_path):
        from repro.disclosure.wal import DurableEngine
        from repro.errors import SimulatedCrash
        from repro.fingerprint.config import TINY_CONFIG
        from repro.util.faults import Fault, FaultInjector

        directory = tmp_path / "durable"
        engine = DurableEngine(
            directory,
            config=TINY_CONFIG,
            faults=FaultInjector(
                schedule=[Fault.none(), Fault.none(), Fault.slow(10)]
            ),
            fsync="always",
        )
        engine.observe("s1", SECRET_TEXT, threshold=0.4)
        engine.observe("s2", OTHER_TEXT, threshold=0.4)
        with pytest.raises(SimulatedCrash):
            engine.observe("s3", SECRET_TEXT, threshold=0.4)
        return directory

    def test_recover_reports_replay(self, files, tmp_path, capsys):
        directory = self.durable_dir(tmp_path)
        assert main(["recover", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "2 segments" in out
        assert "replayed 2 record(s)" in out
        assert "torn byte(s)" in out
        # The torn third append is cut before the size is read.
        log_bytes = (directory / "wal.log").stat().st_size
        assert f"log holds {log_bytes} bytes" in out
        assert "clock resumed" in out
        assert "recovery took" in out

    def test_recover_compact_then_fast_replay(self, files, tmp_path, capsys):
        directory = self.durable_dir(tmp_path)
        assert main(["recover", "--dir", str(directory), "--compact"]) == 0
        assert "compacted through lsn" in capsys.readouterr().out
        assert main(["recover", "--dir", str(directory)]) == 0
        assert "replayed 0 record(s)" in capsys.readouterr().out

    def test_recover_missing_dir_is_fresh(self, tmp_path, capsys):
        assert main(["recover", "--dir", str(tmp_path / "empty")]) == 0
        assert "0 segments" in capsys.readouterr().out

    @pytest.mark.parametrize("layout", SHARDED_LAYOUTS)
    def test_recover_refuses_sharded_dir(self, files, tmp_path, layout, capsys):
        """A directory an older build journaled to sharded logs exits 2
        with a readable error, every file byte-identical."""
        directory = tmp_path / "sharded"
        before = sharded_directory(directory, layout)
        assert main(["recover", "--dir", str(directory), "--compact"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "sharded" in err
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

    def test_recover_refuses_a_bfwal1_log(self, files, tmp_path, capsys):
        """A log of the JSON records earlier builds wrote exits 2, every
        byte of it as it was."""
        directory = tmp_path / "old"
        directory.mkdir()
        payload = b'{"id":"x","kind":"paragraph","lsn":1,"op":"remove"}'
        blob = (
            b"BFWAL1\n" + struct.pack(">II", len(payload), zlib.crc32(payload))
            + payload + b"\x00\x00\x01"
        )
        (directory / "wal.log").write_bytes(blob)
        assert main(["recover", "--dir", str(directory), "--compact"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "BFWAL1" in err
        assert [p.name for p in directory.iterdir()] == ["wal.log"]
        assert (directory / "wal.log").read_bytes() == blob

    def test_recover_accepts_a_one_shard_snapshot(self, files, tmp_path, capsys):
        """A snapshot whose header records ``wal_shards: 1`` journaled
        to ``wal.log`` alone, so it recovers like one that records
        nothing."""
        from repro.disclosure.persistence import encode_snapshot, read_snapshot

        directory = self.durable_dir(tmp_path)
        assert main(["recover", "--dir", str(directory), "--compact"]) == 0
        capsys.readouterr()
        snapshot = directory / "snapshot.bin"
        data = read_snapshot(snapshot)
        data["wal_shards"] = 1
        snapshot.write_bytes(encode_snapshot(data))
        assert main(["recover", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "2 segments" in out
        assert "replayed 0 record(s)" in out

    def test_recover_wrong_key_preserves_log(self, files, tmp_path, capsys):
        from repro.disclosure.wal import DurableEngine
        from repro.fingerprint.config import TINY_CONFIG
        from repro.plugin.crypto import UploadCipher

        directory = tmp_path / "enc"
        engine = DurableEngine(
            directory, config=TINY_CONFIG, cipher=UploadCipher("right"),
            fsync="always",
        )
        engine.observe("s1", SECRET_TEXT, threshold=0.4)
        engine.close()
        before = (directory / "wal.log").read_bytes()
        assert main(
            ["recover", "--dir", str(directory), "--key", "wrong"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "wrong cipher key" in err
        # The wrong-key attempt did not truncate the log; the right key
        # still recovers every acknowledged record.
        assert (directory / "wal.log").read_bytes() == before
        assert main(
            ["recover", "--dir", str(directory), "--key", "right"]
        ) == 0
        assert "1 segments" in capsys.readouterr().out
