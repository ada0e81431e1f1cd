"""Tests for whole-model persistence (restart survival)."""

import pytest

from repro.errors import DisclosureError, PolicyError, SimulatedCrash, SnapshotCorrupt
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.crypto import UploadCipher
from repro.tdm import Label, PolicyStore, Tag, TextDisclosureModel
from repro.tdm.model import Suppression
from repro.tdm.state import load_model, model_from_dict, model_to_dict, save_model
from repro.util.faults import Fault, FaultInjector

from conftest import OTHER_TEXT, SECRET_TEXT

ITOOL = "https://itool.example"
WIKI = "https://wiki.example"
DOCS = "https://docs.example"


@pytest.fixture
def model():
    policies = PolicyStore()
    policies.register_service(
        ITOOL, privilege=Label.of("ti"), confidentiality=Label.of("ti")
    )
    policies.register_service(
        WIKI, privilege=Label.of("tw"), confidentiality=Label.of("tw")
    )
    policies.register_service(DOCS)
    model = TextDisclosureModel(policies, TINY_CONFIG)
    model.observe(ITOOL, "docA", [("docA#p0", SECRET_TEXT)])
    model.observe(WIKI, "docW", [("docW#p0", OTHER_TEXT)])
    # Exercise suppression so the audit log has content.
    suppression = Suppression.of("ti", "alice", "approved")
    decision = model.check_upload(
        WIKI, "docB", [("docB#p0", SECRET_TEXT)],
        suppressions={"docB#p0": [suppression], "docB": [suppression]},
    )
    model.commit_upload(WIKI, "docB", [("docB#p0", SECRET_TEXT)], decision)
    return model


class TestModelRoundtrip:
    def test_labels_restored(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.label_of("docA#p0") == model.label_of("docA#p0")
        # Suppressed tags survive — the accountability anchor.
        assert Tag("ti") in restored.label_of("docB#p0").suppressed

    def test_decisions_identical(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        before = model.check_upload(DOCS, "probe", [("probe#p0", SECRET_TEXT)])
        after = restored.check_upload(DOCS, "probe", [("probe#p0", SECRET_TEXT)])
        assert before.allowed == after.allowed
        assert [v.segment_id for v in before.violations] == [
            v.segment_id for v in after.violations
        ]

    def test_audit_restored(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        events = restored.audit.by_user("alice")
        assert len(events) == len(model.audit.by_user("alice"))
        assert events[0].justification == "approved"

    def test_locations_restored(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.locations_of("docA#p0") == model.locations_of("docA#p0")

    def test_policies_restored(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.policies.get(ITOOL).privilege == Label.of("ti")

    def test_thresholds_restored(self, tmp_path):
        policies = PolicyStore()
        model = TextDisclosureModel(
            policies, TINY_CONFIG, paragraph_threshold=0.3, document_threshold=0.7
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.tracker.paragraph_threshold == 0.3
        assert restored.tracker.document_threshold == 0.7

    def test_encrypted_state(self, model, tmp_path):
        path = tmp_path / "model.enc"
        cipher = UploadCipher("disk-key")
        save_model(model, path, cipher=cipher)
        assert "docA" not in path.read_text()
        restored = load_model(path, cipher=cipher)
        assert restored.label_of("docA#p0") == model.label_of("docA#p0")

    def test_encrypted_without_cipher_rejected(self, model, tmp_path):
        path = tmp_path / "model.enc"
        save_model(model, path, cipher=UploadCipher("disk-key"))
        with pytest.raises(PolicyError):
            load_model(path)

    def test_unsupported_version_rejected(self, model):
        data = model_to_dict(model)
        data["version"] = 42
        with pytest.raises(PolicyError):
            model_from_dict(data)


class TestRestartScenario:
    def test_restart_mid_workflow(self, model, tmp_path):
        """Save, 'restart', and continue: a violation that would fire
        before the restart still fires after it."""
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        decision = restored.check_upload(
            DOCS, "leak", [("leak#p0", SECRET_TEXT)]
        )
        assert not decision.allowed
        # And new observations keep composing with restored state.
        restored.observe(WIKI, "docNew", [("docNew#p0", SECRET_TEXT)])
        label = restored.label_of("docNew#p0")
        assert Tag("tw") in label.explicit
        assert Tag("ti") in label.implicit


class TestAtomicModelSave:
    """A crash mid-save must leave the previous model file intact."""

    @pytest.mark.parametrize(
        "crash",
        [
            pytest.param(Fault.drop(), id="before-write"),
            pytest.param(Fault.slow(0), id="torn-0-bytes"),
            pytest.param(Fault.slow(200), id="torn-mid-payload"),
            pytest.param(Fault.slow(10**9), id="torn-last-byte"),
            pytest.param(Fault.error(), id="before-rename"),
        ],
    )
    def test_previous_file_survives_crashed_writer(self, model, tmp_path, crash):
        path = tmp_path / "model.json"
        save_model(model, path)
        good = path.read_bytes()
        model.observe(DOCS, "docC", [("docC#p0", OTHER_TEXT)])
        with pytest.raises(SimulatedCrash):
            save_model(model, path, faults=FaultInjector(schedule=[crash]))
        assert path.read_bytes() == good
        restored = load_model(path)
        assert "docC#p0" not in restored.tracker.paragraphs.segment_db
        assert restored.label_of("docA#p0") == model.label_of("docA#p0")


class TestCorruptModelFiles:
    """Torn and wrong-key files name themselves; they never surface as a
    raw JSON or cipher error."""

    @pytest.mark.parametrize("keep", [0, 1, 100, -1])
    def test_torn_file_raises_snapshot_corrupt(self, model, tmp_path, keep):
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = path.read_bytes()
        path.write_bytes(payload[:keep] if keep >= 0 else payload[:-1])
        with pytest.raises(SnapshotCorrupt, match="model.json"):
            load_model(path)

    def test_missing_file_raises_disclosure_error(self, tmp_path):
        # Engine snapshots fail the same way (``read_snapshot``).
        path = tmp_path / "absent.json"
        with pytest.raises(DisclosureError, match="cannot read model state"):
            load_model(path)

    def test_wrong_key_raises_snapshot_corrupt(self, model, tmp_path):
        path = tmp_path / "model.enc"
        save_model(model, path, cipher=UploadCipher("disk-key"))
        with pytest.raises(SnapshotCorrupt, match="model.enc"):
            load_model(path, cipher=UploadCipher("another-key"))

    def test_malformed_engine_state_raises_snapshot_corrupt(self, model, tmp_path):
        data = model_to_dict(model)
        del data["paragraph_engine"]["segments"][0]["first_seen"]
        with pytest.raises(SnapshotCorrupt):
            model_from_dict(data)


class TestRestoredModelIsWired:
    """A loaded model restores into its own engines: one lock, one
    registry, one clock resumed past everything persisted."""

    def test_engines_share_the_tracker_lock(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        tracker = restored.tracker
        assert tracker.paragraphs.lock is tracker.lock
        assert tracker.documents.lock is tracker.lock
        assert restored.lock is tracker.lock

    def test_registry_gauges_report_live_counts(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        gauges = restored.registry.snapshot()
        for kind in ("paragraph", "document"):
            engine = getattr(restored.tracker, kind + "s")
            assert len(engine.segment_db) > 0
            assert gauges[f"engine.{kind}.segments"] == len(engine.segment_db)
            assert gauges[f"engine.{kind}.distinct_hashes"] == len(engine.hash_db)

    def test_post_restart_audit_events_sort_after_old_ones(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        before = [event.timestamp for event in restored.audit]
        assert before
        suppression = Suppression.of("ti", "bob", "approved again")
        decision = restored.check_upload(
            WIKI, "docD", [("docD#p0", SECRET_TEXT)],
            suppressions={"docD#p0": [suppression], "docD": [suppression]},
        )
        assert decision.allowed
        after = [event.timestamp for event in restored.audit.by_user("bob")]
        assert after
        assert min(after) > max(before)

    def test_post_restart_observation_cannot_steal_ownership(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        restored.observe(DOCS, "docE", [("docE#p0", SECRET_TEXT)])
        engine = restored.tracker.paragraphs
        hashes = engine.segment_db.get("docE#p0").fingerprint.hashes
        assert hashes
        for h in hashes:
            assert engine.hash_db.oldest_owner(h) != "docE#p0"

    def test_snapshot_flags_are_restored(self, tmp_path):
        model = TextDisclosureModel(PolicyStore(), TINY_CONFIG, authoritative=False)
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.tracker.paragraphs._authoritative is False
        assert restored.tracker.documents._authoritative is False
        assert restored.tracker.paragraphs.config == TINY_CONFIG
