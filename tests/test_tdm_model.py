"""Tests for the TextDisclosureModel: the paper's §3 scenarios.

The fixtures mirror Figure 1: an Interview Tool (tag ti), an internal
Wiki (tag tw), and an untrusted Docs service (no tags).
"""

import pytest

from repro.errors import DisclosureError, PolicyError, SuppressionError
from repro.fingerprint.config import TINY_CONFIG
from repro.tdm import Label, PolicyStore, Tag, TextDisclosureModel
from repro.tdm.model import Suppression
from repro.util.clock import SystemClock

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT

ITOOL = "https://itool.xyz.com"
WIKI = "https://xyz.com"
DOCS = "https://docs.example.com"


@pytest.fixture
def model():
    policies = PolicyStore()
    policies.register_service(ITOOL, privilege=Label.of("ti"), confidentiality=Label.of("ti"))
    policies.register_service(WIKI, privilege=Label.of("tw"), confidentiality=Label.of("tw"))
    policies.register_service(DOCS)
    return TextDisclosureModel(policies, TINY_CONFIG)


def seg(doc, index, text):
    return (f"{doc}#p{index}", text)


class TestObservation:
    def test_new_text_gets_service_confidentiality(self, model):
        labels = model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        assert labels["docA#p0"].explicit == frozenset({Tag("ti")})

    def test_untrusted_service_text_is_public(self, model):
        labels = model.observe(DOCS, "docG", [seg("docG", 0, OTHER_TEXT)])
        assert labels["docG#p0"].effective() == Label.of()

    def test_document_label_stored(self, model):
        labels = model.observe(WIKI, "docW", [seg("docW", 0, THIRD_TEXT)])
        assert labels["docW"].explicit == frozenset({Tag("tw")})

    def test_similar_text_inherits_implicit_tags(self, model):
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        labels = model.observe(WIKI, "docB", [seg("docB", 0, SECRET_TEXT)])
        label = labels["docB#p0"]
        assert Tag("tw") in label.explicit
        assert Tag("ti") in label.implicit

    def test_locations_tracked(self, model):
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        assert model.locations_of("docA#p0") == frozenset({ITOOL})


class TestFigure3Flows:
    """Default tag assignment (paper Figure 3)."""

    def test_interview_text_blocked_at_wiki(self, model):
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        decision = model.check_upload(WIKI, "docB", [seg("docB", 0, SECRET_TEXT)])
        assert not decision.allowed
        offending = decision.violations[0].offending
        assert Tag("ti") in offending

    def test_docs_text_flows_to_wiki(self, model):
        model.observe(DOCS, "docG", [seg("docG", 0, OTHER_TEXT)])
        decision = model.check_upload(WIKI, "docB", [seg("docB", 0, OTHER_TEXT)])
        assert decision.allowed

    def test_interview_text_blocked_at_docs(self, model):
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        decision = model.check_upload(DOCS, "docC", [seg("docC", 0, SECRET_TEXT)])
        assert not decision.allowed

    def test_fresh_text_allowed_anywhere(self, model):
        decision = model.check_upload(DOCS, "docC", [seg("docC", 0, THIRD_TEXT)])
        assert decision.allowed

    def test_wiki_text_back_to_wiki_allowed(self, model):
        model.observe(WIKI, "docW", [seg("docW", 0, THIRD_TEXT)])
        decision = model.check_upload(WIKI, "docW2", [seg("docW2", 0, THIRD_TEXT)])
        assert decision.allowed

    def test_violation_reports_sources(self, model):
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        decision = model.check_upload(WIKI, "docB", [seg("docB", 0, SECRET_TEXT)])
        source_ids = {s.segment_id for v in decision.violations for s in v.sources}
        assert "docA#p0" in source_ids


class TestFigure4Suppression:
    """User tag suppression declassifies with an audit trail."""

    def test_suppression_allows_upload(self, model):
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        suppression = Suppression.of("ti", "alice", "sharing approved by legal")
        decision = model.check_upload(
            WIKI,
            "docB",
            [seg("docB", 0, SECRET_TEXT)],
            suppressions={"docB#p0": [suppression], "docB": [suppression]},
        )
        assert decision.allowed

    def test_suppression_audited(self, model):
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        suppression = Suppression.of("alice-user", "ti", "x")  # wrong arg order
        # Suppression.of(tag, user, justification) — build correctly:
        suppression = Suppression.of("ti", "alice", "approved")
        model.check_upload(
            WIKI,
            "docB",
            [seg("docB", 0, SECRET_TEXT)],
            suppressions={"docB#p0": [suppression]},
        )
        events = model.audit.by_user("alice")
        assert len(events) == 1
        assert events[0].tag == Tag("ti")
        assert events[0].justification == "approved"
        assert events[0].target_service == WIKI

    def test_suppressed_tag_stays_attached_after_commit(self, model):
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        suppression = Suppression.of("ti", "alice", "approved")
        decision = model.check_upload(
            WIKI,
            "docB",
            [seg("docB", 0, SECRET_TEXT)],
            suppressions={"docB#p0": [suppression], "docB": [suppression]},
        )
        model.commit_upload(WIKI, "docB", [seg("docB", 0, SECRET_TEXT)], decision)
        label = model.label_of("docB#p0")
        assert Tag("ti") in label.suppressed
        assert Tag("ti") in label.full().tags  # accountability retained

    def test_suppression_requires_attached_tag(self, model):
        suppression = Suppression.of("ghost", "alice", "does not apply")
        with pytest.raises(SuppressionError):
            model.check_upload(
                DOCS,
                "docC",
                [seg("docC", 0, THIRD_TEXT)],
                suppressions={"docC#p0": [suppression]},
            )

    def test_suppression_is_case_by_case(self, model):
        """A fresh copy of the source text must be declassified again."""
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        suppression = Suppression.of("ti", "alice", "approved once")
        decision = model.check_upload(
            WIKI, "docB", [seg("docB", 0, SECRET_TEXT)],
            suppressions={"docB#p0": [suppression], "docB": [suppression]},
        )
        assert decision.allowed
        # A different copy (new segment id) is still blocked.
        decision2 = model.check_upload(WIKI, "docB2", [seg("docB2", 0, SECRET_TEXT)])
        assert not decision2.allowed

    def test_suppression_requires_user_and_justification(self):
        with pytest.raises(SuppressionError):
            Suppression.of("ti", "", "reason")
        with pytest.raises(SuppressionError):
            Suppression.of("ti", "alice", "")


class TestFigure5CustomTags:
    """Custom tags restrict propagation; privileges back-propagate."""

    def test_custom_tag_blocks_otherwise_permitted_flow(self, model):
        # Admin permits wiki data in the Interview Tool.
        model.policies.register_service(
            ITOOL, privilege=Label.of("ti", "tw"), confidentiality=Label.of("ti")
        )
        model.observe(WIKI, "docW", [seg("docW", 0, THIRD_TEXT)])
        # Without the custom tag the flow is allowed...
        assert model.check_upload(ITOOL, "docI", [seg("docI", 0, THIRD_TEXT)]).allowed
        # ...but after the author protects the segment with tn it is not.
        model.allocate_custom_tag("tn", owner="alice")
        model.add_tag_to_segment("docW#p0", "tn")
        decision = model.check_upload(ITOOL, "docI", [seg("docI", 0, THIRD_TEXT)])
        assert not decision.allowed
        assert Tag("tn") in decision.violations[0].offending

    def test_privilege_back_propagates_to_storing_services(self, model):
        """Services already storing the segment receive tn in Lp (§3.1)."""
        model.observe(WIKI, "docW", [seg("docW", 0, THIRD_TEXT)])
        model.allocate_custom_tag("tn", owner="alice")
        model.add_tag_to_segment("docW#p0", "tn")
        assert Tag("tn") in model.policies.get(WIKI).privilege

    def test_wiki_still_accepts_its_own_protected_text(self, model):
        model.observe(WIKI, "docW", [seg("docW", 0, THIRD_TEXT)])
        model.allocate_custom_tag("tn", owner="alice")
        model.add_tag_to_segment("docW#p0", "tn")
        decision = model.check_upload(WIKI, "docW2", [seg("docW2", 0, THIRD_TEXT)])
        assert decision.allowed


class TestFigure6ImplicitTags:
    """Outdated tags must not propagate (paper Figure 6)."""

    @pytest.fixture
    def fig6_model(self):
        policies = PolicyStore()
        policies.register_service(
            ITOOL, privilege=Label.of("ti", "tw"), confidentiality=Label.of("ti")
        )
        policies.register_service(
            WIKI, privilege=Label.of("tw", "ti"), confidentiality=Label.of("tw")
        )
        policies.register_service(DOCS, privilege=Label.of("tw"))
        # The A-derived half is ~50% of B; thresholds below that
        # boundary keep the similarity link B -> C detectable.
        return TextDisclosureModel(
            policies, TINY_CONFIG, paragraph_threshold=0.3, document_threshold=0.3
        )

    def test_stale_tag_not_propagated(self, fig6_model):
        model = fig6_model
        # Step 0: A in the Interview Tool, B in the Wiki.
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        model.observe(WIKI, "docB", [seg("docB", 0, OTHER_TEXT)])
        # Step 1: the user appends A's text to B. B now discloses A and
        # inherits ti *implicitly*; Lp(wiki) includes ti so it uploads.
        b_text = OTHER_TEXT + " " + SECRET_TEXT
        decision = model.check_upload(WIKI, "docB", [seg("docB", 0, b_text)])
        assert decision.allowed
        model.commit_upload(WIKI, "docB", [seg("docB", 0, b_text)], decision)
        label_b = model.label_of("docB#p0")
        assert Tag("ti") in label_b.implicit
        assert Tag("tw") in label_b.explicit
        # Step 2: A is edited beyond recognition.
        model.observe(ITOOL, "docA", [seg("docA", 0, THIRD_TEXT)])
        # Step 3: the A-derived half of B is copied to Docs (Lp={tw}).
        decision = model.check_upload(DOCS, "docC", [seg("docC", 0, SECRET_TEXT)])
        # C discloses only from B now; B propagates tw (explicit) but
        # never its implicit ti, so the upload is permitted.
        assert decision.allowed, [v.describe() for v in decision.violations]
        label_c = decision.labels["docC#p0"]
        assert Tag("ti") not in label_c.effective().tags
        assert Tag("tw") in label_c.implicit

    def test_implicit_tag_still_checked_at_target(self, fig6_model):
        """Implicit tags do gate the segment itself (only onward
        propagation is cut)."""
        model = fig6_model
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        # Docs has Lp={tw}: text disclosing A (implicit ti) must not go.
        decision = model.check_upload(DOCS, "docC", [seg("docC", 0, SECRET_TEXT)])
        assert not decision.allowed


class TestCommitUpload:
    def test_commit_wrong_service_rejected(self, model):
        decision = model.check_upload(DOCS, "d", [seg("d", 0, THIRD_TEXT)])
        with pytest.raises(PolicyError):
            model.commit_upload(WIKI, "d", [seg("d", 0, THIRD_TEXT)], decision)

    def test_commit_records_location(self, model):
        paragraphs = [seg("d", 0, THIRD_TEXT)]
        decision = model.check_upload(DOCS, "d", paragraphs)
        model.commit_upload(DOCS, "d", paragraphs, decision)
        assert DOCS in model.locations_of("d#p0")

    def test_committed_text_becomes_known_source(self, model):
        paragraphs = [seg("w", 0, THIRD_TEXT)]
        decision = model.check_upload(WIKI, "w", paragraphs)
        model.commit_upload(WIKI, "w", paragraphs, decision)
        report = model.tracker.check_document("probe", [seg("probe", 0, THIRD_TEXT)])
        assert report.disclosing

    def test_commit_with_misaligned_fingerprints_rejected(self, model):
        paragraphs = [seg("d", 0, THIRD_TEXT), seg("d", 1, OTHER_TEXT)]
        decision = model.check_upload(DOCS, "d", paragraphs)
        version = model.tracker.stamps.version
        fingerprints = [model.tracker.paragraphs.fingerprint(THIRD_TEXT)]
        with pytest.raises(DisclosureError, match="got 1 fingerprints for 2"):
            model.commit_upload(
                DOCS, "d", paragraphs, decision, fingerprints=fingerprints
            )
        # Rejected before anything was stored: no half commit.
        assert model.tracker.stamps.version == version
        assert model.locations_of("d#p0") == frozenset()
        assert len(model.tracker.paragraphs) == 0


class TestResumedClock:
    """The model, its tracker and both engines share one clock."""

    def test_resume_clock_also_advances_the_audit_clock(self, model):
        assert model.tracker.clock is model._clock
        model.tracker.resume_clock(100.0)
        model.observe(ITOOL, "docA", [seg("docA", 0, SECRET_TEXT)])
        observed = model.tracker.paragraphs.segment_db.get("docA#p0").last_updated
        assert observed > 100.0
        suppression = Suppression.of("ti", "alice", "approved")
        model.check_upload(
            WIKI,
            "docB",
            [seg("docB", 0, SECRET_TEXT)],
            suppressions={"docB#p0": [suppression]},
        )
        (event,) = model.audit.by_user("alice")
        # A promoted or recovered model audits after what it replayed.
        assert event.timestamp > observed

    def test_a_wall_clock_model_refuses_to_resume(self):
        clock = SystemClock()
        model = TextDisclosureModel(config=TINY_CONFIG, clock=clock)
        assert model.tracker.clock is clock
        with pytest.raises(DisclosureError, match="SystemClock"):
            model.tracker.resume_clock(100.0)
