"""Write-path differential: each text is fingerprinted once, state unchanged.

The shipped write path fingerprints a text once per request and reuses
the result: the plug-in's ``EditBuffer`` fingerprint (XHR syncs) or the
plug-in's own form fingerprints serve both the check and the commit,
page ingest shares one set between its check and its observe, and an
engine re-observing a segment records only the hashes it gained and
withdraws only the ones it lost.

Seeded fleet schedules (churn 0 and 1) are replayed op by op through
plug-ins on two stacks:

* the shipped stack;
* a reference stack whose tracker ignores every fingerprint passed to
  it, so every text is fingerprinted from scratch, and whose engines
  re-record a segment's whole fingerprint on every observation (a
  test-only copy of the full re-record apply that predates delta-only
  apply).

Both must end in identical state: every decision, every stored
``SegmentRecord``, every hash's owners with their first-seen times,
``ownership_changes``, the stamp store's version, build floor and label
stamps, and labels. The shipped hash stripes may be older than the
reference's, which re-stamps every hash it re-records, but never newer.
Both stacks journal every engine mutation and suppression to one WAL,
at either shard count, and the two WAL files must be byte-identical.
"""

from __future__ import annotations

import dataclasses
import string
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import EnterpriseFixture, assert_databases_agree
from repro.disclosure.wal import WAL_NAME, EngineJournal, WriteAheadLog
from repro.eval.fleet import FleetFixture, _execute_op, _SessionState, smoke_config
from repro.eval.workload import generate_schedule
from repro.tdm.state import model_to_dict

SEED = 2016
#: One shard (the single-store engine the fleets run by default) and
#: four shards.
SHARDS = [1, 4]


# ----------------------------------------------------------------------
# The reference write path
# ----------------------------------------------------------------------


def _full_rerecord_apply(engine, segment_id, flat, _hashes, existing, now):
    """The apply before delta-only apply: record every hash, each set
    derived from its selections."""
    new_hashes = frozenset(memoryview(flat).cast("Q")[0::3])
    old_hashes = frozenset() if existing is None else existing.fingerprint.hashes
    engine.hash_db.record_fingerprint(segment_id, new_hashes, now)
    engine.hash_db.withdraw(segment_id, old_hashes - new_hashes)
    return len(new_hashes)


def _ignoring_fingerprints(method):
    def call(
        *args,
        fingerprints=None,
        document_fingerprint=None,
        document_fingerprints=None,
        **kwargs,
    ):
        return method(*args, **kwargs)

    return call


def make_reference(model) -> None:
    """Turn *model*'s write path into the reference one, in place."""
    tracker = model.tracker
    for name in ("check_document", "check_documents", "observe_document"):
        setattr(tracker, name, _ignoring_fingerprints(getattr(tracker, name)))
    for engine in (tracker.paragraphs, tracker.documents):
        engine._apply_fingerprint_delta = types.MethodType(
            _full_rerecord_apply, engine
        )


def journal_to(model, directory) -> WriteAheadLog:
    """Journal every engine mutation and suppression of *model*."""
    directory.mkdir(parents=True)
    wal = WriteAheadLog(directory / WAL_NAME, fsync="never")
    journal = EngineJournal(wal)
    model.tracker.paragraphs.attach_journal(journal)
    model.tracker.documents.attach_journal(journal)
    model.attach_journal(journal)
    return wal


def record_decisions(plugin, into: list) -> None:
    """Append every decision *plugin* enforces to *into*."""
    enforce = plugin.enforcement.enforce

    def recording(decision, segments):
        into.append(decision)
        return enforce(decision, segments)

    plugin.enforcement.enforce = recording


# ----------------------------------------------------------------------
# State comparison
# ----------------------------------------------------------------------


def engine_state(engine) -> dict:
    hash_db = engine.hash_db
    hashes = sorted(hash_db.hashes())
    return {
        "records": {record.segment_id: record for record in engine.segment_db},
        "owners": {h: hash_db.owners(h) for h in hashes},
        "oldest": {h: hash_db.oldest_owner(h) for h in hashes},
        "ownership_changes": hash_db.ownership_changes,
    }


def assert_stamps_cover(shipped, reference) -> None:
    """The stamp stores agree, except that the shipped stripes may be
    older than the reference's, never newer.

    The reference re-records, and so re-stamps, every hash of an edited
    segment; the shipped path stamps the hashes an edit added and
    withdrew, and the whole fingerprint only when its size, threshold
    or document changed (DESIGN.md §13), which is all a verdict reads.
    Version, build floor and label stamps are identical.
    """
    assert (shipped.version, shipped._floor, shipped._segments) == (
        reference.version,
        reference._floor,
        reference._segments,
    )
    assert (shipped._stripes is None) == (reference._stripes is None)
    if shipped._stripes is not None:
        assert all(
            ours <= theirs
            for ours, theirs in zip(shipped._stripes, reference._stripes)
        )


def assert_same_state(shipped, reference) -> None:
    for kind in ("paragraphs", "documents"):
        ours = getattr(shipped.tracker, kind)
        theirs = getattr(reference.tracker, kind)
        ours.hash_db.check_invariants()
        assert_databases_agree(ours)
        assert_databases_agree(theirs)
        got, want = engine_state(ours), engine_state(theirs)
        assert got["records"].keys() == want["records"].keys(), kind
        for segment_id, record in want["records"].items():
            mine = got["records"][segment_id]
            selections = record.fingerprint.selections
            assert mine.fingerprint.selections == selections, segment_id
            assert mine == record, segment_id
        assert got == want, kind
    assert_stamps_cover(shipped.tracker.stamps, reference.tracker.stamps)
    assert model_to_dict(shipped) == model_to_dict(reference)


def wal_bytes(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("wal*.log"))}


# ----------------------------------------------------------------------
# Fleet replays
# ----------------------------------------------------------------------


class _Stack:
    """One enterprise replaying a fleet schedule serially, in op order."""

    def __init__(self, schedule, n_shards, wal_dir, *, reference: bool) -> None:
        self.fixture = FleetFixture(schedule.config, n_shards=n_shards)
        self.model = self.fixture.model
        if reference:
            make_reference(self.model)
        self.wal = journal_to(self.model, wal_dir)
        self.decisions: list = []
        self.outcomes: list = []
        sessions = {}
        try:
            for op in schedule.ops:
                state = sessions.get(op.session)
                if state is None:
                    state = _SessionState(self.fixture, op.session)
                    sessions[op.session] = state
                    record_decisions(state.plugin, self.decisions)
                self.outcomes.append(_execute_op(self.fixture, state, op))
        finally:
            self.wal.close()
            self.fixture.close()


@pytest.fixture(scope="module")
def schedules():
    base = dataclasses.replace(smoke_config(SEED), sessions=24)
    return {
        churn: generate_schedule(dataclasses.replace(base, churn=churn))
        for churn in (0.0, 1.0)
    }


@pytest.mark.parametrize("churn", [0.0, 1.0], ids=["churn0", "churn1"])
@pytest.mark.parametrize("n_shards", SHARDS, ids=["single-store", "4-shards"])
def test_fleet_replay_identical(schedules, churn, n_shards, tmp_path):
    schedule = schedules[churn]
    shipped = _Stack(schedule, n_shards, tmp_path / "shipped", reference=False)
    reference = _Stack(schedule, n_shards, tmp_path / "reference", reference=True)

    assert shipped.outcomes == reference.outcomes
    assert len(shipped.decisions) == len(reference.decisions)
    for i, (got, want) in enumerate(zip(shipped.decisions, reference.decisions)):
        assert got == want, f"decision {i}"
    assert_same_state(shipped.model, reference.model)
    assert wal_bytes(tmp_path / "shipped") == wal_bytes(tmp_path / "reference")
    assert list(wal_bytes(tmp_path / "shipped")) == [WAL_NAME]

    # Not vacuous: the replay blocked uploads, committed edits of
    # tracked segments, and journaled them.
    assert any(not d.allowed for d in shipped.decisions)
    assert any(d.allowed for d in shipped.decisions)
    assert len(shipped.model.tracker.paragraphs) > 0
    assert sum(len(b) for b in wal_bytes(tmp_path / "shipped").values()) > 0


@pytest.mark.parametrize("churn", [0.0, 1.0], ids=["churn0", "churn1"])
def test_commits_reuse_the_checked_fingerprints(schedules, churn):
    """The saving itself: a commit fingerprints at most the joined text.

    XHR syncs commit the edit buffer's fingerprint and form submits the
    plug-in's, so a commit computes nothing, except the ``"\\n\\n"``
    join of a multi-paragraph form post at document granularity.
    """
    schedule = schedules[churn]
    fixture = FleetFixture(schedule.config)
    model = fixture.model
    calls = []
    for engine in (model.tracker.paragraphs, model.tracker.documents):
        fingerprint = engine.fingerprinter.fingerprint

        def counting(text, _fingerprint=fingerprint):
            calls.append(text)
            return _fingerprint(text)

        engine.fingerprinter.fingerprint = counting
    commit = model.commit_upload
    commits = []

    def counting_commit(service_id, doc_id, paragraphs, decision, **kwargs):
        before = len(calls)
        commit(service_id, doc_id, paragraphs, decision, **kwargs)
        commits.append((service_id, len(paragraphs), len(calls) - before))

    model.commit_upload = counting_commit
    sessions = {}
    for op in schedule.ops:
        state = sessions.get(op.session)
        if state is None:
            state = sessions[op.session] = _SessionState(fixture, op.session)
        _execute_op(fixture, state, op)
    fixture.close()
    services = {service_id for service_id, _n, _computed in commits}
    assert fixture.docs.origin in services
    if churn == 0.0:
        assert {fixture.wiki.origin, fixture.forum.origin} <= services
    for service_id, paragraphs, computed in commits:
        assert computed == (1 if paragraphs > 1 else 0), (service_id, paragraphs)


# ----------------------------------------------------------------------
# Full-Unicode typing through the XHR path
# ----------------------------------------------------------------------

#: Lower-expanding İ, capital sharp s, ligatures, accents and CJK, next
#: to any letter, digit or space Unicode has.
_SPECIAL = string.ascii_letters + " .,!" + "İıẞßﬁﬂÄäÖöÑñÇçÉé北京漢字かな"
_CHARS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.characters(whitelist_categories=("Lu", "Ll", "Lo", "Nd", "Zs")),
)
_TEXT = st.text(_CHARS, min_size=0, max_size=40)


def _typing_stack(directory, secret, typed, *, reference: bool):
    e = EnterpriseFixture()
    if reference:
        make_reference(e.model)
    wal = journal_to(e.model, directory)
    decisions: list = []
    record_decisions(e.plugin, decisions)
    try:
        e.wiki.save_page("Secret", secret)
        e.browser.open(e.wiki.page_url("Secret"))
        editor = e.docs.open_editor(e.browser.new_tab())
        element = editor.new_paragraph()
        delivered = editor.type_text(element, typed)
    finally:
        wal.close()
    return e.model, decisions, delivered


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(secret=_TEXT, noise=_TEXT, copied=st.integers(0, 40))
def test_unicode_typing_identical(tmp_path_factory, secret, noise, copied):
    secret = secret + " İstanbul ve İzmir: STRAẞE ﬁle ﬂow, naïve 北京漢字"
    typed = noise + secret[:copied]
    base = tmp_path_factory.mktemp("typing")
    shipped, got, got_delivered = _typing_stack(
        base / "shipped", secret, typed, reference=False
    )
    reference, want, want_delivered = _typing_stack(
        base / "reference", secret, typed, reference=True
    )
    assert got_delivered == want_delivered
    assert got == want
    assert_same_state(shipped, reference)
    assert wal_bytes(base / "shipped") == wal_bytes(base / "reference")
