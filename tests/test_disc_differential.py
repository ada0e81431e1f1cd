"""Differential tests: indexed single-sweep query ≡ reference scan.

The engine's hot path answers Algorithm 1 with one sweep over the
target's hashes against incrementally-maintained inverted indexes
(owner entries, segment reverse index, authoritative-set cache), split
across hash-range shards. The pre-index implementation lives in test
code (:mod:`reference_engine`) and recomputes ownership from the raw
observation lists. These tests drive the engine at 1, 2, 4 and 8
shards through arbitrary observe / edit / remove sequences and assert
its reports are identical to the oracle's in every field — sources,
scores, thresholds, matched hashes, ordering, and candidate counts — in
both authoritative modes.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import assert_databases_agree
from reference_engine import disclosing_sources_reference, oldest_owner_reference
from repro.disclosure import DisclosureEngine
from repro.disclosure.engine import DisclosureReport
from repro.fingerprint.config import FingerprintConfig, TINY_CONFIG

SHARD_COUNTS = [1, 2, 4, 8]
CONFIG = FingerprintConfig(ngram_size=4, window_size=3)

texts = st.text(alphabet=string.ascii_lowercase + " ", min_size=0, max_size=80)
segment_names = st.sampled_from([f"seg-{i}" for i in range(5)])

# (op, segment, text) steps; text is ignored for removes.
steps = st.lists(
    st.tuples(st.sampled_from(["observe", "remove"]), segment_names, texts),
    min_size=0,
    max_size=25,
)


def assert_reports_identical(indexed: DisclosureReport, reference: DisclosureReport):
    """Field-by-field equality, with readable diffs on failure."""
    assert indexed.target_id == reference.target_id
    assert indexed.candidates_checked == reference.candidates_checked
    assert [s.segment_id for s in indexed.sources] == [
        s.segment_id for s in reference.sources
    ]
    for got, expected in zip(indexed.sources, reference.sources):
        assert got.score == expected.score, got.segment_id
        assert got.threshold == expected.threshold, got.segment_id
        assert got.matched_hashes == expected.matched_hashes, got.segment_id
        assert got.kind == expected.kind, got.segment_id
        assert got.doc_id == expected.doc_id, got.segment_id
    assert indexed.sources == reference.sources


def apply_steps(engine, script):
    live = set()
    for op, name, text in script:
        if op == "observe":
            engine.observe(name, text, threshold=0.5)
            live.add(name)
        elif name in live:
            engine.remove(name)
            live.discard(name)
    return live


def check_all_queries(engine, live, probes=()):
    engine.hash_db.check_invariants()
    assert_databases_agree(engine)
    for name in sorted(live):
        assert_reports_identical(
            engine.disclosing_sources(name),
            disclosing_sources_reference(engine, name),
        )
    for probe in probes:
        fp = engine.fingerprint(probe)
        assert_reports_identical(
            engine.disclosing_sources(fingerprint=fp),
            disclosing_sources_reference(engine, fingerprint=fp),
        )


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
class TestDifferentialSequences:
    @settings(max_examples=60, deadline=None)
    @given(script=steps, probe=texts)
    def test_authoritative(self, n_shards, script, probe):
        engine = DisclosureEngine(CONFIG, n_shards=n_shards)
        live = apply_steps(engine, script)
        check_all_queries(engine, live, probes=[probe])

    @settings(max_examples=60, deadline=None)
    @given(script=steps, probe=texts)
    def test_non_authoritative(self, n_shards, script, probe):
        engine = DisclosureEngine(CONFIG, authoritative=False, n_shards=n_shards)
        live = apply_steps(engine, script)
        check_all_queries(engine, live, probes=[probe])

    @settings(max_examples=40, deadline=None)
    @given(script=steps)
    def test_oldest_owner_index_consistent(self, n_shards, script):
        engine = DisclosureEngine(CONFIG, n_shards=n_shards)
        apply_steps(engine, script)
        db = engine.hash_db
        for h in db.hashes():
            assert db.oldest_owner(h) == oldest_owner_reference(db, h)

    @settings(max_examples=40, deadline=None)
    @given(script=steps, doc=st.sampled_from(["doc-a", "doc-b"]))
    def test_exclude_doc(self, n_shards, script, doc):
        engine = DisclosureEngine(CONFIG, n_shards=n_shards)
        for i, (op, name, text) in enumerate(script):
            if op == "observe":
                engine.observe(
                    name, text, doc_id="doc-a" if i % 2 else "doc-b"
                )
            elif engine.segment_db.find(name) is not None:
                engine.remove(name)
        for name in engine.segment_db.ids():
            fp = engine.segment_db.get(name).fingerprint
            assert_reports_identical(
                engine.disclosing_sources(fingerprint=fp, exclude_doc=doc),
                disclosing_sources_reference(
                    engine, fingerprint=fp, exclude_doc=doc
                ),
            )


class TestFigure6Migration:
    """Authoritative-ownership migration (the paper's Figure 6 scenario).

    The Interview Tool pastes text into the Wiki; when the Interview
    Tool's copy is later edited away, the Wiki must become the
    authoritative source — and the indexed path must track that
    migration identically to the reference scan at every step.
    """

    TEXT = "the quick brown fox jumps over the lazy dog again and again"
    REPLACEMENT = "completely different words about gardening in the spring"

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_migration_matches_reference(self, n_shards):
        engine = DisclosureEngine(TINY_CONFIG, n_shards=n_shards)
        engine.observe("interview", self.TEXT)
        engine.observe("wiki", self.TEXT)
        fp = engine.fingerprint(self.TEXT)

        before = engine.disclosing_sources(fingerprint=fp)
        assert_reports_identical(
            before, disclosing_sources_reference(engine, fingerprint=fp)
        )
        assert before.source_ids() == ["interview"]

        # The edit withdraws the interview tool's claims...
        engine.observe("interview", self.REPLACEMENT)
        after = engine.disclosing_sources(fingerprint=fp)
        assert_reports_identical(
            after, disclosing_sources_reference(engine, fingerprint=fp)
        )
        # ...so the wiki is now the authoritative source.
        assert after.source_ids() == ["wiki"]
        engine.hash_db.check_invariants()
        assert_databases_agree(engine)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_removal_migration(self, n_shards):
        engine = DisclosureEngine(TINY_CONFIG, n_shards=n_shards)
        engine.observe("first", self.TEXT)
        engine.observe("second", self.TEXT)
        engine.remove("first")
        fp = engine.fingerprint(self.TEXT)
        report = engine.disclosing_sources(fingerprint=fp)
        assert_reports_identical(
            report, disclosing_sources_reference(engine, fingerprint=fp)
        )
        assert report.source_ids() == ["second"]


class DifferentialMachine(RuleBasedStateMachine):
    """Stateful interleaving: every query checks indexed ≡ reference,
    on engines of every shard count in both authoritative modes."""

    def __init__(self):
        super().__init__()
        self.engines = [
            DisclosureEngine(CONFIG, authoritative=authoritative, n_shards=n)
            for authoritative in (True, False)
            for n in SHARD_COUNTS
        ]
        self.live = set()

    @rule(name=segment_names, text=texts)
    def observe(self, name, text):
        for engine in self.engines:
            engine.observe(name, text, threshold=0.5)
        self.live.add(name)

    @rule(name=segment_names)
    def remove(self, name):
        if name in self.live:
            for engine in self.engines:
                engine.remove(name)
            self.live.discard(name)

    @rule(probe=texts)
    def query_probe(self, probe):
        for engine in self.engines:
            fp = engine.fingerprint(probe)
            assert_reports_identical(
                engine.disclosing_sources(fingerprint=fp),
                disclosing_sources_reference(engine, fingerprint=fp),
            )

    @rule(name=segment_names)
    def query_tracked(self, name):
        if name not in self.live:
            return
        for engine in self.engines:
            assert_reports_identical(
                engine.disclosing_sources(name),
                disclosing_sources_reference(engine, name),
            )

    @invariant()
    def indexes_consistent(self):
        for engine in self.engines:
            engine.hash_db.check_invariants()
            assert_databases_agree(engine)


DifferentialMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestDifferentialStateful = DifferentialMachine.TestCase
