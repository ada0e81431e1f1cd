"""Stateful property testing of the disclosure engine (hypothesis).

A random interleaving of observe / edit / remove / query operations is
checked against a simple reference model on every step:

* an exact copy of a live segment's text is always detected;
* a removed segment is never reported;
* authoritative hash sets stay pairwise disjoint;
* the databases' size counters stay consistent.

A second machine interleaves plain and suppression-consuming policy
lookups through :class:`PolicyLookup` and checks that every suppression
is consumed — and audited — exactly once per lookup, even when the
decision cache is hot with the unsuppressed (violating) decision.
"""

import string

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.disclosure import DisclosureEngine
from repro.disclosure.metrics import authoritative_hashes
from repro.fingerprint.config import FingerprintConfig
from repro.plugin.lookup import PolicyLookup
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.tdm.model import Suppression

from conftest import SECRET_TEXT

CONFIG = FingerprintConfig(ngram_size=4, window_size=3)

texts = st.text(
    alphabet=string.ascii_lowercase + " ", min_size=0, max_size=80
)
segment_names = st.sampled_from([f"seg-{i}" for i in range(6)])


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = DisclosureEngine(CONFIG)
        self.live = {}  # segment id -> current text

    @rule(name=segment_names, text=texts)
    def observe(self, name, text):
        self.engine.observe(name, text, threshold=0.5)
        self.live[name] = text

    @rule(name=segment_names)
    def remove(self, name):
        if name in self.live:
            self.engine.remove(name)
            del self.live[name]

    @rule(name=segment_names, probe=texts)
    def query(self, name, probe):
        report = self.engine.disclosing_sources(
            fingerprint=self.engine.fingerprint(probe)
        )
        reported = set(report.source_ids())
        # Dead segments never resurface.
        assert reported <= set(self.live)
        for source in report.sources:
            assert 0.0 < source.score <= 1.0

    @rule(name=segment_names)
    def exact_copy_detected(self, name):
        if name not in self.live:
            return
        text = self.live[name]
        fp = self.engine.fingerprint(text)
        if fp.is_empty():
            return
        report = self.engine.disclosing_sources(fingerprint=fp)
        # The segment itself (or an identical earlier twin that owns the
        # hashes) must be reported.
        reported = set(report.source_ids())
        twins = {n for n, t in self.live.items() if t == text}
        assert reported & twins

    @invariant()
    def segment_count_consistent(self):
        assert len(self.engine.segment_db) == len(self.live)

    @invariant()
    def authoritative_sets_disjoint(self):
        owned = [
            authoritative_hashes(record, self.engine.hash_db)
            for record in self.engine.segment_db
        ]
        for i in range(len(owned)):
            for j in range(i + 1, len(owned)):
                assert not (owned[i] & owned[j])


EngineMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestEngineStateful = EngineMachine.TestCase


SRC = "https://src.example.com"
DST = "https://dst.example.com"
UPLOAD = [("up#p0", SECRET_TEXT)]

users = st.sampled_from(["alice", "bob", "carol"])
justifications = st.sampled_from(["legal review", "redacted copy", "audit"])


class SuppressionLookupMachine(RuleBasedStateMachine):
    """Interleaves plain and suppression-consuming lookups.

    The upload is always the same secret text, so the plain decision is
    always the same violation and quickly becomes cache-resident; the
    machine checks that suppressed lookups never touch that cache entry
    and that each one appends exactly one audit event per suppressed
    segment, no matter how the rules interleave.
    """

    def __init__(self):
        super().__init__()
        policies = PolicyStore()
        policies.register_service(
            SRC, privilege=Label.of("s"), confidentiality=Label.of("s")
        )
        policies.register_service(DST)
        self.model = TextDisclosureModel(policies, CONFIG)
        self.model.observe(SRC, "doc-src", [("doc-src#p0", SECRET_TEXT)])
        self.lookup = PolicyLookup(self.model)
        self.noise = 0

    @rule()
    def plain_lookup(self):
        # Never audited, never allowed — a prior suppression must not
        # have stuck to the segment or leaked into the cache.
        before = len(self.model.audit.suppressions())
        decision = self.lookup.lookup(DST, "up", UPLOAD)
        assert not decision.allowed
        assert len(self.model.audit.suppressions()) == before

    @rule(user=users, justification=justifications)
    def suppressed_lookup(self, user, justification):
        # Make sure the violating decision is cache-resident first.
        probe = self.lookup.lookup(DST, "up", UPLOAD)
        targets = probe.violating_segments()
        assert targets
        suppression = Suppression.of("s", user, justification)
        before = len(self.model.audit.suppressions())
        counters = self.lookup.cache.metrics.snapshot()
        decision = self.lookup.lookup(
            DST, "up", UPLOAD,
            suppressions={seg: [suppression] for seg in targets},
        )
        # Consumed: the suppression lifted every violation this once.
        assert decision.allowed
        # Audited exactly once per suppressed segment.
        fresh = self.model.audit.suppressions()[before:]
        assert len(fresh) == len(targets)
        assert sorted(e.segment_id for e in fresh) == sorted(targets)
        assert all(e.user == user for e in fresh)
        assert all(e.justification == justification for e in fresh)
        # The hot decision cache was bypassed entirely: no hit could have
        # served the stale violating decision, and the allowed decision
        # must not be memoised for later plain lookups.
        assert self.lookup.cache.metrics.snapshot() == counters

    @rule(text=texts)
    def observe_churn(self, text):
        # Unrelated writes bump the engine version and churn the cache;
        # suppression semantics must not depend on cache temperature.
        self.noise += 1
        doc = f"noise-{self.noise}"
        self.model.observe(SRC, doc, [(f"{doc}#p0", text)])

    @invariant()
    def audit_is_append_only_and_scoped(self):
        for event in self.model.audit.suppressions():
            assert event.tag.name == "s"
            assert event.target_service == DST


SuppressionLookupMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
TestSuppressionLookupStateful = SuppressionLookupMachine.TestCase
