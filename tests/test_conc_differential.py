"""Deterministic concurrency differential test for the shared engine.

Eight threads drive a shared :class:`DisclosureEngine` (at one and at
four shards) through a seeded, barrier-scheduled plan of observe / edit
/ discard / query operations. The schedule makes the outcome
deterministic without giving up real concurrency:

* **query rounds** — all eight threads issue disclosure queries at the
  same time (sharing the engine's one read lock); there is no writer in
  the round, so every report must be *field-identical* to the reference
  oracle (:mod:`reference_engine`) run on a serial replay of the
  linearised op log;
* **write rounds** — exactly one thread mutates (observe / edit /
  discard, taking the write lock) while the other seven hammer
  concurrent "noise" queries. Those queries race the write by design,
  so they are checked structurally (no dead segments, sane scores), not
  against the replay;
* barriers separate rounds, so the op log order *is* the round order
  and the logical clock ticks identically in the replay.

No sleeps anywhere: scheduling is entirely barrier-driven, so the test
is exactly repeatable for a fixed seed. Seeds come from
``BF_CONC_SEEDS`` (comma-separated) so the CI stress job can run the
same test under many distinct schedules with a deadlock timeout.
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from conftest import assert_databases_agree
from reference_engine import disclosing_sources_reference
from repro.disclosure import DisclosureEngine
from repro.fingerprint.config import FingerprintConfig

CONFIG = FingerprintConfig(ngram_size=4, window_size=3)
#: The one-shard default and a multi-shard engine.
SHARD_COUNTS = [1, 4]
N_THREADS = 8
N_ROUNDS = 25  # 8 threads x 25 rounds = 200 ops
SEGMENT_POOL = [f"seg-{i}" for i in range(12)]
WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
]

SEEDS = [
    int(s)
    for s in os.environ.get("BF_CONC_SEEDS", "2016,2017").split(",")
    if s.strip()
]


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(5, 20)))


def _build_plan(seed: int):
    """The full deterministic schedule: one action per (round, thread).

    Actions:
        ("observe", seg, text)  — create or edit (write lock)
        ("remove", seg)         — discard (write lock)
        ("query_fp", text)      — checked query by fingerprint
        ("query_target", seg)   — checked query by tracked id
        ("noise", text)         — unchecked query racing a write
    """
    rng = random.Random(seed)
    live: set = set()
    plan = []
    for _round in range(N_ROUNDS):
        write_round = rng.random() < 0.45 or not live
        actions = {}
        if write_round:
            writer = rng.randrange(N_THREADS)
            choice = rng.random()
            if live and choice < 0.2:
                seg = rng.choice(sorted(live))
                actions[writer] = ("remove", seg)
                live.discard(seg)
            elif live and choice < 0.55:
                seg = rng.choice(sorted(live))  # edit in place
                actions[writer] = ("observe", seg, _text(rng))
            else:
                seg = rng.choice(SEGMENT_POOL)
                actions[writer] = ("observe", seg, _text(rng))
                live.add(seg)
            for tid in range(N_THREADS):
                if tid != writer:
                    actions[tid] = ("noise", _text(rng))
        else:
            for tid in range(N_THREADS):
                if live and rng.random() < 0.5:
                    actions[tid] = ("query_target", rng.choice(sorted(live)))
                else:
                    actions[tid] = ("query_fp", _text(rng))
        plan.append(actions)
    return plan


def _apply(engine: DisclosureEngine, action):
    """Run one action; returns the report for checked queries, else None."""
    kind = action[0]
    if kind == "observe":
        engine.observe(action[1], action[2], threshold=0.5)
        return None
    if kind == "remove":
        engine.remove(action[1])
        return None
    if kind == "query_target":
        return engine.disclosing_sources(action[1])
    # query_fp and noise
    return engine.disclosing_sources(fingerprint=engine.fingerprint(action[1]))


def _apply_reference(engine: DisclosureEngine, action):
    """Like :func:`_apply`, but queries answer from the reference oracle."""
    kind = action[0]
    if kind == "query_target":
        return disclosing_sources_reference(engine, action[1])
    if kind in ("query_fp", "noise"):
        return disclosing_sources_reference(
            engine, fingerprint=engine.fingerprint(action[1])
        )
    return _apply(engine, action)


def _assert_reports_identical(actual, expected, context):
    assert actual.target_id == expected.target_id, context
    assert actual.candidates_checked == expected.candidates_checked, context
    assert len(actual.sources) == len(expected.sources), context
    for got, want in zip(actual.sources, expected.sources):
        assert got.segment_id == want.segment_id, context
        assert got.score == want.score, context
        assert got.threshold == want.threshold, context
        assert got.matched_hashes == want.matched_hashes, context
        assert got.kind == want.kind, context
        assert got.doc_id == want.doc_id, context


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_engine_matches_serial_replay(seed, n_shards):
    plan = _build_plan(seed)
    shared = DisclosureEngine(CONFIG, n_shards=n_shards)
    outputs = {}  # (round, tid) -> report, for checked queries
    errors = []
    barrier = threading.Barrier(N_THREADS)

    def worker(tid: int) -> None:
        try:
            for r, actions in enumerate(plan):
                barrier.wait(timeout=30)
                action = actions[tid]
                report = _apply(shared, action)
                if action[0] in ("query_fp", "query_target"):
                    outputs[(r, tid)] = report
                elif action[0] == "noise" and report is not None:
                    # Races the round's writer: check structure only.
                    assert set(report.source_ids()) <= set(SEGMENT_POOL)
                    for source in report.sources:
                        assert 0.0 < source.score <= 1.0
                barrier.wait(timeout=30)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((tid, exc))
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads), "worker deadlocked"

    # The shared engine's indexes survived 8-thread contention intact.
    shared.hash_db.check_invariants()
    assert_databases_agree(shared)

    # Replay the linearised op log on a serial one-shard engine and ask
    # the reference oracle. Write rounds contribute exactly one mutation
    # each, so round order *is* the linearisation; query-round reports
    # must match field-for-field.
    serial = DisclosureEngine(CONFIG)
    context = f"seed={seed} n_shards={n_shards}"
    for r, actions in enumerate(plan):
        kinds = {a[0] for a in actions.values()}
        if "observe" in kinds or "remove" in kinds:
            for action in actions.values():
                if action[0] in ("observe", "remove"):
                    _apply(serial, action)
        else:
            for tid in range(N_THREADS):
                expected = _apply_reference(serial, actions[tid])
                _assert_reports_identical(
                    outputs[(r, tid)], expected, f"{context} round={r} tid={tid}"
                )

    # End-state equivalence: same segments, same hash table, same owners,
    # and field-identical reports for every live segment.
    assert sorted(shared.segment_db.ids()) == sorted(serial.segment_db.ids())
    assert set(shared.hash_db.hashes()) == set(serial.hash_db.hashes())
    for h in serial.hash_db.hashes():
        assert shared.hash_db.oldest_owner(h) == serial.hash_db.oldest_owner(h)
    for seg in serial.segment_db.ids():
        _assert_reports_identical(
            shared.disclosing_sources(seg),
            disclosing_sources_reference(serial, seg),
            f"{context} final segment={seg}",
        )

    # Lock accounting is exact: one write acquisition per mutation, one
    # read acquisition per query (checked, noise, and final sweep).
    n_writes = sum(
        1
        for actions in plan
        for a in actions.values()
        if a[0] in ("observe", "remove")
    )
    n_queries = sum(
        1
        for actions in plan
        for a in actions.values()
        if a[0] in ("query_fp", "query_target", "noise")
    )
    stats = shared.lock.stats()
    assert stats["write_acquisitions"] == n_writes
    assert stats["read_acquisitions"] == n_queries + len(serial.segment_db.ids())


# ----------------------------------------------------------------------
# Verdict cache differential (DESIGN.md §13)
# ----------------------------------------------------------------------
#
# Same barrier scheme, one layer up: eight threads drive a shared
# PolicyLookup (at one and at four shards) — whose cached verdicts are
# validated against the stamp store — through query rounds and
# single-writer mutation rounds (observe / declassify / tag / threshold
# change / document removal / allowed commit / privilege revoke and
# grant). Every checked verdict, cache hit or miss, must be
# field-identical to an *uncached* serial replay of the linearised log
# on a one-shard model: a stale cache entry served after a missing
# stamp shows up as a diverging verdict.

from repro.plugin.lookup import PolicyLookup  # noqa: E402
from repro.tdm import Label, PolicyStore, TextDisclosureModel  # noqa: E402
from repro.tdm.labels import SegmentLabel  # noqa: E402

LOOKUP_SRC = "https://conc-src.example.com"
LOOKUP_DST = "https://conc-dst.example.com"
SOURCE_POOL = [f"src-{i}" for i in range(6)]
UPLOAD_DOCS = [f"up-{i}" for i in range(4)]
N_TAGS = 4
#: Tags whose privilege the plan grants to and revokes from the target.
PRIVILEGE_TAGS = ["s"] + [f"conc-tag-{i}" for i in range(N_TAGS)]
#: Rounds of the verdict-cache plan: enough for every mutator kind to
#: occur under the default seeds.
LOOKUP_ROUNDS = 60
#: Actions that mutate the model (one writer per round).
MUTATORS = {
    "observe", "wipe", "tag", "threshold", "remove", "commit", "revoke",
    "grant",
}


def _build_lookup_model(n_shards):
    policies = PolicyStore()
    policies.register_service(
        LOOKUP_SRC, privilege=Label.of("s"), confidentiality=Label.of("s")
    )
    policies.register_service(LOOKUP_DST)
    model = TextDisclosureModel(policies, CONFIG, n_shards=n_shards)
    # Pre-allocated in identical order on every model, so tags compare
    # equal between the shared run and the serial replay.
    tags = [
        model.allocate_custom_tag(f"conc-tag-{i}", owner="op")
        for i in range(N_TAGS)
    ]
    return model, tags


def _build_lookup_plan(seed: int):
    """One action per (round, thread); single writer per write round.

    Actions:
        ("observe", src, text)  — new or edited source (fingerprint
                                  deltas + possible label change)
        ("wipe", src)           — declassify: label change, no
                                  fingerprint delta
        ("tag", src, tag_idx)   — custom tag: label change, no
                                  fingerprint delta
        ("threshold", src, t)   — the source paragraph's threshold
        ("remove", src)         — remove the source document
        ("commit", doc, text)   — commit the upload if it is allowed
        ("revoke", tag_name)    — revoke a privilege of the target
        ("grant", tag_name)     — grant one back
        ("check", doc, text)    — checked lookup, compared to replay
        ("noise", doc, text)    — lookup racing the writer (structural)

    Every upload document keeps one paragraph id (``<doc>#p0``): a
    lookup for another paragraph of a cached document may be served
    the other paragraph's decision while nothing changed (ROADMAP).
    """
    rng = random.Random(seed * 31 + 7)
    live: list = []
    seen_texts: list = []
    plan = []
    for _round in range(LOOKUP_ROUNDS):
        write_round = rng.random() < 0.4 or not live
        actions = {}

        def probe_text():
            # Reuse observed source texts often: repeats make cache
            # hits, matches make nontrivial (blocked) verdicts.
            if seen_texts and rng.random() < 0.6:
                return rng.choice(seen_texts)
            return _text(rng)

        if write_round:
            writer = rng.randrange(N_THREADS)
            kinds = ["commit", "revoke", "grant"]
            if live:
                kinds += ["wipe", "tag", "threshold", "remove"]
            kind = "observe" if rng.random() < 0.3 else rng.choice(kinds)
            if kind == "observe":
                src = rng.choice(SOURCE_POOL)
                text = _text(rng)
                actions[writer] = ("observe", src, text)
                if src not in live:
                    live.append(src)
                seen_texts.append(text)
            elif kind == "commit":
                actions[writer] = ("commit", rng.choice(UPLOAD_DOCS), probe_text())
            elif kind in ("revoke", "grant"):
                actions[writer] = (kind, rng.choice(PRIVILEGE_TAGS))
            elif kind == "wipe":
                actions[writer] = ("wipe", rng.choice(sorted(live)))
            elif kind == "tag":
                actions[writer] = (
                    "tag", rng.choice(sorted(live)), rng.randrange(N_TAGS)
                )
            elif kind == "threshold":
                actions[writer] = (
                    "threshold",
                    rng.choice(sorted(live)),
                    rng.choice([0.1, 0.5, 0.9]),
                )
            else:
                src = rng.choice(sorted(live))
                live.remove(src)
                actions[writer] = ("remove", src)
            for tid in range(N_THREADS):
                if tid != writer:
                    actions[tid] = (
                        "noise", rng.choice(UPLOAD_DOCS), probe_text()
                    )
        else:
            for tid in range(N_THREADS):
                actions[tid] = (
                    "check", rng.choice(UPLOAD_DOCS), probe_text()
                )
        plan.append(actions)
    return plan


def _apply_lookup(lookup: PolicyLookup, action):
    kind = action[0]
    model = lookup.model
    if kind == "observe":
        model.observe(
            LOOKUP_SRC,
            action[1],
            [(f"{action[1]}#p0", action[2])],
        )
        return None
    if kind == "wipe":
        model.set_label(f"{action[1]}#p0", SegmentLabel())
        model.set_label(action[1], SegmentLabel())
        return None
    if kind == "tag":
        tag = model.policies.tag(f"conc-tag-{action[2]}")
        model.add_tag_to_segment(f"{action[1]}#p0", tag)
        return None
    if kind == "threshold":
        model.tracker.paragraphs.set_threshold(f"{action[1]}#p0", action[2])
        return None
    if kind == "remove":
        model.tracker.remove_document(action[1])
        return None
    if kind == "commit":
        doc, text = action[1], action[2]
        paragraphs = [(f"{doc}#p0", text)]
        decision = model.check_upload(LOOKUP_DST, doc, paragraphs)
        if decision.allowed:
            model.commit_upload(LOOKUP_DST, doc, paragraphs, decision)
        return None
    if kind == "revoke":
        model.policies.revoke_privilege(LOOKUP_DST, action[1])
        return None
    if kind == "grant":
        model.policies.grant_privilege(LOOKUP_DST, action[1])
        return None
    # check and noise
    doc, text = action[1], action[2]
    return lookup.lookup(LOOKUP_DST, doc, [(f"{doc}#p0", text)])


def _apply_serial_uncached(model: TextDisclosureModel, action):
    """Replay one action with no caches anywhere near the verdict."""
    if action[0] in MUTATORS:
        # Mutators are identical; borrow a throwaway lookup wrapper.
        class _Shim:
            pass

        shim = _Shim()
        shim.model = model
        return _apply_lookup(shim, action)  # type: ignore[arg-type]
    doc, text = action[1], action[2]
    return model.check_upload(LOOKUP_DST, doc, [(f"{doc}#p0", text)])


def _assert_decisions_identical(actual, expected, context):
    assert actual.service_id == expected.service_id, context
    assert actual.allowed == expected.allowed, context
    assert len(actual.violations) == len(expected.violations), context
    for got, want in zip(actual.violations, expected.violations):
        assert got == want, f"{context}: {got} != {want}"
    assert dict(actual.labels) == dict(expected.labels), context


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_epoch_cached_lookup_matches_uncached_replay(seed, n_shards):
    plan = _build_lookup_plan(seed)
    shared_model, _tags = _build_lookup_model(n_shards=n_shards)
    lookup = PolicyLookup(shared_model)
    outputs = {}
    errors = []
    barrier = threading.Barrier(N_THREADS)

    def worker(tid: int) -> None:
        try:
            for r, actions in enumerate(plan):
                barrier.wait(timeout=30)
                action = actions[tid]
                decision = _apply_lookup(lookup, action)
                if action[0] == "check":
                    outputs[(r, tid)] = decision
                elif action[0] == "noise" and decision is not None:
                    # Races the round's writer: structure only. A
                    # violation may be paragraph- ("up-N#p0") or
                    # document-granularity ("up-N").
                    assert isinstance(decision.allowed, bool)
                    for violation in decision.violations:
                        assert violation.segment_id.startswith("up-")
                barrier.wait(timeout=30)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((tid, exc))
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(tid,))
        for tid in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert not any(t.is_alive() for t in threads), "worker deadlocked"

    # Replay the linearised log on a one-shard model with no verdict
    # cache: checked-round decisions must match field-for-field, which
    # simultaneously proves cache validation sound under contention and
    # every shard count equivalent to one.
    serial_model, _ = _build_lookup_model(n_shards=1)
    for r, actions in enumerate(plan):
        kinds = {a[0] for a in actions.values()}
        if kinds & MUTATORS:
            for action in actions.values():
                if action[0] in MUTATORS:
                    _apply_serial_uncached(serial_model, action)
        else:
            for tid in range(N_THREADS):
                expected = _apply_serial_uncached(
                    serial_model, actions[tid]
                )
                _assert_decisions_identical(
                    outputs[(r, tid)],
                    expected,
                    f"seed={seed} n_shards={n_shards} round={r} tid={tid}",
                )

    # The cache actually served under contention (text reuse guarantees
    # repeats), and every check was a single-paragraph one, which
    # revalidates instead of needing the version unmoved.
    stats = lookup.stats()
    assert stats["epoch_cache_hits"] > 0
    assert stats["epoch_cache_misses"] > 0
    assert stats["epoch_cache_doc_global_epochs"] == 0

    # Final-state differential over the whole probe space.
    for doc in UPLOAD_DOCS:
        for src in SOURCE_POOL:
            probe = f"{doc}#p0"
            for text in (f"{src} closing probe", "alpha bravo charlie"):
                _assert_decisions_identical(
                    lookup.lookup(LOOKUP_DST, doc, [(probe, text)]),
                    serial_model.check_upload(
                        LOOKUP_DST, doc, [(probe, text)]
                    ),
                    f"seed={seed} n_shards={n_shards} final doc={doc} src={src}",
                )
