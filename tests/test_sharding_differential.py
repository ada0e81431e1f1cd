"""Differential tests: the engine at every shard count ≡ the oracle.

Three layers of evidence, strongest last:

* a deterministic serial op sequence (observes, Figure-6 edits,
  removals, queries) replayed on a :class:`DisclosureEngine` at shard
  counts 1/2/4/8 × authoritative on/off, asserting field-identical
  reports against the reference oracle (:mod:`reference_engine`) and
  identical ownership against the one-shard engine;
* the barrier-scheduled 8-thread concurrency harness from
  :mod:`test_conc_differential`, re-run at 1/2/4/8 shards — concurrent
  writers/readers over the engine's one lock must still linearise to
  the oracle on a serial replay;
* a hypothesis property over random observation/withdrawal histories:
  per-owner counts merged across shards equal a single table's sweep,
  for both authoritative modes (the Figure-6 migration case arises
  naturally from withdrawals).
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disclosure import DisclosureEngine, HashDatabase, ShardedHashDatabase
from repro.fingerprint.config import FingerprintConfig

from conftest import assert_databases_agree
from reference_engine import disclosing_sources_reference
from test_conc_differential import (
    N_THREADS,
    SEGMENT_POOL,
    _apply,
    _apply_reference,
    _assert_reports_identical,
    _build_plan,
)
from test_disc_sharding import canon, unsharded_sweep

CONFIG = FingerprintConfig(ngram_size=4, window_size=3)

#: Serial op sequence covering creates, no-op re-observes, Figure-6
#: edits (ownership migration via withdrawal), and removals.
SERIAL_OPS = [
    ("observe", "wiki", "the acquisition target list is confidential until friday"),
    ("observe", "tool", "the acquisition target list is confidential until friday"),
    ("observe", "memo", "quarterly revenue numbers look strong across all regions"),
    ("query", "the acquisition target list is confidential until monday"),
    # Figure 6: the first observer edits the text away; authority over
    # the shared hashes must migrate to the second observer.
    ("observe", "wiki", "we now discuss gardening schedules and tulip beds"),
    ("query", "the acquisition target list is confidential until friday"),
    ("observe", "memo", "quarterly revenue numbers look strong across all regions"),
    ("remove", "tool"),
    ("query", "the acquisition target list is confidential until friday"),
    ("query", "quarterly revenue numbers look strong across most regions"),
    ("observe", "note", "quarterly revenue numbers look strong across all regions"),
    ("query", "quarterly revenue numbers look strong across all regions"),
]


def _run_serial(engine, ops):
    """Replay *ops*; each query yields (engine report, oracle report)."""
    reports = []
    for op in ops:
        if op[0] == "observe":
            engine.observe(op[1], op[2], threshold=0.5)
        elif op[0] == "remove":
            engine.remove(op[1])
        else:
            fp = engine.fingerprint(op[1])
            reports.append(
                (
                    engine.disclosing_sources(fingerprint=fp),
                    disclosing_sources_reference(engine, fingerprint=fp),
                )
            )
    return reports


class TestSerialDifferential:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("authoritative", [True, False])
    def test_field_identical_reports(self, n_shards, authoritative):
        one = DisclosureEngine(CONFIG, authoritative=authoritative)
        sharded = DisclosureEngine(
            CONFIG, authoritative=authoritative, n_shards=n_shards
        )
        baseline = _run_serial(one, SERIAL_OPS)
        reports = _run_serial(sharded, SERIAL_OPS)
        assert len(reports) == len(baseline)
        for i, ((got, want), (one_got, _)) in enumerate(zip(reports, baseline)):
            context = f"n_shards={n_shards} auth={authoritative} query={i}"
            _assert_reports_identical(got, want, context)
            _assert_reports_identical(got, one_got, context)
        # The migration actually happened (the scenario is not vacuous):
        # after wiki's edit, tool owned the shared hashes until removed.
        assert baseline[0][1].disclosing
        sharded.hash_db.check_invariants()
        assert_databases_agree(sharded)
        assert_databases_agree(one)
        for h in one.hash_db.hashes():
            assert sharded.hash_db.oldest_owner(h) == one.hash_db.oldest_owner(h)

    def test_sharded_indexed_matches_sharded_reference(self):
        sharded = DisclosureEngine(CONFIG, n_shards=4)
        _run_serial(sharded, SERIAL_OPS)
        for _op, *rest in [op for op in SERIAL_OPS if op[0] == "query"]:
            fp = sharded.fingerprint(rest[0])
            _assert_reports_identical(
                sharded.disclosing_sources(fingerprint=fp),
                disclosing_sources_reference(sharded, fingerprint=fp),
                rest[0],
            )


class TestConcurrentDifferential:
    """The 8-thread barrier harness at every shard count."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_concurrent_sharded_matches_serial_plain_replay(self, n_shards):
        seed = 2016 + n_shards
        plan = _build_plan(seed)
        shared = DisclosureEngine(CONFIG, n_shards=n_shards)
        outputs = {}
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
                        assert set(report.source_ids()) <= set(SEGMENT_POOL)
                        for source in report.sources:
                            assert 0.0 < source.score <= 1.0
                    barrier.wait(timeout=30)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((tid, exc))
                barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads), "worker deadlocked"

        shared.hash_db.check_invariants()
        assert_databases_agree(shared)

        # Replay the linearised op log on a serial one-shard engine and
        # ask the oracle: the engine under contention must match it.
        serial = DisclosureEngine(CONFIG)
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
                        outputs[(r, tid)],
                        expected,
                        f"n_shards={n_shards} round={r} tid={tid}",
                    )

        assert sorted(shared.segment_db.ids()) == sorted(serial.segment_db.ids())
        assert set(shared.hash_db.hashes()) == set(serial.hash_db.hashes())
        for h in serial.hash_db.hashes():
            assert shared.hash_db.oldest_owner(h) == serial.hash_db.oldest_owner(h)
        for seg in serial.segment_db.ids():
            _assert_reports_identical(
                shared.disclosing_sources(seg),
                disclosing_sources_reference(serial, seg),
                f"n_shards={n_shards} final segment={seg}",
            )


SEGMENTS = [f"s{i}" for i in range(5)]
HASH_BITS = 16  # small space so hypothesis finds collisions and migrations


@st.composite
def histories(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["record", "withdraw"]),
                st.integers(0, (1 << HASH_BITS) - 1),
                st.sampled_from(SEGMENTS),
                st.integers(0, 6),
            ),
            max_size=80,
        )
    )
    query = draw(st.lists(st.integers(0, (1 << HASH_BITS) - 1), max_size=40))
    n_shards = draw(st.sampled_from([1, 2, 3, 4, 8]))
    authoritative = draw(st.booleans())
    return ops, query, n_shards, authoritative


class TestScatterGatherProperty:
    @settings(max_examples=120, deadline=None)
    @given(histories())
    def test_merged_counts_equal_unsharded_sweep(self, history):
        ops, query, n_shards, authoritative = history
        plain = HashDatabase()
        sharded = ShardedHashDatabase(n_shards, hash_bits=HASH_BITS)
        for kind, h, seg, ts in ops:
            if kind == "record":
                plain.record_fingerprint(seg, (h,), float(ts))
                sharded.record_fingerprint(seg, (h,), float(ts))
            else:
                # Withdrawals are what drive Figure-6 ownership
                # migrations (authority falls to the next-earliest
                # observer on the hash's home shard).
                plain.withdraw(seg, (h,))
                sharded.withdraw(seg, (h,))
        target = frozenset(query)
        expected = unsharded_sweep(plain, target, authoritative)
        got = sharded.sweep(target, authoritative=authoritative)
        assert canon(got) == canon(expected)
        for h in target:
            assert sharded.oldest_owner(h) == plain.oldest_owner(h)
        sharded.check_invariants()
