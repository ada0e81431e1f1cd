"""Durability cost: WAL journaling overhead and recovery time (§14).

One module owns the measurement so the trajectory tool
(``tools/bench_to_json.py``) and CI's durability job cannot drift
apart: both call :func:`measure`, and both go through
:func:`check_equivalence` first, so an overhead figure is never
produced for a durable engine whose recovered state disagrees with the
plain engine it claims to mirror.

Two questions, matching how the layer is deployed:

* **Steady-state journaling overhead** — the same mixed
  observe-and-scan workload is driven through a plain
  :class:`~repro.disclosure.engine.DisclosureEngine` and through a
  :class:`~repro.disclosure.wal.DurableEngine` under the default
  ``fsync="batch"`` policy. The gate statistic is the wall-clock ratio
  ``durable / plain``; the write-ahead records ride the mutation path,
  so the ratio bounds what durability costs every observe. CI gates it
  at < 1.15 (under 15% overhead).
* **Recovery time** — after the workload, constructing a fresh
  :class:`DurableEngine` on the same directory *is* crash recovery
  (scan + truncate + snapshot load + tail replay). Reported as seconds
  and records/second, once against the full log and once after a
  compaction folded the log into a snapshot — the two ends of the
  recovery-time spectrum the compaction policy trades between.

Timing protocol mirrors the other benches: several independent rounds
per path (fresh directory, cold caches, garbage collector paused
during the timed section), best round reported — with the two paths'
rounds interleaved so host-noise drift cannot masquerade as (or hide)
journaling overhead. Standard library only.
"""

from __future__ import annotations

import gc
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.datasets import EbookCorpus
from repro.disclosure.engine import DisclosureEngine
from repro.disclosure.metrics import authoritative_hashes
from repro.disclosure.wal import (
    DEFAULT_FSYNC_INTERVAL,
    WAL_NAME,
    DurableEngine,
    scan_wal_file,
)
from repro.fingerprint.config import PAPER_CONFIG
from repro.util.clock import LogicalClock

#: Schema version of BENCH_wal.json; bump on shape changes.
SCHEMA_VERSION = 1

#: Timed rounds per path; the best round (lowest seconds) is reported.
#: Plain and durable rounds are interleaved (see :func:`measure`).
ROUNDS = 5

#: Disclosure queries per observe. The plugin's steady state is
#: check-dominated — every page load and keystroke is a scan, while
#: observes happen only when confidential text is uploaded — and scans
#: never touch the WAL, so the mix decides how much journaling shows
#: up in the aggregate. 3:1 is conservative; real deployments are far
#: more scan-heavy (§6).
SCANS_PER_OBSERVE = 3

#: One workload op: ("observe", id, text, threshold) or ("scan", text).
Op = Tuple


def build_corpus(smoke: bool, seed: int) -> EbookCorpus:
    # Smoke stays big enough that the timed sections are tens of
    # milliseconds: much smaller and the overhead ratio is dominated by
    # per-round fixed costs and scheduler noise rather than journaling.
    if smoke:
        return EbookCorpus.generate(n_books=4, paragraphs_per_book=24, seed=seed)
    return EbookCorpus.generate(n_books=6, paragraphs_per_book=40, seed=seed)


def build_workload(corpus: EbookCorpus) -> List[Op]:
    """A deterministic mixed mutation/query script from the corpus."""
    ops: List[Op] = []
    pool = [p for book in corpus for p in book.paragraphs]
    for book in corpus:
        for i, text in enumerate(book.paragraphs):
            ops.append(("observe", f"{book.book_id}#p{i}", text, 0.5))
            for j in range(SCANS_PER_OBSERVE):
                probe = pool[(i * SCANS_PER_OBSERVE + j) % len(pool)]
                ops.append(("scan", probe))
    return ops


def drive(engine, ops: List[Op]) -> int:
    """Run the workload against either engine flavour; returns #scans."""
    scans = 0
    for op in ops:
        if op[0] == "observe":
            _kind, segment_id, text, threshold = op
            engine.observe(segment_id, text, threshold=threshold)
        else:
            fingerprint = engine.fingerprint(op[1])
            engine.disclosing_sources(fingerprint=fingerprint)
            scans += 1
    return scans


def _plain_engine() -> DisclosureEngine:
    return DisclosureEngine(PAPER_CONFIG, LogicalClock())


def _durable_engine(directory, **kwargs) -> DurableEngine:
    return DurableEngine(directory, config=PAPER_CONFIG, **kwargs)


def check_equivalence(ops: List[Op], directory) -> int:
    """Durable, plain, and *recovered* engines must agree everywhere.

    Runs the workload through a plain engine and a durable engine, then
    recovers the durable directory, and asserts all three report the
    same segments, the same hash-ownership, and the same verdicts on
    every confidential paragraph. Returns the number of verdicts
    compared. Raises ``AssertionError`` on the first divergence; an
    overhead figure must never be reported for a diverging WAL path.
    """
    plain = _plain_engine()
    drive(plain, ops)
    durable = _durable_engine(directory)
    drive(durable, ops)
    durable.close()
    recovered = _durable_engine(directory)

    compared = 0
    try:
        for engine in (durable.engine, recovered.engine):
            assert sorted(engine.segment_db.ids()) == sorted(
                plain.segment_db.ids()
            ), "segment sets diverge"
            for segment_id in plain.segment_db.ids():
                ours = engine.segment_db.get(segment_id)
                theirs = plain.segment_db.get(segment_id)
                assert ours.fingerprint.hashes == theirs.fingerprint.hashes
                assert ours.last_updated == theirs.last_updated
                assert authoritative_hashes(ours, engine.hash_db) == (
                    authoritative_hashes(theirs, plain.hash_db)
                )
        probes = [op for op in ops if op[0] == "observe"]
        for _kind, segment_id, text, _threshold in probes:
            want = plain.disclosing_sources(
                fingerprint=plain.fingerprint(text)
            )
            got = recovered.disclosing_sources(
                fingerprint=recovered.fingerprint(text)
            )
            assert [(s.segment_id, s.score) for s in got.sources] == [
                (s.segment_id, s.score) for s in want.sources
            ], f"recovered verdict diverges for {segment_id!r}"
            compared += 1
    finally:
        recovered.close()
    return compared


def _best_seconds(build: Callable[[], object], run: Callable[[object], None],
                  teardown: Callable[[object], None], rounds: int) -> float:
    best: Optional[float] = None
    for _ in range(max(1, rounds)):
        subject = build()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run(subject)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
            teardown(subject)
        if best is None or elapsed < best:
            best = elapsed
    return best or 0.0


def measure(smoke: bool, seed: int, *, rounds: int = ROUNDS) -> dict:
    """The full durability-cost measurement (the BENCH_wal.json payload)."""
    corpus = build_corpus(smoke, seed)
    ops = build_workload(corpus)
    observes = sum(1 for op in ops if op[0] == "observe")
    scans = len(ops) - observes
    chars = sum(len(op[2]) for op in ops if op[0] == "observe")

    root = Path(tempfile.mkdtemp(prefix="wal_bench."))
    try:
        compared = check_equivalence(ops, root / "equiv")

        # The two paths are timed in *interleaved* rounds (plain,
        # durable, plain, durable, ...): host noise drifts on the scale
        # of a whole phase, so timing all plain rounds and then all
        # durable rounds lets a frequency shift masquerade as (or hide)
        # journaling overhead. Interleaving hits both paths with the
        # same weather; best round per path is reported.
        durable_dirs: List[Path] = []
        plain_s = float("inf")
        durable_s = float("inf")
        for _ in range(max(1, rounds)):
            plain_s = min(
                plain_s,
                _best_seconds(
                    _plain_engine, lambda e: drive(e, ops),
                    lambda e: None, 1,
                ),
            )

            def build_durable():
                directory = root / f"durable{len(durable_dirs)}"
                durable_dirs.append(directory)
                return _durable_engine(directory)

            durable_s = min(
                durable_s,
                _best_seconds(
                    build_durable, lambda e: drive(e, ops),
                    lambda e: e.close(), 1,
                ),
            )

        # Recovery: replay the full log of one of the timed directories.
        log_dir = durable_dirs[0]
        records, _good, _torn = scan_wal_file(log_dir / WAL_NAME)
        recovery_s = _best_seconds(
            lambda: None,
            lambda _s: _durable_engine(log_dir).close(),
            lambda _s: None,
            rounds,
        )

        # ...and again after compaction folds the log into a snapshot.
        compactor = _durable_engine(log_dir)
        compactor.compact()
        compactor.close()
        compacted_recovery_s = _best_seconds(
            lambda: None,
            lambda _s: _durable_engine(log_dir).close(),
            lambda _s: None,
            rounds,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    overhead = durable_s / plain_s if plain_s > 0 else 0.0
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "wal",
        "smoke": smoke,
        "seed": seed,
        "python": platform.python_version(),
        "config": {
            "fsync": "batch",
            "fsync_interval": DEFAULT_FSYNC_INTERVAL,
            "rounds": rounds,
            "ngram_size": PAPER_CONFIG.ngram_size,
            "window_size": PAPER_CONFIG.window_size,
            "hash_bits": PAPER_CONFIG.hash_bits,
        },
        "workload": {
            "observes": observes,
            "scans": scans,
            "chars": chars,
        },
        "equivalence_checked": compared,
        "paths": {
            "plain": {
                "ops": len(ops),
                "seconds": plain_s,
                "ops_per_s": len(ops) / plain_s if plain_s > 0 else 0.0,
            },
            "durable": {
                "ops": len(ops),
                "seconds": durable_s,
                "ops_per_s": len(ops) / durable_s if durable_s > 0 else 0.0,
            },
        },
        "overhead": {"ratio": overhead},
        "recovery": {
            "records": len(records),
            "seconds": recovery_s,
            "records_per_s": (
                len(records) / recovery_s if recovery_s > 0 else 0.0
            ),
            "post_compaction_seconds": compacted_recovery_s,
        },
    }
