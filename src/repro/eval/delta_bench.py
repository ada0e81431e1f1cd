"""Per-edit check latency: delta pipeline vs full recheck (§13).

One module owns the comparison so the pytest benchmark
(``benchmarks/bench_delta_check.py``) and the trajectory tool
(``tools/bench_to_json.py``) cannot drift apart: both call
:func:`measure`, and both go through :func:`check_equivalence` first,
so a speedup figure is never produced for a delta path that disagrees
with the reference path on any fingerprint or any verdict.

The question is the paper's §6.2 hot path under ISSUE 9's lens: a
user is typing into a large Docs paragraph and every keystroke needs a
policy verdict. The *full-recheck* baseline is what the stack did
before the delta pipeline — re-normalise, re-hash, and re-winnow the
whole paragraph, then recompute the verdict. The *delta* path is the
edit-local pipeline: an :class:`~repro.fingerprint.incremental.EditBuffer`
splices only the ``k+w-1`` dirty radius of the fingerprint and hands it
to the lookup tier, whose verdict cache answers without an engine
sweep whenever the winnowed hash set is unchanged and nothing the
cached verdict read was written since (the common case for a trailing
keystroke).

Both paths answer the *identical* edit scripts against models holding
the identical confidential corpus; the model is static during the timed
runs (the open-loop fleet bench is where delta checks meet concurrent
churn). Equivalence is asserted at one and at four shards:

* every per-edit fingerprint from the delta path is field-identical
  (values, offsets, spans) to the reference pipeline's, and
* every per-edit decision from the delta path equals the full-recheck
  decision.

Timing protocol mirrors ``shard_bench``: each path is driven for
several independent rounds (fresh server, cold caches, garbage
collector paused during the timed section) and the best round per path
is reported. The gate statistic is the **per-edit median speedup**
(full median / delta median); CI smoke gates it at >= 2x, the committed
full run clears >= 3x.

Everything here is standard library, so ``tools/bench_to_json.py``
stays dependency-free.
"""

from __future__ import annotations

import gc
import platform
import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.datasets import EbookCorpus
from repro.fingerprint.config import PAPER_CONFIG
from repro.fingerprint.incremental import EditBuffer
from repro.plugin.lookup import PolicyLookup
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.util.stats import percentile

#: Schema version of BENCH_delta.json; bump on shape changes.
SCHEMA_VERSION = 1

#: The sharded deployment compared against the classic single engine.
N_SHARDS = 4

#: Timed rounds per path; the best round (lowest median) is reported.
ROUNDS = 3

LIBRARY = "https://library.example.com"
DOCS = "https://docs.example.com"

#: One edit script: a paragraph id and its successive text states.
EditScript = Tuple[str, List[str]]


def build_corpus(smoke: bool, seed: int) -> EbookCorpus:
    if smoke:
        return EbookCorpus.generate(n_books=3, paragraphs_per_book=20, seed=seed)
    return EbookCorpus.generate(n_books=8, paragraphs_per_book=40, seed=seed)


def build_model(
    corpus: EbookCorpus, *, n_shards: int = 1
) -> TextDisclosureModel:
    """A disclosure model holding *corpus* as confidential sources."""
    policies = PolicyStore()
    policies.register_service(
        LIBRARY, privilege=Label.of("lib"), confidentiality=Label.of("lib")
    )
    policies.register_service(DOCS)
    model = TextDisclosureModel(policies, PAPER_CONFIG, n_shards=n_shards)
    for book in corpus:
        doc_id = f"{LIBRARY}|{book.book_id}"
        model.observe(
            LIBRARY,
            doc_id,
            [(f"{doc_id}#p{i}", text) for i, text in enumerate(book.paragraphs)],
        )
    return model


def build_edit_scripts(
    corpus: EbookCorpus,
    seed: int,
    *,
    paragraphs: int,
    edits: int,
    base_parts: int = 3,
) -> List[EditScript]:
    """Deterministic keystroke-churn scripts over large paragraphs.

    Each script starts from a multi-paragraph public base text (so the
    full-recheck baseline pays a realistic large-document fingerprint)
    and applies *edits* successive edits drawn from the churn mix the
    fleet's Docs sessions exhibit:

    * trailing keystrokes (the dominant op — one appended character),
    * word-level substitutions mid-text (the W3 fix-up workflow),
    * sentence pastes at the end,
    * occasionally a pasted fragment of a *confidential* library
      paragraph, so some states cross the disclosure threshold and the
      verdict mix contains blocks as well as allows.

    Returns the full state list per paragraph; both paths replay the
    identical states.
    """
    rng = random.Random(f"delta:{seed}:scripts")
    pool = [p for book in corpus for p in book.paragraphs]
    scripts: List[EditScript] = []
    for k in range(paragraphs):
        parts = [pool[rng.randrange(len(pool))] for _ in range(base_parts)]
        # The base is public text: shuffle each source paragraph's words
        # so it shares vocabulary but not winnowed n-grams with the
        # confidential corpus.
        shuffled = []
        for part in parts:
            words = part.split()
            rng.shuffle(words)
            shuffled.append(" ".join(words))
        text = " ".join(shuffled)
        typing_tail = ""
        states: List[str] = [text]
        for _ in range(edits):
            draw = rng.random()
            if draw < 0.70:
                if not typing_tail:
                    source = pool[rng.randrange(len(pool))].split()
                    rng.shuffle(source)
                    typing_tail = " " + " ".join(source[:8])
                text += typing_tail[0]
                typing_tail = typing_tail[1:]
            elif draw < 0.85:
                words = text.split()
                if words:
                    i = rng.randrange(len(words))
                    words[i] = pool[rng.randrange(len(pool))].split()[0]
                    text = " ".join(words)
            elif draw < 0.95:
                sentence = pool[rng.randrange(len(pool))].split(".")[0]
                text += " " + sentence + "."
            else:
                secret = pool[rng.randrange(len(pool))]
                cut = rng.randrange(60, max(61, min(len(secret), 140)))
                text += " " + secret[:cut]
            states.append(text)
        scripts.append((f"{DOCS}|bench-d{k}#p0", states))
    return scripts


def _lookup_for(model: TextDisclosureModel) -> PolicyLookup:
    return PolicyLookup(model)


def run_full(
    lookup: PolicyLookup, scripts: Sequence[EditScript]
) -> Tuple[List[float], List[object]]:
    """Full recheck per edit: fingerprint from scratch, fresh verdict.

    The baseline deliberately defeats the content-addressed fingerprint
    cache and the verdict memo by clearing them per edit — this is the
    pre-§13 cost model, where every keystroke re-ran the whole
    pipeline. Returns (per-edit ms, decisions in replay order).
    """
    latencies: List[float] = []
    decisions: List[object] = []
    for par_id, states in scripts:
        doc_id = par_id.split("#")[0]
        for text in states:
            lookup.fingerprint_cache.clear()
            lookup.cache.clear()
            start = time.perf_counter()
            decision = lookup.lookup(DOCS, doc_id, [(par_id, text)])
            latencies.append((time.perf_counter() - start) * 1000.0)
            decisions.append(decision)
    return latencies, decisions


def run_delta(
    lookup: PolicyLookup, scripts: Sequence[EditScript]
) -> Tuple[List[float], List[object]]:
    """Delta pipeline per edit: EditBuffer splice + cached verdict."""
    config = lookup.model.tracker.paragraphs.config
    latencies: List[float] = []
    decisions: List[object] = []
    for par_id, states in scripts:
        doc_id = par_id.split("#")[0]
        buffer = EditBuffer(config)
        for text in states:
            start = time.perf_counter()
            fingerprint = buffer.update(text)
            decision = lookup.lookup(
                DOCS, doc_id, [(par_id, text)], fingerprints=[fingerprint]
            )
            latencies.append((time.perf_counter() - start) * 1000.0)
            decisions.append(decision)
    return latencies, decisions


def check_equivalence(
    corpus: EbookCorpus,
    scripts: Sequence[EditScript],
    *,
    n_shards: int,
    sample: int = 25,
) -> int:
    """Assert delta fingerprints and verdicts == the reference path's.

    Fresh models (so the timing runs later start cold). Fingerprint
    equivalence is checked on a deterministic sample of states —
    field-identical triples (hash value, original span) — and verdict
    equivalence on **every** state. Returns the number of decisions
    compared. Raises ``AssertionError`` on the first divergence; a
    speedup must never be reported for a diverging delta path.
    """
    full_lookup = _lookup_for(build_model(corpus, n_shards=n_shards))
    delta_lookup = _lookup_for(build_model(corpus, n_shards=n_shards))

    reference = full_lookup.model.tracker.paragraphs.fingerprinter
    sampled_states = [
        (par_id, text)
        for par_id, states in scripts
        for text in states
    ]
    step = max(1, len(sampled_states) // sample)
    for par_id, text in sampled_states[::step][:sample]:
        buffer = EditBuffer(delta_lookup.model.tracker.paragraphs.config)
        got = buffer.update(text)
        want = reference.fingerprint(text)
        got_triples = [(s.value, s.orig_start, s.orig_end) for s in got.selections]
        want_triples = [
            (s.value, s.orig_start, s.orig_end) for s in want.selections
        ]
        assert got_triples == want_triples, (
            f"delta fingerprint diverges from reference for {par_id!r}"
        )

    _, full_decisions = run_full(full_lookup, scripts)
    _, delta_decisions = run_delta(delta_lookup, scripts)
    assert len(full_decisions) == len(delta_decisions)
    for i, (want, got) in enumerate(zip(full_decisions, delta_decisions)):
        assert got == want, (
            f"delta decision {i} diverges from full recheck at "
            f"{n_shards} shard(s): {got} != {want}"
        )
    return len(full_decisions)


def _summarise(latencies_ms: List[float], extra: Dict[str, float]) -> dict:
    return {
        "edits": len(latencies_ms),
        "p50_ms": percentile(latencies_ms, 50),
        "p95_ms": percentile(latencies_ms, 95),
        "p99_ms": percentile(latencies_ms, 99),
        **extra,
    }


def _best_round(build_lookup, drive, rounds: int):
    """Best (lowest per-edit median) of *rounds* cold runs of one path."""
    best = None
    for _ in range(max(1, rounds)):
        lookup = build_lookup()
        gc.collect()
        gc.disable()
        try:
            latencies_ms, _decisions = drive(lookup)
        finally:
            gc.enable()
        median = percentile(latencies_ms, 50)
        if best is None or median < best[0]:
            best = (median, latencies_ms, lookup)
    return best[1], best[2]


def measure(
    smoke: bool,
    seed: int,
    *,
    n_shards: int = N_SHARDS,
    rounds: int = ROUNDS,
) -> dict:
    """The full delta-vs-full comparison (the BENCH_delta.json payload)."""
    paragraphs, edits, base_parts = (6, 40, 4) if smoke else (12, 120, 8)
    corpus = build_corpus(smoke, seed)
    scripts = build_edit_scripts(
        corpus, seed, paragraphs=paragraphs, edits=edits, base_parts=base_parts
    )

    compared = 0
    for shards in (1, n_shards):
        compared += check_equivalence(corpus, scripts, n_shards=shards)

    paths: Dict[str, dict] = {}
    stats: Dict[str, Dict[str, float]] = {}
    for name, drive in (("full_recheck", run_full), ("delta", run_delta)):
        latencies, lookup = _best_round(
            lambda: _lookup_for(build_model(corpus, n_shards=n_shards)),
            lambda lk, run=drive: run(lk, scripts),
            rounds,
        )
        paths[name] = _summarise(latencies, {})
        stats[name] = {
            k: v
            for k, v in lookup.stats().items()
            if k.startswith(("fingerprint_cache", "epoch_cache", "decision_cache"))
        }

    total_chars = sum(len(s) for _pid, states in scripts for s in states)
    speedup = (
        paths["full_recheck"]["p50_ms"] / paths["delta"]["p50_ms"]
        if paths["delta"]["p50_ms"] > 0
        else 0.0
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "delta_check",
        "smoke": smoke,
        "seed": seed,
        "python": platform.python_version(),
        "config": {
            "n_shards": n_shards,
            "rounds": rounds,
            "paragraphs": len(scripts),
            "edits_per_paragraph": edits,
            "ngram_size": PAPER_CONFIG.ngram_size,
            "window_size": PAPER_CONFIG.window_size,
            "hash_bits": PAPER_CONFIG.hash_bits,
        },
        "workload": {
            "edits": sum(len(states) for _pid, states in scripts),
            "checked_chars": total_chars,
            "mean_paragraph_chars": (
                total_chars
                // max(1, sum(len(states) for _pid, states in scripts))
            ),
        },
        "equivalence_checked": compared,
        "paths": paths,
        "cache_stats": stats,
        "speedup": {"per_edit_median": speedup},
    }
