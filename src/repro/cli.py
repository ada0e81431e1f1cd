"""Command-line interface.

Usage (installed as ``python -m repro``):

* ``python -m repro fingerprint FILE`` — fingerprint a text file;
* ``python -m repro compare A B`` — pairwise disclosure between files;
* ``python -m repro observe --db db.snap --id ID FILE`` — add a file to
  a fingerprint database snapshot (created if missing);
* ``python -m repro scan --db db.snap FILE`` — which tracked segments
  does the file disclose;
* ``python -m repro corpus`` — dataset statistics (Table 1, small scale);
* ``python -m repro experiment NAME`` — run one paper experiment at a
  reduced scale and print its rows/series;
* ``python -m repro stats --db db.snap [--scan FILE]`` — print the
  metrics-registry snapshot of a database (optionally after one scan);
* ``python -m repro trace --db db.snap FILE`` — run one scan under a
  tracer and emit the pipeline span tree as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import List, Optional

try:  # advisory database locking; absent on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only dependency
    fcntl = None

from repro.disclosure import DisclosureEngine
from repro.disclosure.persistence import load_engine, save_engine
from repro.errors import ReproError
from repro.fingerprint import FingerprintConfig, Fingerprinter
from repro.obs.trace import Tracer, span, tracing
from repro.plugin.crypto import UploadCipher


def _config_from_args(args) -> FingerprintConfig:
    return FingerprintConfig(
        ngram_size=args.ngram, window_size=args.window, hash_bits=args.bits
    )


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cipher_from_args(args) -> Optional[UploadCipher]:
    return UploadCipher(args.key) if getattr(args, "key", None) else None


def _load_or_create_engine(args) -> DisclosureEngine:
    db_path = Path(args.db)
    if db_path.exists():
        return load_engine(db_path, cipher=_cipher_from_args(args))
    return DisclosureEngine(_config_from_args(args))


#: Test hook: called (with no arguments) inside the database lock after
#: the engine is loaded but before it is mutated and saved. The
#: lost-update regression test parks one invocation here while a second
#: one contends for the lock.
_AFTER_LOAD_HOOK = None


@contextlib.contextmanager
def _db_locked(db_path: Path):
    """Advisory exclusive lock covering a load → mutate → save cycle.

    Two concurrent ``repro observe`` runs against the same database used
    to race: both load the same snapshot, each saves its own mutation,
    and the second save silently discards the first's ops. An exclusive
    ``flock`` on a ``<db>.lock`` sidecar serialises the whole cycle
    (sidecar, not the db itself, because ``save_engine`` atomically
    *replaces* the db file, which would orphan a lock held on it).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = db_path.with_name(db_path.name + ".lock")
    with open(lock_path, "w") as lock_file:
        fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_fingerprint(args) -> int:
    fingerprinter = Fingerprinter(_config_from_args(args))
    text = _read_text(args.file)
    fp = fingerprinter.fingerprint(text)
    config = fingerprinter.config
    print(f"file:        {args.file}")
    print(f"characters:  {len(text)}")
    print(f"config:      n-gram {config.ngram_size}, window {config.window_size}, "
          f"{config.hash_bits}-bit hashes")
    print(f"guarantee:   shared passages >= {config.noise_threshold} chars detected")
    print(f"hashes:      {len(fp)}")
    if args.show_hashes:
        print(" ".join(str(h) for h in sorted(fp.hashes)[:args.show_hashes]))
    return 0


def cmd_compare(args) -> int:
    fingerprinter = Fingerprinter(_config_from_args(args))
    fp_a = fingerprinter.fingerprint(_read_text(args.file_a))
    fp_b = fingerprinter.fingerprint(_read_text(args.file_b))
    a_in_b = fp_a.containment_in(fp_b)
    b_in_a = fp_b.containment_in(fp_a)
    print(f"D({args.file_a} -> {args.file_b}) = {a_in_b:.3f}")
    print(f"D({args.file_b} -> {args.file_a}) = {b_in_a:.3f}")
    threshold = args.threshold
    if a_in_b >= threshold or b_in_a >= threshold:
        print(f"verdict: significant disclosure (threshold {threshold})")
        return 1
    print(f"verdict: no significant disclosure (threshold {threshold})")
    return 0


def cmd_observe(args) -> int:
    with _db_locked(Path(args.db)):
        engine = _load_or_create_engine(args)
        if _AFTER_LOAD_HOOK is not None:
            _AFTER_LOAD_HOOK()
        engine.observe(args.id, _read_text(args.file), threshold=args.threshold)
        save_engine(engine, args.db, cipher=_cipher_from_args(args))
    stats = engine.stats()
    print(f"observed {args.id!r}; database now holds "
          f"{stats['segments']} segments / {stats['distinct_hashes']} hashes")
    return 0


def cmd_recover(args) -> int:
    """Recover a durable engine directory (snapshot + WAL) and report.

    With ``--compact`` the recovered state is folded into a fresh
    snapshot and the log is rotated, so the next recovery replays
    (almost) nothing. A directory that an older build journaled to
    sharded logs, or to a ``BFWAL1`` log, is refused, its files
    untouched.
    """
    from repro.disclosure.wal import DurableEngine

    engine = DurableEngine(
        Path(args.dir),
        config=_config_from_args(args),
        cipher=_cipher_from_args(args),
    )
    try:
        recovery = engine.recovery
        stats = engine.stats()
        print(f"recovered {args.dir}: {stats['segments']} segments / "
              f"{stats['distinct_hashes']} hashes")
        print(f"  snapshot covers lsn {recovery.snapshot_lsn}; replayed "
              f"{recovery.replayed} record(s), skipped {recovery.skipped}, "
              f"truncated {recovery.torn_bytes} torn byte(s)")
        print(f"  log holds {engine.wal.size} bytes")
        print(f"  logical clock resumed at {recovery.resumed_clock}")
        print(f"  recovery took {recovery.seconds * 1000:.1f} ms")
        if args.compact:
            lsn = engine.compact()
            print(f"  compacted through lsn {lsn}")
    finally:
        engine.close()
    return 0


def cmd_scan(args) -> int:
    db_path = Path(args.db)
    if not db_path.exists():
        print(f"error: no database at {args.db}", file=sys.stderr)
        return 2
    engine = load_engine(db_path, cipher=_cipher_from_args(args))
    fp = engine.fingerprint(_read_text(args.file))
    report = engine.disclosing_sources(fingerprint=fp)
    if not report.disclosing:
        print("no tracked segment is disclosed")
        return 0
    for source in report.sources:
        print(f"discloses {source.segment_id}  D = {source.score:.3f}  "
              f"(threshold {source.threshold})")
    return 1


def cmd_stats(args) -> int:
    """Print the registry snapshot for a database, as JSON.

    With ``--scan FILE`` one disclosure query runs twice — cold, then
    warm through the §13 delta-check caches (the content-addressed
    fingerprint cache and a verdict memo over the loaded engine, keyed
    on its stamp-store version) — so the query-path counters, the
    ``fingerprint.cache.*`` and ``decision.epoch_cache.*`` families, and
    the latency histograms are all populated; without it the snapshot
    shows database state (gauges) and zeroed counters.
    """
    from repro.plugin.cache import FingerprintCache, LRUCache

    db_path = Path(args.db)
    if not db_path.exists():
        print(f"error: no database at {args.db}", file=sys.stderr)
        return 2
    engine = load_engine(db_path, cipher=_cipher_from_args(args))
    if args.scan:
        text = _read_text(args.scan)
        fp_cache = FingerprintCache(
            scope=engine.registry.scope("fingerprint.cache.")
        )
        memo = LRUCache(
            scope=engine.registry.scope("decision.epoch_cache.")
        )
        for _round in range(2):  # cold then warm
            fp = fp_cache.fingerprint(engine.fingerprinter, text)
            key = (fp.set_digest, engine.stamps.version)
            if memo.get(key) is None:
                memo.put(key, engine.disclosing_sources(fingerprint=fp))
    print(json.dumps(engine.registry.snapshot(), indent=2, sort_keys=True))
    return 0


def cmd_trace(args) -> int:
    """Run one scan under a tracer and emit the span tree as JSON.

    The tree covers the pipeline stages of a disclosure decision:
    ``scan`` (root) → ``intercept`` (reading the upload candidate) →
    ``fingerprint`` (with a nested ``normalize`` for wide text, which
    takes the reference path) → ``algorithm1`` → ``decision``. CI validates the output against
    ``docs/trace_schema.json``.
    """
    db_path = Path(args.db)
    if not db_path.exists():
        print(f"error: no database at {args.db}", file=sys.stderr)
        return 2
    engine = load_engine(db_path, cipher=_cipher_from_args(args))
    tracer = Tracer()
    with tracing(tracer):
        with tracer.span("scan", file=args.file, db=args.db):
            with span("intercept", kind="cli") as isp:
                text = _read_text(args.file)
                isp.set(chars=len(text))
            fp = engine.fingerprint(text)
            report = engine.disclosing_sources(fingerprint=fp)
            with span("decision") as dsp:
                dsp.set(
                    disclosing=report.disclosing,
                    sources=len(report.sources),
                )
    document = tracer.to_json(indent=2)
    if args.output:
        Path(args.output).write_text(document + "\n", encoding="utf-8")
        print(f"trace written to {args.output}")
    else:
        print(document)
    return 0


def cmd_corpus(args) -> int:
    from repro.datasets import EbookCorpus, ManualsCorpus, WikipediaCorpus
    from repro.eval import table1_dataset_stats
    from repro.eval.reporting import format_table

    wikipedia = WikipediaCorpus.generate(n_revisions=args.revisions, seed=args.seed)
    manuals = ManualsCorpus.generate(seed=args.seed)
    ebooks = EbookCorpus.generate(
        n_books=args.books, paragraphs_per_book=60, seed=args.seed
    )
    rows = table1_dataset_stats(wikipedia, manuals, ebooks)
    print(
        format_table(
            ["Dataset", "Name", "Documents", "Versions", "Paragraphs", "Size (KB)"],
            [[r["dataset"], r["name"], r["documents"], r["versions"],
              r["paragraphs"], r["size_kb"]] for r in rows],
            title="Table 1 (synthetic corpora)",
        )
    )
    return 0


def cmd_experiment(args) -> int:
    from repro.datasets import EbookCorpus, ManualsCorpus, WikipediaCorpus
    from repro.eval import (
        figure8_length_change_cdf,
        figure9_paragraph_disclosure,
        figure10_manuals_disclosure,
        figure11_threshold_sweep,
        figure12_response_times,
        figure13_scalability,
    )
    from repro.eval.reporting import format_cdf_summary, format_series

    name = args.name
    seed = args.seed
    if name == "all":
        from repro.eval.runner import EvaluationRunner, EvaluationScale

        runner = EvaluationRunner(EvaluationScale(seed=seed))
        print(runner.run())
    elif name == "fig8":
        corpus = WikipediaCorpus.generate(n_revisions=40, seed=seed)
        points = figure8_length_change_cdf(corpus)
        print(format_series({"length change": points}, title="Figure 8",
                            x_label="relative change %", y_label="CDF"))
    elif name == "fig9":
        corpus = WikipediaCorpus.generate(n_revisions=40, seed=seed)
        results = figure9_paragraph_disclosure(corpus, revision_step=5)
        series = {t: [(float(i), p) for i, p in s] for t, s in results.items()}
        print(format_series(series, title="Figure 9",
                            x_label="revision", y_label="% disclosed"))
    elif name == "fig10":
        manuals = ManualsCorpus.generate(seed=seed)
        results = figure10_manuals_disclosure(manuals)
        for chapter_id, points in results.items():
            print(chapter_id)
            for p in points:
                print(f"  {p.version:6s} truth {p.ground_truth_pct:6.1f}%  "
                      f"browserflow {p.browserflow_pct:6.1f}%")
    elif name == "fig11":
        manuals = ManualsCorpus.generate(seed=seed)
        sweep = figure11_threshold_sweep(manuals)
        print(format_series({"ratio": sweep}, title="Figure 11",
                            x_label="Tpar", y_label="detected/truth"))
    elif name == "fig12":
        books = EbookCorpus.generate(n_books=10, paragraphs_per_book=60, seed=seed)
        results = figure12_response_times(books)
        for workflow, times in results.items():
            ms = [t * 1000 for t in times]
            print(format_cdf_summary(workflow, ms, (1.0, 5.0, 30.0, 200.0)))
    elif name == "fig13":
        books = EbookCorpus.generate(n_books=20, paragraphs_per_book=80, seed=seed)
        series = figure13_scalability(books, steps=4, samples_per_step=10)
        print(format_series(
            {"p95 ms": [(float(n), ms) for n, ms in series]},
            title="Figure 13", x_label="hashes", y_label="p95 ms",
        ))
    else:  # pragma: no cover - argparse restricts choices
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ngram", type=int, default=15,
                        help="n-gram size in characters (default 15)")
    parser.add_argument("--window", type=int, default=30,
                        help="winnowing window size (default 30)")
    parser.add_argument("--bits", type=int, default=32,
                        help="hash width in bits (default 32)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BrowserFlow reproduction: imprecise data flow tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fingerprint", help="fingerprint a text file")
    p.add_argument("file")
    p.add_argument("--show-hashes", type=int, default=0, metavar="N",
                   help="print the first N hash values")
    _add_config_options(p)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("compare", help="pairwise disclosure between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--threshold", type=float, default=0.5)
    _add_config_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("observe", help="add a file to a fingerprint database")
    p.add_argument("file")
    p.add_argument("--db", required=True, help="database snapshot path")
    p.add_argument("--id", required=True, help="segment id to record")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--key", help="encrypt the database at rest with this key")
    _add_config_options(p)
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("scan", help="check a file against a database")
    p.add_argument("file")
    p.add_argument("--db", required=True)
    p.add_argument("--key", help="database decryption key")
    _add_config_options(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("stats", help="print a database's metrics snapshot")
    p.add_argument("--db", required=True)
    p.add_argument("--scan", metavar="FILE",
                   help="run one disclosure query on FILE first")
    p.add_argument("--key", help="database decryption key")
    _add_config_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("trace", help="trace one scan's pipeline as JSON spans")
    p.add_argument("file")
    p.add_argument("--db", required=True)
    p.add_argument("--key", help="database decryption key")
    p.add_argument("--output", metavar="PATH", help="write JSON here "
                   "instead of stdout")
    _add_config_options(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "recover", help="recover a durable engine directory (snapshot + WAL)"
    )
    p.add_argument("--dir", required=True, help="durable engine directory")
    p.add_argument("--key", help="at-rest encryption key")
    p.add_argument("--compact", action="store_true",
                   help="fold the WAL into a fresh snapshot after recovery")
    _add_config_options(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("corpus", help="print Table 1 for the synthetic corpora")
    p.add_argument("--revisions", type=int, default=20)
    p.add_argument("--books", type=int, default=5)
    p.add_argument("--seed", type=int, default=2016)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("experiment", help="run one paper experiment (small scale)")
    p.add_argument(
        "name",
        choices=["all", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"],
    )
    p.add_argument("--seed", type=int, default=2016)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A corrupt snapshot, wrong key, or bad request is an expected
        # operational failure: one readable line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
