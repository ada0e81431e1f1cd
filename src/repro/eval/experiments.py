"""Per-figure experiment runners (paper §6).

Every function regenerates the data behind one table or figure. The
absolute numbers differ from the paper (synthetic corpora, Python
instead of C++/JS, different hardware) but the *shape* claims are the
reproduction targets; EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.ebooks import EbookCorpus
from repro.datasets.manuals import ManualsCorpus
from repro.datasets.synthesis import EditModel, TextSynthesizer
from repro.datasets.wikipedia import WikipediaCorpus
from repro.disclosure import DisclosureEngine
from repro.fingerprint import FingerprintConfig
from repro.fingerprint.config import PAPER_CONFIG
from repro.plugin.lookup import PolicyLookup
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.eval.timing import decision_times, edit_toward, keystroke_states
from repro.util.stats import cdf_points, percentile

#: Service ids used by the performance experiments.
LIBRARY_SERVICE = "https://library.corp"
DOCS_SERVICE = "https://docs.example.com"


# ----------------------------------------------------------------------
# Table 1 — dataset summary
# ----------------------------------------------------------------------

def table1_dataset_stats(
    wikipedia: WikipediaCorpus,
    manuals: ManualsCorpus,
    ebooks: EbookCorpus,
) -> List[Dict[str, object]]:
    """Rows mirroring the paper's Table 1.

    Paragraph and size columns are averages across document versions,
    matching the paper's table note.
    """
    rows: List[Dict[str, object]] = []

    n_revisions = len(wikipedia.articles[0].revisions) if len(wikipedia) else 0
    wiki_paragraphs = [
        len(rev.paragraphs) for a in wikipedia for rev in a.revisions
    ]
    wiki_sizes = [rev.length() for a in wikipedia for rev in a.revisions]
    rows.append(
        {
            "dataset": "Wikipedia",
            "name": "Articles",
            "documents": len(wikipedia),
            "versions": n_revisions,
            "paragraphs": _mean(wiki_paragraphs),
            "size_kb": _mean(wiki_sizes) / 1024.0,
        }
    )

    for chapter in manuals:
        sizes = [len(v.text()) for v in chapter.versions]
        counts = [len(v.paragraphs) for v in chapter.versions]
        rows.append(
            {
                "dataset": "Manuals",
                "name": chapter.name,
                "documents": len(chapter.versions),
                "versions": len(chapter.versions),
                "paragraphs": _mean(counts),
                "size_kb": _mean(sizes) / 1024.0,
            }
        )

    rows.append(
        {
            "dataset": "Ebooks",
            "name": "Books",
            "documents": len(ebooks),
            "versions": 1,
            "paragraphs": ebooks.total_paragraphs() / max(len(ebooks), 1),
            "size_kb": ebooks.total_bytes() / 1024.0,
        }
    )
    return rows


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Figure 8 — CDF of relative article-length change
# ----------------------------------------------------------------------

def figure8_length_change_cdf(
    wikipedia: WikipediaCorpus,
) -> List[Tuple[float, float]]:
    """(relative length change %, cumulative fraction) points.

    The paper plots the distribution of relative content-size difference
    between the oldest and newest revision of each article; stable
    articles cluster at small changes, volatile ones in the long tail.
    """
    changes = [a.relative_length_change() * 100.0 for a in wikipedia]
    return cdf_points(changes)


# ----------------------------------------------------------------------
# Figure 9 — paragraph disclosure across Wikipedia revisions
# ----------------------------------------------------------------------

def figure9_paragraph_disclosure(
    wikipedia: WikipediaCorpus,
    *,
    config: FingerprintConfig = PAPER_CONFIG,
    threshold: float = 0.5,
    revision_step: int = 1,
    titles: Optional[Sequence[str]] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Per article: (revision distance, % of base paragraphs disclosed).

    For each article the base revision's paragraphs are observed; each
    later revision is fingerprinted as one document and the fraction of
    base paragraphs meeting the paragraph disclosure requirement
    (Dpar >= threshold) is reported — exactly the Figure 9 metric.
    """
    results: Dict[str, List[Tuple[int, float]]] = {}
    for article in wikipedia:
        if titles is not None and article.title not in titles:
            continue
        engine = DisclosureEngine(config)
        base = article.base
        for i, paragraph in enumerate(base.paragraphs):
            engine.observe(f"{article.title}#p{i}", paragraph, threshold=threshold)
        n_base = len(base.paragraphs)
        series: List[Tuple[int, float]] = []
        for revision in article.revisions[1::revision_step]:
            fp = engine.fingerprint(revision.text())
            report = engine.disclosing_sources(fingerprint=fp)
            pct = 100.0 * len(report.sources) / n_base if n_base else 0.0
            series.append((revision.index, pct))
        results[article.title] = series
    return results


def figure9_document_disclosure(
    wikipedia: WikipediaCorpus,
    *,
    config: FingerprintConfig = PAPER_CONFIG,
    threshold: float = 0.5,
    revision_step: int = 1,
    titles: Optional[Sequence[str]] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Document-granularity companion to Figure 9.

    The paper evaluates the paragraph granularity and notes "the
    results for the document granularity are similar" (§6.1). Here the
    base revision is observed as one document segment and each later
    revision's Ddoc against it is reported (as a percentage).
    """
    results: Dict[str, List[Tuple[int, float]]] = {}
    for article in wikipedia:
        if titles is not None and article.title not in titles:
            continue
        engine = DisclosureEngine(config, kind="document")
        base = engine.observe(
            article.title, article.base.text(), threshold=threshold
        ).fingerprint
        series: List[Tuple[int, float]] = []
        for revision in article.revisions[1::revision_step]:
            fp = engine.fingerprint(revision.text())
            score = base.containment_in(fp)
            series.append((revision.index, 100.0 * score))
        results[article.title] = series
    return results


# ----------------------------------------------------------------------
# Figure 10 — manuals disclosure vs ground truth
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ManualsPoint:
    """One bar pair of Figure 10."""

    chapter_id: str
    version: str
    browserflow_pct: float
    ground_truth_pct: float
    detected: Tuple[int, ...]
    expected: Tuple[int, ...]

    @property
    def false_positives(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.detected) - set(self.expected)))

    @property
    def false_negatives(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.expected) - set(self.detected)))


def figure10_manuals_disclosure(
    manuals: ManualsCorpus,
    *,
    config: FingerprintConfig = PAPER_CONFIG,
    threshold: float = 0.5,
    skip_empty_fingerprints: bool = True,
) -> Dict[str, List[ManualsPoint]]:
    """Per chapter: BrowserFlow vs ground-truth disclosure per version.

    The base version of each chapter is observed paragraph by
    paragraph; each later version is checked for which base paragraphs
    it discloses. Ground truth comes from the scripted fates (see
    :mod:`repro.datasets.manuals`). Paragraphs whose fingerprints are
    empty are skipped when requested, mirroring §6.1's treatment of the
    systematic short-paragraph errors.
    """
    results: Dict[str, List[ManualsPoint]] = {}
    for chapter in manuals:
        engine = DisclosureEngine(config)
        eligible: List[int] = []
        for i, paragraph in enumerate(chapter.base_paragraphs):
            record = engine.observe(
                f"{chapter.chapter_id}#p{i}", paragraph, threshold=threshold
            )
            if not skip_empty_fingerprints or record.hash_count:
                eligible.append(i)
        points: List[ManualsPoint] = []
        for version in chapter.versions[1:]:
            fp = engine.fingerprint(version.text())
            report = engine.disclosing_sources(fingerprint=fp)
            detected = tuple(
                sorted(
                    int(s.segment_id.rsplit("#p", 1)[1])
                    for s in report.sources
                    if int(s.segment_id.rsplit("#p", 1)[1]) in eligible
                )
            )
            expected = tuple(
                i for i in version.ground_truth_disclosed() if i in eligible
            )
            denom = len(eligible) or 1
            points.append(
                ManualsPoint(
                    chapter_id=chapter.chapter_id,
                    version=version.version,
                    browserflow_pct=100.0 * len(detected) / denom,
                    ground_truth_pct=100.0 * len(expected) / denom,
                    detected=detected,
                    expected=expected,
                )
            )
        results[chapter.chapter_id] = points
    return results


# ----------------------------------------------------------------------
# Figure 11 — threshold sweep
# ----------------------------------------------------------------------

def figure11_threshold_sweep(
    manuals: ManualsCorpus,
    *,
    config: FingerprintConfig = PAPER_CONFIG,
    thresholds: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
) -> List[Tuple[float, float]]:
    """(Tpar, detected/ground-truth ratio) over the Manuals dataset.

    A ratio of 1 means agreement with the expert; above 1 indicates
    false positives, below 1 false negatives (paper Figure 11).
    """
    out: List[Tuple[float, float]] = []
    for threshold in thresholds:
        detected_total = 0
        expected_total = 0
        results = figure10_manuals_disclosure(
            manuals, config=config, threshold=threshold
        )
        for points in results.values():
            for point in points:
                detected_total += len(point.detected)
                expected_total += len(point.expected)
        ratio = detected_total / expected_total if expected_total else 0.0
        out.append((threshold, ratio))
    return out


# ----------------------------------------------------------------------
# Figure 12 — response-time distribution for W1/W2/W3
# ----------------------------------------------------------------------

def _library_lookup(
    ebooks: EbookCorpus, config: FingerprintConfig
) -> Tuple[PolicyLookup, TextDisclosureModel]:
    """A model with every e-book observed in a trusted library service."""
    policies = PolicyStore()
    policies.register_service(
        LIBRARY_SERVICE,
        privilege=Label.of("lib"),
        confidentiality=Label.of("lib"),
        display_name="Library",
    )
    policies.register_service(DOCS_SERVICE, display_name="Docs")
    model = TextDisclosureModel(policies, config)
    for book in ebooks:
        doc_id = f"{LIBRARY_SERVICE}|{book.book_id}"
        segments = [
            (f"{doc_id}#p{i}", text) for i, text in enumerate(book.paragraphs)
        ]
        model.observe(LIBRARY_SERVICE, doc_id, segments)
    return PolicyLookup(model), model


def figure12_response_times(
    ebooks: EbookCorpus,
    *,
    config: FingerprintConfig = PAPER_CONFIG,
    page_paragraphs: int = 3,
    seed: int = 2016,
    stats_out: Optional[Dict[str, object]] = None,
    snapshot_out: Optional[Dict[str, object]] = None,
) -> Dict[str, List[float]]:
    """Per-workflow decision latencies (seconds), paper §6.2:

    * W1 ``creation-with-overlap`` — type a page from an existing book
      into a new document;
    * W2 ``creation-without-overlap`` — type a fresh article sharing no
      text with the corpus;
    * W3 ``modification`` — edit a modified book page back towards the
      original.

    When *snapshot_out* is given it receives the model registry's full
    metrics snapshot after the run — including the per-stage latency
    histograms (fingerprint / Algorithm 1 / decision) behind the
    end-to-end times this function returns.
    """
    lookup, model = _library_lookup(ebooks, config)
    rng = random.Random(f"{seed}:fig12")
    doc_id = f"{DOCS_SERVICE}|new-doc"
    results: Dict[str, List[float]] = {}

    # W1: creation with overlap.
    book = ebooks[rng.randrange(len(ebooks))]
    page_text = " ".join(book.page(0, page_paragraphs))
    results["creation-with-overlap"] = decision_times(
        lookup, DOCS_SERVICE, doc_id, f"{doc_id}#w1",
        list(keystroke_states(page_text)),
    )

    # W2: creation without overlap.
    synth = TextSynthesizer("ip-address", rng)
    fresh_text = " ".join(synth.paragraph() for _ in range(page_paragraphs))
    results["creation-without-overlap"] = decision_times(
        lookup, DOCS_SERVICE, doc_id, f"{doc_id}#w2",
        list(keystroke_states(fresh_text)),
    )

    # W3: modification back towards the original.
    editor = EditModel(synth, rng)
    modified = editor.substitute_words(page_text, 0.3)
    results["modification"] = decision_times(
        lookup, DOCS_SERVICE, doc_id, f"{doc_id}#w3",
        list(edit_toward(modified, page_text)),
    )
    if stats_out is not None:
        stats_out.update(lookup.stats())
    if snapshot_out is not None:
        snapshot_out.update(model.registry.snapshot())
    return results


# ----------------------------------------------------------------------
# Figure 13 — response time vs hash-database size
# ----------------------------------------------------------------------

def figure13_scalability(
    ebooks: EbookCorpus,
    *,
    config: FingerprintConfig = PAPER_CONFIG,
    steps: int = 5,
    paste_chars: int = 500,
    samples_per_step: int = 30,
    seed: int = 2016,
    stats_out: Optional[Dict[str, object]] = None,
    snapshot_out: Optional[Dict[str, object]] = None,
) -> List[Tuple[int, float]]:
    """(distinct hashes in DB, 95th-percentile decision ms) per step.

    Books are loaded in *steps* increments; after each increment a
    500-character paragraph from a loaded book is pasted into a new
    document and the disclosure decision timed (the paper's workload).
    The garbage collector is paused around each timed decision so the
    p95 reflects the engine rather than interpreter heap sweeps, which
    otherwise dominate the tail once the database holds millions of
    dictionary entries.
    """
    import gc
    policies = PolicyStore()
    policies.register_service(
        LIBRARY_SERVICE, privilege=Label.of("lib"), confidentiality=Label.of("lib")
    )
    policies.register_service(DOCS_SERVICE)
    model = TextDisclosureModel(policies, config)
    lookup = PolicyLookup(model)
    rng = random.Random(f"{seed}:fig13")

    per_step = max(1, len(ebooks) // steps)
    loaded = 0
    out: List[Tuple[int, float]] = []
    for step in range(steps):
        upper = min(len(ebooks), loaded + per_step)
        for book in ebooks.books[loaded:upper]:
            doc_id = f"{LIBRARY_SERVICE}|{book.book_id}"
            segments = [
                (f"{doc_id}#p{i}", text) for i, text in enumerate(book.paragraphs)
            ]
            model.observe(LIBRARY_SERVICE, doc_id, segments)
        loaded = upper

        # Warm-up decision so one-time dictionary growth is excluded.
        warm_doc = f"{DOCS_SERVICE}|warm-{step}"
        lookup.lookup(
            DOCS_SERVICE, warm_doc, [(f"{warm_doc}#p0", ebooks[0].paragraphs[0])]
        )
        times: List[float] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for sample in range(samples_per_step):
                book = ebooks[rng.randrange(loaded)]
                paragraph = book.paragraphs[rng.randrange(len(book.paragraphs))]
                paste = paragraph[:paste_chars]
                doc_id = f"{DOCS_SERVICE}|paste-{step}-{sample}"
                started = time.perf_counter()
                lookup.lookup(DOCS_SERVICE, doc_id, [(f"{doc_id}#p0", paste)])
                times.append(time.perf_counter() - started)
        finally:
            if gc_was_enabled:
                gc.enable()
        n_hashes = model.tracker.paragraphs.stats()["distinct_hashes"]
        out.append((n_hashes, percentile(times, 95.0) * 1000.0))
    if stats_out is not None:
        stats_out.update(lookup.stats())
    if snapshot_out is not None:
        snapshot_out.update(model.registry.snapshot())
    return out
