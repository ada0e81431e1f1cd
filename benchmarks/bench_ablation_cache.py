"""Ablation — the fingerprint-keyed decision cache (§6.2).

The paper attributes its lowest response times to reusing the previous
decision whenever a keystroke leaves the winnowed fingerprint
unchanged. This ablation types the same page through the lookup path
with the cache enabled and disabled and compares total decision time.
"""

import time

from repro.eval.experiments import DOCS_SERVICE, _library_lookup
from repro.eval.reporting import format_table
from repro.eval.timing import keystroke_states
from repro.fingerprint.config import PAPER_CONFIG
from repro.plugin.lookup import PolicyLookup


def _type_page(lookup, text):
    doc_id = f"{DOCS_SERVICE}|cache-ablation"
    started = time.perf_counter()
    for state in keystroke_states(text):
        lookup.lookup(DOCS_SERVICE, doc_id, [(f"{doc_id}#p0", state)])
    return time.perf_counter() - started


class _UncachedLookup(PolicyLookup):
    """Lookup variant that always recomputes the decision."""

    def lookup(self, service_id, doc_id, paragraphs, *, suppressions=None):
        return self.model.check_upload(
            service_id, doc_id, paragraphs, suppressions=suppressions
        )


def test_ablation_decision_cache(benchmark, report, ebook_corpus):
    lookup, model = _library_lookup(ebook_corpus, PAPER_CONFIG)
    uncached = _UncachedLookup(model)
    page_text = " ".join(ebook_corpus[0].page(0, 2))[:800]

    cached_time = benchmark.pedantic(
        _type_page, args=(lookup, page_text), iterations=1, rounds=1
    )
    uncached_time = _type_page(uncached, page_text)
    counters = lookup.cache.metrics.snapshot()
    hit_rate = counters["hits"] / (counters["hits"] + counters["misses"])

    report(
        format_table(
            ["Variant", "Total decision time (s)", "Keystrokes", "Cache hit rate"],
            [
                ["with decision cache", cached_time, len(page_text),
                 f"{hit_rate:.2f}"],
                ["without cache", uncached_time, len(page_text), "n/a"],
            ],
            title="Ablation: fingerprint-keyed decision cache",
        )
    )
    # The cache absorbs the keystrokes that do not change the
    # fingerprint; typing must be significantly cheaper with it.
    assert cached_time < uncached_time
    assert hit_rate > 0.3
