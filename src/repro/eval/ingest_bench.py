"""Ingest-throughput measurement for the fingerprint pipeline.

One module owns the measurement so the pytest benchmark
(``benchmarks/bench_ingest_fingerprint.py``) and the trajectory tool
(``tools/bench_to_json.py``) cannot drift apart: both call
:func:`measure_corpus` and report the same per-stage MB/s numbers, and
both go through :func:`check_equivalence` so a throughput number is
never produced for a kernel that disagrees with the reference pipeline.

Stages are timed separately (S1 normalise, S2 hash, S3/S4 winnow) and
the end-to-end figure is a second, independently timed pass through
``Fingerprinter.fingerprint`` — summing stage times would hide the
selection-building and dispatch overhead the caller actually pays.

Everything here is standard library (numpy is only touched through the
kernel's own guarded import), so ``tools/bench_to_json.py`` stays
dependency-free.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.fingerprint import Fingerprinter, HAS_NUMPY
from repro.fingerprint.config import FingerprintConfig
from repro.fingerprint.kernel import (
    _normalize_numpy,
    _winnow_numpy,
    normalize_latin1,
    skipscan_winnow,
)
from repro.fingerprint.normalize import normalize
from repro.fingerprint.winnowing import winnow

#: Schema version of BENCH_fingerprint.json; bump on shape changes.
SCHEMA_VERSION = 1

#: Measurement paths, in reporting order.
PATHS = ("reference", "kernel_pure", "kernel_numpy")


def corpus_texts(corpus) -> List[str]:
    """Flatten a dataset object into its list of ingestible texts."""
    texts: List[str] = []
    if hasattr(corpus, "articles"):  # WikipediaCorpus
        for article in corpus.articles:
            texts.extend(rev.text() for rev in article.revisions)
    elif hasattr(corpus, "chapters"):  # ManualsCorpus
        for chapter in corpus.chapters:
            texts.extend(ver.text() for ver in chapter.versions)
    else:
        raise TypeError(f"unknown corpus type {type(corpus).__name__}")
    return texts


def _time(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def available_paths(config: FingerprintConfig) -> List[str]:
    """The measurement paths this interpreter can run for *config*."""
    paths = ["reference", "kernel_pure"]
    if HAS_NUMPY and config.hash_bits <= 32:
        paths.append("kernel_numpy")
    return paths


def measure_path(
    texts: List[str], config: FingerprintConfig, path: str
) -> Dict[str, float]:
    """Per-stage and end-to-end throughput of one path over *texts*.

    Returns ``{normalize_mbps, hash_mbps, winnow_mbps, total_mbps,
    seconds, bytes}``; MB is 1e6 input characters (the corpora are
    Latin-1, so characters == bytes).
    """
    total_bytes = sum(len(t) for t in texts)
    stage_seconds = {"normalize": 0.0, "hash": 0.0, "winnow": 0.0}

    if path == "reference":
        fingerprinter = Fingerprinter(
            FingerprintConfig(
                ngram_size=config.ngram_size,
                window_size=config.window_size,
                hash_bits=config.hash_bits,
                use_kernel=False,
            )
        )
        hasher = fingerprinter._hasher
        for text in texts:
            start = time.perf_counter()
            normalized = normalize(text)
            stage_seconds["normalize"] += time.perf_counter() - start
            if len(normalized.text) < config.ngram_size:
                continue
            start = time.perf_counter()
            values = hasher.hash_all_list(normalized.text)
            stage_seconds["hash"] += time.perf_counter() - start
            start = time.perf_counter()
            winnow(values, config.window_size)
            stage_seconds["winnow"] += time.perf_counter() - start
        end_to_end = _time(
            lambda: [fingerprinter.fingerprint(t) for t in texts]
        )
    elif path in ("kernel_pure", "kernel_numpy"):
        mode = "pure" if path == "kernel_pure" else "numpy"
        fingerprinter = Fingerprinter(config, kernel_mode=mode)
        kernel = fingerprinter.kernel
        assert kernel is not None, "measure_path requires use_kernel"
        hasher = fingerprinter._hasher
        for text in texts:
            data = kernel.encode(text)
            if data is None:
                raise ValueError("ingest corpus contains non-Latin-1 text")
            start = time.perf_counter()
            if mode == "numpy":
                norm, _offsets = _normalize_numpy(data)
            else:
                norm, _offsets = normalize_latin1(data)
            stage_seconds["normalize"] += time.perf_counter() - start
            if len(norm) < config.ngram_size:
                continue
            if mode == "numpy":
                start = time.perf_counter()
                values = kernel._hash_numpy(norm)
                stage_seconds["hash"] += time.perf_counter() - start
                start = time.perf_counter()
                _winnow_numpy(values, config.window_size)
                stage_seconds["winnow"] += time.perf_counter() - start
            else:
                start = time.perf_counter()
                values = hasher.hash_all_bytes(norm)
                stage_seconds["hash"] += time.perf_counter() - start
                start = time.perf_counter()
                skipscan_winnow(values, config.window_size)
                stage_seconds["winnow"] += time.perf_counter() - start
        end_to_end = _time(
            lambda: [fingerprinter.fingerprint(t) for t in texts]
        )
    else:
        raise ValueError(f"unknown path {path!r}")

    mb = total_bytes / 1e6
    out: Dict[str, float] = {
        "bytes": total_bytes,
        "seconds": round(end_to_end, 6),
        "total_mbps": round(mb / end_to_end, 3) if end_to_end else 0.0,
    }
    for stage, seconds in stage_seconds.items():
        out[f"{stage}_mbps"] = round(mb / seconds, 3) if seconds else 0.0
    return out


def measure_corpus(
    texts: List[str],
    config: FingerprintConfig,
    paths: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Measure every available path over *texts*; adds speedup ratios."""
    if paths is None:
        paths = available_paths(config)
    results: Dict[str, object] = {
        "bytes": sum(len(t) for t in texts),
        "texts": len(texts),
        "paths": {path: measure_path(texts, config, path) for path in paths},
    }
    reference = results["paths"].get("reference")
    if reference:
        results["speedup"] = {
            path: round(
                results["paths"][path]["total_mbps"]
                / reference["total_mbps"],
                3,
            )
            for path in paths
            if path != "reference" and reference["total_mbps"]
        }
    return results


def check_equivalence(
    texts: List[str], config: FingerprintConfig, sample: int = 0
) -> int:
    """Assert kernel fingerprints equal reference fingerprints.

    Compares hashes *and* selection spans on every text (or an evenly
    spaced *sample* of them); raises AssertionError on the first
    mismatch. Returns the number of texts compared.
    """
    if sample and len(texts) > sample:
        step = len(texts) // sample
        texts = texts[::step][:sample]
    reference = Fingerprinter(
        FingerprintConfig(
            ngram_size=config.ngram_size,
            window_size=config.window_size,
            hash_bits=config.hash_bits,
            use_kernel=False,
        )
    )
    kernels = [Fingerprinter(config, kernel_mode="pure")]
    if HAS_NUMPY and config.hash_bits <= 32:
        kernels.append(Fingerprinter(config, kernel_mode="numpy"))
    for text in texts:
        expected = reference.fingerprint(text)
        for fingerprinter in kernels:
            actual = fingerprinter.fingerprint(text)
            assert actual.hashes == expected.hashes, (
                f"kernel hash mismatch on {text[:60]!r}…"
            )
            assert actual.selections == expected.selections, (
                f"kernel span mismatch on {text[:60]!r}…"
            )
    return len(texts)
