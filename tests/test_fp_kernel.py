"""Differential tests: the fused ingest kernel vs the reference pipeline.

The kernel (:mod:`repro.fingerprint.kernel`) must be *field-identical*
to the retained reference implementations — same hash values at the
same positions with the same ``original_span`` offsets — on every input
it dispatches for, and the dispatcher must route anything else to the
reference path unchanged. Hypothesis drives both claims over full
Unicode alphabets, including the lower-expanding U+0130 İ that can
never reach the kernel (it does not encode to Latin-1) but must not
perturb dispatch.
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint import Fingerprinter, HAS_NUMPY
from repro.fingerprint.config import PAPER_CONFIG, TINY_CONFIG, FingerprintConfig
from repro.fingerprint.kernel import (
    IngestKernel,
    normalize_latin1,
    skipscan_winnow,
)
from repro.fingerprint.normalize import normalize
from repro.fingerprint.rolling_hash import KarpRabin
from repro.fingerprint.winnowing import winnow
from repro.obs.registry import MetricsRegistry

CONFIG = FingerprintConfig(ngram_size=5, window_size=4)

#: Latin-1-only prose, including the bytes that exercise the translate
#: tables hardest: µ (0xB5, already lowercase), ß (0xDF, lower is
#: itself), accented letters with distinct lowercase bytes.
latin1_prose = st.text(
    alphabet=(
        string.ascii_letters + string.digits + " .,!?-\n\t"
        + "µßÆæÇçÉéÑñÖöÜüÀàÝý½¼²³ª°"
    ),
    min_size=0,
    max_size=300,
)

#: Full-Unicode prose (same alphabet as test_prop_fingerprint): İ, ẞ,
#: ligatures, Greek/Cyrillic/CJK — everything the kernel must refuse.
unicode_prose = st.text(
    alphabet=(
        string.ascii_letters + string.digits + " .,!?-\n"
        + "İıẞßﬁﬂÆæÇçÉéÑñÖöÜüΣσЖж北京"
    ),
    min_size=0,
    max_size=300,
)


def _fingerprinters(config):
    """Reference + every kernel path available for *config*."""
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
    return reference, kernels


class TestKernelDifferential:
    """Kernel fingerprints are field-identical to the reference's."""

    @given(latin1_prose)
    @settings(max_examples=150)
    def test_latin1_identical(self, text):
        reference, kernels = _fingerprinters(CONFIG)
        expected = reference.fingerprint(text)
        for fp in kernels:
            actual = fp.fingerprint(text)
            assert actual.hashes == expected.hashes
            assert actual.selections == expected.selections

    @given(unicode_prose)
    @settings(max_examples=150)
    def test_unicode_dispatch_identical(self, text):
        """Wide text falls back to the char path; results never differ."""
        reference, kernels = _fingerprinters(CONFIG)
        expected = reference.fingerprint(text)
        for fp in kernels:
            actual = fp.fingerprint(text)
            assert actual.hashes == expected.hashes
            assert actual.selections == expected.selections

    @given(latin1_prose)
    @settings(max_examples=60)
    def test_paper_config_identical(self, text):
        reference, kernels = _fingerprinters(FingerprintConfig())
        expected = reference.fingerprint(text)
        for fp in kernels:
            assert fp.fingerprint(text).selections == expected.selections

    def test_span_types_are_plain_ints(self):
        """numpy offsets must not leak numpy scalars into spans."""
        _, kernels = _fingerprinters(CONFIG)
        for fp in kernels:
            for selection in fp.fingerprint("hello winnowing world 42").selections:
                assert type(selection.orig_start) is int
                assert type(selection.orig_end) is int


class TestNormalizeLatin1:
    """The translate-table S1 equals normalize() on all Latin-1 input."""

    def test_all_256_bytes(self):
        for b in range(256):
            text = chr(b) + "aA." + chr(b)
            norm, offsets = normalize_latin1(text.encode("latin-1"))
            expected = normalize(text)
            assert norm.decode("latin-1") == expected.text
            assert tuple(offsets) == expected.offsets

    @given(latin1_prose)
    def test_matches_reference(self, text):
        norm, offsets = normalize_latin1(text.encode("latin-1"))
        expected = normalize(text)
        assert norm.decode("latin-1") == expected.text
        assert tuple(offsets) == expected.offsets


class TestSkipscanWinnow:
    """The skip-scan equals the deque winnow, ties included."""

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), max_size=150),
        st.integers(min_value=1, max_value=12),
    )
    def test_matches_deque(self, values, window):
        assert skipscan_winnow(values, window) == winnow(values, window)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=150),
        st.integers(min_value=1, max_value=12),
    )
    def test_matches_deque_tie_heavy(self, values, window):
        """A tiny value range forces constant tie-breaking decisions."""
        assert skipscan_winnow(values, window) == winnow(values, window)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            skipscan_winnow([1, 2, 3], 0)

    def test_fuzz_long_inputs(self):
        rng = random.Random(20160814)
        for _ in range(50):
            n = rng.randrange(0, 2000)
            values = [rng.randrange(0, 50) for _ in range(n)]
            w = rng.randrange(1, 40)
            assert skipscan_winnow(values, w) == winnow(values, w)


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
class TestNumpyKernel:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 32) - 1), max_size=150
        ),
        st.integers(min_value=1, max_value=12),
    )
    def test_winnow_matches_deque(self, values, window):
        import numpy as np

        from repro.fingerprint.kernel import _winnow_numpy

        if not values:
            return
        arr = np.asarray(values, dtype=np.uint64)
        assert _winnow_numpy(arr, window).tolist() == winnow(values, window)

    @given(latin1_prose)
    @settings(max_examples=80)
    def test_hash_matches_rolling(self, text):
        kernel = Fingerprinter(CONFIG, kernel_mode="numpy").kernel
        hasher = KarpRabin(ngram_size=CONFIG.ngram_size)
        norm, _ = normalize_latin1(text.encode("latin-1"))
        if len(norm) < CONFIG.ngram_size:
            return
        assert kernel._hash_numpy(norm).tolist() == hasher.hash_all_bytes(norm)

    def test_numpy_mode_requires_packable_config(self):
        wide = FingerprintConfig(ngram_size=5, window_size=4, hash_bits=40)
        hasher = KarpRabin(ngram_size=5, hash_bits=40)
        with pytest.raises(ValueError):
            IngestKernel(wide, hasher, mode="numpy")
        # auto silently falls back to the pure path.
        assert not IngestKernel(wide, hasher, mode="auto").uses_numpy

    def test_wide_hash_bits_still_correct(self):
        """hash_bits > 32 configs run (pure path) and match reference."""
        wide = FingerprintConfig(ngram_size=5, window_size=4, hash_bits=40)
        reference, kernels = _fingerprinters(wide)
        text = "The quick brown fox jumps over the lazy dog" * 4
        for fp in kernels:
            assert (
                fp.fingerprint(text).selections
                == reference.fingerprint(text).selections
            )


class TestKernelPlumbing:
    def test_rejects_unknown_mode(self):
        hasher = KarpRabin(ngram_size=5)
        with pytest.raises(ValueError):
            IngestKernel(CONFIG, hasher, mode="turbo")

    def test_encode_dispatch_rule(self):
        kernel = Fingerprinter(CONFIG).kernel
        assert kernel.encode("plain ascii") == b"plain ascii"
        assert kernel.encode("caf\xe9") == b"caf\xe9"
        assert kernel.encode("İstanbul") is None
        assert kernel.encode("北京") is None

    def test_use_kernel_false_has_no_kernel(self):
        fp = Fingerprinter(FingerprintConfig(use_kernel=False))
        assert fp.kernel is None

    def test_use_kernel_excluded_from_config_equality(self):
        assert FingerprintConfig(use_kernel=False) == FingerprintConfig()
        assert hash(FingerprintConfig(use_kernel=False)) == hash(
            FingerprintConfig()
        )

    def test_stage_histograms_recorded_kernel_path(self):
        registry = MetricsRegistry()
        fp = Fingerprinter(CONFIG, registry=registry)
        fp.fingerprint("a kernel-path text, long enough to hash")
        snapshot = registry.snapshot()
        for stage in ("normalize", "hash", "winnow"):
            assert snapshot[f"fingerprint.{stage}"]["count"] == 1

    def test_stage_histograms_recorded_reference_path(self):
        registry = MetricsRegistry()
        fp = Fingerprinter(CONFIG, registry=registry)
        fp.fingerprint("İstanbul text wide enough to hash properly")
        snapshot = registry.snapshot()
        for stage in ("normalize", "hash", "winnow"):
            assert snapshot[f"fingerprint.{stage}"]["count"] == 1

    def test_engine_scope_collects_ingest_histograms(self):
        from repro.disclosure.engine import DisclosureEngine

        engine = DisclosureEngine(CONFIG)
        engine.observe("seg-1", "a paragraph that is long enough to fingerprint")
        snapshot = engine.registry.snapshot()
        assert snapshot["engine.paragraph.fingerprint.normalize"]["count"] > 0


#: The configs the batched pass is checked under: the paper's, the
#: tests' tiny one, and a 48-bit one that packs no winnow key (so the
#: kernel runs its pure path even when numpy is installed).
BATCH_CONFIGS = [
    PAPER_CONFIG,
    TINY_CONFIG,
    FingerprintConfig(ngram_size=5, window_size=4, hash_bits=48),
]


def _batch_texts(config):
    """Texts that stress the boundaries between texts of one pass."""
    n, w = config.ngram_size, config.window_size

    def alnum(length):
        return st.text(
            alphabet=string.ascii_lowercase + string.digits + "µß",
            min_size=length,
            max_size=length,
        )

    def spaced(length):
        # Normalisation drops the spaces: the kept length stays *length*.
        return alnum(length).map(
            lambda s: " ".join(s[i : i + 4] for i in range(0, len(s), 4))
        )

    return st.one_of(
        st.just(""),
        st.integers(0, n - 1).flatmap(spaced),  # shorter than one n-gram
        st.integers(n, n + w - 2).flatmap(spaced),  # fewer than w hashes
        spaced(n + w - 1),  # exactly w hashes
        latin1_prose,
        unicode_prose,  # İ and other wide text: the reference path
    )


@st.composite
def _batches(draw, config):
    texts = draw(st.lists(_batch_texts(config), max_size=10))
    if texts:
        # Duplicates, anywhere in the batch.
        for _ in range(draw(st.integers(0, 3))):
            texts.insert(
                draw(st.integers(0, len(texts))),
                texts[draw(st.integers(0, len(texts) - 1))],
            )
    return texts


def _batch_cases():
    for config in BATCH_CONFIGS:
        for mode in ("pure", "numpy"):
            if mode == "numpy" and (not HAS_NUMPY or config.hash_bits > 32):
                continue
            yield pytest.param(
                config,
                mode,
                id=f"{config.ngram_size}-{config.window_size}-{config.hash_bits}-{mode}",
            )


class TestFingerprintMany:
    """One pass over many texts gives each text its own fingerprint."""

    @pytest.mark.parametrize("config, mode", list(_batch_cases()))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_reference_per_text(self, config, mode, data):
        texts = data.draw(_batches(config))
        fingerprinter = Fingerprinter(config, kernel_mode=mode)
        batch = fingerprinter.fingerprint_many(texts)
        assert len(batch) == len(texts)
        for text, got in zip(texts, batch):
            want = fingerprinter.fingerprint_reference(text)
            assert got.hashes == want.hashes
            assert got.flat_selections == want.flat_selections
            assert got.config == want.config
            assert got == fingerprinter.fingerprint(text)

    def test_numpy_batch_crosses_no_boundary(self):
        """Each text is shorter than one n-gram, their join is not: the
        n-grams that span the boundary are never selected."""
        if not HAS_NUMPY:
            pytest.skip("numpy not installed")
        fingerprinter = Fingerprinter(TINY_CONFIG, kernel_mode="numpy")
        texts = ["abcde", "fghij", "", "abcdefghij"]
        first, second, empty, joined = fingerprinter.fingerprint_many(texts)
        assert first.is_empty() and second.is_empty() and empty.is_empty()
        assert joined == fingerprinter.fingerprint_reference("abcdefghij")

    def test_one_pass_records_each_stage_once(self):
        registry = MetricsRegistry()
        fingerprinter = Fingerprinter(CONFIG, registry=registry)
        fingerprinter.fingerprint_many(
            ["a kernel-path text, long enough to hash", "and another one, too"]
        )
        snapshot = registry.snapshot()
        for stage in ("normalize", "hash", "winnow"):
            assert snapshot[f"fingerprint.{stage}"]["count"] == 1
