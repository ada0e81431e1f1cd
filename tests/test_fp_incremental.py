"""Tests for incremental fingerprinting, including batch equivalence."""

import string
import sys
import threading
import time
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint import Fingerprinter
from repro.fingerprint import incremental
from repro.fingerprint.config import FingerprintConfig, PAPER_CONFIG, TINY_CONFIG
from repro.fingerprint.incremental import (
    BULK_HASHES,
    EditBuffer,
    IncrementalFingerprinter,
)
from repro.fingerprint.kernel import (
    HAS_NUMPY,
    POWER_TABLE_CAP,
    IngestKernel,
    _winnow_numpy,
)
from repro.fingerprint.normalize import normalize
from repro.fingerprint.rolling_hash import KarpRabin

from conftest import OTHER_TEXT, SECRET_TEXT

BATCH = Fingerprinter(TINY_CONFIG)

chunks = st.lists(
    st.text(alphabet=string.ascii_letters + string.digits + " .,!",
            min_size=0, max_size=25),
    min_size=0,
    max_size=12,
)

#: Full-Unicode chunk alphabet: the lone lower-expanding code point
#: (U+0130 İ), capital sharp s, ligatures, accented letters, CJK.
UNICODE_ALPHABET = (
    string.ascii_letters + string.digits + " .,!" + "İıẞßﬁﬂÄäÖöÑñÇçÉé北京"
)
unicode_chunks = st.lists(
    st.text(alphabet=UNICODE_ALPHABET, min_size=0, max_size=25),
    min_size=0,
    max_size=12,
)


class TestIncremental:
    def test_single_append_equals_batch(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append(SECRET_TEXT)
        assert inc.current().hashes == BATCH.fingerprint(SECRET_TEXT).hashes

    def test_char_by_char_equals_batch(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        for ch in SECRET_TEXT:
            inc.append(ch)
        batch = BATCH.fingerprint(SECRET_TEXT)
        current = inc.current()
        assert current.hashes == batch.hashes
        assert current.selections == batch.selections

    def test_empty_state(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        assert inc.current().is_empty()
        assert inc.text_length == 0

    def test_text_length_counts_original_chars(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append("Hello, World!")
        assert inc.text_length == len("Hello, World!")

    def test_append_returns_new_selection_count(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        total = 0
        for ch in SECRET_TEXT:
            total += inc.append(ch)
        # The deque-path selections match the final fingerprint size
        # (short-text partial selections are reported separately).
        assert total >= len(inc.current()) - 1

    def test_prefix_consistency(self):
        """Every intermediate state equals the batch fingerprint of the
        prefix typed so far — the per-keystroke use case."""
        inc = IncrementalFingerprinter(TINY_CONFIG)
        prefix = ""
        for ch in SECRET_TEXT[:80]:
            prefix += ch
            inc.append(ch)
            assert inc.current().hashes == BATCH.fingerprint(prefix).hashes

    @given(chunks)
    @settings(max_examples=60, deadline=None)
    def test_property_equivalence_arbitrary_chunks(self, pieces):
        config = FingerprintConfig(ngram_size=4, window_size=3)
        inc = IncrementalFingerprinter(config)
        batch = Fingerprinter(config)
        text = ""
        for piece in pieces:
            text += piece
            inc.append(piece)
        expected = batch.fingerprint(text)
        current = inc.current()
        assert current.hashes == expected.hashes
        assert current.selections == expected.selections

    @given(unicode_chunks)
    @settings(max_examples=60, deadline=None)
    def test_property_equivalence_unicode_chunks(self, pieces):
        """Batch == incremental on full-Unicode input, including the
        lower-expanding İ (the fingerprint-pipeline crash regression)."""
        config = FingerprintConfig(ngram_size=4, window_size=3)
        inc = IncrementalFingerprinter(config)
        batch = Fingerprinter(config)
        text = ""
        for piece in pieces:
            text += piece
            inc.append(piece)
        expected = batch.fingerprint(text)
        current = inc.current()
        assert current.hashes == expected.hashes
        assert current.selections == expected.selections

    @given(chunks)
    @settings(max_examples=30, deadline=None)
    def test_property_spans_map_into_original(self, pieces):
        config = FingerprintConfig(ngram_size=4, window_size=3)
        inc = IncrementalFingerprinter(config)
        text = ""
        for piece in pieces:
            text += piece
            inc.append(piece)
        for selection in inc.current().selections:
            assert 0 <= selection.orig_start < selection.orig_end <= len(text)


class TestUnicodeRegression:
    """The lowercase-expansion crash: 'İ'.lower() is two code points."""

    def test_dotted_capital_i_append_does_not_crash(self):
        # Before the fix, the incremental normaliser appended both
        # expansion products but one offset entry, so current() died
        # mapping selections back to original offsets.
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append("İ" * 10)
        assert inc.current().hashes == BATCH.fingerprint("İ" * 10).hashes

    def test_char_by_char_unicode_equals_batch(self):
        text = "İstanbul ve İzmir: STRAẞE ﬁle ﬂow, naïve 北京 2024!"
        inc = IncrementalFingerprinter(TINY_CONFIG)
        prefix = ""
        for ch in text:
            prefix += ch
            inc.append(ch)
            assert inc.current().hashes == BATCH.fingerprint(prefix).hashes
        assert inc.current().selections == BATCH.fingerprint(text).selections

    def test_combining_dot_product_is_dropped(self):
        # Normalised stream must match the batch normaliser exactly:
        # one 'i' per İ, never the combining dot.
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append("İİ")
        assert inc._norm_chars == ["i", "i"]
        assert inc._offsets == [0, 1]


class TestAppendCountBoundary:
    """append()'s return value must reconcile with current()."""

    def test_partial_window_reports_first_selection(self):
        # Bug: with fewer hashes than window_size, append() returned 0
        # while current() already reported one selected hash.
        inc = IncrementalFingerprinter(TINY_CONFIG)  # ngram 6, window 3
        reported = inc.append("abcdef")  # exactly one n-gram hash
        assert len(inc.current()) == 1
        assert reported == 1

    def test_count_equals_window_size_boundary(self):
        # 8 chars under TINY_CONFIG yield exactly window_size hashes:
        # the first full window selects the same rightmost minimum the
        # partial scans already reported — counted once.
        inc = IncrementalFingerprinter(TINY_CONFIG)
        total = 0
        shown = set()
        for ch in "abcdefgh":
            total += inc.append(ch)
            shown |= _sel_triples(inc.current())
        assert len(inc._values) == TINY_CONFIG.window_size
        assert total == len(shown)  # at-most-once per selection
        assert total >= len(inc.current().selections)

    @given(chunks)
    @settings(max_examples=60, deadline=None)
    def test_counts_cover_current_selection_at_every_prefix(self, pieces):
        config = FingerprintConfig(ngram_size=4, window_size=3)
        inc = IncrementalFingerprinter(config)
        total = 0
        shown = set()
        for piece in pieces:
            total += inc.append(piece)
            shown |= _sel_triples(inc.current())
            # Everything current() reports has been counted by some
            # append() — including during the partial window.
            assert total >= len(inc.current().selections)
        # ...and each selection it has shown was counted exactly once.
        assert total == len(shown)


class TestByteModeStreaming:
    """The kernel-backed streaming path and its char-mode conversion.

    ``use_kernel=True`` (the default) starts appends in byte mode:
    suffixes are batch-normalised with the kernel's translate tables
    and only new hashes are rolled. The first wide-Unicode suffix
    converts the state to the per-character path permanently. Both
    modes — and the transition — must equal from-scratch batch
    refingerprinting at every prefix.
    """

    def test_starts_in_byte_mode_by_default(self):
        assert IncrementalFingerprinter(TINY_CONFIG)._byte_mode

    def test_use_kernel_false_starts_in_char_mode(self):
        config = FingerprintConfig(
            ngram_size=TINY_CONFIG.ngram_size,
            window_size=TINY_CONFIG.window_size,
            use_kernel=False,
        )
        inc = IncrementalFingerprinter(config)
        assert not inc._byte_mode
        inc.append(SECRET_TEXT)
        assert inc.current().hashes == BATCH.fingerprint(SECRET_TEXT).hashes

    def test_wide_suffix_converts_permanently(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append("latin-1 prefix kept as bytes ")
        assert inc._byte_mode
        inc.append("İstanbul ")
        assert not inc._byte_mode
        inc.append("back to ascii, but char mode stays")
        assert not inc._byte_mode

    def test_conversion_preserves_equivalence(self):
        text_parts = [
            "The µ-service café ",  # byte mode (Latin-1)
            "meets İstanbul ẞ ",  # triggers conversion
            "and continues in plain ascii after that.",
        ]
        inc = IncrementalFingerprinter(TINY_CONFIG)
        accumulated = ""
        for part in text_parts:
            inc.append(part)
            accumulated += part
            batch = BATCH.fingerprint(accumulated)
            current = inc.current()
            assert current.hashes == batch.hashes
            assert current.selections == batch.selections

    @given(chunks)
    @settings(max_examples=60)
    def test_byte_mode_equals_batch_at_every_prefix(self, pieces):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        accumulated = ""
        for piece in pieces:
            inc.append(piece)
            accumulated += piece
            assert inc._byte_mode  # ascii chunks never convert
            batch = BATCH.fingerprint(accumulated)
            current = inc.current()
            assert current.hashes == batch.hashes
            assert current.selections == batch.selections

    @given(chunks)
    @settings(max_examples=40)
    def test_byte_mode_equals_char_mode_at_every_prefix(self, pieces):
        """Differential: the two streaming modes against each other."""
        char_config = FingerprintConfig(
            ngram_size=TINY_CONFIG.ngram_size,
            window_size=TINY_CONFIG.window_size,
            use_kernel=False,
        )
        byte_inc = IncrementalFingerprinter(TINY_CONFIG)
        char_inc = IncrementalFingerprinter(char_config)
        for piece in pieces:
            assert byte_inc.append(piece) == char_inc.append(piece)
            assert byte_inc.current().hashes == char_inc.current().hashes
            assert (
                byte_inc.current().selections == char_inc.current().selections
            )

    @given(unicode_chunks)
    @settings(max_examples=60)
    def test_mixed_mode_equals_batch_at_every_prefix(self, pieces):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        accumulated = ""
        for piece in pieces:
            inc.append(piece)
            accumulated += piece
            batch = BATCH.fingerprint(accumulated)
            current = inc.current()
            assert current.hashes == batch.hashes
            assert current.selections == batch.selections


def _sel_triples(fingerprint):
    return {(s.value, s.orig_start, s.orig_end) for s in fingerprint.selections}


def _run_edit_script(data, config, alphabet, max_edits=8):
    """Draw and apply a random edit script; yield (text, inc) per step."""
    inc = IncrementalFingerprinter(config)
    text = data.draw(st.text(alphabet=alphabet, max_size=80), label="initial")
    inc.append(text)
    yield text, inc
    for i in range(data.draw(st.integers(0, max_edits), label="n_edits")):
        kind = data.draw(
            st.sampled_from(["replace", "delete", "insert", "append"]),
            label=f"kind{i}",
        )
        length = len(text)
        start = data.draw(st.integers(0, length), label=f"start{i}")
        end = data.draw(st.integers(start, length), label=f"end{i}")
        piece = data.draw(
            st.text(alphabet=alphabet, max_size=20), label=f"piece{i}"
        )
        if kind == "append":
            inc.append(piece)
            text += piece
        elif kind == "delete":
            inc.delete(start, end)
            text = text[:start] + text[end:]
        elif kind == "insert":
            inc.replace(start, start, piece)
            text = text[:start] + piece + text[start:]
        else:
            inc.replace(start, end, piece)
            text = text[:start] + piece + text[end:]
        yield text, inc


class TestReplaceDelete:
    """Edit-local ``replace``/``delete`` against the batch oracle."""

    def test_replace_middle_equals_batch(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append(SECRET_TEXT)
        edited = SECRET_TEXT[:40] + "REDACTED" + SECRET_TEXT[52:]
        inc.replace(40, 52, "REDACTED")
        expected = BATCH.fingerprint(edited)
        current = inc.current()
        assert current.hashes == expected.hashes
        assert current.selections == expected.selections
        assert inc.text_length == len(edited)

    def test_delete_equals_batch(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append(SECRET_TEXT)
        inc.delete(10, 30)
        edited = SECRET_TEXT[:10] + SECRET_TEXT[30:]
        expected = BATCH.fingerprint(edited)
        current = inc.current()
        assert current.hashes == expected.hashes
        assert current.selections == expected.selections

    def test_replace_at_end_equals_append(self):
        a = IncrementalFingerprinter(TINY_CONFIG)
        b = IncrementalFingerprinter(TINY_CONFIG)
        a.append(SECRET_TEXT)
        b.append(SECRET_TEXT)
        n = len(SECRET_TEXT)
        a.replace(n, n, " and more")
        b.append(" and more")
        assert a.current() == b.current()
        expected = BATCH.fingerprint_reference(SECRET_TEXT + " and more")
        assert a.current().flat_selections == expected.flat_selections

    def test_delete_everything_empties_state(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append(SECRET_TEXT)
        inc.delete(0, len(SECRET_TEXT))
        assert inc.current().is_empty()
        assert inc.text_length == 0
        # The state must still accept appends afterwards.
        inc.append(SECRET_TEXT)
        assert inc.current().hashes == BATCH.fingerprint(SECRET_TEXT).hashes

    def test_empty_replace_is_noop(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append(SECRET_TEXT)
        before = inc.current()
        inc.replace(5, 5, "")
        assert inc.current() == before
        assert inc.current().flat_selections == before.flat_selections

    def test_out_of_range_raises(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append("short")
        with pytest.raises(ValueError):
            inc.replace(3, 99, "x")
        with pytest.raises(ValueError):
            inc.replace(-1, 2, "x")
        with pytest.raises(ValueError):
            inc.replace(4, 2, "x")

    def test_wide_replacement_converts_mode(self):
        # A wide-Unicode replacement chunk must flip byte mode to char
        # mode exactly like a wide append does, preserving equivalence.
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append("plain ascii paragraph about nothing much")
        assert inc._byte_mode
        inc.replace(6, 11, "İstanbul ẞ")
        assert not inc._byte_mode
        edited = "plain İstanbul ẞ paragraph about nothing much"
        expected = BATCH.fingerprint(edited)
        current = inc.current()
        assert current.hashes == expected.hashes
        assert current.selections == expected.selections

    def test_replace_matches_reference_pipeline(self):
        inc = IncrementalFingerprinter(TINY_CONFIG)
        inc.append(SECRET_TEXT)
        inc.replace(20, 25, "edits")
        edited = SECRET_TEXT[:20] + "edits" + SECRET_TEXT[25:]
        reference = BATCH.fingerprint_reference(edited)
        current = inc.current()
        assert current.hashes == reference.hashes
        assert current.selections == reference.selections

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_ascii_edit_scripts_equal_batch(self, data):
        config = FingerprintConfig(ngram_size=4, window_size=3)
        batch = Fingerprinter(config)
        alphabet = string.ascii_letters + string.digits + " .,!"
        for text, inc in _run_edit_script(data, config, alphabet):
            expected = batch.fingerprint(text)
            current = inc.current()
            assert current.hashes == expected.hashes
            assert current.selections == expected.selections

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_unicode_edit_scripts_equal_batch(self, data):
        """Full-Unicode edits (incl. the lower-expanding İ) stay
        field-identical to from-scratch batch fingerprints."""
        config = FingerprintConfig(ngram_size=4, window_size=3)
        batch = Fingerprinter(config)
        for text, inc in _run_edit_script(data, config, UNICODE_ALPHABET):
            expected = batch.fingerprint(text)
            current = inc.current()
            assert current.hashes == expected.hashes
            assert current.selections == expected.selections

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_edits_window_one_and_wide_windows(self, data):
        for config in (
            FingerprintConfig(ngram_size=2, window_size=1),
            FingerprintConfig(ngram_size=3, window_size=7),
        ):
            batch = Fingerprinter(config)
            for text, inc in _run_edit_script(
                data, config, UNICODE_ALPHABET, max_edits=5
            ):
                expected = batch.fingerprint(text)
                current = inc.current()
                assert current.hashes == expected.hashes
                assert current.selections == expected.selections


class TestEditLocality:
    """Winnowing edit-locality: an edit only perturbs fingerprints
    within a ``k + w - 1`` kept-character radius of the change.

    Every selected fingerprint of the edited text whose n-gram lies
    outside the dirty radius must be byte-identical — same hash value,
    same original-offset span (shifted by the edit's length delta when
    it sits after the edit) — to a pre-edit selection, and the
    incremental delta pipeline must agree with the reference pipeline
    on all of them.
    """

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_selections_outside_dirty_radius_are_preserved(self, data):
        config = FingerprintConfig(ngram_size=4, window_size=3)
        n, w = config.ngram_size, config.window_size
        batch = Fingerprinter(config)
        text = data.draw(
            st.text(alphabet=UNICODE_ALPHABET, min_size=20, max_size=120),
            label="text",
        )
        start = data.draw(st.integers(0, len(text)), label="start")
        end = data.draw(st.integers(start, len(text)), label="end")
        piece = data.draw(
            st.text(alphabet=UNICODE_ALPHABET, max_size=15), label="piece"
        )
        edited = text[:start] + piece + text[end:]
        delta = len(piece) - (end - start)

        old_ref = batch.fingerprint_reference(text)
        new_ref = batch.fingerprint_reference(edited)

        inc = IncrementalFingerprinter(config)
        inc.append(text)
        inc.replace(start, end, piece)
        current = inc.current()
        # The delta pipeline agrees with the reference everywhere, so in
        # particular outside the radius selections are byte-identical.
        assert current.hashes == new_ref.hashes
        assert current.selections == new_ref.selections

        # Locality: recover each new selection's normalised position and
        # classify against the dirty radius. Positions are recovered via
        # offset bisection; İ expansion can duplicate offsets, so the
        # radius carries a 2-position slack on each side (conservative —
        # only shrinks the asserted-clean region).
        norm_new = normalize(edited)
        lo = bisect_left(norm_new.offsets, start)
        m_new = bisect_left(norm_new.offsets, start + len(piece)) - lo
        dirty_lo = lo - n - w + 2 - 2
        dirty_hi = lo + m_new + w - 2 + 2
        old_triples = _sel_triples(old_ref)
        for sel in new_ref.selections:
            p = bisect_left(norm_new.offsets, sel.orig_start)
            if p + n - 1 < dirty_lo:
                assert (sel.value, sel.orig_start, sel.orig_end) in old_triples
            elif p > dirty_hi:
                assert (
                    sel.value,
                    sel.orig_start - delta,
                    sel.orig_end - delta,
                ) in old_triples

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_prefix_selections_not_recomputed(self, data):
        """White-box: a replace keeps the selections well before the
        edit as they were and re-hashes only the dirty radius — at most
        ``m_new + 2(n-1)`` normalised bytes for ``m_new`` new ones.
        """
        config = FingerprintConfig(ngram_size=4, window_size=3)
        n, w = config.ngram_size, config.window_size
        text = data.draw(
            st.text(
                alphabet=string.ascii_lowercase + " ",
                min_size=60,
                max_size=120,
            ),
            label="text",
        )
        start = data.draw(st.integers(40, len(text)), label="start")
        end = data.draw(st.integers(start, len(text)), label="end")
        piece = data.draw(
            st.text(alphabet=string.ascii_lowercase, max_size=10),
            label="piece",
        )
        inc = IncrementalFingerprinter(config)
        inc.append(text)
        if len(inc._values) <= w:
            return  # wholesale-rebuild fallback path, no splice to pin
        radius = n + w - 1
        prefix = [
            s for s in inc.current().selections if s.orig_end <= start - radius
        ]
        hashed = []
        shared = inc._hasher

        class RecordingHasher:
            def hash_all_bytes(self, data):
                hashed.append(len(data))
                return shared.hash_all_bytes(data)

        inc._hasher = RecordingHasher()
        inc.replace(start, end, piece)
        assert list(inc.current().selections[: len(prefix)]) == prefix
        assert sum(hashed) <= len(piece) + 2 * (n - 1)


#: Three-letter-or-longer words, so a paragraph of 30 of them clears
#: the bulk threshold under every config of the differential below.
PROSE_WORDS = (
    "the", "board", "signs", "off", "quarterly", "merger", "offer",
    "secret", "revenue", "target", "list", "2024", "café", "naïve",
    "µ-service",
)
paragraphs = st.lists(
    st.sampled_from(PROSE_WORDS), min_size=30, max_size=80
).map(" ".join)

BULK_CONFIGS = (
    TINY_CONFIG,
    PAPER_CONFIG,
    FingerprintConfig(ngram_size=4, window_size=1),
    FingerprintConfig(ngram_size=3, window_size=7, hash_bits=48),
)


def _bulk_cases():
    for config in BULK_CONFIGS:
        for mode in ("pure", "numpy"):
            if mode == "numpy" and (not HAS_NUMPY or config.hash_bits > 32):
                continue
            yield pytest.param(
                config,
                mode,
                id=f"{config.ngram_size}-{config.window_size}-{config.hash_bits}-{mode}",
            )


def _kernel_in(mode):
    """A shared-kernel factory whose kernels run in *mode*."""

    def shared(ngram_size, window_size, hash_bits):
        hasher = KarpRabin(ngram_size=ngram_size, hash_bits=hash_bits)
        config = FingerprintConfig(ngram_size, window_size, hash_bits)
        return hasher, IngestKernel(config, hasher, mode=mode)

    return shared


def _run_bulk_script(data, config, max_steps=10):
    """Draw and apply a script of keystrokes, bulk appends, mid-text
    replaces and deletes; yield ``(text, inc, count)`` after each step,
    *count* being append's return value, or None after a splice."""
    inc = IncrementalFingerprinter(config)
    text = ""
    for i in range(data.draw(st.integers(1, max_steps), label="steps")):
        kind = data.draw(
            st.sampled_from(["key", "bulk", "replace", "delete"]),
            label=f"kind{i}",
        )
        if kind in ("key", "bulk"):
            piece = data.draw(
                st.sampled_from(UNICODE_ALPHABET) if kind == "key" else paragraphs,
                label=f"piece{i}",
            )
            count = inc.append(piece)
            text += piece
        else:
            start = data.draw(st.integers(0, len(text)), label=f"start{i}")
            end = data.draw(st.integers(start, len(text)), label=f"end{i}")
            if kind == "delete":
                piece = ""
                inc.delete(start, end)
            else:
                piece = data.draw(
                    st.one_of(
                        st.text(alphabet=UNICODE_ALPHABET, max_size=20), paragraphs
                    ),
                    label=f"piece{i}",
                )
                inc.replace(start, end, piece)
            text = text[:start] + piece + text[end:]
            count = None
        yield text, inc, count


class TestBulkAppendDifferential:
    """Keystrokes, bulk appends above ``BULK_HASHES``, mid-text splices
    and wide Unicode, on the numpy and the pure bulk path, against the
    reference pipeline after every step."""

    @pytest.mark.parametrize("config, mode", list(_bulk_cases()))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scripts_equal_reference_at_every_step(self, config, mode, data):
        reference = Fingerprinter(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(incremental, "_shared_kernel", _kernel_in(mode))
            shown, total = set(), 0
            for text, inc, count in _run_bulk_script(data, config):
                current = inc.current()
                expected = reference.fingerprint_reference(text)
                assert current.hashes == expected.hashes
                assert current.flat_selections == expected.flat_selections
                triples = _sel_triples(current)
                if count is None:
                    # A splice returns no count: counting restarts from
                    # what it shows.
                    shown, total = triples, len(triples)
                else:
                    shown |= triples
                    total += count
                # Each selection current() has shown was counted once.
                assert total == len(shown)

    def test_bulk_appends_take_the_numpy_path(self, monkeypatch):
        if not HAS_NUMPY:
            pytest.skip("numpy not installed")
        winnowed = []

        def spy(values, window_size):
            winnowed.append(len(values))
            return _winnow_numpy(values, window_size)

        monkeypatch.setattr(incremental, "_winnow_numpy", spy)
        hashes = len(normalize(SECRET_TEXT).text) - TINY_CONFIG.ngram_size + 1
        assert hashes >= BULK_HASHES
        buffer = EditBuffer(TINY_CONFIG, SECRET_TEXT)  # a rendered paragraph
        assert len(winnowed) == 1
        buffer.update(SECRET_TEXT + "x")  # a keystroke: the pure roll
        assert len(winnowed) == 1
        pasted = SECRET_TEXT + "x" + SECRET_TEXT
        assert buffer.update(pasted) == BATCH.fingerprint_reference(pasted)
        assert len(winnowed) == 2


class TestSharedKernelThreads:
    """Every buffer of one config shares one hasher and one kernel, so
    buffers built and edited on several threads at once must still give
    the reference fingerprints. One text is longer than the kernel keeps
    power tables for, so its builds replace the shared tables while
    other threads read them."""

    THREADS = 4
    ROUNDS = 6

    def test_concurrent_buffers_equal_reference(self):
        long_text = (SECRET_TEXT + OTHER_TEXT) * (
            POWER_TABLE_CAP // len(normalize(SECRET_TEXT + OTHER_TEXT).text) + 1
        )
        texts = [SECRET_TEXT, OTHER_TEXT * 5, long_text]
        cases = []
        for text in texts:
            mid = len(text) // 2
            edited = text[:mid] + "an edit" + text[mid:]
            cases.append(
                (
                    text,
                    BATCH.fingerprint_reference(text),
                    edited,
                    BATCH.fingerprint_reference(edited),
                )
            )
        failures = []

        def worker(k):
            try:
                for i in range(self.ROUNDS):
                    text, want, edited, want_edited = cases[(k + i) % len(cases)]
                    buffer = EditBuffer(TINY_CONFIG, text)
                    if buffer.current() != want:
                        failures.append(("build", k, i))
                    if buffer.update(edited) != want_edited:
                        failures.append(("edit", k, i))
            except Exception as exc:  # reported below, not lost in the thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,), daemon=True)
                for k in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a thread is wedged"
        assert failures == []


class TestSplitEdit:
    """Block-diff primitive behind EditBuffer (DESIGN.md §13)."""

    def test_equal_texts_return_none(self):
        from repro.fingerprint.incremental import _split_edit

        assert _split_edit("", "") is None
        assert _split_edit("same text", "same text") is None

    @pytest.mark.parametrize(
        "old,new",
        [
            ("hello world", "hello brave world"),   # insertion
            ("hello brave world", "hello world"),   # deletion
            ("hello world", "hello, world"),        # single char
            ("hello world", "hello worlds"),        # trailing append
            ("hello world", "ahello world"),        # leading insert
            ("", "from nothing"),                   # creation
            ("to nothing", ""),                     # wipe
            ("aaaa", "aaaaaaa"),                    # ambiguous repeats
            ("abcabc", "abcabcabc"),                # repeated blocks
            ("x" * 5000 + "tail", "x" * 5000 + "mid" + "tail"),
        ],
    )
    def test_reconstruction_identity(self, old, new):
        from repro.fingerprint.incremental import _split_edit

        start, end, repl = _split_edit(old, new)
        assert 0 <= start <= end <= len(old)
        assert new == old[:start] + repl + old[end:]

    def test_keystroke_in_large_text_is_minimal(self):
        from repro.fingerprint.incremental import _split_edit

        old = "paragraph text " * 500
        new = old[:4000] + "X" + old[4000:]
        start, end, repl = _split_edit(old, new)
        assert (start, end, repl) == (4000, 4000, "X")


class TestEditBuffer:
    def test_states_equal_batch_at_every_step(self):
        from repro.fingerprint.incremental import EditBuffer

        buffer = EditBuffer(TINY_CONFIG)
        states = [
            "",
            "the quick brown fox",
            "the quick brown fox jumps",       # append
            "the quick red fox jumps",          # mid substitution
            "the quick red fox",                # tail deletion
            "prefix the quick red fox",         # head insertion
            "the quick red fox",                # head deletion
            SECRET_TEXT,                        # full rewrite
        ]
        for state in states:
            fingerprint = buffer.update(state)
            want = BATCH.fingerprint(state)
            assert fingerprint.hashes == want.hashes
            assert [
                (s.value, s.orig_start, s.orig_end)
                for s in fingerprint.selections
            ] == [
                (s.value, s.orig_start, s.orig_end)
                for s in want.selections
            ]
            assert buffer.text == state

    def test_identical_update_is_a_noop(self):
        from repro.fingerprint.incremental import EditBuffer

        buffer = EditBuffer(TINY_CONFIG, SECRET_TEXT)
        edits_before = buffer.delta_edits
        first = buffer.update(SECRET_TEXT)
        second = buffer.update(SECRET_TEXT)
        assert buffer.delta_edits == edits_before  # no splice applied
        assert second.hashes == first.hashes

    def test_counts_delta_edits_vs_full_builds(self):
        from repro.fingerprint.incremental import EditBuffer

        buffer = EditBuffer(TINY_CONFIG)
        assert (buffer.delta_edits, buffer.full_builds) == (0, 1)
        buffer.update("the quick brown fox jumps over the dog")
        buffer.update("the quick brown fox jumps over the dogs")
        assert buffer.delta_edits == 2

    def test_initial_text_equals_batch(self):
        from repro.fingerprint.incremental import EditBuffer

        buffer = EditBuffer(TINY_CONFIG, SECRET_TEXT)
        assert buffer.current().hashes == BATCH.fingerprint(SECRET_TEXT).hashes

    @given(chunks)
    @settings(max_examples=40, deadline=None)
    def test_property_arbitrary_state_sequences_equal_batch(self, pieces):
        """Any sequence of full-text states — each diffed to a splice —
        fingerprints identically to the batch pipeline."""
        from repro.fingerprint.incremental import EditBuffer

        buffer = EditBuffer(TINY_CONFIG)
        text = ""
        for piece in pieces:
            # Grow a state by mixing append/insert/delete of the piece.
            cut = len(text) // 2
            text = text[:cut] + piece + text[cut + len(piece) // 2 :]
            fingerprint = buffer.update(text)
            assert fingerprint.hashes == BATCH.fingerprint(text).hashes
