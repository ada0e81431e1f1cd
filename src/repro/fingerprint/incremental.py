"""Incremental fingerprinting for append-style editing.

The paper notes (§4.3) that the disclosure algorithm "can operate in an
incremental fashion: if a user edits paragraph P by adding one hash h,
the algorithm's main loop only needs to inspect h". The missing piece
for a per-keystroke pipeline is computing that new hash without
re-fingerprinting the whole paragraph. :class:`IncrementalFingerprinter`
maintains the normalisation state, the Karp–Rabin stream, and the
winnowing deque across appends, so extending a paragraph by one
character costs O(1) amortised instead of O(paragraph).

Equivalence with the batch pipeline is exact (property-tested): at any
point, :meth:`current` returns the same fingerprint the batch
:class:`~repro.fingerprint.fingerprint.Fingerprinter` would produce for
the accumulated text.

Appends of byte-narrow (Latin-1) text stream through the fused ingest
kernel's primitives: each suffix is normalised with one
``bytes.translate`` pass, its offsets recovered with one ``compress``
pass, and only the *new* n-gram hashes are rolled — the retained tail
is never re-normalised or re-hashed. The first suffix containing a wide
code point permanently converts the state to the per-character path
(the conversion is a decode, not a recompute — hashes and selections
carry over untouched), so mixed documents degrade gracefully instead of
failing over per append.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import chain, compress, count as icount
from typing import Deque, List, Set

from repro.fingerprint.config import FingerprintConfig
from repro.fingerprint.fingerprint import Fingerprint, FingerprintHash
from repro.fingerprint.kernel import (
    _DELETE_BYTES,
    _KEEP01_TABLE,
    _LOWER_TABLE,
    skipscan_winnow,
)
from repro.fingerprint.normalize import _is_kept
from repro.fingerprint.rolling_hash import KarpRabin


class IncrementalFingerprinter:
    """Maintains the fingerprint of a growing text."""

    def __init__(self, config: FingerprintConfig | None = None) -> None:
        self._config = config or FingerprintConfig()
        self._hasher = KarpRabin(
            ngram_size=self._config.ngram_size, hash_bits=self._config.hash_bits
        )
        self._original_length = 0
        # Byte mode streams appends through the kernel's translate
        # tables; the first wide-Unicode suffix converts to char mode
        # for good (config.use_kernel=False starts there).
        self._byte_mode = self._config.use_kernel
        self._norm_bytes = bytearray()
        # Normalised characters and their offsets into the original text
        # (char mode only; byte mode keeps `_norm_bytes` instead).
        self._norm_chars: List[str] = []
        self._offsets: List[int] = []
        # The full n-gram hash stream and the winnowing deque over it.
        self._values: List[int] = []
        self._window: Deque[int] = deque()
        # Selected positions (deque path) in order, deduplicated.
        self._selected: List[int] = []
        self._selected_set: Set[int] = set()
        # Materialised selections, mirroring _selected 1:1, so current()
        # never recomputes a span it already made (a splice keeps the
        # untouched ones, tail spans shifted) and only flattens; the
        # last Fingerprint is cached until a new position is selected.
        self._sel_fp: List[FingerprintHash] = []
        self._sel_hash_set: Set[int] = set()
        self._cached_fp: Fingerprint | None = None
        self._cached_sel_count = -1
        # Positions already counted by an append() return value; the
        # partial-window selection and the deque phase both report
        # through this set, so the count==window_size transition cannot
        # double-count the position both paths select.
        self._reported: Set[int] = set()

    @property
    def config(self) -> FingerprintConfig:
        return self._config

    @property
    def text_length(self) -> int:
        return self._original_length

    def append(self, suffix: str) -> int:
        """Extend the text; returns how many newly selected positions
        this append produced.

        The count covers the partial-window phase too: as soon as the
        text yields its first n-gram, :meth:`current` selects the
        rightmost-minimum hash, and that selection is reported here —
        not silently deferred until a full winnowing window exists. A
        position is counted at most once across all appends, so the
        return values reconcile with :meth:`current` at every prefix
        (including the transition at ``count == window_size``, where
        the deque selects the same position the partial scan did).
        """
        w = self._config.window_size
        base = self._original_length
        data = None
        if self._byte_mode:
            try:
                data = suffix.encode("latin-1")
            except UnicodeEncodeError:
                self._to_char_mode()
        if data is not None:
            # Streaming kernel path: batch-normalise the suffix and roll
            # only the new hashes; the retained tail is untouched.
            norm_new = data.translate(_LOWER_TABLE, _DELETE_BYTES)
            if norm_new:
                self._offsets.extend(
                    compress(icount(base), data.translate(_KEEP01_TABLE))
                )
                self._norm_bytes += norm_new
                self._extend_hashes_from_bytes()
        else:
            for i, ch in enumerate(suffix):
                if _is_kept(ch):
                    # Per produced character, as in batch normalize():
                    # str.lower() may expand one code point into several
                    # (U+0130 İ), and non-alphanumeric expansion products
                    # (the combining dot) are dropped.
                    for lowered in ch.lower():
                        if _is_kept(lowered):
                            self._norm_chars.append(lowered)
                            self._offsets.append(base + i)
                            self._new_ngram_hash()
        self._original_length += len(suffix)

        # Advance the winnowing deque over any values not yet consumed.
        before = len(self._selected)
        start = getattr(self, "_consumed", 0)
        n = self._config.ngram_size
        offsets = self._offsets
        for i in range(start, len(self._values)):
            value = self._values[i]
            while self._window and self._values[self._window[-1]] >= value:
                self._window.pop()
            self._window.append(i)
            if self._window[0] <= i - w:
                self._window.popleft()
            if i >= w - 1:
                pos = self._window[0]
                if not self._selected or self._selected[-1] != pos:
                    self._selected.append(pos)
                    self._selected_set.add(pos)
                    sel_value = self._values[pos]
                    self._sel_fp.append(
                        FingerprintHash(
                            sel_value, offsets[pos], offsets[pos + n - 1] + 1
                        )
                    )
                    self._sel_hash_set.add(sel_value)
        self._consumed = len(self._values)

        newly = 0
        count = len(self._values)
        if count and count <= w:
            # Partial window: the rightmost minimum is selected (same
            # rule as _selection_positions / the batch path).
            best = 0
            for i in range(1, count):
                if self._values[i] <= self._values[best]:
                    best = i
            if best not in self._reported:
                self._reported.add(best)
                newly += 1
        else:
            for pos in self._selected[before:]:
                if pos not in self._reported:
                    self._reported.add(pos)
                    newly += 1
        return newly

    def delete(self, start: int, end: int) -> int:
        """Remove ``text[start:end]``; equivalent to an empty replace."""
        return self.replace(start, end, "")

    def replace(self, start: int, end: int, new_text: str) -> int:
        """Splice ``new_text`` over ``text[start:end]`` edit-locally.

        Coordinates are *original-text* indices, like the spans in
        :class:`FingerprintHash`. Only the ``k+w-1``-character dirty
        radius around the edit is re-translated, re-hashed, and
        re-winnowed (winnowing locality: a hash at position ``j`` covers
        ``norm[j:j+n]`` and a selection at ``p`` is decided by windows
        ``[p-w+1, p]``, so values outside ``[lo-n+1, lo+m_new)`` and
        selections outside ``[lo-n-w+2, lo+m_new+w-2]`` are untouched);
        everything else — hash values, selected positions, materialised
        selections — is spliced, with tail spans shifted by the edit's
        length delta. Equivalence with batch re-fingerprinting of the
        edited text is exact (property-tested against the reference
        pipeline, full Unicode included).

        Returns the number of selection triples present after the edit
        that were not present before — the edit-path analogue of
        :meth:`append`'s newly-selected count.
        """
        if not 0 <= start <= end <= self._original_length:
            raise ValueError(
                f"replace range [{start}, {end}) outside text of length "
                f"{self._original_length}"
            )
        if start == end and not new_text:
            return 0
        if start == end == self._original_length:
            # Pure append: the streaming path is already edit-local and
            # counts its own newly-selected positions — for a trailing
            # edit no existing triple can disappear or shift, so that
            # count equals the triple diff (property-tested). Delegating
            # keeps the keystroke hot path free of the O(selections)
            # before/after set comparison below.
            return self.append(new_text)

        n = self._config.ngram_size
        w = self._config.window_size
        offsets = self._offsets
        before = set(self._current_selections())
        lo = bisect_left(offsets, start)
        hi = bisect_left(offsets, end)

        # Normalise the replacement chunk alone (kernel tables in byte
        # mode; a wide chunk converts the state to char mode for good,
        # exactly like a wide append).
        data = None
        if self._byte_mode:
            try:
                data = new_text.encode("latin-1")
            except UnicodeEncodeError:
                self._to_char_mode()
        if data is not None:
            norm_new: object = data.translate(_LOWER_TABLE, _DELETE_BYTES)
            new_offsets = list(
                compress(icount(start), data.translate(_KEEP01_TABLE))
            )
        else:
            chars: List[str] = []
            new_offsets = []
            for i, ch in enumerate(new_text):
                if _is_kept(ch):
                    for lowered in ch.lower():
                        if _is_kept(lowered):
                            chars.append(lowered)
                            new_offsets.append(start + i)
            norm_new = chars
        m_old = hi - lo
        m_new = len(new_offsets)
        delta_orig = len(new_text) - (end - start)

        # Splice the normalised stream and the offset map; tail offsets
        # shift by the original-length delta.
        if self._byte_mode:
            self._norm_bytes[lo:hi] = norm_new  # type: ignore[arg-type]
            norm_len = len(self._norm_bytes)
        else:
            self._norm_chars[lo:hi] = norm_new  # type: ignore[assignment]
            norm_len = len(self._norm_chars)
        offsets[lo:hi] = new_offsets
        if delta_orig:
            tail_at = lo + m_new
            offsets[tail_at:] = [o + delta_orig for o in offsets[tail_at:]]
        self._original_length += delta_orig

        # Re-hash the dirty radius only: hash j covers norm[j:j+n], so
        # the edit perturbs exactly positions [lo-n+1, lo+m_new).
        old_values = self._values
        v_old = len(old_values)
        v_new = max(0, norm_len - n + 1)
        d0 = max(0, lo - n + 1)
        d1 = min(v_new, lo + m_new)
        if d1 > d0:
            sl_end = min(norm_len, d1 + n - 1)
            if self._byte_mode:
                dirty = self._hasher.hash_all_bytes(
                    bytes(self._norm_bytes[d0:sl_end])
                )
            else:
                dirty = self._hasher.hash_all_list(
                    "".join(self._norm_chars[d0:sl_end])
                )
        else:
            dirty = []
        values = old_values[:d0] + dirty + old_values[lo + m_old :]
        self._values = values

        # Splice the winnow selection. Positions p <= d0-w are decided
        # entirely by clean prefix windows; positions p >= lo+m_new+w-1
        # entirely by clean (shifted) tail windows; the gray zone in
        # between is re-winnowed with the kernel's skip-scan over just
        # enough values to cover every window that touches it.
        shift = m_new - m_old
        if v_old <= w or v_new <= w:
            # Too short for the retention argument (the deque phase was
            # not — or is no longer — fully populated): rebuild.
            new_selected = skipscan_winnow(values, w) if v_new >= w else []
            new_sel_fp = [
                FingerprintHash(values[p], offsets[p], offsets[p + n - 1] + 1)
                for p in new_selected
            ]
        else:
            gray_lo = max(0, d0 - w + 1)
            gray_hi = min(v_new - 1, lo + m_new + w - 2)
            pre_cut = bisect_left(self._selected, gray_lo)
            tail_cut = bisect_left(self._selected, lo + m_old + w - 1)
            s0 = max(0, gray_lo - w + 1)
            s1 = min(v_new, gray_hi + w)
            if gray_hi >= gray_lo and s1 - s0 >= w:
                gray = [
                    s0 + p
                    for p in skipscan_winnow(values[s0:s1], w)
                    if gray_lo <= s0 + p <= gray_hi
                ]
            else:
                gray = []
            new_selected = (
                self._selected[:pre_cut]
                + gray
                + [p + shift for p in self._selected[tail_cut:]]
            )
            tail_fp = self._sel_fp[tail_cut:]
            if delta_orig:
                tail_fp = [
                    FingerprintHash(
                        f.value,
                        f.orig_start + delta_orig,
                        f.orig_end + delta_orig,
                    )
                    for f in tail_fp
                ]
            new_sel_fp = (
                self._sel_fp[:pre_cut]
                + [
                    FingerprintHash(
                        values[p], offsets[p], offsets[p + n - 1] + 1
                    )
                    for p in gray
                ]
                + tail_fp
            )

        self._selected = new_selected
        self._sel_fp = new_sel_fp
        self._selected_set = set(new_selected)
        self._sel_hash_set = {f.value for f in new_sel_fp}
        self._cached_fp = None
        self._cached_sel_count = -1

        # Rebuild the streaming state so later append()s continue
        # seamlessly: the window-min deque depends only on the last w
        # values, so replaying them restores it exactly.
        window: Deque[int] = deque()
        for i in range(max(0, v_new - w), v_new):
            value = values[i]
            while window and values[window[-1]] >= value:
                window.pop()
            window.append(i)
        self._window = window
        self._consumed = v_new
        if v_new and v_new <= w:
            best = 0
            for i in range(1, v_new):
                if values[i] <= values[best]:
                    best = i
            self._reported = {best}
        else:
            self._reported = set(new_selected)

        return sum(1 for s in self._current_selections() if s not in before)

    def _to_char_mode(self) -> None:
        """Permanent byte→char conversion on the first wide suffix.

        Latin-1 decode restores the exact normalised characters, so the
        hash stream, deque, and selection state all remain valid — only
        the representation of the normalised text changes.
        """
        self._norm_chars = list(self._norm_bytes.decode("latin-1"))
        self._norm_bytes = bytearray()
        self._byte_mode = False

    def _extend_hashes_from_bytes(self) -> None:
        """Roll the n-gram hashes the last byte-append made possible.

        Hash ``j`` depends only on ``norm[j : j+n]``, so hashing the
        slice from the first missing position yields exactly the missing
        suffix of the stream — one O(n) warm-up, then O(1) per new hash.
        """
        n = self._config.ngram_size
        have = len(self._values)
        if len(self._norm_bytes) - have < n:
            return
        tail = bytes(self._norm_bytes[have:])
        self._values += self._hasher.hash_all_bytes(tail)

    def _new_ngram_hash(self) -> None:
        n = self._config.ngram_size
        if len(self._norm_chars) < n:
            return
        if not self._values:
            first = "".join(self._norm_chars[:n])
            self._values.append(self._hasher.hash_one(first))
        else:
            outgoing = self._norm_chars[len(self._values) - 1]
            incoming = self._norm_chars[-1]
            self._values.append(
                self._hasher.roll(self._values[-1], outgoing, incoming)
            )

    def _selection_positions(self) -> List[int]:
        """Current winnowed positions, handling the short-text cases."""
        w = self._config.window_size
        count = len(self._values)
        if count == 0:
            return []
        if count <= w:
            # Partial window: rightmost minimum, like the batch path.
            best = 0
            for i in range(1, count):
                if self._values[i] <= self._values[best]:
                    best = i
            return [best]
        return self._selected

    def _current_selections(self) -> List[FingerprintHash]:
        """The selections :meth:`current` returns, one tuple each."""
        if len(self._values) > self._config.window_size:
            return self._sel_fp
        # Short-text phase: the single rightmost-minimum selection can
        # move on any keystroke, so it is recomputed (O(window) at most).
        last = self._config.ngram_size - 1
        offsets = self._offsets
        return [
            FingerprintHash(self._values[pos], offsets[pos], offsets[pos + last] + 1)
            for pos in self._selection_positions()
        ]

    def current(self) -> Fingerprint:
        """The fingerprint of the text accumulated so far."""
        if len(self._values) > self._config.window_size:
            # Deque phase: selections only ever append, so the last
            # Fingerprint stays valid until _sel_fp grows. Per-keystroke
            # callers (the §4.3 pipeline) hit the cache on most presses.
            if (
                self._cached_fp is not None
                and self._cached_sel_count == len(self._sel_fp)
            ):
                return self._cached_fp
            fp = Fingerprint(
                hashes=frozenset(self._sel_hash_set),
                flat_selections=tuple(chain.from_iterable(self._sel_fp)),
                config=self._config,
            )
            self._cached_fp = fp
            self._cached_sel_count = len(self._sel_fp)
            return fp
        selections = self._current_selections()
        return Fingerprint(
            hashes=frozenset(s.value for s in selections),
            flat_selections=tuple(chain.from_iterable(selections)),
            config=self._config,
        )


def _split_edit(old: str, new: str):
    """Locate the edited middle of *old* → *new* as ``(start, end, repl)``.

    Strips the longest common prefix and (non-overlapping) common
    suffix, so ``new == old[:start] + repl + old[end:]``. The scan is
    block-wise — slice equality is a C-level memcmp — so mirroring a
    keystroke into a multi-kilobyte paragraph costs a few microseconds,
    not a per-character Python loop. Returns ``None`` when the strings
    are equal.
    """
    if old == new:
        return None
    len_old, len_new = len(old), len(new)
    lo = 0
    limit = min(len_old, len_new)
    step = 256
    while step:
        while lo + step <= limit and old[lo : lo + step] == new[lo : lo + step]:
            lo += step
        step >>= 1
    end_old, end_new = len_old, len_new
    step = 256
    while step:
        while (
            end_old - step >= lo
            and end_new - step >= lo
            and old[end_old - step : end_old] == new[end_new - step : end_new]
        ):
            end_old -= step
            end_new -= step
        step >>= 1
    return lo, end_old, new[lo:end_new]


class EditBuffer:
    """Mirror of one editable paragraph plus its delta fingerprint state.

    The delta dispatch primitive (DESIGN.md §13): callers hand it the
    paragraph's *current full text* after every edit — exactly what the
    plug-in reads back from the DOM — and :meth:`update` diffs it
    against the mirror, applies the minimal
    :meth:`IncrementalFingerprinter.replace` splice, and returns the
    fingerprint. A keystroke therefore costs one memcmp-speed diff plus
    an edit-local re-hash instead of a full pipeline pass, and the
    result is field-identical to batch fingerprinting (the incremental
    differential suites prove it).

    Because the mirror is always assigned from the text being
    fingerprinted, it cannot drift: a text the buffer has never seen
    simply diffs to a larger splice (worst case the whole paragraph).
    """

    __slots__ = ("_config", "_inc", "_text", "delta_edits", "full_builds")

    def __init__(
        self, config: FingerprintConfig | None = None, text: str = ""
    ) -> None:
        self._config = config or FingerprintConfig()
        self._inc = IncrementalFingerprinter(self._config)
        self._text = text
        #: Edits applied as splices vs. states built from scratch —
        #: surfaced by plug-in stats so delta coverage is observable.
        self.delta_edits = 0
        self.full_builds = 1
        if text:
            self._inc.append(text)

    @property
    def text(self) -> str:
        return self._text

    @property
    def config(self) -> FingerprintConfig:
        return self._config

    def update(self, new_text: str) -> Fingerprint:
        """Bring the mirror to *new_text*; return its fingerprint."""
        edit = _split_edit(self._text, new_text)
        if edit is not None:
            start, end, replacement = edit
            self._inc.replace(start, end, replacement)
            self._text = new_text
            self.delta_edits += 1
        return self._inc.current()

    def current(self) -> Fingerprint:
        """Fingerprint of the mirrored text (no edit applied)."""
        return self._inc.current()
