"""Incremental fingerprinting for append-style editing.

The paper notes (§4.3) that the disclosure algorithm "can operate in an
incremental fashion: if a user edits paragraph P by adding one hash h,
the algorithm's main loop only needs to inspect h". The missing piece
for a per-keystroke pipeline is computing that new hash without
re-fingerprinting the whole paragraph. :class:`IncrementalFingerprinter`
keeps the normalised text, its offset map, the n-gram hash stream and
the winnowed selections across edits, so extending a paragraph by one
character costs O(1) amortised instead of O(paragraph).

Equivalence with the batch pipeline is exact (property-tested): at any
point, :meth:`current` returns the same fingerprint the batch
:class:`~repro.fingerprint.fingerprint.Fingerprinter` would produce for
the accumulated text.

The state is kept in the kernel's flat form: the selected positions and
one int list ``(value, start, end, …)`` aligned with them, which
:meth:`current` packs into :attr:`Fingerprint.flat_selections`. An
append winnows only the windows it completed, with the kernel's
skip-scan (or, for an append of at least :data:`BULK_HASHES` hashes,
its numpy primitives); every buffer of one config shares one hasher
and one kernel.

Appends of byte-narrow (Latin-1) text stream through the fused ingest
kernel's primitives: each suffix is normalised with one
``bytes.translate`` pass, its offsets recovered with one ``compress``
pass, and only the *new* n-gram hashes are computed — the retained tail
is never re-normalised or re-hashed. The first suffix containing a wide
code point permanently converts the state to the per-character path
(the conversion is a decode, not a recompute — hashes and selections
carry over untouched), so mixed documents degrade gracefully instead of
failing over per append.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache
from itertools import compress, count as icount
from typing import List, Optional, Sequence, Tuple

from repro.fingerprint.config import FingerprintConfig
from repro.fingerprint.fingerprint import Fingerprint
from repro.fingerprint.kernel import (
    _DELETE_BYTES,
    _KEEP01_TABLE,
    _LOWER_TABLE,
    IngestKernel,
    _np,
    _winnow_numpy,
    skipscan_winnow,
)
from repro.fingerprint.normalize import _is_kept
from repro.fingerprint.rolling_hash import KarpRabin

#: An append that adds at least this many hashes (a pasted or rendered
#: paragraph, a buffer's first build) hashes and winnows with the
#: kernel's numpy primitives when the kernel has them; keystrokes stay
#: on the pure roll, whose fixed cost is far below numpy's.
BULK_HASHES = 64


@lru_cache(maxsize=None)
def _shared_kernel(
    ngram_size: int, window_size: int, hash_bits: int
) -> Tuple[KarpRabin, IngestKernel]:
    """The hasher and kernel every buffer of these parameters shares.

    A ``KarpRabin`` costs a modular ``pow`` and two 256-entry tables,
    about what the kernel spends fingerprinting a whole paragraph, so
    building one per buffer doubled a buffer's first build. Both are
    safe to share across threads: the hasher is immutable, and the
    kernel's only state is its cached power tables, which a call
    replaces whole.
    """
    config = FingerprintConfig(ngram_size, window_size, hash_bits)
    hasher = KarpRabin(ngram_size=ngram_size, hash_bits=hash_bits)
    return hasher, IngestKernel(config, hasher)


class IncrementalFingerprinter:
    """Maintains the fingerprint of a growing text."""

    def __init__(self, config: FingerprintConfig | None = None) -> None:
        self._config = config = config or FingerprintConfig()
        self._hasher, self._kernel = _shared_kernel(
            config.ngram_size, config.window_size, config.hash_bits
        )
        self._original_length = 0
        # Byte mode streams appends through the kernel's translate
        # tables; the first wide-Unicode suffix converts to char mode
        # for good (config.use_kernel=False starts there).
        self._byte_mode = config.use_kernel
        self._norm_bytes = bytearray()
        # Normalised characters (char mode only; byte mode keeps
        # `_norm_bytes` instead) and their offsets into the original text.
        self._norm_chars: List[str] = []
        self._offsets: List[int] = []
        # The full n-gram hash stream.
        self._values: List[int] = []
        # Selected positions of the full winnowing windows, ascending
        # and deduplicated (empty while fewer than w hashes exist), and
        # their selections as (value, start, end) triples, one flat int
        # list aligned with them: appends extend both, a splice keeps
        # the untouched entries and shifts the tail's spans in place.
        self._selected: List[int] = []
        self._flat: List[int] = []
        # The last current() fingerprint, until a selection changes.
        self._cached_fp: Optional[Fingerprint] = None

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
        the first full window selects the same position the partial
        scan did). Selected positions only move right, so the last
        selection shown is a high-water mark: every position up to it
        has been counted.
        """
        have = len(self._values)
        base = self._original_length
        data = None
        if self._byte_mode:
            try:
                data = suffix.encode("latin-1")
            except UnicodeEncodeError:
                self._to_char_mode()
        if data is not None:
            # Streaming kernel path: batch-normalise the suffix alone;
            # the retained text is never re-normalised or re-hashed.
            norm_new = data.translate(_LOWER_TABLE, _DELETE_BYTES)
            if norm_new:
                self._offsets.extend(
                    compress(icount(base), data.translate(_KEEP01_TABLE))
                )
                self._norm_bytes += norm_new
            norm = self._norm_bytes
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
            norm = self._norm_chars
        self._original_length += len(suffix)

        # Hash j depends only on norm[j:j+n], so hashing the tail from
        # the first missing position yields exactly the new hashes.
        n = self._config.ngram_size
        w = self._config.window_size
        added = len(norm) - n + 1 - have
        if added <= 0:
            return 0
        count = have + added
        values = self._values
        # The windows this append completed end at [max(have, w-1),
        # count); they read the values from s0 on.
        s0 = max(have - w + 1, 0)
        picked = None
        if self._byte_mode and added >= BULK_HASHES and self._kernel.uses_numpy:
            new = self._kernel._hash_numpy(norm[have:])
            if count >= w:
                old = _np.array(values[s0:], dtype=_np.uint64)
                windows = _np.concatenate((old, new))
                picked = _winnow_numpy(windows, w).tolist()
            values += new.tolist()
        else:
            if self._byte_mode:
                values += self._hasher.hash_all_bytes(norm[have:])
            else:
                values += self._hasher.hash_all_list("".join(norm[have:]))
            if count >= w:
                picked = skipscan_winnow(values[s0:], w)

        selected = self._selected
        shown = selected[-1] if selected else self._partial_best(have)
        if picked is None:
            # Partial window: the rightmost minimum is selected (same
            # rule as the batch path).
            newly = int(self._partial_best(count) != shown)
        else:
            if s0:
                picked = [s0 + p for p in picked]
            if selected and picked[0] == selected[-1]:
                del picked[0]
            newly = len(picked)
            if picked:
                selected += picked
                self._flat += self._triples(picked)
                if picked[0] == shown:
                    newly -= 1  # the partial window's minimum, counted already
        if newly:
            self._cached_fp = None
        return newly

    def delete(self, start: int, end: int) -> None:
        """Remove ``text[start:end]``; equivalent to an empty replace."""
        self.replace(start, end, "")

    def replace(self, start: int, end: int, new_text: str) -> None:
        """Splice ``new_text`` over ``text[start:end]`` edit-locally.

        Coordinates are *original-text* indices, like the spans in
        :class:`FingerprintHash`. Only the ``k+w-1``-character dirty
        radius around the edit is re-translated, re-hashed, and
        re-winnowed (winnowing locality: a hash at position ``j`` covers
        ``norm[j:j+n]`` and a selection at ``p`` is decided by windows
        ``[p-w+1, p]``, so values outside ``[lo-n+1, lo+m_new)`` and
        selections outside ``[lo-n-w+2, lo+m_new+w-2]`` are untouched);
        everything else — hash values, selected positions and their
        selection triples — is spliced in place, with tail spans
        shifted by the edit's length delta. Equivalence with batch
        re-fingerprinting of the edited text is exact (property-tested
        against the reference pipeline, full Unicode included).
        """
        if not 0 <= start <= end <= self._original_length:
            raise ValueError(
                f"replace range [{start}, {end}) outside text of length "
                f"{self._original_length}"
            )
        if start == end and not new_text:
            return
        if start == end == self._original_length:
            # Pure append: the streaming path is already edit-local.
            self.append(new_text)
            return

        n = self._config.ngram_size
        w = self._config.window_size
        offsets = self._offsets
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
        values = self._values
        v_old = len(values)
        v_new = max(0, norm_len - n + 1)
        d0 = max(0, lo - n + 1)
        d1 = min(v_new, lo + m_new)
        if d1 > d0:
            sl_end = min(norm_len, d1 + n - 1)
            if self._byte_mode:
                dirty = self._hasher.hash_all_bytes(
                    self._norm_bytes[d0:sl_end]
                )
            else:
                dirty = self._hasher.hash_all_list(
                    "".join(self._norm_chars[d0:sl_end])
                )
        else:
            dirty = []
        values[d0 : lo + m_old] = dirty

        # Splice the winnow selection. Positions p <= d0-w are decided
        # entirely by clean prefix windows; positions p >= lo+m_new+w-1
        # entirely by clean (shifted) tail windows; the gray zone in
        # between is re-winnowed with the kernel's skip-scan over just
        # enough values to cover every window that touches it.
        selected = self._selected
        flat = self._flat
        if v_old <= w or v_new <= w:
            # Too short for the retention argument (one full window at
            # most, before or after the edit): rebuild.
            selected[:] = skipscan_winnow(values, w) if v_new >= w else []
            flat[:] = self._triples(selected)
        else:
            gray_lo = max(0, d0 - w + 1)
            gray_hi = min(v_new - 1, lo + m_new + w - 2)
            pre_cut = bisect_left(selected, gray_lo)
            tail_cut = bisect_left(selected, lo + m_old + w - 1)
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
            shift = m_new - m_old
            tail = selected[tail_cut:]
            if shift:
                tail = [p + shift for p in tail]
            selected[pre_cut:] = gray + tail
            flat[3 * pre_cut : 3 * tail_cut] = self._triples(gray)
            if delta_orig:
                t = 3 * (pre_cut + len(gray))
                flat[t + 1 :: 3] = [s + delta_orig for s in flat[t + 1 :: 3]]
                flat[t + 2 :: 3] = [e + delta_orig for e in flat[t + 2 :: 3]]
        self._cached_fp = None

    def _to_char_mode(self) -> None:
        """Permanent byte→char conversion on the first wide suffix.

        Latin-1 decode restores the exact normalised characters, so the
        hash stream and selection state remain valid — only the
        representation of the normalised text changes.
        """
        self._norm_chars = list(self._norm_bytes.decode("latin-1"))
        self._norm_bytes = bytearray()
        self._byte_mode = False

    def _partial_best(self, count: int) -> int:
        """The rightmost minimum of the first *count* hashes, -1 for
        none: a text with fewer than w hashes selects it alone."""
        if not count:
            return -1
        rev = self._values[count - 1 :: -1]
        return count - 1 - rev.index(min(rev))

    def _triples(self, positions: Sequence[int]) -> List[int]:
        """The selections at *positions*, flat: ``(value, start, end, …)``."""
        values = self._values
        offsets = self._offsets
        last = self._config.ngram_size - 1
        flat = [0] * (3 * len(positions))
        flat[0::3] = [values[p] for p in positions]
        flat[1::3] = [offsets[p] for p in positions]
        flat[2::3] = [offsets[p + last] + 1 for p in positions]
        return flat

    def current(self) -> Fingerprint:
        """The fingerprint of the text accumulated so far.

        Built only when a selection changed since the last call, so
        per-keystroke callers (the §4.3 pipeline) get the same object
        back on most presses.
        """
        fp = self._cached_fp
        if fp is None:
            count = len(self._values)
            if count < self._config.window_size:
                # Short text: its partial window's one selection can
                # move on any append, so `_flat` does not hold it.
                flat = self._triples([self._partial_best(count)] if count else [])
            else:
                flat = self._flat
            fp = self._cached_fp = Fingerprint(
                hashes=frozenset(flat[0::3]),
                flat_selections=array("Q", flat).tobytes(),
                config=self._config,
            )
        return fp


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
