"""Fused ingest kernel: single-sweep normalise → hash → winnow (S1–S4).

The reference pipeline (:func:`~repro.fingerprint.normalize.normalize` →
:meth:`~repro.fingerprint.rolling_hash.KarpRabin.hash_all_list` →
:func:`~repro.fingerprint.winnowing.winnow`) runs three Python passes
with per-character method calls — ``isalnum()``/``lower()`` per input
character alone account for nearly half of ingest time. This module
replaces all three passes for byte-narrow input with batched C-level
primitives; the reference implementations stay untouched as the
differential oracle.

Stage by stage:

S1 normalise — one :meth:`bytes.translate` call lowercases and deletes
   non-alphanumerics via precomputed 256-entry tables, and one
   :func:`itertools.compress` pass recovers the offset map (original
   index of every kept byte). Every Latin-1 code point is kernel-safe:
   each alphanumeric byte lowercases to exactly one alphanumeric byte
   (U+00B5 µ is already lowercase, so ``str.lower`` keeps it; the
   expanding code points such as U+0130 İ cannot be encoded to Latin-1
   in the first place). ``_TABLES_SAFE`` re-proves this at import time.

S2 hash — :meth:`KarpRabin.hash_all_bytes` rolls the Karp–Rabin window
   over the translated buffer with a premultiplied exit table
   (``(-lead·base) mod 2**bits``) so each step is one multiply, two
   adds and a mask inside a single list comprehension.

S3/S4 winnow — a skip-scan replaces the per-element monotonic deque.
   Winnowed selections are *sparse* (≈ 2/(w+1) of positions), and
   between two selections the window minimum is constant; the scan
   therefore jumps selection-to-selection using C-level ``min``/
   ``index`` over small slices instead of running Python bytecode per
   hash. Tie-breaking (rightmost minimum) is identical to the deque:
   a new equal-or-smaller entrant always takes over, and the exit
   rescan picks the last occurrence of the minimum. We measured the
   issue's fused hash+deque single loop too — the skip-scan beats it
   ~2.5× because per-element deque bookkeeping costs more than the
   materialised hash list it avoids.

An optional numpy path (guarded import; ``pip install repro[bench]``)
vectorises S2 via modular prefix products — ``base`` is odd, hence
invertible mod 2**64, so every window hash is a cumsum difference times
a power — and S3/S4 via a sparse table of ``minimum`` over packed
``(value << 32) | reversed-index`` keys, which preserves the rightmost
tie-break under plain unsigned ``min``. uint64 wraparound arithmetic is
exact mod 2**64 and therefore exact mod 2**hash_bits for any
``hash_bits ≤ 64``; key packing additionally needs ``hash_bits ≤ 32``
(the paper's value), wider configs fall back to the pure path.

Throughput (Wikipedia/manuals corpora, this container): reference
≈ 1.2 MB/s, pure kernel ≈ 3.3 MB/s, numpy kernel ≈ 25–30 MB/s.
``BENCH_fingerprint.json`` tracks the trajectory across PRs.
"""

from __future__ import annotations

from itertools import compress, count
from typing import List, Optional, Sequence, Tuple

from repro.fingerprint.config import FingerprintConfig
from repro.fingerprint.rolling_hash import KarpRabin

try:  # The numpy fast path is optional: pure Python is the contract.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on CI without numpy
    _np = None

HAS_NUMPY = _np is not None


def _build_tables() -> Tuple[bytes, bytes, bytes]:
    """Precompute the S1 byte tables from the oracle's own predicate.

    Returns ``(lower_table, delete_bytes, keep01_table)``:

    * ``lower_table`` maps each kept byte to its lowercase form (and is
      the identity elsewhere — those bytes are deleted anyway);
    * ``delete_bytes`` lists every byte :func:`normalize` would drop;
    * ``keep01_table`` maps kept bytes to ``\\x01`` and dropped bytes to
      ``\\x00``, the selector mask for the offset-map ``compress``.
    """
    lower = bytearray(range(256))
    delete = bytearray()
    keep01 = bytearray(256)
    for b in range(256):
        ch = chr(b)
        if ch.isalnum():
            lowered = [c for c in ch.lower() if c.isalnum()]
            if len(lowered) == 1 and ord(lowered[0]) <= 0xFF:
                lower[b] = ord(lowered[0])
                keep01[b] = 1
            else:  # pragma: no cover - no such byte exists in Latin-1
                delete.append(b)
        else:
            delete.append(b)
    return bytes(lower), bytes(delete), bytes(keep01)


_LOWER_TABLE, _DELETE_BYTES, _KEEP01_TABLE = _build_tables()

# Import-time proof that the byte tables agree with normalize() on the
# whole Latin-1 range; a Unicode-table change that broke the claim
# would fail loudly here, not silently skew fingerprints.
def _tables_safe() -> bool:
    from repro.fingerprint.normalize import normalize

    for b in range(256):
        text = chr(b)
        norm = text.encode("latin-1").translate(_LOWER_TABLE, _DELETE_BYTES)
        ref = normalize(text)
        if norm.decode("latin-1") != ref.text:
            return False
    return True


_TABLES_SAFE = _tables_safe()
assert _TABLES_SAFE, "kernel byte tables diverge from normalize()"


def normalize_latin1(data: bytes) -> Tuple[bytes, List[int]]:
    """S1 over a Latin-1 byte buffer: (normalised bytes, offset map).

    ``offsets[i]`` is the index in *data* of the byte that produced
    ``norm[i]`` — exactly :class:`NormalizedText.offsets` for the
    decoded string. Both passes are C-level: one ``translate`` for the
    text, one ``translate`` + ``compress(count(), mask)`` for offsets.
    """
    norm = data.translate(_LOWER_TABLE, _DELETE_BYTES)
    offsets = list(compress(count(), data.translate(_KEEP01_TABLE)))
    return norm, offsets


def skipscan_winnow(values: Sequence[int], window_size: int) -> List[int]:
    """Winnow positions via selection-to-selection skip-scan.

    Produces byte-identical output to :func:`repro.fingerprint.winnowing.winnow`
    (property-tested, including ties): the selected positions of the
    rightmost minimum of every ``window_size`` window, deduplicated.

    The invariant driving the jumps: while position ``p`` (value ``v``)
    is selected, the selection can only change when (a) an entrant with
    value ``<= v`` arrives — the *first* such entrant is the next
    selection, because everything between ``p`` and it is ``> v`` — or
    (b) ``p`` falls out of the window, in which case the next selection
    is the rightmost minimum of the following window. Both events are
    found with ``min``/``index`` over at-most-``window_size`` slices,
    so the per-hash Python bytecode of the deque loop disappears.
    """
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    n = len(values)
    if n == 0:
        return []
    if window_size == 1:
        return list(range(n))
    if not isinstance(values, list):
        values = list(values)
    w = window_size
    if n <= w:
        # One (possibly partial) window: its rightmost minimum.
        rev = values[::-1]
        return [n - 1 - rev.index(min(rev))]
    sel: List[int] = []
    emit = sel.append
    rev = values[w - 1 :: -1]
    p = w - 1 - rev.index(min(rev))
    v = values[p]
    emit(p)
    c = w  # next unexamined entrant
    while True:
        e = p + w  # entrant index at which p exits the window
        hi = e if e <= n else n
        if c < hi:
            chunk = values[c:hi]
            if min(chunk) <= v:
                # Event (a): first entrant <= v takes over immediately.
                for j, x in enumerate(chunk):
                    if x <= v:
                        break
                p = c + j
                v = values[p]
                c = p + 1
                emit(p)
                continue
            c = hi
        if e >= n:
            return sel
        # Event (b): p exits; rightmost minimum of [p+1, p+w].
        chunk = values[e:p:-1]  # values[p+1 : e+1] reversed
        v = min(chunk)
        p = e - chunk.index(v)
        c = e + 1
        emit(p)


def _winnow_numpy(values: "_np.ndarray", window_size: int) -> List[int]:
    """Vectorised winnow over uint64 ``values`` (< 2**32 each).

    Packs ``(value << 32) | (n-1-i)`` so unsigned minimum orders first
    by value, then by *largest* index — the paper's rightmost
    tie-break — then takes sliding-window minima with a two-level
    sparse table (log2(w) ``np.minimum`` passes) and emits positions
    where the window minimum changes.
    """
    cnt = int(values.shape[0])
    w = window_size
    keys = (values << _np.uint64(32)) | _np.arange(
        cnt - 1, -1, -1, dtype=_np.uint64
    )
    if cnt <= w:
        k = int(keys.min())
        return [(cnt - 1) - (k & 0xFFFFFFFF)]
    m = keys
    span = 1
    while span * 2 <= w:
        m = _np.minimum(m[: m.shape[0] - span], m[span:])
        span *= 2
    rest = w - span
    n_windows = cnt - w + 1
    if rest:
        wins = _np.minimum(m[:n_windows], m[rest : rest + n_windows])
    else:
        wins = m[:n_windows]
    change = _np.flatnonzero(wins[1:] != wins[:-1]) + 1
    sel_keys = _np.concatenate((wins[:1], wins[change]))
    big = _np.uint64(cnt - 1)
    return (big - (sel_keys & _np.uint64(0xFFFFFFFF))).tolist()


class IngestKernel:
    """The fused S1–S4 ingest pipeline for byte-narrow text.

    One kernel per :class:`~repro.fingerprint.fingerprint.Fingerprinter`;
    it shares the fingerprinter's :class:`KarpRabin` so hash parameters
    can never drift between the kernel and the reference path.

    Args:
        config: fingerprint parameters.
        hasher: the shared Karp–Rabin hasher (must match *config*).
        mode: ``"auto"`` uses numpy for S2–S4 when available and the
            config is packable (``hash_bits <= 32``, odd base);
            ``"pure"`` forces the pure-Python path; ``"numpy"`` demands
            the vectorised path and raises if it cannot run.
        scope: optional metrics scope; when set, per-stage latency
            lands in the ``normalize``/``hash``/``winnow`` histograms.
    """

    def __init__(
        self,
        config: FingerprintConfig,
        hasher: KarpRabin,
        *,
        mode: str = "auto",
        scope=None,
    ) -> None:
        if mode not in ("auto", "pure", "numpy"):
            raise ValueError(f"unknown kernel mode {mode!r}")
        self._config = config
        self._hasher = hasher
        numpy_capable = (
            HAS_NUMPY and config.hash_bits <= 32 and hasher.base % 2 == 1
        )
        if mode == "numpy" and not numpy_capable:
            raise ValueError(
                "numpy kernel path unavailable "
                "(numpy missing, hash_bits > 32, or even base)"
            )
        self._use_numpy = numpy_capable and mode != "pure"
        self._scope = scope
        self._np_state: Optional[Tuple["_np.ndarray", "_np.ndarray"]] = None

    @property
    def uses_numpy(self) -> bool:
        return self._use_numpy

    def encode(self, text: str) -> Optional[bytes]:
        """The dispatch rule: the kernel handles exactly Latin-1 text.

        Latin-1 preserves ``ord`` for the first 256 code points, and
        every one of them normalises within the byte range (see module
        docstring), so ``encode`` succeeding is both necessary and
        sufficient. Wide text — including the lower-expanding U+0130 —
        belongs to the reference character path.
        """
        try:
            return text.encode("latin-1")
        except UnicodeEncodeError:
            return None

    def normalize(self, data: bytes):
        """S1 with per-stage timing; see :func:`normalize_latin1`.

        On the numpy path the offset map comes back as an integer
        ndarray (``flatnonzero`` over the keep mask) instead of a
        Python list — materialising one Python int per kept byte was
        the dominant S1 cost once ``translate`` took over the text
        itself. :meth:`selections_from` gathers from either form.
        """
        scope = self._scope
        if scope is None:
            return self._normalize(data)
        with scope.timer("normalize"):
            return self._normalize(data)

    def _normalize(self, data: bytes):
        if self._use_numpy:
            norm = data.translate(_LOWER_TABLE, _DELETE_BYTES)
            offsets = _np.flatnonzero(
                _np.frombuffer(data.translate(_KEEP01_TABLE), dtype=_np.uint8)
            )
            return norm, offsets
        return normalize_latin1(data)

    def selections_from(self, norm: bytes, offsets) -> Tuple[int, ...]:
        """S2–S4 over an already-normalised buffer and its offset map.

        Returns the winnowed selections in normalised-position order as
        one flat tuple ``(value, orig_start, orig_end, …)``, the
        :attr:`~repro.fingerprint.fingerprint.Fingerprint.flat_selections`
        form. Field-identical to the reference pipeline run on the
        decoded string: same hash values at the same positions, same
        ``original_span`` offsets (property-tested in
        ``tests/test_fp_kernel.py``). *offsets* is a list of ints (pure
        path) or an int ndarray (numpy path) — whatever
        :meth:`normalize` returned.
        """
        n = self._config.ngram_size
        if len(norm) < n:
            return ()
        w = self._config.window_size
        scope = self._scope
        if self._use_numpy:
            if scope is None:
                values = self._hash_numpy(norm)
                positions = _winnow_numpy(values, w)
            else:
                with scope.timer("hash"):
                    values = self._hash_numpy(norm)
                with scope.timer("winnow"):
                    positions = _winnow_numpy(values, w)
            value_list = values[positions].tolist()
        else:
            if scope is None:
                value_list = self._hasher.hash_all_bytes(norm)
                positions = skipscan_winnow(value_list, w)
            else:
                with scope.timer("hash"):
                    value_list = self._hasher.hash_all_bytes(norm)
                with scope.timer("winnow"):
                    positions = skipscan_winnow(value_list, w)
            value_list = [value_list[p] for p in positions]
        last = n - 1
        if HAS_NUMPY and isinstance(offsets, _np.ndarray):
            pos = _np.asarray(positions, dtype=_np.int64)
            starts = offsets[pos].tolist()  # .tolist() → plain ints, so
            ends = (offsets[pos + last] + 1).tolist()  # spans stay JSON-able
        else:
            starts = [offsets[p] for p in positions]
            ends = [offsets[p + last] + 1 for p in positions]
        # Interleave by slice assignment: three C-level copies.
        flat: List[int] = [0] * (3 * len(value_list))
        flat[0::3] = value_list
        flat[1::3] = starts
        flat[2::3] = ends
        return tuple(flat)

    def _numpy_powers(self, length: int) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Cached ``base**i`` and ``base**-i`` (mod 2**64) up to *length*."""
        state = self._np_state
        if state is not None and state[0].shape[0] >= length:
            return state[0][:length], state[1][:length]
        capacity = max(length, 4096)
        base = self._hasher.base
        fwd = _np.empty(capacity, dtype=_np.uint64)
        fwd[0] = 1
        fwd[1:] = base
        _np.cumprod(fwd, out=fwd)
        inv = _np.empty(capacity, dtype=_np.uint64)
        inv[0] = 1
        inv[1:] = pow(base, -1, 1 << 64)
        _np.cumprod(inv, out=inv)
        self._np_state = (fwd, inv)
        return fwd[:length], inv[:length]

    def _hash_numpy(self, norm: bytes) -> "_np.ndarray":
        """Every n-gram hash of *norm*, vectorised.

        With ``q[i] = d[i] * base**-i`` and ``c`` its cumulative sum
        (everything mod 2**64 via uint64 wraparound), the window hash is
        ``(c[i+n-1] - c[i-1]) * base**(i+n-1)``; masking to
        ``hash_bits`` afterwards is exact because 2**hash_bits divides
        2**64.
        """
        n = self._config.ngram_size
        d = _np.frombuffer(norm, dtype=_np.uint8).astype(_np.uint64)
        length = d.shape[0]
        fwd, inv = self._numpy_powers(length)
        c = _np.cumsum(d * inv)
        windowed = c[n - 1 :].copy()
        windowed[1:] -= c[: length - n]
        return (windowed * fwd[n - 1 :]) & _np.uint64(self._hasher.mask)
