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

The numpy path fingerprints many texts in one pass
(:meth:`IngestKernel.selections_many`): S1–S4 run once over their
concatenation, each text keeps only the n-grams that start and end
inside it, windows that leave a text are dropped, and a text with fewer
than ``w`` hashes keeps its rightmost minimum, so every text gets the
selections it would get alone. The pure path loops over the texts.

Costs per ~580-byte paragraph (``PAPER_CONFIG``, stage histograms on,
2-core Xeon host, Python 3.11, numpy 2.4; the 10th percentile of
repeated loops over three runs): the reference path 320–600 µs; the
pure kernel 155–230 µs for one text and 135–170 µs per text in passes
of four or more; the numpy kernel 41–45 µs for one text, 35–47 µs per
text in passes of two, 24–32 µs at four and 18–25 µs at eight or more.
``BENCH_fingerprint.json`` tracks whole-corpus MB/s across PRs.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress, count
from typing import List, Optional, Sequence, Tuple

from repro.fingerprint.config import FingerprintConfig
from repro.fingerprint.rolling_hash import KarpRabin

try:  # The numpy fast path is optional: pure Python is the contract.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on CI without numpy
    _np = None

HAS_NUMPY = _np is not None
#: The reversed-index half of a packed winnow key.
_LOW32 = _np.uint64(0xFFFFFFFF) if HAS_NUMPY else None
#: Longest ``base**±i`` tables the numpy path keeps between passes
#: (1 MB for both). It is above the longest pass of the benchmark
#: workloads: a 50-paragraph book with its joined text, 59.5k
#: characters that normalise to 50.8k. A longer pass builds its own
#: tables and keeps only this prefix, so one large paste does not pin
#: memory for the life of the process.
POWER_TABLE_CAP = 1 << 16


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


def _normalize_numpy(data: bytes) -> Tuple[bytes, "_np.ndarray"]:
    """S1 on the numpy path: the offset map is an int ndarray.

    The nonzero indices of the keep mask replace the Python list of
    :func:`normalize_latin1`; materialising one Python int per kept
    byte was the dominant S1 cost once ``translate`` took over the text
    itself.
    """
    norm = data.translate(_LOWER_TABLE, _DELETE_BYTES)
    offsets = _np.frombuffer(
        data.translate(_KEEP01_TABLE), dtype=_np.uint8
    ).nonzero()[0]
    return norm, offsets


def _winnow_numpy(
    values: "_np.ndarray",
    window_size: int,
    ranges: Optional[List[Tuple[int, int]]] = None,
) -> "_np.ndarray":
    """Vectorised winnow over uint64 ``values`` (< 2**32 each).

    Packs ``(value << 32) | (n-1-i)`` so unsigned minimum orders first
    by value, then by *largest* index — the paper's rightmost
    tie-break — then takes sliding-window minima with a two-level
    sparse table (log2(w) ``np.minimum`` passes) and keeps the
    positions where the window minimum changes.

    *ranges* (sorted, disjoint ``(start, stop)`` slices of *values*)
    winnows each slice on its own, as if it were the whole sequence: a
    window that leaves its slice is dropped, and a slice shorter than
    one window keeps its rightmost minimum (``minimum.reduceat``).
    Positions outside every slice are never selected; ``None`` makes
    the whole array one slice. Returns the selected positions,
    ascending.
    """
    cnt = int(values.shape[0])
    w = window_size
    keys = values << _np.uint64(32)
    keys |= _np.arange(cnt - 1, -1, -1, dtype=_np.uint64)
    if ranges is None:
        if cnt <= w:
            return _np.array([(cnt - 1) - (int(keys.min()) & 0xFFFFFFFF)])
        return (cnt - 1) - (_window_changes(keys, w, None) & _LOW32).astype(
            _np.int64
        )
    picked = []
    full = [(start, stop) for start, stop in ranges if stop - start >= w]
    if full:
        # Window i covers values[i : i + w]: a slice's windows start in
        # [start, stop - w].
        valid = _np.zeros(cnt - w + 1, dtype=bool)
        for start, stop in full:
            valid[start : stop - w + 1] = True
        picked.append(_window_changes(keys, w, valid))
    # reduceat over [start, stop, start, stop, …]: every other result is
    # one short slice's minimum. The last stop may be the array's end,
    # which reduceat reaches on its own.
    short = [
        i for start, stop in ranges if 0 < stop - start < w for i in (start, stop)
    ]
    if short:
        if short[-1] == cnt:
            short.pop()
        picked.append(_np.minimum.reduceat(keys, short)[::2])
    if not picked:
        return _np.zeros(0, dtype=_np.int64)
    positions = (cnt - 1) - (_np.concatenate(picked) & _LOW32).astype(_np.int64)
    if len(picked) > 1:
        positions.sort()
    return positions


def _window_changes(keys, w, valid) -> "_np.ndarray":
    """Packed keys of the winnowed selections, in window order.

    The sliding minimum of every *w*-window of *keys*, restricted to
    the windows *valid* marks (all when None), reduced to where it
    changes from one valid window to the next. Keys carry their
    position, so the last window of one range and the first of the
    next never compare equal: each range's first window is kept.
    """
    m = keys
    span = 1
    while span * 2 <= w:
        m = _np.minimum(m[: m.shape[0] - span], m[span:])
        span *= 2
    rest = w - span
    n_windows = keys.shape[0] - w + 1
    if rest:
        wins = _np.minimum(m[:n_windows], m[rest : rest + n_windows])
    else:
        wins = m[:n_windows]
    if valid is not None:
        wins = wins[valid]
    change = (wins[1:] != wins[:-1]).nonzero()[0] + 1
    return _np.concatenate((wins[:1], wins[change]))


def _no_clock() -> float:
    return 0.0


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
        scope: optional metrics scope; when set, each pass records its
            per-stage time once in the ``normalize``/``hash``/``winnow``
            histograms, looked up here.
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
        if scope is None:
            self._stages = None
            self._now = _no_clock
        else:
            self._stages = tuple(
                scope.histogram(stage) for stage in ("normalize", "hash", "winnow")
            )
            self._now = scope.registry.clock.now
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

    def selections_many(self, datas: Sequence[bytes]) -> List[bytes]:
        """S1–S4 over Latin-1 buffers, one packed selection run each.

        Each run is ``(value, orig_start, orig_end, …)`` in
        normalised-position order as native unsigned 64-bit ints, the
        :attr:`~repro.fingerprint.fingerprint.Fingerprint.flat_selections`
        form, field-identical to the reference pipeline run on that
        buffer alone (property-tested in ``tests/test_fp_kernel.py``).
        The numpy path runs one pass over the concatenation of all the
        buffers; the pure path loops over them. Either way the stage
        histograms are recorded once per call.
        """
        if self._use_numpy:
            out, spent = self._selections_numpy(datas)
        else:
            out, spent = self._selections_pure(datas)
        stages = self._stages
        if stages is not None:
            for histogram, seconds in zip(stages, spent):
                histogram.observe(seconds)
        return out

    def _selections_pure(self, datas: Sequence[bytes]):
        n = self._config.ngram_size
        w = self._config.window_size
        last = n - 1
        hash_all = self._hasher.hash_all_bytes
        now = self._now
        spent = [0.0, 0.0, 0.0]
        out: List[bytes] = []
        for data in datas:
            started = now()
            norm, offsets = normalize_latin1(data)
            hashed = now()
            spent[0] += hashed - started
            if len(norm) < n:
                out.append(b"")
                continue
            values = hash_all(norm)
            winnowing = now()
            spent[1] += winnowing - hashed
            positions = skipscan_winnow(values, w)
            # Interleave by slice assignment: three C-level copies.
            flat: List[int] = [0] * (3 * len(positions))
            flat[0::3] = [values[p] for p in positions]
            flat[1::3] = [offsets[p] for p in positions]
            flat[2::3] = [offsets[p + last] + 1 for p in positions]
            out.append(array("Q", flat).tobytes())
            spent[2] += now() - winnowing
        return out, spent

    def _selections_numpy(self, datas: Sequence[bytes]):
        """One S1–S4 pass over the concatenation of *datas*.

        N-grams and windows that cross a buffer boundary are dropped
        (:func:`_winnow_numpy` winnows each buffer's hash range on its
        own), and spans are made relative to each buffer's start, so
        every buffer gets exactly the selections it would get alone.
        """
        n = self._config.ngram_size
        w = self._config.window_size
        now = self._now
        started = now()
        single = len(datas) == 1
        norm, offsets = _normalize_numpy(b"".join(datas))
        if not single:
            # Each buffer's end in normalised positions: the number of
            # kept bytes before its end in the concatenation.
            byte_starts = [0, *accumulate(map(len, datas))]
            norm_ends = offsets.searchsorted(byte_starts[1:])
        hashed = now()
        if len(norm) < n:
            return [b""] * len(datas), [hashed - started, 0.0, 0.0]
        values = self._hash_numpy(norm)
        winnowing = now()
        if single:
            positions = _winnow_numpy(values, w)
        else:
            # Buffer t owns the n-grams that start in it and end in it.
            bounds = norm_ends.tolist()
            ranges = [
                (start, max(start, end - (n - 1)))
                for start, end in zip([0, *bounds[:-1]], bounds)
            ]
            positions = _winnow_numpy(values, w, ranges)
        starts = offsets[positions]
        ends = offsets[positions + (n - 1)] + 1
        if not single:
            base = _np.array(byte_starts)[
                norm_ends.searchsorted(positions, side="right")
            ]
            starts -= base
            ends -= base
        flat = _np.empty(3 * positions.shape[0], dtype=_np.uint64)
        flat[0::3] = values[positions]
        flat[1::3] = starts
        flat[2::3] = ends
        # One copy out of numpy; each buffer's run is a slice of it, 24
        # bytes a selection.
        packed = flat.tobytes()
        if single:
            out = [packed]
        else:
            out = []
            cut = 0
            for end in (24 * positions.searchsorted(norm_ends)).tolist():
                out.append(packed[cut:end])
                cut = end
        return out, [hashed - started, winnowing - hashed, now() - winnowing]

    def _numpy_powers(self, length: int) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """``base**i`` and ``base**-i`` (mod 2**64) up to *length*,
        cached up to :data:`POWER_TABLE_CAP`."""
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
        if capacity > POWER_TABLE_CAP:
            cap = POWER_TABLE_CAP
            self._np_state = (fwd[:cap].copy(), inv[:cap].copy())
        else:
            self._np_state = (fwd, inv)
        return fwd[:length], inv[:length]

    def _hash_numpy(self, norm: bytes) -> "_np.ndarray":
        """Every n-gram hash of *norm*, vectorised.

        With ``q[i] = d[i] * base**-i`` and ``c`` its cumulative sum
        (everything mod 2**64 via uint64 wraparound), the window hash is
        ``(c[i+n-1] - c[i-1]) * base**(i+n-1)``; masking to
        ``hash_bits`` afterwards is exact because 2**hash_bits divides
        2**64. Every step after the first two runs in place: a batched
        pass hashes a whole request's text at once.
        """
        n = self._config.ngram_size
        c = _np.frombuffer(norm, dtype=_np.uint8).astype(_np.uint64)
        length = c.shape[0]
        fwd, inv = self._numpy_powers(length)
        c *= inv
        c.cumsum(out=c)
        windowed = c[n - 1 :].copy()
        windowed[1:] -= c[: length - n]
        windowed *= fwd[n - 1 :]
        windowed &= _np.uint64(self._hasher.mask)
        return windowed
