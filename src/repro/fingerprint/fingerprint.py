"""Fingerprint values and the end-to-end fingerprinter (S1–S4).

A :class:`Fingerprint` is the set of winnowed hashes of one text segment
plus, for each hash, the original-text spans it was selected from. The
hash *set* drives the disclosure metrics (paper §4.2); the spans drive
passage attribution ("which text segment passages caused information
disclosure", §4.1). :func:`fingerprint_set_digest` names a sequence of
hash sets in 16 bytes; the decision cache keys verdicts on it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from hashlib import blake2b
from struct import pack
from typing import Collection, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.fingerprint.config import FingerprintConfig
from repro.fingerprint.kernel import IngestKernel
from repro.fingerprint.ngram import PositionedHash, ngram_hashes
from repro.fingerprint.normalize import normalize
from repro.fingerprint.rolling_hash import KarpRabin
from repro.fingerprint.winnowing import winnow
from repro.obs.trace import span


#: Closes each serialised hash set: nine bytes, which no run of 8-byte
#: values can end in by alignment, so set boundaries are unambiguous.
_SET_END = b"\xff" * 9


def fingerprint_set_digest(hash_sets: Sequence[Collection[int]]) -> bytes:
    """16-byte digest of an ordered sequence of fingerprint hash sets.

    Equality checks and storage touch 16 bytes instead of every hash
    value. Each set is serialised sorted (frozenset iteration order is
    not canonical) as little-endian 8-byte values, packed in one call,
    with an out-of-band separator, so ``[{a}, {b}]`` and ``[{a, b}]``
    digest differently. Collisions are 2^-128 territory — negligible
    against the model's own 32-bit fingerprint collisions.
    """
    digest = blake2b(digest_size=16)
    update = digest.update
    for hashes in hash_sets:
        update(pack(f"<{len(hashes)}Q", *sorted(hashes)))
        update(_SET_END)
    return digest.digest()


class FingerprintHash(NamedTuple):
    """One selected hash with its source span in the original text."""

    value: int
    orig_start: int
    orig_end: int


@dataclass(frozen=True)
class Fingerprint:
    """Immutable winnowing fingerprint of a text segment.

    Attributes:
        hashes: the set of selected hash values. Set semantics match the
            paper's disclosure definitions, which intersect fingerprints.
        flat_selections: every selected hash with its source span, in
            text order, as one flat run ``(value, start, end, …)`` of
            native unsigned 64-bit ints packed in ``bytes`` (the layout
            of a snapshot's ``selections`` section); read it through
            ``memoryview(flat_selections).cast("Q")``. A hash value may
            appear several times if the same n-gram content recurs in
            the segment. ``bytes`` costs 8 bytes a value and is never
            tracked by the cyclic collector, so a store of fingerprints
            adds no collector work per selection (DESIGN.md §10);
            :attr:`selections` is the per-selection view.
        config: the parameters the fingerprint was computed with.
            Fingerprints from different configs are not comparable.
    """

    hashes: FrozenSet[int]
    flat_selections: bytes = field(repr=False, default=b"")
    config: FingerprintConfig = field(default_factory=FingerprintConfig)
    #: :attr:`set_digest` once computed. Not an init field, so
    #: ``dataclasses.replace`` starts the copy without it.
    _set_digest: Optional[bytes] = field(
        init=False, compare=False, repr=False, default=None
    )

    @property
    def set_digest(self) -> bytes:
        """``fingerprint_set_digest([self.hashes])``, computed on first
        use and kept: the decision cache keys every verdict on it, and
        an unchanged paragraph presents the same object again."""
        digest = self._set_digest
        if digest is None:
            digest = fingerprint_set_digest((self.hashes,))
            object.__setattr__(self, "_set_digest", digest)
        return digest

    @property
    def selections(self) -> Tuple[FingerprintHash, ...]:
        """The selections as :class:`FingerprintHash` tuples, built on
        each access from :attr:`flat_selections`."""
        flat = iter(memoryview(self.flat_selections).cast("Q"))
        return tuple(map(FingerprintHash, flat, flat, flat))

    def __len__(self) -> int:
        return len(self.hashes)

    def __contains__(self, value: int) -> bool:
        return value in self.hashes

    def is_empty(self) -> bool:
        """True when the segment was too short to produce any hash.

        Empty fingerprints are the systematic false-negative class the
        paper reports for short paragraphs (§6.1).
        """
        return not self.hashes

    def intersection(self, other: "Fingerprint") -> FrozenSet[int]:
        """Hash values common to both fingerprints."""
        return self.hashes & other.hashes

    def containment_in(self, other: "Fingerprint") -> float:
        """|F(self) ∩ F(other)| / |F(self)| — Broder's containment.

        This is the raw (non-authoritative) disclosure of ``self``
        towards ``other``. Returns 0.0 for an empty fingerprint rather
        than dividing by zero: an unfingerprintable segment can never be
        reported as disclosed.
        """
        if not self.hashes:
            return 0.0
        return len(self.hashes & other.hashes) / len(self.hashes)

    def spans_for(self, values: FrozenSet[int]) -> List[Tuple[int, int]]:
        """Original-text spans whose hashes are in *values*.

        Used for attribution: given the hashes that matched another
        segment, return the character ranges of this segment that caused
        the match, merged where they overlap or touch.
        """
        flat = memoryview(self.flat_selections).cast("Q")
        raw = sorted(
            (start, end)
            for value, start, end in zip(flat[0::3], flat[1::3], flat[2::3])
            if value in values
        )
        merged: List[Tuple[int, int]] = []
        for start, end in raw:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged


class Fingerprinter:
    """Computes fingerprints; the one object services share per config.

    Example:
        >>> fp = Fingerprinter(FingerprintConfig(ngram_size=6, window_size=3))
        >>> f = fp.fingerprint("Hello World!")
        >>> f.is_empty()
        False
    """

    def __init__(
        self,
        config: FingerprintConfig | None = None,
        *,
        registry=None,
        scope=None,
        kernel_mode: str = "auto",
    ) -> None:
        """Args:
            config: fingerprint parameters; paper defaults when omitted.
            registry: optional :class:`~repro.obs.registry.MetricsRegistry`;
                per-stage ingest latency lands in its
                ``fingerprint.normalize`` / ``fingerprint.hash`` /
                ``fingerprint.winnow`` histograms.
            scope: optional :class:`~repro.obs.registry.MetricsScope` to
                use instead of *registry* — composition roots (the
                engine) pass an already-prefixed scope so a shared
                registry keeps namespaces apart. Wins over *registry*.
            kernel_mode: forwarded to :class:`IngestKernel` (``"auto"``,
                ``"pure"``, ``"numpy"``); benchmarks pin the path here.
        """
        self._config = config or FingerprintConfig()
        # One hasher per fingerprinter: KarpRabin construction involves a
        # modular pow() and a 256-entry table; rebuilding it per call
        # dominated short-segment fingerprinting.
        self._hasher = KarpRabin(
            ngram_size=self._config.ngram_size, hash_bits=self._config.hash_bits
        )
        if scope is None and registry is not None:
            scope = registry.scope("fingerprint.")
        self._scope = scope
        self._kernel = (
            IngestKernel(
                self._config, self._hasher, mode=kernel_mode, scope=scope
            )
            if self._config.use_kernel
            else None
        )

    @property
    def config(self) -> FingerprintConfig:
        return self._config

    @property
    def kernel(self) -> IngestKernel | None:
        """The fused ingest kernel, or None when disabled by config."""
        return self._kernel

    def fingerprint(self, text: str) -> Fingerprint:
        """Run S1–S4 on *text* and return its fingerprint: a batch of
        one through :meth:`fingerprint_many`."""
        return self.fingerprint_many((text,))[0]

    def fingerprint_many(self, texts: Sequence[str]) -> List[Fingerprint]:
        """Fingerprints of *texts*, in order, from one kernel pass.

        Byte-narrow texts (everything Latin-1 — the ASCII corpora, most
        European prose) go through the fused ingest kernel together: on
        the numpy path one S1–S4 pass covers all of them, which spreads
        the kernel's fixed cost per call over the batch. Text with
        wider code points takes :meth:`fingerprint_reference`. Every
        fingerprint is field-identical to ``fingerprint_reference`` of
        its text alone (property-tested), so callers never observe
        which path ran or what it was batched with.
        """
        kernel = self._kernel
        if kernel is None:
            return [self.fingerprint_reference(text) for text in texts]
        out: List[Fingerprint] = []
        narrow: List[int] = []
        datas: List[bytes] = []
        for text in texts:
            data = kernel.encode(text)
            if data is None:
                out.append(self.fingerprint_reference(text))
            else:
                narrow.append(len(out))
                out.append(None)  # type: ignore[arg-type]
                datas.append(data)
        if datas:
            config = self._config
            with span(
                "fingerprint", texts=len(datas), chars=sum(map(len, datas))
            ) as sp:
                selected = 0
                for i, flat in zip(narrow, kernel.selections_many(datas)):
                    hashes = frozenset(memoryview(flat).cast("Q")[0::3])
                    selected += len(hashes)
                    out[i] = Fingerprint(
                        hashes=hashes, flat_selections=flat, config=config
                    )
                sp.set(hashes=selected)
        return out

    def fingerprint_reference(self, text: str) -> Fingerprint:
        """The reference S1–S4 pipeline — the differential oracle.

        Handles the full Unicode range (including lower-expanding code
        points like U+0130). The ingest benchmark and the kernel's
        property suite measure and verify against this path; it must
        stay the straightforward composition of :func:`normalize`,
        :meth:`KarpRabin.hash_all_list` and :func:`winnow`.
        """
        config = self._config
        scope = self._scope
        with span("fingerprint", chars=len(text)) as sp:
            with span("normalize") as nsp:
                if scope is None:
                    normalized = normalize(text)
                else:
                    with scope.timer("normalize"):
                        normalized = normalize(text)
                nsp.set(kept=len(normalized.text))
            if len(normalized.text) < config.ngram_size:
                sp.set(hashes=0)
                return Fingerprint(hashes=frozenset(), config=config)
            if scope is None:
                values = self._hasher.hash_all_list(normalized.text)
                positions = winnow(values, config.window_size)
            else:
                with scope.timer("hash"):
                    values = self._hasher.hash_all_list(normalized.text)
                with scope.timer("winnow"):
                    positions = winnow(values, config.window_size)
            flat: List[int] = []
            for pos in positions:
                orig_start, orig_end = normalized.original_span(
                    pos, pos + config.ngram_size
                )
                flat += (values[pos], orig_start, orig_end)
            hashes = frozenset(values[pos] for pos in positions)
            sp.set(hashes=len(hashes))
            return Fingerprint(
                hashes=hashes,
                flat_selections=array("Q", flat).tobytes(),
                config=config,
            )

    def fingerprint_document(self, paragraphs: List[str]) -> Fingerprint:
        """Fingerprint of a whole document given its paragraphs.

        The document granularity (paper §4.1) hashes the document as one
        segment so that disclosure spread thinly across paragraphs is
        still detected. Paragraphs are joined with a separator that
        normalisation removes, so the document fingerprint is the
        fingerprint of the concatenated prose.
        """
        return self.fingerprint("\n\n".join(paragraphs))


def positioned_hashes_for(text: str, config: FingerprintConfig) -> List[PositionedHash]:
    """Expose the pre-winnowing hash stream (useful for ablations)."""
    return ngram_hashes(normalize(text), config)
