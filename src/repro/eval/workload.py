"""Fleet workload generation.

Production browser traffic is nothing like a few uniform clients:
document popularity is heavily skewed (a few hot documents absorb most
edits), arrivals are bursty (flash crowds), and the mix spans service
shapes — AJAX editors syncing per keystroke, form-based wiki saves,
forum replies. This module generates that workload **entirely up
front** as a deterministic function of one seed:

* :class:`ZipfSampler` — rank-frequency skew for document/page/thread
  popularity (``P(rank k) ∝ 1/k^s``).
* A flash-crowd arrival process — session arrivals in *virtual time*
  with exponential inter-arrivals whose rate is multiplied inside
  seeded burst windows (a piecewise-rate Poisson-like process).
* Per-session scripts mixing the three service shapes, with occasional
  secret creation, partial pastes, keystroke churn
  (:func:`repro.eval.timing.keystroke_states` drives the typing path in
  the executor), word-level edit fix-ups
  (:func:`repro.eval.timing.edit_toward`), and declassification. All
  text comes from :class:`repro.datasets.synthesis.TextSynthesizer` /
  :class:`~repro.datasets.synthesis.EditModel` streams owned by the
  generator, so the full schedule — every op, every byte of text,
  every timestamp — is reproducible from the seed alone.

Generating the schedule up front makes the workload a pure function of
the seed, with every op stamped with its virtual time. A harness may owe
each op at that time (an open loop, where queueing shows as lateness)
or run the ops back to back: the audit executor
(:mod:`repro.eval.fleet`) and the benchmark's fleet workloads
(``bench/``) both run them back to back.

Determinism note (relied on by the fleet audit): ops whose effects are
observed under a *confidential* label — secret-page creation, wiki form
posts, declassifications — are marked ``exclusive``. The executor runs
them as barriers, so confidential hash ownership is a pure function of
the schedule; everything else may interleave freely because untrusted
services carry empty confidentiality labels and cannot change any
verdict.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.synthesis import EditModel, TextSynthesizer

#: Op kinds a schedule may contain (the executor dispatches on these).
OP_KINDS = (
    "create_secret",
    "wiki_post",
    "forum_post",
    "docs_paste",
    "docs_type",
    "docs_edit",
    "declassify",
)

#: Kinds whose effects are observed under a confidential label; the
#: executor serialises these as barriers (see module docstring).
EXCLUSIVE_KINDS = frozenset({"create_secret", "wiki_post", "declassify"})


class ZipfSampler:
    """Seeded sampler over ranks ``0..n-1`` with ``P(k) ∝ 1/(k+1)^s``.

    Cumulative weights are precomputed once; each draw is one uniform
    plus a binary search, so sampling a million-op schedule stays cheap.
    """

    def __init__(self, n: int, exponent: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        self._rng = rng
        self._cumulative: List[float] = []
        total = 0.0
        for k in range(n):
            total += (k + 1) ** -exponent
            self._cumulative.append(total)
        self._total = total

    def probability(self, rank: int) -> float:
        """Exact probability of drawing *rank* (0-based)."""
        if not 0 <= rank < self.n:
            raise IndexError(rank)
        return ((rank + 1) ** -self.exponent) / self._total

    def sample(self) -> int:
        """Draw one 0-based rank."""
        r = self._rng.random() * self._total
        return min(bisect_left(self._cumulative, r), self.n - 1)


class BurstWindows:
    """Seeded flash-crowd windows over virtual time.

    Window ``k`` lives inside the interval ``[k·every, (k+1)·every)``:
    it starts at ``k·every + jitter_k`` (jitter < every/3) and lasts
    ``duration`` (≤ every/2), so windows never straddle interval
    boundaries and membership of any *t* needs only window
    ``floor(t/every)``. Jitters are drawn lazily in index order from a
    dedicated rng, so membership queries in any order see the same
    windows.
    """

    def __init__(
        self, every: float, duration: float, rng: random.Random
    ) -> None:
        if every <= 0:
            raise ValueError("burst_every must be positive")
        if not 0 <= duration <= every / 2:
            raise ValueError("burst_duration must be in [0, burst_every/2]")
        self._every = every
        self._duration = duration
        self._rng = rng
        self._starts: List[float] = []

    def _start_of(self, k: int) -> float:
        while len(self._starts) <= k:
            i = len(self._starts)
            self._starts.append(
                i * self._every + self._rng.uniform(0, self._every / 3)
            )
        return self._starts[k]

    def in_burst(self, t: float) -> bool:
        if t < 0 or self._duration == 0:
            return False
        start = self._start_of(int(t // self._every))
        return start <= t < start + self._duration


@dataclass(frozen=True)
class FleetConfig:
    """Everything the schedule is a function of (besides the seed)."""

    sessions: int = 1000
    seed: object = 2016
    #: Baseline session arrival rate (sessions per virtual second).
    arrival_rate: float = 40.0
    #: Flash-crowd shape: window cadence/length and rate multiplier.
    burst_every: float = 8.0
    burst_duration: float = 2.0
    burst_factor: float = 4.0
    #: Mean virtual-time gap between consecutive ops of one session.
    think_mean: float = 0.4
    #: Popularity skew shared by the document/page/thread samplers.
    zipf_exponent: float = 1.1
    #: Pool sizes (documents are pre-created by the executor).
    doc_pool: int = 60
    page_pool: int = 40
    thread_pool: int = 30
    #: Wiki sessions forced to create a secret before anyone can paste.
    seed_secrets: int = 6
    #: Session-shape mix (docs weight is the remainder).
    wiki_weight: float = 0.25
    forum_weight: float = 0.25
    #: Probability a non-forced wiki session creates a new secret page.
    secret_page_prob: float = 0.3
    #: Probability a blocked full-secret paste is later declassified.
    declassify_prob: float = 0.5
    #: Keystroke-churn cap (typing is ~2 decisions per character).
    max_type_chars: int = 24
    #: Session-mix churn knob in ``[0, 1]``: scales the wiki/forum
    #: weights down (so most sessions become Docs sessions), lengthens
    #: Docs scripts, and converts part of the public-paste tail into
    #: per-keystroke typing — the workload shape that stresses the
    #: delta-aware check pipeline (DESIGN.md §13). ``churn=0`` draws
    #: the exact rng sequence of configs that predate the knob, so
    #: existing schedule digests are unchanged.
    churn: float = 0.0

    def __post_init__(self) -> None:
        if self.sessions <= 0:
            raise ValueError("sessions must be positive")
        if self.wiki_weight + self.forum_weight >= 1.0:
            raise ValueError("wiki_weight + forum_weight must be < 1")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must be in [0, 1]")


@dataclass(frozen=True)
class FleetOp:
    """One scheduled operation of one session."""

    index: int  # position in global virtual-time order
    session: int
    seq: int  # position within the session
    at: float  # scheduled start, virtual seconds from run start
    kind: str
    target: str  # page / thread / doc the op acts on
    par_id: str = ""  # pre-assigned docs paragraph id ("" for non-docs)
    text: str = ""
    extra: str = ""  # kind-specific: docs_edit target state, etc.
    exclusive: bool = False


@dataclass(frozen=True)
class Schedule:
    """A fully materialised fleet workload."""

    config: FleetConfig
    ops: Tuple[FleetOp, ...]
    #: Secret texts in creation order (the audit's ground truth).
    secrets: Tuple[str, ...]
    horizon: float  # virtual time of the last op
    digest: str  # sha256 over every field of every op

    def kind_counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in OP_KINDS}
        for op in self.ops:
            counts[op.kind] += 1
        return counts

    @property
    def sessions(self) -> int:
        return self.config.sessions


def _digest_ops(ops: Sequence[FleetOp]) -> str:
    payload = json.dumps(
        [
            (
                op.index,
                op.session,
                op.seq,
                round(op.at, 9),
                op.kind,
                op.target,
                op.par_id,
                op.text,
                op.extra,
                op.exclusive,
            )
            for op in ops
        ],
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _ScheduleBuilder:
    """Accumulates ops during generation, then freezes the schedule."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.ops: List[FleetOp] = []
        self.secrets: List[str] = []
        self.secret_times: List[float] = []

    def add(
        self,
        session: int,
        seq: int,
        at: float,
        kind: str,
        target: str,
        *,
        par_id: str = "",
        text: str = "",
        extra: str = "",
    ) -> None:
        self.ops.append(
            FleetOp(
                index=-1,
                session=session,
                seq=seq,
                at=at,
                kind=kind,
                target=target,
                par_id=par_id,
                text=text,
                extra=extra,
                exclusive=kind in EXCLUSIVE_KINDS,
            )
        )

    def secrets_before(self, at: float) -> List[int]:
        """Indices of secrets created strictly before *at*, oldest first.

        Sessions are generated in arrival order but their ops carry
        think-time offsets, so creation times interleave across
        sessions — ``secret_times`` is not sorted and the membership
        test must be explicit. Oldest-first ordering makes the Zipf
        draw favour long-lived secrets, like real hot documents.
        """
        return sorted(
            (i for i, t in enumerate(self.secret_times) if t < at - 1e-9),
            key=lambda i: (self.secret_times[i], i),
        )

    def freeze(self) -> Schedule:
        ordered = sorted(self.ops, key=lambda op: (op.at, op.session, op.seq))
        ops = tuple(
            FleetOp(
                index=i,
                session=op.session,
                seq=op.seq,
                at=op.at,
                kind=op.kind,
                target=op.target,
                par_id=op.par_id,
                text=op.text,
                extra=op.extra,
                exclusive=op.exclusive,
            )
            for i, op in enumerate(ordered)
        )
        horizon = ops[-1].at if ops else 0.0
        return Schedule(
            config=self.config,
            ops=ops,
            secrets=tuple(self.secrets),
            horizon=horizon,
            digest=_digest_ops(ops),
        )


def arrival_times(config: FleetConfig) -> List[float]:
    """Session arrival times under the flash-crowd process."""
    rng = random.Random(f"fleet:{config.seed}:arrivals")
    windows = BurstWindows(
        config.burst_every,
        config.burst_duration,
        random.Random(f"fleet:{config.seed}:bursts"),
    )
    arrivals: List[float] = []
    t = 0.0
    for _ in range(config.sessions):
        rate = config.arrival_rate * (
            config.burst_factor if windows.in_burst(t) else 1.0
        )
        t += rng.expovariate(rate)
        arrivals.append(t)
    return arrivals


def generate_schedule(config: FleetConfig) -> Schedule:
    """Materialise the whole fleet workload from ``config.seed``.

    Sessions are generated in arrival order, so "which secrets exist
    yet" is well-defined while scripting each session: a secret may only
    be referenced by ops scheduled after its (exclusive) creation op.
    """
    seed = config.seed
    builder = _ScheduleBuilder(config)

    synth_secret = TextSynthesizer("mysql", random.Random(f"fleet:{seed}:secret-text"))
    synth_public = TextSynthesizer("fiction", random.Random(f"fleet:{seed}:public-text"))
    edits = EditModel(synth_public, random.Random(f"fleet:{seed}:edits"))
    zipf_docs = ZipfSampler(
        config.doc_pool, config.zipf_exponent, random.Random(f"fleet:{seed}:zipf-docs")
    )
    zipf_pages = ZipfSampler(
        config.page_pool, config.zipf_exponent, random.Random(f"fleet:{seed}:zipf-pages")
    )
    zipf_threads = ZipfSampler(
        config.thread_pool,
        config.zipf_exponent,
        random.Random(f"fleet:{seed}:zipf-threads"),
    )
    zipf_secrets = ZipfSampler(
        256, config.zipf_exponent, random.Random(f"fleet:{seed}:zipf-secrets")
    )

    # Churn shifts the session mix toward keystroke-heavy Docs
    # sessions without spending any extra rng draws at churn == 0.
    wiki_weight = config.wiki_weight * (1.0 - config.churn)
    forum_weight = config.forum_weight * (1.0 - config.churn)
    extra_docs_ops = int(round(4 * config.churn))
    type_tail = 1.0 - 0.4 * config.churn

    for session, arrival in enumerate(arrival_times(config)):
        srng = random.Random(f"fleet:{seed}:session:{session}")
        forced_secret = session < config.seed_secrets
        shape_draw = srng.random()
        if forced_secret or shape_draw < wiki_weight:
            shape = "wiki"
        elif shape_draw < wiki_weight + forum_weight:
            shape = "forum"
        else:
            shape = "docs"

        t = arrival
        seq = 0

        def tick() -> float:
            nonlocal t
            t += srng.expovariate(1.0 / config.think_mean)
            return t

        if shape == "wiki":
            n_ops = srng.randint(1, 2)
            for _ in range(n_ops):
                at = tick()
                make_secret = forced_secret and seq == 0
                if not make_secret:
                    make_secret = srng.random() < config.secret_page_prob
                if make_secret:
                    secret = synth_secret.paragraph(4, 6)
                    name = f"Secret-{len(builder.secrets)}"
                    builder.secrets.append(secret)
                    builder.secret_times.append(at)
                    builder.add(session, seq, at, "create_secret", name, text=secret)
                else:
                    page = f"Public-{zipf_pages.sample()}"
                    builder.add(
                        session,
                        seq,
                        at,
                        "wiki_post",
                        page,
                        text=synth_public.paragraph(3, 5),
                    )
                seq += 1
        elif shape == "forum":
            topic = f"topic-{zipf_threads.sample()}"
            for _ in range(srng.randint(1, 3)):
                at = tick()
                pool = builder.secrets_before(at)
                if pool and srng.random() < 0.1:
                    # A careless quote of an internal secret: blocked by
                    # ENFORCE, so it never reaches the stored thread.
                    rank = pool[zipf_secrets.sample() % len(pool)]
                    text = builder.secrets[rank][:80]
                else:
                    text = synth_public.sentence(10, 18)
                builder.add(session, seq, at, "forum_post", topic, text=text)
                seq += 1
        else:
            doc = f"doc-{zipf_docs.sample()}"
            for _ in range(srng.randint(2, 5) + extra_docs_ops):
                at = tick()
                par_id = f"fs{session}o{seq}"
                pool = builder.secrets_before(at)
                draw = srng.random()
                if draw < 0.12 and pool:
                    # Keystroke churn over a secret prefix: everything
                    # past the fingerprinting floor is refused sync.
                    rank = pool[zipf_secrets.sample() % len(pool)]
                    secret = builder.secrets[rank]
                    cut = srng.randrange(12, config.max_type_chars + 1)
                    builder.add(
                        session,
                        seq,
                        at,
                        "docs_type",
                        doc,
                        par_id=par_id,
                        text=secret[:cut],
                    )
                elif draw < 0.27 and pool:
                    # Partial paste: a mid-sized cut of a secret.
                    rank = pool[zipf_secrets.sample() % len(pool)]
                    secret = builder.secrets[rank]
                    hi = max(41, min(len(secret), 120))
                    cut = srng.randrange(40, hi)
                    builder.add(
                        session,
                        seq,
                        at,
                        "docs_paste",
                        doc,
                        par_id=par_id,
                        text=secret[:cut],
                    )
                elif draw < 0.45 and pool:
                    rank = pool[zipf_secrets.sample() % len(pool)]
                    secret = builder.secrets[rank]
                    if srng.random() < 0.3:
                        # Lightly edited copy; still well over threshold.
                        text = edits.substitute_words(secret, 0.05)
                        builder.add(
                            session, seq, at, "docs_paste", doc,
                            par_id=par_id, text=text,
                        )
                    else:
                        # Verbatim secret paste: deterministically
                        # blocked, sometimes followed by the user
                        # declassifying and re-sending the same text.
                        builder.add(
                            session, seq, at, "docs_paste", doc,
                            par_id=par_id, text=secret,
                        )
                        if srng.random() < config.declassify_prob:
                            seq += 1
                            builder.add(
                                session,
                                seq,
                                tick(),
                                "declassify",
                                doc,
                                par_id=par_id,
                                text=secret,
                            )
                elif draw < 0.6:
                    # Word-level fix-up toward an original paragraph
                    # (workflow W3): one decision pair per word changed.
                    original = synth_public.paragraph(3, 4)
                    modified = edits.substitute_words(original, 0.15)
                    builder.add(
                        session,
                        seq,
                        at,
                        "docs_edit",
                        doc,
                        par_id=par_id,
                        text=modified,
                        extra=original,
                    )
                elif draw >= type_tail:
                    # Churn-only branch (unreachable at churn == 0,
                    # where type_tail == 1.0 > any random() draw):
                    # keystroke typing of public text — per-character
                    # decisions that stress the delta pipeline without
                    # touching any secret.
                    builder.add(
                        session,
                        seq,
                        at,
                        "docs_type",
                        doc,
                        par_id=par_id,
                        text=synth_public.sentence(10, 18)[
                            : config.max_type_chars
                        ],
                    )
                else:
                    builder.add(
                        session,
                        seq,
                        at,
                        "docs_paste",
                        doc,
                        par_id=par_id,
                        text=synth_public.paragraph(3, 5),
                    )
                seq += 1

    return builder.freeze()
