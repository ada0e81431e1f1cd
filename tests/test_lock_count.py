"""The tracker's reader–writer lock is the only lock the engines take.

Every engine call holds the tracker's lock — the read side for sweeps,
the write side for mutations — and the hash database takes no lock of
its own at any shard count (DESIGN.md §8). A fixed script over a model
with a :class:`~repro.plugin.lookup.PolicyLookup` therefore takes the
same number of acquisitions at one and at four shards, and the
registry holds no lock instruments besides the tracker's. Fingerprinting
reads no database state, so no entry point runs it under the lock.
"""

from __future__ import annotations

import threading

import pytest

from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.lookup import PolicyLookup
from repro.tdm import Label, PolicyStore, TextDisclosureModel

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT

WIKI = "https://wiki.example.com"
DOCS = "https://docs.example.com"


def run_script(n_shards: int) -> dict:
    """Observe, look up twice, batch, observe; return the registry."""
    policies = PolicyStore()
    policies.register_service(
        WIKI, privilege=Label.of("tw"), confidentiality=Label.of("tw")
    )
    policies.register_service(DOCS)
    model = TextDisclosureModel(policies, TINY_CONFIG, n_shards=n_shards)
    lookup = PolicyLookup(model)
    model.observe(
        WIKI, "wiki-1", [("wiki-1#p0", SECRET_TEXT), ("wiki-1#p1", OTHER_TEXT)]
    )
    upload = [("doc-1#p0", SECRET_TEXT), ("doc-1#p1", THIRD_TEXT)]
    lookup.lookup(DOCS, "doc-1", upload)
    lookup.lookup(DOCS, "doc-1", upload)
    lookup.lookup_batch(
        DOCS,
        [
            ("doc-2", [("doc-2#p0", OTHER_TEXT)]),
            ("doc-3", [("doc-3#p0", THIRD_TEXT)]),
        ],
    )
    model.observe(DOCS, "doc-4", [("doc-4#p0", THIRD_TEXT)])
    return model.registry.snapshot()


@pytest.mark.parametrize("n_shards", [1, 4])
def test_script_takes_only_the_tracker_lock(n_shards):
    snapshot = run_script(n_shards)
    assert snapshot["lock.read_acquisitions"] == 19
    assert snapshot["lock.write_acquisitions"] == 9
    others = [
        name for name in snapshot if "lock." in name and not name.startswith("lock.")
    ]
    assert others == []


def record_fingerprinting(model) -> list:
    """Wrap *model*'s fingerprinters; return the list each call appends
    ``(name, whether the calling thread held the tracker lock)`` to."""
    lock = model.tracker.lock
    calls: list = []

    def held() -> bool:
        me = threading.get_ident()
        return lock._writer == me or me in lock._readers

    for engine in (model.tracker.paragraphs, model.tracker.documents):
        fingerprinter = engine.fingerprinter
        for name in ("fingerprint_many", "fingerprint_reference"):
            method = getattr(fingerprinter, name)

            def wrapped(*args, _method=method, _name=name, **kwargs):
                calls.append((_name, held()))
                return _method(*args, **kwargs)

            setattr(fingerprinter, name, wrapped)
    return calls


@pytest.mark.parametrize("n_shards", [1, 4])
def test_fingerprinting_runs_outside_the_tracker_lock(n_shards):
    """Every entry point fingerprints before it takes the lock, single
    and multi-paragraph uploads alike (DESIGN.md §8)."""
    policies = PolicyStore()
    policies.register_service(
        WIKI, privilege=Label.of("tw"), confidentiality=Label.of("tw")
    )
    policies.register_service(DOCS)
    model = TextDisclosureModel(policies, TINY_CONFIG, n_shards=n_shards)
    lookup = PolicyLookup(model)
    calls = record_fingerprinting(model)
    texts = iter(f"{SECRET_TEXT} {OTHER_TEXT} variant {k}" for k in range(100))

    def doc(doc_id, n):
        return [(f"{doc_id}#p{j}", next(texts)) for j in range(n)]

    def commit():
        paragraphs = doc("m", 2)
        decision = model.check_upload(DOCS, "m", paragraphs)
        calls.clear()
        model.commit_upload(DOCS, "m", paragraphs, decision)

    steps = {
        "model.observe": lambda: model.observe(WIKI, "w", doc("w", 2)),
        "check_upload": lambda: model.check_upload(DOCS, "c", doc("c", 2)),
        "check_uploads": lambda: model.check_uploads(
            DOCS, [("u1", doc("u1", 1)), ("u2", doc("u2", 2))]
        ),
        "commit_upload": commit,
        "lookup": lambda: lookup.lookup(DOCS, "l", doc("l", 2)),
        "lookup single": lambda: lookup.lookup(DOCS, "s", doc("s", 1)),
        "lookup_batch": lambda: lookup.lookup_batch(
            DOCS, [("b1", doc("b1", 1)), ("b2", doc("b2", 2))]
        ),
    }
    for step, run in steps.items():
        calls.clear()
        run()
        assert calls, f"{step} fingerprinted nothing"
        assert not any(locked for _name, locked in calls), (step, calls)
