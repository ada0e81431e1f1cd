"""The tracker's reader–writer lock is the only lock the engines take.

Every engine call holds the tracker's lock — the read side for sweeps,
the write side for mutations — and the hash database takes no lock of
its own at any shard count (DESIGN.md §8). A fixed script over a model
with a :class:`~repro.plugin.lookup.PolicyLookup` therefore takes the
same number of acquisitions at one and at four shards, and the
registry holds no lock instruments besides the tracker's.
"""

from __future__ import annotations

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
