"""Imprecise data flow tracking: the information disclosure engine (§4).

Given a database of previously observed text segments and a new segment,
the engine answers the *information disclosure problem*: which original
sources does the new segment currently disclose significant information
from?

* :mod:`repro.disclosure.store` — DBhash (hash → observing segments with
  first-seen timestamps) and DBpar (segment → latest fingerprint).
* :mod:`repro.disclosure.metrics` — document/paragraph disclosure, both
  raw containment and the authoritative variant of §4.3.
* :mod:`repro.disclosure.engine` — Algorithm 1 and incremental updates.
* :mod:`repro.disclosure.attribution` — maps matched hashes back to the
  source/target character spans that caused a disclosure report.
* :mod:`repro.disclosure.sharding` — DBhash as N >= 1 hash-range shards
  with a scatter/gather sweep (DESIGN.md §11); every engine's store.
* :mod:`repro.disclosure.wal` — write-ahead logging, compaction, crash
  recovery, and standby log shipping (DESIGN.md §14).
"""

from repro.disclosure.attribution import AttributedMatch, attribute_disclosure
from repro.disclosure.engine import (
    DisclosureEngine,
    DisclosureReport,
    DisclosureTracker,
    SourceDisclosure,
)
from repro.disclosure.metrics import (
    authoritative_hashes,
    authoritative_disclosure,
    raw_disclosure,
)
from repro.disclosure.sharding import (
    ShardedHashDatabase,
    partition,
    shard_of,
)
from repro.disclosure.store import HashDatabase, SegmentDatabase, SegmentRecord
from repro.disclosure.wal import (
    DurableEngine,
    EngineJournal,
    LogShipper,
    WriteAheadLog,
)

__all__ = [
    "DurableEngine",
    "EngineJournal",
    "LogShipper",
    "WriteAheadLog",
    "AttributedMatch",
    "attribute_disclosure",
    "DisclosureEngine",
    "DisclosureReport",
    "DisclosureTracker",
    "SourceDisclosure",
    "authoritative_hashes",
    "authoritative_disclosure",
    "raw_disclosure",
    "HashDatabase",
    "SegmentDatabase",
    "SegmentRecord",
    "ShardedHashDatabase",
    "partition",
    "shard_of",
]
