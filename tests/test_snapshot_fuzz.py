"""Decoder robustness: damaged snapshot and model files fail loudly.

Hypothesis damages a valid format-4 engine snapshot and a valid model
file (plain and encrypted): it truncates them at any offset, flips any
byte, and rewrites any frame length or any first-seen run length. Every
case must raise :class:`~repro.errors.SnapshotCorrupt` or
:class:`~repro.errors.DisclosureError` naming the file. No other
exception type may escape — a length that points beyond the file is
refused before anything is read or allocated for it, so not even a
``MemoryError`` — and no damaged file may restore to an engine or a
model that differs from the saved one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disclosure import DisclosureEngine
from repro.disclosure.persistence import (
    decode_snapshot,
    encode_snapshot,
    load_engine,
    restore_engine,
    snapshot_engine,
)
from repro.errors import DisclosureError, SnapshotCorrupt
from repro.fingerprint.config import TINY_CONFIG
from repro.plugin.crypto import UploadCipher
from repro.tdm import Label, PolicyStore, TextDisclosureModel
from repro.tdm.state import encode_model, load_model, model_to_dict
from repro.util.clock import LogicalClock

from conftest import OTHER_TEXT, SECRET_TEXT, THIRD_TEXT, container_frames

CIPHER = UploadCipher("fuzz-key")
EXAMPLES = settings(max_examples=60, deadline=None)


def saved_engine() -> DisclosureEngine:
    """Overlapping segments and an edit, so there are shared hashes and
    segments with several first-seen runs."""
    engine = DisclosureEngine(TINY_CONFIG, LogicalClock())
    engine.observe("a", SECRET_TEXT, threshold=0.4, doc_id="docA")
    engine.observe("b", OTHER_TEXT)
    engine.observe("c", SECRET_TEXT)
    engine.observe("b", OTHER_TEXT + " " + THIRD_TEXT, doc_id="docB")
    return engine


def saved_model() -> TextDisclosureModel:
    policies = PolicyStore()
    policies.register_service(
        "https://wiki.example", privilege=Label.of("tw"),
        confidentiality=Label.of("tw"),
    )
    model = TextDisclosureModel(policies, TINY_CONFIG)
    model.observe("https://wiki.example", "docW", [
        ("docW#p0", SECRET_TEXT), ("docW#p1", OTHER_TEXT),
    ])
    return model


def engine_fields(engine) -> dict:
    hash_db = engine.hash_db
    return {
        "records": {record.segment_id: record for record in engine.segment_db},
        "owners": {h: hash_db.owners(h) for h in sorted(hash_db.hashes())},
        "oldest": {h: hash_db.oldest_owner(h) for h in hash_db.hashes()},
    }


@dataclass
class Saved:
    """One saved file kind: its bytes, plain and sealed, how to load a
    file of it, and the fields a load must reproduce."""

    plain: bytes
    sealed: bytes
    load: Callable
    fields: Callable
    expected: object
    #: Frame indexes of the run-length sections.
    run_frames: tuple


@pytest.fixture(scope="module")
def saved():
    engine, model = saved_engine(), saved_model()
    snapshot = snapshot_engine(engine)
    state = model_to_dict(model)
    return {
        "engine": Saved(
            encode_snapshot(snapshot), encode_snapshot(snapshot, CIPHER),
            load_engine, engine_fields, engine_fields(engine), (3,),
        ),
        "model": Saved(
            encode_model(state), encode_model(state, CIPHER),
            load_model, model_to_dict, state, (3, 6),
        ),
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_refused_or_identical(workdir, kind, saved, blob, encrypted=False):
    """Load damaged *blob*: it must be refused naming the file, or come
    back identical to what was saved."""
    path = workdir / f"{kind}.bin"
    path.write_bytes(bytes(blob))
    kwargs = {"cipher": CIPHER} if encrypted else {}
    try:
        restored = saved.load(path, **kwargs)
    except (SnapshotCorrupt, DisclosureError) as exc:
        assert str(path) in str(exc), exc
        return
    assert saved.fields(restored) == saved.expected


kinds = st.sampled_from(["engine", "model"])


class TestDamagedFiles:
    @EXAMPLES
    @given(kind=kinds, encrypted=st.booleans(), data=st.data())
    def test_truncated_at_any_offset(self, workdir, saved, kind, encrypted, data):
        file = saved[kind]
        blob = file.sealed if encrypted else file.plain
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        assert_refused_or_identical(workdir, kind, file, blob[:cut], encrypted)

    @EXAMPLES
    @given(kind=kinds, encrypted=st.booleans(), data=st.data())
    def test_any_byte_flipped(self, workdir, saved, kind, encrypted, data):
        file = saved[kind]
        blob = bytearray(file.sealed if encrypted else file.plain)
        index = data.draw(st.integers(0, len(blob) - 1), label="index")
        blob[index] ^= data.draw(st.integers(1, 255), label="mask")
        assert_refused_or_identical(workdir, kind, file, blob, encrypted)

    @EXAMPLES
    @given(kind=kinds, data=st.data())
    def test_any_frame_length_rewritten(self, workdir, saved, kind, data):
        file = saved[kind]
        blob = bytearray(file.plain)
        frames = container_frames(file.plain)
        at, _payload, length = data.draw(st.sampled_from(frames), label="frame")
        new = data.draw(
            st.integers(0, 2**64 - 1).filter(lambda n: n != length),
            label="length",
        )
        blob[at:at + 8] = new.to_bytes(8, "little")
        assert_refused_or_identical(workdir, kind, file, blob)

    @EXAMPLES
    @given(kind=kinds, data=st.data())
    def test_any_run_length_rewritten(self, workdir, saved, kind, data):
        file = saved[kind]
        blob = bytearray(file.plain)
        frame = data.draw(st.sampled_from(file.run_frames), label="section")
        _at, payload, length = container_frames(file.plain)[frame]
        slot = payload + 8 * data.draw(st.integers(0, length // 8 - 1), label="run")
        old = int.from_bytes(blob[slot:slot + 8], "little")
        new = data.draw(
            st.integers(0, 2**64 - 1).filter(lambda n: n != old), label="length"
        )
        blob[slot:slot + 8] = new.to_bytes(8, "little")
        assert_refused_or_identical(workdir, kind, file, blob)


class TestRunLengthsBehindTheChecksum:
    """With the checksum recomputed, a run length that changes its
    segment's total still fails restore: the runs must cover exactly
    the segment's distinct selection values."""

    @EXAMPLES
    @given(data=st.data())
    def test_a_changed_total_is_refused(self, data):
        snapshot = snapshot_engine(saved_engine())
        lengths = snapshot["run_lengths"]
        slot = data.draw(st.integers(0, len(lengths) - 1), label="run")
        lengths[slot] = data.draw(
            st.integers(0, 2**64 - 1).filter(lambda n: n != lengths[slot]),
            label="length",
        )
        with pytest.raises(SnapshotCorrupt, match="runs cover"):
            restore_engine(snapshot)

    def test_frame_checksums_guard_everything_else(self, saved):
        """The property above needs its recomputed checksum: the same
        rewrite without it fails the frame check first."""
        blob = bytearray(saved["engine"].plain)
        at, payload, length = container_frames(bytes(blob))[3]
        blob[payload] ^= 0x01
        checked = bytearray(blob)
        crc = zlib.crc32(bytes(blob[payload:payload + length]))
        checked[at + 8:at + 12] = crc.to_bytes(4, "little")
        with pytest.raises(SnapshotCorrupt, match="checksum"):
            decode_snapshot(bytes(blob))
        with pytest.raises(SnapshotCorrupt, match="runs cover"):
            restore_engine(decode_snapshot(bytes(checked)))
