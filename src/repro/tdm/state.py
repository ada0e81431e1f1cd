"""Whole-model persistence: policies, labels, audit, and databases.

The engine-level snapshots in :mod:`repro.disclosure.persistence` cover
the fingerprint databases; a deployment also needs the Text Disclosure
Model's state to survive a browser restart — segment labels (including
suppressed tags, which are the audit anchor), segment locations, the
audit log, and the policy store. This module snapshots and restores the
complete :class:`~repro.tdm.model.TextDisclosureModel`.

Model files use the engine snapshots' container (format 4, see
:mod:`repro.disclosure.persistence`): the JSON header holds the model
fields and both engines' snapshot headers, and the sections are the
paragraph engine's followed by the document engine's. They get the
engine snapshots' guarantees: writes are atomic (a crash mid-write
leaves the previous file intact), and a torn, corrupt or wrong-key file
raises :class:`~repro.errors.SnapshotCorrupt` naming it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.disclosure.persistence import (
    SECTIONS,
    _check_version,
    _max_timestamp,
    atomic_write_bytes,
    decode_container,
    encode_container,
    is_sealed,
    join_sections,
    restore_into,
    snapshot_engine,
    split_sections,
)
from repro.errors import DisclosureError, PolicyError, SnapshotCorrupt
from repro.fingerprint import FingerprintConfig
from repro.plugin.crypto import UploadCipher
from repro.tdm.audit import SuppressionEvent
from repro.tdm.labels import SegmentLabel
from repro.tdm.model import TextDisclosureModel
from repro.tdm.serialization import policy_from_dict, policy_to_dict
from repro.tdm.tags import Tag
from repro.util.clock import LogicalClock
from repro.util.faults import FaultInjector

#: Model file version; version 1 was one JSON document.
MODEL_STATE_VERSION = 2

#: The engine snapshots a model file holds, in section order.
ENGINES = ("paragraph_engine", "document_engine")


def _check_model_version(data: dict, where: str = "") -> None:
    if data.get("version") != MODEL_STATE_VERSION:
        raise PolicyError(
            f"unsupported model state version {data.get('version')!r}{where} "
            f"(this build reads version {MODEL_STATE_VERSION})"
        )


def _label_to_dict(label: SegmentLabel) -> dict:
    return {
        "explicit": sorted(t.name for t in label.explicit),
        "implicit": sorted(t.name for t in label.implicit),
        "suppressed": sorted(t.name for t in label.suppressed),
    }


def _label_from_dict(data: dict) -> SegmentLabel:
    return SegmentLabel.of(
        explicit=data.get("explicit", ()),
        implicit=data.get("implicit", ()),
        suppressed=data.get("suppressed", ()),
    )


def model_to_dict(model: TextDisclosureModel) -> dict:
    """Serialise the complete model state."""
    return {
        "version": MODEL_STATE_VERSION,
        "policy": policy_to_dict(model.policies),
        "labels": {
            segment_id: _label_to_dict(label)
            for segment_id, label in sorted(model._labels.items())
        },
        "locations": {
            segment_id: sorted(services)
            for segment_id, services in sorted(model._locations.items())
        },
        "audit": [
            {
                "user": event.user,
                "tag": event.tag.name,
                "segment_id": event.segment_id,
                "justification": event.justification,
                "timestamp": event.timestamp,
                "target_service": event.target_service,
            }
            for event in model.audit
        ],
        "paragraph_engine": snapshot_engine(model.tracker.paragraphs),
        "document_engine": snapshot_engine(model.tracker.documents),
        "thresholds": {
            "paragraph": model.tracker.paragraph_threshold,
            "document": model.tracker.document_threshold,
        },
    }


def model_from_dict(data: dict) -> TextDisclosureModel:
    """Rebuild a model; disclosure decisions and audits are preserved.

    The model is built with the snapshot's fingerprint config and
    ``authoritative`` flag, and each engine snapshot is restored into
    the model's own engine, so both keep the tracker's lock, registry
    and clock. That one clock resumes past every persisted timestamp,
    audit events included: a post-restart observation cannot steal
    ownership, nor a post-restart audit event sort before an old one.
    A malformed state raises :class:`~repro.errors.SnapshotCorrupt`.
    """
    _check_model_version(data)
    try:
        engines = tuple(data[key] for key in ENGINES)
        for engine_data in engines:
            _check_version(engine_data)
        audit = [
            SuppressionEvent(
                user=entry["user"],
                tag=Tag(entry["tag"]),
                segment_id=entry["segment_id"],
                justification=entry["justification"],
                timestamp=entry["timestamp"],
                target_service=entry.get("target_service"),
            )
            for entry in data.get("audit", [])
        ]
        latest = max(
            [_max_timestamp(engine_data) for engine_data in engines]
            + [event.timestamp for event in audit]
        )
        model = TextDisclosureModel(
            policy_from_dict(data["policy"]),
            FingerprintConfig(**engines[0]["config"]),
            LogicalClock(start=int(latest) + 1),
            paragraph_threshold=data["thresholds"]["paragraph"],
            document_threshold=data["thresholds"]["document"],
            authoritative=engines[0].get("authoritative", True),
        )
        restore_into(model.tracker.paragraphs, engines[0])
        restore_into(model.tracker.documents, engines[1])
        for segment_id, label_data in data.get("labels", {}).items():
            model.set_label(segment_id, _label_from_dict(label_data))
        for segment_id, services in data.get("locations", {}).items():
            model._locations[segment_id] = set(services)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise SnapshotCorrupt(
            f"model state is malformed ({type(exc).__name__}: {exc})"
        ) from exc
    for event in audit:
        model.audit.record(event)
    return model


def encode_model(data: dict, cipher: Optional[UploadCipher] = None) -> bytes:
    """The file bytes of a :func:`model_to_dict` dict."""
    header = dict(data)
    sections = []
    for key in ENGINES:
        header[key], engine_sections = split_sections(data[key])
        sections += engine_sections
    return encode_container(header, sections, cipher)


def decode_model(
    blob: bytes, cipher: Optional[UploadCipher] = None, *, source: str = "<bytes>"
) -> dict:
    """Inverse of :func:`encode_model`; *source* names the file in errors.

    Another model state version, the JSON files of version 1 included,
    raises :class:`~repro.errors.PolicyError`; damage raises
    :class:`~repro.errors.SnapshotCorrupt`.
    """
    what = f"model state {source}"
    header, payloads = decode_container(blob, cipher, what)
    _check_model_version(header, f" in {source}")
    per_engine = len(SECTIONS)
    if len(payloads) != per_engine * len(ENGINES):
        raise SnapshotCorrupt(
            f"{what} holds {len(payloads)} sections; a model file has "
            f"{per_engine * len(ENGINES)}"
        )
    data = dict(header)
    try:
        for i, key in enumerate(ENGINES):
            data[key] = join_sections(
                header[key], payloads[i * per_engine:(i + 1) * per_engine], what
            )
    except (LookupError, TypeError, ValueError) as exc:
        raise SnapshotCorrupt(
            f"{what} is malformed ({type(exc).__name__}: {exc})"
        ) from exc
    return data


def save_model(
    model: TextDisclosureModel,
    path,
    *,
    cipher: Optional[UploadCipher] = None,
    faults: Optional[FaultInjector] = None,
) -> None:
    """Atomically write the model state to *path*, optionally encrypted
    at rest; *faults* injects deterministic crash points (see
    :func:`~repro.disclosure.persistence.atomic_write_bytes`)."""
    atomic_write_bytes(
        Path(path), encode_model(model_to_dict(model), cipher), faults=faults
    )


def load_model(path, *, cipher: Optional[UploadCipher] = None) -> TextDisclosureModel:
    """Read a model state file written by :func:`save_model`.

    A torn, corrupt or wrong-key file raises
    :class:`~repro.errors.SnapshotCorrupt` naming *path*, and an
    unreadable one (missing, a directory, no permission) a
    :class:`~repro.errors.DisclosureError`, as engine snapshots do; an
    encrypted file without a cipher, or another state version, raises
    :class:`~repro.errors.PolicyError`.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DisclosureError(f"cannot read model state {path}: {exc}") from exc
    if cipher is None and is_sealed(blob):
        raise PolicyError(f"model state {path} is encrypted; a cipher is required")
    data = decode_model(blob, cipher, source=str(path))
    try:
        return model_from_dict(data)
    except SnapshotCorrupt as exc:
        raise SnapshotCorrupt(f"model state {path}: {exc}") from exc
