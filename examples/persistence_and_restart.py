#!/usr/bin/env python3
"""State that survives a browser restart, plus the Notes service.

Demonstrates the §4.4 operational recommendations: model state
(fingerprint databases, labels, audit log) is saved encrypted at rest,
the "browser" restarts, and enforcement continues seamlessly — here
against the Evernote-style Notes service, which the plug-in covers via
a one-line editor adapter.

Run with:  python examples/persistence_and_restart.py
"""

import tempfile
from pathlib import Path

from repro import (
    Browser,
    BrowserFlowPlugin,
    Label,
    Network,
    PolicyStore,
    TextDisclosureModel,
    UploadCipher,
    WikiService,
)
from repro.services.notes import NotesService
from repro.tdm.state import load_model, save_model

ROADMAP = (
    "The platform roadmap commits to shipping the realtime collaboration "
    "backend in the first quarter and deprecating the legacy sync service "
    "by the end of the year, pending the partner migration."
)


def build_world(model):
    """A fresh browser/services world attached to the given model."""
    network = Network()
    wiki = WikiService()
    notes = NotesService()
    network.register(wiki)
    network.register(notes)
    browser = Browser(network)
    plugin = BrowserFlowPlugin(model)
    plugin.attach(browser)
    return browser, wiki, notes, plugin


def main() -> None:
    state_path = Path(tempfile.mkdtemp()) / "browserflow-state.enc"
    disk_cipher = UploadCipher("device-keystore-secret")

    # ------------------------------------------------------------------
    # Session 1: the roadmap is observed in the wiki, then we shut down.
    # ------------------------------------------------------------------
    policies = PolicyStore()
    policies.register_service(
        "https://xyz.com", privilege=Label.of("tw"),
        confidentiality=Label.of("tw"), display_name="Internal Wiki",
    )
    policies.register_service("https://notes.example.com", display_name="Notes")
    model = TextDisclosureModel(policies)

    browser, wiki, notes, plugin = build_world(model)
    wiki.save_page("Roadmap", ROADMAP)
    browser.open(wiki.page_url("Roadmap"))  # plug-in labels the text {tw}

    save_model(model, state_path, cipher=disk_cipher)
    print(f"session 1: observed roadmap, saved state to {state_path.name}")
    print(f"state file is ciphertext: {b'roadmap' not in state_path.read_bytes()}")

    # ------------------------------------------------------------------
    # Session 2: new process, state reloaded, enforcement continues.
    # ------------------------------------------------------------------
    restored = load_model(state_path, cipher=disk_cipher)
    browser, wiki, notes, plugin = build_world(restored)

    print("\nsession 2 (after restart):")
    view = notes.open_notebook(browser.new_tab(), "personal")
    note = view.new_note()
    delivered = view.write(note, ROADMAP)
    print(f"paste roadmap into personal notes: delivered={delivered}")
    print(f"notes backend holds: {notes.notes_in('personal') or 'nothing'}")
    for warning in plugin.warnings:
        print(f"warning: note discloses {warning.offending} "
              f"from {[s.split('|')[-1] for s in warning.source_ids]}")

    harmless = "Grocery list: apples, coffee beans, and a new notebook."
    view.write(view.new_note(), harmless)
    print(f"harmless note delivered: {notes.notes_in('personal') == [harmless]}")


if __name__ == "__main__":
    main()
