#!/usr/bin/env python3
"""The paper's §2 scenario end to end: Interview Tool, internal Wiki,
and an external Docs service inside one simulated browser with the
BrowserFlow plug-in attached.

Covers default tags (Figure 3), suppression with audit (Figure 4),
custom tags (Figure 5), and implicit tags (Figure 6).

Run with:  python examples/enterprise_workflow.py
"""

from repro import (
    Browser,
    BrowserFlowPlugin,
    DocsService,
    InterviewTool,
    Label,
    Network,
    PolicyStore,
    TextDisclosureModel,
    WikiService,
)

EVALUATION = (
    "The candidate gave an excellent answer on consensus protocols and "
    "designed a replicated log with clear failure handling, recommended "
    "for hire at the senior level by the whole panel."
)
GUIDELINES = (
    "Interview guidelines require two systems questions per loop and "
    "structured written feedback within one business day, and the rubric "
    "scores must stay within the hiring committee."
)


def main() -> None:
    # -- infrastructure -------------------------------------------------
    network = Network()
    wiki = WikiService()
    itool = InterviewTool()
    docs = DocsService()
    for service in (wiki, itool, docs):
        network.register(service)

    # -- enterprise policy (Figure 3's label assignment) -----------------
    policies = PolicyStore()
    policies.register_service(
        itool.origin, privilege=Label.of("ti"), confidentiality=Label.of("ti"),
        display_name="Interview Tool",
    )
    policies.register_service(
        wiki.origin, privilege=Label.of("tw"), confidentiality=Label.of("tw"),
        display_name="Internal Wiki",
    )
    policies.register_service(docs.origin, display_name="Docs")

    model = TextDisclosureModel(policies)
    browser = Browser(network)
    plugin = BrowserFlowPlugin(model)
    plugin.attach(browser)

    # -- content appears in the internal services ------------------------
    itool.add_note("jane-doe", EVALUATION)
    wiki.save_page("Hiring", GUIDELINES)
    browser.open(itool.candidate_url("jane-doe"))  # plug-in labels {ti}
    browser.open(wiki.page_url("Hiring"))          # plug-in labels {tw}

    # -- Figure 3: default tags block cross-service flows ---------------
    print("== Default tag assignment ==")
    ok = wiki.edit(browser.new_tab(), "Notes", EVALUATION)
    print(f"evaluation -> wiki: delivered={ok} (expected False: {{ti}} !<= {{tw}})")

    editor = docs.open_editor(browser.new_tab())
    par = editor.new_paragraph()
    ok = editor.paste(par, GUIDELINES)
    print(f"guidelines -> docs: delivered={ok} (expected False: {{tw}} !<= {{}})")
    print(f"paragraph marked: {plugin.ui.is_marked(par)}")

    # -- Figure 4: suppression declassifies, with an audit trail --------
    print("\n== Tag suppression ==")
    for warning in list(plugin.warnings):
        plugin.suppress(warning.segment_id, warning.offending[0],
                        user="alice", justification="approved by hiring lead")
    ok = wiki.edit(browser.new_tab(), "Notes", EVALUATION)
    print(f"evaluation -> wiki after suppression: delivered={ok}")
    for event in model.audit:
        print(f"  audit: {event.user} suppressed {event.tag} on "
              f"{event.segment_id.split('|')[-1]} ({event.justification!r})")

    # -- Figure 6: implicit tags stop stale propagation ------------------
    print("\n== Implicit tags ==")
    browser.open(wiki.page_url("Notes"))
    label = [
        model.label_of(sid)
        for sid in model.tracker.paragraphs.segment_db.ids()
        if sid.startswith(wiki.origin) and "Notes" in sid
    ]
    if label:
        print(f"wiki copy of the evaluation carries label {label[0]}")

    # -- Figure 5: custom tags ------------------------------------------
    print("\n== Custom tags ==")
    model.allocate_custom_tag("launch-x", owner="bob")
    page_segments = [
        sid for sid in model.tracker.paragraphs.segment_db.ids()
        if "Hiring" in sid
    ]
    for segment_id in page_segments:
        model.add_tag_to_segment(segment_id, "launch-x")
    print(f"wiki privilege label now: {model.policies.get(wiki.origin).privilege}")
    ok = wiki.edit(browser.new_tab(), "Summary", GUIDELINES)
    print(f"protected text -> wiki (already stores it): delivered={ok}")

    print("\n== Plug-in statistics ==")
    snapshot = plugin.registry.snapshot()
    for name in ("plugin.decisions", "plugin.warnings", "decision_cache.hits",
                 "decision_cache.misses", "plugin.delta.checks",
                 "plugin.delta.builds", "plugin.delta.edits"):
        print(f"  {name}: {snapshot.get(name, 0)}")


if __name__ == "__main__":
    main()
