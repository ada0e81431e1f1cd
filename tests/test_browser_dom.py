"""Tests for the DOM tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browser.dom import Document, Element, TextNode
from repro.errors import DOMError


@pytest.fixture
def document():
    return Document()


class TestTreeManipulation:
    def test_append_child(self, document):
        div = document.create_element("div")
        document.body.append_child(div)
        assert div.parent is document.body
        assert div in document.body.children

    def test_insert_before(self, document):
        a = document.create_element("a")
        b = document.create_element("b")
        document.body.append_child(b)
        document.body.insert_before(a, b)
        assert document.body.children == [a, b]

    def test_insert_before_unknown_reference(self, document):
        orphan = document.create_element("i")
        with pytest.raises(DOMError):
            document.body.insert_before(document.create_element("a"), orphan)

    def test_remove_child(self, document):
        div = document.create_element("div")
        document.body.append_child(div)
        document.body.remove_child(div)
        assert div.parent is None
        assert div not in document.body.children

    def test_remove_non_child_raises(self, document):
        with pytest.raises(DOMError):
            document.body.remove_child(document.create_element("div"))

    def test_reparenting_moves_node(self, document):
        a = document.create_element("div")
        b = document.create_element("div")
        child = document.create_element("span")
        document.body.append_child(a)
        document.body.append_child(b)
        a.append_child(child)
        b.append_child(child)
        assert child.parent is b
        assert child not in a.children

    def test_cycle_rejected(self, document):
        outer = document.create_element("div")
        inner = document.create_element("div")
        document.body.append_child(outer)
        outer.append_child(inner)
        with pytest.raises(DOMError):
            inner.append_child(outer)

    def test_replace_children(self, document):
        div = document.create_element("div")
        div.append_child(document.create_text_node("old"))
        div.replace_children(document.create_text_node("new"))
        assert div.text_content() == "new"


class TestTextContent:
    def test_recursive_text(self, document):
        div = document.create_element("div")
        p = document.create_element("p")
        p.append_child(document.create_text_node("hello "))
        div.append_child(p)
        div.append_child(document.create_text_node("world"))
        assert div.text_content() == "hello world"

    def test_script_content_excluded(self, document):
        div = document.create_element("div")
        script = document.create_element("script")
        script.append_child(document.create_text_node("var x = 1;"))
        div.append_child(script)
        div.append_child(document.create_text_node("visible"))
        assert div.text_content() == "visible"

    def test_set_text_reuses_text_node(self, document):
        div = document.create_element("div")
        div.set_text("first")
        node = div.children[0]
        div.set_text("second")
        assert div.children[0] is node
        assert div.text_content() == "second"

    def test_set_text_replaces_elements(self, document):
        div = document.create_element("div")
        div.append_child(document.create_element("span"))
        div.set_text("plain")
        assert len(div.children) == 1
        assert isinstance(div.children[0], TextNode)


class TestQueries:
    def test_get_element_by_id(self, document):
        target = document.create_element("div", {"id": "needle"})
        wrapper = document.create_element("div")
        wrapper.append_child(target)
        document.body.append_child(wrapper)
        assert document.get_element_by_id("needle") is target
        assert document.get_element_by_id("missing") is None

    def test_get_elements_by_tag(self, document):
        for _ in range(3):
            document.body.append_child(document.create_element("p"))
        document.body.append_child(document.create_element("div"))
        assert len(document.get_elements_by_tag("p")) == 3

    def test_tag_case_insensitive(self, document):
        document.body.append_child(document.create_element("DIV"))
        assert document.get_elements_by_tag("div")

    def test_find_all_predicate(self, document):
        a = document.create_element("div", {"class": "x y"})
        b = document.create_element("div", {"class": "z"})
        document.body.append_child(a)
        document.body.append_child(b)
        found = document.find_all(lambda el: "y" in el.class_list())
        assert found == [a]

    def test_iter_subtree_preorder(self, document):
        div = document.create_element("div")
        span = document.create_element("span")
        text = document.create_text_node("t")
        div.append_child(span)
        span.append_child(text)
        document.body.append_child(div)
        nodes = list(div.iter_subtree())
        assert nodes == [div, span, text]

    def test_contains(self, document):
        div = document.create_element("div")
        span = document.create_element("span")
        div.append_child(span)
        document.body.append_child(div)
        assert div.contains(span)
        assert document.contains(span)
        assert not span.contains(div)

    def test_ancestors(self, document):
        div = document.create_element("div")
        span = document.create_element("span")
        div.append_child(span)
        document.body.append_child(div)
        assert list(span.ancestors()) == [div, document.body, document]


class TestAttributes:
    def test_set_get(self, document):
        el = document.create_element("div")
        el.set_attribute("data-x", "1")
        assert el.get_attribute("data-x") == "1"

    def test_id_and_class_properties(self, document):
        el = document.create_element("div", {"id": "a", "class": "x y"})
        assert el.id == "a"
        assert el.class_list() == ["x", "y"]

    def test_missing_attribute_none(self, document):
        assert document.create_element("div").get_attribute("nope") is None


class TestNodeIds:
    def test_unique_node_ids(self, document):
        ids = {document.create_element("div").node_id for _ in range(10)}
        assert len(ids) == 10

    def test_adoption_assigns_id(self):
        document = Document()
        orphan = Element("div")
        assert orphan.node_id is None
        document.body.append_child(orphan)
        assert orphan.node_id is not None

    def test_subtree_adoption(self):
        document = Document()
        parent = Element("div")
        child = Element("span")
        parent.append_child(child)
        document.body.append_child(parent)
        assert child.owner_document is document
        assert child.node_id is not None


ATTR = "data-par-id"
IDS = ("p0", "p1", "p2")


def walk_first(document, value):
    """The reference: the first element in document order with *value*."""
    for element in document.iter_elements():
        if element.get_attribute(ATTR) == value:
            return element
    return None


# One edit of a document whose elements are numbered in creation order;
# the integers pick an element (modulo how many exist) or a position.
_EDITS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 99), st.integers(0, 9), st.sampled_from(IDS)),
    st.tuples(st.just("orphan"), st.integers(0, 99), st.integers(0, 9), st.sampled_from(IDS)),
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("move"), st.integers(0, 99), st.integers(0, 99), st.integers(0, 9)),
    st.tuples(st.just("reid"), st.integers(0, 99), st.sampled_from(IDS)),
    st.tuples(st.just("text"), st.integers(0, 99), st.sampled_from(("", "a", "ab"))),
    st.tuples(st.just("mark"), st.integers(0, 99)),
)


def _apply(document, elements, edit) -> None:
    kind = edit[0]
    pick = lambda i: elements[i % len(elements)]  # noqa: E731
    if kind in ("insert", "orphan"):
        _kind, parent_i, position, value = edit
        parent = pick(parent_i)
        # A document-created element, or one built detached (no owner
        # until it is inserted).
        child = (
            document.create_element("div", {ATTR: value})
            if kind == "insert"
            else Element("div", {ATTR: value})
        )
        reference = parent.children[position] if position < len(parent.children) else None
        parent.insert_before(child, reference)
        elements.append(child)
    elif kind == "delete":
        element = pick(edit[1])
        if element.parent is not None and element is not document.body:
            element.parent.remove_child(element)
    elif kind == "move":
        _kind, element_i, parent_i, position = edit
        element, parent = pick(element_i), pick(parent_i)
        if element is document.body or element.contains(parent):
            return
        siblings = [c for c in parent.children if c is not element]
        reference = siblings[position] if position < len(siblings) else None
        parent.insert_before(element, reference)
    elif kind == "reid":
        pick(edit[1]).set_attribute(ATTR, edit[2])
    elif kind == "text":
        element = pick(edit[1])
        if element is not document.body:
            element.set_text(edit[2])
    else:
        pick(edit[1]).set_attribute("style", "outline: red")


class TestAttributeIndex:
    """``Document.first_element_with`` answers what the walk answers."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_EDITS, max_size=30))
    def test_matches_the_walk_after_every_edit(self, edits):
        document = Document()
        elements = [document.body]
        for edit in edits:
            _apply(document, elements, edit)
            for value in IDS + ("absent",):
                assert document.first_element_with(ATTR, value) is walk_first(
                    document, value
                ), (edit, value)

    def test_duplicate_ids_answer_the_first_in_document_order(self, document):
        later = document.create_element("div", {ATTR: "p0"})
        earlier = document.create_element("div", {ATTR: "p0"})
        document.body.append_child(later)
        assert document.first_element_with(ATTR, "p0") is later
        document.body.insert_before(earlier, later)
        assert document.first_element_with(ATTR, "p0") is earlier
        document.body.remove_child(earlier)
        assert document.first_element_with(ATTR, "p0") is later

    def test_a_keystroke_keeps_the_index(self, document):
        par = document.create_element("div", {ATTR: "p0"})
        document.body.append_child(par)
        par.set_text("first")
        assert document.first_element_with(ATTR, "p0") is par
        index = document._attribute_index[ATTR]
        par.set_text("first k")  # character data only
        par.set_attribute("style", "x")  # another attribute
        assert document._attribute_index[ATTR] is index
        assert document.first_element_with(ATTR, "p0") is par

    def test_unhashable_value_matches_nothing(self, document):
        document.body.append_child(document.create_element("div", {ATTR: "p0"}))
        assert document.first_element_with(ATTR, ["p0"]) is None

    def test_dropped_document_is_collected_with_its_index(self):
        import gc
        import weakref

        document = Document()
        for i in range(20):
            par = document.create_element("div", {ATTR: f"p{i}"})
            par.set_text("text of paragraph %d" % i)
            document.body.append_child(par)
        assert document.first_element_with(ATTR, "p7") is not None
        refs = [weakref.ref(document)] + [
            weakref.ref(el) for el in document.body.children
        ]
        del document, par
        gc.collect()
        assert all(ref() is None for ref in refs)
