"""A DOM tree with mutation notification.

Implements the subset of the DOM that BrowserFlow's interception needs:
element/text nodes, attributes, tree manipulation, text content, id and
selector-ish lookups — and, crucially, every mutation is reported to the
owning document so that :class:`~repro.browser.mutation.MutationObserver`
registrations see child-list and character-data changes anywhere in the
subtrees they observe (paper §5.2).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional

from repro.browser.events import EventTarget
from repro.errors import DOMError

# Elements whose content never counts as prose for extraction purposes.
NON_TEXT_TAGS = {"script", "style", "head", "meta", "link", "title"}


class Node(EventTarget):
    """Base class for DOM nodes."""

    def __init__(self) -> None:
        super().__init__()
        self.parent: Optional["Element"] = None
        self.owner_document: Optional["Document"] = None
        self.node_id: Optional[str] = None

    # -- tree queries ---------------------------------------------------

    def ancestors(self) -> Iterator["Element"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def contains(self, other: "Node") -> bool:
        """True if *other* is self or a descendant of self."""
        node: Optional[Node] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def text_content(self) -> str:
        raise NotImplementedError

    # -- document plumbing ----------------------------------------------

    def _adopt(self, document: Optional["Document"]) -> None:
        self.owner_document = document
        if document is not None and self.node_id is None:
            self.node_id = document._next_node_id()

    def _notify(self, record) -> None:
        if self.owner_document is not None:
            self.owner_document._mutation_occurred(record)


class TextNode(Node):
    """A leaf holding character data."""

    def __init__(self, text: str = "") -> None:
        super().__init__()
        self._text = text

    @property
    def text(self) -> str:
        return self._text

    @text.setter
    def text(self, new_text: str) -> None:
        from repro.browser.mutation import MutationRecord

        old = self._text
        if new_text == old:
            return
        self._text = new_text
        self._notify(
            MutationRecord(
                type="characterData", target=self, old_value=old, new_value=new_text
            )
        )

    def text_content(self) -> str:
        return self._text

    def __repr__(self) -> str:
        preview = self._text if len(self._text) <= 30 else self._text[:27] + "..."
        return f"TextNode({preview!r})"


class Element(Node):
    """An element node with a tag, attributes, and children."""

    def __init__(self, tag: str, attrs: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attrs: Dict[str, str] = dict(attrs or {})
        self.children: List[Node] = []

    # -- attributes ------------------------------------------------------

    def get_attribute(self, name: str) -> Optional[str]:
        return self.attrs.get(name)

    def set_attribute(self, name: str, value: str) -> None:
        from repro.browser.mutation import MutationRecord

        old = self.attrs.get(name)
        if old == value:
            return
        self.attrs[name] = value
        self._notify(
            MutationRecord(
                type="attributes",
                target=self,
                attribute_name=name,
                old_value=old,
                new_value=value,
            )
        )

    @property
    def id(self) -> Optional[str]:
        return self.attrs.get("id")

    @property
    def class_name(self) -> str:
        return self.attrs.get("class", "")

    def class_list(self) -> List[str]:
        return self.class_name.split()

    # -- tree manipulation -------------------------------------------------

    def append_child(self, child: Node) -> Node:
        return self.insert_before(child, None)

    def insert_before(self, child: Node, reference: Optional[Node]) -> Node:
        from repro.browser.mutation import MutationRecord

        if isinstance(child, Element) and child.contains(self):
            raise DOMError("cannot insert an ancestor into its descendant")
        if child.parent is not None:
            child.parent.remove_child(child)
        if reference is None:
            index = len(self.children)
        else:
            try:
                index = self.children.index(reference)
            except ValueError:
                raise DOMError("reference node is not a child") from None
        self.children.insert(index, child)
        child.parent = self
        self._adopt_subtree(child)
        self._notify(
            MutationRecord(type="childList", target=self, added_nodes=(child,))
        )
        return child

    def remove_child(self, child: Node) -> Node:
        from repro.browser.mutation import MutationRecord

        try:
            self.children.remove(child)
        except ValueError:
            raise DOMError("node is not a child of this element") from None
        child.parent = None
        self._notify(
            MutationRecord(type="childList", target=self, removed_nodes=(child,))
        )
        return child

    def replace_children(self, *new_children: Node) -> None:
        """Remove all children, then append the given nodes."""
        for child in list(self.children):
            self.remove_child(child)
        for child in new_children:
            self.append_child(child)

    def _adopt_subtree(self, node: Node) -> None:
        node._adopt(self.owner_document)
        if isinstance(node, Element):
            for child in node.children:
                node._adopt_subtree(child)

    def _adopt(self, document: Optional["Document"]) -> None:
        super()._adopt(document)
        for child in self.children:
            child._adopt(document)

    # -- text ------------------------------------------------------------

    def text_content(self) -> str:
        """All descendant text, skipping non-prose containers."""
        if self.tag in NON_TEXT_TAGS:
            return ""
        return "".join(child.text_content() for child in self.children)

    def set_text(self, text: str) -> None:
        """Replace the element's content with a single text node.

        Reuses an existing sole text child so that a keystroke appears
        as a characterData mutation (what an editor like Google Docs
        produces) rather than a childList churn.
        """
        if len(self.children) == 1 and isinstance(self.children[0], TextNode):
            self.children[0].text = text
        else:
            self.replace_children(TextNode(text))

    # -- queries -----------------------------------------------------------

    def iter_subtree(self) -> Iterator[Node]:
        """Depth-first pre-order iteration including self."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter_subtree()
            else:
                yield child

    def iter_elements(self) -> Iterator["Element"]:
        for node in self.iter_subtree():
            if isinstance(node, Element):
                yield node

    def find_all(self, predicate: Callable[["Element"], bool]) -> List["Element"]:
        return [el for el in self.iter_elements() if predicate(el)]

    def get_elements_by_tag(self, tag: str) -> List["Element"]:
        tag = tag.lower()
        return self.find_all(lambda el: el.tag == tag)

    def get_element_by_id(self, element_id: str) -> Optional["Element"]:
        for el in self.iter_elements():
            if el.id == element_id:
                return el
        return None

    def __repr__(self) -> str:
        ident = f"#{self.id}" if self.id else ""
        return f"<{self.tag}{ident} children={len(self.children)}>"


class Document(Element):
    """The document: root element, node-id allocation, observer registry."""

    def __init__(self) -> None:
        super().__init__("document")
        self._node_counter = itertools.count(1)
        self._observers: List = []  # MutationObserver registrations
        #: attribute name → {value: first element in document order
        #: with it}; see :meth:`first_element_with`.
        self._attribute_index: Dict[str, Dict[str, Element]] = {}
        self.owner_document = self
        self.node_id = self._next_node_id()
        self.body = Element("body")
        self.append_child(self.body)

    def _next_node_id(self) -> str:
        return f"node-{next(self._node_counter):05d}"

    def create_element(self, tag: str, attrs: Optional[Dict[str, str]] = None) -> Element:
        el = Element(tag, attrs)
        el._adopt(self)
        return el

    def create_text_node(self, text: str) -> TextNode:
        node = TextNode(text)
        node._adopt(self)
        return node

    def first_element_with(self, name: str, value: str) -> Optional[Element]:
        """The first element in document order whose attribute *name*
        is *value*: what a walk of :meth:`iter_elements` finds.

        One walk indexes every value of *name*; the index answers later
        calls until a childList mutation, or a change to a *name*
        attribute, drops it. A keystroke changes only character data,
        so an editor's paragraphs are found without a walk. The index
        lives on the document and goes away with it.
        """
        index = self._attribute_index.get(name)
        if index is None:
            index = {}
            for element in self.iter_elements():
                found = element.attrs.get(name)
                if found is not None:
                    index.setdefault(found, element)
            self._attribute_index[name] = index
        try:
            return index.get(value)
        except TypeError:  # unhashable, so equal to no attribute value (a str)
            return None

    # -- mutation routing -------------------------------------------------

    def _register_observer(self, registration) -> None:
        self._observers.append(registration)

    def _unregister_observer(self, observer) -> None:
        self._observers = [r for r in self._observers if r.observer is not observer]

    def _mutation_occurred(self, record) -> None:
        """Route a mutation record to interested observer registrations."""
        if record.type == "childList":
            self._attribute_index.clear()
        elif record.type == "attributes":
            self._attribute_index.pop(record.attribute_name, None)
        for registration in list(self._observers):
            if registration.matches(record):
                registration.observer._enqueue(record)
        # Deliver after routing so one mutation reaching several
        # observers is observed by all before callbacks run.
        for registration in list(self._observers):
            registration.observer._deliver()
