"""Widget-tree data model for GUI snapshots.

A snapshot of the system under test is a tree of immutable :class:`WidgetNode`
values. The JSON produced by :func:`serialize_tree` is embedded verbatim in
controller prompts and persisted run records, so the encoding is a byte-stable
contract: key order is fixed and rectangles are encoded as four prefixed
strings (``["L4429", "T1655", "R5172", "B2299"]``).

The text is byte-identical to ``json.dumps(obj, indent=2)`` of each node as
the object ``class_name``, ``control_type``, ``control_id``, ``rectangle``,
``text``, the ``extra_state`` keys in sorted order, then ``sub_elements``.
:func:`serialize_tree` writes it directly, escaping strings with the same
function ``json.dumps`` uses, because the indenting encoder is pure Python.
A property test in ``tests/test_widgets.py`` checks the two against each other.

Nodes are shared between snapshots: the simulator hands out a node built
before, by this wizard or another one of the same layout, whenever every value
the node is built from is equal. Every value derived from a node is needed in
every step, so the constructor derives it once, from its children, which are
built first: the control ids of its subtree, its possible actions and its JSON
text at the top level. That is sound because a node never changes: its fields
are frozen, and its ``extra_state`` dict is never mutated after construction,
so :func:`possible_actions` returns the node's own tuple and no step copies it.
A child's text inside its parent is its own text with every newline followed
by four more spaces; ``json.dumps`` escapes a newline inside a string, so each
raw newline is a line break of the layout. That one value is derived later,
from ``_json`` when a parent first needs it (:func:`_nested_text`), and kept
on the child, so a parent indents only its new children. Two threads may
both indent a child, and both get the same text. Enum members hash by
identity, as they compare, not by their name in Python (``Enum.__hash__``);
no output reads a set's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator


class TreeIntegrityError(ValueError):
    """A constructed tree violates a structural invariant."""


class ActionVerb(Enum):
    __hash__ = object.__hash__  # see the module docstring
    CLICK = "click"
    WRITE = "write"
    SELECT = "select"
    CHECK = "check"
    UNCHECK = "uncheck"


class WidgetKind(Enum):
    """Widget kinds; the enum value is the on-the-wire control_type string."""

    __hash__ = object.__hash__  # see the module docstring
    BUTTON = "ButtonWrapper"
    EDIT = "EditWrapper"
    COMBO_BOX = "ComboBoxWrapper"
    CHECK_BOX = "CheckBoxWrapper"
    RADIO_BUTTON = "RadioButtonWrapper"
    STATIC = "StaticWrapper"
    CONTAINER = "UIAWrapper"
    DIALOG = "WindowSpecification"
    LIST_ITEM = "ListItemWrapper"


#: Verbs permitted per widget kind. Kinds not listed are not actionable.
KIND_VERBS: dict[WidgetKind, tuple[ActionVerb, ...]] = {
    WidgetKind.BUTTON: (ActionVerb.CLICK,),
    WidgetKind.EDIT: (ActionVerb.WRITE,),
    WidgetKind.COMBO_BOX: (ActionVerb.SELECT,),
    WidgetKind.CHECK_BOX: (ActionVerb.CHECK, ActionVerb.UNCHECK),
    WidgetKind.RADIO_BUTTON: (ActionVerb.CLICK,),
    WidgetKind.LIST_ITEM: (ActionVerb.CLICK,),
}

#: Top-level JSON keys owned by the node encoding; extra_state may not shadow them.
RESERVED_KEYS = frozenset(
    {"class_name", "control_type", "control_id", "rectangle", "text", "sub_elements"}
)

#: Separator used to pack combo-box item lists into the "items" extra_state value.
ITEMS_SEPARATOR = "|"


@dataclass(frozen=True)
class Rect:
    """Screen rectangle in pixels."""

    left: int
    top: int
    right: int
    bottom: int

    def __post_init__(self) -> None:
        if self.left > self.right or self.top > self.bottom:
            raise TreeIntegrityError(
                f"degenerate rectangle ({self.left}, {self.top}, {self.right}, {self.bottom})"
            )

    @property
    def width(self) -> int:
        return self.right - self.left

    @property
    def height(self) -> int:
        return self.bottom - self.top

    def shifted(self, dx: int = 0, dy: int = 0) -> "Rect":
        return Rect(self.left + dx, self.top + dy, self.right + dx, self.bottom + dy)


@dataclass(frozen=True)
class WidgetNode:
    """One widget in a GUI snapshot. Immutable; safe to share between threads."""

    class_name: str
    kind: WidgetKind
    control_id: int
    rectangle: Rect
    text: str = ""
    extra_state: dict[str, str | bool] = field(default_factory=dict)
    sub_elements: tuple["WidgetNode", ...] = ()

    def __post_init__(self) -> None:
        if self.control_id < 0:
            raise TreeIntegrityError(f"control_id must be non-negative, got {self.control_id}")
        for key, value in self.extra_state.items():
            if key in RESERVED_KEYS:
                raise TreeIntegrityError(f"extra_state key {key!r} shadows a reserved key")
            if not isinstance(value, (str, bool)):
                raise TreeIntegrityError(
                    f"extra_state value for {key!r} must be text or boolean, got {type(value).__name__}"
                )
        # Derived once, from the children; see the module docstring.
        object.__setattr__(self, "_subtree_ids", _subtree_ids(self))
        object.__setattr__(self, "_subtree_actions", _subtree_actions(self))
        object.__setattr__(self, "_json", _encode_node(self))
        object.__setattr__(self, "_nested", None)  # set by _nested_text

    @property
    def enabled(self) -> bool:
        return self.extra_state.get("enabled") is not False

    def iter_nodes(self) -> Iterator["WidgetNode"]:
        """Depth-first document order, this node first."""
        yield self
        for child in self.sub_elements:
            yield from child.iter_nodes()

    def combo_items(self) -> tuple[str, ...]:
        """Selectable items of a combo box, unpacked from extra_state."""
        raw = self.extra_state.get("items")
        if not isinstance(raw, str) or raw == "":
            return ()
        return tuple(raw.split(ITEMS_SEPARATOR))


@dataclass(frozen=True)
class PossibleAction:
    """One (widget, verb) pair that is legal in the current GUI state. The
    verb decides the argument: ``write`` takes free text, ``select`` one of
    ``choices`` (set for ``select`` only), every other verb none."""

    control_id: int
    verb: ActionVerb
    choices: tuple[str, ...] = ()


def serialize_tree(tree: WidgetNode) -> str:
    """Encode a widget tree as the canonical JSON text used in prompts.

    A duplicate control id raises TreeIntegrityError naming the first id, in
    document order, that occurs again; no text is returned then.
    """
    if tree._subtree_ids is None:
        seen: set[int] = set()
        for node in tree.iter_nodes():
            if node.control_id in seen:
                raise TreeIntegrityError(f"duplicate control_id {node.control_id}")
            seen.add(node.control_id)
    return tree._json


def possible_actions(tree: WidgetNode) -> tuple[PossibleAction, ...]:
    """Every legal (widget, verb) pair in depth-first document order: the
    tree's own tuple, derived when the tree was built.

    Non-actionable kinds contribute nothing; widgets with extra_state
    ``enabled=false`` contribute nothing.
    """
    return tree._subtree_actions


# What a node derives from its fields and its children's derived values.

def _subtree_ids(node: WidgetNode) -> frozenset[int] | None:
    """The control ids in the subtree, or None if one of them occurs twice."""
    ids = {node.control_id}
    count = 1
    for child in node.sub_elements:
        below = child._subtree_ids
        if below is None:
            return None
        ids.update(below)
        count += len(below)
    return frozenset(ids) if len(ids) == count else None


def _subtree_actions(node: WidgetNode) -> tuple[PossibleAction, ...]:
    """The possible actions of the subtree, in depth-first document order."""
    actions: list[PossibleAction] = []
    verbs = KIND_VERBS.get(node.kind)
    if verbs is not None and node.enabled:
        actions.extend(PossibleAction(node.control_id, verb, node.combo_items()
                                      if verb is ActionVerb.SELECT else ())
                       for verb in verbs)
    for child in node.sub_elements:
        actions.extend(child._subtree_actions)
    return tuple(actions)


def _encode_node(node: WidgetNode) -> str:
    """``node`` as ``json.dumps(..., indent=2)`` writes it at the top level."""
    rect = node.rectangle
    parts = [
        f'{{\n  "class_name": {_quote(node.class_name)},'
        f'\n  "control_type": {_quote(node.kind.value)},'
        f'\n  "control_id": {node.control_id},'
        f'\n  "rectangle": [\n    "L{rect.left}",\n    "T{rect.top}",'
        f'\n    "R{rect.right}",\n    "B{rect.bottom}"\n  ],'
        f'\n  "text": {_quote(node.text)},']
    state = node.extra_state
    for key in sorted(state):
        value = state[key]
        encoded = "true" if value is True else "false" if value is False else _quote(value)
        parts.append(f"\n  {_quote(key)}: {encoded},")
    if not node.sub_elements:
        parts.append('\n  "sub_elements": []\n}')
    else:
        parts.append('\n  "sub_elements": [\n    ')
        parts.append(",\n    ".join(map(_nested_text, node.sub_elements)))
        parts.append("\n  ]\n}")
    return "".join(parts)


def _nested_text(child: WidgetNode) -> str:
    """``child``'s text as a parent holds it, two levels deeper: indented by
    the first parent that holds the child and kept for every later one."""
    text = child._nested
    if text is None:
        text = child._json.replace("\n", "\n    ")
        object.__setattr__(child, "_nested", text)
    return text
