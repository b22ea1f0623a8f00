import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guiscout.widgets import (
    ActionVerb,
    KIND_VERBS,
    PossibleAction,
    RESERVED_KEYS,
    Rect,
    TreeIntegrityError,
    WidgetKind,
    WidgetNode,
    possible_actions,
    serialize_tree,
)

from conftest import find_widget

DIALOG_ROOT = WidgetNode(
    class_name="Dialog",
    kind=WidgetKind.DIALOG,
    control_id=0,
    rectangle=Rect(4429, 1655, 5172, 2299),
    text="Integrate a Tool as a Workflow Component",
)


def leaf(kind: WidgetKind, control_id: int, text: str = "", extra=None) -> WidgetNode:
    return WidgetNode(
        class_name=kind.name.title(),
        kind=kind,
        control_id=control_id,
        rectangle=Rect(0, 0, 10, 10),
        text=text,
        extra_state=dict(extra or {}),
    )


# --- serialization ---------------------------------------------------------

def test_serialize_dialog_root_matches_wire_fields():
    obj = json.loads(serialize_tree(DIALOG_ROOT))
    assert list(obj) == ["class_name", "control_type", "control_id", "rectangle",
                         "text", "sub_elements"]
    assert obj["class_name"] == "Dialog"
    assert obj["control_type"] == "WindowSpecification"
    assert obj["control_id"] == 0
    assert obj["rectangle"] == ["L4429", "T1655", "R5172", "B2299"]
    assert obj["text"] == "Integrate a Tool as a Workflow Component"
    assert obj["sub_elements"] == []


def test_serialize_static_leaf_has_empty_sub_elements():
    text = serialize_tree(leaf(WidgetKind.STATIC, 3))
    assert '"sub_elements": []' in text
    assert '"control_type": "StaticWrapper"' in text


def test_extra_state_serializes_between_text_and_sub_elements():
    node = leaf(WidgetKind.CHECK_BOX, 9, "Run", {"checked": True, "enabled": False})
    obj = json.loads(serialize_tree(node))
    assert list(obj) == ["class_name", "control_type", "control_id", "rectangle",
                         "text", "checked", "enabled", "sub_elements"]
    assert obj["checked"] is True
    assert obj["enabled"] is False


def test_rectangle_encodes_as_prefixed_strings():
    node = WidgetNode(class_name="Button", kind=WidgetKind.BUTTON, control_id=1,
                      rectangle=Rect(7, 8, 900, 1000))
    assert json.loads(serialize_tree(node))["rectangle"] == ["L7", "T8", "R900", "B1000"]


# --- possible actions ------------------------------------------------------

def test_single_button_yields_single_click():
    assert possible_actions(leaf(WidgetKind.BUTTON, 134478)) == (
        PossibleAction(134478, ActionVerb.CLICK),
    )


def test_non_actionable_kinds_yield_nothing():
    root = WidgetNode(
        class_name="Pane", kind=WidgetKind.CONTAINER, control_id=0,
        rectangle=Rect(0, 0, 50, 50),
        sub_elements=(leaf(WidgetKind.STATIC, 1, "hi"), leaf(WidgetKind.DIALOG, 2)),
    )
    assert possible_actions(root) == ()


def test_disabled_widgets_yield_nothing():
    node = leaf(WidgetKind.BUTTON, 7, "Next >", {"enabled": False})
    assert possible_actions(node) == ()


def test_combo_box_select_offers_its_items():
    node = leaf(WidgetKind.COMBO_BOX, 4, "File", {"items": "File|Float|Integer"})
    (action,) = possible_actions(node)
    assert action.verb is ActionVerb.SELECT
    assert action.choices == ("File", "Float", "Integer")


def test_possible_actions_returns_the_trees_own_tuple_on_every_call():
    tree = WidgetNode(
        class_name="Pane", kind=WidgetKind.CONTAINER, control_id=0,
        rectangle=Rect(0, 0, 50, 50),
        sub_elements=(leaf(WidgetKind.BUTTON, 1), leaf(WidgetKind.EDIT, 2)),
    )
    actions = possible_actions(tree)
    assert isinstance(actions, tuple) and actions
    assert possible_actions(tree) is actions


def test_checkbox_offers_check_and_uncheck_in_order():
    verbs = [pa.verb for pa in possible_actions(leaf(WidgetKind.CHECK_BOX, 2, "x"))]
    assert verbs == [ActionVerb.CHECK, ActionVerb.UNCHECK]


def brute_force_actions(tree: WidgetNode) -> set[tuple[int, str]]:
    """Independent oracle: flat scan of every node against the verb table."""
    table = {
        WidgetKind.BUTTON: ("click",),
        WidgetKind.EDIT: ("write",),
        WidgetKind.COMBO_BOX: ("select",),
        WidgetKind.CHECK_BOX: ("check", "uncheck"),
        WidgetKind.RADIO_BUTTON: ("click",),
        WidgetKind.LIST_ITEM: ("click",),
    }
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        stack.extend(node.sub_elements)
        if node.extra_state.get("enabled") is False:
            continue
        for verb in table.get(node.kind, ()):
            found.add((node.control_id, verb))
    return found


def test_possible_actions_matches_brute_force_on_wizard_page_two():
    from guiscout.simulator import new_wizard

    sim = new_wizard()
    sim.current_page = 1
    tree = sim.snapshot()
    got = {(pa.control_id, pa.verb.value) for pa in possible_actions(tree)}
    assert got == brute_force_actions(tree)


def test_possible_actions_follow_depth_first_document_order():
    from guiscout.simulator import new_wizard

    tree = new_wizard().snapshot()
    actionable_dfs = [node.control_id for node in tree.iter_nodes()
                      if node.kind in KIND_VERBS and node.enabled]
    listed = []
    for pa in possible_actions(tree):
        if pa.control_id not in listed:
            listed.append(pa.control_id)
    assert listed == actionable_dfs


# --- find_widget -----------------------------------------------------------

def test_find_widget_returns_root_for_id_zero():
    assert find_widget(DIALOG_ROOT, 0) is DIALOG_ROOT


def test_find_widget_absent_id_returns_none():
    assert find_widget(DIALOG_ROOT, 99) is None


# --- property tests --------------------------------------------------------

_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)

_EXTRA = st.dictionaries(
    keys=st.sampled_from(["enabled", "checked", "selected", "selected_item", "items"]),
    values=st.one_of(st.booleans(), _TEXT),
    max_size=3,
)


@st.composite
def widget_trees(draw) -> WidgetNode:
    shape = draw(st.recursive(
        st.just(None), lambda child: st.lists(child, max_size=3), max_leaves=10))

    counter = iter(range(10_000))

    def build(node_shape) -> WidgetNode:
        children = () if node_shape is None else tuple(build(c) for c in node_shape)
        kind = draw(st.sampled_from(list(WidgetKind)))
        left = draw(st.integers(0, 5000))
        top = draw(st.integers(0, 5000))
        return WidgetNode(
            class_name=draw(st.text(min_size=1, max_size=10)),
            kind=kind,
            control_id=next(counter),
            rectangle=Rect(left, top, left + draw(st.integers(0, 800)),
                           top + draw(st.integers(0, 800))),
            text=draw(_TEXT),
            extra_state=draw(_EXTRA),
            sub_elements=children,
        )

    return build(shape)


@settings(max_examples=100)
@given(widget_trees())
def test_every_possible_action_resolves_and_is_permitted(tree):
    for pa in possible_actions(tree):
        node = find_widget(tree, pa.control_id)
        assert node is not None
        assert pa.verb in KIND_VERBS[node.kind]


@settings(max_examples=100)
@given(widget_trees(), st.randoms(use_true_random=False))
def test_removing_a_subtree_never_adds_actions(tree, rng):
    def drop_random_child(node: WidgetNode) -> WidgetNode:
        if node.sub_elements and rng.random() < 0.5:
            keep = rng.randrange(len(node.sub_elements))
            children = tuple(c for i, c in enumerate(node.sub_elements) if i != keep)
        else:
            children = tuple(drop_random_child(c) for c in node.sub_elements)
        return WidgetNode(
            class_name=node.class_name, kind=node.kind, control_id=node.control_id,
            rectangle=node.rectangle, text=node.text, extra_state=node.extra_state,
            sub_elements=children)

    pruned = drop_random_child(tree)
    before = {(pa.control_id, pa.verb) for pa in possible_actions(tree)}
    after = {(pa.control_id, pa.verb) for pa in possible_actions(pruned)}
    assert after <= before


@settings(max_examples=60)
@given(widget_trees(), st.randoms(use_true_random=False))
def test_find_widget_agrees_with_exhaustive_scan(tree, rng):
    ids = [node.control_id for node in tree.iter_nodes()]
    target = rng.choice(ids)
    found = find_widget(tree, target)
    assert found is not None and found.control_id == target
    assert serialize_tree(tree).count(f'"control_id": {target},') == 1


# --- the serializer's byte contract -----------------------------------------

def reference_obj(node: WidgetNode) -> dict:
    """A node as the object whose ``json.dumps(..., indent=2)`` is the wire text."""
    rect = node.rectangle
    obj: dict = {
        "class_name": node.class_name,
        "control_type": node.kind.value,
        "control_id": node.control_id,
        "rectangle": [f"L{rect.left}", f"T{rect.top}", f"R{rect.right}", f"B{rect.bottom}"],
        "text": node.text,
    }
    for key in sorted(node.extra_state):
        obj[key] = node.extra_state[key]
    obj["sub_elements"] = [reference_obj(child) for child in node.sub_elements]
    return obj


# Quotes, backslashes, control characters, non-ASCII and non-BMP characters are
# where the escaping of the two encoders could differ.
_ESCAPED_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001F600\U00010000'),
    st.characters()), max_size=12)
_ESCAPED_EXTRA = st.dictionaries(
    keys=_ESCAPED_TEXT.filter(lambda key: key not in RESERVED_KEYS),
    values=st.one_of(st.booleans(), _ESCAPED_TEXT),
    max_size=3,
)

_CLASS_NAMES = st.sampled_from(["Dialog", "Button", 'Say "hi"', "C:\\Tools", "\u00c4\U0001F600"])


@st.composite
def escaping_trees(draw) -> WidgetNode:
    shape = draw(st.recursive(
        st.just(()), lambda child: st.lists(child, min_size=1, max_size=3), max_leaves=8))
    ids = iter(range(draw(st.integers(0, 2**40)), 2**41))

    def build(children_shape) -> WidgetNode:
        left = draw(st.integers(-5000, 5000))
        top = draw(st.integers(-5000, 5000))
        return WidgetNode(
            class_name=draw(_CLASS_NAMES),
            kind=draw(st.sampled_from(list(WidgetKind))),
            control_id=next(ids),
            rectangle=Rect(left, top, left + draw(st.integers(0, 800)),
                           top + draw(st.integers(0, 800))),
            text=draw(_ESCAPED_TEXT),
            extra_state=draw(_ESCAPED_EXTRA),
            sub_elements=tuple(build(child) for child in children_shape),
        )

    return build(shape)


def _chain(depth: int, control_id: int = 0) -> WidgetNode:
    """Dialogs nested ``depth`` levels deep; each has a check box whose strings need escaping."""
    children = () if depth == 0 else (
        _chain(depth - 1, control_id + 1),
        leaf(WidgetKind.CHECK_BOX, control_id + 100, 'a "b" \\ \u00e9\U0001F600',
             {"checked": True, "enabled": False, 'k"\n': "\x00"}))
    return WidgetNode(class_name="Dialog", kind=WidgetKind.DIALOG, control_id=control_id,
                      rectangle=Rect(0, 0, 10, 10), text=f"level {depth}", sub_elements=children)


@settings(max_examples=100)
@given(escaping_trees())
@example(_chain(4))
def test_serialize_tree_equals_indented_json_dump(tree):
    assert serialize_tree(tree) == json.dumps(reference_obj(tree), indent=2)


@settings(max_examples=50)
@given(escaping_trees(), st.data())
def test_serialize_tree_rejects_a_duplicate_id_anywhere(tree, data):
    nodes = list(tree.iter_nodes())
    duplicate = data.draw(st.sampled_from(nodes)).control_id
    copy = leaf(WidgetKind.BUTTON, duplicate)
    root = WidgetNode(class_name="Dialog", kind=WidgetKind.DIALOG, control_id=2**42,
                      rectangle=Rect(0, 0, 10, 10),
                      sub_elements=data.draw(st.sampled_from([(tree, copy), (copy, tree)])))
    with pytest.raises(TreeIntegrityError, match=f"duplicate control_id {duplicate}"):
        serialize_tree(root)


# --- what serialize_tree keeps per node ---------------------------------------

@settings(max_examples=50)
@given(escaping_trees(), st.data())
def test_a_duplicate_id_is_caught_in_a_subtree_that_was_serialized_before(tree, data):
    serialize_tree(tree)
    duplicate = data.draw(st.sampled_from(list(tree.iter_nodes()))).control_id
    copy = leaf(WidgetKind.BUTTON, duplicate)
    root = WidgetNode(class_name="Dialog", kind=WidgetKind.DIALOG, control_id=2**42,
                      rectangle=Rect(0, 0, 10, 10),
                      sub_elements=data.draw(st.sampled_from([(tree, copy), (copy, tree)])))
    with pytest.raises(TreeIntegrityError, match=f"duplicate control_id {duplicate}"):
        serialize_tree(root)
    twice = WidgetNode(class_name="Dialog", kind=WidgetKind.DIALOG, control_id=2**42,
                       rectangle=Rect(0, 0, 10, 10), sub_elements=(tree, tree))
    with pytest.raises(TreeIntegrityError,
                       match=f"duplicate control_id {tree.control_id}"):
        serialize_tree(twice)
    assert serialize_tree(tree) == json.dumps(reference_obj(tree), indent=2)


def test_the_first_repeated_id_in_document_order_is_named():
    inner = WidgetNode(class_name="Dialog", kind=WidgetKind.DIALOG, control_id=3,
                       rectangle=Rect(0, 0, 10, 10),
                       sub_elements=(leaf(WidgetKind.BUTTON, 1), leaf(WidgetKind.BUTTON, 2),
                                     leaf(WidgetKind.BUTTON, 2)))
    root = WidgetNode(class_name="Dialog", kind=WidgetKind.DIALOG, control_id=0,
                      rectangle=Rect(0, 0, 10, 10),
                      sub_elements=(leaf(WidgetKind.BUTTON, 1), inner))
    with pytest.raises(TreeIntegrityError, match="duplicate control_id 1$"):
        serialize_tree(root)


@settings(max_examples=100)
@given(escaping_trees(), st.integers(1, 3), st.booleans())
def test_a_node_serialized_at_one_depth_encodes_correctly_at_another(tree, depth, inner_first):
    wrapped = tree
    for level in range(depth):
        wrapped = WidgetNode(class_name="Dialog", kind=WidgetKind.DIALOG,
                             control_id=2**42 + level, rectangle=Rect(0, 0, 10, 10),
                             sub_elements=(wrapped,))
    first, second = (tree, wrapped) if inner_first else (wrapped, tree)
    for node in (first, second, first):
        assert serialize_tree(node) == json.dumps(reference_obj(node), indent=2)



def test_a_scripted_run_encodes_each_node_once_when_it_is_built(monkeypatch, cold_default_layout):
    """Every node's JSON text is written by its constructor, and never again."""
    from guiscout import widgets
    from guiscout.harness import RunConfig, run

    built, encoded = [], []
    post_init, encode = WidgetNode.__post_init__, widgets._encode_node

    def building(node):
        built.append(node)
        post_init(node)

    def encoding(node, *args):
        encoded.append(node)
        return encode(node, *args)

    monkeypatch.setattr(WidgetNode, "__post_init__", building)
    monkeypatch.setattr(widgets, "_encode_node", encoding)
    record = run(RunConfig(controller="scripted", evaluator="oracle"))
    assert len(record.iterations) == 31
    assert built and len(encoded) == len(built)
    assert all(a is b for a, b in zip(encoded, built))
