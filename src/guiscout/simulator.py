"""Deterministic simulated system under test: a six-page tool-integration wizard.

The wizard is a small state machine with top-to-bottom form validation, one
modal dialog level, and injectable UI defects. Snapshots are widget trees,
screenshots are fixed-size text renders, and both are pure functions of the
wizard state, so every run is exactly reproducible from the fault set and the
action sequence. Control ids are assigned in a fixed order (see
``_lay_out``); the record fingerprints in
``tests/fixtures/record_fingerprints.json`` pin it.

Each step builds only what changed, and a screen is built, drawn and hashed
once for every wizard of a layout. A node's key is the values it is built
from (its fields, each child by its ``id``), and the layout's node table maps
a key to its entry: the node, and where and what it draws, or for the root
its canvas text, canvas digest and tree digest. A snapshot hands out the node
of an equal key, shared with the snapshots before it, with the other wizards
of the layout and with the threads that run them, and builds a node only
for a key the table does not hold. Building an immutable value once and
sharing it wherever its content recurs is hash-consing (Filliatre and
Conchon, 2006). The table keeps at most ``_TABLE_SIZE`` entries and evicts
by second chance (CLOCK; Corbato, 1968): an entry handed out from the table
is marked, and eviction moves a marked oldest entry to the newest end with
its mark cleared and drops the first unmarked one, so the screens a random
walk comes back to stay. The scripted traversals of the 32 default-fault
subsets make 127 distinct nodes, so a second pass over them builds, draws and
hashes nothing (README "Determinism" gives the counts). A wizard keeps, per
control id, the entry of its current node, which answers an unchanged slot
without a table lookup and says where a node of its snapshot is drawn. An
entry is a list whose last item, the mark, is the one part that changes:
its key and node never do (``extra_state`` is never mutated after
construction), nor what the node draws, so whichever thread reads them sees
what was put in, and a mark lost to a race only changes which entry goes
next. Two threads may both build an entry the table lacks, and each then
holds a node equal to the other's. What is derived from a wizard's faults
and state, not from its nodes (the visible faults and the page key), is
decided per render. Every prompt that shows a screenshot attaches the
``SimScreenshot`` that ``render`` returned.

A wizard config is compiled into an immutable layout, the one owner of
everything a config settles: the pages and modals; every slot with its control
id, its rectangle and the rectangle a misaligned-rectangle fault draws it at;
the field slots keyed by (page, modal, label) and every other slot but a
field's label keyed by (page, modal, role); each modal's dialog node id; and
each field's default value. Slots are frozen, their sequences tuples, the
tables read-only but for the node table. The default wizard is compiled once
per process, and every session, replay, traversal script and ``guiscout run``
config check shares that layout and its node table. A custom ``wizard``
config is compiled for each wizard, so a malformed one fails every time, and
its node table dies with the wizard. A wizard holds only what changes during
a run: the current page, its values (a copy of the defaults), the names of
its inputs (an item's control id is the layout's first item id plus its
position), the selected input, the open modal, messages, faults, and its
current node entries.

A snapshot decides each slot in one pass (``_node``): whether it is drawn,
and if so its node, with every fault that changes how it is drawn applied
there. A fault must target something it changes on screen
(``_changes_screen``); a wizard refuses any other target.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import threading
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from enum import Enum
from types import MappingProxyType, SimpleNamespace

from .actions import ActionCommand, format_action
from .widgets import ActionVerb, ITEMS_SEPARATOR, KIND_VERBS, Rect, WidgetKind, WidgetNode, \
    serialize_tree


class WizardConfigError(ValueError):
    """The wizard fixture configuration is invalid."""


ROOT_RECT = Rect(4429, 1655, 5172, 2299)
WIZARD_TITLE = "Integrate a Tool as a Workflow Component"

CANVAS_WIDTH = 120
CANVAS_HEIGHT = 40
# The empty canvas, one string per row: a border around blank rows.
_CANVAS_EDGE = "+" + "-" * (CANVAS_WIDTH - 2) + "+"
_CANVAS_BODY = "|" + " " * (CANVAS_WIDTH - 2) + "|"

# Pixel layout inside the dialog. Rows are 44 px apart, which maps to
# distinct canvas rows under the 38-row interior scaling.
_TITLE_RECT = Rect(4449, 1703, 5152, 1727)
_FIELD_TOP = 1735
_ROW_STEP = 44
_LABEL_LEFT, _LABEL_RIGHT = 4459, 4679
_CONTROL_LEFT, _CONTROL_RIGHT = 4689, 5102
_FULL_LEFT, _FULL_RIGHT = 4459, 5142
_MESSAGE_RECT = Rect(4459, 2195, 5142, 2219)
_COMPLETION_RECT = Rect(4459, 2151, 5142, 2175)
_NAV_BACK_RECT = Rect(4609, 2243, 4689, 2271)
_NAV_NEXT_RECT = Rect(4699, 2243, 4779, 2271)
_MODAL_RECT = Rect(4529, 1805, 5062, 2149)
_MODAL_FIELD_TOP = 1849
_MODAL_LABEL_LEFT, _MODAL_LABEL_RIGHT = 4549, 4769
_MODAL_CONTROL_LEFT, _MODAL_CONTROL_RIGHT = 4779, 5032
_MODAL_MESSAGE_RECT = Rect(4549, 2013, 5042, 2037)
_MODAL_OK_RECT = Rect(4779, 2061, 4859, 2089)
_MODAL_CANCEL_RECT = Rect(4869, 2061, 4949, 2089)
_MISALIGN_SHIFT = 150

_FAULT_TRUNCATE_AT = 40

# The items of a disabled control's extra_state.
_DISABLED = (("enabled", False),)

# The most entries a layout's node table keeps; to make room, the oldest
# entry not handed out since it was last passed over goes (see _add).
# The scripted traversals of the 32 default-fault subsets make 127 distinct
# nodes, and this leaves room for a few more.
_TABLE_SIZE = 160
# Held to add an entry: of two threads that evict at once, one would find the
# table changed under its iteration or the oldest key gone. Reading and
# marking an entry need none.
_TABLE_LOCK = threading.Lock()


class FaultKind(Enum):
    __hash__ = object.__hash__  # see the widgets module docstring
    TRUNCATED_TEXT = "truncated_text"
    GENERIC_ERROR_MESSAGE = "generic_error_message"
    MISALIGNED_RECT = "misaligned_rect"
    MISSING_TITLE = "missing_title"
    STALE_ERROR = "stale_error"


@dataclass(frozen=True)
class FaultSpec:
    """One seeded UI defect, targeting a field (or the title) of one page."""

    kind: FaultKind
    page: str
    label: str
    active: bool = True

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, FaultKind) and isinstance(self.page, str)
                and isinstance(self.label, str) and isinstance(self.active, bool)):
            raise ValueError(f"malformed fault: {self!r}")

    def to_json_obj(self) -> dict:
        return {"kind": self.kind.value, "page": self.page, "label": self.label,
                "active": self.active}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FaultSpec":
        """A fault from its JSON object; a malformed one raises ValueError."""
        if not isinstance(obj, dict) or not {"kind", "page", "label"} <= obj.keys():
            raise ValueError(f"a fault is an object with a kind, page and label: {obj!r}")
        unknown = sorted(obj.keys() - {"kind", "page", "label", "active"})
        if unknown:
            raise ValueError(f"a fault has unknown keys {unknown}: {obj!r}")
        return cls(kind=FaultKind(obj["kind"]), page=obj["page"], label=obj["label"],
                   active=obj.get("active", True))


def faults_from_json(objs: list) -> list[FaultSpec]:
    """Faults from a JSON list of fault objects; anything malformed raises ValueError."""
    if not isinstance(objs, list):
        raise ValueError(f"faults is not a list: {objs!r}")
    return [FaultSpec.from_json_obj(obj) for obj in objs]


@dataclass(frozen=True)
class FieldSpec:
    label: str
    kind: WidgetKind
    validator: str | None = None
    items: tuple[str, ...] = ()
    items_from: str | None = None
    default: str | bool = ""
    text: str = ""
    computed: str | None = None
    opens: str | None = None
    group: str | None = None

    @property
    def noun_text(self) -> str:
        return self.label.lower()

    @property
    def has_label_widget(self) -> bool:
        return self.kind in (WidgetKind.EDIT, WidgetKind.COMBO_BOX, WidgetKind.CONTAINER)


@dataclass(frozen=True)
class PageSpec:
    """A wizard page or a modal dialog: its key, its title and its fields."""

    key: str
    title: str
    fields: tuple[FieldSpec, ...]


@dataclass(frozen=True)
class SimScreenshot:
    """One rendered view of the wizard: a fixed 120x40 character canvas and
    its sha256 ``digest``, plus the widget tree it was drawn from, that tree's
    sha256 ``tree_digest`` and the indices of the faults visible in it; those
    three take no part in equality."""

    page_key: str
    rendered: str
    digest: str
    tree: WidgetNode = dc_field(compare=False)
    visible_faults: frozenset[int] = dc_field(compare=False)
    tree_digest: str = dc_field(compare=False)


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExecOutcome:
    status: str  # "executed" | "failed"
    reason: str | None = None


_EXECUTED = ExecOutcome("executed")  # shared: an outcome never changes


_KIND_NAMES = {
    "Static": WidgetKind.STATIC,
    "Edit": WidgetKind.EDIT,
    "ComboBox": WidgetKind.COMBO_BOX,
    "CheckBox": WidgetKind.CHECK_BOX,
    "RadioButton": WidgetKind.RADIO_BUTTON,
    "Button": WidgetKind.BUTTON,
    "List": WidgetKind.CONTAINER,
}

# A field's widget class name is its kind's name in the config.
_CLASS_NAMES = {kind: name for name, kind in _KIND_NAMES.items()}

DESCRIPTION_HELP = (
    "Enter a name and a description for the new workflow component. "
    "The description is shown in the palette and should briefly explain what the tool does."
)

CPACS_DOC = """# CPACS Tool Properties (optional)
## Synopsis
Configure the CPACS tool specific values.
## Usage
Fill in the following values to make your tool using the CPACS specific features, e.g. input and output mapping.
- **Incoming CPACS endpoint name**: Select the input that represents the incoming CPACS file. This input must be configured on the "Inputs and Outputs" page.
    **Note**
    The data type of this input must be "File". Usage must be "required".
- **Input mapping file**: Select or enter the mapping file for input mapping. Supported file extensions are ".xml" for classic mapping and ".xsl" for advanced XSLT-mapping.
    **Note**
    The path must be relative to the tool directory configured on the "Launch Settings" page. The file chooser dialog regards that fact."""


def default_wizard_config() -> dict:
    """The built-in six-page wizard fixture, in the config-file schema."""
    return {
        "title": WIZARD_TITLE,
        "pages": [
            {"key": "tool_description", "title": "Tool Description", "fields": [
                {"label": "Description", "kind": "Static", "text": DESCRIPTION_HELP},
                {"label": "Name", "kind": "Edit", "validator": "non_empty"},
                {"label": "Tool Description", "kind": "Edit"},
                {"label": "Group", "kind": "ComboBox",
                 "items": ["Uncategorized", "Analysis", "Optimization"]},
                {"label": "Standard tool", "kind": "RadioButton", "default": True,
                 "group": "tool_type"},
                {"label": "CPACS tool", "kind": "RadioButton", "default": False,
                 "group": "tool_type"},
            ]},
            {"key": "inputs_outputs", "title": "Inputs and Outputs", "fields": [
                {"label": "Inputs Help", "kind": "Static",
                 "text": "Define the inputs and outputs that the tool exchanges with the workflow."},
                {"label": "Add Input...", "kind": "Button", "opens": "add_input"},
                {"label": "Inputs", "kind": "List", "validator": "at_least_one_item"},
            ]},
            {"key": "launch_settings", "title": "Launch Settings", "fields": [
                {"label": "Launch Help", "kind": "Static",
                 "text": "Configure how the integrated tool is launched."},
                {"label": "Tool Directory", "kind": "Edit", "validator": "non_empty"},
                {"label": "Version", "kind": "Edit", "validator": "non_empty"},
                {"label": "Working Directory", "kind": "Edit", "validator": "absolute_path"},
                {"label": "Maximal Number of Instances", "kind": "Edit",
                 "validator": "optional_positive_int"},
            ]},
            {"key": "cpacs_properties", "title": "CPACS Tool Properties", "fields": [
                {"label": "CPACS Help", "kind": "Static",
                 "text": "Configure the CPACS tool specific values."},
                {"label": "Incoming CPACS endpoint", "kind": "ComboBox",
                 "items_from": "inputs"},
                {"label": "Input mapping file", "kind": "Edit",
                 "validator": "optional_mapping_file"},
                {"label": "Use advanced XSLT mapping", "kind": "CheckBox", "default": False},
            ]},
            {"key": "review", "title": "Review", "fields": [
                {"label": "Summary", "kind": "Static", "computed": "summary"},
                {"label": "I have reviewed the configuration", "kind": "CheckBox",
                 "validator": "require_checked"},
            ]},
            {"key": "finish", "title": "Finish", "fields": [
                {"label": "Finish Help", "kind": "Static",
                 "text": "The tool is ready to be integrated. Click Finish to complete the integration."},
            ]},
        ],
        "modals": {
            "add_input": {"title": "Add Input", "fields": [
                {"label": "Input name", "kind": "Edit", "validator": "non_empty"},
                {"label": "Data type", "kind": "ComboBox",
                 "items": ["File", "Float", "Integer", "String"], "default": "File"},
            ]},
        },
    }


def default_fault_set() -> list[FaultSpec]:
    """Five distinct seeded defects, one per fault kind, for the default fixture."""
    return [
        FaultSpec(FaultKind.TRUNCATED_TEXT, "tool_description", "Description"),
        FaultSpec(FaultKind.STALE_ERROR, "tool_description", "Name"),
        FaultSpec(FaultKind.MISALIGNED_RECT, "inputs_outputs", "Add Input..."),
        FaultSpec(FaultKind.GENERIC_ERROR_MESSAGE, "launch_settings", "Working Directory"),
        FaultSpec(FaultKind.MISSING_TITLE, "cpacs_properties", "title"),
    ]


def default_doc_corpus() -> Mapping[str, str]:
    """Documentation pages for the default fixture, keyed by wizard page; read-only."""
    return MappingProxyType({
        "tool_description": "# Tool Description\nProvide a unique name for the new "
            "workflow component and optionally a description and a palette group.",
        "inputs_outputs": "# Inputs and Outputs\nDefine the data the tool exchanges with "
            "the workflow. Use \"Add Input...\" to declare an input with a name and a data type.",
        "launch_settings": "# Launch Settings\nConfigure the directory in which the tool is "
            "installed, the version of the tool, the absolute path to the working directory in "
            "which the tool shall be executed, and the maximal number of instances that can be "
            "executed in parallel.",
        "cpacs_properties": CPACS_DOC,
        "review": "# Review\nCheck the summary of the configuration and confirm it before "
            "finishing.",
        "finish": "# Finish\nClick Finish to integrate the tool as a workflow component.",
    })


_MISSING = object()
_TEXT_OR_NULL = (str, type(None))


# The keys each part of a wizard config may have.
_WIZARD_KEYS = frozenset({"title", "pages", "modals"})
_PAGE_KEYS = frozenset({"key", "title", "fields"})
_MODAL_KEYS = frozenset({"title", "fields"})
# The keys each field kind reads besides "label" and "kind". A key its kind
# never reads would be silently ignored, so any other is an error.
_KIND_KEYS = {
    WidgetKind.STATIC: frozenset({"text", "computed"}),
    WidgetKind.EDIT: frozenset({"validator", "default"}),
    WidgetKind.COMBO_BOX: frozenset({"validator", "items", "items_from", "default"}),
    WidgetKind.CHECK_BOX: frozenset({"validator", "default"}),
    WidgetKind.RADIO_BUTTON: frozenset({"validator", "default", "group"}),
    WidgetKind.BUTTON: frozenset({"opens"}),
    # A list's own value never changes: only at_least_one_item reads the inputs.
    WidgetKind.CONTAINER: frozenset({"validator"}),
}
_FIELD_KEYS = frozenset({"label", "kind"}).union(*_KIND_KEYS.values())


def _config_object(obj: object, keys: frozenset[str], where: str) -> dict:
    """``obj`` if it is an object whose keys are all among ``keys``. A
    misspelt key would silently keep a default, so any unknown key is an error."""
    if not isinstance(obj, dict):
        raise WizardConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise WizardConfigError(f"{where} has unknown keys {unknown}")
    return obj


def _config_value(obj: dict, key: str, kind: type | tuple[type, ...], where: str,
                  default: object = _MISSING) -> object:
    """``obj[key]`` of a wizard config object, or ``default`` if the key is
    absent; a value of another type, or an absent key without a default, is
    an error."""
    if key not in obj:
        if default is _MISSING:
            raise WizardConfigError(f"{where} has no {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, kind):
        raise WizardConfigError(f"{where} {key!r} has the wrong type: {value!r}")
    return value


def _parse_field(obj: object, where: str) -> FieldSpec:
    obj = _config_object(obj, _FIELD_KEYS, where)
    kind_name = _config_value(obj, "kind", str, where, None)
    if kind_name not in _KIND_NAMES:
        raise WizardConfigError(f"unknown field kind {kind_name!r}")
    kind = _KIND_NAMES[kind_name]
    for key, value in obj.items():
        if key not in _KIND_KEYS[kind] and key != "label" and key != "kind":
            readers = [name for name, other in _KIND_NAMES.items() if key in _KIND_KEYS[other]]
            raise WizardConfigError(f"{where} has {key!r} ({value!r}), which kind {kind_name!r} "
                                    f"never reads; only {', '.join(map(repr, readers))} read it")
    validator = _config_value(obj, "validator", _TEXT_OR_NULL, where, None)
    if validator is not None:
        if validator not in VALIDATORS:
            raise WizardConfigError(f"unknown validator {validator!r}")
        judged = _VALIDATED_KINDS.get(validator, _TEXT_KINDS)
        if kind not in judged:
            holders = [name for name, other in _KIND_NAMES.items() if other in judged]
            raise WizardConfigError(f"{where} has 'validator' ({validator!r}), which judges a "
                                    f"value kind {kind_name!r} never holds; only "
                                    f"{', '.join(map(repr, holders))} hold it")
    items = _config_value(obj, "items", list, where, [])
    if not all(isinstance(item, str) for item in items):
        raise WizardConfigError(f"{where} 'items' must all be text: {items!r}")
    if any(ITEMS_SEPARATOR in item for item in items):
        raise WizardConfigError(f"{where} 'items' must not contain {ITEMS_SEPARATOR!r}: {items!r}")
    # A misspelt name would draw a broken field, so each names what ships;
    # ``opens`` names a modal, which _compile checks once every modal is parsed.
    computed = _config_value(obj, "computed", _TEXT_OR_NULL, where, None)
    if computed not in (None, "summary"):
        raise WizardConfigError(f"{where} 'computed' must be 'summary', got {computed!r}")
    items_from = _config_value(obj, "items_from", _TEXT_OR_NULL, where, None)
    if items_from not in (None, "inputs"):
        raise WizardConfigError(f"{where} 'items_from' must be 'inputs', got {items_from!r}")
    if items_from is not None and "items" in obj:
        raise WizardConfigError(f"{where} has 'items' ({items!r}) and 'items_from' "
                                f"({items_from!r}); kind {kind_name!r} lists one or the other")
    # A default is drawn, so it must be a value that the field can be set to.
    toggles = kind is WidgetKind.CHECK_BOX or kind is WidgetKind.RADIO_BUTTON
    default = obj.get("default", False if toggles else "")
    if not isinstance(default, bool if toggles else str):
        raise WizardConfigError(f"{where} 'default' of kind {kind_name!r} must be "
                                f"{'true or false' if toggles else 'text'}, got {default!r}")
    if kind is WidgetKind.COMBO_BOX and default not in ("", *items):
        raise WizardConfigError(f"{where} 'default' of kind 'ComboBox' must be '' or one of "
                                f"its items {items!r}, got {default!r}")
    return FieldSpec(
        label=_config_value(obj, "label", str, where),
        kind=kind,
        validator=validator,
        items=tuple(items),
        items_from=items_from,
        default=default,
        text=_config_value(obj, "text", str, where, ""),
        computed=computed,
        opens=_config_value(obj, "opens", _TEXT_OR_NULL, where, None),
        group=_config_value(obj, "group", _TEXT_OR_NULL, where, None),
    )


def _parse_fields(obj: dict, where: str) -> tuple[FieldSpec, ...]:
    """The fields of a page or a modal. Labels key fault targets and
    ``control_id_of``, so each may appear only once. A click selects one
    RadioButton of a group, so at most one may start selected."""
    fields = tuple(_parse_field(f, f"{where} field {row}")
                   for row, f in enumerate(_config_value(obj, "fields", list, where)))
    labels = [field.label for field in fields]
    for label in labels:
        if labels.count(label) > 1:
            raise WizardConfigError(f"{where} has two fields labelled {label!r}")
    selected = set()
    for row, field in enumerate(fields):
        if field.kind is WidgetKind.RADIO_BUTTON and field.default:
            if field.group in selected:
                raise WizardConfigError(f"{where} field {row} 'default' is true, but another "
                                        f"field of kind 'RadioButton' in group {field.group!r} "
                                        f"defaults to true")
            selected.add(field.group)
    return fields


# --- validators, looked up by name from the fixture config ---------------

def _is_absolute(path: str) -> bool:
    return path.startswith("/") or (len(path) >= 3 and path[1] == ":" and path[2] in "\\/")


def _v_non_empty(sim: "SimWizard", field: FieldSpec, value: object) -> str | None:
    if isinstance(value, str) and value.strip():
        return None
    noun = field.noun_text
    return f"The chosen {noun} is not valid. The {noun} must not be empty."


def _v_absolute_path(sim: "SimWizard", field: FieldSpec, value: object) -> str | None:
    noun = field.noun_text
    text = value if isinstance(value, str) else ""
    if not text.strip():
        return f"The chosen {noun} is not valid. The {noun} must not be empty."
    if not _is_absolute(text):
        return f"The chosen {noun} is not valid. The path must be absolute."
    return None


def _v_optional_positive_int(sim: "SimWizard", field: FieldSpec, value: object) -> str | None:
    text = value.strip() if isinstance(value, str) else ""
    if not text:
        return None
    # int() takes only decimal digits and strips less than str.strip() does.
    if text.isdecimal() and int(text) > 0:
        return None
    return f"The {field.noun_text} must be a positive integer."


def _v_optional_mapping_file(sim: "SimWizard", field: FieldSpec, value: object) -> str | None:
    text = value if isinstance(value, str) else ""
    if not text.strip():
        return None
    if text.endswith(".xml") or text.endswith(".xsl"):
        return None
    return f"The {field.noun_text} must be a .xml or .xsl file."


def _v_require_checked(sim: "SimWizard", field: FieldSpec, value: object) -> str | None:
    return None if value is True else "The configuration must be confirmed before finishing."


def _v_at_least_one_item(sim: "SimWizard", field: FieldSpec, value: object) -> str | None:
    return None if sim.inputs else "At least one input must be defined."


VALIDATORS = {
    "non_empty": _v_non_empty,
    "absolute_path": _v_absolute_path,
    "optional_positive_int": _v_optional_positive_int,
    "optional_mapping_file": _v_optional_mapping_file,
    "require_checked": _v_require_checked,
    "at_least_one_item": _v_at_least_one_item,
}
# The field kinds that hold what a validator judges: a toggle's state, the
# inputs a list shows, or for every other validator a text. On any other
# kind a validator judges a value the field never holds, so it always fails
# or never does.
_TEXT_KINDS = frozenset({WidgetKind.EDIT, WidgetKind.COMBO_BOX})
_VALIDATED_KINDS = {
    "require_checked": frozenset({WidgetKind.CHECK_BOX, WidgetKind.RADIO_BUTTON}),
    "at_least_one_item": frozenset({WidgetKind.CONTAINER}),
}


# What a validator reads of a wizard that has no inputs yet.
_NO_INPUTS = SimpleNamespace(inputs=())

_NAV_ROLES = ("back", "next", "finish")


@dataclass(frozen=True)
class _Slot:
    """One concrete widget instance with a stable control id.

    A slot belongs to the page or the modal it names. A slot that names
    neither (the validation message, the completion note and the navigation
    buttons) is shared by every page. ``role`` is one of ``title``, ``label``,
    ``field``, ``message``, ``completion``, ``back``, ``next``, ``finish``,
    ``ok`` and ``cancel``; only a ``field`` slot has a ``field``.
    ``misaligned_rect`` is where a misaligned-rectangle fault draws it."""

    control_id: int
    kind: WidgetKind
    label: str
    rect: Rect
    misaligned_rect: Rect
    role: str
    field: FieldSpec | None = None
    page: str | None = None
    modal: str | None = None


@dataclass(frozen=True)
class _Layout:
    """A wizard config, compiled (see the module docstring). Each slot
    sequence is in tree order, and a page's ends with the shared slots. The
    tables key a slot by its page and its modal: the two may share a key."""

    title: str
    pages: tuple[PageSpec, ...]
    modals: Mapping[str, PageSpec]
    slots_by_id: Mapping[int, _Slot]
    page_slots: Mapping[str, tuple[_Slot, ...]]
    modal_slots: Mapping[str, tuple[_Slot, ...]]
    field_slots: Mapping[tuple[str | None, str | None, str], _Slot]
    role_slots: Mapping[tuple[str | None, str | None, str], _Slot]
    dialog_ids: Mapping[str, int]
    defaults: Mapping[int, str | bool]
    # Input list items take the ids after the last slot, in the order added.
    first_item_id: int
    # The node table (see the module docstring): the one mutable part, and
    # of every entry it hands out only the mark changes.
    nodes: dict[tuple, list] = dc_field(default_factory=dict, repr=False, compare=False)

    def control_id_of(self, label: str, page: str | None = None,
                      modal: str | None = None, nav: str | None = None) -> int:
        """Look up a stable control id for script authoring and tests."""
        if nav is not None:
            if nav not in _NAV_ROLES:
                raise KeyError(nav)
            return self.role_slots[None, None, nav].control_id
        if modal is None and page is None:
            raise KeyError(label)
        return self.field_slots[None if modal is not None else page, modal, label].control_id

    def modal_button_id(self, modal: str, label: str) -> int:
        role = {"OK": "ok", "Cancel": "cancel"}.get(label)
        return self.role_slots[None, modal, role].control_id


def _lay_out(title: str, pages: tuple[PageSpec, ...], modals: dict[str, PageSpec]) -> _Layout:
    """Assign control ids in a fixed order: each page (title, then a label
    and a control per field), the shared slots, then each modal (a label
    and a control per field, message, OK, Cancel)."""
    ids = itertools.count(1)
    slots_by_id: dict[int, _Slot] = {}

    def add(kind: WidgetKind, label: str, rect: Rect, role: str,
            field: FieldSpec | None = None, **owner: str) -> _Slot:
        slot = _Slot(next(ids), kind, label, rect, rect.shifted(dx=_MISALIGN_SHIFT), role, field,
                     **owner)
        slots_by_id[slot.control_id] = slot
        return slot

    def rows(fields: tuple[FieldSpec, ...], top: int, label_x: tuple[int, int],
             control_x: tuple[int, int], wide_x: tuple[int, int], list_height: int,
             **owner: str) -> list[_Slot]:
        slots = []
        for row, field in enumerate(fields):
            y = top + _ROW_STEP * row
            x, height = wide_x, 24
            if field.has_label_widget:
                slots.append(add(WidgetKind.STATIC, f"{field.label}:",
                                 Rect(label_x[0], y, label_x[1], y + 24), "label", **owner))
                x = control_x
                if field.kind is WidgetKind.CONTAINER:
                    height = list_height
            slots.append(add(field.kind, field.label, Rect(x[0], y, x[1], y + height),
                             "field", field, **owner))
        return slots

    page_slots = {}
    for page in pages:
        page_slots[page.key] = [
            add(WidgetKind.STATIC, page.title, _TITLE_RECT, "title", page=page.key),
            *rows(page.fields, _FIELD_TOP, (_LABEL_LEFT, _LABEL_RIGHT),
                  (_CONTROL_LEFT, _CONTROL_RIGHT), (_FULL_LEFT, _FULL_RIGHT), 96,
                  page=page.key)]
    shared = (add(WidgetKind.STATIC, "message", _MESSAGE_RECT, "message"),
              add(WidgetKind.STATIC, "Tool integration completed.", _COMPLETION_RECT,
                  "completion"),
              add(WidgetKind.BUTTON, "< Back", _NAV_BACK_RECT, "back"),
              add(WidgetKind.BUTTON, "Next >", _NAV_NEXT_RECT, "next"),
              add(WidgetKind.BUTTON, "Finish", _NAV_NEXT_RECT, "finish"))
    modal_slots = {}
    for key, modal in modals.items():
        control_x = (_MODAL_CONTROL_LEFT, _MODAL_CONTROL_RIGHT)
        slots = rows(modal.fields, _MODAL_FIELD_TOP, (_MODAL_LABEL_LEFT, _MODAL_LABEL_RIGHT),
                     control_x, control_x, 24, modal=key)
        message = add(WidgetKind.STATIC, "message", _MODAL_MESSAGE_RECT, "message", modal=key)
        modal_slots[key] = (*slots,
                            add(WidgetKind.BUTTON, "OK", _MODAL_OK_RECT, "ok", modal=key),
                            add(WidgetKind.BUTTON, "Cancel", _MODAL_CANCEL_RECT, "cancel",
                                modal=key),
                            message)
    field_slots = {(slot.page, slot.modal, slot.label): slot
                   for slot in slots_by_id.values() if slot.field is not None}
    return _Layout(
        title=title, pages=pages, modals=MappingProxyType(modals),
        slots_by_id=MappingProxyType(slots_by_id),
        page_slots=MappingProxyType({key: (*slots, *shared) for key, slots in page_slots.items()}),
        modal_slots=MappingProxyType(modal_slots),
        field_slots=MappingProxyType(field_slots),
        role_slots=MappingProxyType({(slot.page, slot.modal, slot.role): slot
                                     for slot in slots_by_id.values()
                                     if slot.field is None and slot.role != "label"}),
        # A modal's dialog node is never actionable; its id only needs to be unique.
        dialog_ids=MappingProxyType({key: 900_000 + index
                                     for index, key in enumerate(sorted(modals))}),
        defaults=MappingProxyType({slot.control_id: slot.field.default
                                   for slot in field_slots.values()}),
        first_item_id=next(ids))


def _cell(x: int, y: int) -> tuple[int, int]:
    """The canvas row and column of the dialog pixel (x, y), clamped inside
    the border."""
    row = 1 + (y - ROOT_RECT.top) * 38 // ROOT_RECT.height
    col = 1 + (x - ROOT_RECT.left) * 118 // ROOT_RECT.width
    return max(1, min(38, row)), max(1, min(118, col))


def _draws(text: str) -> bool:
    """Whether a text widget shows anything: the canvas draws its first line."""
    return bool(text.partition("\n")[0].strip())


def _changes_screen(layout: _Layout, fault: FaultSpec) -> bool:
    """Whether ``fault`` targets something it changes on screen: a missing
    title a page title that shows; a misaligned rectangle a field that draws
    itself (a list draws only its items, which keep their place); truncated
    text a Static or Edit field, but a fixed Static only if its first line
    runs past the cut; an error-message fault a field with a validator."""
    if fault.kind is FaultKind.MISSING_TITLE:
        title = layout.role_slots.get((fault.page, None, "title"))
        return fault.label == "title" and title is not None and _draws(title.label)
    slot = layout.field_slots.get((fault.page, None, fault.label))
    if slot is None:
        return False
    field = slot.field
    fixed = field.text if slot.kind is WidgetKind.STATIC and field.computed != "summary" \
        else None
    if fault.kind is FaultKind.MISALIGNED_RECT:
        return slot.kind is not WidgetKind.CONTAINER and (fixed is None or _draws(fixed))
    if fault.kind is FaultKind.TRUNCATED_TEXT:
        if fixed is not None:
            return len(fixed.partition("\n")[0].rstrip()) > _FAULT_TRUNCATE_AT
        return slot.kind is WidgetKind.STATIC or slot.kind is WidgetKind.EDIT
    return field.validator is not None


class SimWizard:
    """Mutable wizard state, owned by a single run. Snapshots are immutable.
    ``layout`` is shared with every wizard built from the same config and
    answers every lookup; the wizard holds only what changes during a run."""

    def __init__(self, layout: _Layout, faults: list[FaultSpec]):
        self.layout = layout
        self.faults = list(faults)

        self.current_page = 0
        self.values: dict[int, str | bool] = layout.defaults.copy()  # every field at its default
        self.modal: str | None = None  # the key of the open modal
        self.inputs: list[str] = []  # the names of the added inputs
        self.selected_input: int | None = None  # an index into ``inputs``
        self.message: str | None = None
        self.message_label: str | None = None
        self.modal_message: str | None = None
        self.finished = False

        # Per control id: the table entry of its current node (see _reuse).
        # Per (list slot id, position): where that input item is drawn.
        self._nodes: dict[int, list] = {}
        self._item_rects: dict[tuple[int, int], Rect] = {}

        for fault in self.faults:
            if not _changes_screen(layout, fault):
                raise WizardConfigError(f"unknown fault target {fault.page}/{fault.label} for "
                                        f"{fault.kind.value}")
        self._active = {(fault.kind, fault.page, fault.label)
                        for fault in self.faults if fault.active}

    # -- fault helpers -----------------------------------------------------

    def fault_reason(self, fault: FaultSpec) -> str:
        """Canonical reason string the oracle reports for one fault."""
        if fault.kind is FaultKind.TRUNCATED_TEXT:
            return f"The text of the {fault.label} is not fully visible."
        if fault.kind is FaultKind.MISALIGNED_RECT:
            return f"The {fault.label} control is misaligned with the other controls on the page."
        if fault.kind is FaultKind.MISSING_TITLE:
            title = self.layout.role_slots[fault.page, None, "title"].label
            return f"The title of the {title} page is missing."
        noun = self.layout.field_slots[fault.page, None, fault.label].field.noun_text
        if fault.kind is FaultKind.GENERIC_ERROR_MESSAGE:
            return (f"The error message 'Invalid path to {noun}' is shown although "
                    f"no {noun} was entered.")
        return f"The error message for the {noun} is still shown although the input is valid."

    # -- validation --------------------------------------------------------

    def _first_failure(self, slots: tuple[_Slot, ...]) -> tuple[str | None, str | None]:
        """Message and label of the first failing field of a page or a modal,
        in declaration order: validation is top to bottom."""
        for slot in slots:
            field = slot.field
            if field is None or field.validator is None:
                continue
            message = VALIDATORS[field.validator](self, field, self.values[slot.control_id])
            if message is not None:
                if (FaultKind.GENERIC_ERROR_MESSAGE, slot.page, slot.label) in self._active:
                    message = f"Invalid path to {field.noun_text}"
                return message, slot.label
        return None, None

    def _page_key(self) -> str:
        return self.layout.pages[self.current_page].key

    def _revalidate_page(self) -> None:
        page_key = self._page_key()
        message, label = self._first_failure(self.layout.page_slots[page_key])
        if (message is None and self.message is not None
                and (FaultKind.STALE_ERROR, page_key, self.message_label) in self._active):
            return  # the defect: the old message refuses to clear
        self.message, self.message_label = message, label

    # -- actions -----------------------------------------------------------

    def execute(self, cmd: ActionCommand) -> ExecOutcome:
        """Apply one command. Failure is a status value, never an exception."""
        slot = self.layout.slots_by_id.get(cmd.control_id)
        item = cmd.control_id - self.layout.first_item_id
        if slot is None and not 0 <= item < len(self.inputs):
            return ExecOutcome("failed", f"no widget with control_id {cmd.control_id}")

        owner = slot.modal if slot is not None else None
        if owner != self.modal:
            return ExecOutcome("failed", "blocked by an open dialog" if owner is None
                               else "not visible on the current page")

        if slot is None:  # an input list item, drawn by a list of the current page
            if not any(other.kind is WidgetKind.CONTAINER
                       for other in self.layout.page_slots[self._page_key()]):
                return ExecOutcome("failed", "not visible on the current page")
            if cmd.verb is not ActionVerb.CLICK:
                return ExecOutcome("failed",
                                   f"{cmd.verb.value} is not supported for this control")
            self.selected_input = item
            return _EXECUTED

        if slot.page is not None and slot.page != self._page_key():
            return ExecOutcome("failed", "not visible on the current page")
        permitted = KIND_VERBS.get(slot.kind)
        if permitted is None:
            return ExecOutcome("failed", "not actionable")
        if cmd.verb not in permitted:
            return ExecOutcome("failed", f"{cmd.verb.value} is not supported for this control")

        if slot.role in _NAV_ROLES:
            return self._execute_nav(slot.role)
        if slot.role == "ok":
            return self._execute_modal_ok(slot.modal)
        if slot.role == "cancel":
            self.modal = None
            self.modal_message = None
            return _EXECUTED
        return self._execute_field(slot, cmd)

    def _execute_nav(self, role: str) -> ExecOutcome:
        if role == "back":
            if self.current_page == 0:
                return ExecOutcome("failed", "already on the first page")
            self.current_page -= 1
            self.message = self.message_label = None
            return _EXECUTED
        if (role == "finish") != (self.current_page == len(self.layout.pages) - 1):
            return ExecOutcome("failed", "not visible on the current page")
        if role == "finish" and self.finished:
            return ExecOutcome("failed", "the integration is already completed")
        message, label = self._first_failure(self.layout.page_slots[self._page_key()])
        if message is not None:
            self.message, self.message_label = message, label
            return ExecOutcome("failed", message)
        if role == "finish":
            self.finished = True
        else:
            self.current_page += 1
            self.message = self.message_label = None
        return _EXECUTED

    def _execute_modal_ok(self, key: str) -> ExecOutcome:
        """Add an input named by the modal's first field. A name holding the
        combo-box item separator could never be selected."""
        slots = self.layout.modal_slots[key]
        first = next(slot for slot in slots if slot.field is not None)
        name = str(self.values[first.control_id])
        message = self._first_failure(slots)[0]
        if message is None and ITEMS_SEPARATOR in name:
            message = f"The {first.field.noun_text} must not contain {ITEMS_SEPARATOR!r}."
        if message is not None:
            self.modal_message = message
            return ExecOutcome("failed", message)
        self.inputs.append(name)
        self.modal = None
        self.modal_message = None
        self._revalidate_page()
        return _EXECUTED

    def _execute_field(self, slot: _Slot, cmd: ActionCommand) -> ExecOutcome:
        field = slot.field
        assert field is not None
        kind = slot.kind
        if kind is WidgetKind.EDIT:
            self.values[slot.control_id] = cmd.arg or ""
        elif kind is WidgetKind.COMBO_BOX:
            if cmd.arg not in self._combo_items(field):
                return ExecOutcome("failed", f"{cmd.arg!r} is not an available item")
            self.values[slot.control_id] = cmd.arg
        elif kind is WidgetKind.CHECK_BOX:
            self.values[slot.control_id] = cmd.verb is ActionVerb.CHECK
        elif kind is WidgetKind.RADIO_BUTTON:
            siblings = (self.layout.modal_slots[slot.modal] if slot.modal is not None
                        else self.layout.page_slots[slot.page])
            for other in siblings:
                if other.kind is WidgetKind.RADIO_BUTTON and other.field.group == field.group:
                    self.values[other.control_id] = other is slot
        else:  # a button: it opens a modal, or does nothing
            if field.opens is None:
                return ExecOutcome("failed", "this button has no effect")
            self.modal = field.opens
            self.modal_message = None
            for other in self.layout.modal_slots[field.opens]:
                if other.field is not None:
                    self.values[other.control_id] = other.field.default
            return _EXECUTED
        if slot.modal is not None:
            self.modal_message = self._first_failure(self.layout.modal_slots[slot.modal])[0]
        else:
            self._revalidate_page()
        return _EXECUTED

    def _combo_items(self, field: FieldSpec) -> tuple[str, ...]:
        if field.items_from == "inputs":
            return tuple(self.inputs)
        return field.items

    # -- snapshotting ------------------------------------------------------

    def _computed_text(self, field: FieldSpec) -> str:
        if field.computed != "summary":
            return field.text

        def value(page: str, label: str) -> str:
            slot = self.layout.field_slots.get((page, None, label))
            return "" if slot is None else str(self.values[slot.control_id])

        return (f"Name: {value('tool_description', 'Name') or '-'} | "
                f"Version: {value('launch_settings', 'Version') or '-'} | "
                f"Inputs: {len(self.inputs)}")

    def _node(self, slot: _Slot) -> WidgetNode | None:
        """The widget node of one slot of the current page or the open modal,
        or None if the slot is not drawn. An actionable page slot is disabled
        while a modal is open; Back, Next and Finish also when they cannot
        act. Every fault that changes how a slot is drawn is applied here."""
        role, kind, field = slot.role, slot.kind, slot.field
        class_name, rect, text, children = _CLASS_NAMES[kind], slot.rect, slot.label, ()
        disabled = slot.modal is None and self.modal is not None
        if role == "title":
            if (FaultKind.MISSING_TITLE, slot.page, "title") in self._active:
                return None
        elif role == "message":
            class_name = "ValidationMessage"
            text = self.modal_message if slot.modal is not None else self.message
            if not text:
                return None
        elif role == "completion":
            if not self.finished:
                return None
        elif role == "back":
            disabled = disabled or self.current_page == 0
        elif role == "next" or role == "finish":
            if (role == "finish") != (self.current_page == len(self.layout.pages) - 1):
                return None
            disabled = disabled or (self.finished if role == "finish" else self._first_failure(
                self.layout.page_slots[self._page_key()])[0] is not None)
        extra: tuple = _DISABLED if disabled and kind in KIND_VERBS else ()
        if field is not None:
            value = self.values[slot.control_id]
            if (FaultKind.MISALIGNED_RECT, slot.page, slot.label) in self._active:
                rect = slot.misaligned_rect
            if kind is WidgetKind.STATIC:
                text = self._computed_text(field)
            elif kind is WidgetKind.EDIT:
                text = str(value or "")
            elif kind is WidgetKind.COMBO_BOX:
                text = str(value or "")
                extra += (("selected_item", text),
                          ("items", ITEMS_SEPARATOR.join(self._combo_items(field))))
            elif kind is WidgetKind.CHECK_BOX:
                extra += (("checked", bool(value)),)
            elif kind is WidgetKind.RADIO_BUTTON:
                extra += (("selected", bool(value)),)
            elif kind is WidgetKind.CONTAINER:
                text = ""
                item_state = _DISABLED if disabled else ()
                children = tuple(self._reuse(
                    "ListItem", WidgetKind.LIST_ITEM, self.layout.first_item_id + position,
                    self._item_rect(slot, position), name,
                    (("selected", position == self.selected_input), *item_state))
                    for position, name in enumerate(self.inputs))
            # Only a Static or Edit field can have this fault (see _changes_screen).
            if (FaultKind.TRUNCATED_TEXT, slot.page, slot.label) in self._active:
                text = text[:_FAULT_TRUNCATE_AT]
        return self._reuse(class_name, kind, slot.control_id, rect, text, extra, children)

    def _item_rect(self, slot: _Slot, position: int) -> Rect:
        """Where the input item at ``position`` of a list slot is drawn."""
        rect = self._item_rects.get((slot.control_id, position))
        if rect is None:
            base, top = slot.rect, slot.rect.top + 24 * (position + 1)
            rect = self._item_rects[slot.control_id, position] = Rect(
                base.left + 10, top, base.right - 10, top + 20)
        return rect

    def _reuse(self, class_name: str, kind: WidgetKind, control_id: int, rect: Rect, text: str,
               extra: tuple[tuple[str, str | bool], ...],
               children: tuple[WidgetNode, ...] = ()) -> WidgetNode:
        """The node with these fields (WidgetNode's, ``extra`` the items of
        its extra_state), which becomes the current node of its control id:
        the current one again if its key is equal, else the table's entry of
        the key, marked as used, and a new node only if the table holds none.
        The mark is a plain store: it neither hashes the key again nor takes
        the lock. A key is the fields with each child's ``id`` in place of
        the child. That names the child: the entry that holds a key holds its
        node, and so the node's children, so no other object can take their
        ids."""
        key = (class_name, kind, control_id, rect, text, extra,
               children and tuple(map(id, children)))
        entry = self._nodes.get(control_id)
        if entry is None or entry[0] != key:
            entry = self.layout.nodes.get(key)
            if entry is None:
                entry = self._add(key, WidgetNode(
                    class_name, kind, control_id, rect, text, dict(extra), children))
            else:
                entry[-1] = True
            self._nodes[control_id] = entry
        return entry[1]

    def _add(self, key: tuple, node: WidgetNode) -> list:
        """Put a new node in the table as an unmarked entry: ``[key, node,
        row, col, line, mark]``, where and what the node draws, or for the
        root ``[key, node, canvas text, canvas digest, tree digest, mark]``.
        Past the bound, second chance makes room: the oldest entry goes if
        unmarked, and otherwise loses its mark and moves to the newest end.
        Each pass clears a mark, so one eviction ends within one lap of the
        table (plus the marks other threads set meanwhile)."""
        entry = [key, node, *(self._screen(node) if node.control_id == 0 else (
            *_cell(node.rectangle.left, node.rectangle.top), self._widget_line(node))), False]
        table = self.layout.nodes
        with _TABLE_LOCK:
            table[key] = entry
            while len(table) > _TABLE_SIZE:
                oldest = next(iter(table))
                kept = table.pop(oldest)
                if kept[-1]:
                    kept[-1] = False
                    table[oldest] = kept
        return entry

    def snapshot(self) -> WidgetNode:
        """Current GUI state as a widget tree (the GUI parser's output)."""
        layout, page_key = self.layout, self._page_key()
        children = [node for slot in layout.page_slots[page_key]
                    if (node := self._node(slot)) is not None]
        key = self.modal
        if key is not None:
            children.append(self._reuse(
                "Dialog", WidgetKind.DIALOG, layout.dialog_ids[key], _MODAL_RECT,
                layout.modals[key].title, (),
                tuple(node for slot in layout.modal_slots[key]
                      if (node := self._node(slot)) is not None)))
        return self._reuse("Dialog", WidgetKind.DIALOG, 0, ROOT_RECT, layout.title,
                           (("active_page", page_key),), tuple(children))

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _draw(canvas: list[str], row: int, col: int, text: str) -> None:
        """Write ``text`` into a row from ``col``, up to its first newline and
        short of the right border."""
        text = text[:max(0, CANVAS_WIDTH - 1 - col)].partition("\n")[0]
        if text:
            line = canvas[row]
            canvas[row] = line[:col] + text + line[col + len(text):]

    def _widget_line(self, node: WidgetNode) -> str:
        if node.kind is WidgetKind.STATIC:
            prefix = "! " if node.class_name == "ValidationMessage" else ""
            return prefix + node.text
        if node.kind is WidgetKind.EDIT:
            return f"[{node.text[:24]:<24}]"
        if node.kind is WidgetKind.COMBO_BOX:
            return f"<{node.text[:22]:<22} v>"
        if node.kind is WidgetKind.CHECK_BOX:
            mark = "x" if node.extra_state.get("checked") else " "
            return f"[{mark}] {node.text}"
        if node.kind is WidgetKind.RADIO_BUTTON:
            mark = "o" if node.extra_state.get("selected") else " "
            return f"({mark}) {node.text}"
        if node.kind is WidgetKind.BUTTON:
            return f"< {node.text} >" if node.enabled else f"( {node.text} )"
        if node.kind is WidgetKind.LIST_ITEM:
            marker = "> " if node.extra_state.get("selected") else "- "
            return marker + node.text
        return ""

    def _draw_box(self, canvas: list[str], rect: Rect) -> tuple[int, int, int, int]:
        top, left = _cell(rect.left, rect.top)
        bottom, right = _cell(rect.right, rect.bottom)
        inside = right - left - 1
        edge = "+" + "-" * inside + "+" if inside >= 0 else "+"
        body = "|" + " " * inside + "|" if inside >= 0 else "|"
        for row in range(top, bottom + 1):
            line = canvas[row]
            canvas[row] = (line[:left] + (edge if row in (top, bottom) else body)
                           + line[right + 1:])
        return top, left, bottom, right

    def _draw_node(self, canvas: list[str], node: WidgetNode) -> None:
        if node.kind is WidgetKind.DIALOG:
            top, left, _, _ = self._draw_box(canvas, node.rectangle)
            self._draw(canvas, top, left + 2, f" {node.text} ")
        else:
            # Only the wizard's own snapshot is drawn, so ``node`` is the current one.
            _, _, row, col, line, _ = self._nodes[node.control_id]
            if line:
                self._draw(canvas, row, col, line)
        for child in node.sub_elements:
            self._draw_node(canvas, child)

    def _screen(self, root: WidgetNode) -> tuple[str, str, str]:
        """The canvas text of a new root node, its digest and the tree's
        digest. Its children are the current nodes, whose entries say where
        and what they draw."""
        canvas = [_CANVAS_BODY] * CANVAS_HEIGHT
        canvas[0] = canvas[-1] = _CANVAS_EDGE
        self._draw(canvas, 1, 2, root.text)
        for child in root.sub_elements:
            self._draw_node(canvas, child)
        rendered = "\n".join(canvas)
        return rendered, _hash_text(rendered), _hash_text(serialize_tree(root))

    def render(self) -> SimScreenshot:
        """Deterministic text render of the current state; digest is stable."""
        tree = self.snapshot()
        _, _, rendered, digest, tree_digest, _ = self._nodes[0]
        return SimScreenshot(page_key=self._page_key(), rendered=rendered,
                             digest=digest, tree=tree,
                             visible_faults=self._observable_fault_indices(),
                             tree_digest=tree_digest)

    def _observable_fault_indices(self) -> frozenset[int]:
        page_key = self._page_key()
        out: set[int] = set()
        for index, fault in enumerate(self.faults):
            if not fault.active or fault.page != page_key:
                continue
            if fault.kind is FaultKind.GENERIC_ERROR_MESSAGE:
                seen = (self.message is not None and self.message.startswith("Invalid path to")
                        and self.message_label == fault.label)
            elif fault.kind is FaultKind.STALE_ERROR:
                seen = (self.message is not None and self.message_label == fault.label
                        and self._first_failure(self.layout.page_slots[page_key])[0] is None)
            else:
                seen = True
            if seen:
                out.add(index)
        return frozenset(out)


def _compile(config: object) -> _Layout:
    """The layout of a config in the schema of :func:`default_wizard_config`.
    Every list draws the inputs with the same item ids, so at most one list
    may be shown at a time: one per page, and none in a modal."""
    config = _config_object(config, _WIZARD_KEYS, "wizard config")
    page_objs = _config_value(config, "pages", list, "wizard config")
    if not page_objs:
        raise WizardConfigError("wizard config has no pages")
    pages = []
    for index, page_obj in enumerate(page_objs):
        where = f"wizard page {index}"
        page_obj = _config_object(page_obj, _PAGE_KEYS, where)
        fields = _parse_fields(page_obj, where)
        if sum(field.kind is WidgetKind.CONTAINER for field in fields) > 1:
            raise WizardConfigError(f"{where} has more than one List field")
        pages.append(PageSpec(key=_config_value(page_obj, "key", str, where),
                              title=_config_value(page_obj, "title", str, where),
                              fields=fields))
    if len({page.key for page in pages}) < len(pages):
        raise WizardConfigError("wizard config has two pages with one key")
    modals = {}
    for key, modal_obj in _config_value(config, "modals", dict, "wizard config", {}).items():
        where = f"wizard modal {key!r}"
        modal_obj = _config_object(modal_obj, _MODAL_KEYS, where)
        fields = _parse_fields(modal_obj, where)
        if not fields:
            raise WizardConfigError(f"{where} has no fields")
        if any(field.kind is WidgetKind.CONTAINER for field in fields):
            raise WizardConfigError(f"{where} has a List field; only a page may have one")
        modals[key] = PageSpec(key=key, title=_config_value(modal_obj, "title", str, where),
                                fields=fields)
    owners = [(f"wizard page {index}", page) for index, page in enumerate(pages)]
    owners += [(f"wizard modal {key!r}", modal) for key, modal in modals.items()]
    for where, owner in owners:
        for row, field in enumerate(owner.fields):
            if field.opens is not None and field.opens not in modals:
                raise WizardConfigError(f"{where} field {row} 'opens' names no modal: "
                                        f"{field.opens!r}")
    # A List, and a ComboBox that lists the inputs, hold only their default
    # until an input exists, and only a modal adds one. If the validator of
    # such a field fails on that default, its page can only be left once a
    # Button on it or on a page before it has opened a modal.
    for index, page in enumerate(pages):
        if any(field.opens is not None for field in page.fields):
            break
        for row, field in enumerate(page.fields):
            if (field.validator is not None
                    and (field.kind is WidgetKind.CONTAINER or field.items_from is not None)
                    and VALIDATORS[field.validator](_NO_INPUTS, field, field.default)):
                raise WizardConfigError(
                    f"wizard page {index} field {row} ({field.label!r}) has 'validator' "
                    f"({field.validator!r}), which fails until an input exists, but no Button "
                    f"on page {index} or before it opens a modal that adds one")
    return _lay_out(_config_value(config, "title", str, "wizard config", WIZARD_TITLE),
                    tuple(pages), modals)


# Compiled once per process; every wizard built without a config shares it.
_DEFAULT_LAYOUT = _compile(default_wizard_config())
# Its node table goes with this module. A host that drops the module from
# sys.modules, to import guiscout afresh, frees the module object at once,
# but its namespace, which its own functions hold in a cycle, only when the
# cycle collector runs: until then the table's text would stay in memory.
weakref.finalize(sys.modules[__name__], _DEFAULT_LAYOUT.nodes.clear)


def new_wizard(faults: list[FaultSpec] | None = None,
               config: dict | None = None) -> SimWizard:
    """Fresh wizard at page 0 with deterministic control-id assignment: the
    default wizard's shared layout, or ``config`` (in the schema of
    :func:`default_wizard_config`) compiled for this wizard alone.

    A config of the wrong shape (an empty one too), two pages with one key,
    two fields with one label on a page or in a modal, two lists on a page, a
    list in a modal, a field key that its kind never reads (see
    ``_KIND_KEYS``), a list validator other than ``"at_least_one_item"``, a
    ``default`` that is not a bool on a CheckBox or a RadioButton, not text
    on an Edit or a ComboBox, or on a ComboBox neither ``""`` nor one of its
    ``items``, two RadioButtons of one group that default to true, a
    ``computed`` other than ``"summary"``, an ``items_from`` other than
    ``"inputs"``, an ``opens`` that names no modal, a List or ``items_from``
    ComboBox whose validator fails before any input exists on a page that
    no Button up to it opens a modal from, or a fault that targets no field
    of the kind it changes, raises WizardConfigError.
    """
    return SimWizard(_DEFAULT_LAYOUT if config is None else _compile(config), faults or [])


def full_traversal_script() -> list[str]:
    """Controller responses that walk all six pages of the default fixture and
    touch every interactive widget. Authored against stable control ids, built
    once per process; each call returns a new list."""
    return list(_TRAVERSAL_SCRIPT)


def _traversal_script() -> tuple[str, ...]:
    layout = _DEFAULT_LAYOUT

    def cid(label: str, page: str) -> int:
        return layout.control_id_of(label, page=page)

    def nav(which: str) -> int:
        return layout.control_id_of("", nav=which)

    def modal(label: str) -> int:
        return layout.control_id_of(label, modal="add_input")

    first_item = layout.first_item_id
    steps: list[tuple[ActionCommand, str]] = [
        (ActionCommand(ActionVerb.CLICK, cid("CPACS tool", "tool_description")),
         "try the CPACS tool type to see how the form reacts"),
        (ActionCommand(ActionVerb.CLICK, cid("Standard tool", "tool_description")),
         "switch back to the standard tool type"),
        (ActionCommand(ActionVerb.SELECT, cid("Group", "tool_description"), "Analysis"),
         "put the tool into the Analysis palette group"),
        (ActionCommand(ActionVerb.SELECT, cid("Group", "tool_description"), "Optimization"),
         "change the palette group to Optimization"),
        (ActionCommand(ActionVerb.WRITE, cid("Tool Description", "tool_description"),
                       "Computes aerodynamic coefficients for a given airfoil geometry"),
         "describe what the integrated tool does"),
        (ActionCommand(ActionVerb.WRITE, cid("Name", "tool_description"), "AeroSolver"),
         "name the new workflow component"),
        (ActionCommand(ActionVerb.CLICK, nav("next")),
         "go to the Inputs and Outputs page"),
        (ActionCommand(ActionVerb.CLICK, cid("Add Input...", "inputs_outputs")),
         "open the dialog for defining a new input"),
        (ActionCommand(ActionVerb.CLICK, layout.modal_button_id("add_input", "Cancel")),
         "close the input dialog again without adding anything"),
        (ActionCommand(ActionVerb.CLICK, cid("Add Input...", "inputs_outputs")),
         "reopen the dialog to actually add an input"),
        (ActionCommand(ActionVerb.CLICK, layout.modal_button_id("add_input", "OK")),
         "confirm the dialog to see how it handles an empty name"),
        (ActionCommand(ActionVerb.WRITE, modal("Input name"), "airfoil"),
         "name the input after the airfoil geometry file"),
        (ActionCommand(ActionVerb.SELECT, modal("Data type"), "File"),
         "the airfoil geometry is exchanged as a file"),
        (ActionCommand(ActionVerb.CLICK, layout.modal_button_id("add_input", "OK")),
         "add the input and close the dialog"),
        (ActionCommand(ActionVerb.CLICK, first_item),
         "select the new input in the list"),
        (ActionCommand(ActionVerb.CLICK, nav("back")),
         "go back once to check the first page again"),
        (ActionCommand(ActionVerb.CLICK, nav("next")),
         "return to the Inputs and Outputs page"),
        (ActionCommand(ActionVerb.CLICK, nav("next")),
         "proceed to the Launch Settings page"),
        (ActionCommand(ActionVerb.WRITE, cid("Tool Directory", "launch_settings"),
                       "/opt/tools/aerosolver"),
         "point the integration at the tool installation directory"),
        (ActionCommand(ActionVerb.WRITE, cid("Version", "launch_settings"), "1.0"),
         "state the version of the integrated tool"),
        (ActionCommand(ActionVerb.WRITE, cid("Working Directory", "launch_settings"),
                       "/var/work/aerosolver"),
         "choose an absolute working directory for executions"),
        (ActionCommand(ActionVerb.WRITE, cid("Maximal Number of Instances", "launch_settings"),
                       "4"),
         "allow up to four parallel executions"),
        (ActionCommand(ActionVerb.CLICK, nav("next")),
         "proceed to the CPACS Tool Properties page"),
        (ActionCommand(ActionVerb.SELECT, cid("Incoming CPACS endpoint", "cpacs_properties"),
                       "airfoil"),
         "use the airfoil input as the incoming CPACS endpoint"),
        (ActionCommand(ActionVerb.WRITE, cid("Input mapping file", "cpacs_properties"),
                       "mapping.xml"),
         "configure a classic XML input mapping"),
        (ActionCommand(ActionVerb.CHECK, cid("Use advanced XSLT mapping", "cpacs_properties")),
         "try the advanced XSLT mapping option"),
        (ActionCommand(ActionVerb.UNCHECK, cid("Use advanced XSLT mapping", "cpacs_properties")),
         "stay with the classic mapping after all"),
        (ActionCommand(ActionVerb.CLICK, nav("next")),
         "proceed to the Review page"),
        (ActionCommand(ActionVerb.CHECK,
                       cid("I have reviewed the configuration", "review")),
         "confirm that the configuration was reviewed"),
        (ActionCommand(ActionVerb.CLICK, nav("next")),
         "proceed to the Finish page"),
        (ActionCommand(ActionVerb.CLICK, nav("finish")),
         "complete the tool integration"),
    ]
    return tuple(json.dumps({"action": format_action(cmd), "explanation": explanation})
                 for cmd, explanation in steps)


_TRAVERSAL_SCRIPT = _traversal_script()
