"""Deterministic simulated system under test: a six-page tool-integration wizard.

The wizard is a small state machine with top-to-bottom form validation, one
modal dialog level, and injectable UI defects. Snapshots are widget trees,
screenshots are fixed-size text renders, and both are pure functions of the
wizard state, so every run is exactly reproducible from the fault set and the
action sequence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field
from enum import Enum

from .actions import ActionCommand, format_action
from .agents import Verdict, VerdictState
from .prompts import DocCorpus, DocEntry
from .widgets import ActionVerb, ITEMS_SEPARATOR, KIND_VERBS, Rect, WidgetKind, WidgetNode


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


class FaultKind(Enum):
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

    def to_json_obj(self) -> dict:
        return {"kind": self.kind.value, "page": self.page, "label": self.label,
                "active": self.active}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FaultSpec":
        return cls(kind=FaultKind(obj["kind"]), page=obj["page"], label=obj["label"],
                   active=obj.get("active", True))


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
    noun: str | None = None

    @property
    def noun_text(self) -> str:
        return self.noun if self.noun is not None else self.label.lower()

    @property
    def has_label_widget(self) -> bool:
        return self.kind in (WidgetKind.EDIT, WidgetKind.COMBO_BOX, WidgetKind.CONTAINER)


@dataclass(frozen=True)
class PageSpec:
    key: str
    title: str
    fields: tuple[FieldSpec, ...]


@dataclass(frozen=True)
class ModalSpec:
    key: str
    title: str
    fields: tuple[FieldSpec, ...]


@dataclass(frozen=True)
class SimScreenshot:
    """One rendered view of the wizard: a fixed 120x40 character canvas, plus
    the widget tree it was drawn from and the indices of the faults visible in
    it; those two take no part in equality."""

    page_key: str
    rendered: str
    digest: str
    tree: WidgetNode = dc_field(compare=False)
    visible_faults: frozenset[int] = dc_field(compare=False)


@dataclass(frozen=True)
class ExecOutcome:
    status: str  # "executed" | "failed"
    reason: str | None = None

    @classmethod
    def executed(cls) -> "ExecOutcome":
        return cls("executed")

    @classmethod
    def failed(cls, reason: str) -> "ExecOutcome":
        return cls("failed", reason)


_KIND_NAMES = {
    "Static": WidgetKind.STATIC,
    "Edit": WidgetKind.EDIT,
    "ComboBox": WidgetKind.COMBO_BOX,
    "CheckBox": WidgetKind.CHECK_BOX,
    "RadioButton": WidgetKind.RADIO_BUTTON,
    "Button": WidgetKind.BUTTON,
    "List": WidgetKind.CONTAINER,
}

_CLASS_NAMES = {
    WidgetKind.STATIC: "Static",
    WidgetKind.EDIT: "Edit",
    WidgetKind.COMBO_BOX: "ComboBox",
    WidgetKind.CHECK_BOX: "CheckBox",
    WidgetKind.RADIO_BUTTON: "RadioButton",
    WidgetKind.BUTTON: "Button",
    WidgetKind.CONTAINER: "List",
    WidgetKind.DIALOG: "Dialog",
    WidgetKind.LIST_ITEM: "ListItem",
}

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


def default_doc_corpus() -> DocCorpus:
    """Documentation pages for the default fixture, keyed by wizard page."""
    return DocCorpus(entries=(
        DocEntry("tool_description", "# Tool Description\nProvide a unique name for the new "
                 "workflow component and optionally a description and a palette group."),
        DocEntry("inputs_outputs", "# Inputs and Outputs\nDefine the data the tool exchanges "
                 "with the workflow. Use \"Add Input...\" to declare an input with a name and a "
                 "data type."),
        DocEntry("launch_settings", "# Launch Settings\nConfigure the directory in which the "
                 "tool is installed, the version of the tool, the absolute path to the working "
                 "directory in which the tool shall be executed, and the maximal number of "
                 "instances that can be executed in parallel."),
        DocEntry("cpacs_properties", CPACS_DOC),
        DocEntry("review", "# Review\nCheck the summary of the configuration and confirm it "
                 "before finishing."),
        DocEntry("finish", "# Finish\nClick Finish to integrate the tool as a workflow "
                 "component."),
    ))


_MISSING = object()
_TEXT_OR_NULL = (str, type(None))


def _config_value(obj: object, key: str, kind: type | tuple[type, ...], where: str,
                  default: object = _MISSING) -> object:
    """``obj[key]`` of a wizard config, or ``default`` if the key is absent; a
    value of another type, or an absent key without a default, is an error."""
    if not isinstance(obj, dict):
        raise WizardConfigError(f"{where} must be an object, got {type(obj).__name__}")
    if key not in obj:
        if default is _MISSING:
            raise WizardConfigError(f"{where} has no {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, kind):
        raise WizardConfigError(f"{where} {key!r} has the wrong type: {value!r}")
    return value


def _parse_field(obj: object, where: str) -> FieldSpec:
    kind_name = _config_value(obj, "kind", str, where, None)
    if kind_name not in _KIND_NAMES:
        raise WizardConfigError(f"unknown field kind {kind_name!r}")
    kind = _KIND_NAMES[kind_name]
    validator = _config_value(obj, "validator", _TEXT_OR_NULL, where, None)
    if validator is not None and validator not in VALIDATORS:
        raise WizardConfigError(f"unknown validator {validator!r}")
    items = _config_value(obj, "items", list, where, [])
    if not all(isinstance(item, str) for item in items):
        raise WizardConfigError(f"{where} 'items' must all be text: {items!r}")
    toggles = kind is WidgetKind.CHECK_BOX or kind is WidgetKind.RADIO_BUTTON
    return FieldSpec(
        label=_config_value(obj, "label", str, where),
        kind=kind,
        validator=validator,
        items=tuple(items),
        items_from=_config_value(obj, "items_from", _TEXT_OR_NULL, where, None),
        default=_config_value(obj, "default", (str, bool), where, False if toggles else ""),
        text=_config_value(obj, "text", str, where, ""),
        computed=_config_value(obj, "computed", _TEXT_OR_NULL, where, None),
        opens=_config_value(obj, "opens", _TEXT_OR_NULL, where, None),
        group=_config_value(obj, "group", _TEXT_OR_NULL, where, None),
        noun=_config_value(obj, "noun", _TEXT_OR_NULL, where, None),
    )


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
    text = value if isinstance(value, str) else ""
    if not text.strip():
        return None
    if text.strip().isdigit() and int(text) > 0:
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


@dataclass
class _Slot:
    """One concrete widget instance with a stable control id."""

    control_id: int
    kind: WidgetKind
    label: str
    rect: Rect
    role: str
    page_key: str | None = None
    field: FieldSpec | None = None
    in_modal: bool = False


@dataclass
class _InputRecord:
    name: str
    data_type: str
    item_id: int
    selected: bool = False


class SimWizard:
    """Mutable wizard state, owned by a single run. Snapshots are immutable."""

    def __init__(self, pages: tuple[PageSpec, ...], modals: dict[str, ModalSpec],
                 faults: list[FaultSpec], title: str = WIZARD_TITLE):
        self.pages = pages
        self.modals = modals
        self.faults = list(faults)
        self.title = title

        self.current_page = 0
        self.values: dict[int, str | bool] = {}
        self.dialog_stack: list[str] = []
        self.inputs: list[_InputRecord] = []
        self.message: str | None = None
        self.message_label: str | None = None
        self.modal_message: str | None = None
        self.finished = False

        self._slots_by_id: dict[int, _Slot] = {}
        self._field_slot: dict[tuple[str, str], _Slot] = {}
        self._modal_field_slot: dict[tuple[str, str], _Slot] = {}
        self._nav: dict[str, _Slot] = {}
        self._page_slots: dict[str, list[_Slot]] = {}
        self._modal_slots: dict[str, list[_Slot]] = {}
        self._title_slots: dict[str, _Slot] = {}
        self._build_slots()
        self._reset_values()

        self._reported: set[int] = set()
        self._validate_faults()

    # -- construction ------------------------------------------------------

    def _build_slots(self) -> None:
        next_id = iter(range(1, 1_000_000))

        def take() -> int:
            return next(next_id)

        for page in self.pages:
            slots: list[_Slot] = []
            self._title_slots[page.key] = _Slot(take(), WidgetKind.STATIC, "title",
                                                _TITLE_RECT, "title", page.key)
            for row, field in enumerate(page.fields):
                top = _FIELD_TOP + _ROW_STEP * row
                if field.has_label_widget:
                    label_rect = Rect(_LABEL_LEFT, top, _LABEL_RIGHT, top + 24)
                    slots.append(_Slot(take(), WidgetKind.STATIC, field.label,
                                       label_rect, "label", page.key, field))
                    rect = Rect(_CONTROL_LEFT, top, _CONTROL_RIGHT,
                                top + (96 if field.kind is WidgetKind.CONTAINER else 24))
                else:
                    rect = Rect(_FULL_LEFT, top, _FULL_RIGHT, top + 24)
                slot = _Slot(take(), field.kind, field.label, rect, "field", page.key, field)
                slots.append(slot)
                self._field_slot[(page.key, field.label)] = slot
            self._page_slots[page.key] = slots

        self._message_slot = _Slot(take(), WidgetKind.STATIC, "message", _MESSAGE_RECT, "message")
        self._completion_slot = _Slot(take(), WidgetKind.STATIC, "completion",
                                      _COMPLETION_RECT, "completion")
        self._nav["back"] = _Slot(take(), WidgetKind.BUTTON, "< Back", _NAV_BACK_RECT, "nav:back")
        self._nav["next"] = _Slot(take(), WidgetKind.BUTTON, "Next >", _NAV_NEXT_RECT, "nav:next")
        self._nav["finish"] = _Slot(take(), WidgetKind.BUTTON, "Finish", _NAV_NEXT_RECT,
                                    "nav:finish")

        for key, modal in self.modals.items():
            slots = []
            for row, field in enumerate(modal.fields):
                top = _MODAL_FIELD_TOP + _ROW_STEP * row
                if field.has_label_widget:
                    label_rect = Rect(_MODAL_LABEL_LEFT, top, _MODAL_LABEL_RIGHT, top + 24)
                    slots.append(_Slot(take(), WidgetKind.STATIC, field.label, label_rect,
                                       "modal_label", None, field, in_modal=True))
                rect = Rect(_MODAL_CONTROL_LEFT, top, _MODAL_CONTROL_RIGHT, top + 24)
                slot = _Slot(take(), field.kind, field.label, rect, "modal_field", None, field,
                             in_modal=True)
                slots.append(slot)
                self._modal_field_slot[(key, field.label)] = slot
            self._modal_message_slot = _Slot(take(), WidgetKind.STATIC, "message",
                                             _MODAL_MESSAGE_RECT, "modal_message", in_modal=True)
            slots.append(_Slot(take(), WidgetKind.BUTTON, "OK", _MODAL_OK_RECT, "modal_ok",
                               in_modal=True))
            slots.append(_Slot(take(), WidgetKind.BUTTON, "Cancel", _MODAL_CANCEL_RECT,
                               "modal_cancel", in_modal=True))
            self._modal_slots[key] = slots

        for slot_list in self._page_slots.values():
            for slot in slot_list:
                self._slots_by_id[slot.control_id] = slot
        for slot in self._title_slots.values():
            self._slots_by_id[slot.control_id] = slot
        for slot in (self._message_slot, self._completion_slot, *self._nav.values()):
            self._slots_by_id[slot.control_id] = slot
        for slot_list in self._modal_slots.values():
            for slot in slot_list:
                self._slots_by_id[slot.control_id] = slot
        if self._modal_slots:
            self._slots_by_id[self._modal_message_slot.control_id] = self._modal_message_slot

        self._dynamic_next_id = max(self._slots_by_id) + 1

    def _reset_values(self) -> None:
        for (page_key, label), slot in self._field_slot.items():
            assert slot.field is not None
            self.values[slot.control_id] = slot.field.default
        for (modal_key, label), slot in self._modal_field_slot.items():
            assert slot.field is not None
            self.values[slot.control_id] = slot.field.default

    def _validate_faults(self) -> None:
        page_keys = {page.key for page in self.pages}
        for fault in self.faults:
            if fault.page not in page_keys:
                raise WizardConfigError(f"unknown fault target {fault.page}/{fault.label}")
            if fault.label == "title":
                continue
            if (fault.page, fault.label) not in self._field_slot:
                raise WizardConfigError(f"unknown fault target {fault.page}/{fault.label}")

    # -- fault helpers -----------------------------------------------------

    def _active_fault(self, kind: FaultKind, page: str, label: str | None) -> FaultSpec | None:
        for fault in self.faults:
            if fault.active and fault.kind is kind and fault.page == page and fault.label == label:
                return fault
        return None

    def fault_reason(self, fault: FaultSpec) -> str:
        """Canonical reason string the oracle reports for one fault."""
        if fault.kind is FaultKind.TRUNCATED_TEXT:
            return f"The text of the {fault.label} is not fully visible."
        if fault.kind is FaultKind.MISALIGNED_RECT:
            return f"The {fault.label} control is misaligned with the other controls on the page."
        if fault.kind is FaultKind.MISSING_TITLE:
            title = next(p.title for p in self.pages if p.key == fault.page)
            return f"The title of the {title} page is missing."
        noun = self._field_slot[(fault.page, fault.label)].field.noun_text
        if fault.kind is FaultKind.GENERIC_ERROR_MESSAGE:
            return (f"The error message 'Invalid path to {noun}' is shown although "
                    f"no {noun} was entered.")
        return f"The error message for the {noun} is still shown although the input is valid."

    # -- validation --------------------------------------------------------

    def _first_failure(self, page: PageSpec) -> tuple[str | None, str | None]:
        """First failing field in declaration order: validation is top to bottom."""
        for field in page.fields:
            if field.validator is None:
                continue
            slot = self._field_slot[(page.key, field.label)]
            message = VALIDATORS[field.validator](self, field, self.values.get(slot.control_id))
            if message is not None:
                if self._active_fault(FaultKind.GENERIC_ERROR_MESSAGE, page.key, field.label):
                    message = f"Invalid path to {field.noun_text}"
                return message, field.label
        return None, None

    def _page_valid(self) -> bool:
        return self._first_failure(self.pages[self.current_page])[0] is None

    def _revalidate_page(self) -> None:
        message, label = self._first_failure(self.pages[self.current_page])
        if message is None and self.message is not None:
            page_key = self.pages[self.current_page].key
            if self._active_fault(FaultKind.STALE_ERROR, page_key, self.message_label):
                return  # the defect: the old message refuses to clear
        self.message, self.message_label = message, label

    def _revalidate_modal(self) -> None:
        modal = self.modals[self.dialog_stack[-1]]
        for field in modal.fields:
            if field.validator is None:
                continue
            slot = self._modal_field_slot[(modal.key, field.label)]
            message = VALIDATORS[field.validator](self, field, self.values.get(slot.control_id))
            if message is not None:
                self.modal_message = message
                return
        self.modal_message = None

    def _clear_message(self) -> None:
        self.message = None
        self.message_label = None

    # -- actions -----------------------------------------------------------

    def execute(self, cmd: ActionCommand) -> ExecOutcome:
        """Apply one command. Failure is a status value, never an exception."""
        slot = self._slots_by_id.get(cmd.control_id)
        record = self._input_record_by_id(cmd.control_id)
        if slot is None and record is None:
            return ExecOutcome.failed(f"no widget with control_id {cmd.control_id}")

        modal_open = bool(self.dialog_stack)
        in_modal = record is None and slot is not None and slot.in_modal
        if modal_open and not in_modal and record is None:
            return ExecOutcome.failed("blocked by an open dialog")
        if not modal_open and in_modal:
            return ExecOutcome.failed("not visible on the current page")

        if record is not None:
            if modal_open:
                return ExecOutcome.failed("blocked by an open dialog")
            if cmd.verb is not ActionVerb.CLICK:
                return ExecOutcome.failed(f"{cmd.verb.value} is not supported for this control")
            for item in self.inputs:
                item.selected = item is record
            return ExecOutcome.executed()

        assert slot is not None
        page_key = self.pages[self.current_page].key
        if slot.page_key is not None and slot.page_key != page_key:
            return ExecOutcome.failed("not visible on the current page")

        permitted = KIND_VERBS.get(slot.kind)
        if permitted is None:
            return ExecOutcome.failed("not actionable")
        if cmd.verb not in permitted:
            return ExecOutcome.failed(f"{cmd.verb.value} is not supported for this control")

        if slot.role.startswith("nav:"):
            return self._execute_nav(slot.role[4:])
        if slot.role == "modal_ok":
            return self._execute_modal_ok()
        if slot.role == "modal_cancel":
            self.dialog_stack.clear()
            self.modal_message = None
            return ExecOutcome.executed()
        if slot.role == "modal_field":
            return self._execute_field(slot, cmd, modal=True)
        if slot.role == "field":
            return self._execute_field(slot, cmd, modal=False)
        return ExecOutcome.failed("not actionable")

    def _execute_nav(self, which: str) -> ExecOutcome:
        if which == "back":
            if self.current_page == 0:
                return ExecOutcome.failed("already on the first page")
            self.current_page -= 1
            self._clear_message()
            return ExecOutcome.executed()
        if which == "next":
            if self.current_page >= len(self.pages) - 1:
                return ExecOutcome.failed("not visible on the current page")
            message, label = self._first_failure(self.pages[self.current_page])
            if message is not None:
                self.message, self.message_label = message, label
                return ExecOutcome.failed(message)
            self.current_page += 1
            self._clear_message()
            return ExecOutcome.executed()
        # finish
        if self.current_page != len(self.pages) - 1:
            return ExecOutcome.failed("not visible on the current page")
        if self.finished:
            return ExecOutcome.failed("the integration is already completed")
        message, label = self._first_failure(self.pages[self.current_page])
        if message is not None:
            self.message, self.message_label = message, label
            return ExecOutcome.failed(message)
        self.finished = True
        return ExecOutcome.executed()

    def _execute_modal_ok(self) -> ExecOutcome:
        modal = self.modals[self.dialog_stack[-1]]
        for field in modal.fields:
            if field.validator is None:
                continue
            slot = self._modal_field_slot[(modal.key, field.label)]
            message = VALIDATORS[field.validator](self, field, self.values.get(slot.control_id))
            if message is not None:
                self.modal_message = message
                return ExecOutcome.failed(message)
        name_slot = self._modal_field_slot[(modal.key, modal.fields[0].label)]
        type_slot = self._modal_field_slot.get((modal.key, modal.fields[1].label)) \
            if len(modal.fields) > 1 else None
        name = str(self.values.get(name_slot.control_id, ""))
        data_type = str(self.values.get(type_slot.control_id, "")) if type_slot else ""
        self.inputs.append(_InputRecord(name=name, data_type=data_type,
                                        item_id=self._dynamic_next_id))
        self._dynamic_next_id += 1
        self.dialog_stack.clear()
        self.modal_message = None
        self._revalidate_page()
        return ExecOutcome.executed()

    def _execute_field(self, slot: _Slot, cmd: ActionCommand, modal: bool) -> ExecOutcome:
        assert slot.field is not None
        kind = slot.kind
        if kind is WidgetKind.EDIT:
            self.values[slot.control_id] = cmd.arg or ""
        elif kind is WidgetKind.COMBO_BOX:
            items = self._combo_items(slot.field)
            if cmd.arg not in items:
                return ExecOutcome.failed(f"{cmd.arg!r} is not an available item")
            self.values[slot.control_id] = cmd.arg
        elif kind is WidgetKind.CHECK_BOX:
            self.values[slot.control_id] = cmd.verb is ActionVerb.CHECK
        elif kind is WidgetKind.RADIO_BUTTON:
            page_key = slot.page_key
            for other in self._page_slots.get(page_key or "", []):
                if (other.kind is WidgetKind.RADIO_BUTTON and other.field is not None
                        and other.field.group == slot.field.group):
                    self.values[other.control_id] = other is slot
        elif kind is WidgetKind.BUTTON:
            if slot.field.opens:
                if slot.field.opens not in self.modals:
                    return ExecOutcome.failed("this button has no effect")
                self.dialog_stack.append(slot.field.opens)
                self.modal_message = None
                for field in self.modals[slot.field.opens].fields:
                    fslot = self._modal_field_slot[(slot.field.opens, field.label)]
                    self.values[fslot.control_id] = field.default
                return ExecOutcome.executed()
            return ExecOutcome.failed("this button has no effect")
        else:
            return ExecOutcome.failed("not actionable")
        if modal:
            self._revalidate_modal()
        else:
            self._revalidate_page()
        return ExecOutcome.executed()

    def _input_record_by_id(self, control_id: int) -> _InputRecord | None:
        for record in self.inputs:
            if record.item_id == control_id:
                return record
        return None

    def _combo_items(self, field: FieldSpec) -> tuple[str, ...]:
        if field.items_from == "inputs":
            return tuple(record.name for record in self.inputs)
        return field.items

    # -- snapshotting ------------------------------------------------------

    def control_id_of(self, label: str, page: str | None = None,
                      modal: str | None = None, nav: str | None = None) -> int:
        """Look up a stable control id for script authoring and tests."""
        if nav is not None:
            return self._nav[nav].control_id
        if modal is not None:
            return self._modal_field_slot[(modal, label)].control_id
        if page is not None:
            return self._field_slot[(page, label)].control_id
        raise KeyError(label)

    def modal_button_id(self, modal: str, label: str) -> int:
        for slot in self._modal_slots[modal]:
            if slot.role in ("modal_ok", "modal_cancel") and slot.label == label:
                return slot.control_id
        raise KeyError(label)

    @property
    def first_dynamic_id(self) -> int:
        return self._dynamic_next_id

    def _slot_rect(self, slot: _Slot, page_key: str) -> Rect:
        if slot.field is not None and self._active_fault(
                FaultKind.MISALIGNED_RECT, page_key, slot.label) and slot.role == "field":
            return slot.rect.shifted(dx=_MISALIGN_SHIFT)
        return slot.rect

    def _slot_text(self, slot: _Slot, page_key: str, text: str) -> str:
        if slot.role == "field" and self._active_fault(
                FaultKind.TRUNCATED_TEXT, page_key, slot.label):
            return text[:_FAULT_TRUNCATE_AT]
        return text

    def _computed_text(self, field: FieldSpec) -> str:
        if field.computed == "summary":
            name = ""
            version = ""
            name_slot = self._field_slot.get(("tool_description", "Name"))
            if name_slot is not None:
                name = str(self.values.get(name_slot.control_id, ""))
            version_slot = self._field_slot.get(("launch_settings", "Version"))
            if version_slot is not None:
                version = str(self.values.get(version_slot.control_id, ""))
            return (f"Name: {name or '-'} | Version: {version or '-'} | "
                    f"Inputs: {len(self.inputs)}")
        return field.text

    def _field_node(self, slot: _Slot, page_key: str, disabled: bool) -> WidgetNode:
        assert slot.field is not None
        field = slot.field
        rect = self._slot_rect(slot, page_key)
        extra: dict[str, str | bool] = {}
        if disabled and slot.kind in KIND_VERBS:
            extra["enabled"] = False
        value = self.values.get(slot.control_id)
        text = ""
        children: tuple[WidgetNode, ...] = ()
        if slot.kind is WidgetKind.STATIC:
            text = self._slot_text(slot, page_key, self._computed_text(field))
        elif slot.kind is WidgetKind.EDIT:
            text = self._slot_text(slot, page_key, str(value or ""))
        elif slot.kind is WidgetKind.COMBO_BOX:
            text = str(value or "")
            extra["selected_item"] = text
            extra["items"] = ITEMS_SEPARATOR.join(self._combo_items(field))
        elif slot.kind is WidgetKind.CHECK_BOX:
            text = field.label
            extra["checked"] = bool(value)
        elif slot.kind is WidgetKind.RADIO_BUTTON:
            text = field.label
            extra["selected"] = bool(value)
        elif slot.kind is WidgetKind.BUTTON:
            text = field.label
        elif slot.kind is WidgetKind.CONTAINER:
            items = []
            base = slot.rect
            for index, record in enumerate(self.inputs):
                item_rect = Rect(base.left + 10, base.top + 24 * (index + 1),
                                 base.right - 10, base.top + 24 * (index + 1) + 20)
                item_extra: dict[str, str | bool] = {"selected": record.selected}
                if disabled:
                    item_extra["enabled"] = False
                items.append(WidgetNode(
                    class_name="ListItem", kind=WidgetKind.LIST_ITEM,
                    control_id=record.item_id, rectangle=item_rect, text=record.name,
                    extra_state=item_extra))
            children = tuple(items)
        return WidgetNode(
            class_name=_CLASS_NAMES[slot.kind], kind=slot.kind, control_id=slot.control_id,
            rectangle=rect, text=text, extra_state=extra, sub_elements=children)

    def _static_node(self, slot: _Slot, text: str, class_name: str = "Static") -> WidgetNode:
        return WidgetNode(class_name=class_name, kind=WidgetKind.STATIC,
                          control_id=slot.control_id, rectangle=slot.rect, text=text)

    def _button_node(self, slot: _Slot, enabled: bool) -> WidgetNode:
        extra: dict[str, str | bool] = {}
        if not enabled:
            extra["enabled"] = False
        return WidgetNode(class_name="Button", kind=WidgetKind.BUTTON,
                          control_id=slot.control_id, rectangle=slot.rect, text=slot.label,
                          extra_state=extra)

    def _modal_node(self, key: str) -> WidgetNode:
        modal = self.modals[key]
        children: list[WidgetNode] = []
        for slot in self._modal_slots[key]:
            if slot.role == "modal_label":
                children.append(self._static_node(slot, f"{slot.label}:"))
            elif slot.role == "modal_field":
                children.append(self._field_node(slot, page_key="", disabled=False))
            else:  # OK / Cancel
                children.append(self._button_node(slot, enabled=True))
        if self.modal_message:
            children.append(self._static_node(self._modal_message_slot, self.modal_message,
                                              class_name="ValidationMessage"))
        return WidgetNode(class_name="Dialog", kind=WidgetKind.DIALOG,
                          control_id=self._modal_slots_dialog_id(key), rectangle=_MODAL_RECT,
                          text=modal.title, sub_elements=tuple(children))

    def _modal_slots_dialog_id(self, key: str) -> int:
        # The modal dialog node reuses a stable synthetic id derived from its
        # first slot; it is never actionable so it only needs uniqueness.
        return 900_000 + sorted(self.modals).index(key)

    def snapshot(self) -> WidgetNode:
        """Current GUI state as a widget tree (the GUI parser's output)."""
        page = self.pages[self.current_page]
        modal_open = bool(self.dialog_stack)
        children: list[WidgetNode] = []
        if not self._active_fault(FaultKind.MISSING_TITLE, page.key, "title"):
            children.append(self._static_node(self._title_slots[page.key], page.title))
        for slot in self._page_slots[page.key]:
            if slot.role == "label":
                children.append(self._static_node(slot, f"{slot.label}:"))
            else:
                children.append(self._field_node(slot, page.key, disabled=modal_open))
        if self.message:
            children.append(self._static_node(self._message_slot, self.message,
                                              class_name="ValidationMessage"))
        if self.finished:
            children.append(self._static_node(self._completion_slot,
                                              "Tool integration completed."))
        children.append(self._button_node(self._nav["back"],
                                          enabled=self.current_page > 0 and not modal_open))
        last_page = self.current_page == len(self.pages) - 1
        if not last_page:
            children.append(self._button_node(self._nav["next"],
                                              enabled=self._page_valid() and not modal_open))
        else:
            children.append(self._button_node(self._nav["finish"],
                                              enabled=not self.finished and not modal_open))
        if modal_open:
            children.append(self._modal_node(self.dialog_stack[-1]))
        return WidgetNode(
            class_name="Dialog", kind=WidgetKind.DIALOG, control_id=0, rectangle=ROOT_RECT,
            text=self.title, extra_state={"active_page": page.key},
            sub_elements=tuple(children))

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _cell(rect: Rect, base: Rect) -> tuple[int, int]:
        row = 1 + (rect.top - base.top) * 38 // base.height
        col = 1 + (rect.left - base.left) * 118 // base.width
        return max(1, min(38, row)), max(1, min(118, col))

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
        top, left = self._cell(rect, ROOT_RECT)
        bottom = max(1, min(38, 1 + (rect.bottom - ROOT_RECT.top) * 38 // ROOT_RECT.height))
        right = max(1, min(118, 1 + (rect.right - ROOT_RECT.left) * 118 // ROOT_RECT.width))
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
            for child in node.sub_elements:
                self._draw_node(canvas, child)
            return
        line = self._widget_line(node)
        if line:
            row, col = self._cell(node.rectangle, ROOT_RECT)
            self._draw(canvas, row, col, line)
        for child in node.sub_elements:
            self._draw_node(canvas, child)

    def render(self) -> SimScreenshot:
        """Deterministic text render of the current state; digest is stable."""
        tree = self.snapshot()
        canvas = [_CANVAS_BODY] * CANVAS_HEIGHT
        canvas[0] = canvas[-1] = _CANVAS_EDGE
        self._draw(canvas, 1, 2, tree.text)
        for child in tree.sub_elements:
            self._draw_node(canvas, child)
        rendered = "\n".join(canvas)
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
        return SimScreenshot(page_key=self.pages[self.current_page].key, rendered=rendered,
                             digest=digest, tree=tree,
                             visible_faults=self._observable_fault_indices())

    # -- the deterministic evaluator stand-in -------------------------------

    def _observable_fault_indices(self) -> frozenset[int]:
        page = self.pages[self.current_page]
        page_clean = self._first_failure(page)[0] is None
        out: set[int] = set()
        for index, fault in enumerate(self.faults):
            if not fault.active:
                continue
            if fault.kind in (FaultKind.TRUNCATED_TEXT, FaultKind.MISALIGNED_RECT,
                              FaultKind.MISSING_TITLE):
                if fault.page == page.key:
                    out.add(index)
            elif fault.kind is FaultKind.GENERIC_ERROR_MESSAGE:
                if (fault.page == page.key and self.message is not None
                        and self.message.startswith("Invalid path to")
                        and self.message_label == fault.label):
                    out.add(index)
            elif fault.kind is FaultKind.STALE_ERROR:
                if (fault.page == page.key and self.message is not None
                        and self.message_label == fault.label and page_clean):
                    out.add(index)
        return frozenset(out)

    def oracle_evaluate(self, before: SimScreenshot, after: SimScreenshot,
                        cmd: ActionCommand | None = None) -> Verdict:
        """Ground-truth evaluator: reports each active fault exactly once, at
        the first evaluation in which its effect is visible."""
        visible = before.visible_faults | after.visible_faults
        pending = sorted(index for index in visible if index not in self._reported)
        if pending:
            index = pending[0]
            self._reported.add(index)
            return Verdict(VerdictState.PROBLEM, self.fault_reason(self.faults[index]))
        return Verdict(VerdictState.OKAY)


def build_wizard(config: dict, faults: list[FaultSpec]) -> SimWizard:
    """A wizard for a config in the schema of :func:`default_wizard_config`.

    A config of the wrong shape, or a fault naming no field of it, raises
    WizardConfigError.
    """
    page_objs = _config_value(config, "pages", list, "wizard config")
    if not page_objs:
        raise WizardConfigError("wizard config has no pages")
    pages = []
    for index, page_obj in enumerate(page_objs):
        where = f"wizard page {index}"
        fields = tuple(_parse_field(f, f"{where} field {row}") for row, f
                       in enumerate(_config_value(page_obj, "fields", list, where)))
        pages.append(PageSpec(key=_config_value(page_obj, "key", str, where),
                              title=_config_value(page_obj, "title", str, where),
                              fields=fields))
    modals = {}
    for key, modal_obj in _config_value(config, "modals", dict, "wizard config", {}).items():
        where = f"wizard modal {key!r}"
        field_objs = _config_value(modal_obj, "fields", list, where)
        if not field_objs:
            raise WizardConfigError(f"{where} has no fields")
        modals[key] = ModalSpec(key=key, title=_config_value(modal_obj, "title", str, where),
                                fields=tuple(_parse_field(f, f"{where} field {row}")
                                             for row, f in enumerate(field_objs)))
    return SimWizard(pages=tuple(pages), modals=modals, faults=faults,
                     title=_config_value(config, "title", str, "wizard config", WIZARD_TITLE))


def new_wizard(faults: list[FaultSpec] | None = None,
               config: dict | None = None) -> SimWizard:
    """Fresh wizard at page 0 with deterministic control-id assignment."""
    return build_wizard(config or default_wizard_config(), list(faults or []))


def full_traversal_script(config: dict | None = None) -> list[str]:
    """Controller responses that walk all six pages of the default fixture and
    touch every interactive widget. Authored against stable control ids."""
    sim = new_wizard([], config)

    def cid(label: str, page: str) -> int:
        return sim.control_id_of(label, page=page)

    def nav(which: str) -> int:
        return sim.control_id_of("", nav=which)

    def modal(label: str) -> int:
        return sim.control_id_of(label, modal="add_input")

    first_item = sim.first_dynamic_id
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
        (ActionCommand(ActionVerb.CLICK, sim.modal_button_id("add_input", "Cancel")),
         "close the input dialog again without adding anything"),
        (ActionCommand(ActionVerb.CLICK, cid("Add Input...", "inputs_outputs")),
         "reopen the dialog to actually add an input"),
        (ActionCommand(ActionVerb.CLICK, sim.modal_button_id("add_input", "OK")),
         "confirm the dialog to see how it handles an empty name"),
        (ActionCommand(ActionVerb.WRITE, modal("Input name"), "airfoil"),
         "name the input after the airfoil geometry file"),
        (ActionCommand(ActionVerb.SELECT, modal("Data type"), "File"),
         "the airfoil geometry is exchanged as a file"),
        (ActionCommand(ActionVerb.CLICK, sim.modal_button_id("add_input", "OK")),
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
    return [json.dumps({"action": format_action(cmd), "explanation": explanation})
            for cmd, explanation in steps]
