import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guiscout.actions import (ARG_VERBS, ActionCommand, format_action, parse_action,
                              parse_controller_output)
from guiscout import simulator
from guiscout.agents import AgentRequest, OracleAgent, parse_verdict
from guiscout.harness import RunConfig, run
from guiscout.prompts import build_evaluator_prompt
from guiscout.simulator import (
    CANVAS_HEIGHT,
    CANVAS_WIDTH,
    DESCRIPTION_HELP,
    ROOT_RECT,
    VALIDATORS,
    FaultKind,
    FaultSpec,
    FieldSpec,
    SimWizard,
    WizardConfigError,
    default_fault_set,
    default_wizard_config,
    full_traversal_script,
    new_wizard,
)
from guiscout.widgets import (
    ActionVerb,
    Rect,
    WidgetKind,
    WidgetNode,
    possible_actions,
    serialize_tree,
)

from conftest import find_widget

PAGES = ("tool_description", "inputs_outputs", "launch_settings",
         "cpacs_properties", "review", "finish")


def click(sim, control_id):
    return sim.execute(ActionCommand(ActionVerb.CLICK, control_id))


def write(sim, control_id, text):
    return sim.execute(ActionCommand(ActionVerb.WRITE, control_id, text))


def goto_launch_settings(sim):
    sim.current_page = 2


# --- construction ----------------------------------------------------------

def test_fresh_wizard_has_the_dialog_root_title():
    sim = new_wizard()
    tree = sim.snapshot()
    assert tree.kind is WidgetKind.DIALOG
    assert tree.text == "Integrate a Tool as a Workflow Component"
    assert tree.extra_state["active_page"] == "tool_description"


def test_same_arguments_twice_give_identical_snapshots_and_digests():
    a = new_wizard(default_fault_set())
    b = new_wizard(default_fault_set())
    assert a.snapshot() == b.snapshot()
    assert a.render().digest == b.render().digest


@pytest.mark.parametrize("fault", [
    FaultSpec(FaultKind.TRUNCATED_TEXT, "tool_description", "No Such Field"),
    FaultSpec(FaultKind.MISSING_TITLE, "no_such_page", "title"),
    # Each of these would change nothing on screen.
    FaultSpec(FaultKind.TRUNCATED_TEXT, "tool_description", "Group"),
    FaultSpec(FaultKind.TRUNCATED_TEXT, "tool_description", "title"),
    FaultSpec(FaultKind.MISSING_TITLE, "tool_description", "Name"),
    FaultSpec(FaultKind.MISALIGNED_RECT, "tool_description", "title"),
], ids=lambda fault: f"{fault.kind.value}-{fault.page}-{fault.label}")
def test_unknown_fault_target_is_a_construction_error(fault):
    with pytest.raises(WizardConfigError, match="unknown fault target"):
        new_wizard([fault])


def test_every_fault_kind_builds_on_a_target_it_changes():
    new_wizard(default_fault_set())
    new_wizard(CUSTOM_FAULTS, CUSTOM_WIZARD)
    new_wizard([FaultSpec(FaultKind.TRUNCATED_TEXT, "cpacs_properties", "Input mapping file")])


def _with_note_page(title: str, text: str) -> dict:
    config = default_wizard_config()
    config["pages"].append({"key": "extra", "title": title,
                            "fields": [{"label": "Note", "kind": "Static", "text": text}]})
    return config


@pytest.mark.parametrize("fault, config", [
    # A list draws only its items, which keep their place.
    (FaultSpec(FaultKind.MISALIGNED_RECT, "inputs_outputs", "Inputs"), None),
    (FaultSpec(FaultKind.MISALIGNED_RECT, "extra", "Note"), _with_note_page("Extra", "")),
    (FaultSpec(FaultKind.TRUNCATED_TEXT, "extra", "Note"), _with_note_page("Extra", "x" * 40)),
    # The canvas draws only the first line, and this one is short.
    (FaultSpec(FaultKind.TRUNCATED_TEXT, "extra", "Note"),
     _with_note_page("Extra", "short\n" + "x" * 60)),
    (FaultSpec(FaultKind.MISSING_TITLE, "extra", "title"), _with_note_page("", "x")),
    (FaultSpec(FaultKind.GENERIC_ERROR_MESSAGE, "tool_description", "Tool Description"), None),
    (FaultSpec(FaultKind.STALE_ERROR, "tool_description", "Group"), None),
], ids=["list", "blank-static", "short-static", "short-first-line", "empty-title",
        "generic-without-validator", "stale-without-validator"])
def test_a_fault_that_can_never_change_the_screenshot_is_a_construction_error(fault, config):
    with pytest.raises(WizardConfigError, match="unknown fault target"):
        new_wizard([fault], config)


def test_truncating_a_static_whose_first_line_runs_past_the_cut_changes_the_screenshot():
    config = _with_note_page("Extra", "x" * 41)
    faulty = new_wizard([FaultSpec(FaultKind.TRUNCATED_TEXT, "extra", "Note")], config)
    clean = new_wizard(config=config)
    for sim in (faulty, clean):
        sim.current_page = len(sim.layout.pages) - 1
    assert faulty.render().digest != clean.render().digest


@pytest.mark.parametrize("path, key", [
    ((), "titel"),
    (("pages", 0), "feilds"),
    (("modals", "add_input"), "key"),
    (("pages", 0, "fields", 1), "validater"),
    (("modals", "add_input", "fields", 0), "noun"),
], ids=["wizard", "page", "modal", "page-field", "modal-field"])
def test_an_unknown_wizard_key_is_a_construction_error_naming_it(path, key):
    config = default_wizard_config()
    target = config
    for step in path:
        target = target[step]
    target[key] = "non_empty"
    with pytest.raises(WizardConfigError, match=re.escape(repr(key))):
        new_wizard(config=config)


@pytest.mark.parametrize("path, value", [
    (("pages", 4, "fields", 0, "computed"), "summry"),
    (("pages", 3, "fields", 1, "items_from"), "input"),
    (("pages", 1, "fields", 1, "opens"), "add_inpt"),
    (("modals", "add_input", "fields", 0, "opens"), "add_inpt"),
], ids=["computed", "items_from", "page-opens", "modal-opens"])
def test_a_misspelt_name_is_a_construction_error_naming_it(path, value):
    """Each value compiled at one time into a field that drew or did nothing."""
    with pytest.raises(WizardConfigError,
                       match=re.escape(f"'{path[-1]}'") + ".*" + re.escape(repr(value))):
        new_wizard(config=_config_with(path, value))


@pytest.mark.parametrize("path, value, kind", [
    (("pages", 0, "fields", 1, "opens"), "add_input", "Edit"),
    (("pages", 0, "fields", 1, "items_from"), "inputs", "Edit"),
    (("pages", 0, "fields", 1, "computed"), "summary", "Edit"),
    (("pages", 0, "fields", 3, "opens"), "add_input", "ComboBox"),
    (("pages", 1, "fields", 1, "items_from"), "inputs", "Button"),
    (("pages", 3, "fields", 1, "computed"), "summary", "ComboBox"),
    (("pages", 4, "fields", 0, "items_from"), "inputs", "Static"),
    (("modals", "add_input", "fields", 1, "opens"), "add_input", "ComboBox"),
], ids=["edit-opens", "edit-items-from", "edit-computed", "combo-opens", "button-items-from",
        "combo-computed", "static-items-from", "modal-combo-opens"])
def test_a_naming_key_on_a_kind_that_never_reads_it_is_a_construction_error(path, value, kind):
    """Each of these compiled at one time into a field that ignored the key:
    a write to an Edit that ``opens`` a modal executed without opening it."""
    where = (f"wizard page {path[1]}" if path[0] == "pages" else f"wizard modal {path[1]!r}")
    with pytest.raises(WizardConfigError, match=re.escape(
            f"{where} field {path[3]} has '{path[4]}' ({value!r}), which kind '{kind}' never "
            "reads")):
        new_wizard(config=_config_with(path, value))


# A field value its kind cannot use: the path to it in the default wizard,
# the value and the field's kind. Each of these compiled at one time.
UNUSABLE_FIELD_VALUES = [
    # No action changes a Static's or a Button's value, so Next failed forever.
    pytest.param(("pages", 0, "fields", 0, "validator"), "non_empty", "Static",
                 id="static-validator"),
    pytest.param(("pages", 1, "fields", 1, "validator"), "non_empty", "Button",
                 id="button-validator"),
    # A list's own value never changes: Next failed even with an input added.
    pytest.param(("pages", 1, "fields", 2, "validator"), "non_empty", "List",
                 id="list-validator"),
    # A toggle holds no text, and an Edit is never checked: Next failed forever.
    pytest.param(("pages", 4, "fields", 1, "validator"), "non_empty", "CheckBox",
                 id="checkbox-text-validator"),
    pytest.param(("pages", 0, "fields", 1, "validator"), "require_checked", "Edit",
                 id="edit-require-checked"),
    # Judged the wizard's inputs, not the Edit's text.
    pytest.param(("pages", 0, "fields", 1, "validator"), "at_least_one_item", "Edit",
                 id="edit-at-least-one-item"),
    # A ComboBox that lists the inputs ignored its own items.
    pytest.param(("pages", 3, "fields", 1, "items"), ["File"], "ComboBox",
                 id="combo-items-and-items-from"),
    # Silently ignored.
    pytest.param(("pages", 0, "fields", 1, "text"), "Name", "Edit", id="edit-text"),
    pytest.param(("pages", 0, "fields", 1, "group"), "tool_type", "Edit", id="edit-group"),
    pytest.param(("pages", 0, "fields", 1, "items"), ["a"], "Edit", id="edit-items"),
    # Drawn checked, but require_checked failed under it.
    pytest.param(("pages", 3, "fields", 3, "default"), "yes", "CheckBox",
                 id="checkbox-text-default"),
    # Drawn as "True".
    pytest.param(("pages", 0, "fields", 1, "default"), True, "Edit", id="edit-bool-default"),
    # Drawn, but no select can choose it.
    pytest.param(("pages", 0, "fields", 3, "default"), "NotAnItem", "ComboBox",
                 id="combo-default-no-item"),
    # Both radio buttons of the group drawn selected, which no click can reach.
    pytest.param(("pages", 0, "fields", 5, "default"), True, "RadioButton",
                 id="two-radio-defaults"),
]


@pytest.mark.parametrize("path, value, kind", UNUSABLE_FIELD_VALUES)
def test_a_field_value_its_kind_cannot_use_is_a_construction_error_naming_it(path, value, kind):
    with pytest.raises(WizardConfigError) as info:
        new_wizard(config=_config_with(path, value))
    message = str(info.value)
    for part in (f"wizard page {path[1]} field {path[3]} ", f"'{path[4]}'", f"kind '{kind}'"):
        assert part in message
    if path[4] == "validator":
        assert repr(value) in message


def test_a_combo_box_with_items_and_items_from_is_a_construction_error_naming_both():
    config = _config_with(("pages", 3, "fields", 1, "items"), [])
    with pytest.raises(WizardConfigError, match=re.escape(
            "wizard page 3 field 1 has 'items' ([]) and 'items_from' ('inputs')")):
        new_wizard(config=config)


def _inputs_list_on_the_first_page() -> dict:
    config = default_wizard_config()
    config["pages"][0]["fields"].append(config["pages"][1]["fields"].pop(2))
    return config


def _inputs_combo_on_the_first_page(validator: str) -> dict:
    config = default_wizard_config()
    config["pages"][0]["fields"].append({"label": "Endpoint", "kind": "ComboBox",
                                         "items_from": "inputs", "validator": validator})
    return config


@pytest.mark.parametrize("config, label, validator", [
    (_inputs_list_on_the_first_page(), "Inputs", "at_least_one_item"),
    (_inputs_combo_on_the_first_page("non_empty"), "Endpoint", "non_empty"),
    (_inputs_combo_on_the_first_page("absolute_path"), "Endpoint", "absolute_path"),
], ids=["list", "combo-non-empty", "combo-absolute-path"])
def test_a_page_waiting_for_an_input_that_no_page_up_to_it_can_add_is_a_construction_error(
        config, label, validator):
    """Only the modal that page 1's button opens adds an input, so Next on
    page 0 would fail for good."""
    with pytest.raises(WizardConfigError) as info:
        new_wizard(config=config)
    message = str(info.value)
    for part in ("wizard page 0 field 6 ", repr(label), repr(validator), "page 0"):
        assert part in message


def test_a_page_waiting_for_an_input_compiles_once_a_page_up_to_it_opens_the_modal():
    for config in (_inputs_list_on_the_first_page(),
                   _inputs_combo_on_the_first_page("non_empty")):
        config["pages"][0]["fields"].append(config["pages"][1]["fields"].pop(1))
        sim = new_wizard(config=config)
        click(sim, sim.layout.control_id_of("Add Input...", page="tool_description"))
        assert sim.modal == "add_input"
    # A validator that passes on the empty default needs no input.
    new_wizard(config=_inputs_combo_on_the_first_page("optional_mapping_file"))


def test_a_button_in_a_modal_may_open_a_modal():
    config = default_wizard_config()
    config["modals"]["add_input"]["fields"].append(
        {"label": "More...", "kind": "Button", "opens": "add_input"})
    sim = new_wizard(config=config)
    sim.current_page = 1
    click(sim, sim.layout.control_id_of("Add Input...", page="inputs_outputs"))
    assert click(sim, sim.layout.control_id_of("More...", modal="add_input")).status == "executed"
    assert sim.modal == "add_input"
    config["modals"]["add_input"]["fields"][2]["opens"] = "add_inpt"
    with pytest.raises(WizardConfigError, match="'opens' names no modal: 'add_inpt'"):
        new_wizard(config=config)


# --- snapshot --------------------------------------------------------------

def _config_with(path: tuple, value) -> dict:
    config = default_wizard_config()
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


@pytest.mark.parametrize("config", [
    5,
    {"pages": 5},
    {"pages": []},
    {"pages": [5]},
    {"pages": [{"key": "a", "title": "A"}]},
    {"pages": [{"key": "a", "title": 3, "fields": []}]},
    {"pages": [{"key": "a", "title": "A", "fields": [{"label": "Name"}]}]},
    {"pages": [{"key": "a", "title": "A", "fields": [{"kind": "Edit"}]}]},
    _config_with(("pages", 0, "fields", 1, "validator"), "no_such_check"),
    _config_with(("pages", 0, "fields", 3, "items"), ["ok", 5]),
    _config_with(("pages", 0, "fields", 4, "default"), 1),
    _config_with(("modals", "add_input", "fields"), []),
    _config_with(("modals", "add_input", "fields", 0, "validator"), "no_such_check"),
    _config_with(("modals",), []),
    _config_with(("title",), None),
    _config_with(("pages", 0, "fields", 2, "label"), "Name"),
    _config_with(("modals", "add_input", "fields", 1, "label"), "Input name"),
    _config_with(("pages", 1, "key"), "tool_description"),
    _config_with(("pages", 0, "fields", 3, "items"), ["Analysis", "a|b"]),
    # Every list draws the inputs with the same item ids: two lists on a page,
    # or a list in a modal, could show two items with one id.
    _config_with(("pages", 1, "fields", 0, "kind"), "List"),
    _config_with(("modals", "add_input", "fields", 1, "kind"), "List"),
    {},
], ids=lambda config: repr(config)[:40])
def test_malformed_wizard_config_is_a_config_error(config):
    with pytest.raises(WizardConfigError):
        new_wizard(config=config)


def test_fresh_snapshot_has_page_one_edits_and_next_button():
    sim = new_wizard()
    tree = sim.snapshot()
    kinds = [node.kind for node in tree.iter_nodes()]
    assert kinds.count(WidgetKind.EDIT) == 2
    buttons = [node for node in tree.iter_nodes() if node.kind is WidgetKind.BUTTON]
    assert any(node.text == "Next >" for node in buttons)


def test_truncated_text_fault_hard_cuts_the_static_at_40():
    fault = FaultSpec(FaultKind.TRUNCATED_TEXT, "tool_description", "Description")
    sim = new_wizard([fault])
    target = sim.layout.control_id_of("Description", page="tool_description")
    node = find_widget(sim.snapshot(), target)
    assert node.kind is WidgetKind.STATIC
    assert node.text == DESCRIPTION_HELP[:40]
    assert len(node.text) == 40


def test_misaligned_rect_fault_shifts_the_rectangle():
    fault = FaultSpec(FaultKind.MISALIGNED_RECT, "inputs_outputs", "Add Input...")
    sim = new_wizard([fault])
    plain = new_wizard()
    sim.current_page = plain.current_page = 1
    target = sim.layout.control_id_of("Add Input...", page="inputs_outputs")
    shifted = find_widget(sim.snapshot(), target).rectangle
    straight = find_widget(plain.snapshot(), target).rectangle
    assert shifted.left == straight.left + 150
    assert shifted.top == straight.top


def test_missing_title_fault_removes_the_title_node():
    fault = FaultSpec(FaultKind.MISSING_TITLE, "cpacs_properties", "title")
    sim = new_wizard([fault])
    sim.current_page = 3
    texts = [node.text for node in sim.snapshot().iter_nodes()
             if node.kind is WidgetKind.STATIC]
    assert "CPACS Tool Properties" not in texts
    plain = new_wizard()
    plain.current_page = 3
    plain_texts = [node.text for node in plain.snapshot().iter_nodes()
                   if node.kind is WidgetKind.STATIC]
    assert "CPACS Tool Properties" in plain_texts


def test_two_snapshots_without_actions_are_equal():
    sim = new_wizard(default_fault_set())
    assert sim.snapshot() == sim.snapshot()


def test_next_is_enabled_only_when_the_page_validates():
    sim = new_wizard()
    next_id = sim.layout.control_id_of("", nav="next")
    assert find_widget(sim.snapshot(), next_id).enabled is False  # Name empty
    write(sim, sim.layout.control_id_of("Name", page="tool_description"), "T")
    assert find_widget(sim.snapshot(), next_id).enabled is True


def test_validation_message_appears_as_a_static_node():
    sim = new_wizard()
    goto_launch_settings(sim)
    write(sim, sim.layout.control_id_of("Tool Directory", page="launch_settings"), "/opt/t")
    tree = sim.snapshot()
    messages = [node for node in tree.iter_nodes() if node.class_name == "ValidationMessage"]
    assert len(messages) == 1
    assert messages[0].text == ("The chosen version is not valid. "
                                "The version must not be empty.")


# --- execute ---------------------------------------------------------------

def test_click_next_with_empty_version_reports_the_version_message():
    sim = new_wizard()
    goto_launch_settings(sim)
    write(sim, sim.layout.control_id_of("Tool Directory", page="launch_settings"), "/opt/tool")
    outcome = click(sim, sim.layout.control_id_of("", nav="next"))
    assert outcome.status == "failed"
    assert sim.message == "The chosen version is not valid. The version must not be empty."
    assert sim.current_page == 2


def test_generic_error_fault_replaces_the_working_directory_message():
    fault = FaultSpec(FaultKind.GENERIC_ERROR_MESSAGE, "launch_settings", "Working Directory")
    sim = new_wizard([fault])
    goto_launch_settings(sim)
    write(sim, sim.layout.control_id_of("Tool Directory", page="launch_settings"), "/opt/tool")
    write(sim, sim.layout.control_id_of("Version", page="launch_settings"), "1.0")
    assert sim.message == "Invalid path to working directory"
    outcome = click(sim, sim.layout.control_id_of("", nav="next"))
    assert outcome.status == "failed"
    assert sim.message == "Invalid path to working directory"


def test_without_the_fault_the_working_directory_message_is_specific():
    sim = new_wizard()
    goto_launch_settings(sim)
    write(sim, sim.layout.control_id_of("Tool Directory", page="launch_settings"), "/opt/tool")
    write(sim, sim.layout.control_id_of("Version", page="launch_settings"), "1.0")
    assert sim.message == ("The chosen working directory is not valid. "
                           "The working directory must not be empty.")
    write(sim, sim.layout.control_id_of("Working Directory", page="launch_settings"), "relative/x")
    assert sim.message == ("The chosen working directory is not valid. "
                           "The path must be absolute.")


def test_click_on_a_static_fails_as_not_actionable():
    sim = new_wizard()
    target = sim.layout.control_id_of("Description", page="tool_description")
    outcome = click(sim, target)
    assert outcome.status == "failed"
    assert outcome.reason == "not actionable"


def test_failed_actions_leave_state_unchanged():
    sim = new_wizard()
    before = sim.render().digest
    click(sim, sim.layout.control_id_of("Description", page="tool_description"))
    click(sim, 999_999)
    assert sim.render().digest == before


def test_write_sets_the_field_value():
    sim = new_wizard()
    name_id = sim.layout.control_id_of("Name", page="tool_description")
    assert write(sim, name_id, "AeroSolver").status == "executed"
    assert find_widget(sim.snapshot(), name_id).text == "AeroSolver"


def test_back_on_first_page_fails():
    sim = new_wizard()
    outcome = click(sim, sim.layout.control_id_of("", nav="back"))
    assert outcome.status == "failed"
    assert "first page" in outcome.reason


def test_back_retreats_and_clears_the_message():
    sim = new_wizard()
    sim.current_page = 2
    write(sim, sim.layout.control_id_of("Tool Directory", page="launch_settings"), "x")
    assert sim.message is not None
    assert click(sim, sim.layout.control_id_of("", nav="back")).status == "executed"
    assert sim.current_page == 1
    assert sim.message is None


def _fails(outcome, reason: str) -> bool:
    return outcome.status == "failed" and outcome.reason == reason


def test_finish_before_the_last_page_and_next_on_it_are_not_visible():
    sim = new_wizard()
    finish, next_ = (sim.layout.control_id_of("", nav=which) for which in ("finish", "next"))
    before = sim.render().digest
    assert _fails(click(sim, finish), "not visible on the current page")
    assert sim.current_page == 0 and not sim.finished and sim.render().digest == before
    sim.current_page = len(sim.layout.pages) - 1
    before = sim.render().digest
    assert _fails(click(sim, next_), "not visible on the current page")
    assert sim.render().digest == before


def test_a_second_finish_fails_as_already_completed():
    sim = new_wizard()
    for line in full_traversal_script():
        outcome = sim.execute(parse_action(json.loads(line)["action"]))
    assert outcome.status == "executed" and sim.finished  # the script ends on Finish
    before = sim.render().digest
    assert _fails(click(sim, sim.layout.control_id_of("", nav="finish")),
                  "the integration is already completed")
    assert sim.finished and sim.render().digest == before


def test_a_custom_button_that_opens_nothing_has_no_effect():
    sim = new_wizard(config={"pages": [{"key": "only", "title": "Only", "fields": [
        {"label": "Nothing", "kind": "Button"}]}]})
    before = sim.render().digest
    assert _fails(click(sim, sim.layout.control_id_of("Nothing", page="only")),
                  "this button has no effect")
    assert sim.modal is None and sim.render().digest == before


def test_check_and_uncheck_toggle():
    sim = new_wizard()
    sim.current_page = 3
    box = sim.layout.control_id_of("Use advanced XSLT mapping", page="cpacs_properties")
    assert sim.execute(ActionCommand(ActionVerb.CHECK, box)).status == "executed"
    assert find_widget(sim.snapshot(), box).extra_state["checked"] is True
    assert sim.execute(ActionCommand(ActionVerb.UNCHECK, box)).status == "executed"
    assert find_widget(sim.snapshot(), box).extra_state["checked"] is False


def test_select_rejects_unavailable_item():
    sim = new_wizard()
    combo = sim.layout.control_id_of("Group", page="tool_description")
    outcome = sim.execute(ActionCommand(ActionVerb.SELECT, combo, "Nonsense"))
    assert outcome.status == "failed"
    assert "not an available item" in outcome.reason


def test_radio_buttons_are_mutually_exclusive():
    sim = new_wizard()
    standard = sim.layout.control_id_of("Standard tool", page="tool_description")
    cpacs = sim.layout.control_id_of("CPACS tool", page="tool_description")
    click(sim, cpacs)
    tree = sim.snapshot()
    assert find_widget(tree, cpacs).extra_state["selected"] is True
    assert find_widget(tree, standard).extra_state["selected"] is False


def test_widgets_of_other_pages_are_not_visible():
    sim = new_wizard()
    version = sim.layout.control_id_of("Version", page="launch_settings")
    outcome = write(sim, version, "1.0")
    assert outcome.status == "failed"
    assert "not visible" in outcome.reason


def test_page_changes_only_through_navigation():
    sim = new_wizard()
    page_before = sim.current_page
    write(sim, sim.layout.control_id_of("Name", page="tool_description"), "T")
    click(sim, sim.layout.control_id_of("CPACS tool", page="tool_description"))
    assert sim.current_page == page_before
    assert click(sim, sim.layout.control_id_of("", nav="next")).status == "executed"
    assert sim.current_page == page_before + 1


def test_random_walk_changes_pages_only_via_executed_nav_clicks():
    from guiscout.harness import RunConfig, run

    record = run(RunConfig(controller="random", evaluator="oracle", seed=5,
                           max_iterations=60))
    sim = new_wizard()
    nav_ids = {sim.layout.control_id_of("", nav=which) for which in ("next", "back")}
    previous_page = "tool_description"
    for it in record.iterations:
        if it.page_key != previous_page:
            assert it.status == "executed"
            assert parse_action(it.action).control_id in nav_ids
        previous_page = it.page_key


# --- the modal dialog ------------------------------------------------------

def open_modal(sim):
    sim.current_page = 1
    return click(sim, sim.layout.control_id_of("Add Input...", page="inputs_outputs"))


def test_modal_blocks_outside_widgets():
    sim = new_wizard()
    assert open_modal(sim).status == "executed"
    outcome = click(sim, sim.layout.control_id_of("", nav="next"))
    assert outcome.status == "failed"
    assert "open dialog" in outcome.reason
    actionable = {pa.control_id for pa in possible_actions(sim.snapshot())}
    modal_name = sim.layout.control_id_of("Input name", modal="add_input")
    assert modal_name in actionable
    assert sim.layout.control_id_of("", nav="next") not in actionable


def test_modal_ok_with_empty_name_reports_a_message_and_stays_open():
    sim = new_wizard()
    open_modal(sim)
    outcome = click(sim, sim.layout.modal_button_id("add_input", "OK"))
    assert outcome.status == "failed"
    assert sim.modal_message == ("The chosen input name is not valid. "
                                 "The input name must not be empty.")
    assert sim.modal == "add_input"


def test_modal_ok_adds_the_input_and_closes():
    sim = new_wizard()
    open_modal(sim)
    write(sim, sim.layout.control_id_of("Input name", modal="add_input"), "airfoil")
    assert click(sim, sim.layout.modal_button_id("add_input", "OK")).status == "executed"
    assert sim.modal is None
    assert sim.inputs == ["airfoil"]
    items = [node for node in sim.snapshot().iter_nodes()
             if node.kind is WidgetKind.LIST_ITEM]
    assert [node.text for node in items] == ["airfoil"]


def test_an_input_item_is_clickable_only_on_a_page_that_shows_a_list():
    sim = new_wizard()
    open_modal(sim)
    write(sim, sim.layout.control_id_of("Input name", modal="add_input"), "airfoil")
    assert click(sim, sim.layout.modal_button_id("add_input", "OK")).status == "executed"
    item = sim.layout.first_item_id
    for page in (0, 2, 5):
        sim.current_page = page
        assert item not in {pa.control_id for pa in possible_actions(sim.snapshot())}
        outcome = click(sim, item)
        assert (outcome.status, outcome.reason) == ("failed", "not visible on the current page")
        assert sim.selected_input is None
    sim.current_page = 1
    assert item in {pa.control_id for pa in possible_actions(sim.snapshot())}
    assert click(sim, item).status == "executed"
    assert sim.selected_input == 0


def test_modal_cancel_discards():
    sim = new_wizard()
    open_modal(sim)
    write(sim, sim.layout.control_id_of("Input name", modal="add_input"), "dropme")
    assert click(sim, sim.layout.modal_button_id("add_input", "Cancel")).status == "executed"
    assert sim.inputs == []
    assert sim.modal is None


def test_every_snapshot_has_exactly_one_top_level_dialog():
    sim = new_wizard()
    for act in (lambda: None, lambda: open_modal(sim)):
        act()
        tree = sim.snapshot()
        assert tree.kind is WidgetKind.DIALOG
        nested = [node for node in tree.iter_nodes()
                  if node.kind is WidgetKind.DIALOG and node is not tree]
        assert len(nested) <= 1  # at most the one modal level


def test_added_inputs_feed_the_endpoint_combo():
    sim = new_wizard()
    open_modal(sim)
    write(sim, sim.layout.control_id_of("Input name", modal="add_input"), "airfoil")
    click(sim, sim.layout.modal_button_id("add_input", "OK"))
    sim.current_page = 3
    combo = sim.layout.control_id_of("Incoming CPACS endpoint", page="cpacs_properties")
    assert find_widget(sim.snapshot(), combo).combo_items() == ("airfoil",)


def test_an_input_name_with_the_item_separator_is_refused():
    sim = new_wizard()
    open_modal(sim)
    write(sim, sim.layout.control_id_of("Input name", modal="add_input"), "a|b")
    outcome = click(sim, sim.layout.modal_button_id("add_input", "OK"))
    assert outcome.reason == "The input name must not contain '|'."
    assert sim.modal_message == outcome.reason and sim.inputs == []


def test_every_offered_item_of_the_inputs_combo_box_can_be_selected():
    sim = new_wizard()
    for name in ("airfoil", "a|b", "wing mesh", "x"):
        open_modal(sim)
        write(sim, sim.layout.control_id_of("Input name", modal="add_input"), name)
        click(sim, sim.layout.modal_button_id("add_input", "OK"))
        click(sim, sim.layout.modal_button_id("add_input", "Cancel"))
    sim.current_page = 3
    combo = sim.layout.control_id_of("Incoming CPACS endpoint", page="cpacs_properties")
    offered = [choice for action in possible_actions(sim.snapshot())
               if action.control_id == combo and action.verb is ActionVerb.SELECT
               for choice in action.choices]
    assert offered == ["airfoil", "wing mesh", "x"]
    for choice in offered:
        assert sim.execute(ActionCommand(ActionVerb.SELECT, combo, choice)).status == "executed"


def test_each_modal_owns_its_controls_and_message():
    config = default_wizard_config()
    config["pages"][1]["fields"].insert(2, {"label": "Add Output...", "kind": "Button",
                                            "opens": "add_output"})
    config["modals"]["add_output"] = {"title": "Add Output", "fields": [
        {"label": "Output name", "kind": "Edit", "validator": "non_empty"},
        {"label": "Kind A", "kind": "RadioButton", "default": True, "group": "kind"},
        {"label": "Kind B", "kind": "RadioButton", "default": False, "group": "kind"}]}
    sim = new_wizard(config=config)
    sim.current_page = 1

    def message_ids(modal):
        click(sim, sim.layout.control_id_of(f"Add {modal.title()}...", page="inputs_outputs"))
        assert click(sim, sim.layout.modal_button_id(f"add_{modal}", "OK")).status == "failed"
        return [node.control_id for node in sim.snapshot().iter_nodes()
                if node.class_name == "ValidationMessage"]

    input_message = message_ids("input")
    outcome = write(sim, sim.layout.control_id_of("Output name", modal="add_output"), "o")
    assert outcome.reason == "not visible on the current page"
    outcome = click(sim, sim.layout.modal_button_id("add_output", "OK"))
    assert outcome.reason == "not visible on the current page"
    click(sim, sim.layout.modal_button_id("add_input", "Cancel"))
    output_message = message_ids("output")
    assert len(input_message) == len(output_message) == 1
    assert input_message != output_message

    kind_b = sim.layout.control_id_of("Kind B", modal="add_output")
    assert click(sim, kind_b).status == "executed"
    tree = sim.snapshot()
    assert find_widget(tree, kind_b).extra_state["selected"] is True
    assert find_widget(tree, sim.layout.control_id_of("Kind A", modal="add_output")) \
        .extra_state["selected"] is False


# --- validation order ------------------------------------------------------

def test_validation_reports_the_first_failing_field_top_to_bottom():
    sim = new_wizard()
    goto_launch_settings(sim)
    ids = {label: sim.layout.control_id_of(label, page="launch_settings")
           for label in ("Tool Directory", "Version", "Working Directory",
                         "Maximal Number of Instances")}
    write(sim, ids["Maximal Number of Instances"], "not-a-number")
    assert sim.message.startswith("The chosen tool directory is not valid.")
    write(sim, ids["Tool Directory"], "/opt/tool")
    assert sim.message.startswith("The chosen version is not valid.")
    write(sim, ids["Version"], "1.0")
    assert sim.message.startswith("The chosen working directory is not valid.")
    write(sim, ids["Working Directory"], "/work")
    assert sim.message == "The maximal number of instances must be a positive integer."
    write(sim, ids["Maximal Number of Instances"], "4")
    assert sim.message is None


@settings(max_examples=200)
@given(st.one_of(st.text(), st.booleans()))
@example("\u00b2")  # a digit to str.isdigit, but not to int()
@example("0\x1f")  # whitespace to str.strip, but not to int()
def test_every_validator_returns_a_message_or_none(value):
    sim, field = new_wizard(), FieldSpec("Count", WidgetKind.EDIT)
    for validator in VALIDATORS.values():
        message = validator(sim, field, value)
        assert message is None or isinstance(message, str) and message


def test_a_superscript_two_in_a_scripted_run_is_a_validation_message(tmp_path):
    from guiscout.harness import RunConfig, load_blobs, run

    instances = new_wizard().layout.control_id_of("Maximal Number of Instances",
                                                  page="launch_settings")
    script = []
    for line in full_traversal_script():
        command = parse_controller_output(line).action
        if command.control_id == instances:
            line = json.dumps({"action": format_action(dataclasses.replace(command, arg="\u00b2")),
                               "explanation": "allow up to two parallel executions"})
        script.append(line)
    record = run(RunConfig(controller="scripted", evaluator="oracle", controller_script=script,
                           out_dir=tmp_path))
    written = next(it for it in record.iterations if it.action == f"write({instances}, '\u00b2')")
    assert written.status == "executed"
    assert "! The maximal number of instances must be a positive integer." in \
        load_blobs(tmp_path / record.run_id)[written.after_digest]


def test_stale_error_fault_keeps_the_message_after_the_fix():
    fault = FaultSpec(FaultKind.STALE_ERROR, "tool_description", "Name")
    sim = new_wizard([fault])
    name_id = sim.layout.control_id_of("Name", page="tool_description")
    write(sim, sim.layout.control_id_of("Tool Description", page="tool_description"), "d")
    stale = sim.message
    assert stale == "The chosen name is not valid. The name must not be empty."
    write(sim, name_id, "AeroSolver")
    assert sim.message == stale  # the defect: message should have cleared
    plain = new_wizard()
    write(plain, plain.layout.control_id_of("Tool Description", page="tool_description"), "d")
    write(plain, name_id, "AeroSolver")
    assert plain.message is None


# --- rendering -------------------------------------------------------------

def test_render_is_deterministic():
    sim = new_wizard(default_fault_set())
    assert sim.render().digest == sim.render().digest


def test_successful_write_changes_only_the_target_row():
    sim = new_wizard()
    write(sim, sim.layout.control_id_of("Name", page="tool_description"), "AeroSolver")
    before = sim.render()
    write(sim, sim.layout.control_id_of("Tool Description", page="tool_description"), "computes")
    after = sim.render()
    assert before.digest != after.digest
    differing = [index for index, (a, b) in
                 enumerate(zip(before.rendered.splitlines(), after.rendered.splitlines()))
                 if a != b]
    assert len(differing) == 1
    assert "computes" in after.rendered.splitlines()[differing[0]]


def test_truncated_text_fault_shortens_the_rendered_line():
    fault = FaultSpec(FaultKind.TRUNCATED_TEXT, "tool_description", "Description")
    with_fault = new_wizard([fault]).render().rendered
    without = new_wizard().render().rendered
    assert with_fault != without
    assert DESCRIPTION_HELP[:40] in with_fault
    assert DESCRIPTION_HELP[:60] not in with_fault
    assert DESCRIPTION_HELP[:60] in without


@pytest.mark.parametrize("fault", default_fault_set(),
                         ids=[fault.kind.value for fault in default_fault_set()])
def test_every_fault_is_observable_against_the_clean_wizard(fault):
    def drive(sim):
        shots = [sim.render().rendered]
        # the first write surfaces the empty-name message; the second fixes it
        write(sim, sim.layout.control_id_of("Tool Description", page="tool_description"), "x")
        shots.append(sim.render().rendered)
        write(sim, sim.layout.control_id_of("Name", page="tool_description"), "AeroSolver")
        shots.append(sim.render().rendered)
        for page in (1, 2, 3):
            sim.current_page = page
            if page == 2:
                write(sim, sim.layout.control_id_of("Tool Directory", page="launch_settings"),
                      "/opt/tool")
                write(sim, sim.layout.control_id_of("Version", page="launch_settings"), "1.0")
            shots.append(sim.render().rendered)
        return shots

    faulty = drive(new_wizard([fault]))
    clean = drive(new_wizard())
    assert faulty != clean


def test_page_key_travels_with_the_screenshot():
    sim = new_wizard()
    assert sim.render().page_key == "tool_description"
    sim.current_page = 4
    assert sim.render().page_key == "review"


# --- the oracle evaluator --------------------------------------------------

def oracle_for(sim: SimWizard) -> OracleAgent:
    return OracleAgent([sim.fault_reason(fault) for fault in sim.faults])


def oracle_verdict(oracle: OracleAgent, before, after) -> dict:
    request = AgentRequest(build_evaluator_prompt("", before, after), "evaluator")
    return parse_verdict(oracle.respond(request))


def test_oracle_says_okay_without_faults():
    sim = new_wizard()
    before = sim.render()
    write(sim, sim.layout.control_id_of("Name", page="tool_description"), "X")
    after = sim.render()
    verdict = oracle_verdict(oracle_for(sim), before, after)
    assert verdict == {"state": "okay"}


def test_oracle_flags_the_generic_error_message_once():
    fault = FaultSpec(FaultKind.GENERIC_ERROR_MESSAGE, "launch_settings", "Working Directory")
    sim = new_wizard([fault])
    goto_launch_settings(sim)
    before = sim.render()
    write(sim, sim.layout.control_id_of("Tool Directory", page="launch_settings"), "/opt/tool")
    write(sim, sim.layout.control_id_of("Version", page="launch_settings"), "1.0")
    after = sim.render()
    oracle = oracle_for(sim)
    verdict = oracle_verdict(oracle, before, after)
    assert verdict["state"] == "problem"
    assert "Invalid path to working directory" in verdict["reason"]
    again = oracle_verdict(oracle, after, sim.render())
    assert again == {"state": "okay"}


def test_the_simulator_imports_nothing_from_the_agents():
    import ast
    from pathlib import Path

    import guiscout.simulator

    tree = ast.parse(Path(guiscout.simulator.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "agents" in name.split(".")] == []


def test_oracle_reports_exactly_k_problems_over_a_scripted_run(subset=2):
    from guiscout.harness import RunConfig, run

    faults = default_fault_set()[:subset]
    record = run(RunConfig(controller="scripted", evaluator="oracle", faults=faults))
    problems = record.problem_iterations()
    assert len(problems) == subset


# Per-character reference drawing: the row-string SimWizard._draw and
# SimWizard._draw_box must match it cell for cell.

def reference_draw(canvas: list[list[str]], row: int, col: int, text: str) -> None:
    for offset, ch in enumerate(text):
        column = col + offset
        if column >= CANVAS_WIDTH - 1:
            break
        if ch == "\n":
            break
        canvas[row][column] = ch


def reference_draw_box(canvas: list[list[str]], rect: Rect) -> tuple[int, int, int, int]:
    top = max(1, min(38, 1 + (rect.top - ROOT_RECT.top) * 38 // ROOT_RECT.height))
    left = max(1, min(118, 1 + (rect.left - ROOT_RECT.left) * 118 // ROOT_RECT.width))
    bottom = max(1, min(38, 1 + (rect.bottom - ROOT_RECT.top) * 38 // ROOT_RECT.height))
    right = max(1, min(118, 1 + (rect.right - ROOT_RECT.left) * 118 // ROOT_RECT.width))
    for row in range(top, bottom + 1):
        for col in range(left, right + 1):
            canvas[row][col] = " "
    for col in range(left, right + 1):
        canvas[top][col] = "-"
        canvas[bottom][col] = "-"
    for row in range(top, bottom + 1):
        canvas[row][left] = "|"
        canvas[row][right] = "|"
    canvas[top][left] = canvas[top][right] = "+"
    canvas[bottom][left] = canvas[bottom][right] = "+"
    return top, left, bottom, right


# A canvas whose cells differ from their neighbours, so a splice one cell off shows.
_PATTERNED_ROWS = ["".join(chr(0x21 + (row * 7 + col) % 90) for col in range(CANVAS_WIDTH))
                   for row in range(CANVAS_HEIGHT)]

_DRAW_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from("\n\t \"\\\u00e9\U0001F600\U00010000"), st.characters()), max_size=150)
_DRAW_TEXT_OP = st.tuples(st.just("text"), st.integers(0, CANVAS_HEIGHT - 1),
                          st.one_of(st.sampled_from([0, 1, 117, 118, 119, 120]),
                                    st.integers(0, CANVAS_WIDTH)),
                          _DRAW_TEXT)
# Sizes of 0-20 px fall inside one canvas row or column; the margins clip.
_SPAN = st.one_of(st.integers(0, 20), st.integers(0, 900))


@st.composite
def _box_rects(draw) -> Rect:
    left = draw(st.integers(ROOT_RECT.left - 100, ROOT_RECT.right + 100))
    top = draw(st.integers(ROOT_RECT.top - 100, ROOT_RECT.bottom + 100))
    return Rect(left, top, left + draw(_SPAN), top + draw(_SPAN))


_DRAW_BOX_OP = st.tuples(st.just("box"), _box_rects())


@settings(max_examples=200)
@given(st.lists(st.one_of(_DRAW_TEXT_OP, _DRAW_BOX_OP), min_size=1, max_size=6))
@example([("box", Rect(4600, 1800, 4700, 1800)), ("box", Rect(4600, 1900, 4600, 2000)),
          ("box", Rect(4700, 2100, 4700, 2100)), ("text", 5, 118, "ab\ncd"),
          ("text", 6, 119, "x"), ("text", 7, 120, "y"), ("text", 8, 3, "\U0001F600" * 130)])
def test_row_string_drawing_matches_per_character_drawing(ops):
    sim = new_wizard()
    rows = list(_PATTERNED_ROWS)
    cells = [list(row) for row in _PATTERNED_ROWS]
    for op in ops:
        if op[0] == "text":
            _, row, col, text = op
            SimWizard._draw(rows, row, col, text)
            reference_draw(cells, row, col, text)
        else:
            assert sim._draw_box(rows, op[1]) == reference_draw_box(cells, op[1])
        assert rows == ["".join(row) for row in cells]


# --- node reuse between snapshots ---------------------------------------------

def test_an_unchanged_widget_is_the_same_node_in_the_next_snapshot():
    sim = new_wizard(default_fault_set())
    write(sim, sim.layout.control_id_of("Name", page="tool_description"), "AeroSolver")
    first = sim.snapshot()
    assert sim.snapshot() is first
    assert sim.render().tree is first
    described = sim.layout.control_id_of("Tool Description", page="tool_description")
    write(sim, described, "computes")
    second = sim.snapshot()
    assert second is not first
    old = {node.control_id: node for node in first.sub_elements}
    rebuilt = [node.control_id for node in second.sub_elements
               if old[node.control_id] is not node]
    assert rebuilt == [described]
    assert find_widget(second, described).text == "computes"


def _add_input_and_cancel(sim):
    sim.current_page = PAGES.index("inputs_outputs")
    return (ActionCommand(ActionVerb.CLICK, sim.layout.control_id_of("Add Input...",
                                                              page="inputs_outputs")),
            ActionCommand(ActionVerb.CLICK, sim.layout.modal_button_id("add_input", "Cancel")))


def _check_and_uncheck(sim):
    # Unchecking the review box would show a validation message; this one has no validator.
    sim.current_page = PAGES.index("cpacs_properties")
    xslt = sim.layout.control_id_of("Use advanced XSLT mapping", page="cpacs_properties")
    return ActionCommand(ActionVerb.CHECK, xslt), ActionCommand(ActionVerb.UNCHECK, xslt)


def _next_and_back(sim):
    write(sim, sim.layout.control_id_of("Name", page="tool_description"), "AeroSolver")
    return (ActionCommand(ActionVerb.CLICK, sim.layout.control_id_of("", nav="next")),
            ActionCommand(ActionVerb.CLICK, sim.layout.control_id_of("", nav="back")))


@pytest.mark.parametrize("toggle", [_add_input_and_cancel, _check_and_uncheck, _next_and_back],
                         ids=["add-input-cancel", "check-uncheck", "next-back"])
def test_a_step_that_undoes_the_one_before_builds_no_node(monkeypatch, toggle):
    """Going A -> B -> A gives back the A nodes, and A -> B again the B nodes."""
    sim = new_wizard(default_fault_set())
    forth, back = toggle(sim)
    first = sim.render().tree
    assert sim.execute(forth).status == "executed"
    second = sim.render().tree
    assert second is not first
    assert sim.execute(back).status == "executed"
    assert sim.render().tree is first
    built = []
    init = WidgetNode.__post_init__

    def counting(self):
        built.append(self.control_id)
        init(self)

    monkeypatch.setattr(WidgetNode, "__post_init__", counting)
    assert sim.execute(forth).status == "executed"
    assert sim.render().tree is second
    assert sim.execute(back).status == "executed"
    assert sim.render().tree is first
    assert built == []


CUSTOM_WIZARD = {
    "title": "Custom Wizard",
    "pages": [
        {"key": "first", "title": "First", "fields": [
            {"label": "Summary", "kind": "Static", "computed": "summary"},
            {"label": "Name", "kind": "Edit", "validator": "non_empty"},
            {"label": "Flag", "kind": "CheckBox", "validator": "require_checked"},
            {"label": "A", "kind": "RadioButton", "default": True, "group": "g"},
            {"label": "B", "kind": "RadioButton", "group": "g"},
            {"label": "Add...", "kind": "Button", "opens": "add"},
            {"label": "Items", "kind": "List", "validator": "at_least_one_item"}]},
        {"key": "second", "title": "Second", "fields": [
            {"label": "Pick", "kind": "ComboBox", "items_from": "inputs"},
            {"label": "Path", "kind": "Edit", "validator": "absolute_path"},
            {"label": "Count", "kind": "Edit", "validator": "optional_positive_int"}]},
    ],
    "modals": {"add": {"title": "Add", "fields": [
        {"label": "Item name", "kind": "Edit", "validator": "non_empty"},
        {"label": "Type", "kind": "ComboBox", "items": ["x", "y"], "default": "x"}]}},
}

CUSTOM_FAULTS = [
    FaultSpec(FaultKind.TRUNCATED_TEXT, "first", "Summary"),
    FaultSpec(FaultKind.STALE_ERROR, "first", "Name"),
    FaultSpec(FaultKind.MISALIGNED_RECT, "first", "Flag"),
    FaultSpec(FaultKind.GENERIC_ERROR_MESSAGE, "second", "Path"),
    FaultSpec(FaultKind.MISSING_TITLE, "second", "title"),
]

_TEXTS = ["", "a", "airfoil", "/var/work", "relative", "7", "-1", "x", "y",
          "a very long text that the truncation fault cuts off somewhere"]


def _custom_script() -> list[ActionCommand]:
    """Commands that walk CUSTOM_WIZARD to its last page, adding one item."""
    sim = new_wizard(config=CUSTOM_WIZARD)
    first = {label: sim.layout.control_id_of(label, page="first")
             for label in ("Name", "Flag", "B", "Add...")}
    second = {label: sim.layout.control_id_of(label, page="second") for label in ("Pick", "Path")}
    return [
        ActionCommand(ActionVerb.CLICK, sim.layout.control_id_of("", nav="next")),
        ActionCommand(ActionVerb.WRITE, first["Name"], "tool"),
        ActionCommand(ActionVerb.CHECK, first["Flag"]),
        ActionCommand(ActionVerb.CLICK, first["B"]),
        ActionCommand(ActionVerb.CLICK, first["Add..."]),
        ActionCommand(ActionVerb.CLICK, sim.layout.modal_button_id("add", "OK")),
        ActionCommand(ActionVerb.WRITE, sim.layout.control_id_of("Item name", modal="add"), "i1"),
        ActionCommand(ActionVerb.SELECT, sim.layout.control_id_of("Type", modal="add"), "y"),
        ActionCommand(ActionVerb.CLICK, sim.layout.modal_button_id("add", "OK")),
        ActionCommand(ActionVerb.CLICK, sim.layout.first_item_id + len(sim.inputs)),
        ActionCommand(ActionVerb.CLICK, sim.layout.control_id_of("", nav="next")),
        ActionCommand(ActionVerb.SELECT, second["Pick"], "i1"),
        ActionCommand(ActionVerb.WRITE, second["Path"], "relative"),
        ActionCommand(ActionVerb.WRITE, second["Path"], "/var/work"),
    ]


def _command(sim: SimWizard, choice: int, text: str) -> ActionCommand:
    """The command that one generated step stands for. Four steps in five take
    one of the possible actions, the fifth an arbitrary verb and id, which
    may fail in any way."""
    actions = possible_actions(sim.snapshot())
    if choice % 5 == 0 or not actions:
        verb = list(ActionVerb)[choice // 5 % len(ActionVerb)]
        control_id = choice // 25 % (sim.layout.first_item_id + len(sim.inputs) + 2)
        return ActionCommand(verb, control_id, text if verb in ARG_VERBS else None)
    action = actions[choice // 5 % len(actions)]
    if action.verb is ActionVerb.SELECT and action.choices and choice % 2:
        text = action.choices[choice // 2 % len(action.choices)]
    return ActionCommand(action.verb, action.control_id,
                         text if action.verb in ARG_VERBS else None)


@pytest.mark.parametrize("config, faults, script", [
    (None, default_fault_set(),
     [parse_controller_output(line).action for line in full_traversal_script()]),
    (CUSTOM_WIZARD, CUSTOM_FAULTS, _custom_script()),
], ids=["default", "custom"])
@settings(max_examples=40)
@given(head=st.integers(0, 40),
       steps=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(_TEXTS)), max_size=20))
def test_reused_nodes_give_what_a_fresh_wizard_gives(config, faults, script, head, steps):
    """A run of the script's first ``head`` commands, then generated ones: after
    every command, the wizard that reuses its nodes shows what a fresh wizard
    shows after the same commands. The fresh one compiles its own copy of the
    config, so it builds every node itself instead of asking the shared table."""
    sim = new_wizard(faults, config)
    own_config = default_wizard_config() if config is None else config
    commands: list[ActionCommand] = []
    for step in [*script[:head], *steps]:
        command = step if isinstance(step, ActionCommand) else _command(sim, *step)
        commands.append(command)
        sim.execute(command)
        shot = sim.render()
        assert sim.snapshot() is shot.tree  # nothing changed since the render
        fresh = new_wizard(faults, own_config)
        for replayed in commands:
            fresh.execute(replayed)
        expected = fresh.render()
        assert serialize_tree(shot.tree) == serialize_tree(expected.tree)
        assert possible_actions(shot.tree) == possible_actions(expected.tree)
        assert shot.rendered == expected.rendered
        assert shot.digest == expected.digest
        assert shot.visible_faults == expected.visible_faults


# --- the layout's node table ---------------------------------------------------

def _subset_faults(mask: int) -> list[FaultSpec]:
    """The default faults, the ones whose bit is set in ``mask`` active."""
    return [dataclasses.replace(fault, active=bool(mask >> bit & 1))
            for bit, fault in enumerate(default_fault_set())]


def test_a_second_sweep_of_the_fault_subsets_builds_and_hashes_nothing(monkeypatch,
                                                                       cold_default_layout):
    """The 32 scripted traversals fit the table, so every later run of them
    gets each node and screen built, drawn and hashed."""
    configs = [RunConfig(controller="scripted", evaluator="oracle", faults=_subset_faults(mask),
                         run_id=f"subset-{mask:02d}") for mask in range(32)]
    first = [run(config).fingerprint() for config in configs]
    assert 0 < len(cold_default_layout.nodes) <= simulator._TABLE_SIZE
    built, hashed = [], []
    init, sha256 = WidgetNode.__post_init__, simulator._hash_text
    monkeypatch.setattr(WidgetNode, "__post_init__", lambda node: built.append(node) or init(node))
    monkeypatch.setattr(simulator, "_hash_text", lambda text: hashed.append(text) or sha256(text))
    assert [run(config).fingerprint() for config in configs] == first
    assert built == [] and hashed == []


def test_a_long_random_run_keeps_the_table_within_its_bound(cold_default_layout):
    record = run(RunConfig(controller="random", evaluator="oracle", seed=0, max_iterations=800,
                           faults=default_fault_set()))
    assert len(record.iterations) == 800
    # Full, so the run has evicted entries; and no larger.
    assert len(cold_default_layout.nodes) == simulator._TABLE_SIZE


def test_the_table_gives_a_handed_out_entry_a_second_chance(cold_default_layout):
    """Past the bound, the oldest entry that was handed out from the table
    moves to the newest end, unmarked, and the oldest unmarked one goes."""
    sim = new_wizard()
    table = cold_default_layout.nodes

    def static(text: str) -> WidgetNode:  # on a control id no slot has
        return sim._reuse("Static", WidgetKind.STATIC, 10**6, ROOT_RECT, text, ())

    nodes = [static(f"entry {n}") for n in range(simulator._TABLE_SIZE)]
    keys = list(table)
    assert len(keys) == simulator._TABLE_SIZE
    assert static("entry 0") is nodes[0]  # the wizard's current node differs: a hit
    assert table[keys[0]][-1] is True
    static("one past the bound")
    new_key = list(table)[-2]
    assert list(table) == [*keys[2:], new_key, keys[0]]
    assert table[keys[0]][-1] is False
    static("two past the bound")
    assert list(table) == [*keys[3:], new_key, keys[0], list(table)[-1]]


def test_random_runs_build_a_pinned_number_of_nodes(monkeypatch, cold_default_layout):
    """Four 800-step random runs, one after another on one table, build 0.85
    nodes per iteration; first in first out built 3713 (1.16)."""
    built = []
    init = WidgetNode.__post_init__
    monkeypatch.setattr(WidgetNode, "__post_init__", lambda node: built.append(node) or init(node))
    iterations = sum(len(run(RunConfig(controller="random", evaluator="oracle", seed=seed,
                                       max_iterations=800, faults=default_fault_set())).iterations)
                     for seed in range(4))
    assert (len(built), iterations) == (2723, 3200)


def test_threads_sharing_the_table_record_what_runs_alone_record(monkeypatch):
    """Four random runs with different fault subsets, each alone on a layout
    of its own, then at once on one shared layout, switching threads often:
    every run records the same fingerprint, and no thread raises."""
    configs = [RunConfig(controller="random", evaluator="oracle", seed=seed, max_iterations=300,
                         faults=_subset_faults(mask), run_id=f"run-{seed}")
               for seed, mask in enumerate((0b11111, 0b00000, 0b10101, 0b01010))]

    def fresh_layout():
        monkeypatch.setattr(simulator, "_DEFAULT_LAYOUT",
                            simulator._compile(default_wizard_config()))

    alone = []
    for config in configs:
        fresh_layout()
        alone.append(run(config).fingerprint())
    fresh_layout()
    together: dict[int, object] = {}
    start = threading.Barrier(len(configs))

    def worker(index: int) -> None:
        start.wait()
        try:
            together[index] = run(configs[index]).fingerprint()
        except BaseException as error:  # noqa: BLE001 - reported below
            together[index] = error

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(index,)) for index in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert [together[index] for index in range(len(configs))] == alone
    assert len(simulator._DEFAULT_LAYOUT.nodes) <= simulator._TABLE_SIZE


_FRESH_IMPORT_PROBE = """
import gc, sys
gc.disable()  # the cycle collector would free the old namespace, and the table with it
import guiscout.simulator as simulator
simulator.new_wizard().render()
table = simulator._DEFAULT_LAYOUT.nodes
assert table
del simulator
for name in [name for name in sys.modules if name.split(".")[0] == "guiscout"]:
    del sys.modules[name]
import guiscout.simulator
assert not table, len(table)
"""


def test_the_default_table_goes_with_its_module():
    """Dropping the module to import it afresh empties its table at once."""
    path = os.pathsep.join([str(Path(__file__).resolve().parent.parent / "src"),
                            os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", _FRESH_IMPORT_PROBE], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=path))


# --- the compiled default layout ----------------------------------------------

def _view(sim: SimWizard) -> tuple:
    shot = sim.render()
    return shot.rendered, shot.digest, shot.visible_faults, serialize_tree(sim.snapshot())


def test_default_wizards_share_the_layout_but_not_the_state():
    faults = default_fault_set()
    driven = new_wizard(faults)
    for line in full_traversal_script():
        driven.execute(parse_controller_output(line).action)
    assert driven.finished and driven.inputs
    second = new_wizard(faults)
    # A wizard compiled from its own copy of the config shares nothing.
    assert _view(second) == _view(new_wizard(faults, default_wizard_config()))
    assert second.values != driven.values
    assert second.layout is driven.layout
    # What is shared is immutable by type, but for the node table, whose
    # entries hold a key, its node, what the node draws, and last the mark,
    # the one part of an entry that changes.
    layout = second.layout
    assert [field.name for field in dataclasses.fields(layout)
            if type(getattr(layout, field.name)) is dict] == ["nodes"]
    root = second.snapshot()
    entry = next(entry for entry in layout.nodes.values() if entry[1] is root)
    assert type(entry) is list and type(entry[0]) is tuple and type(entry[-1]) is bool
    with pytest.raises(dataclasses.FrozenInstanceError):
        root.text = "changed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.slots_by_id[1].label = "changed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.first_item_id = 0
    for table in (layout.slots_by_id, layout.page_slots, layout.modal_slots, layout.defaults,
                  layout.modals, layout.field_slots, layout.role_slots, layout.dialog_ids):
        with pytest.raises(TypeError):
            table[1] = None
    assert all(type(slots) is tuple
               for slots in (*layout.page_slots.values(), *layout.modal_slots.values()))


def test_a_custom_config_is_compiled_for_each_wizard():
    new_wizard()  # the default layout is in use
    malformed = _config_with(("pages", 0, "fields", 1, "validator"), "no_such_check")
    for _ in range(2):
        with pytest.raises(WizardConfigError, match="no_such_check"):
            new_wizard(config=malformed)
    relabelled = _config_with(("pages", 0, "fields", 1, "label"), "Component Name")
    texts = [node.text for node in new_wizard(config=relabelled).snapshot().sub_elements]
    assert "Component Name:" in texts and "Name:" not in texts
    assert "Name:" in [node.text for node in new_wizard().snapshot().sub_elements]


def test_an_unchanged_page_builds_no_rect(monkeypatch):
    """Input items and a misaligned control keep their rectangles."""
    sim = new_wizard(default_fault_set())  # Add Input... is misaligned
    for name in ("a", "b", "c"):
        open_modal(sim)
        write(sim, sim.layout.control_id_of("Input name", modal="add_input"), name)
        click(sim, sim.layout.modal_button_id("add_input", "OK"))
    shot = sim.render()
    assert len(find_widget(shot.tree, sim.layout.control_id_of("Inputs", page="inputs_outputs"))
               .sub_elements) == 3
    built = []
    init = Rect.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Rect, "__init__", counting)
    assert sim.snapshot() is shot.tree
    assert sim.render().digest == shot.digest
    assert built == []


# --- the canned traversal script -------------------------------------------

def test_full_traversal_script_reaches_finish():
    from guiscout.harness import RunConfig, run

    record = run(RunConfig(controller="scripted", evaluator="oracle"))
    assert record.iterations[-1].page_key == "finish"
    assert {it.page_key for it in record.iterations} == set(PAGES)
    statuses = {it.status for it in record.iterations}
    assert "rejected" not in statuses


def test_script_commands_parse():
    for line in full_traversal_script():
        parse_controller_output(line)


def test_each_traversal_script_is_a_list_of_its_own():
    first = full_traversal_script()
    expected = list(first)
    first.clear()
    second = full_traversal_script()
    assert second == expected and len(second) == 31
    assert second is not full_traversal_script()
