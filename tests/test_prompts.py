import hashlib
from pathlib import Path

import pytest

from guiscout.actions import ActionLog, ActionLogEntry
from guiscout.harness import DEFAULT_TASK
from guiscout import prompts
from guiscout.prompts import (
    MissingAttachmentError,
    PromptDocument,
    build_controller_prompt,
    build_evaluator_prompt,
    select_documentation,
)
from guiscout.simulator import CPACS_DOC, SimScreenshot, default_doc_corpus, new_wizard
from guiscout.widgets import Rect, WidgetKind, WidgetNode

GOLDEN_DIR = Path(__file__).parent / "golden"

FIXTURE_TREE = WidgetNode(
    class_name="Dialog", kind=WidgetKind.DIALOG, control_id=0,
    rectangle=Rect(4429, 1655, 5172, 2299),
    text="Integrate a Tool as a Workflow Component",
    sub_elements=(
        WidgetNode(class_name="Static", kind=WidgetKind.STATIC, control_id=1,
                   rectangle=Rect(4449, 1703, 5152, 1727), text="Tool Description"),
        WidgetNode(class_name="Edit", kind=WidgetKind.EDIT, control_id=2166788,
                   rectangle=Rect(4689, 1735, 5102, 1759), text="Number of Threads"),
        WidgetNode(class_name="Button", kind=WidgetKind.BUTTON, control_id=134478,
                   rectangle=Rect(4699, 2243, 4779, 2271), text="Next >"),
    ),
)

FIXTURE_LOG = [ActionLogEntry(
    action="write(2166788, 'Number of Threads')",
    explanation="Enter a display name 'Number of Threads' for the 'numThreads' property "
                "to make the key human-readable and provide context in the properties view.",
    status="executed",
)]

FIXTURE_CORPUS = {"cpacs_properties": CPACS_DOC}

EVALUATOR_EXPLANATION = ("Click the 'Next >' button to proceed to the next page of the "
                         "Tool Integration Wizard and continue testing the remaining pages "
                         "and their functionalities.")


def shot(name: str = "s") -> SimScreenshot:
    return SimScreenshot(page_key="tool_description", rendered=name, digest=name,
                         tree=FIXTURE_TREE, visible_faults=frozenset(), tree_digest="")


# --- golden files ----------------------------------------------------------

def test_controller_prompt_matches_golden_bytes():
    prompt = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, FIXTURE_LOG)
    golden = (GOLDEN_DIR / "controller_prompt.txt").read_text(encoding="utf-8")
    assert prompt.text() == golden


def test_evaluator_prompt_matches_golden_bytes():
    prompt = build_evaluator_prompt(EVALUATOR_EXPLANATION, shot("before"), shot("after"))
    golden = (GOLDEN_DIR / "evaluator_prompt.txt").read_text(encoding="utf-8")
    assert prompt.text() == golden


# --- section structure -----------------------------------------------------

def test_controller_section_order_is_fixed():
    prompt = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, [])
    assert tuple(name for name, _ in prompt.sections) == (
        "Role", "Task", "Documentation", "GUI", "Action", "ActionLog", "Closing")


def test_evaluator_section_order_is_fixed():
    prompt = build_evaluator_prompt("x", shot(), shot())
    assert tuple(name for name, _ in prompt.sections) == (
        "Role", "Task", "Output", "Action", "Closing")


def test_empty_log_section_body():
    prompt = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, [])
    assert dict(prompt.sections)["ActionLog"] == "The previous actions:\n[]"


def test_task_section_prefix_and_content():
    prompt = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, [])
    body = dict(prompt.sections)["Task"]
    assert body.startswith("Your task:")
    assert "Act as a GUI-Tester for the software RCE." in body


def test_gui_section_contains_serialized_tree_with_prefix():
    prompt = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, [])
    body = dict(prompt.sections)["GUI"]
    assert body.startswith("The current state of the GUI:\n{")
    assert '"control_id": 134478' in body


def test_closing_question_is_invariant():
    prompt = build_controller_prompt("other task", {}, FIXTURE_TREE, [])
    assert dict(prompt.sections)["Closing"] == (
        "What action do you want to take to do the next step for achieving the given task?")


def test_action_section_contains_format_and_both_examples():
    prompt = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, [])
    body = dict(prompt.sections)["Action"]
    assert "<action>(<control id>), for example click(134478)" in body
    assert "You must format your output in JSON" in body
    assert "example 1:" in body and "example 2:" in body


def test_evaluator_output_section_shows_both_verdict_shapes():
    prompt = build_evaluator_prompt("x", shot(), shot())
    body = dict(prompt.sections)["Output"]
    assert '"state": "problem"' in body
    assert '"state": "okay"' in body


def test_evaluator_action_header_is_doubled():
    doubled = build_evaluator_prompt("go", shot(), shot())
    assert "was was:" in dict(doubled.sections)["Action"]


def test_evaluator_empty_explanation_still_has_two_attachments():
    prompt = build_evaluator_prompt("", shot("b"), shot("a"))
    assert len(prompt.attachments) == 2
    assert dict(prompt.sections)["Action"].endswith("was was:\n")


def test_evaluator_attachments_keep_before_after_order():
    prompt = build_evaluator_prompt("x", shot("before"), shot("after"))
    assert [ref.digest for ref in prompt.attachments] == ["before", "after"]


def test_evaluator_missing_image_is_an_error():
    with pytest.raises(MissingAttachmentError):
        build_evaluator_prompt("x", None, shot())
    with pytest.raises(MissingAttachmentError):
        build_evaluator_prompt("x", shot(), None)


def test_controller_screenshot_is_optional():
    without = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, [])
    assert without.attachments == ()
    with_shot = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, [],
                                        screenshot=shot())
    assert len(with_shot.attachments) == 1


def test_prompt_text_is_joined_once_and_digest_hashes_it():
    prompt = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, FIXTURE_LOG)
    text = prompt.text()
    assert prompt.text() is text
    assert prompt.digest == hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("task", [DEFAULT_TASK, "Prüfe den Assistenten — Überblick ✓ 中文"])
def test_a_prompt_resumed_from_an_earlier_one_has_the_digest_of_its_text(task):
    log = ActionLog()
    first = build_controller_prompt(task, FIXTURE_CORPUS, FIXTURE_TREE, log)
    point = first.resume_point
    # Cut after the "[" of the empty log: the state covers the text up to it.
    assert first.text()[:point[1]].endswith("The previous actions:\n[")
    for step in range(3):
        log.append(ActionLogEntry(f"click({step})", f"step {step} → „next“", "executed"))
        resumed = build_controller_prompt(task, FIXTURE_CORPUS, FIXTURE_TREE, log, resume=point)
        fresh = build_controller_prompt(task, FIXTURE_CORPUS, FIXTURE_TREE, log)
        assert resumed.text() == fresh.text()
        assert resumed.digest == fresh.digest == sha256_hex(fresh.text())
        assert resumed.text()[:resumed.resume_point[1]].endswith("\n  }")
        point = resumed.resume_point
    # The same log again, as after a controller that gave no answer.
    again = build_controller_prompt(task, FIXTURE_CORPUS, FIXTURE_TREE, log, resume=point)
    assert again.digest == sha256_hex(again.text())


@pytest.mark.parametrize("task, docs", [(DEFAULT_TASK, FIXTURE_CORPUS), ("", {})])
def test_each_constant_head_state_is_the_state_of_its_prompts_first_characters(task, docs):
    controller = build_controller_prompt(task, docs, FIXTURE_TREE, [], doc_budget=0)
    evaluator = build_evaluator_prompt("", shot(), shot())
    for prompt, (state, length) in ((controller, prompts._CONTROLLER_HEAD),
                                    (evaluator, prompts._EVALUATOR_HEAD)):
        assert state.hexdigest() == sha256_hex(prompt.text()[:length])
        assert prompt.digest == sha256_hex(prompt.text())
    hand_built = PromptDocument(sections=(("Role", "x"), ("Task", "ü")))
    assert hand_built.digest == sha256_hex("x\n\nü")


def test_prompt_document_caps_attachments():
    with pytest.raises(ValueError):
        PromptDocument(sections=(("Role", "x"),), attachments=(shot(), shot(), shot()))


# --- documentation selection -----------------------------------------------

def test_select_documentation_by_active_page():
    sim = new_wizard()
    sim.current_page = 2
    tree = sim.snapshot()
    body = select_documentation(default_doc_corpus(), tree)
    assert body.startswith("# Launch Settings")


def test_select_documentation_empty_corpus():
    assert select_documentation({}, FIXTURE_TREE) == ""


def test_select_documentation_fallback_respects_budget():
    corpus = {f"page{i}": f"# Page {i}\n" + "x" * 400 for i in range(5)}
    body = select_documentation(corpus, FIXTURE_TREE, budget=1000)
    assert len(body) <= 1000
    full = "\n\n".join(corpus.values())
    assert body == full[:1000]


def test_select_documentation_budget_applies_to_matched_page():
    sim = new_wizard()
    sim.current_page = 3
    tree = sim.snapshot()
    body = select_documentation(default_doc_corpus(), tree, budget=50)
    assert len(body) <= 50
    assert CPACS_DOC.startswith(body)
