import hashlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from guiscout.actions import ARG_VERBS, ActionCommand, ActionLog, ActionLogEntry, format_action
from guiscout.harness import DEFAULT_TASK
from guiscout import prompts
from guiscout.prompts import (
    DEFAULT_DOC_BUDGET,
    MissingAttachmentError,
    PromptDocument,
    build_controller_prompt,
    build_evaluator_prompt,
    select_documentation,
)
from guiscout.simulator import CPACS_DOC, SimScreenshot, default_doc_corpus, default_fault_set, \
    new_wizard
from guiscout.widgets import ActionVerb, Rect, WidgetKind, WidgetNode, possible_actions

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


NON_ASCII_TASK = "Prüfe den Assistenten — Überblick ✓ 中文"


@pytest.mark.parametrize("task", [DEFAULT_TASK, NON_ASCII_TASK])
def test_a_prompt_resumed_from_an_earlier_one_has_the_digest_of_its_text(task):
    log = ActionLog()
    first = build_controller_prompt(task, FIXTURE_CORPUS, FIXTURE_TREE, log)
    point = first.resume_point
    # Cut after the "[" of the empty log: an offset into the log text, whose
    # state covers the prompt's text up to that "[".
    head = first.text()[:len(first.text()) - len(log.text) - len("\n\n" + prompts.CONTROLLER_CLOSING)]
    assert head.endswith("\n\nThe previous actions:\n")
    assert log.text[:point[1]] == "["
    assert point[0].hexdigest() == sha256_hex(head + "[")
    for step in range(3):
        log.append(ActionLogEntry(f"click({step})", f"step {step} → „next“", "executed"))
        resumed = build_controller_prompt(task, FIXTURE_CORPUS, FIXTURE_TREE, log, resume=point)
        fresh = build_controller_prompt(task, FIXTURE_CORPUS, FIXTURE_TREE, log)
        assert resumed.text() == fresh.text()
        assert resumed.digest == fresh.digest == sha256_hex(fresh.text())
        point = resumed.resume_point
        assert point[1] == len(log.text) - 2 and log.text[:point[1]].endswith("\n  }")
        assert point[0].hexdigest() == sha256_hex(head + log.text[:point[1]])
    # The same log again, as after a controller that gave no answer.
    again = build_controller_prompt(task, FIXTURE_CORPUS, FIXTURE_TREE, log, resume=point)
    assert again.digest == sha256_hex(again.text())


@pytest.mark.parametrize("task, docs", [(DEFAULT_TASK, FIXTURE_CORPUS), ("", {})])
def test_each_head_state_is_the_state_of_its_prompts_first_characters(task, docs,
                                                                      cold_prompt_heads):
    controller = build_controller_prompt(task, docs, FIXTURE_TREE, [], doc_budget=0)
    evaluator = build_evaluator_prompt("ü", shot(), shot())
    text = controller.text()
    cut = len(text) - len("[]\n\n" + prompts.CONTROLLER_CLOSING)
    head = cold_prompt_heads(task, "", prompts.serialize_tree(FIXTURE_TREE))
    assert cold_prompt_heads.cache_info().hits == 1
    assert head.hexdigest() == sha256_hex(text[:cut])
    text = evaluator.text()
    cut = len(text) - len("ü\n\n" + prompts.EVALUATOR_CLOSING)
    assert prompts._EVALUATOR_HEAD.hexdigest() == sha256_hex(text[:cut])
    for prompt in (controller, evaluator):
        assert prompt.digest == sha256_hex(prompt.text())
    hand_built = PromptDocument(sections=(("Role", "x"), ("Task", "ü")))
    assert hand_built.digest == sha256_hex("x\n\nü")
    assert hand_built.sections == (("Role", "x"), ("Task", "ü"))


def test_the_head_cache_keys_each_head_by_task_documentation_and_gui(cold_prompt_heads):
    """Prompts that differ only in the task, the documentation or the GUI
    each get a head of their own, built cold and again warm."""
    sim = new_wizard()
    other_tree = sim.snapshot()
    cases = [(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, DEFAULT_DOC_BUDGET),
             (NON_ASCII_TASK, FIXTURE_CORPUS, FIXTURE_TREE, DEFAULT_DOC_BUDGET),
             (DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE, 10),
             (DEFAULT_TASK, {}, FIXTURE_TREE, DEFAULT_DOC_BUDGET),
             (DEFAULT_TASK, FIXTURE_CORPUS, other_tree, DEFAULT_DOC_BUDGET)]
    for _ in range(2):
        digests = {_joined_and_hashed(build_controller_prompt(task, docs, tree, FIXTURE_LOG,
                                                              doc_budget=budget))
                   for task, docs, tree, budget in cases}
        assert len(digests) == len(cases)
    assert cold_prompt_heads.cache_info()[:2] == (len(cases), len(cases))


def _joined_and_hashed(prompt: PromptDocument) -> str:
    text = prompt.text()
    assert text == "\n\n".join(body for _, body in prompt.sections)
    assert prompt.digest == sha256_hex(text)
    return prompt.digest


# Each example empties the cache itself; the fixture empties it after the last.
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(task=st.one_of(st.just(NON_ASCII_TASK), st.text(max_size=30)),
       walk=st.lists(st.tuples(st.integers(0, 10**6), st.text(max_size=12),
                               st.one_of(st.just("weiter → „Next“"), st.text(max_size=30))),
                     max_size=25),
       attach=st.booleans())
def test_every_prompt_of_a_walk_has_the_digest_of_its_joined_sections(cold_prompt_heads, task,
                                                                       walk, attach):
    """Any command walk, built with and without a resume point, from a cold
    head cache and again from a warm one (the second pass hashes no head)."""
    docs = default_doc_corpus()
    passes = []
    cold_prompt_heads.cache_clear()
    for _ in range(2):
        misses = cold_prompt_heads.cache_info().misses
        sim = new_wizard(default_fault_set())
        log, points, digests = ActionLog(), {}, []
        before = sim.render()
        for pick, arg, explanation in walk:
            attached = before if attach else None
            resumed = build_controller_prompt(task, docs, before.tree, log, screenshot=attached,
                                              resume=points.get(before.tree_digest))
            points[before.tree_digest] = resumed.resume_point
            fresh = build_controller_prompt(task, docs, before.tree, log, screenshot=attached)
            assert _joined_and_hashed(resumed) == _joined_and_hashed(fresh)
            assert resumed.attachments == fresh.attachments == ((before,) if attach else ())
            action = possible_actions(before.tree)[pick % len(possible_actions(before.tree))]
            if action.verb is ActionVerb.SELECT:
                arg = action.choices[pick % len(action.choices)] if action.choices else arg
            cmd = ActionCommand(action.verb, action.control_id,
                                arg if action.verb in ARG_VERBS else None)
            log.append(ActionLogEntry(format_action(cmd), explanation, sim.execute(cmd).status))
            after = sim.render()
            evaluator = build_evaluator_prompt(explanation, before, after)
            digests += [resumed.digest, _joined_and_hashed(evaluator)]
            before = after
        passes.append(digests)
    assert passes[0] == passes[1]
    assert cold_prompt_heads.cache_info().misses == misses


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
