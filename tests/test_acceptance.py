"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import base64
import json
import random
import string
import time

from guiscout.actions import (
    ActionCommand,
    format_action,
    parse_action,
    parse_controller_output,
)
from guiscout.harness import RunConfig, load_blobs, load_record, replay, run, run_many
from guiscout.simulator import (
    FaultKind,
    FaultSpec,
    default_fault_set,
    full_traversal_script,
    new_wizard,
)
from guiscout.triage import TRUE_POSITIVE, Label, LabelFile, build_report, collect_positives
from guiscout.widgets import ActionVerb, serialize_tree

from conftest import make_funnel_records
from test_prompts import (
    EVALUATOR_EXPLANATION,
    FIXTURE_CORPUS,
    FIXTURE_LOG,
    FIXTURE_TREE,
    GOLDEN_DIR,
    shot,
)


def test_criterion_1_funnel_arithmetic_fixture():
    started = time.perf_counter()
    records, labels = make_funnel_records()
    report = build_report(records, labels)
    assert report.runs == 9
    assert report.actions == 752
    assert report.positives == 72
    assert report.true_positives == 7
    assert report.unique_issues == 5
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: funnel fixture reports (9, 752, 72, 7, 5) "
          f"in {elapsed:.3f}s")


def test_criterion_2_golden_prompts():
    from guiscout.harness import DEFAULT_TASK
    from guiscout.prompts import build_controller_prompt, build_evaluator_prompt

    controller = build_controller_prompt(DEFAULT_TASK, FIXTURE_CORPUS, FIXTURE_TREE,
                                         FIXTURE_LOG)
    assert tuple(name for name, _ in controller.sections) == (
        "Role", "Task", "Documentation", "GUI", "Action", "ActionLog", "Closing")
    assert controller.text() == (GOLDEN_DIR / "controller_prompt.txt").read_text("utf-8")

    evaluator = build_evaluator_prompt(EVALUATOR_EXPLANATION, shot("before"), shot("after"))
    assert tuple(name for name, _ in evaluator.sections) == (
        "Role", "Task", "Output", "Action", "Closing")
    assert evaluator.text() == (GOLDEN_DIR / "evaluator_prompt.txt").read_text("utf-8")
    print("\nACCEPTANCE 2 PASS: controller and evaluator prompts byte-match the goldens")


def test_criterion_3_end_to_end_seeded_fault_detection():
    started = time.perf_counter()
    faults = default_fault_set()
    assert len(faults) == 5 and len({fault.kind for fault in faults}) == 5
    record = run(RunConfig(controller="scripted", evaluator="oracle", faults=faults))
    findings = collect_positives([record])
    assert len(findings) == 5
    labels = LabelFile({finding.key: Label(TRUE_POSITIVE) for finding in findings})
    report = build_report([record], labels)
    assert report.positives == 5 and report.true_positives == 5
    assert report.unique_issues == 5
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: 5 seeded faults -> 5 positives -> 5 unique issues "
          f"in {elapsed:.3f}s")


def test_criterion_4_validation_order_reproduction():
    faults = [FaultSpec(FaultKind.GENERIC_ERROR_MESSAGE, "launch_settings",
                        "Working Directory")]
    sim = new_wizard(faults)
    sim.current_page = 2  # launch settings
    next_id = sim.layout.control_id_of("", nav="next")
    sim.execute(ActionCommand(ActionVerb.WRITE,
                              sim.layout.control_id_of("Tool Directory", page="launch_settings"),
                              "/opt/tools/aerosolver"))
    sim.execute(ActionCommand(ActionVerb.CLICK, next_id))
    assert sim.message == ("The chosen version is not valid. "
                           "The version must not be empty.")
    sim.execute(ActionCommand(ActionVerb.WRITE,
                              sim.layout.control_id_of("Version", page="launch_settings"), "1.0"))
    sim.execute(ActionCommand(ActionVerb.CLICK, next_id))
    assert sim.message == "Invalid path to working directory"
    print("\nACCEPTANCE 4 PASS: validation messages reproduce exactly, top to bottom")


def test_criterion_5_grammar_round_trip_and_extraction():
    rng = random.Random(12345)
    alphabet = string.ascii_letters + string.digits + " ,'\\\"/.:-_()[]{}"
    verbs = list(ActionVerb)
    for _ in range(10_000):
        verb = rng.choice(verbs)
        control_id = rng.randrange(0, 10_000_000)
        arg = None
        if verb in (ActionVerb.WRITE, ActionVerb.SELECT):
            arg = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        cmd = ActionCommand(verb, control_id, arg)
        assert parse_action(format_action(cmd)) == cmd

    reference = ('{\n    "action": "click(134478)",\n'
                 '    "explanation": "click next to get to the second page"\n}')
    out = parse_controller_output(reference)
    assert out.action == ActionCommand(ActionVerb.CLICK, 134478)
    assert out.explanation == "click next to get to the second page"
    for wrapped in (f"```json\n{reference}\n```",
                    f"Sure, here is my choice:\n{reference}\nLet me know!",
                    f"Okay.\n\n```\n{reference}\n```\ntrailing prose"):
        again = parse_controller_output(wrapped)
        assert again.action == out.action and again.explanation == out.explanation
    print("\nACCEPTANCE 5 PASS: 10,000 command round-trips and wrapped-JSON extraction")


def test_criterion_6_determinism_and_replay(tmp_path):
    config = RunConfig(controller="scripted", evaluator="oracle",
                       faults=default_fault_set(), out_dir=tmp_path, run_id="run-000")
    first = run(config)
    record = load_record(tmp_path / "run-000")
    replayed = replay(record)
    assert [it.status for it in replayed.iterations] == \
        [it.status for it in record.iterations]
    assert [(it.before_digest, it.after_digest) for it in replayed.iterations] == \
        [(it.before_digest, it.after_digest) for it in record.iterations]

    second = run(RunConfig(controller="scripted", evaluator="oracle",
                           faults=default_fault_set(), run_id="run-000"))
    assert second.fingerprint() == first.fingerprint()

    random_a = run(RunConfig(controller="random", evaluator="oracle", seed=9,
                             max_iterations=25))
    random_b = run(RunConfig(controller="random", evaluator="oracle", seed=9,
                             max_iterations=25))
    assert random_a.fingerprint() == random_b.fingerprint()
    print("\nACCEPTANCE 6 PASS: replay digests byte-equal; same config -> same record")


# An independent action table for the coverage oracle: control_type string to
# verbs, written out flat so a regression in the production table cannot hide.
_ORACLE_TABLE = {
    "ButtonWrapper": ("click",),
    "EditWrapper": ("write",),
    "ComboBoxWrapper": ("select",),
    "CheckBoxWrapper": ("check", "uncheck"),
    "RadioButtonWrapper": ("click",),
    "ListItemWrapper": ("click",),
}


def _oracle_scan(tree_obj: dict, found: set[int]) -> None:
    if tree_obj.get("enabled") is not False and tree_obj["control_type"] in _ORACLE_TABLE:
        found.add(tree_obj["control_id"])
    for child in tree_obj["sub_elements"]:
        _oracle_scan(child, found)


def test_criterion_7_traversal_coverage():
    faults = default_fault_set()
    record = run(RunConfig(controller="scripted", evaluator="oracle", faults=faults))
    assert {it.page_key for it in record.iterations} == {
        "tool_description", "inputs_outputs", "launch_settings",
        "cpacs_properties", "review", "finish"}

    # brute-force enumeration oracle: walk the same script over a fresh
    # simulator and union every enabled actionable control id it ever shows
    sim = new_wizard(faults)
    universe: set[int] = set()
    for line in full_traversal_script():
        _oracle_scan(json.loads(serialize_tree(sim.snapshot())), universe)
        command = parse_action(json.loads(line)["action"])
        sim.execute(command)
    _oracle_scan(json.loads(serialize_tree(sim.snapshot())), universe)

    acted = {parse_action(it.action).control_id
             for it in record.iterations if it.status == "executed"}
    coverage = len(acted & universe) / len(universe)
    assert coverage >= 0.9
    print(f"\nACCEPTANCE 7 PASS: 6/6 pages visited, "
          f"{len(acted & universe)}/{len(universe)} actionable widgets acted on "
          f"({coverage:.0%})")


def test_criterion_8_remote_agent_contract(tmp_path, stub_server, monkeypatch):
    secret = "secret-token-1f2e3d"
    monkeypatch.setenv("GUISCOUT_TEST_KEY", secret)

    sim = new_wizard()
    name_id = sim.layout.control_id_of("Name", page="tool_description")
    controller_reply = json.dumps({"action": f"write({name_id}, 'stub')",
                                   "explanation": "fill in the name field"})

    def responder(body):
        parts = body["messages"][0]["content"]
        images = [part for part in parts if part["type"] == "image_url"]
        if len(images) == 2:
            return 200, '{"state": "okay"}'
        return 200, controller_reply

    stub_server.set_responder(responder)

    from guiscout.agents import RemoteAgentConfig

    remote = RemoteAgentConfig(endpoint=stub_server.url, model="test-model",
                               api_key_env="GUISCOUT_TEST_KEY", retry_backoff=0.01)
    config = RunConfig(controller="remote", evaluator="remote",
                       remote_controller=remote, remote_evaluator=remote,
                       max_iterations=1, out_dir=tmp_path, run_id="run-000")
    (record,) = run_many(config, 1)
    (iteration,) = record.iterations
    assert iteration.status == "executed"
    assert iteration.verdict == {"state": "okay"}

    evaluator_requests = [request for request in stub_server.requests
                          if len([part for part
                                  in request["body"]["messages"][0]["content"]
                                  if part["type"] == "image_url"]) == 2]
    assert len(evaluator_requests) == 1
    (request,) = evaluator_requests
    messages = request["body"]["messages"]
    assert len(messages) == 1 and messages[0]["role"] == "user"
    images = [part for part in messages[0]["content"] if part["type"] == "image_url"]
    decoded = [base64.b64decode(part["image_url"]["url"].split(",", 1)[1]).decode("utf-8")
               for part in images]
    blobs = load_blobs(tmp_path / "run-000")
    before = blobs[iteration.before_digest]
    after = blobs[iteration.after_digest]
    assert decoded == [before, after]

    for path in sorted((tmp_path / "run-000").rglob("*")):
        if path.is_file():
            assert secret not in path.read_text("utf-8"), f"credential leaked into {path}"
    assert secret not in json.dumps(record.fingerprint())
    print("\nACCEPTANCE 8 PASS: one user message, two ordered image parts, "
          "credential absent from all artifacts")
