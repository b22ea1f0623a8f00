import base64
import json
import socket

import pytest

from guiscout.actions import parse_controller_output
from guiscout.agents import (
    AgentError,
    AgentRequest,
    OracleAgent,
    RandomAgent,
    RemoteAgent,
    RemoteAgentConfig,
    RemoteAgentError,
    ScriptedAgent,
    ScriptExhausted,
    VerdictParseError,
    parse_verdict,
)
from guiscout.harness import DEFAULT_TASK
from guiscout.prompts import build_controller_prompt, build_evaluator_prompt
from guiscout.simulator import new_wizard
from guiscout.widgets import ActionVerb, PossibleAction, possible_actions

PROBLEM_EXAMPLE = """{
    "state": "problem",
    "reason": "The Text of the Description is not fully visible."
}"""


def controller_request(log=()) -> AgentRequest:
    tree = new_wizard().snapshot()
    prompt = build_controller_prompt(DEFAULT_TASK, {}, tree, list(log))
    return AgentRequest(prompt, "controller", tuple(possible_actions(tree)))


def evaluator_request() -> AgentRequest:
    sim = new_wizard()
    before = sim.render()
    sim.current_page = 1
    after = sim.render()
    assert before.rendered != after.rendered
    return AgentRequest(build_evaluator_prompt("did a thing", before, after), "evaluator")


# --- request invariants ----------------------------------------------------

def test_evaluator_request_needs_exactly_two_attachments():
    sim = new_wizard()
    prompt = build_controller_prompt(DEFAULT_TASK, {}, sim.snapshot(), [])
    with pytest.raises(ValueError, match="two attachments"):
        AgentRequest(prompt, "evaluator")


def test_unknown_role_is_rejected():
    sim = new_wizard()
    prompt = build_controller_prompt(DEFAULT_TASK, {}, sim.snapshot(), [])
    with pytest.raises(ValueError, match="unknown agent role"):
        AgentRequest(prompt, "referee")


# --- scripted agent --------------------------------------------------------

def test_scripted_agent_plays_back_then_exhausts():
    line = '{"action":"click(1)","explanation":"next"}'
    agent = ScriptedAgent([line])
    assert agent.finished is False
    assert agent.respond(controller_request()) == line
    assert agent.finished is True
    with pytest.raises(ScriptExhausted):
        agent.respond(controller_request())


# --- random agent ----------------------------------------------------------

def test_random_agent_same_request_twice_is_identical():
    agent = RandomAgent(seed=42)
    request = controller_request()
    assert agent.respond(request) == agent.respond(request)


def test_random_agent_is_reproducible_across_instances():
    request = controller_request()
    assert RandomAgent(7).respond(request) == RandomAgent(7).respond(request)
    assert RandomAgent(7).respond(request) != RandomAgent(8).respond(request)


def test_random_agent_picks_a_currently_possible_action():
    sim = new_wizard()
    tree = sim.snapshot()
    request = controller_request()
    output = parse_controller_output(RandomAgent(3).respond(request))
    legal = {(pa.control_id, pa.verb) for pa in possible_actions(tree)}
    assert (output.action.control_id, output.action.verb) in legal


def test_random_agent_picks_from_the_actions_the_request_carries():
    request = controller_request()
    only = PossibleAction(4242, ActionVerb.WRITE)
    narrowed = AgentRequest(request.prompt, "controller", (only,))
    for seed in range(5):
        output = parse_controller_output(RandomAgent(seed).respond(narrowed))
        assert (output.action.control_id, output.action.verb) == (4242, ActionVerb.WRITE)


def test_random_agent_never_picks_a_select_without_choices():
    request = controller_request()
    empty_select = PossibleAction(5, ActionVerb.SELECT)
    mixed = AgentRequest(request.prompt, "controller",
                         (empty_select, PossibleAction(6, ActionVerb.CLICK)))
    for seed in range(20):
        output = parse_controller_output(RandomAgent(seed).respond(mixed))
        assert (output.action.control_id, output.action.verb) == (6, ActionVerb.CLICK)
    with pytest.raises(AgentError, match="no possible action"):
        RandomAgent(1).respond(AgentRequest(request.prompt, "controller", (empty_select,)))


def test_random_agent_without_actions_raises():
    request = controller_request()
    with pytest.raises(AgentError, match="no possible action"):
        RandomAgent(1).respond(AgentRequest(request.prompt, "controller"))


def test_random_agent_rejects_evaluator_role():
    with pytest.raises(AgentError, match="controller role"):
        RandomAgent(1).respond(evaluator_request())


# --- oracle agent ----------------------------------------------------------

def test_oracle_agent_judges_only_evaluator_requests_with_screenshots():
    oracle = OracleAgent(["a reason"])
    with pytest.raises(AgentError, match="only evaluator requests"):
        oracle.respond(controller_request())


def test_the_agents_import_nothing_from_the_simulator():
    import ast
    from pathlib import Path

    import guiscout.agents

    tree = ast.parse(Path(guiscout.agents.__file__).read_text(encoding="utf-8"))
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert [name for name in modules if "simulator" in (name or "").split(".")] == []


# --- verdict parsing -------------------------------------------------------

def test_parse_problem_verdict():
    verdict = parse_verdict(PROBLEM_EXAMPLE)
    assert verdict == {"state": "problem",
                       "reason": "The Text of the Description is not fully visible."}


def test_parse_okay_verdict():
    assert parse_verdict('{"state":"okay"}') == {"state": "okay"}


def test_parse_verdict_reads_only_the_state_and_a_problems_reason():
    assert parse_verdict('{"state": "okay", "reason": "all fine", "x": 1}') == {"state": "okay"}
    assert parse_verdict('{"state": "problem", "reason": "cut off", "severity": "high"}') == \
        {"state": "problem", "reason": "cut off"}


def test_unknown_state_is_an_error():
    with pytest.raises(VerdictParseError, match="unknown state"):
        parse_verdict('{"state":"weird"}')


def test_missing_state_is_an_error():
    with pytest.raises(VerdictParseError, match="lacks a state"):
        parse_verdict('{"reason":"x"}')


def test_problem_without_reason_is_an_error():
    with pytest.raises(VerdictParseError, match="without a reason"):
        parse_verdict('{"state":"problem"}')


def test_no_json_is_an_error():
    with pytest.raises(VerdictParseError):
        parse_verdict("nothing here")


def test_verdict_round_trips_through_json():
    for verdict in ({"state": "okay"}, {"state": "problem", "reason": "broken layout"}):
        assert parse_verdict(json.dumps(verdict)) == verdict


# --- remote agent ----------------------------------------------------------

def remote_config(stub_server, **overrides) -> RemoteAgentConfig:
    settings = {
        "endpoint": stub_server.url,
        "model": "test-model",
        "api_key_env": "GUISCOUT_TEST_KEY",
        "timeout": 5.0,
        "max_retries": 2,
        "retry_backoff": 0.01,
    }
    settings.update(overrides)
    return RemoteAgentConfig(**settings)


def test_remote_agent_returns_stub_body(stub_server, monkeypatch):
    monkeypatch.setenv("GUISCOUT_TEST_KEY", "secret-token-123")
    stub_server.set_responder(lambda body: (200, "hello from stub"))
    agent = RemoteAgent(remote_config(stub_server))
    assert agent.respond(controller_request()) == "hello from stub"
    (request,) = stub_server.requests
    assert request["headers"]["Authorization"] == "Bearer secret-token-123"
    assert request["body"]["model"] == "test-model"


def test_remote_evaluator_request_shape(stub_server, monkeypatch):
    monkeypatch.setenv("GUISCOUT_TEST_KEY", "secret-token-123")
    agent = RemoteAgent(remote_config(stub_server, temperature=0.0))
    sent = evaluator_request()
    agent.respond(sent)
    (request,) = stub_server.requests
    messages = request["body"]["messages"]
    assert len(messages) == 1
    assert messages[0]["role"] == "user"
    parts = messages[0]["content"]
    image_parts = [part for part in parts if part["type"] == "image_url"]
    assert len(image_parts) == 2
    payloads = [base64.b64decode(part["image_url"]["url"].split(",", 1)[1])
                for part in image_parts]
    assert payloads == [shot.rendered.encode("utf-8") for shot in sent.prompt.attachments]
    assert request["body"]["temperature"] == 0.0


def test_remote_image_parts_carry_each_canvas_as_utf8_text():
    request = evaluator_request()
    body = RemoteAgent(RemoteAgentConfig("http://localhost", "m"))._build_body(request)
    urls = [part["image_url"]["url"] for part in body["messages"][0]["content"][1:]]
    assert urls == ["data:text/plain; charset=utf-8;base64,"
                    + base64.b64encode(shot.rendered.encode("utf-8")).decode("ascii")
                    for shot in request.prompt.attachments]


def test_remote_agent_retries_transient_errors(stub_server, monkeypatch):
    monkeypatch.setenv("GUISCOUT_TEST_KEY", "k")
    calls = []

    def responder(body):
        calls.append(1)
        return (500, "") if len(calls) == 1 else (200, "recovered")

    stub_server.set_responder(responder)
    agent = RemoteAgent(remote_config(stub_server))
    assert agent.respond(controller_request()) == "recovered"
    assert len(calls) == 2


def test_remote_agent_gives_up_after_retries(stub_server, monkeypatch):
    monkeypatch.setenv("GUISCOUT_TEST_KEY", "k")
    stub_server.set_responder(lambda body: (503, ""))
    agent = RemoteAgent(remote_config(stub_server))
    with pytest.raises(AgentError, match="after 3 attempts"):
        agent.respond(controller_request())
    assert len(stub_server.requests) == 3


def test_remote_agent_does_not_retry_client_errors(stub_server, monkeypatch):
    monkeypatch.setenv("GUISCOUT_TEST_KEY", "k")
    stub_server.set_responder(lambda body: (400, ""))
    agent = RemoteAgent(remote_config(stub_server))
    with pytest.raises(AgentError, match="service error 400"):
        agent.respond(controller_request())
    assert len(stub_server.requests) == 1


def test_remote_agent_retries_a_refused_connection_then_names_it(monkeypatch):
    monkeypatch.setenv("GUISCOUT_TEST_KEY", "k")
    # A port that was just free and has no listener: every connect is refused.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = RemoteAgentConfig(endpoint=f"http://127.0.0.1:{port}/v1/chat/completions",
                               model="m", api_key_env="GUISCOUT_TEST_KEY", timeout=5.0,
                               max_retries=2, retry_backoff=0)
    with pytest.raises(RemoteAgentError,
                       match="^request failed after 3 attempts: transport error: "):
        RemoteAgent(config).respond(controller_request())


def test_remote_agent_rejects_a_body_that_is_not_json(stub_server, monkeypatch):
    monkeypatch.setenv("GUISCOUT_TEST_KEY", "k")
    stub_server.set_responder(lambda body: (200, b"<html>not json</html>"))
    agent = RemoteAgent(remote_config(stub_server))
    with pytest.raises(RemoteAgentError, match="^malformed completion response: "):
        agent.respond(controller_request())
    assert len(stub_server.requests) == 1


def test_remote_agent_requires_credential_env(stub_server, monkeypatch):
    monkeypatch.delenv("GUISCOUT_TEST_KEY", raising=False)
    agent = RemoteAgent(remote_config(stub_server))
    with pytest.raises(AgentError, match="GUISCOUT_TEST_KEY"):
        agent.respond(controller_request())
    assert stub_server.requests == []


def test_remote_config_rejects_out_of_range_temperature():
    with pytest.raises(ValueError, match="temperature"):
        RemoteAgentConfig(endpoint="http://x", model="m", temperature=3.0)
