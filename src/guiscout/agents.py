"""Agent implementations behind one interface, plus evaluator verdict parsing.

Four agents ship: scripted playback for deterministic tests, a seeded random
policy over the possible actions the request carries (a monkey-testing
baseline), the fault-aware oracle evaluator, which reads the screenshots the
prompt attaches, and a remote chat-completion client for real models. A
verdict is the dict a record stores; ``check_verdict`` alone decides what is one.
"""

from __future__ import annotations

import base64
import json
import math
import os
import random
import time
from dataclasses import asdict, dataclass

from .actions import ActionCommand, extract_first_json_object, format_action
from .prompts import PromptDocument
from .widgets import ActionVerb, PossibleAction


class AgentError(Exception):
    """An agent could not produce a response."""


class ScriptExhausted(AgentError):
    """A scripted agent ran out of lines."""


class RemoteAgentError(AgentError):
    """The chat-completion request failed permanently."""


class VerdictParseError(ValueError):
    """An evaluator response could not be turned into a verdict."""


AGENT_ROLES = ("controller", "evaluator")


@dataclass(frozen=True)
class AgentRequest:
    """A prompt for one role; a controller request carries the possible actions."""

    prompt: PromptDocument
    role: str
    actions: tuple[PossibleAction, ...] = ()

    def __post_init__(self) -> None:
        if self.role not in AGENT_ROLES:
            raise ValueError(f"unknown agent role {self.role!r}")
        if self.role == "evaluator" and len(self.prompt.attachments) != 2:
            raise ValueError("evaluator requests carry exactly two attachments")


def check_verdict(verdict: dict) -> dict:
    """``verdict`` if it is exactly ``{"state": "okay"}`` or ``{"state":
    "problem", "reason": r}`` with ``r`` non-empty text; else ValueError."""
    state = verdict.get("state")
    if state is None:
        raise ValueError("verdict JSON lacks a state")
    if state == "okay":
        keys = {"state"}
    elif state == "problem":
        reason = verdict.get("reason")
        if not isinstance(reason, str) or not reason:
            raise ValueError("problem verdict without a reason")
        keys = {"state", "reason"}
    else:
        raise ValueError(f"unknown state {state!r}")
    if verdict.keys() != keys:
        raise ValueError(f"{state} verdict with keys {sorted(verdict)}, not {sorted(keys)}")
    return verdict


def parse_verdict(raw: str) -> dict:
    """The verdict in raw evaluator output's first JSON object. A model may say
    more, so only the state and a problem's reason are read."""
    try:
        obj = extract_first_json_object(raw)
        state = obj.get("state")
        return check_verdict({"state": state, "reason": obj.get("reason")}
                             if state == "problem" else {"state": state})
    except ValueError as exc:
        raise VerdictParseError(str(exc)) from None


class Agent:
    """Uniform interface: one raw text response per request."""

    def respond(self, request: AgentRequest) -> str:
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """True once the agent can produce no further responses."""
        return False


class ScriptedAgent(Agent):
    """Plays back a fixed list of responses, then raises ScriptExhausted."""

    def __init__(self, lines: list[str]):
        self._lines = list(lines)
        self._next = 0

    def respond(self, request: AgentRequest) -> str:
        if self._next >= len(self._lines):
            raise ScriptExhausted(f"script exhausted after {len(self._lines)} responses")
        line = self._lines[self._next]
        self._next += 1
        return line

    @property
    def finished(self) -> bool:
        return self._next >= len(self._lines)


_WRITE_POOL = (
    "test",
    "1.0",
    "/tmp/work",
    "C:\\tools\\mytool",
    "42",
    "hello world",
    "mapping.xml",
)


class RandomAgent(Agent):
    """Controller-only monkey policy: picks uniformly among the possible
    actions the request carries.

    The per-request RNG is derived from (seed, prompt digest), so the same
    request always yields the same response and a whole run is reproducible
    from its seed.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def respond(self, request: AgentRequest) -> str:
        if request.role != "controller":
            raise AgentError("the random agent only supports the controller role")
        candidates = [pa for pa in request.actions if self._satisfiable(pa)]
        if not candidates:
            raise AgentError("the request carries no possible action")
        rng = random.Random(f"{self.seed}:{request.prompt.digest}")
        chosen = rng.choice(candidates)
        arg: str | None = None
        if chosen.verb is ActionVerb.WRITE:
            arg = rng.choice(_WRITE_POOL)
        elif chosen.verb is ActionVerb.SELECT:
            arg = rng.choice(chosen.choices)
        command = format_action(ActionCommand(chosen.verb, chosen.control_id, arg))
        explanation = f"try {chosen.verb.value} on control {chosen.control_id}"
        return json.dumps({"action": command, "explanation": explanation})

    @staticmethod
    def _satisfiable(pa: PossibleAction) -> bool:
        return pa.verb is not ActionVerb.SELECT or bool(pa.choices)


# The oracle's okay verdict, encoded once per process.
_OKAY_RESPONSE = json.dumps({"state": "okay"})


class OracleAgent(Agent):
    """Evaluator-only ground truth: reports fault i with ``reasons[i]`` once, at
    the first request whose screenshots show it (the lowest i first); else okay."""

    def __init__(self, reasons: list[str]):
        self.reasons = list(reasons)
        self._reported: set[int] = set()

    def respond(self, request: AgentRequest) -> str:
        if request.role != "evaluator":
            raise AgentError("the oracle agent judges only evaluator requests")
        before, after = request.prompt.attachments
        pending = (before.visible_faults | after.visible_faults) - self._reported
        if not pending:
            return _OKAY_RESPONSE
        index = min(pending)
        self._reported.add(index)
        return json.dumps({"state": "problem", "reason": self.reasons[index]})


@dataclass(frozen=True)
class RemoteAgentConfig:
    """Connection settings for a chat-completion-style endpoint.

    The credential is read from the named environment variable at request
    time and is never stored on the config, logged, or persisted.
    """

    endpoint: str
    model: str
    api_key_env: str = "GUISCOUT_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    temperature: float = 1.0
    retry_backoff: float = 1.0

    def __post_init__(self) -> None:
        for name, kind in (("endpoint", str), ("model", str), ("api_key_env", str),
                           ("timeout", (int, float)), ("max_retries", int),
                           ("temperature", (int, float)), ("retry_backoff", (int, float))):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} has the wrong type: {value!r}")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be in [0, 2], got {self.temperature}")
        # Out of range, requests or time.sleep would fail inside the run, and
        # a negative retry count would make no request at all.
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a positive number of seconds, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be at least 0, got {self.max_retries}")
        if not 0.0 <= self.retry_backoff < math.inf:
            raise ValueError(f"retry_backoff must be a finite number of seconds >= 0, "
                             f"got {self.retry_backoff}")

    def to_json_obj(self) -> dict:
        return asdict(self)


SCREENSHOT_MEDIA_TYPE = "text/plain; charset=utf-8"  # a screenshot is its canvas text


class RemoteAgent(Agent):
    """Sends the prompt as one user message; attached screenshots become image parts."""

    def __init__(self, config: RemoteAgentConfig):
        self.config = config

    def _build_body(self, request: AgentRequest) -> dict:
        content: list[dict] = [{"type": "text", "text": request.prompt.text()}]
        for shot in request.prompt.attachments:
            encoded = base64.b64encode(shot.rendered.encode("utf-8")).decode("ascii")
            content.append(
                {
                    "type": "image_url",
                    "image_url": {"url": f"data:{SCREENSHOT_MEDIA_TYPE};base64,{encoded}"},
                }
            )
        return {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": content}],
        }

    def respond(self, request: AgentRequest) -> str:
        # Imported on first use: it adds about 14 MiB of memory to every
        # process, and runs with only local agents never send a request.
        import requests

        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise RemoteAgentError(
                f"environment variable {self.config.api_key_env} is not set"
            )
        body = self._build_body(request)
        headers = {"Authorization": f"Bearer {key}"}
        delay = self.config.retry_backoff
        last_error = "no attempt made"
        for attempt in range(self.config.max_retries + 1):
            if attempt > 0:
                time.sleep(delay)
                delay *= 2
            try:
                response = requests.post(
                    self.config.endpoint, json=body, headers=headers, timeout=self.config.timeout
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
                continue
            if response.status_code == 200:
                try:
                    payload = response.json()
                    content = payload["choices"][0]["message"]["content"]
                except (ValueError, LookupError, TypeError) as exc:
                    raise RemoteAgentError(f"malformed completion response: {exc}") from exc
                # A null or a list of parts is no response the parsers can read.
                if not isinstance(content, str):
                    raise RemoteAgentError(f"malformed completion response: the content is "
                                           f"{type(content).__name__}, not text")
                return content
            if response.status_code == 429 or response.status_code >= 500:
                last_error = f"service returned {response.status_code}"
                continue
            raise RemoteAgentError(
                f"service error {response.status_code}: {response.text[:200]}"
            )
        raise RemoteAgentError(
            f"request failed after {self.config.max_retries + 1} attempts: {last_error}"
        )
