"""Action command grammar and controller-output parsing.

Commands look like ``click(134478)`` or ``write(2166788, 'Number of Threads')``:
a verb, a control id, and for write/select a single-quoted argument that may
contain commas and backslash-escaped quotes. Controller responses are JSON
objects with exactly an "action" string and an "explanation" string, possibly
wrapped in prose or code fences by a chatty model.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .widgets import ActionVerb, PossibleAction


class ActionParseError(ValueError):
    """An action command string could not be parsed."""


class ControllerOutputError(ValueError):
    """A controller response could not be turned into a ControllerOutput."""


#: Verbs that take exactly one quoted argument; all others take none.
ARG_VERBS = frozenset({ActionVerb.WRITE, ActionVerb.SELECT})

LOG_STATUSES = ("executed", "failed", "rejected")


@dataclass(frozen=True)
class ActionCommand:
    """One action verb bound to a control id, plus an optional argument."""

    verb: ActionVerb
    control_id: int
    arg: str | None = None

    def __post_init__(self) -> None:
        if self.verb in ARG_VERBS and self.arg is None:
            raise ValueError(f"{self.verb.value} requires an argument")
        if self.verb not in ARG_VERBS and self.arg is not None:
            raise ValueError(f"{self.verb.value} takes no argument")


@dataclass(frozen=True)
class ControllerOutput:
    """Parsed controller response: the chosen action and its explanation."""

    action: ActionCommand
    explanation: str


@dataclass(frozen=True)
class ValidationResult:
    accepted: bool
    reason: str | None = None

    def __post_init__(self) -> None:
        if not self.accepted and not self.reason:
            raise ValueError("a rejection needs a reason")


_ACCEPTED = ValidationResult(True)  # shared: a result never changes


@dataclass(frozen=True)
class ActionLogEntry:
    """One attempted action as remembered between iterations.

    Serialized with exactly the keys action/explanation/status, in that order.
    """

    action: str
    explanation: str
    status: str

    def __post_init__(self) -> None:
        if self.status not in LOG_STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        # This entry as an element of ``json.dumps(log, indent=2)``, rendered
        # once. ``json.dumps(str)`` escapes as the indenting encoder does
        # (``ensure_ascii``).
        object.__setattr__(self, "log_fragment", (
            '  {\n    "action": ' + json.dumps(self.action)
            + ',\n    "explanation": ' + json.dumps(self.explanation)
            + ',\n    "status": ' + json.dumps(self.status) + "\n  }"))

    def to_json_obj(self) -> dict[str, str]:
        return {"action": self.action, "explanation": self.explanation, "status": self.status}


class ActionLog:
    """The action log of a run and its text as embedded in controller prompts:
    the bytes of ``json.dumps([entry.to_json_obj() ...], indent=2)``. An
    append extends the text by the entry's fragment, so no step joins
    the whole log again."""

    def __init__(self, entries: Iterable[ActionLogEntry] = ()) -> None:
        self.text = "[]"
        for entry in entries:
            self.append(entry)

    def append(self, entry: ActionLogEntry) -> None:
        fragment = entry.log_fragment
        self.text = (f"[\n{fragment}\n]" if self.text == "[]"
                     else f"{self.text[:-2]},\n{fragment}\n]")


def format_log(log: ActionLog | Iterable[ActionLogEntry]) -> str:
    """The action log as the JSON array embedded in controller prompts. A
    run's ActionLog already holds that text; other entries are logged first."""
    return (log if isinstance(log, ActionLog) else ActionLog(log)).text


_HEAD_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*\(")
_ID_RE = re.compile(r"\s*([^\s,)'][^,)]*?)\s*(?=[,)])")


def _scan_quoted(text: str, pos: int) -> tuple[str, int]:
    """Read a single-quoted, backslash-escaped string starting at text[pos]."""
    if pos >= len(text) or text[pos] != "'":
        raise ActionParseError(f"expected a quoted argument at: {text[pos:pos + 20]!r}")
    out: list[str] = []
    i = pos + 1
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ActionParseError("unterminated escape in argument")
            out.append(text[i + 1])
            i += 2
            continue
        if ch == "'":
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise ActionParseError("unterminated quoted argument")


def parse_action(text: str) -> ActionCommand:
    """Parse an action command such as ``write(2166788, 'Number of Threads')``."""
    head = _HEAD_RE.match(text)
    if head is None:
        raise ActionParseError(f"not an action command: {text.strip()!r}")
    name = head.group(1)
    try:
        verb = ActionVerb(name)
    except ValueError:
        raise ActionParseError(f"unknown verb {name!r}") from None

    pos = head.end()
    id_match = _ID_RE.match(text, pos)
    if id_match is None:
        raise ActionParseError(f"missing control id in {text.strip()!r}")
    id_token = id_match.group(1)
    try:
        control_id = int(id_token)
    except ValueError:
        raise ActionParseError(f"non-integer control id {id_token!r}") from None
    pos = id_match.end()

    arg: str | None = None
    if pos < len(text) and text[pos] == ",":
        pos += 1
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        arg, pos = _scan_quoted(text, pos)
        while pos < len(text) and text[pos] in " \t":
            pos += 1

    if pos >= len(text) or text[pos] != ")":
        raise ActionParseError(f"expected ')' at: {text[pos:pos + 20]!r}")
    if text[pos + 1:].strip():
        raise ActionParseError(f"trailing text after command: {text[pos + 1:].strip()!r}")

    try:
        return ActionCommand(verb, control_id, arg)
    except ValueError as exc:
        raise ActionParseError(str(exc)) from None


def format_action(cmd: ActionCommand) -> str:
    """Render a command in canonical form; inverse of :func:`parse_action`."""
    if cmd.arg is None:
        return f"{cmd.verb.value}({cmd.control_id})"
    escaped = cmd.arg.replace("\\", "\\\\").replace("'", "\\'")
    return f"{cmd.verb.value}({cmd.control_id}, '{escaped}')"


# One decoder for every response, as json.loads shares one.
_DECODER = json.JSONDecoder()


def extract_first_json_object(text: str) -> dict:
    """Return the first syntactically complete JSON object embedded in text.

    Models wrap their JSON in prose or code fences; scanning for the first
    decodable object tolerates all of that.
    """
    idx = 0
    while True:
        start = text.find("{", idx)
        if start == -1:
            raise ValueError("no JSON object found")
        try:
            obj, _ = _DECODER.raw_decode(text[start:])
        except json.JSONDecodeError:
            idx = start + 1
            continue
        if isinstance(obj, dict):
            return obj
        idx = start + 1


def parse_controller_output(raw: str) -> ControllerOutput:
    """Extract and parse the controller's JSON response from raw model output."""
    try:
        obj = extract_first_json_object(raw)
    except ValueError as exc:
        raise ControllerOutputError(str(exc)) from None
    action_text = obj.get("action")
    if not isinstance(action_text, str):
        raise ControllerOutputError('output JSON lacks an "action" string')
    explanation = obj.get("explanation")
    if not isinstance(explanation, str) or not explanation:
        raise ControllerOutputError('output JSON lacks a non-empty "explanation"')
    try:
        cmd = parse_action(action_text)
    except ActionParseError as exc:
        raise ControllerOutputError(f"invalid action {action_text!r}: {exc}") from exc
    return ControllerOutput(action=cmd, explanation=explanation)


def validate_action(cmd: ActionCommand, allowed: Sequence[PossibleAction]) -> ValidationResult:
    """Decide whether a command is one of the currently possible actions."""
    if not allowed:
        return ValidationResult(False, "no actions available")
    for pa in allowed:
        if pa.control_id == cmd.control_id and pa.verb == cmd.verb:
            break
    else:
        return ValidationResult(
            False, f"{format_action(cmd)} is not among the possible actions"
        )
    if cmd.verb is ActionVerb.SELECT and cmd.arg not in pa.choices:
        listing = ", ".join(repr(c) for c in pa.choices) or "(none)"
        return ValidationResult(
            False, f"{cmd.arg!r} is not a valid item; valid items: {listing}"
        )
    return _ACCEPTED
