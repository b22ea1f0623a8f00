"""Prompt assembly for the controller and evaluator agents.

Both prompts are built from fixed sections in a fixed order (controller:
Role, Task, Documentation, GUI, Action, ActionLog, Closing; evaluator: Role,
Task, Output, Action, Closing). Rendered text is the section bodies joined by
blank lines, and golden files in the test suite pin the bytes. A prompt
attaches the ``SimScreenshot`` objects the wizard rendered, not copies.

A prompt's digest is the sha256 of its UTF-8 text. SHA-256 is a streaming
hash, so a prompt need not hash a prefix of its text whose state it is given
(a ``HashedPrefix``): it copies that state and feeds only the rest. Every
prompt starts from the state of its constant head (the controller's Role and
task header; the evaluator's Role, Task, Output and action header). A
controller prompt can also start from the state of an earlier one, cut just
after that prompt's last log entry, and that is exact when the earlier
prompt's text up to the cut is a prefix of the new text:

- Within one run the task, the documentation (a read-only mapping from
  page key to page text) and the budget are fixed, so every character
  before the log is a function of the widget tree: the page, and with it
  the documentation, is in the tree. Two prompts with the same tree digest
  agree up to the log.
- The log only grows, by whole entries, and the cut comes before its closing
  ``]`` (and the newline before it), so the later log text extends the cut.
- A state counts the characters it covers, and the text is cut by
  characters, never inside one, so a non-ASCII task works too. What is fed
  after a cut, log fragments and the closing, is ASCII anyway, because
  ``json.dumps`` escapes every other character.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping
from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING

from .actions import ActionLog, ActionLogEntry, format_log
from .widgets import WidgetKind, WidgetNode, serialize_tree

if TYPE_CHECKING:  # the simulator imports this module
    from .simulator import SimScreenshot


class MissingAttachmentError(ValueError):
    """A screenshot required by the prompt is absent."""


#: ``(state, length)``: the sha256 state of a text's first ``length``
#: characters. The state is never updated; whoever goes on from it hashes a copy.
HashedPrefix = tuple["hashlib._Hash", int]


def _hashed_prefix(text: str) -> HashedPrefix:
    return hashlib.sha256(text.encode("utf-8")), len(text)


_EMPTY_PREFIX = _hashed_prefix("")


@dataclass(frozen=True)
class PromptDocument:
    """An ordered list of named sections plus up to two attached screenshots.

    ``hashed`` is the state of a prefix of the text, which the digest goes on
    from; the caller vouches that the text starts with what it covers.
    ``resume_point`` is the state of the whole text but its last ``tail``
    characters, for a later prompt whose text extends that much of this one.
    """

    sections: tuple[tuple[str, str], ...]
    attachments: tuple[SimScreenshot, ...] = ()
    hashed: InitVar[HashedPrefix] = _EMPTY_PREFIX
    tail: InitVar[int] = 0

    def __post_init__(self, hashed: HashedPrefix, tail: int) -> None:
        if len(self.attachments) > 2:
            raise ValueError("a prompt carries at most two attachments")
        # Every prompt is written and hashed, so both are derived once, here:
        # the section bodies joined by blank lines, and the sha256 hex digest
        # of their UTF-8 bytes, fed from the end of ``hashed`` on.
        text = "\n\n".join(body for _, body in self.sections)
        prefix, start = hashed
        cut = len(text) - tail
        state = prefix.copy()
        state.update(text[start:cut].encode("utf-8"))
        # The tail goes to a copy, so that ``state`` stays at the cut. (The
        # copy is also faster to feed: a state once fed 2 KiB or more at a
        # time takes a lock on every later call.)
        final = state.copy() if tail else state
        final.update(text[cut:].encode("utf-8"))
        object.__setattr__(self, "resume_point", (state, cut))
        object.__setattr__(self, "_text", text)
        object.__setattr__(self, "digest", final.hexdigest())

    def text(self) -> str:
        """The section bodies joined by blank lines."""
        return self._text


DEFAULT_DOC_BUDGET = 8000

CONTROLLER_ROLE = """Your Role:
You are an automated system that controls the software RCE.
You are given a task, the GUI of RCE and documentation about the software in textual form.
You have to interact with the GUI to achieve the given task.
You can control the GUI by sending actions to the software.
The software will execute the actions and give you feedback about the result, by sending you the new state of the GUI and whether the action was successful or not.
You must use the information about the GUI and the documentation to decide which actions to take.
Include the information about the position of the GUI-Elements and the text of the GUI-Elements in your decision.
Also consider which Parent-Elements the GUI-Elements have.
It is important to take the context of the GUI-Elements into account when deciding which actions to take
You can also use the feedback about the result of the actions to decide which actions to take next."""

CONTROLLER_ACTION = """There are different types of GUI-Elements in the GUI of RCE.
UIAWrapper and StaticWrapper are GUI-Elements that can not be interacted with.
Their only purpose is to display information or group other Gui Elements.
The ButtonWrapper is a GUI-Element that can be clicked.
The EditWrapper is a text input field that can be written to.
The ComboBoxWrapper is a drop-down list from which one item can be selected.
The CheckBoxWrapper is a GUI-Element that can be checked or unchecked.
The RadioButtonWrapper is a GUI-Element that can be clicked to select one option of a group.
The ListItemWrapper and TabItemWrapper are GUI-Elements that can be clicked.
To control a GUI-Element output a command in the following Format:
<action>(<control id>), for example click(134478)
For each control type there are different actions posible.
The StaticWrapper, ToolbarWrapper and UIAWrapper have no actions.
The ButtonWrapper has the click(<control_id>) action, for example click(134478)
The EditWrapper has the write(<control_id>, '<text>') action, for example write(134478, 'some text')
The ComboBoxWrapper has the select(<control_id>, '<item>') action, for example select(134478, 'some item')
The CheckBoxWrapper has the check(<control_id>) and uncheck(<control_id>) actions, for example check(134478)
The RadioButtonWrapper has the click(<control_id>) action, for example click(134478)
The ListItemWrapper and TabItemWrapper have the click(<control_id>) action, for example click(134478)
You must format your output in JSON as the following:
{
    "action": "<action>",
    "explanation": "<what the action does and why you do it>"
}
example 1:
{
    "action": "click(134478)",
    "explanation": "click next to get to the second page"
}
example 2:
{
    "action": "write(2166788, 'Number of Threads')",
    "explanation": "write a display name into the text field to make the key human-readable"
}"""

TASK_HEADER = "Your task:\n"

GUI_HEADER = "The current state of the GUI:\n"

CONTROLLER_CLOSING = (
    "What action do you want to take to do the next step for achieving the given task?"
)

EVALUATOR_ROLE = """You are a very experienced GUI Tester.
You observe the GUI of a Software.
A system performs actions on the GUI.
After each action taken on the GUI you evaluate whether the software behaves as expected or if there are any issues.
You are provided with a screenshot of the GUI before and after the action."""

EVALUATOR_TASK = """Check if there are any inconsistencies, unexpected behaviour or UI Elements that are not visible.
In detail check the following:
- the size, position, height, width of the visual elements
- Checking the message displayed, frequency and content
- Checking alignment of radio buttons, drop downs
- Verifying the title of each section and their correctness
- Cross-checking the colors and its synchronization with the theme"""

EVALUATOR_OUTPUT = """Format your output as JSON.
For example:
{
    "state": "problem",
    "reason": "The Text of the Description is not fully visible."
}
If there are no problems output:
{
    "state": "okay"
}"""

# The historical header repeats "was"; the golden files pin it byte for byte.
EVALUATOR_ACTION_HEADER = "The action performed between the two images was was:"

EVALUATOR_CLOSING = "Are there any problems with the GUI after the action was performed?"

_CLOSING_LENGTH = len("\n\n" + CONTROLLER_CLOSING)

# The constant head of each prompt's text, hashed once per process.
_CONTROLLER_HEAD = _hashed_prefix(CONTROLLER_ROLE + "\n\n" + TASK_HEADER)
_EVALUATOR_HEAD = _hashed_prefix("\n\n".join(
    (EVALUATOR_ROLE, EVALUATOR_TASK, EVALUATOR_OUTPUT, EVALUATOR_ACTION_HEADER + "\n")))


def select_documentation(
    docs: Mapping[str, str], tree: WidgetNode, budget: int = DEFAULT_DOC_BUDGET
) -> str:
    """Pick the documentation page matching the current wizard page.

    ``docs`` maps a page key to its page. The page is identified by the
    active-page marker on the dialog root. Without a match, falls back to
    concatenating all pages up to the character budget.
    """
    marker = tree.extra_state.get("active_page") if tree.kind is WidgetKind.DIALOG else None
    body = docs.get(marker) if isinstance(marker, str) else None
    if body is None:
        body = "\n\n".join(docs.values())
    return body[:budget]


def build_controller_prompt(
    task: str,
    docs: Mapping[str, str],
    tree: WidgetNode,
    log: ActionLog | Iterable[ActionLogEntry],
    screenshot: SimScreenshot | None = None,
    doc_budget: int = DEFAULT_DOC_BUDGET,
    resume: HashedPrefix | None = None,
) -> PromptDocument:
    """Assemble the controller prompt for one iteration.

    Its ``resume_point`` ends just after the log's last entry, or after the
    ``[`` of an empty log. ``resume`` is the ``resume_point`` of an earlier
    prompt with the same task, documentation, budget and tree, whose log this
    log extends; the digest then hashes only the entries appended since and
    the closing. Without it, the digest goes on from the constant head.
    """
    log_text = format_log(log)
    sections = (
        ("Role", CONTROLLER_ROLE),
        ("Task", TASK_HEADER + task),
        ("Documentation", "Documentation:\n" + select_documentation(docs, tree, doc_budget)),
        ("GUI", GUI_HEADER + serialize_tree(tree)),
        ("Action", CONTROLLER_ACTION),
        ("ActionLog", "The previous actions:\n" + log_text),
        ("Closing", CONTROLLER_CLOSING),
    )
    attachments = (screenshot,) if screenshot is not None else ()
    # The log text ends in "[]" when empty and in "\n]" otherwise.
    tail = (1 if log_text == "[]" else 2) + _CLOSING_LENGTH
    return PromptDocument(sections=sections, attachments=attachments,
                          hashed=resume or _CONTROLLER_HEAD, tail=tail)


def build_evaluator_prompt(
    action_explanation: str,
    before: SimScreenshot | None,
    after: SimScreenshot | None,
) -> PromptDocument:
    """Assemble the evaluator prompt for one before/after screenshot pair."""
    if before is None or after is None:
        raise MissingAttachmentError("the evaluator prompt needs both a before and an after image")
    sections = (
        ("Role", EVALUATOR_ROLE),
        ("Task", EVALUATOR_TASK),
        ("Output", EVALUATOR_OUTPUT),
        ("Action", EVALUATOR_ACTION_HEADER + "\n" + action_explanation),
        ("Closing", EVALUATOR_CLOSING),
    )
    return PromptDocument(sections=sections, attachments=(before, after), hashed=_EVALUATOR_HEAD)
