"""Prompt assembly for the controller and evaluator agents.

Both prompts are built from fixed sections in a fixed order (controller:
Role, Task, Documentation, GUI, Action, ActionLog, Closing; evaluator: Role,
Task, Output, Action, Closing). Rendered text is the section bodies joined by
blank lines, and golden files in the test suite pin the bytes. A prompt
attaches the ``SimScreenshot`` objects the wizard rendered, not copies.

A prompt's digest is the sha256 of its UTF-8 text. SHA-256 is a streaming
hash, so the builders feed it the prompt's parts in order and never join
the text for it. A run that stores no prompt and sends none to a model
reads only digests, so a prompt joins its text and its section bodies only
when they are read (``RunWriter.write_prompt``, ``RemoteAgent``, the tests).

- The evaluator prompt goes on from the state of its constant head (Role,
  Task, Output and the action header) and feeds the explanation and the
  closing.
- The controller prompt's head is everything before its log: Role, Task,
  Documentation, GUI, Action and the log header. It is a function of the
  task, the documentation page and the GUI text, so its state is hashed once
  per process and kept in one cache of ``_HEAD_CACHE_SIZE`` entries, which
  every run, replay and thread shares. The digest copies that state and
  feeds the log text and the closing.
- A controller prompt can instead go on from an earlier one's
  ``resume_point``: the state of that prompt's text up to an offset into its
  log text, just after the log's last entry (or the ``[`` of an empty log).
  That is exact when the two prompts share the head and the earlier log
  text up to the cut is a prefix of the new one. Within one run the task,
  the documentation and the budget are fixed, and the page, and with it the
  documentation, is in the tree, so two prompts with the same tree digest
  share the head. The log only grows, by whole entries, and the cut comes
  before its closing ``]`` (and the newline before it). The log text is
  ASCII, because ``json.dumps`` escapes every other character, so an offset
  into it counts characters and bytes alike.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

from .actions import ActionLog, ActionLogEntry, format_log
from .widgets import WidgetKind, WidgetNode, serialize_tree

if TYPE_CHECKING:  # the simulator imports this module
    from .simulator import SimScreenshot


class MissingAttachmentError(ValueError):
    """A screenshot required by the prompt is absent."""


#: ``(state, offset)``: the sha256 state of a controller prompt's text up to
#: ``offset`` characters into its log text. The state is never updated;
#: whoever goes on from it hashes a copy.
HashedPrefix = tuple["hashlib._Hash", int]


class PromptDocument:
    """An ordered list of named sections plus up to two attached screenshots,
    and ``digest``, the sha256 hex digest of the UTF-8 text.

    Built from ``sections``, a prompt hashes their joined text. The builders
    below give the digest they fed from the parts instead, and each body as
    the pieces it is made of; ``text()`` and ``sections`` join them when
    read. A controller prompt's ``resume_point`` is the ``HashedPrefix`` for
    a later prompt that goes on from it; any other prompt has none.
    """

    __slots__ = ("attachments", "digest", "resume_point", "_names", "_pieces", "_text")

    def __init__(self, sections: Iterable[tuple[str, str]],
                 attachments: tuple[SimScreenshot, ...] = ()) -> None:
        if len(attachments) > 2:
            raise ValueError("a prompt carries at most two attachments")
        sections = tuple(sections)
        self._names = tuple(name for name, _ in sections)
        self._pieces = tuple((body,) for _, body in sections)
        self._text = None
        self.attachments = tuple(attachments)
        self.resume_point: HashedPrefix | None = None
        self.digest = hashlib.sha256(self.text().encode("utf-8")).hexdigest()

    @classmethod
    def _assembled(cls, names: tuple[str, ...], pieces: tuple[tuple[str, ...], ...],
                   attachments: tuple[SimScreenshot, ...], digest: str,
                   resume_point: HashedPrefix | None = None) -> PromptDocument:
        """A prompt whose ``digest`` the caller fed from ``pieces``, in order,
        with blank lines between the sections."""
        prompt = cls.__new__(cls)
        prompt._names, prompt._pieces, prompt._text = names, pieces, None
        prompt.attachments, prompt.digest, prompt.resume_point = attachments, digest, resume_point
        return prompt

    @property
    def sections(self) -> tuple[tuple[str, str], ...]:
        """The ``(name, body)`` pairs, in order."""
        return tuple(zip(self._names, map("".join, self._pieces)))

    def text(self) -> str:
        """The section bodies joined by blank lines, joined when first read."""
        if self._text is None:
            self._text = "\n\n".join(map("".join, self._pieces))
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

DOC_HEADER = "Documentation:\n"

LOG_HEADER = "The previous actions:\n"

_CONTROLLER_SECTIONS = ("Role", "Task", "Documentation", "GUI", "Action", "ActionLog", "Closing")

_EVALUATOR_SECTIONS = ("Role", "Task", "Output", "Action", "Closing")

# What each prompt feeds its hash around its variable parts: the state of
# its constant head, then the text between two variable parts, as bytes.
_CONTROLLER_HEAD = hashlib.sha256((CONTROLLER_ROLE + "\n\n" + TASK_HEADER).encode("utf-8"))
_AFTER_TASK = ("\n\n" + DOC_HEADER).encode("utf-8")
_AFTER_DOCUMENTATION = ("\n\n" + GUI_HEADER).encode("utf-8")
_AFTER_GUI = ("\n\n" + CONTROLLER_ACTION + "\n\n" + LOG_HEADER).encode("utf-8")
_AFTER_EMPTY_LOG = ("]\n\n" + CONTROLLER_CLOSING).encode("utf-8")
_AFTER_LOG = ("\n]\n\n" + CONTROLLER_CLOSING).encode("utf-8")
_EVALUATOR_HEAD = hashlib.sha256("\n\n".join(
    (EVALUATOR_ROLE, EVALUATOR_TASK, EVALUATOR_OUTPUT, EVALUATOR_ACTION_HEADER + "\n")
).encode("utf-8"))
_AFTER_EXPLANATION = ("\n\n" + EVALUATOR_CLOSING).encode("utf-8")

# The most controller-prompt heads the process keeps hashed; the least
# recently used goes first. The scripted traversals of the 32 default-fault
# subsets show 45 GUIs, and this leaves room for a few more. An entry keeps
# its GUI text alive, a few KB, also after the node table drops the node.
_HEAD_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_HEAD_CACHE_SIZE)
def _controller_head(task: str, documentation: str, gui: str) -> hashlib._Hash:
    """The sha256 state of a controller prompt's text up to its log. It is
    never updated; whoever goes on from it hashes a copy."""
    state = _CONTROLLER_HEAD.copy()
    for part in (task.encode("utf-8"), _AFTER_TASK, documentation.encode("utf-8"),
                 _AFTER_DOCUMENTATION, gui.encode("utf-8"), _AFTER_GUI):
        state.update(part)
    return state


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
    the closing. Without it, the digest goes on from the process's hashed
    head for this task, documentation and GUI.
    """
    log_text = format_log(log)
    documentation = select_documentation(docs, tree, doc_budget)
    gui = serialize_tree(tree)
    state, start = resume or (_controller_head(task, documentation, gui), 0)
    # The log text ends in "[]" when empty and in "\n]" otherwise.
    empty = log_text == "[]"
    cut = len(log_text) - (1 if empty else 2)
    point = state.copy()
    point.update(log_text[start:cut].encode("ascii"))
    # The rest goes to a copy, so that ``point`` stays at the cut.
    final = point.copy()
    final.update(_AFTER_EMPTY_LOG if empty else _AFTER_LOG)
    pieces = ((CONTROLLER_ROLE,), (TASK_HEADER, task), (DOC_HEADER, documentation),
              (GUI_HEADER, gui), (CONTROLLER_ACTION,), (LOG_HEADER, log_text),
              (CONTROLLER_CLOSING,))
    attachments = (screenshot,) if screenshot is not None else ()
    return PromptDocument._assembled(_CONTROLLER_SECTIONS, pieces, attachments,
                                     final.hexdigest(), (point, cut))


def build_evaluator_prompt(
    action_explanation: str,
    before: SimScreenshot | None,
    after: SimScreenshot | None,
) -> PromptDocument:
    """Assemble the evaluator prompt for one before/after screenshot pair."""
    if before is None or after is None:
        raise MissingAttachmentError("the evaluator prompt needs both a before and an after image")
    state = _EVALUATOR_HEAD.copy()
    state.update(action_explanation.encode("utf-8"))
    state.update(_AFTER_EXPLANATION)
    pieces = ((EVALUATOR_ROLE,), (EVALUATOR_TASK,), (EVALUATOR_OUTPUT,),
              (EVALUATOR_ACTION_HEADER, "\n", action_explanation), (EVALUATOR_CLOSING,))
    return PromptDocument._assembled(_EVALUATOR_SECTIONS, pieces, (before, after),
                                     state.hexdigest())
