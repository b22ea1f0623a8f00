import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiscout.actions import (
    ActionCommand,
    ActionLog,
    ActionLogEntry,
    LOG_STATUSES,
    ActionParseError,
    ControllerOutputError,
    extract_first_json_object,
    format_action,
    format_log,
    parse_action,
    parse_controller_output,
    validate_action,
)
from guiscout.widgets import ActionVerb, PossibleAction

EXAMPLE_OUTPUT = """{
    "action": "click(134478)",
    "explanation": "click next to get to the second page"
}"""


# --- parse_action ----------------------------------------------------------

def test_parse_bare_click():
    assert parse_action("click(134478)") == ActionCommand(ActionVerb.CLICK, 134478)


def test_parse_write_with_quoted_argument():
    cmd = parse_action("write(2166788, 'Number of Threads')")
    assert cmd == ActionCommand(ActionVerb.WRITE, 2166788, "Number of Threads")


def test_parse_argument_with_commas_and_escaped_quotes():
    cmd = parse_action(r"write(5, 'it\'s a, b\\c')")
    assert cmd.arg == "it's a, b\\c"


def test_parse_tolerates_surrounding_whitespace():
    assert parse_action("  select( 9 , 'File' )  ") == \
        ActionCommand(ActionVerb.SELECT, 9, "File")


def test_click_with_argument_is_an_arity_error():
    with pytest.raises(ActionParseError, match="click takes no argument"):
        parse_action("click(1, 'x')")


def test_write_without_argument_is_an_arity_error():
    with pytest.raises(ActionParseError, match="write requires an argument"):
        parse_action("write(1)")


def test_unknown_verb_names_the_fragment():
    with pytest.raises(ActionParseError, match="unknown verb 'drag'"):
        parse_action("drag(1)")


def test_non_integer_id_names_the_fragment():
    with pytest.raises(ActionParseError, match="non-integer control id 'abc'"):
        parse_action("click(abc)")


def test_trailing_garbage_is_rejected():
    with pytest.raises(ActionParseError, match="trailing text"):
        parse_action("click(1) click(2)")


@pytest.mark.parametrize("text, message", [
    ("42", "not an action command: '42'"),
    ("click()", "missing control id in 'click()'"),
    ("write(1, x)", "expected a quoted argument at: 'x)'"),
    ("write(1, 'ab\\", "unterminated escape in argument"),
    ("write(1, 'ab", "unterminated quoted argument"),
    ("write(1, 'ab' x)", "expected ')' at: 'x)'"),
])
def test_each_malformed_command_names_its_fault(text, message):
    with pytest.raises(ActionParseError, match=f"^{re.escape(message)}$"):
        parse_action(text)


# --- format_action ---------------------------------------------------------

def test_format_click():
    assert format_action(ActionCommand(ActionVerb.CLICK, 134478)) == "click(134478)"


def test_format_empty_argument():
    assert format_action(ActionCommand(ActionVerb.WRITE, 7, "")) == "write(7, '')"


def test_format_escapes_quotes_and_backslashes():
    cmd = ActionCommand(ActionVerb.WRITE, 7, "a'b\\c")
    assert format_action(cmd) == r"write(7, 'a\'b\\c')"
    assert parse_action(format_action(cmd)) == cmd


_ARG_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)


@st.composite
def commands(draw) -> ActionCommand:
    verb = draw(st.sampled_from(list(ActionVerb)))
    control_id = draw(st.integers(min_value=-10, max_value=10_000_000))
    arg = draw(_ARG_TEXT) if verb in (ActionVerb.WRITE, ActionVerb.SELECT) else None
    return ActionCommand(verb, control_id, arg)


@settings(max_examples=300)
@given(commands())
def test_parse_format_round_trip(cmd):
    assert parse_action(format_action(cmd)) == cmd


# --- parse_controller_output -----------------------------------------------

def test_parse_reference_example_output():
    out = parse_controller_output(EXAMPLE_OUTPUT)
    assert out.action == ActionCommand(ActionVerb.CLICK, 134478)
    assert out.explanation == "click next to get to the second page"


def test_fenced_wrapper_is_stripped():
    raw = 'Sure! ```json\n{"action":"click(1)","explanation":"e"}\n```'
    out = parse_controller_output(raw)
    assert out.action == ActionCommand(ActionVerb.CLICK, 1)
    assert out.explanation == "e"


def test_first_of_two_json_objects_wins():
    first = {"action": "click(1)", "explanation": "first"}
    second = {"action": "click(2)", "explanation": "second"}
    raw = f"{json.dumps(first)} and later {json.dumps(second)}"
    assert parse_controller_output(raw).explanation == "first"
    raw_swapped = f"{json.dumps(second)} and later {json.dumps(first)}"
    assert parse_controller_output(raw_swapped).explanation == "second"


def test_prose_before_and_after_is_tolerated():
    raw = ('I will click the Next button now.\n'
           '{"action": "click(41)", "explanation": "go on"}\nThanks!')
    assert parse_controller_output(raw).action.control_id == 41


def test_no_json_object_is_an_error():
    with pytest.raises(ControllerOutputError, match="no JSON object"):
        parse_controller_output("just words")


def test_missing_action_key():
    with pytest.raises(ControllerOutputError, match='"action"'):
        parse_controller_output('{"explanation": "e"}')


def test_missing_or_empty_explanation():
    with pytest.raises(ControllerOutputError, match='"explanation"'):
        parse_controller_output('{"action": "click(1)"}')
    with pytest.raises(ControllerOutputError, match='"explanation"'):
        parse_controller_output('{"action": "click(1)", "explanation": ""}')


def test_inner_action_error_is_propagated():
    with pytest.raises(ControllerOutputError, match="unknown verb"):
        parse_controller_output('{"action": "hover(1)", "explanation": "e"}')


@settings(max_examples=200)
@given(st.text(max_size=200))
def test_arbitrary_input_never_raises_unexpected_errors(raw):
    try:
        parse_controller_output(raw)
    except ControllerOutputError:
        pass


def test_extract_skips_non_object_json():
    assert extract_first_json_object('[1, 2] {"a": 1}') == {"a": 1}


# --- validate_action -------------------------------------------------------

def test_validate_accepts_listed_click():
    allowed = [PossibleAction(134478, ActionVerb.CLICK)]
    result = validate_action(ActionCommand(ActionVerb.CLICK, 134478), allowed)
    assert result.accepted and result.reason is None


def test_validate_rejects_when_nothing_is_allowed():
    result = validate_action(ActionCommand(ActionVerb.CLICK, 1), [])
    assert not result.accepted
    assert result.reason == "no actions available"


def test_validate_rejects_select_arg_outside_choices_naming_items():
    allowed = [PossibleAction(4, ActionVerb.SELECT, ("File", "Float"))]
    result = validate_action(ActionCommand(ActionVerb.SELECT, 4, "String"), allowed)
    assert not result.accepted
    assert "'File'" in result.reason and "'Float'" in result.reason


def test_validate_accepts_select_arg_inside_choices():
    allowed = [PossibleAction(4, ActionVerb.SELECT, ("File", "Float"))]
    assert validate_action(ActionCommand(ActionVerb.SELECT, 4, "Float"), allowed).accepted


def test_validate_rejects_unlisted_pair():
    allowed = [PossibleAction(1, ActionVerb.CLICK)]
    result = validate_action(ActionCommand(ActionVerb.CLICK, 2), allowed)
    assert not result.accepted
    assert "click(2)" in result.reason


def test_validate_is_pure():
    allowed = [PossibleAction(7, ActionVerb.WRITE)]
    cmd = ActionCommand(ActionVerb.WRITE, 7, "x")
    assert validate_action(cmd, allowed) == validate_action(cmd, allowed)


# --- the action log entry --------------------------------------------------

def test_log_entry_serializes_with_fixed_key_order():
    entry = ActionLogEntry("write(2166788, 'Number of Threads')", "enter a name", "executed")
    assert list(entry.to_json_obj()) == ["action", "explanation", "status"]


def test_empty_log_renders_as_empty_array():
    assert format_log([]) == "[]"


def test_log_rendering_matches_prompt_format():
    entry = ActionLogEntry("click(1)", "next", "rejected")
    assert format_log([entry]) == (
        '[\n  {\n    "action": "click(1)",\n    "explanation": "next",\n'
        '    "status": "rejected"\n  }\n]'
    )


# Quotes, backslashes, control characters and non-BMP characters are the
# cases where the string escaping of the two encoders could differ.
_LOG_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\\'/\x00\x1f\x7f\n\t\u2028\U0001F600\U00010000'),
    st.characters()), max_size=30)
_LOG_ENTRIES = st.lists(st.builds(ActionLogEntry, _LOG_TEXT, _LOG_TEXT,
                                  st.sampled_from(LOG_STATUSES)), max_size=20)


@settings(max_examples=300)
@given(_LOG_ENTRIES)
def test_log_rendering_equals_indented_json_dump(entries):
    log = ActionLog()
    assert format_log(log) == "[]"
    for count, entry in enumerate(entries, start=1):
        log.append(entry)  # extends the text in place
        assert format_log(log) == json.dumps(
            [logged.to_json_obj() for logged in entries[:count]], indent=2)
    expected = json.dumps([entry.to_json_obj() for entry in entries], indent=2)
    assert format_log(entries) == expected
    assert format_log(entries) == expected  # again, from the cached fragments


def test_unknown_status_is_rejected():
    with pytest.raises(ValueError, match="unknown status"):
        ActionLogEntry("click(1)", "x", "maybe")


def test_command_invariants_enforced_at_construction():
    with pytest.raises(ValueError):
        ActionCommand(ActionVerb.CLICK, 1, "arg")
    with pytest.raises(ValueError):
        ActionCommand(ActionVerb.WRITE, 1, None)
