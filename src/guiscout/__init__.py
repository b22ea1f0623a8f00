"""guiscout: two-agent exploratory GUI testing with a simulated wizard backend.

A controller agent reads a widget-tree snapshot and picks actions, an executor
applies them to the system under test, an evaluator agent judges each
before/after screenshot pair, and a triage pipeline consolidates the flagged
problems into unique issues. Everything runs end to end against a
deterministic simulated tool-integration wizard, so the whole pipeline is
testable without a live model or a live desktop application.
"""

from .actions import (
    ActionCommand,
    ActionLog,
    ActionLogEntry,
    ActionParseError,
    ControllerOutput,
    ControllerOutputError,
    ValidationResult,
    format_action,
    parse_action,
    parse_controller_output,
    validate_action,
)
from .agents import (
    Agent,
    AgentError,
    AgentRequest,
    OracleAgent,
    RandomAgent,
    RemoteAgent,
    RemoteAgentConfig,
    ScriptedAgent,
    ScriptExhausted,
    parse_verdict,
)
from .harness import (
    CampaignError,
    IterationRecord,
    ReplayDivergence,
    RunConfig,
    RunRecord,
    load_blobs,
    load_record,
    replay,
    run,
    run_many,
)
from .prompts import (
    PromptDocument,
    build_controller_prompt,
    build_evaluator_prompt,
    select_documentation,
)
from .simulator import (
    FaultKind,
    FaultSpec,
    SimScreenshot,
    SimWizard,
    default_doc_corpus,
    default_fault_set,
    default_wizard_config,
    full_traversal_script,
    new_wizard,
)
from .triage import (
    Label,
    LabelFile,
    PositiveFinding,
    Report,
    build_report,
    collect_positives,
)
from .widgets import (
    ActionVerb,
    PossibleAction,
    Rect,
    WidgetKind,
    WidgetNode,
    possible_actions,
    serialize_tree,
)

__version__ = "0.1.0"
