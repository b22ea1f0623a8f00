"""Span recording for the benchmark's traced run.

The wrappers are installed from outside the package, on freshly imported
``guiscout`` modules, and only in traced rounds. A function bound with
``from .x import y`` is replaced in every ``guiscout`` module namespace that
holds it; a method is replaced on its class, so calls made from inside the
class (``render`` calling ``snapshot``) are caught too. Spans stay in memory
until the run ends and are then turned into self times, counts and byte
totals per layer.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

RUN_ITERATION = "harness.run_iteration"
HOOK = "trace.hook"


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``name`` or ``Class.method`` in ``module``."""

    span: str
    module: str
    attr: str
    # (args, result) -> int, summed over the span's calls (bytes or outcome counts)
    value: Callable | None = None
    # args -> str, distinguishes calls of one span name (the CLI command)
    tag: Callable | None = None


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


class _FirstSeen:
    """Counts a payload's bytes only the first time one writer receives it,
    because the run directory stores prompts and shots by content."""

    def __init__(self) -> None:
        self._seen: set[tuple[str, bytes]] = set()
        self._lock = threading.Lock()

    def __call__(self, writer: object, text: str) -> int:
        data = text.encode("utf-8")
        key = (str(getattr(writer, "run_dir", id(writer))), hashlib.blake2b(data).digest())
        with self._lock:
            if key in self._seen:
                return 0
            self._seen.add(key)
        return len(data)


def targets(prompt_text: Callable) -> list[Target]:
    """Every callable the traced run wraps, one or more per layer.

    ``prompt_text`` is the unwrapped ``PromptDocument.text``, so measuring a
    prompt's size adds no call to the counts.
    """
    first_seen = _FirstSeen()
    return [
        Target("widgets.serialize_tree", "widgets", "serialize_tree"),
        Target("widgets.parse_tree", "widgets", "parse_tree"),
        Target("widgets.possible_actions", "widgets", "possible_actions"),
        Target("actions.format_log", "actions", "format_log",
               value=lambda args, out: _utf8_len(out)),
        Target("actions.parse_controller_output", "actions", "parse_controller_output"),
        Target("actions.validate_action", "actions", "validate_action",
               value=lambda args, out: 0 if out.accepted else 1),
        Target("prompts.build_controller_prompt", "prompts", "build_controller_prompt",
               value=lambda args, out: _utf8_len(prompt_text(out))),
        Target("prompts.build_evaluator_prompt", "prompts", "build_evaluator_prompt"),
        Target("prompts.PromptDocument.text", "prompts", "PromptDocument.text"),
        Target("agents.respond", "agents", "RandomAgent.respond"),
        Target("agents.respond", "agents", "ScriptedAgent.respond"),
        Target("agents.parse_verdict", "agents", "parse_verdict"),
        Target("simulator.snapshot", "simulator", "SimWizard.snapshot"),
        Target("simulator.render", "simulator", "SimWizard.render"),
        Target("simulator.execute", "simulator", "SimWizard.execute",
               value=lambda args, out: 1 if out.status == "executed" else 0),
        Target("simulator.oracle_evaluate", "simulator", "SimWizard.oracle_evaluate"),
        Target("simulator.new_wizard", "simulator", "new_wizard"),
        Target(RUN_ITERATION, "harness", "RunSession.run_iteration"),
        Target("harness.session_init", "harness", "RunSession.__init__"),
        Target("harness.RunWriter.write_prompt", "harness", "RunWriter.write_prompt",
               value=lambda args, out: first_seen(args[0], args[1])),
        Target("harness.RunWriter.write_shot", "harness", "RunWriter.write_shot",
               value=lambda args, out: first_seen(args[0], args[1].rendered)),
        Target("harness.RunWriter.append_iteration", "harness", "RunWriter.append_iteration",
               value=lambda args, out: _utf8_len(json.dumps(args[1].to_json_obj())) + 1),
        Target("harness.run", "harness", "run"),
        Target("harness.run_many", "harness", "run_many"),
        Target("harness.load_record", "harness", "load_record"),
        Target("harness.replay", "harness", "replay"),
        Target("triage.collect_positives", "triage", "collect_positives"),
        Target("triage.prefill_labels", "triage", "prefill_labels"),
        Target("triage.build_report", "triage", "build_report"),
        Target("cli.main", "cli", "main",
               tag=lambda args: str(args[0][0]) if args and args[0] else "?"),
    ]


class Recorder:
    """Keeps spans in memory: (name, tag, start_ns, end_ns, id, parent id,
    iteration index, phase, value). Thread-safe: each thread keeps its own
    stack of open spans, and list appends are atomic."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.iteration = -1
        return local

    def wrap(self, target: Target, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = recorder._state()
            span_id = next(recorder._ids)
            parent = local.stack[-1] if local.stack else 0
            outer_iteration = local.iteration
            if target.span == RUN_ITERATION:
                local.iteration = args[1] if len(args) > 1 else kwargs.get("index", -1)
            iteration = local.iteration
            tag = target.tag(args) if target.tag else ""
            local.stack.append(span_id)
            start = time.perf_counter_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                local.stack.pop()
                local.iteration = outer_iteration
                value = 0
                if ok and target.value is not None:
                    # Measuring the value is tracing cost: record it as a
                    # child of the parent span so no layer's self time pays it.
                    hook_start = time.perf_counter_ns()
                    value = target.value(args, result)
                    recorder.spans.append((HOOK, "", hook_start, time.perf_counter_ns(),
                                           next(recorder._ids), parent, iteration,
                                           recorder.phase, 0))
                recorder.spans.append((target.span, tag, start, end, span_id, parent,
                                       iteration, recorder.phase, value))

        return traced

    def untraced(self, fn: Callable):
        """Call ``fn`` as tracing cost: a child of the open span that no
        layer's self time pays."""
        local = self._state()
        parent = local.stack[-1] if local.stack else 0
        start = time.perf_counter_ns()
        result = fn()
        self.spans.append((HOOK, "", start, time.perf_counter_ns(), next(self._ids), parent,
                           local.iteration, self.phase, 0))
        return result

    def install(self, modules: dict) -> None:
        """Wrap every target in ``modules`` (short name -> module). Targets
        that this version of the package does not define are skipped."""
        namespaces = list(modules.values())
        prompt_text = modules["prompts"].PromptDocument.text
        for target in targets(prompt_text):
            module = modules[target.module]
            owner, _, name = target.attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                fn = vars(cls).get(name) if cls is not None else None
                if fn is not None:
                    setattr(cls, name, self.wrap(target, fn))
                continue
            fn = getattr(module, name, None)
            if fn is None:
                continue
            traced = self.wrap(target, fn)
            for namespace in namespaces:
                for key, bound in list(vars(namespace).items()):
                    if bound is fn:
                        setattr(namespace, key, traced)

    def write(self, path, provenance: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"provenance": provenance}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


@dataclass
class _Totals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    value: int = 0


def aggregate(spans: list[tuple]) -> dict[tuple[str, str, str], _Totals]:
    """Totals per (span name, tag, phase); self time is a span's duration
    minus the durations of its direct children."""
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        child_ns[span[5]] += span[3] - span[2]
    totals: dict[tuple[str, str, str], _Totals] = defaultdict(_Totals)
    for name, tag, start, end, span_id, _parent, _iteration, phase, value in spans:
        entry = totals[(name, tag, phase)]
        entry.calls += 1
        entry.total_ns += end - start
        entry.self_ns += end - start - child_ns.get(span_id, 0)
        entry.value += value
    return totals


def _sum(totals, name: str, field: str, phases: tuple[str, ...], tag: str | None = None) -> int:
    return sum(getattr(entry, field) for (span, span_tag, phase), entry in totals.items()
               if span == name and phase in phases and (tag is None or span_tag == tag))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


RUN = ("run",)
VERIFY = ("verify",)
ANY = ("setup", "run", "verify")

# (metric, unit, better, kind, span, phases). Kinds: per run-phase iteration
# ("calls", "self_ms", "bytes"), per replayed iteration ("verify_self_ms",
# "verify_ms"), per call ("frac" of calls with a counted outcome, "ms" mean
# duration, "self_ms_per_call" per CLI command).
LAYER_METRICS = [
    ("widgets.serialize_tree.calls_per_iter", "calls/iter", "lower", "calls",
     "widgets.serialize_tree", RUN),
    ("widgets.serialize_tree.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "widgets.serialize_tree", RUN),
    ("widgets.parse_tree.calls_per_iter", "calls/iter", "lower", "calls",
     "widgets.parse_tree", RUN),
    ("widgets.parse_tree.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "widgets.parse_tree", RUN),
    ("widgets.possible_actions.calls_per_iter", "calls/iter", "lower", "calls",
     "widgets.possible_actions", RUN),
    ("widgets.possible_actions.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "widgets.possible_actions", RUN),
    ("actions.format_log.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "actions.format_log", RUN),
    ("actions.format_log.out_bytes_per_iter", "bytes/iter", "lower", "bytes",
     "actions.format_log", RUN),
    ("actions.parse_controller_output.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "actions.parse_controller_output", RUN),
    ("actions.validate_action.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "actions.validate_action", RUN),
    ("actions.validate_action.rejected_frac", "frac", "lower", "frac",
     "actions.validate_action", RUN),
    ("prompts.build_controller_prompt.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "prompts.build_controller_prompt", RUN),
    ("prompts.build_evaluator_prompt.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "prompts.build_evaluator_prompt", RUN),
    ("prompts.PromptDocument.text.calls_per_iter", "calls/iter", "lower", "calls",
     "prompts.PromptDocument.text", RUN),
    ("prompts.controller_prompt.bytes_per_iter", "bytes/iter", "lower", "bytes",
     "prompts.build_controller_prompt", RUN),
    ("agents.respond.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "agents.respond", RUN),
    ("agents.parse_verdict.self_ms_per_iter", "ms/iter", "lower", "verify_self_ms",
     "agents.parse_verdict", VERIFY),
    ("simulator.snapshot.calls_per_iter", "calls/iter", "lower", "calls",
     "simulator.snapshot", RUN),
    ("simulator.snapshot.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "simulator.snapshot", RUN),
    ("simulator.render.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "simulator.render", RUN),
    ("simulator.execute.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "simulator.execute", RUN),
    ("simulator.execute.executed_frac", "frac", "higher", "frac",
     "simulator.execute", RUN),
    ("simulator.oracle_evaluate.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "simulator.oracle_evaluate", RUN),
    ("simulator.new_wizard.ms_per_run", "ms/run", "lower", "ms",
     "simulator.new_wizard", ANY),
    ("harness.run_iteration.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     RUN_ITERATION, RUN),
    ("harness.session_init.ms_per_run", "ms/run", "lower", "ms",
     "harness.session_init", ANY),
    ("harness.RunWriter.write_prompt.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "harness.RunWriter.write_prompt", RUN),
    ("harness.RunWriter.write_prompt.bytes_per_iter", "bytes/iter", "lower", "bytes",
     "harness.RunWriter.write_prompt", RUN),
    ("harness.RunWriter.write_shot.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "harness.RunWriter.write_shot", RUN),
    ("harness.RunWriter.write_shot.bytes_per_iter", "bytes/iter", "lower", "bytes",
     "harness.RunWriter.write_shot", RUN),
    ("harness.RunWriter.append_iteration.self_ms_per_iter", "ms/iter", "lower", "self_ms",
     "harness.RunWriter.append_iteration", RUN),
    ("harness.RunWriter.append_iteration.bytes_per_iter", "bytes/iter", "lower", "bytes",
     "harness.RunWriter.append_iteration", RUN),
    ("harness.load_record.ms_per_run", "ms/run", "lower", "ms",
     "harness.load_record", VERIFY),
    ("harness.replay.ms_per_iter", "ms/iter", "lower", "verify_ms",
     "harness.replay", VERIFY),
    ("triage.collect_positives.ms", "ms", "lower", "ms",
     "triage.collect_positives", VERIFY),
    ("triage.prefill_labels.ms", "ms", "lower", "ms", "triage.prefill_labels", VERIFY),
    ("triage.build_report.ms", "ms", "lower", "ms", "triage.build_report", VERIFY),
]

CLI_COMMANDS = ("run", "label", "report", "replay")

# Metrics computed from more than one span, or outside the span table.
DERIVED_METRICS = [
    ("harness.run_many.busy_frac", "frac", "higher"),
    ("harness.iter_ms.late_over_early", "ratio", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
] + [(f"cli.main.{command}.self_ms", "ms", "lower") for command in CLI_COMMANDS]


def layer_metrics(spans: list[tuple], jobs: int) -> dict[str, float]:
    """Per-layer numbers from the traced rounds' spans (without the two
    metrics that need the untraced rounds)."""
    totals = aggregate(spans)
    run_iters = _sum(totals, RUN_ITERATION, "calls", RUN)
    verify_iters = _sum(totals, RUN_ITERATION, "calls", VERIFY)
    out: dict[str, float] = {}
    for metric, _unit, _better, kind, span, phases in LAYER_METRICS:
        calls = _sum(totals, span, "calls", phases)
        if kind == "calls":
            value = _ratio(calls, run_iters)
        elif kind == "self_ms":
            value = _ratio(_sum(totals, span, "self_ns", phases) / 1e6, run_iters)
        elif kind == "bytes":
            value = _ratio(_sum(totals, span, "value", phases), run_iters)
        elif kind == "verify_self_ms":
            value = _ratio(_sum(totals, span, "self_ns", phases) / 1e6, verify_iters)
        elif kind == "verify_ms":
            value = _ratio(_sum(totals, span, "total_ns", phases) / 1e6, verify_iters)
        elif kind == "frac":
            value = _ratio(_sum(totals, span, "value", phases), calls)
        else:  # "ms"
            value = _ratio(_sum(totals, span, "total_ns", phases) / 1e6, calls)
        out[metric] = value
    out["harness.run_many.busy_frac"] = _ratio(
        _sum(totals, "harness.run", "total_ns", RUN),
        jobs * _sum(totals, "harness.run_many", "total_ns", RUN))
    for command in CLI_COMMANDS:
        out[f"cli.main.{command}.self_ms"] = _ratio(
            _sum(totals, "cli.main", "self_ns", ANY, tag=command) / 1e6,
            _sum(totals, "cli.main", "calls", ANY, tag=command))
    return out


def late_over_early(samples: list[tuple[int, float]]) -> float:
    """Median iteration time of each run's last k iterations over its first k,
    k = min(100, iterations per run // 2), pooled over runs."""
    if not samples:
        return 0.0
    per_run = max(index for index, _ in samples) + 1
    k = max(1, min(100, per_run // 2))
    early = [dt for index, dt in samples if index < k]
    late = [dt for index, dt in samples if index >= per_run - k]
    return statistics.median(late) / statistics.median(early)
