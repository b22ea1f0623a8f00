"""The per-iteration orchestration loop and run management.

Each iteration: build the controller prompt, query the controller, parse and
validate its output, execute the action, append to the action log, render the
new screenshot, build the evaluator prompt from the action's explanation and
the before/after pair, query the evaluator, and record the verdict. Records
persist incrementally (one JSONL line per iteration) so a crashed run keeps
everything it completed: each iteration first flushes the screenshots and
prompts it added to the run's pack, then writes and flushes its line, so every
digest that a complete line names is already in the pack. A flush hands the
bytes to the operating system; nothing is fsynced, so this covers a crashed
process, not a lost disk write.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import time
from dataclasses import dataclass, field as dc_field, fields as dc_fields, replace
from pathlib import Path

from .actions import (
    ActionLog,
    ActionLogEntry,
    ControllerOutputError,
    format_action,
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
    VerdictParseError,
    check_verdict,
    parse_verdict,
)
from .prompts import DEFAULT_DOC_BUDGET, HashedPrefix, PromptDocument, build_controller_prompt, \
    build_evaluator_prompt
from .simulator import (
    FaultSpec,
    SimScreenshot,
    SimWizard,
    WizardConfigError,
    default_doc_corpus,
    faults_from_json,
    full_traversal_script,
    new_wizard,
)
from .widgets import possible_actions

DEFAULT_TASK = (
    "Act as a GUI-Tester for the software RCE.\n"
    "Cover all pages of the Tool Integration Wizard.\n"
    "Use as many different UI-Elements as possible."
)


class ConfigError(ValueError):
    """The run configuration is unusable."""


class RecordLoadError(ValueError):
    """A persisted run record could not be read back."""


class ReplayError(ValueError):
    """A record cannot be replayed at all."""


class ReplayDivergence(Exception):
    """Replay produced a different trajectory than the record."""

    def __init__(self, iteration: int, detail: str):
        super().__init__(f"replay diverged at iteration {iteration}: {detail}")
        self.iteration = iteration
        self.detail = detail


class CampaignError(Exception):
    """One or more runs of a campaign failed; successful records are attached."""

    def __init__(self, failures: list[tuple[int, Exception]], records: list["RunRecord"]):
        lines = ", ".join(f"run {index}: {exc}" for index, exc in failures)
        super().__init__(f"{len(failures)} run(s) failed: {lines}")
        self.failures = failures
        self.records = records


def label_line_problem(run_id: str) -> str | None:
    """Why no line of a label file (see triage.LabelFile) can name ``run_id``,
    or None if one can."""
    if any(char.isspace() for char in run_id):
        return "contains whitespace, which separates the fields of a label file line"
    if run_id.startswith("#"):
        return "starts with '#', which makes a label file line a comment"
    return None


@dataclass
class RunConfig:
    task: str = DEFAULT_TASK
    max_iterations: int = 100
    controller: str = "scripted"  # scripted | random | remote
    evaluator: str = "oracle"  # scripted | oracle | remote
    seed: int = 0
    out_dir: Path | None = None
    run_id: str = "run-000"
    faults: list[FaultSpec] = dc_field(default_factory=list)
    wizard_config: dict | None = None
    controller_script: list[str] | None = None
    evaluator_script: list[str] | None = None
    doc_budget: int = DEFAULT_DOC_BUDGET
    attach_screenshot: bool = True
    remote_controller: RemoteAgentConfig | None = None
    remote_evaluator: RemoteAgentConfig | None = None

    def __post_init__(self) -> None:
        for name, kind in (("task", str), ("run_id", str), ("max_iterations", int), ("seed", int),
                           ("doc_budget", int), ("faults", list), ("attach_screenshot", bool),
                           ("wizard_config", dict | None), ("controller_script", list | None),
                           ("evaluator_script", list | None)):
            value = getattr(self, name)
            # isinstance(True, int) holds, but a bool is never a count or a seed.
            if not isinstance(value, kind) or kind is int and isinstance(value, bool):
                raise ConfigError(f"{name} has the wrong type: {value!r}")
        for name, kind in (("faults", FaultSpec), ("controller_script", str),
                           ("evaluator_script", str)):
            if not all(isinstance(item, kind) for item in getattr(self, name) or []):
                raise ConfigError(f"{name} holds an item of the wrong type")
        # The run writes out_dir/run_id, so the id must name one directory in it.
        if self.run_id in ("", ".", "..") or "/" in self.run_id or os.sep in self.run_id:
            raise ConfigError(f"run_id must name a directory inside out_dir, got {self.run_id!r}")
        problem = label_line_problem(self.run_id)
        if problem is not None:
            raise ConfigError(f"run_id must not contain whitespace or start with '#': "
                              f"{self.run_id!r} {problem}")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be non-negative")
        if self.doc_budget < 0:
            raise ConfigError("doc_budget must be non-negative")
        if self.controller not in ("scripted", "random", "remote"):
            raise ConfigError(f"unknown controller kind {self.controller!r}")
        if self.evaluator not in ("scripted", "oracle", "remote"):
            raise ConfigError(f"unknown evaluator kind {self.evaluator!r}")
        if self.controller == "remote" and self.remote_controller is None:
            raise ConfigError("a remote controller needs a remote agent config")
        if self.evaluator == "remote" and self.remote_evaluator is None:
            raise ConfigError("a remote evaluator needs a remote agent config")
        # The built-in traversal script is written against the default wizard.
        if (self.controller == "scripted" and self.controller_script is None
                and self.wizard_config is not None):
            raise ConfigError("a scripted controller on a custom wizard needs a controller_script")

    def echo(self) -> dict:
        """Config as persisted in run headers. Never contains credentials."""
        return {
            "task": self.task,
            "max_iterations": self.max_iterations,
            "backend": "sim",
            "controller": self.controller,
            "evaluator": self.evaluator,
            "seed": self.seed,
            "faults": [fault.to_json_obj() for fault in self.faults],
            "wizard_config": self.wizard_config,
            "doc_budget": self.doc_budget,
            "attach_screenshot": self.attach_screenshot,
            "remote_controller": (self.remote_controller.to_json_obj()
                                  if self.remote_controller else None),
            "remote_evaluator": (self.remote_evaluator.to_json_obj()
                                 if self.remote_evaluator else None),
        }


@dataclass
class IterationRecord:
    index: int
    page_key: str
    tree_digest: str
    controller_prompt_digest: str | None = None
    evaluator_prompt_digest: str | None = None
    controller_raw: str | None = None
    controller_error: str | None = None
    action: str | None = None
    explanation: str = ""
    parse_error: str | None = None
    reject_reason: str | None = None
    status: str | None = None
    before_digest: str | None = None
    after_digest: str | None = None
    evaluator_raw: str | None = None
    verdict: dict | None = None
    verdict_error: str | None = None
    started_at: float = 0.0
    finished_at: float = 0.0

    def to_json_obj(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "IterationRecord":
        """An iteration from its JSON line; a missing, unknown or mistyped
        field raises TypeError or ValueError."""
        rec = cls(**obj)
        for (name, value), types in zip(rec.__dict__.items(), _FIELD_TYPES):
            if type(value) not in types:
                raise ValueError(f"{name} has the wrong type: {value!r}")
        if rec.verdict is not None:
            check_verdict(rec.verdict)
        return rec

    def fingerprint(self) -> dict:
        """Everything identity-relevant; wall-clock timestamps excluded."""
        obj = self.to_json_obj()
        obj.pop("started_at")
        obj.pop("finished_at")
        return obj


#: The JSON types each IterationRecord field may hold, in field order; a field
#: not named is a string or null. Types match exactly, so a bool is no number.
_FIELD_TYPES = tuple({"index": {int}, "page_key": {str}, "tree_digest": {str},
                      "explanation": {str}, "verdict": {dict, type(None)},
                      "started_at": {int, float}, "finished_at": {int, float},
                      }.get(field.name, {str, type(None)}) for field in dc_fields(IterationRecord))


@dataclass
class RunRecord:
    run_id: str
    config: dict
    iterations: list[IterationRecord] = dc_field(default_factory=list)

    def fingerprint(self) -> dict:
        return {
            "run_id": self.run_id,
            "config": self.config,
            "iterations": [it.fingerprint() for it in self.iterations],
        }

    def problem_iterations(self) -> list[IterationRecord]:
        return [it for it in self.iterations
                if it.verdict is not None and it.verdict.get("state") == "problem"]


#: The layout RunWriter writes: header.json, iterations.jsonl and the pack
#: blobs.txt. Version 1 stored each text as shots/<digest>.txt or
#: prompts/<digest>.txt; its header and iterations.jsonl are the same.
FORMAT_VERSION = 2
READABLE_FORMAT_VERSIONS = (1, 2)
BLOBS_NAME = "blobs.txt"


class RunWriter:
    """Incremental, crash-safe persistence for one run directory.

    Screenshots and prompts go to one append-only pack, keyed by the sha256 of
    their UTF-8 bytes. Each distinct text is written once, as a line
    ``<sha256> <byte length>``, its bytes, and a newline; ``load_blobs`` reads
    it back. Call ``close`` when the run ends.
    """

    def __init__(self, out_dir: Path, run_id: str, config: dict, created_at: float):
        self.run_dir = Path(out_dir) / run_id
        # Exclusive: a run directory that exists already raises FileExistsError.
        self.run_dir.mkdir(parents=True)
        header = {"run_id": run_id, "format_version": FORMAT_VERSION,
                  "created_at": created_at, "config": config}
        # Atomic: a crash leaves a whole header.json or none, never a torn one.
        partial = self.run_dir / "header.json.partial"
        partial.write_text(json.dumps(header, indent=2), encoding="utf-8")
        os.replace(partial, self.run_dir / "header.json")
        self._blobs = (self.run_dir / BLOBS_NAME).open("wb")
        self._iterations = (self.run_dir / "iterations.jsonl").open("w", encoding="utf-8")
        self._written: set[str] = set()

    def write_shot(self, shot: SimScreenshot) -> None:
        self._store(shot.digest, shot.rendered)

    def write_prompt(self, text: str, digest: str) -> str:
        """Store a prompt under ``digest``, the sha256 of ``text`` that the
        caller already holds, so the text is not hashed again."""
        self._store(digest, text)
        return digest

    def _store(self, digest: str, text: str) -> None:
        if digest not in self._written:
            self._written.add(digest)
            data = text.encode("utf-8")
            # Head, bytes and newline one after another: no second copy of the bytes.
            self._blobs.write(b"%s %d\n" % (digest.encode("ascii"), len(data)))
            self._blobs.write(data)
            self._blobs.write(b"\n")

    def append_iteration(self, record: IterationRecord) -> None:
        # The pack first: a complete line names only digests already on disk.
        self._blobs.flush()
        self._iterations.write(json.dumps(record.to_json_obj()) + "\n")
        self._iterations.flush()

    def close(self) -> None:
        self._blobs.close()
        self._iterations.close()


def _build_controller(config: RunConfig) -> Agent:
    if config.controller == "scripted":
        lines = config.controller_script
        return ScriptedAgent(full_traversal_script() if lines is None else lines)
    if config.controller == "random":
        return RandomAgent(config.seed)
    assert config.remote_controller is not None
    return RemoteAgent(config.remote_controller)


def _build_evaluator(config: RunConfig, sim: SimWizard) -> Agent:
    if config.evaluator == "oracle":
        return OracleAgent([sim.fault_reason(fault) for fault in sim.faults])
    if config.evaluator == "scripted":
        return ScriptedAgent(config.evaluator_script or [])
    assert config.remote_evaluator is not None
    return RemoteAgent(config.remote_evaluator)


# Immutable, so every session shares it.
_DOCS = default_doc_corpus()


class RunSession:
    """One sequential run: owns the simulator, the agents, and the log."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.sim: SimWizard = new_wizard(config.faults, config.wizard_config)
        self.controller = _build_controller(config)
        self.evaluator = _build_evaluator(config, self.sim)
        self.log = ActionLog()
        # Tree digest -> the resume point of the last controller prompt shown
        # with that GUI, an offset into the log text. It is exact because the
        # task, docs and budget are fixed here and the log only grows (see
        # the prompts module).
        self._prompt_prefixes: dict[str, HashedPrefix] = {}
        self.writer: RunWriter | None = None
        echo = config.echo()
        if config.out_dir is not None:
            self.writer = RunWriter(config.out_dir, config.run_id, echo, time.time())
        self.prev_shot: SimScreenshot = self.sim.render()
        if self.writer:
            self.writer.write_shot(self.prev_shot)
        self.record = RunRecord(run_id=config.run_id, config=echo)

    def run_iteration(self, index: int) -> IterationRecord:
        """Execute one full controller/executor/evaluator iteration."""
        started = time.time()
        before = self.prev_shot
        tree = before.tree
        controller_prompt = build_controller_prompt(
            self.config.task, _DOCS, tree, self.log,
            screenshot=before if self.config.attach_screenshot else None,
            doc_budget=self.config.doc_budget,
            resume=self._prompt_prefixes.get(before.tree_digest))
        self._prompt_prefixes[before.tree_digest] = controller_prompt.resume_point
        rec = IterationRecord(
            index=index,
            page_key=before.page_key,
            tree_digest=before.tree_digest,
            before_digest=before.digest,
            started_at=started,
        )
        rec.controller_prompt_digest = self._prompt_digest(controller_prompt)

        actions = possible_actions(tree)
        try:
            raw = self.controller.respond(
                AgentRequest(controller_prompt, "controller", actions))
        except AgentError as exc:
            rec.controller_error = str(exc)
            rec.finished_at = time.time()
            return rec
        rec.controller_raw = raw

        explanation = ""
        cmd = None
        try:
            output = parse_controller_output(raw)
            cmd = output.action
            explanation = output.explanation
        except ControllerOutputError as exc:
            rec.parse_error = str(exc)

        if cmd is None:
            rec.status = "rejected"
            entry = ActionLogEntry("", f"rejected: {rec.parse_error}", "rejected")
        else:
            rec.action = format_action(cmd)
            rec.explanation = explanation
            validation = validate_action(cmd, actions)
            if not validation.accepted:
                rec.status = "rejected"
                rec.reject_reason = validation.reason
                entry = ActionLogEntry(rec.action, explanation, "rejected")
            else:
                outcome = self.sim.execute(cmd)
                rec.status = outcome.status
                if outcome.status == "failed":
                    rec.reject_reason = outcome.reason
                entry = ActionLogEntry(rec.action, explanation, outcome.status)
        self.log.append(entry)

        after = self.sim.render()
        rec.after_digest = after.digest
        rec.page_key = after.page_key
        if self.writer:
            self.writer.write_shot(after)

        evaluator_prompt = build_evaluator_prompt(explanation, before, after)
        rec.evaluator_prompt_digest = self._prompt_digest(evaluator_prompt)

        try:
            rec.evaluator_raw = self.evaluator.respond(AgentRequest(evaluator_prompt, "evaluator"))
            rec.verdict = parse_verdict(rec.evaluator_raw)
        except (AgentError, VerdictParseError) as exc:
            rec.verdict_error = str(exc)

        self.prev_shot = after
        rec.finished_at = time.time()
        return rec

    def _prompt_digest(self, prompt: PromptDocument) -> str:
        if self.writer is None:
            return prompt.digest
        return self.writer.write_prompt(prompt.text(), prompt.digest)

    def run(self) -> RunRecord:
        try:
            for index in range(self.config.max_iterations):
                if self.controller.finished:
                    break
                rec = self.run_iteration(index)
                self.record.iterations.append(rec)
                if self.writer:
                    self.writer.append_iteration(rec)
        finally:
            if self.writer:
                self.writer.close()
        return self.record


def run(config: RunConfig) -> RunRecord:
    """Execute one run to completion and return its record."""
    return RunSession(config).run()


def run_many(config: RunConfig, n: int, jobs: int = 1) -> list[RunRecord]:
    """n independent runs with derived seeds (seed + run index).

    A campaign with a remote controller or evaluator runs on ``jobs`` threads,
    which overlap the runs' waits on the network. Every other campaign is pure
    Python under one interpreter lock, where more threads only add contention,
    so its runs go one at a time whatever ``jobs`` is.

    Run i writes ``out_dir/run-<i:03d>``; if one of those exists already, no
    run starts and ConfigError names it.
    """
    if n < 1 or jobs < 1:
        raise ConfigError(f"runs and jobs must be at least 1, got {n} and {jobs}")
    configs = [replace(config, seed=config.seed + index, run_id=f"run-{index:03d}")
               for index in range(n)]
    if config.out_dir is not None:
        taken = [cfg.run_id for cfg in configs if (Path(config.out_dir) / cfg.run_id).exists()]
        if taken:
            raise ConfigError(f"{config.out_dir} already holds {', '.join(taken)}; "
                              f"a campaign never overwrites a run")
    records: list[RunRecord | None] = [None] * n
    failures: list[tuple[int, Exception]] = []
    remote = "remote" in (config.controller, config.evaluator)
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs if remote else 1) as pool:
        futures = {pool.submit(run, cfg): index for index, cfg in enumerate(configs)}
        for future in concurrent.futures.as_completed(futures):
            index = futures[future]
            try:
                records[index] = future.result()
            except Exception as exc:  # noqa: BLE001 - per-run isolation is the contract
                failures.append((index, exc))
    ok = [record for record in records if record is not None]
    if failures:
        raise CampaignError(sorted(failures, key=lambda pair: pair[0]), ok)
    return ok


def load_record(run_dir: Path) -> RunRecord:
    """Read a persisted run back; corrupt files raise RecordLoadError."""
    run_dir = Path(run_dir)
    try:
        header = json.loads((run_dir / "header.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise RecordLoadError(f"unreadable header in {run_dir}: {exc}") from exc
    if not (isinstance(header, dict) and isinstance(header.get("run_id", ""), str)
            and isinstance(header.get("config", {}), dict)):
        raise RecordLoadError(
            f"header in {run_dir} is not an object with a string run_id and an object config")
    version = header.get("format_version")
    if type(version) is not int or version not in READABLE_FORMAT_VERSIONS:
        raise RecordLoadError(f"header in {run_dir} has format_version {version!r}; "
                              f"readable versions are {READABLE_FORMAT_VERSIONS}")
    record = RunRecord(run_id=header.get("run_id", run_dir.name),
                       config=header.get("config", {}))
    iterations_path = run_dir / "iterations.jsonl"
    try:
        text = iterations_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise RecordLoadError(f"unreadable iterations in {run_dir}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = IterationRecord.from_json_obj(json.loads(line))
            # Triage keys findings by (run id, index): a repeated index would
            # count one finding twice.
            if rec.index != len(record.iterations):
                raise ValueError(f"index {rec.index} is not the line's position "
                                 f"{len(record.iterations)}")
        except (ValueError, TypeError) as exc:
            raise RecordLoadError(
                f"corrupt iteration at {iterations_path}:{line_no}: {exc}") from exc
        record.iterations.append(rec)
    return record


def load_blobs(run_dir: Path) -> dict[str, str]:
    """Every screenshot and prompt in a run's pack, by digest. An entry that
    is torn or whose text does not hash to its digest raises RecordLoadError."""
    path = Path(run_dir) / BLOBS_NAME
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise RecordLoadError(f"unreadable pack in {run_dir}: {exc}") from exc
    blobs: dict[str, str] = {}
    pos = 0
    while pos < len(data):
        head_end = data.find(b"\n", pos)
        digest, _, length = data[pos:max(pos, head_end)].decode("ascii", "replace").partition(" ")
        start = head_end + 1
        end = start + int(length) if head_end >= 0 and length.isdigit() else len(data)
        body = data[start:end]
        if (end >= len(data) or data[end] != ord("\n")
                or hashlib.sha256(body).hexdigest() != digest):
            raise RecordLoadError(f"torn or corrupt entry at byte {pos} of {path}")
        try:
            blobs[digest] = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RecordLoadError(f"entry at byte {pos} of {path} is not UTF-8") from exc
        pos = end + 1
    return blobs


#: The header config keys that map one to one onto a RunConfig field.
_ECHOED_FIELDS = ("task", "max_iterations", "controller", "evaluator", "seed",
                  "wizard_config", "doc_budget", "attach_screenshot")


def replay(record: RunRecord, out_dir: Path | None = None) -> RunRecord:
    """Re-execute a recorded run against a fresh simulator.

    Every recorded field except the wall-clock timestamps must match; the
    first mismatch raises ReplayDivergence naming the iteration and the field.
    The recorded RunConfig is rebuilt from the header, and its echo must equal
    the header's config exactly. A header config that fails this, or an
    iteration without recorded agent output, raises ReplayError.
    """
    for it in record.iterations:
        if it.controller_raw is None or it.evaluator_raw is None:
            raise ReplayError(
                f"iteration {it.index} has no recorded agent output; cannot replay")
    echo = record.config
    try:
        fields = {key: echo[key] for key in _ECHOED_FIELDS if key in echo}
        fields["faults"] = faults_from_json(echo.get("faults", []))
        # Scripts are not echoed; the recorded outputs stand in for any script.
        fields["controller_script"] = [it.controller_raw for it in record.iterations]
        fields["evaluator_script"] = [it.evaluator_raw for it in record.iterations]
        for key in ("remote_controller", "remote_evaluator"):
            if echo.get(key) is not None:
                fields[key] = RemoteAgentConfig(**echo[key])
        recorded_config = RunConfig(**fields)
        config = replace(
            recorded_config,
            max_iterations=len(record.iterations),
            controller="scripted",
            evaluator="scripted",
            out_dir=out_dir,
            run_id=record.run_id + "-replay",
            remote_controller=None,
            remote_evaluator=None,
        )
    except (TypeError, ValueError) as exc:
        raise ReplayError(f"unusable header config: {exc}") from exc
    # The header must be one that a run writes, so that no key goes unchecked.
    rebuilt = recorded_config.echo()
    differing = rebuilt.keys() ^ echo.keys() | {
        key for key in rebuilt.keys() & echo.keys() if rebuilt[key] != echo[key]}
    if differing:
        raise ReplayError(f"unusable header config: {sorted(differing)} differ from "
                          f"what a run with these settings records")
    try:
        new_record = run(config)
    except WizardConfigError as exc:
        raise ReplayError(f"unusable header config: {exc}") from exc
    for old, new in zip(record.iterations, new_record.iterations):
        recorded = old.fingerprint()
        for field_name, new_value in new.fingerprint().items():
            if new_value != recorded[field_name]:
                raise ReplayDivergence(old.index, f"{field_name} {new_value!r} "
                                                  f"!= recorded {recorded[field_name]!r}")
    if len(new_record.iterations) != len(record.iterations):
        raise ReplayDivergence(len(new_record.iterations),
                               "replay produced a different number of iterations")
    return new_record
