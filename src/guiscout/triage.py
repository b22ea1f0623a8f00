"""Finding triage: collect problem verdicts, apply human labels, and count
the funnel in one pass.

A finding is keyed by (run id, iteration), so the run ids of a report's
records must be unique. Each true positive has a cause key: its label's
``cause_key``, otherwise its normalized reason. Unique issues are the distinct
cause keys among the true positives. The funnel is monotone by construction:
unique issues <= true positives <= positives <= actions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .actions import ActionParseError, parse_action
from .harness import RunRecord, label_line_problem


class TriageError(ValueError):
    """Labels and findings are inconsistent."""


class UnlabeledFindingsError(TriageError):
    """Some findings still carry no human true/false-positive decision."""

    def __init__(self, keys: list[tuple[str, int]]):
        listing = ", ".join(f"({run_id}, {iteration})" for run_id, iteration in keys)
        super().__init__(f"unlabeled findings: {listing}")
        self.keys = keys


TRUE_POSITIVE = "true_positive"
FALSE_POSITIVE = "false_positive"
UNLABELED = "unknown"
LABEL_VALUES = (TRUE_POSITIVE, FALSE_POSITIVE, UNLABELED)


@dataclass(frozen=True)
class PositiveFinding:
    """One problem verdict, addressable as (run id, iteration index)."""

    run_id: str
    iteration: int
    reason: str

    @property
    def key(self) -> tuple[str, int]:
        return (self.run_id, self.iteration)


@dataclass(frozen=True)
class Label:
    value: str
    cause_key: str | None = None

    def __post_init__(self) -> None:
        if self.value not in LABEL_VALUES:
            raise TriageError(f"unknown label {self.value!r}")
        if self.cause_key is not None and self.value != TRUE_POSITIVE:
            raise TriageError("cause_key is only valid on true positives")


@dataclass
class LabelFile:
    """Human-editable labels, keyed by (run id, iteration)."""

    entries: dict[tuple[str, int], Label] = dc_field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "LabelFile":
        """A finding named on two lines is an error: keeping either line
        would lose the other's decision when ``label`` rewrites the file."""
        entries: dict[tuple[str, int], Label] = {}
        line_nos: dict[tuple[str, int], int] = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split(None, 3)
            if len(parts) < 3:
                raise TriageError(f"label line {line_no} needs: run_id iteration label")
            run_id, iteration_text, value = parts[0], parts[1], parts[2]
            try:
                iteration = int(iteration_text)
            except ValueError as exc:
                raise TriageError(f"label line {line_no}: bad iteration {iteration_text!r}") \
                    from exc
            key = (run_id, iteration)
            if key in line_nos:
                raise TriageError(f"label lines {line_nos[key]} and {line_no} both label "
                                  f"{run_id} iteration {iteration}")
            line_nos[key] = line_no
            cause_key = parts[3] if len(parts) == 4 else None
            entries[key] = Label(value, cause_key)
        return cls(entries)

    @classmethod
    def load(cls, path: Path) -> "LabelFile":
        return cls.parse(Path(path).read_text(encoding="utf-8"))

    def render(self) -> str:
        lines = ["# run_id iteration label [cause_key]"]
        for (run_id, iteration), label in sorted(self.entries.items()):
            line = f"{run_id} {iteration} {label.value}"
            if label.cause_key:
                line += f" {label.cause_key}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def save(self, path: Path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


@dataclass
class Report:
    runs: int
    actions: int
    positives: int
    true_positives: int
    unique_issues: int
    per_run: list[dict]
    controls_acted: int
    pages_visited: list[str]

    def __post_init__(self) -> None:
        chain = (self.unique_issues, self.true_positives, self.positives, self.actions)
        if not all(a <= b for a, b in zip(chain, chain[1:])):
            raise TriageError(f"funnel counts are not monotone: {chain}")

    def to_json_obj(self) -> dict:
        return {
            "runs": self.runs,
            "actions": self.actions,
            "positives": self.positives,
            "true_positives": self.true_positives,
            "unique_issues": self.unique_issues,
            "per_run": self.per_run,
            "coverage": {
                "controls_acted": self.controls_acted,
                "pages_visited": self.pages_visited,
            },
        }

    def render_text(self) -> str:
        lines = [
            "Execute Test Runs   -> runs:           " + str(self.runs),
            "                       actions:        " + str(self.actions),
            "Evaluate Results    -> positives:      " + str(self.positives),
            "                       true positives: " + str(self.true_positives),
            "Consolidate Errors  -> unique issues:  " + str(self.unique_issues),
            "",
            "Per run:",
        ]
        for row in self.per_run:
            lines.append(f"  {row['run_id']}: actions={row['actions']} "
                         f"positives={row['positives']} true_positives={row['true_positives']}")
        pages = ", ".join(self.pages_visited) if self.pages_visited else "(none)"
        lines.append("")
        lines.append(f"Coverage: {self.controls_acted} distinct controls acted on; "
                     f"pages visited: {pages}")
        return "\n".join(lines)


def collect_positives(records: list[RunRecord]) -> list[PositiveFinding]:
    """One finding per problem verdict, ordered by (run, iteration). A finding
    is keyed by its run id, so two records with one run id raise TriageError,
    and so does a run id that no label file line can name (see
    ``harness.label_line_problem``)."""
    findings: list[PositiveFinding] = []
    run_ids: set[str] = set()
    for record in sorted(records, key=lambda r: r.run_id):
        if record.run_id in run_ids:
            raise TriageError(f"run id {record.run_id} names more than one run; "
                              f"run ids must be unique")
        problem = label_line_problem(record.run_id)
        if problem is not None:
            raise TriageError(f"run id {record.run_id!r} {problem}")
        run_ids.add(record.run_id)
        for it in record.problem_iterations():
            findings.append(PositiveFinding(
                run_id=record.run_id,
                iteration=it.index,
                reason=it.verdict.get("reason", ""),
            ))
    return findings


_PUNCT_RE = re.compile(r"[^\w\s#]")
_DIGITS_RE = re.compile(r"\d+")
_WS_RE = re.compile(r"\s+")


def normalize_reason(reason: str) -> str:
    """Default cause key: lowercase, control ids masked, punctuation stripped."""
    text = reason.lower()
    text = _DIGITS_RE.sub("#", text)
    text = _PUNCT_RE.sub("", text)
    return _WS_RE.sub(" ", text).strip()


def _check_labels_name_findings(labels: LabelFile, finding_keys: set[tuple[str, int]]) -> None:
    """TriageError naming the first label, in entry (file line) order, that
    names no finding."""
    for key in labels.entries:
        if key not in finding_keys:
            raise TriageError(
                f"label references missing finding (run {key[0]}, iteration {key[1]})")


def prefill_labels(findings: list[PositiveFinding], existing: LabelFile | None = None) -> LabelFile:
    """Label-file template: every finding present, new ones marked unknown.

    A label in ``existing`` whose finding is not among ``findings`` raises
    TriageError: the template would drop it, and with it a human decision.
    """
    if existing is not None:
        _check_labels_name_findings(existing, {finding.key for finding in findings})
    merged = LabelFile()
    for finding in findings:
        label = None
        if existing is not None:
            label = existing.entries.get(finding.key)
        merged.entries[finding.key] = label if label is not None else Label(UNLABELED)
    return merged


def build_report(records: list[RunRecord], labels: LabelFile,
                 assume_unlabeled_false: bool = False) -> Report:
    """The whole funnel: findings -> labels -> unique issues, runs and coverage.

    Raises UnlabeledFindingsError while a finding carries no decision, unless
    ``assume_unlabeled_false`` counts it a false positive; then TriageError for
    a label that names no finding.
    """
    findings = collect_positives(records)
    unlabeled = [finding.key for finding in findings
                 if labels.entries.get(finding.key, Label(UNLABELED)).value == UNLABELED]
    if unlabeled and not assume_unlabeled_false:
        raise UnlabeledFindingsError(sorted(unlabeled))
    _check_labels_name_findings(labels, {finding.key for finding in findings})
    per_run = {record.run_id: {"run_id": record.run_id, "actions": len(record.iterations),
                               "positives": 0, "true_positives": 0}
               for record in sorted(records, key=lambda r: r.run_id)}
    # "Same underlying cause" is a human call: a label's cause_key overrides the reason.
    cause_keys: set[str] = set()
    for finding in findings:
        row = per_run[finding.run_id]
        row["positives"] += 1
        label = labels.entries.get(finding.key)
        if label is not None and label.value == TRUE_POSITIVE:
            row["true_positives"] += 1
            cause_keys.add(label.cause_key if label.cause_key is not None
                           else normalize_reason(finding.reason))
    controls: set[int] = set()
    pages: set[str] = set()
    for record in records:
        for it in record.iterations:
            pages.add(it.page_key)
            if it.status == "executed" and it.action:
                try:
                    controls.add(parse_action(it.action).control_id)
                except ActionParseError:
                    pass
    rows = list(per_run.values())
    return Report(
        runs=len(records),
        actions=sum(row["actions"] for row in rows),
        positives=len(findings),
        true_positives=sum(row["true_positives"] for row in rows),
        unique_issues=len(cause_keys),
        per_run=rows,
        controls_acted=len(controls),
        pages_visited=sorted(pages),
    )


def report_to_json(report: Report) -> str:
    return json.dumps(report.to_json_obj(), indent=2)
