"""Finding triage: collect problem verdicts, apply human labels, consolidate
true positives that share an underlying cause, and summarize the funnel.

The funnel is monotone by construction: unique issues <= true positives <=
positives <= actions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .actions import ActionParseError, parse_action
from .harness import RunRecord


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
    action: str
    before_digest: str | None
    after_digest: str | None

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
        entries: dict[tuple[str, int], Label] = {}
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
            cause_key = parts[3] if len(parts) == 4 else None
            entries[(run_id, iteration)] = Label(value, cause_key)
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
class IssueGroup:
    """True positives that stem from one underlying cause."""

    cause_key: str
    members: list[PositiveFinding]


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
    """One finding per problem verdict, ordered by (run, iteration)."""
    findings: list[PositiveFinding] = []
    for record in sorted(records, key=lambda r: r.run_id):
        for it in record.iterations:
            if it.verdict is not None and it.verdict.get("state") == "problem":
                findings.append(PositiveFinding(
                    run_id=record.run_id,
                    iteration=it.index,
                    reason=it.verdict.get("reason", ""),
                    action=it.action or "",
                    before_digest=it.before_digest,
                    after_digest=it.after_digest,
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


def consolidate(true_positives: list[PositiveFinding],
                labels: LabelFile | None = None) -> list[IssueGroup]:
    """Partition true positives into equivalence classes by cause key.

    The cause key defaults to the normalized reason text; a label entry may
    override it because "same underlying cause" is ultimately a human call.
    """
    groups: dict[str, IssueGroup] = {}
    for finding in true_positives:
        cause_key = None
        if labels is not None:
            entry = labels.entries.get(finding.key)
            if entry is not None:
                cause_key = entry.cause_key
        if cause_key is None:
            cause_key = normalize_reason(finding.reason)
        group = groups.get(cause_key)
        if group is None:
            groups[cause_key] = IssueGroup(cause_key=cause_key, members=[finding])
        else:
            group.members.append(finding)
    return list(groups.values())


def _coverage(records: list[RunRecord]) -> tuple[int, list[str]]:
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
    return len(controls), sorted(pages)


def summarize(records: list[RunRecord], labels: LabelFile,
              groups: list[IssueGroup]) -> Report:
    """Compute the funnel report; raises if labels reference unknown findings."""
    findings = collect_positives(records)
    finding_keys = {finding.key for finding in findings}
    for key in labels.entries:
        if key not in finding_keys:
            raise TriageError(
                f"label references missing finding (run {key[0]}, iteration {key[1]})")
    tp_keys = {key for key, label in labels.entries.items() if label.value == TRUE_POSITIVE}
    by_run: dict[str, list[PositiveFinding]] = {}
    for finding in findings:
        by_run.setdefault(finding.run_id, []).append(finding)
    per_run = []
    for record in sorted(records, key=lambda r: r.run_id):
        run_findings = by_run.get(record.run_id, [])
        per_run.append({
            "run_id": record.run_id,
            "actions": len(record.iterations),
            "positives": len(run_findings),
            "true_positives": sum(1 for finding in run_findings if finding.key in tp_keys),
        })
    controls_acted, pages_visited = _coverage(records)
    return Report(
        runs=len(records),
        actions=sum(len(record.iterations) for record in records),
        positives=len(findings),
        true_positives=len(tp_keys),
        unique_issues=len(groups),
        per_run=per_run,
        controls_acted=controls_acted,
        pages_visited=pages_visited,
    )


def prefill_labels(findings: list[PositiveFinding], existing: LabelFile | None = None) -> LabelFile:
    """Label-file template: every finding present, new ones marked unknown."""
    merged = LabelFile()
    for finding in findings:
        label = None
        if existing is not None:
            label = existing.entries.get(finding.key)
        merged.entries[finding.key] = label if label is not None else Label(UNLABELED)
    return merged


def build_report(records: list[RunRecord], labels: LabelFile,
                 assume_unlabeled_false: bool = False) -> Report:
    """The whole funnel: findings -> labels -> consolidation -> report."""
    findings = collect_positives(records)
    resolved = LabelFile(dict(labels.entries))
    unlabeled = []
    for finding in findings:
        label = resolved.entries.get(finding.key)
        if label is None or label.value == UNLABELED:
            if not assume_unlabeled_false:
                unlabeled.append(finding.key)
            else:
                resolved.entries[finding.key] = Label(FALSE_POSITIVE)
    if unlabeled:
        raise UnlabeledFindingsError(sorted(unlabeled))
    tp_findings = [finding for finding in findings
                   if resolved.entries[finding.key].value == TRUE_POSITIVE]
    groups = consolidate(tp_findings, resolved)
    return summarize(records, resolved, groups)


def report_to_json(report: Report) -> str:
    return json.dumps(report.to_json_obj(), indent=2)
