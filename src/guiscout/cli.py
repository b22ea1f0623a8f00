"""Command-line surface: run campaigns, replay records, manage labels, report.

Exit codes are stable: 0 ok, 1 usage/config error, 2 run error, 3 unlabeled
findings, 4 replay divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from .agents import RemoteAgentConfig
from .harness import (
    CampaignError,
    RecordLoadError,
    ReplayDivergence,
    ReplayError,
    RunConfig,
    load_record,
    replay,
    run_many,
)
from .simulator import FaultKind, FaultSpec, faults_from_json, new_wizard
from .triage import (
    TRUE_POSITIVE,
    Label,
    LabelFile,
    TriageError,
    UnlabeledFindingsError,
    build_report,
    collect_positives,
    prefill_labels,
    report_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_ERROR = 2
EXIT_UNLABELED = 3
EXIT_DIVERGENCE = 4


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1, not 2."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise CliUsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="guiscout",
                     description="Two-agent exploratory GUI testing against a simulated wizard.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a test campaign")
    run_p.add_argument("--config", type=Path, help="JSON config file")
    run_p.add_argument("--runs", type=int, default=1, help="number of isolated runs")
    # A run setting left unset keeps the config file's value or RunConfig's default.
    run_p.add_argument("--controller", choices=["scripted", "random", "remote"])
    run_p.add_argument("--evaluator", choices=["scripted", "oracle", "remote"])
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", type=Path, default=Path("runs"))
    run_p.add_argument("--jobs", type=int, default=1,
                       help="runs in flight when the controller or evaluator is remote; "
                            "simulated runs go one at a time whatever --jobs is")
    run_p.add_argument("--max-iterations", type=int)

    replay_p = sub.add_parser("replay", help="re-execute a recorded run")
    replay_p.add_argument("--record", type=Path, required=True, help="run directory")

    label_p = sub.add_parser("label", help="create or refresh the label file")
    label_p.add_argument("--runs", type=Path, required=True, help="directory of run dirs")
    label_p.add_argument("--labels", type=Path, required=True, help="label file path")

    report_p = sub.add_parser("report", help="summarize labeled findings")
    report_p.add_argument("--runs", type=Path, required=True, help="directory of run dirs")
    report_p.add_argument("--labels", type=Path, help="label file path")
    report_p.add_argument("--format", choices=["text", "json"], default="text")
    report_p.add_argument("--assume-unlabeled-false", action="store_true",
                          help="treat unlabeled findings as false positives")

    demo_p = sub.add_parser("demo", help="scripted traversal with one seeded defect")
    demo_p.add_argument("--out", type=Path, default=None,
                        help="run directory (default: a temporary directory)")

    return parser


# Each config-file key and the RunConfig field it sets. A key the file leaves
# out keeps the field's default; RunConfig checks every value.
_RUN_KEYS = {"task": "task", "max_iterations": "max_iterations", "doc_budget": "doc_budget",
             "attach_screenshot": "attach_screenshot", "wizard": "wizard_config",
             "controller_script": "controller_script", "evaluator_script": "evaluator_script"}
# The keys of the "remote" section that set the RemoteAgentConfig field of the same
# name: every field but the temperature, which the section sets per role.
_REMOTE_KEYS = tuple(field.name for field in dataclasses.fields(RemoteAgentConfig)
                     if field.name != "temperature")


def _reject_unknown_keys(section: str, obj: dict, known) -> None:
    """A misspelt key would silently keep a default, so any unknown key is an error."""
    unknown = sorted(obj.keys() - known)
    if unknown:
        raise CliUsageError(f"config file {section} has unknown keys {unknown}")


def _load_config_file(path: Path | None) -> dict:
    """The config file as a JSON object; its values are checked where they are used."""
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliUsageError(f"unreadable config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliUsageError(f"config file {path} is not a JSON object")
    return cfg


def _remote_config(cfg: dict, role: str) -> RemoteAgentConfig | None:
    remote = cfg.get("remote")
    if remote is None:
        return None
    if not isinstance(remote, dict):
        raise CliUsageError(f"config file \"remote\" is not an object: {remote!r}")
    _reject_unknown_keys('"remote"', remote,
                         (*_REMOTE_KEYS, "controller_temperature", "evaluator_temperature"))
    fields = {key: remote[key] for key in _REMOTE_KEYS if key in remote}
    if f"{role}_temperature" in remote or role == "evaluator":
        # An evaluator judges, so unless told otherwise it samples at temperature 0.
        fields["temperature"] = remote.get(f"{role}_temperature", 0.0)
    try:
        return RemoteAgentConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise CliUsageError(f"config file \"remote\" is unusable for the {role}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise CliUsageError("--runs must be at least 1")
    cfg = _load_config_file(args.config)
    _reject_unknown_keys("top level", cfg, (*_RUN_KEYS, "faults", "remote"))
    remote_controller = _remote_config(cfg, "controller")
    remote_evaluator = _remote_config(cfg, "evaluator")
    if "remote" in (args.controller, args.evaluator):
        if remote_controller is None and remote_evaluator is None:
            raise CliUsageError("remote agents need a \"remote\" section in the config file")
        env_name = (remote_controller or remote_evaluator).api_key_env
        if not os.environ.get(env_name):
            raise CliUsageError(f"environment variable {env_name} is not set")
    fields = {field: cfg[key] for key, field in _RUN_KEYS.items() if key in cfg}
    # A flag given on the command line overrides the config file.
    flags = {"controller": args.controller, "evaluator": args.evaluator, "seed": args.seed,
             "max_iterations": args.max_iterations}
    fields.update((name, value) for name, value in flags.items() if value is not None)
    try:
        if "faults" in cfg:
            fields["faults"] = faults_from_json(cfg["faults"])
        run_config = RunConfig(
            out_dir=args.out,
            remote_controller=remote_controller if args.controller == "remote" else None,
            remote_evaluator=remote_evaluator if args.evaluator == "remote" else None,
            **fields,
        )
        # A malformed wizard or fault would fail every run alike: a usage error.
        new_wizard(run_config.faults, run_config.wizard_config)
        records = run_many(run_config, args.runs, jobs=args.jobs)
    except ValueError as exc:  # ConfigError, WizardConfigError or a malformed fault
        raise CliUsageError(str(exc)) from exc
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_ERROR
    total = sum(len(record.iterations) for record in records)
    print(f"{len(records)} run(s), {total} action(s), records in {args.out}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    record = load_record(args.record)
    try:
        replay(record)
    except ReplayDivergence as exc:
        print(f"divergence at iteration {exc.iteration}: {exc.detail}", file=sys.stderr)
        return EXIT_DIVERGENCE
    print(f"replay of {record.run_id} matches: "
          f"{len(record.iterations)} iteration(s) byte-equal")
    return EXIT_OK


def _load_run_dirs(runs_dir: Path) -> list:
    # A mistyped --runs must not read as a campaign with no findings: label
    # would overwrite the label file with an empty one.
    if not runs_dir.is_dir():
        raise CliUsageError(f"--runs {runs_dir} is not a directory")
    return [load_record(child) for child in sorted(runs_dir.iterdir())
            if (child / "header.json").is_file()]


def _load_labels(path: Path) -> LabelFile:
    try:
        return LabelFile.load(path)
    except (OSError, ValueError) as exc:
        raise CliUsageError(f"unreadable label file {path}: {exc}") from exc


def cmd_label(args: argparse.Namespace) -> int:
    records = _load_run_dirs(args.runs)
    existing = _load_labels(args.labels) if Path(args.labels).is_file() else None
    labels = prefill_labels(collect_positives(records), existing)
    try:
        labels.save(args.labels)
    except OSError as exc:
        raise CliUsageError(f"cannot write label file {args.labels}: {exc}") from exc
    unlabeled = sum(1 for label in labels.entries.values() if label.value == "unknown")
    print(f"{len(labels.entries)} finding(s) in {args.labels}, {unlabeled} unlabeled")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    records = _load_run_dirs(args.runs)
    # A --labels file that cannot be read is an error, not a file of no labels.
    labels = LabelFile() if args.labels is None else _load_labels(args.labels)
    try:
        report = build_report(records, labels,
                              assume_unlabeled_false=args.assume_unlabeled_false)
    except UnlabeledFindingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("label them or pass --assume-unlabeled-false", file=sys.stderr)
        return EXIT_UNLABELED
    if args.format == "json":
        print(report_to_json(report))
    else:
        print(report.render_text())
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    out_dir = args.out
    cleanup = None
    if out_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="guiscout-demo-")
        out_dir = Path(cleanup.name)
    try:
        config = RunConfig(
            controller="scripted",
            evaluator="oracle",
            out_dir=out_dir,
            faults=[FaultSpec(FaultKind.GENERIC_ERROR_MESSAGE, "launch_settings",
                              "Working Directory")],
        )
        records = run_many(config, 1)
        findings = collect_positives(records)
        labels = LabelFile({finding.key: Label(TRUE_POSITIVE) for finding in findings})
        report = build_report(records, labels)
        print(report.render_text())
        print()
        print(f"records in {out_dir}")
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "run": cmd_run,
            "replay": cmd_replay,
            "label": cmd_label,
            "report": cmd_report,
            "demo": cmd_demo,
        }[args.command]
        return handler(args)
    # An unreadable run record, a header replay cannot use, or labels and records
    # that do not fit together (such as two runs with one run id) are usage errors too.
    except (CliUsageError, RecordLoadError, ReplayError, TriageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
