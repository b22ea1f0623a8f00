"""Command-line surface: run campaigns, replay records, manage labels, report.

Exit codes are stable: 0 ok, 1 usage/config error, 2 run error, 3 unlabeled
findings, 4 replay divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .agents import RemoteAgentConfig
from .harness import (
    DEFAULT_TASK,
    ECHO_TYPES,
    CampaignError,
    ConfigError,
    RecordLoadError,
    ReplayDivergence,
    ReplayError,
    RunConfig,
    load_record,
    replay,
    run_many,
)
from .simulator import FaultKind, FaultSpec, WizardConfigError, new_wizard
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
    run_p.add_argument("--backend", choices=["sim"], default="sim")
    run_p.add_argument("--controller", choices=["scripted", "random", "remote"],
                       default="scripted")
    run_p.add_argument("--evaluator", choices=["scripted", "oracle", "remote"],
                       default="oracle")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", type=Path, default=Path("runs"))
    run_p.add_argument("--jobs", type=int, default=1, help="parallel runs")
    run_p.add_argument("--max-iterations", type=int, default=None)

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


# The type of each config-file value. A key the file shares with a run
# header's config has the type it has there.
_CONFIG_TYPES = {**{key: kind for key, kind in ECHO_TYPES.items()
                    if key not in ("seed", "wizard_config")},
                 "wizard": (dict, type(None)), "remote": (dict, type(None)),
                 "controller_script": (list, type(None)), "evaluator_script": (list, type(None))}


def _load_config_file(path: Path | None) -> dict:
    """The config file as an object whose values have the types the run needs."""
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliUsageError(f"unreadable config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliUsageError(f"config file {path} is not a JSON object")
    for key, kind in _CONFIG_TYPES.items():
        if key in cfg and not isinstance(cfg[key], kind):
            raise CliUsageError(f"config file {key!r} has the wrong type: {cfg[key]!r}")
    for key in ("controller_script", "evaluator_script"):
        if not all(isinstance(line, str) for line in cfg.get(key) or []):
            raise CliUsageError(f"config file {key!r} must be a list of strings")
    remote = cfg.get("remote")
    if remote is not None and not all(isinstance(remote.get(key), str)
                                      for key in ("endpoint", "model")):
        raise CliUsageError("config file \"remote\" needs a string \"endpoint\" and \"model\"")
    return cfg


def _remote_config(cfg: dict, role: str) -> RemoteAgentConfig | None:
    remote = cfg.get("remote")
    if remote is None:
        return None
    default_temperature = 1.0 if role == "controller" else 0.0
    try:
        return RemoteAgentConfig(
            endpoint=remote["endpoint"],
            model=remote["model"],
            api_key_env=remote.get("api_key_env", "GUISCOUT_API_KEY"),
            timeout=remote.get("timeout", 60.0),
            max_retries=remote.get("max_retries", 3),
            temperature=remote.get(f"{role}_temperature", default_temperature),
            retry_backoff=remote.get("retry_backoff", 1.0),
        )
    except ValueError as exc:
        raise CliUsageError(f"config file \"remote\" is unusable for the {role}: {exc}") from exc


def _parse_faults(cfg: dict) -> list[FaultSpec]:
    try:
        return [FaultSpec.from_json_obj(obj) for obj in cfg.get("faults", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliUsageError(f"config file has an unreadable fault: {exc!r}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise CliUsageError("--runs must be at least 1")
    cfg = _load_config_file(args.config)
    remote_controller = _remote_config(cfg, "controller")
    remote_evaluator = _remote_config(cfg, "evaluator")
    if "remote" in (args.controller, args.evaluator):
        if remote_controller is None and remote_evaluator is None:
            raise CliUsageError("remote agents need a \"remote\" section in the config file")
        env_name = (remote_controller or remote_evaluator).api_key_env
        if not os.environ.get(env_name):
            raise CliUsageError(f"environment variable {env_name} is not set")
    try:
        run_config = RunConfig(
            task=cfg.get("task", DEFAULT_TASK),
            max_iterations=(args.max_iterations if args.max_iterations is not None
                            else cfg.get("max_iterations", 100)),
            controller=args.controller,
            evaluator=args.evaluator,
            seed=args.seed,
            out_dir=args.out,
            faults=_parse_faults(cfg),
            wizard_config=cfg.get("wizard"),
            controller_script=cfg.get("controller_script"),
            evaluator_script=cfg.get("evaluator_script"),
            doc_budget=cfg.get("doc_budget", 8000),
            attach_screenshot=cfg.get("attach_screenshot", True),
            remote_controller=remote_controller if args.controller == "remote" else None,
            remote_evaluator=remote_evaluator if args.evaluator == "remote" else None,
        )
        # A malformed wizard or fault would fail every run alike: a usage error.
        new_wizard(run_config.faults, run_config.wizard_config)
        records = run_many(run_config, args.runs, jobs=args.jobs)
    except (ConfigError, WizardConfigError) as exc:
        raise CliUsageError(str(exc)) from exc
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_ERROR
    total = sum(len(record.iterations) for record in records)
    print(f"{len(records)} run(s), {total} action(s), records in {args.out}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        record = load_record(args.record)
    except RecordLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        replay(record)
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReplayDivergence as exc:
        print(f"divergence at iteration {exc.iteration}: {exc.detail}", file=sys.stderr)
        return EXIT_DIVERGENCE
    print(f"replay of {record.run_id} matches: "
          f"{len(record.iterations)} iteration(s) byte-equal")
    return EXIT_OK


def _load_run_dirs(runs_dir: Path) -> list:
    records = []
    if runs_dir.is_dir():
        for child in sorted(runs_dir.iterdir()):
            if (child / "header.json").is_file():
                records.append(load_record(child))
    return records


def _load_labels(path: Path) -> LabelFile:
    try:
        return LabelFile.load(path)
    except (OSError, ValueError) as exc:
        raise CliUsageError(f"unreadable label file {path}: {exc}") from exc


def cmd_label(args: argparse.Namespace) -> int:
    try:
        records = _load_run_dirs(args.runs)
    except RecordLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    existing = _load_labels(args.labels) if Path(args.labels).is_file() else None
    labels = prefill_labels(collect_positives(records), existing)
    labels.save(args.labels)
    unlabeled = sum(1 for label in labels.entries.values() if label.value == "unknown")
    print(f"{len(labels.entries)} finding(s) in {args.labels}, {unlabeled} unlabeled")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    try:
        records = _load_run_dirs(args.runs)
    except RecordLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    labels = LabelFile()
    if args.labels is not None and Path(args.labels).is_file():
        labels = _load_labels(args.labels)
    try:
        report = build_report(records, labels,
                              assume_unlabeled_false=args.assume_unlabeled_false)
    except UnlabeledFindingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("label them or pass --assume-unlabeled-false", file=sys.stderr)
        return EXIT_UNLABELED
    except TriageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
