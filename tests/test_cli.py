import json
import shutil

import pytest

from guiscout.cli import main
from guiscout.harness import load_record
from conftest import write_funnel_dirs
from test_simulator import UNUSABLE_FIELD_VALUES, _config_with, _inputs_combo_on_the_first_page, \
    _inputs_list_on_the_first_page


def test_run_smoke(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["run", "--controller", "scripted",
                 "--evaluator", "oracle", "--runs", "1", "--out", str(out)])
    assert code == 0
    assert (out / "run-000" / "header.json").is_file()
    assert "1 run(s)" in capsys.readouterr().out


def test_a_two_run_scripted_campaign_records_the_traversal_twice(tmp_path):
    """Both runs share the process's node table and prompt heads, and record
    the same 31 iterations, ending on the Finish page."""
    out = tmp_path / "runs"
    assert main(["run", "--controller", "scripted", "--runs", "2", "--out", str(out)]) == 0
    first, second = (load_record(out / run_id) for run_id in ("run-000", "run-001"))
    for record in (first, second):
        assert len(record.iterations) == 31, record.run_id
        assert record.iterations[-1].page_key == "finish", record.run_id
    assert ([it.fingerprint() for it in first.iterations]
            == [it.fingerprint() for it in second.iterations])


@pytest.mark.parametrize("flag, message", [("--runs", "--runs"), ("--jobs", "jobs")])
def test_run_rejects_zero_runs(tmp_path, capsys, flag, message):
    out = tmp_path / "runs"
    code = main(["run", flag, "0", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_into_an_out_that_holds_a_run_exits_one_and_keeps_it(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--max-iterations", "3"]) == 0
    files = {path.name: path.read_bytes() for path in (out / "run-000").iterdir()}
    capsys.readouterr()
    assert main(["run", "--out", str(out), "--runs", "2", "--max-iterations", "5"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out} already holds run-000;")
    assert {path.name: path.read_bytes() for path in (out / "run-000").iterdir()} == files
    assert [path.name for path in out.iterdir()] == ["run-000"]


def test_run_whose_out_lies_under_a_file_exits_two(tmp_path, capsys):
    """A run that fails once it has started is a run error, not a usage error."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    out = afile / "runs"
    assert main(["run", "--out", str(out), "--max-iterations", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: 1 run(s) failed: run 0: [Errno 20] Not a directory")
    assert captured.out == ""
    assert afile.read_text("utf-8") == "kept\n"


def test_run_live_without_credential_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GUISCOUT_API_KEY", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"remote": {"endpoint": "http://127.0.0.1:9/x",
                                             "model": "m"}}), encoding="utf-8")
    code = main(["run", "--controller", "remote", "--config", str(config),
                 "--out", str(tmp_path / "runs")])
    assert code == 1
    assert "GUISCOUT_API_KEY" in capsys.readouterr().err


def test_run_backend_live_is_a_usage_error(tmp_path, capsys):
    # Only the simulated wizard ships, so there is no --backend flag at all.
    code = main(["run", "--backend", "live", "--out", str(tmp_path / "runs")])
    assert code == 1
    assert "--backend" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["run", "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_replay_round_trip(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--runs", "1"]) == 0
    code = main(["replay", "--record", str(out / "run-000")])
    assert code == 0
    assert "byte-equal" in capsys.readouterr().out


def test_replay_corrupt_record_exits_one(tmp_path, capsys):
    out = tmp_path / "runs"
    main(["run", "--out", str(out), "--runs", "1"])
    iterations = out / "run-000" / "iterations.jsonl"
    text = iterations.read_text("utf-8")
    iterations.write_text(text[: len(text) // 2], encoding="utf-8")
    assert main(["replay", "--record", str(out / "run-000")]) == 1


def test_replay_of_a_run_that_recorded_a_controller_error_exits_one(tmp_path, capsys):
    """After Finish, a one-page wizard leaves the random controller no action."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"wizard": {"pages": [
        {"key": "only", "title": "Only", "fields": []}]}}), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--controller", "random",
                 "--max-iterations", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay", "--record", str(out / "run-000")]) == 1
    assert capsys.readouterr().err == \
        "error: iteration 1 has no recorded agent output; cannot replay\n"


def test_report_counts_an_executed_action_that_does_not_parse_but_not_its_control(
        tmp_path, capsys):
    """A hand-edited record: the first action, the only click on its control,
    no longer parses."""
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--max-iterations", "3"]) == 0
    report = ["report", "--runs", str(out), "--assume-unlabeled-false", "--format", "json"]
    capsys.readouterr()
    assert main(report) == 0
    before = json.loads(capsys.readouterr().out)
    path = out / "run-000" / "iterations.jsonl"
    first, *rest = path.read_text("utf-8").splitlines(keepends=True)
    edited = json.loads(first)
    assert edited["status"] == "executed"
    edited["action"] = "click("
    path.write_text(json.dumps(edited) + "\n" + "".join(rest), encoding="utf-8")
    assert main(report) == 0
    after = json.loads(capsys.readouterr().out)
    assert after["actions"] == before["actions"] == 3
    assert after["coverage"]["controls_acted"] == before["coverage"]["controls_acted"] - 1 == 2


@pytest.mark.parametrize("header", [[], {"run_id": "run-000", "config": []}])
def test_replay_non_object_header_exits_one(tmp_path, capsys, header):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--runs", "1"]) == 0
    (out / "run-000" / "header.json").write_text(json.dumps(header), encoding="utf-8")
    assert main(["replay", "--record", str(out / "run-000")]) == 1
    assert "not an object" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("run_id", 5),
    ("faults", 5),
    ("faults", [{"kind": "nope", "page": "launch_settings", "label": "Working Directory"}]),
    ("wizard_config", 5),
    ("doc_budget", "x"),
    ("seed", True),
    ("max_iterations", "x"),
    ("controller", 5),
    ("remote_controller", 7),
    ("backend", "live"),
])
def test_replay_header_value_of_wrong_type_exits_one(tmp_path, capsys, key, value):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--runs", "1", "--max-iterations", "3"]) == 0
    header_path = out / "run-000" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    (header if key == "run_id" else header["config"])[key] = value
    header_path.write_text(json.dumps(header), encoding="utf-8")
    assert main(["replay", "--record", str(out / "run-000")]) == 1
    assert "error:" in capsys.readouterr().err


def test_replay_of_a_header_whose_run_id_names_another_directory_exits_one(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--runs", "1", "--max-iterations", "3"]) == 0
    header_path = out / "run-000" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    header["run_id"] = "../escaped"
    header_path.write_text(json.dumps(header), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--record", str(out / "run-000")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "run_id" in err and "Traceback" not in err


@pytest.mark.parametrize("wizard_config", [
    {"pages": 5},
    {"pages": [{"key": "a"}]},
    {"pages": []},
    {"pages": [{"key": "a", "title": "A", "fields": [{"label": "Name"}]}]},
    {},
])
def test_replay_malformed_wizard_config_exits_one(tmp_path, capsys, wizard_config):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--runs", "1", "--max-iterations", "3"]) == 0
    header_path = out / "run-000" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    header["config"]["wizard_config"] = wizard_config
    header_path.write_text(json.dumps(header), encoding="utf-8")
    assert main(["replay", "--record", str(out / "run-000")]) == 1
    assert "error: " in capsys.readouterr().err


def test_replay_of_a_fault_that_changes_nothing_shown_exits_one(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--runs", "1", "--max-iterations", "3"]) == 0
    header_path = out / "run-000" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    header["config"]["faults"] = [{"kind": "missing_title", "page": "tool_description",
                                   "label": "Name", "active": True}]
    header_path.write_text(json.dumps(header), encoding="utf-8")
    assert main(["replay", "--record", str(out / "run-000")]) == 1
    assert "error: unusable header config: unknown fault target" in capsys.readouterr().err


def test_replay_with_altered_faults_exits_four(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "faults": [{"kind": "misaligned_rect", "page": "inputs_outputs",
                    "label": "Add Input..."}]}), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out), "--runs", "1"]) == 0
    header_path = out / "run-000" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    header["config"]["faults"] = []
    header_path.write_text(json.dumps(header), encoding="utf-8")
    code = main(["replay", "--record", str(out / "run-000")])
    assert code == 4
    assert "divergence at iteration" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("tree_digest", "0" * 64),
    ("controller_prompt_digest", "0" * 64),
    ("evaluator_prompt_digest", "0" * 64),
    ("page_key", "edited"),
    ("action", "click(999999)"),
    ("verdict", {"state": "problem", "reason": "edited"}),
])
def test_replay_of_an_edited_record_field_exits_four(tmp_path, capsys, field, value):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--runs", "1", "--max-iterations", "3"]) == 0
    iterations = out / "run-000" / "iterations.jsonl"
    lines = [json.loads(line) for line in iterations.read_text("utf-8").splitlines()]
    lines[1][field] = value
    iterations.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    assert main(["replay", "--record", str(out / "run-000")]) == 4
    assert f"divergence at iteration 1: {field} " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["label", "report", "replay"])
@pytest.mark.parametrize("field, value", [
    ("verdict", "x"),
    ("verdict", {"state": "okay", "reason": "r"}),
    ("verdict", {"state": "problem"}),
    ("verdict", {"state": "problem", "reason": ""}),
    ("verdict", {"state": "problem", "reason": 5}),
    ("verdict", {"state": "weird"}),
    ("verdict", {"state": "problem", "reason": "r", "severity": "high"}),
    ("controller_raw", 5),
    ("action", 5),
    ("page_key", 5),
    # The whole first line copied over the second: its index repeats.
    pytest.param(None, None, id="copied-line"),
])
def test_malformed_iteration_line_exits_one(tmp_path, capsys, command, field, value):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--runs", "1", "--max-iterations", "3"]) == 0
    iterations = out / "run-000" / "iterations.jsonl"
    lines = [json.loads(line) for line in iterations.read_text("utf-8").splitlines()]
    if field is None:
        lines[1] = lines[0]
    else:
        lines[1][field] = value
    iterations.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    labels = tmp_path / "labels.txt"
    argv = {"label": ["label", "--runs", str(out), "--labels", str(labels)],
            "report": ["report", "--runs", str(out), "--assume-unlabeled-false"],
            "replay": ["replay", "--record", str(out / "run-000")]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: corrupt iteration at {iterations}:2")
    assert [path.name for path in out.iterdir()] == ["run-000"]
    assert not labels.exists()


@pytest.mark.parametrize("command", ["label", "report"])
def test_two_runs_with_one_run_id_exit_one_naming_it(tmp_path, capsys, command):
    out = tmp_path / "runs"
    assert main(["run", "--out", str(out), "--max-iterations", "3"]) == 0
    shutil.copytree(out / "run-000", out / "run-000-copy")
    labels = tmp_path / "labels.txt"
    argv = {"label": ["label", "--runs", str(out), "--labels", str(labels)],
            "report": ["report", "--runs", str(out), "--assume-unlabeled-false"]}[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: run id run-000 names more than one run")
    assert not labels.exists()


def test_label_of_a_run_whose_id_has_whitespace_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "runs"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"faults": [{"kind": "missing_title", "page": "tool_description",
                                              "label": "title"}]}), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(out), "--max-iterations", "3"]) == 0
    header_path = out / "run-000" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    header["run_id"] = "my run"
    header_path.write_text(json.dumps(header), encoding="utf-8")
    labels = tmp_path / "labels.txt"
    capsys.readouterr()
    assert main(["label", "--runs", str(out), "--labels", str(labels)]) == 1
    assert capsys.readouterr().err.startswith("error: run id 'my run' contains whitespace")
    assert not labels.exists()


def test_label_of_a_run_whose_id_starts_with_a_hash_exits_one_and_writes_nothing(tmp_path,
                                                                                capsys):
    out = tmp_path / "runs"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"faults": [{"kind": "missing_title", "page": "tool_description",
                                              "label": "title"}]}), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(out), "--max-iterations", "3"]) == 0
    header_path = out / "run-000" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    header["run_id"] = "#r"
    header_path.write_text(json.dumps(header), encoding="utf-8")
    labels = tmp_path / "labels.txt"
    capsys.readouterr()
    assert main(["label", "--runs", str(out), "--labels", str(labels)]) == 1
    assert capsys.readouterr().err.startswith("error: run id '#r' starts with '#'")
    assert not labels.exists()


def test_label_creates_prefilled_file(tmp_path, capsys):
    out = tmp_path / "runs"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "faults": [{"kind": "generic_error_message", "page": "launch_settings",
                    "label": "Working Directory"}]}), encoding="utf-8")
    main(["run", "--config", str(config), "--out", str(out), "--runs", "1"])
    labels = tmp_path / "labels.txt"
    assert main(["label", "--runs", str(out), "--labels", str(labels)]) == 0
    content = labels.read_text("utf-8")
    assert "unknown" in content
    assert "1 unlabeled" in capsys.readouterr().out


def test_label_into_a_missing_directory_exits_one(tmp_path, capsys):
    runs_dir, _ = write_funnel_dirs(tmp_path)
    labels = tmp_path / "no-such-dir" / "labels.txt"
    assert main(["label", "--runs", str(runs_dir), "--labels", str(labels)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write label file {labels}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("runs", ["runz", "runs/run-000/header.json"])
def test_label_with_runs_not_a_directory_exits_one_and_keeps_the_labels(tmp_path, capsys, runs):
    _, labels_path = write_funnel_dirs(tmp_path)  # a file under runs/ is not a directory either
    labels_path.write_text("run-000 19 true_positive\n", encoding="utf-8")
    before = labels_path.read_bytes()
    missing = tmp_path / runs
    assert main(["label", "--runs", str(missing), "--labels", str(labels_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --runs {missing} is not a directory\n"
    assert labels_path.read_bytes() == before


@pytest.mark.parametrize("campaign", ["empty", "other"])
def test_label_against_runs_without_the_labelled_findings_exits_one_and_keeps_the_labels(
        tmp_path, capsys, campaign):
    _, labels_path = write_funnel_dirs(tmp_path)
    before = labels_path.read_bytes()
    runs = tmp_path / campaign
    runs.mkdir()
    if campaign == "other":
        assert main(["run", "--out", str(runs), "--runs", "2", "--max-iterations", "2"]) == 0
        capsys.readouterr()
    assert main(["label", "--runs", str(runs), "--labels", str(labels_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: label references missing finding (run run-000, iteration 0)\n"
    assert captured.out == ""
    assert labels_path.read_bytes() == before


def test_label_refreshes_a_grown_campaign_keeping_every_label(tmp_path, capsys):
    runs_dir, labels_path = write_funnel_dirs(tmp_path)
    full = labels_path.read_text("utf-8")
    assert main(["label", "--runs", str(runs_dir), "--labels", str(labels_path)]) == 0
    assert labels_path.read_text("utf-8") == full
    # Labels made before run-008 was added: the refresh adds its findings as unknown.
    labels_path.write_text("".join(line for line in full.splitlines(keepends=True)
                                   if not line.startswith("run-008 ")), encoding="utf-8")
    assert main(["label", "--runs", str(runs_dir), "--labels", str(labels_path)]) == 0
    refreshed = labels_path.read_text("utf-8").splitlines()
    assert len(refreshed) == len(full.splitlines())
    for old, new in zip(full.splitlines(), refreshed):
        run_id, iteration, _ = old.split(" ", 2)
        assert new == (f"{run_id} {iteration} unknown" if run_id == "run-008" else old)


def test_report_with_a_missing_runs_dir_exits_one(tmp_path, capsys):
    missing = tmp_path / "runz"
    assert main(["report", "--runs", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --runs {missing} is not a directory\n"
    assert captured.out == ""


def test_report_with_a_missing_labels_file_exits_one(tmp_path, capsys):
    runs_dir, labels_path = write_funnel_dirs(tmp_path)
    missing = labels_path.with_name("typo.txt")
    assert main(["report", "--runs", str(runs_dir), "--labels", str(missing),
                 "--assume-unlabeled-false"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: unreadable label file {missing}")
    assert captured.out == ""
    assert not missing.exists()


# The last entry labels one finding on two lines, which would lose a decision.
MALFORMED_LABEL_LINES = ["run-000 22 maybe", "run-000 x true_positive",
                         "run-000 0 true_positive cause-a\nrun-000 0 false_positive"]


@pytest.mark.parametrize("line", MALFORMED_LABEL_LINES)
def test_label_malformed_label_file_exits_one(tmp_path, capsys, line):
    runs_dir, labels_path = write_funnel_dirs(tmp_path)
    labels_path.write_text(line + "\n", encoding="utf-8")
    assert main(["label", "--runs", str(runs_dir), "--labels", str(labels_path)]) == 1
    assert "error: unreadable label file" in capsys.readouterr().err
    assert labels_path.read_text("utf-8") == line + "\n"


@pytest.mark.parametrize("line", MALFORMED_LABEL_LINES)
def test_report_malformed_label_file_exits_one(tmp_path, capsys, line):
    runs_dir, labels_path = write_funnel_dirs(tmp_path)
    labels_path.write_text(line + "\n", encoding="utf-8")
    assert main(["report", "--runs", str(runs_dir), "--labels", str(labels_path)]) == 1
    assert "error: unreadable label file" in capsys.readouterr().err


def test_report_unlabeled_exits_three_naming_findings(tmp_path, capsys):
    runs_dir, _ = write_funnel_dirs(tmp_path)
    code = main(["report", "--runs", str(runs_dir)])
    assert code == 3
    err = capsys.readouterr().err
    assert "unlabeled findings" in err
    assert "(run-000, 0)" in err


def test_report_funnel_fixture_text(tmp_path, capsys):
    runs_dir, labels_path = write_funnel_dirs(tmp_path)
    code = main(["report", "--runs", str(runs_dir), "--labels", str(labels_path),
                 "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    for number in ("9", "752", "72", "7", "5"):
        assert number in out


def test_report_json_format(tmp_path, capsys):
    runs_dir, labels_path = write_funnel_dirs(tmp_path)
    code = main(["report", "--runs", str(runs_dir), "--labels", str(labels_path),
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 9
    assert payload["actions"] == 752
    assert payload["positives"] == 72
    assert payload["true_positives"] == 7
    assert payload["unique_issues"] == 5


def test_report_empty_runs_dir_is_all_zeros(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    code = main(["report", "--runs", str(empty)])
    assert code == 0
    assert "runs:           0" in capsys.readouterr().out


def test_report_assume_unlabeled_false(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "faults": [{"kind": "missing_title", "page": "cpacs_properties",
                    "label": "title"}]}), encoding="utf-8")
    out = tmp_path / "runs"
    main(["run", "--config", str(config), "--out", str(out), "--runs", "1"])
    code = main(["report", "--runs", str(out), "--assume-unlabeled-false"])
    assert code == 0
    assert "positives:      1" in capsys.readouterr().out


def test_demo_prints_a_one_issue_report(tmp_path, capsys):
    code = main(["demo", "--out", str(tmp_path / "demo-runs")])
    assert code == 0
    out = capsys.readouterr().out
    assert "unique issues:  1" in out
    assert "true positives: 1" in out


def test_run_with_custom_wizard_config(tmp_path):
    config = tmp_path / "config.json"
    from guiscout.simulator import default_wizard_config

    wizard = default_wizard_config()
    wizard["pages"][0]["fields"][1]["label"] = "Component Name"
    config.write_text(json.dumps({
        "wizard": wizard,
        "controller_script": [json.dumps({"action": "click(999)",
                                          "explanation": "probe"})],
    }), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out), "--runs", "1"]) == 0
    record = json.loads((out / "run-000" / "header.json").read_text("utf-8"))
    assert record["config"]["wizard_config"]["pages"][0]["fields"][1]["label"] == \
        "Component Name"


def _two_lists_wizard() -> dict:
    from guiscout.simulator import default_wizard_config

    wizard = default_wizard_config()
    wizard["pages"][1]["fields"].append({"label": "More Inputs", "kind": "List"})
    return wizard


def _misspelt_opens_wizard() -> dict:
    from guiscout.simulator import default_wizard_config

    wizard = default_wizard_config()
    wizard["pages"][1]["fields"][1]["opens"] = "add_inpt"
    return wizard


@pytest.mark.parametrize("cfg", [
    {"wizard": {"pages": 5}},
    # With a script of its own, so that only the empty wizard is at fault.
    {"wizard": {}, "controller_script": ['{"action": "click(999)", "explanation": "probe"}']},
    {"faults": [{"kind": "truncated_text", "page": "tool_description",
                 "label": "No Such Field"}]},
    {"faults": [{"kind": "missing_title", "page": "tool_description", "label": "Name"}]},
    {"wizard": _two_lists_wizard(),
     "controller_script": ['{"action": "click(999)", "explanation": "probe"}']},
    {"wizard": _misspelt_opens_wizard(),
     "controller_script": ['{"action": "click(999)", "explanation": "probe"}']},
    {"wizard": _inputs_list_on_the_first_page(),
     "controller_script": ['{"action": "click(999)", "explanation": "probe"}']},
    {"wizard": _inputs_combo_on_the_first_page("non_empty"),
     "controller_script": ['{"action": "click(999)", "explanation": "probe"}']},
], ids=["malformed-wizard", "empty-wizard", "fault-naming-no-field",
        "fault-changing-nothing-shown", "two-lists-on-a-page", "button-opening-no-modal",
        "inputs-list-before-its-button", "inputs-combo-before-its-button"])
def test_run_malformed_wizard_config_exits_one(tmp_path, capsys, cfg):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out), "--runs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run(s) failed" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "{"], ids=["missing", "not-json"])
def test_run_with_an_unreadable_config_file_exits_one(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: unreadable config file {config}: ")
    assert not out.exists()


@pytest.mark.parametrize("cfg, flags", [
    ([1, 2], []),
    ({"faults": 5}, []),
    ({"faults": [{"kind": "nope", "page": "launch_settings", "label": "Working Directory"}]},
     []),
    ({"max_iterations": "5"}, []),
    ({"remote": {"model": "m"}}, ["--controller", "remote"]),
    ({"remote": 5}, []),
    ({}, ["--controller", "remote"]),
    ({"task": 5}, []),
    ({"doc_budget": "x"}, []),
    ({"controller_script": "abc"}, []),
    ({"evaluator_script": [1]}, ["--evaluator", "scripted"]),
    ({"wizard": 5}, []),
    ({"max_iterations": True}, []),
    ({"doc_budget": True}, []),
    ({"doc_budget": -5}, []),
    ({"faults": [{"kind": "generic_error_message", "page": "launch_settings",
                  "label": "Working Directory", "active": "no"}]}, []),
], ids=lambda value: repr(value)[:40])
def test_run_config_value_of_wrong_type_exits_one(tmp_path, capsys, cfg, flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("cfg, key", [
    ({"max_iteration": 5}, "max_iteration"),
    ({"remote": {"endpoint": "http://127.0.0.1:9/x", "model": "m", "timout": 5}}, "timout"),
    ({"faults": [{"kind": "generic_error_message", "page": "launch_settings",
                  "label": "Working Directory", "actve": False}]}, "actve"),
], ids=["top-level", "remote", "fault"])
def test_run_config_file_with_a_misspelt_key_exits_one(tmp_path, capsys, cfg, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


def _wizard_with(path: tuple, key: str) -> dict:
    """The default wizard with ``key`` added to the object at ``path``."""
    from guiscout.simulator import default_wizard_config

    wizard = default_wizard_config()
    target = wizard
    for step in path:
        target = target[step]
    target[key] = "non_empty"
    return wizard


@pytest.mark.parametrize("path, key", [
    ((), "titel"),
    (("pages", 0), "feilds"),
    (("modals", "add_input"), "key"),
    (("pages", 0, "fields", 1), "validater"),
    (("modals", "add_input", "fields", 0), "noun"),
], ids=["wizard", "page", "modal", "page-field", "modal-field"])
def test_run_config_with_a_misspelt_wizard_key_exits_one(tmp_path, capsys, path, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "wizard": _wizard_with(path, key),
        "controller_script": ['{"action": "click(999)", "explanation": "probe"}']}),
        encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("path, value, kind", UNUSABLE_FIELD_VALUES)
def test_run_config_with_a_field_value_its_kind_cannot_use_exits_one_naming_it(
        tmp_path, capsys, path, value, kind):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "wizard": _config_with(path, value),
        "controller_script": ['{"action": "click(999)", "explanation": "probe"}']}),
        encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: wizard page {path[1]} field {path[3]} ")
    assert f"'{path[4]}'" in err and f"kind '{kind}'" in err
    assert not out.exists()


def _wizard_with_extra_page(title: str, text: str) -> dict:
    from guiscout.simulator import default_wizard_config

    wizard = default_wizard_config()
    wizard["pages"].append({"key": "extra", "title": title,
                            "fields": [{"label": "Note", "kind": "Static", "text": text}]})
    return wizard


@pytest.mark.parametrize("fault, wizard", [
    (("misaligned_rect", "inputs_outputs", "Inputs"), None),
    (("truncated_text", "extra", "Note"), _wizard_with_extra_page("Extra", "x" * 40)),
    (("missing_title", "extra", "title"), _wizard_with_extra_page("", "x" * 41)),
    (("generic_error_message", "tool_description", "Tool Description"), None),
    (("stale_error", "tool_description", "Group"), None),
], ids=["list", "short-static", "empty-title", "generic-no-validator", "stale-no-validator"])
def test_run_config_with_a_fault_that_can_never_change_the_screenshot_exits_one(
        tmp_path, capsys, fault, wizard):
    cfg = {"faults": [dict(zip(("kind", "page", "label"), fault))],
           "controller_script": ['{"action": "click(999)", "explanation": "probe"}']}
    if wizard is not None:
        cfg["wizard"] = wizard
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: unknown fault target")
    assert not out.exists()


def test_scripted_run_on_a_custom_wizard_without_a_script_exits_one(tmp_path, capsys):
    from guiscout.simulator import default_wizard_config

    wizard = default_wizard_config()
    wizard["pages"][0]["fields"][1]["label"] = "Component Name"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"wizard": wizard}), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "controller_script" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("controller_temperature", 5),
    ("controller_temperature", "hot"),
    ("evaluator_temperature", -1),
    ("timeout", "60"),
    ("max_retries", 1.5),
    ("retry_backoff", None),
    ("api_key_env", 5),
    ("timeout", 0),
    ("timeout", -1.5),
    ("timeout", float("inf")),
    ("max_retries", -1),
    ("retry_backoff", -0.5),
    ("retry_backoff", float("nan")),
])
def test_run_remote_setting_out_of_range_or_not_a_number_exits_one(tmp_path, capsys,
                                                                    key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"remote": {"endpoint": "http://127.0.0.1:9/x", "model": "m",
                                             key: value}}), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "remote" in err
    assert not out.exists()


def test_run_config_file_sets_every_run_setting(tmp_path, monkeypatch):
    from guiscout.simulator import default_wizard_config

    wizard = default_wizard_config()
    wizard["pages"][0]["fields"][1]["label"] = "Component Name"
    fault = {"kind": "generic_error_message", "page": "launch_settings",
             "label": "Working Directory", "active": False}
    controller_script = [json.dumps({"action": "click(999)", "explanation": f"probe {n}"})
                         for n in range(3)]
    evaluator_script = ['{"state": "okay"}', '{"state": "problem", "reason": "r"}', "x"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "task": "Test the wizard.", "max_iterations": 2, "doc_budget": 100,
        "attach_screenshot": False, "faults": [fault], "wizard": wizard,
        "controller_script": controller_script, "evaluator_script": evaluator_script,
    }), encoding="utf-8")
    out = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out), "--evaluator", "scripted",
                 "--seed", "7"]) == 0
    header = json.loads((out / "run-000" / "header.json").read_text("utf-8"))
    assert header["config"] == {
        "task": "Test the wizard.", "max_iterations": 2, "backend": "sim",
        "controller": "scripted", "evaluator": "scripted", "seed": 7, "faults": [fault],
        "wizard_config": wizard, "doc_budget": 100, "attach_screenshot": False,
        "remote_controller": None, "remote_evaluator": None}
    # The scripts are not echoed; the recorded agent outputs show they were used.
    iterations = [json.loads(line) for line in
                  (out / "run-000" / "iterations.jsonl").read_text("utf-8").splitlines()]
    assert [it["controller_raw"] for it in iterations] == controller_script[:2]
    assert [it["evaluator_raw"] for it in iterations] == evaluator_script[:2]

    remote = {"endpoint": "http://127.0.0.1:9/x", "model": "m", "api_key_env": "GUISCOUT_T",
              "timeout": 5.0, "max_retries": 1, "retry_backoff": 0.5}
    config.write_text(json.dumps({"max_iterations": 0, "remote": {
        **remote, "controller_temperature": 0.3, "evaluator_temperature": 0.7}}),
        encoding="utf-8")
    monkeypatch.setenv("GUISCOUT_T", "secret")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "remote"),
                 "--controller", "remote", "--evaluator", "remote"]) == 0
    header = json.loads((tmp_path / "remote" / "run-000" / "header.json").read_text("utf-8"))
    assert header["config"]["remote_controller"] == {**remote, "temperature": 0.3}
    assert header["config"]["remote_evaluator"] == {**remote, "temperature": 0.7}
