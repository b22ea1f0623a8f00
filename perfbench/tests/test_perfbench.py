"""The benchmark's own tests: output schema, short versions of every
workload run to completion, and equal fingerprints with tracing on and off.
They check no timing.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import CampaignPersist, ExploreLong, TraverseSweep, committed_fingerprint, \
    fingerprint_digest

SHORT = {
    "explore-long": ExploreLong(iterations=40),
    "traverse-sweep": TraverseSweep(),
    "campaign-persist": CampaignPersist(runs=2, iterations=20),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(kind):
    return [metric["name"] for metric in SPEC[kind]]


def _check_schema(outcome, expected_names):
    assert set(outcome) == {"correct", "attempted", "failed", "metrics", "failures"}
    assert outcome["failures"] == []
    assert outcome["correct"] is True
    assert outcome["failed"] == 0 and outcome["attempted"] >= 1
    assert sorted(outcome["metrics"]) == sorted(expected_names)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in outcome["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)


def test_spec_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(SHORT)
    names = _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


@pytest.mark.parametrize("name", list(SHORT))
def test_untraced_run_reports_every_end_to_end_metric(name):
    info, outcome = run.result(SHORT[name], seed=3, seconds=0, trace=False)
    _check_schema(outcome, _names("end_to_end"))
    assert outcome["metrics"]["ok_frac"]["value"] == 1.0
    assert outcome["metrics"]["disk_bytes_per_iter"]["value"] > 0
    assert {"python", "nproc", "revision", "seed"} <= set(info)
    assert info["seed"] == 3


@pytest.mark.parametrize("name", list(SHORT))
def test_traced_run_reports_every_per_layer_metric(name):
    _info, outcome = run.result(SHORT[name], seed=3, seconds=0, trace=True)
    _check_schema(outcome, _names("per_layer"))
    values = {key: metric["value"] for key, metric in outcome["metrics"].items()}
    writer_bytes = values["harness.RunWriter.write_prompt.bytes_per_iter"]
    assert (writer_bytes > 0) == (name == "campaign-persist")


@pytest.mark.parametrize("name", list(SHORT))
def test_tracing_leaves_record_fingerprints_unchanged(name):
    rounds, ops, _recorder = run.measure(SHORT[name], seed=5, seconds=0, trace=True)
    assert ops.failures == []
    assert [r.traced for r in rounds] == [False, True]
    assert rounds[0].fingerprints and rounds[0].fingerprints == rounds[1].fingerprints


def test_phase_times_are_divided_by_the_reference_slowdown():
    r = run.Round(seed=0, traced=False)
    chunk_s = 2 * run.REFERENCE_S
    r.timings = {"run": [("run-000", index, 0.01, chunk_s) for index in range(100)]}
    r.iterations = 100
    r.run_s = 100 * (0.01 + chunk_s) + 0.1
    assert r.slowdown("run") == pytest.approx(2.0)
    assert r.slowdown("verify") == pytest.approx(2.0)
    assert r.phase_s("run") == pytest.approx(100 * 0.005 + 0.05)
    assert run.iters_per_s([r]) == pytest.approx(100 / 0.55)
    assert run.iter_ms([r, r]) == pytest.approx([5.0] * 100)


def test_explore_long_default_seed_matches_the_committed_fingerprint():
    guiscout = run.import_guiscout()
    record = guiscout.run(guiscout.RunConfig(
        controller="random", evaluator="oracle", seed=0,
        max_iterations=ExploreLong.iterations, faults=guiscout.default_fault_set()))
    assert fingerprint_digest(record) == committed_fingerprint("explore-long", 0)


def test_command_prints_the_result_as_its_last_line():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "traverse-sweep",
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "explore-long",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
