"""Pinned record fingerprints: refactors of the iteration loop must not change
a single byte of what a run records.

Each fingerprint is the sha256 of ``RunRecord.fingerprint()`` encoded as
compact, key-sorted JSON. The fixture covers the scripted traversal over every
subset of the default faults and seeded random/oracle runs with the default and
with a non-default fault set. Regenerate it (only for an intended change of the
record contract) with
``PYTHONPATH=src python tests/test_record_fingerprints.py > tests/fixtures/record_fingerprints.json``.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from guiscout.harness import RunConfig, run
from guiscout.simulator import FaultKind, FaultSpec, default_fault_set

TESTS = Path(__file__).resolve().parent
FIXTURE = TESTS / "fixtures" / "record_fingerprints.json"

RANDOM_ITERATIONS = 120

OTHER_FAULTS = [
    FaultSpec(FaultKind.STALE_ERROR, "launch_settings", "Working Directory"),
    FaultSpec(FaultKind.GENERIC_ERROR_MESSAGE, "tool_description", "Name"),
    FaultSpec(FaultKind.TRUNCATED_TEXT, "cpacs_properties", "Input mapping file"),
]


def fingerprint_digest(record) -> str:
    text = json.dumps(record.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _random_run(seed: int, faults: list[FaultSpec]) -> str:
    return fingerprint_digest(run(RunConfig(
        controller="random", evaluator="oracle", seed=seed,
        max_iterations=RANDOM_ITERATIONS, faults=faults)))


def compute_fingerprints() -> dict:
    faults = default_fault_set()
    scripted = {}
    for mask in range(2 ** len(faults)):
        subset = [dataclasses.replace(fault, active=bool(mask >> bit & 1))
                  for bit, fault in enumerate(faults)]
        scripted[str(mask)] = fingerprint_digest(run(RunConfig(
            controller="scripted", evaluator="oracle", faults=subset)))
    return {
        "scripted_subsets": scripted,
        "random_default_faults": {str(seed): _random_run(seed, default_fault_set())
                                  for seed in range(8)},
        "random_other_faults": {str(seed): _random_run(seed, list(OTHER_FAULTS))
                                for seed in range(4)},
    }


def test_record_fingerprints_match_the_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert compute_fingerprints() == expected


# The 31-step scripted run and a 100-iteration random run, default faults.
_HASH_SEED_PROBE = """
import json
from guiscout.harness import RunConfig, run
from guiscout.simulator import default_fault_set
from test_record_fingerprints import fingerprint_digest
print(json.dumps([fingerprint_digest(run(RunConfig(faults=default_fault_set()))),
                  fingerprint_digest(run(RunConfig(controller="random", max_iterations=100,
                                                   faults=default_fault_set())))]))
"""


def test_fingerprints_do_not_depend_on_the_process():
    """Strings hash by a per-process seed and enum members by their address,
    so the order of a set differs between processes; no recorded byte may."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS),
                            os.environ.get("PYTHONPATH", "")])
    digests = [json.loads(subprocess.run(
        [sys.executable, "-c", _HASH_SEED_PROBE], capture_output=True, text=True, check=True,
        timeout=300, env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)).stdout)
        for seed in ("0", "1")]
    assert digests[0] == digests[1]
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert digests[0][0] == expected["scripted_subsets"][str(2 ** len(default_fault_set()) - 1)]


if __name__ == "__main__":
    print(json.dumps(compute_fingerprints(), indent=2, sort_keys=True))
