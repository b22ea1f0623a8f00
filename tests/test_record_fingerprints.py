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
from pathlib import Path

from guiscout.harness import RunConfig, run
from guiscout.simulator import FaultKind, FaultSpec, default_fault_set

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "record_fingerprints.json"

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


if __name__ == "__main__":
    print(json.dumps(compute_fingerprints(), indent=2, sort_keys=True))
