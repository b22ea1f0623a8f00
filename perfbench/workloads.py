"""The benchmark's three workloads.

Each workload is a closed loop with one caller: every run, CLI call and
replay waits for the one before it. A round has four steps. ``setup`` builds
the inputs from the seed; ``run`` is the timed work; ``verify`` is the timed
check a user of guiscout would make (triage and replay); ``check`` compares
the outputs with what they must be and is not timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

COMMITTED_FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


class Ops:
    """Operations attempted (iterations, CLI calls, replays) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)


def fingerprint_digest(record) -> str:
    """sha256 of a record's fingerprint (the record minus wall-clock times)."""
    text = json.dumps(record.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(child.stat().st_size for child in path.rglob("*") if child.is_file())


def true_positive_labels(g, records):
    """Every finding labelled true positive, as the oracle's findings are."""
    return g.LabelFile({finding.key: g.Label("true_positive")
                        for finding in g.collect_positives(records)})


def fault_reasons(g, faults) -> list[str]:
    wizard = g.new_wizard(faults)
    return [wizard.fault_reason(fault) for fault in faults]


def committed_fingerprint(workload: str, seed: int) -> str | None:
    table = json.loads(COMMITTED_FINGERPRINTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def _verify_in_memory(st, ops: Ops) -> None:
    """Triage the round's records and replay each one into the work directory."""
    g = st.g
    st.report = g.build_report(st.records, true_positive_labels(g, st.records))
    for record in st.records:
        ops.attempted += 1
        g.replay(record, out_dir=_replay_dir(st))


def _iterations_done(st) -> int:
    return sum(len(record.iterations) for record in st.records)


def _replay_dir(st) -> Path:
    return st.work_dir / "replays"


def _check_report(st, ops: Ops) -> None:
    if st.report.positives != st.report.true_positives:
        ops.fail(f"report has {st.report.positives} positives but "
                 f"{st.report.true_positives} true positives")


@dataclass(frozen=True)
class ExploreLong:
    """One random-controller, oracle-evaluated run with the five default
    faults, in memory. The action log grows to ``iterations`` entries, so the
    per-iteration cost of re-rendering the log dominates."""

    name: str = "explore-long"
    iterations: int = 800
    jobs: int = 1

    def setup(self, g, seed: int, work_dir: Path):
        faults = g.default_fault_set()
        config = g.RunConfig(controller="random", evaluator="oracle", seed=seed,
                             max_iterations=self.iterations, faults=faults)
        return SimpleNamespace(g=g, seed=seed, work_dir=work_dir,
                               reasons=set(fault_reasons(g, faults)),
                               session=g.harness.RunSession(config))

    def run(self, st, ops: Ops) -> None:
        st.records = [st.session.run()]

    verify = staticmethod(_verify_in_memory)
    iterations_done = staticmethod(_iterations_done)
    written_dir = staticmethod(_replay_dir)

    def check(self, st, ops: Ops) -> list[str]:
        _check_report(st, ops)
        record = st.records[0]
        if len(record.iterations) != self.iterations:
            ops.fail(f"run stopped after {len(record.iterations)} iterations")
        flagged = Counter(it.verdict["reason"] for it in record.problem_iterations())
        for reason, count in flagged.items():
            if count > 1:
                ops.fail(f"fault reason flagged {count} times: {reason}")
            if reason not in st.reasons:
                ops.fail(f"flagged a problem that is no seeded fault: {reason}")
        digests = [fingerprint_digest(record)]
        expected = (committed_fingerprint(self.name, st.seed)
                    if self.iterations == ExploreLong.iterations else None)
        if expected is not None and digests[0] != expected:
            ops.fail(f"fingerprint {digests[0]} differs from the committed {expected}")
        return digests


@dataclass(frozen=True)
class TraverseSweep:
    """Fresh 31-step scripted traversals with the oracle evaluator, one per
    subset of the five default faults; the seed orders the subsets. Logs stay
    short and every run pays its own session set-up."""

    name: str = "traverse-sweep"
    jobs: int = 1

    def setup(self, g, seed: int, work_dir: Path):
        faults = g.default_fault_set()
        script = g.full_traversal_script()
        masks = list(range(2 ** len(faults)))
        random.Random(seed).shuffle(masks)
        configs = []
        for mask in masks:
            subset = [dataclasses.replace(fault, active=bool(mask >> bit & 1))
                      for bit, fault in enumerate(faults)]
            configs.append(g.RunConfig(controller="scripted", evaluator="oracle",
                                       controller_script=script, faults=subset,
                                       run_id=f"subset-{mask:02d}"))
        return SimpleNamespace(g=g, seed=seed, work_dir=work_dir, masks=masks,
                               configs=configs, reasons=fault_reasons(g, faults))

    def run(self, st, ops: Ops) -> None:
        st.records = [st.g.run(config) for config in st.configs]

    verify = staticmethod(_verify_in_memory)
    iterations_done = staticmethod(_iterations_done)
    written_dir = staticmethod(_replay_dir)

    def check(self, st, ops: Ops) -> list[str]:
        _check_report(st, ops)
        for mask, record in zip(st.masks, st.records):
            expected = sorted(reason for bit, reason in enumerate(st.reasons) if mask >> bit & 1)
            flagged = sorted(it.verdict["reason"] for it in record.problem_iterations())
            if flagged != expected:
                ops.fail(f"{record.run_id} flagged {flagged}, expected {expected}")
            pages = {it.page_key for it in record.iterations}
            if len(pages) != 6:
                ops.fail(f"{record.run_id} visited {len(pages)} of 6 pages")
        return [fingerprint_digest(record) for record in st.records]


@dataclass(frozen=True)
class CampaignPersist:
    """The paper's workflow through the CLI, in process: a persisted random
    campaign run on a pool, then label, report, and replay of every run."""

    name: str = "campaign-persist"
    runs: int = 8
    jobs: int = 2
    iterations: int = 100

    def setup(self, g, seed: int, work_dir: Path):
        config_path = work_dir / "campaign.json"
        config_path.write_text(json.dumps({
            "max_iterations": self.iterations,
            "faults": [fault.to_json_obj() for fault in g.default_fault_set()],
        }), encoding="utf-8")
        st = SimpleNamespace(g=g, seed=seed, work_dir=work_dir, config_path=config_path,
                             runs_dir=work_dir / "runs", labels=work_dir / "labels.txt",
                             written=[])
        # Keep the records run_many returns, to compare with what loads back.
        run_many = g.cli.run_many

        def keep_records(*args, **kwargs):
            records = run_many(*args, **kwargs)
            st.written = records
            return records

        g.cli.run_many = keep_records
        return st

    def _cli(self, st, ops: Ops, *argv: str) -> str:
        ops.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = st.g.cli.main(list(argv))
        if code != 0:
            ops.fail(f"guiscout {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def run(self, st, ops: Ops) -> None:
        self._cli(st, ops, "run", "--controller", "random", "--evaluator", "oracle",
                  "--runs", str(self.runs), "--jobs", str(self.jobs),
                  "--seed", str(st.seed), "--out", str(st.runs_dir),
                  "--config", str(st.config_path))

    @staticmethod
    def iterations_done(st) -> int:
        return sum(len(record.iterations) for record in st.written)

    @staticmethod
    def written_dir(st) -> Path:
        return st.runs_dir

    def verify(self, st, ops: Ops) -> None:
        self._cli(st, ops, "label", "--runs", str(st.runs_dir), "--labels", str(st.labels))
        # Only "true_positive" may be written: an invalid label value makes
        # `guiscout report` raise instead of exiting with code 1.
        lines = []
        for line in st.labels.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) >= 3 and not line.startswith("#"):
                line = " ".join([parts[0], parts[1], "true_positive"])
            lines.append(line)
        st.labels.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = self._cli(st, ops, "report", "--runs", str(st.runs_dir),
                        "--labels", str(st.labels), "--format", "json")
        st.report = json.loads(out)
        for run_dir in sorted(st.runs_dir.iterdir()):
            self._cli(st, ops, "replay", "--record", str(run_dir))

    def check(self, st, ops: Ops) -> list[str]:
        report = st.report
        if report["positives"] != report["true_positives"]:
            ops.fail(f"report positives {report['positives']} != "
                     f"true positives {report['true_positives']}")
        if report["runs"] != self.runs:
            ops.fail(f"report counts {report['runs']} runs, expected {self.runs}")
        written = sorted(st.written, key=lambda record: record.run_id)
        if len(written) != self.runs:
            ops.fail(f"campaign returned {len(written)} records, expected {self.runs}")
        digests = []
        for record in written:
            digest = fingerprint_digest(record)
            loaded = fingerprint_digest(st.g.load_record(st.runs_dir / record.run_id))
            if loaded != digest:
                ops.fail(f"{record.run_id} loads back with another fingerprint")
            digests.append(digest)
        return digests


WORKLOADS = {workload.name: workload
             for workload in (ExploreLong(), TraverseSweep(), CampaignPersist())}
