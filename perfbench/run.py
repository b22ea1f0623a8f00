"""guiscout benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload explore-long --seed 0 --seconds 42 --trace 0

The run repeats pairs of rounds of the workload for up to ``--seconds``;
both rounds of a pair get the same inputs. Each round imports ``guiscout``
afresh from ``src/`` and times set-up, the run phase and the verify phase
(see workloads.py). With ``--trace 0`` the last line carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the second round of each pair
is traced, and the last line carries the per-layer metrics, with the spans
written to ``perfbench/out/``. Without the sources under ``src/`` the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
from workloads import WORKLOADS, Ops, tree_bytes  # noqa: E402

# Pair k of a run uses seed + PAIR_SEED_STEP * k, so that one run averages
# over several inputs.
PAIR_SEED_STEP = 1_000_003
GUISCOUT_MODULES = ("widgets", "actions", "prompts", "agents", "simulator",
                    "harness", "triage", "cli")


def import_guiscout():
    """Import guiscout from ``src/`` as a fresh process would, discarding any
    copy (and any wrapper) a previous round installed."""
    for name in [name for name in sys.modules
                 if name == "guiscout" or name.startswith("guiscout.")]:
        del sys.modules[name]
    package = importlib.import_module("guiscout")
    importlib.import_module("guiscout.cli")
    return package


def modules_of(package) -> dict:
    modules = {name: getattr(package, name) for name in GUISCOUT_MODULES}
    modules["guiscout"] = package
    return modules


# A shared host's speed swings by up to 2x within milliseconds and drifts over
# minutes. After every timed iteration the benchmark runs the same fixed chunk
# of pure-Python work and times it. A chunk's time over REFERENCE_S is the
# host's slowdown at that moment, and every time is divided by the mean
# slowdown of LOCAL_CHUNKS chunks around it. The times reported are thus those
# of a host that runs one chunk in REFERENCE_S (see README.md).
REFERENCE_S = 0.0001
LOCAL_CHUNKS = 50
# Set-up is short, so each round sets up this many times. Every set-up is
# timed, and the round goes on with the state of the last one.
SETUPS_PER_ROUND = 3


def reference_chunk() -> int:
    """Fixed work that stresses what guiscout does: small dicts, strings,
    tuples, sorting and JSON."""
    table = {}
    for i in range(60):
        key = "k%d" % i
        table[key] = [i, key.upper(), (i, key)]
    return len(json.dumps(table, sort_keys=True)) + len(sorted(table, reverse=True))


def time_chunk() -> float:
    """CPU time of one reference chunk in the calling thread."""
    start = time.thread_time()
    reference_chunk()
    return time.thread_time() - start


def local_slowdown() -> float:
    """Slowdown over LOCAL_CHUNKS chunks run now, for a step that runs no
    iteration."""
    return statistics.fmean(time_chunk() for _ in range(LOCAL_CHUNKS)) / REFERENCE_S


class IterationTimer:
    """Times each ``RunSession.run_iteration`` call of the run and verify
    phases and the reference chunk run after it, as (run id, iteration index,
    iteration time, chunk time) in the order they end. Times are the calling
    thread's CPU time, so that on a pool they leave out waiting for another
    thread to release the interpreter lock; that waiting shows in the phase's
    wall time. Iterations that run in another process are neither timed nor
    followed by a chunk."""

    def __init__(self, harness, recorder: tracer.Recorder | None) -> None:
        self.timings: dict[str, list[tuple[str, int, float, float]]] = {"run": [], "verify": []}
        self.phase: str | None = None
        pid = os.getpid()
        run_iteration = harness.RunSession.run_iteration

        def timed(session, index, *args, **kwargs):
            phase = self.phase
            if phase is None or os.getpid() != pid:
                return run_iteration(session, index, *args, **kwargs)
            start = time.thread_time()
            record = run_iteration(session, index, *args, **kwargs)
            iteration_s = time.thread_time() - start
            chunk_s = recorder.untraced(time_chunk) if recorder else time_chunk()
            self.timings[phase].append((session.config.run_id, index, iteration_s, chunk_s))
            return record

        harness.RunSession.run_iteration = timed


class Round:
    def __init__(self, seed: int, traced: bool) -> None:
        self.seed = seed
        self.traced = traced
        self.phase = "setup"
        self.run_s = self.verify_s = 0.0
        self.setup_s: list[float] = []  # normalised
        self.iterations = 0
        self.timings: dict[str, list[tuple[str, int, float, float]]] = {}
        self.disk_bytes = 0
        self.fingerprints: list[str] = []

    def slowdown(self, phase: str) -> float:
        """Mean reference chunk time of ``phase`` over REFERENCE_S; that of
        the other phase if no chunk ran in ``phase`` (as when a pool runs the
        iterations in other processes)."""
        for timings in (self.timings.get(phase), *self.timings.values()):
            if timings:
                return statistics.fmean(chunk_s for *_, chunk_s in timings) / REFERENCE_S
        return 1.0

    def iteration_s(self, phase: str) -> list[tuple[str, int, float]]:
        """Each iteration of ``phase`` as (run id, index, time), its time
        normalised by the slowdown of the LOCAL_CHUNKS chunks around it, as
        the host's speed drifts within a phase."""
        timings = self.timings.get(phase, [])
        chunks = [chunk_s for *_, chunk_s in timings]
        out = []
        for position, (run_id, index, iteration_s, _chunk_s) in enumerate(timings):
            start = max(0, min(position - LOCAL_CHUNKS // 2, len(chunks) - LOCAL_CHUNKS))
            slowdown = statistics.fmean(chunks[start:start + LOCAL_CHUNKS]) / REFERENCE_S
            out.append((run_id, index, iteration_s / slowdown))
        return out

    def phase_s(self, phase: str) -> float:
        """Normalised wall time of ``phase`` without its reference chunks:
        the iterations' normalised times plus the rest of the wall time over
        the phase's mean slowdown."""
        wall = self.run_s if phase == "run" else self.verify_s
        timings = self.timings.get(phase, ())
        rest_s = wall - sum(iteration_s + chunk_s for *_, iteration_s, chunk_s in timings)
        return (sum(dt for *_, dt in self.iteration_s(phase))
                + rest_s / self.slowdown(phase))


def run_round(workload, seed: int, ops: Ops, recorder: tracer.Recorder | None) -> Round:
    """One set-up, run, verify and check of ``workload``. Failures are
    recorded in ``ops``; an exception ends the round early."""
    result = Round(seed, traced=recorder is not None)

    def enter(phase: str) -> None:
        result.phase = phase
        if recorder is not None:
            recorder.phase = phase

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = None
    gc.collect()
    try:
        enter("setup")
        for _ in range(SETUPS_PER_ROUND):
            if work_dir is not None:
                shutil.rmtree(work_dir, ignore_errors=True)
            before = local_slowdown()
            start = time.perf_counter()
            package = import_guiscout()
            if recorder is not None:
                recorder.install(modules_of(package))
            timer = IterationTimer(package.harness, recorder)
            work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
            state = workload.setup(package, seed, work_dir)
            setup_s = time.perf_counter() - start
            result.setup_s.append(2 * setup_s / (before + local_slowdown()))

        enter("run")
        result.timings = timer.timings
        timer.phase = "run"
        start = time.perf_counter()
        try:
            workload.run(state, ops)
        finally:
            result.run_s = time.perf_counter() - start
            timer.phase = None
        result.iterations = workload.iterations_done(state)
        ops.attempted += result.iterations

        enter("verify")
        timer.phase = "verify"
        start = time.perf_counter()
        try:
            workload.verify(state, ops)
        finally:
            result.verify_s = time.perf_counter() - start
            timer.phase = None

        enter("check")
        result.disk_bytes = tree_bytes(workload.written_dir(state))
        result.fingerprints = workload.check(state, ops)
    except Exception:  # noqa: BLE001 - any failure is reported, not fatal
        ops.fail(f"round raised in phase {result.phase}:\n{traceback.format_exc()}")
    finally:
        if work_dir is not None:
            shutil.rmtree(work_dir, ignore_errors=True)
    return result


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run pairs of rounds until ``seconds`` have passed (at least one pair).
    Both rounds of a pair get the same inputs and must give the same record
    fingerprints. With tracing, the second round of each pair is traced, so
    the pairs also show that tracing changes no fingerprint."""
    ops = Ops()
    recorder = tracer.Recorder() if trace else None
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    # Start another round only while it is expected to end before the
    # deadline, so that a run never lasts much longer than ``seconds``.
    while not ops.failures and (len(rounds) < 2
                                or time.perf_counter() + round_s < deadline):
        second = len(rounds) % 2 == 1
        traced = trace and second
        round_seed = seed + PAIR_SEED_STEP * (len(rounds) // 2)
        round_start = time.perf_counter()
        current = run_round(workload, round_seed, ops, recorder if traced else None)
        round_s = time.perf_counter() - round_start
        rounds.append(current)
        if not ops.failures and second and current.fingerprints != rounds[-2].fingerprints:
            kind = "traced" if traced else "repeated"
            ops.fail(f"seed {round_seed}: the {kind} round gave other record fingerprints")
    return rounds, ops, recorder


def iters_per_s(rounds: list[Round]) -> float:
    return statistics.median(r.iterations / r.phase_s("run") for r in rounds)


def iter_ms(rounds: list[Round]) -> list[float]:
    """Each run-phase iteration's median normalised time over the rounds of
    its inputs."""
    times: dict[tuple[int, str, int], list[float]] = {}
    for r in rounds:
        for run_id, index, dt in r.iteration_s("run"):
            times.setdefault((r.seed, run_id, index), []).append(1000.0 * dt)
    return [statistics.median(values) for values in times.values()]


def end_to_end_metrics(rounds: list[Round], failed_frac: float) -> dict[str, float]:
    times = iter_ms(rounds)
    return {
        "setup_s": statistics.median(dt for r in rounds for dt in r.setup_s),
        "iters_per_s": iters_per_s(rounds),
        "iter_ms.p50": statistics.median(times),
        "iter_ms.p98": statistics.quantiles(times, n=50)[-1],
        "verify_s": statistics.median(r.phase_s("verify") for r in rounds),
        "disk_bytes_per_iter": statistics.median(r.disk_bytes / r.iterations for r in rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed_frac,
    }


def per_layer_metrics(rounds: list[Round], recorder: tracer.Recorder, jobs: int):
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    metrics = tracer.layer_metrics(recorder.spans, jobs)
    metrics["harness.iter_ms.late_over_early"] = tracer.late_over_early(
        [(index, dt) for r in untraced for _run, index, dt in r.iteration_s("run")])
    metrics["trace.overhead_frac"] = 1.0 - iters_per_s(traced) / iters_per_s(untraced)
    return metrics


def revision() -> str:
    """The git revision, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=False)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def provenance(workload, seed: int, seconds: float, trace: bool, rounds) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "iterations": sum(r.iterations for r in rounds if not r.traced),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "revision": revision(),
    }


def spec_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure ``workload``; return its provenance and the result object."""
    rounds, ops, recorder = measure(workload, seed, seconds, trace)
    info = provenance(workload, seed, seconds, trace, rounds)
    attempted = max(ops.attempted, len(ops.failures), 1)
    try:
        if trace:
            values = per_layer_metrics(rounds, recorder, workload.jobs)
        else:
            values = end_to_end_metrics(rounds, len(ops.failures) / attempted)
    except (ArithmeticError, statistics.StatisticsError, ValueError):
        if not ops.failures:
            raise
        values = {}  # a failed round left too few samples; the failure is reported
    if trace:
        recorder.write(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl", info)
    units = spec_units()
    return info, {
        "correct": not ops.failures,
        "attempted": attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "failures": ops.failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "guiscout" / "__init__.py").is_file():
        print(f"error: no guiscout sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info, outcome = result(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    for failure in outcome.pop("failures"):
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
