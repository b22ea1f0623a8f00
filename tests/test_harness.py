import base64
import hashlib
import json
import os
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiscout import harness, prompts, simulator
from guiscout.actions import ActionCommand, format_action
from guiscout.agents import Agent, RemoteAgent, RemoteAgentConfig, ScriptedAgent
from guiscout.harness import (
    CampaignError,
    ConfigError,
    RecordLoadError,
    ReplayDivergence,
    ReplayError,
    RunConfig,
    RunSession,
    load_blobs,
    load_record,
    replay,
    run,
    run_many,
)
from guiscout.prompts import DEFAULT_DOC_BUDGET, PromptDocument
from guiscout.simulator import FaultKind, FaultSpec, SimWizard, default_fault_set, \
    full_traversal_script, new_wizard
from guiscout.widgets import ActionVerb
from test_record_fingerprints import OTHER_FAULTS


def scripted_config(**overrides) -> RunConfig:
    settings = {"controller": "scripted", "evaluator": "oracle"}
    settings.update(overrides)
    return RunConfig(**settings)


def mini_script() -> list[str]:
    """Fill the name, then click Next: two iterations, page advances."""
    sim = new_wizard()
    name = sim.layout.control_id_of("Name", page="tool_description")
    next_id = sim.layout.control_id_of("", nav="next")
    return [
        json.dumps({"action": format_action(ActionCommand(ActionVerb.WRITE, name, "T")),
                    "explanation": "name the tool"}),
        json.dumps({"action": format_action(ActionCommand(ActionVerb.CLICK, next_id)),
                    "explanation": "go to the next page"}),
    ]


# --- run_iteration behavior ------------------------------------------------

def test_scripted_next_click_executes_and_advances():
    record = run(scripted_config(controller_script=mini_script()))
    assert [it.status for it in record.iterations] == ["executed", "executed"]
    assert record.iterations[-1].page_key == "inputs_outputs"


def test_non_json_controller_output_is_rejected_and_state_unchanged():
    record = run(scripted_config(controller_script=["I refuse to answer."]))
    (iteration,) = record.iterations
    assert iteration.status == "rejected"
    assert iteration.parse_error is not None
    assert iteration.before_digest == iteration.after_digest


def test_invalid_action_is_rejected_with_reason():
    sim = new_wizard()
    static_id = sim.layout.control_id_of("Description", page="tool_description")
    script = [json.dumps({"action": f"click({static_id})", "explanation": "poke a label"})]
    record = run(scripted_config(controller_script=script))
    (iteration,) = record.iterations
    assert iteration.status == "rejected"
    assert "not among the possible actions" in iteration.reject_reason
    assert iteration.before_digest == iteration.after_digest


def test_oracle_problem_recorded_with_canonical_reason():
    faults = [FaultSpec(FaultKind.TRUNCATED_TEXT, "tool_description", "Description")]
    record = run(scripted_config(controller_script=mini_script(), faults=faults))
    first = record.iterations[0]
    assert first.verdict == {"state": "problem",
                             "reason": "The text of the Description is not fully visible."}


def test_log_grows_by_exactly_one_entry_per_iteration(tmp_path):
    config = scripted_config(out_dir=tmp_path, run_id="run-log")
    record = run(config)
    blobs = load_blobs(tmp_path / "run-log")
    for k, iteration in enumerate(record.iterations):
        text = blobs[iteration.controller_prompt_digest]
        log_section = text.split("The previous actions:\n", 1)[1]
        log_json = log_section.rsplit("\n\nWhat action do you want", 1)[0]
        assert len(json.loads(log_json)) == k


def test_persisted_prompts_are_stored_under_their_digest_and_hashed_once(tmp_path, monkeypatch,
                                                                        cold_default_layout):
    hashed = []
    sha256 = simulator._hash_text
    monkeypatch.setattr(simulator, "_hash_text", lambda text: hashed.append(text) or sha256(text))
    # The rejected line in the middle leaves the wizard, and so its root node, as it was.
    write_name, click_next = mini_script()
    record = run(scripted_config(controller_script=[write_name, "no action", click_next],
                                 out_dir=tmp_path, run_id="run-hash"))
    assert [it.status for it in record.iterations] == ["executed", "rejected", "executed"]
    # Only a screenshot's canvas and tree are hashed here, once per root node:
    # at the start and after each executed step. Each prompt brings its cached digest.
    trees = [text for text in hashed if text.startswith("{")]
    assert len(trees) == len(hashed) - len(trees) == 3
    assert [it.tree_digest for it in record.iterations] == \
        [sha256(trees[0]), sha256(trees[1]), sha256(trees[1])]
    blobs = load_blobs(tmp_path / "run-hash")
    for iteration in record.iterations:
        for digest in (iteration.controller_prompt_digest, iteration.evaluator_prompt_digest):
            text = blobs[digest]
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def assert_every_prompt_resolves(run_dir, record) -> None:
    """load_blobs rejects a text that does not hash to its digest, so every
    prompt digest that resolves is the sha256 of the prompt's text."""
    blobs = load_blobs(run_dir)
    for it in record.iterations:
        assert it.controller_prompt_digest in blobs
        assert it.evaluator_prompt_digest in blobs


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), length=st.integers(1, 200),
       task=st.one_of(st.just(harness.DEFAULT_TASK), st.text(max_size=40),
                      st.just("Prüfe den Assistenten — Überblick ✓ 中文")),
       doc_budget=st.sampled_from([0, DEFAULT_DOC_BUDGET]))
def test_resumed_prompt_digests_are_the_sha256_of_their_texts(tmp_path_factory, seed, length,
                                                               task, doc_budget):
    out = tmp_path_factory.mktemp("runs")
    record = run(RunConfig(controller="random", evaluator="oracle", seed=seed,
                           max_iterations=length, task=task, doc_budget=doc_budget,
                           faults=default_fault_set(), out_dir=out))
    assert len(record.iterations) == length
    assert_every_prompt_resolves(out / "run-000", record)


def test_a_prompt_resumes_from_a_state_stored_with_an_empty_log(tmp_path):
    sim = new_wizard()
    back = sim.layout.control_id_of("", nav="back")
    script = [json.dumps({"action": format_action(ActionCommand(ActionVerb.CLICK, back)),
                          "explanation": "go back from the first page"})] + mini_script()
    record = run(scripted_config(controller_script=script, out_dir=tmp_path, run_id="run-back"))
    first, second = record.iterations[:2]
    assert first.status == "rejected"  # Back is disabled on the first page
    assert second.tree_digest == first.tree_digest
    assert second.controller_prompt_digest != first.controller_prompt_digest
    assert_every_prompt_resolves(tmp_path / "run-back", record)


class _CountingSha256:
    """A sha256 state that adds every byte fed to it, and to its copies, to ``fed``."""

    def __init__(self, state, fed: list[int]):
        self.state, self.fed = state, fed

    def update(self, data) -> None:
        self.fed[0] += len(data)
        self.state.update(data)

    def copy(self) -> "_CountingSha256":
        return _CountingSha256(self.state.copy(), self.fed)

    def hexdigest(self) -> str:
        return self.state.hexdigest()


def test_a_long_random_run_hashes_at_most_half_its_controller_prompt_bytes(monkeypatch,
                                                                          cold_prompt_heads):
    fed, total = [0], [0]
    monkeypatch.setattr(prompts, "_CONTROLLER_HEAD",
                        _CountingSha256(prompts._CONTROLLER_HEAD, fed))
    build = harness.build_controller_prompt

    def counted(*args, **kwargs):
        prompt = build(*args, **kwargs)
        data = prompt.text().encode("utf-8")
        assert prompt.digest == hashlib.sha256(data).hexdigest()
        total[0] += len(data)
        return prompt

    monkeypatch.setattr(harness, "build_controller_prompt", counted)
    record = run(RunConfig(controller="random", evaluator="oracle", seed=0, max_iterations=800,
                           faults=default_fault_set()))
    assert len(record.iterations) == 800
    assert fed[0] <= total[0] / 2, (fed[0], total[0])


def _subset_configs() -> list[RunConfig]:
    """The scripted traversal over each of the 32 subsets of the default faults."""
    return [RunConfig(controller="scripted", evaluator="oracle", run_id=f"subset-{mask:02d}",
                      faults=[replace(fault, active=bool(mask >> bit & 1))
                              for bit, fault in enumerate(default_fault_set())])
            for mask in range(32)]


def test_the_fault_subset_traversals_hash_each_gui_head_once(cold_prompt_heads):
    """The 32 traversals show 45 GUIs. From an empty cache each one's head is
    hashed once, at its first prompt. A run's first prompt for a GUI takes
    the head from the cache, and its later ones go on from a resume point."""
    records = [run(config) for config in _subset_configs()]
    guis = {it.tree_digest for record in records for it in record.iterations}
    firsts = sum(len({it.tree_digest for it in record.iterations}) for record in records)
    builds = sum(len(record.iterations) for record in records)
    info = cold_prompt_heads.cache_info()
    assert (len(guis), firsts, builds) == (45, 816, 992)
    assert (info.misses, info.hits) == (len(guis), firsts - len(guis))


def test_only_a_persisted_run_joins_prompt_text(tmp_path, monkeypatch):
    """An in-memory run reads only digests; a persisted one joins the text of
    both prompts of every iteration, to store them."""
    calls = []
    text = PromptDocument.text
    monkeypatch.setattr(PromptDocument, "text", lambda prompt: calls.append(prompt) or text(prompt))
    config = RunConfig(controller="random", evaluator="oracle", seed=3, max_iterations=60,
                       faults=default_fault_set())
    assert len(run(config).iterations) == 60
    assert calls == []
    record = run(replace(config, out_dir=tmp_path))
    assert len(calls) == 2 * len(record.iterations) == 120


def test_evaluator_gets_only_the_current_explanation(tmp_path):
    config = scripted_config(controller_script=mini_script(), out_dir=tmp_path,
                             run_id="run-ev")
    record = run(config)
    blobs = load_blobs(tmp_path / "run-ev")
    second = record.iterations[1]
    text = blobs[second.evaluator_prompt_digest]
    assert "go to the next page" in text
    assert "name the tool" not in text


def test_evaluator_prompt_uses_surrounding_renders():
    session = RunSession(scripted_config(controller_script=mini_script()))
    first = session.run_iteration(0)
    second = session.run_iteration(1)
    assert first.after_digest == second.before_digest


def test_each_screenshot_gets_one_image_reference(tmp_path, monkeypatch):
    requests = []
    respond = ScriptedAgent.respond
    monkeypatch.setattr(ScriptedAgent, "respond",
                        lambda agent, request: requests.append(request) or respond(agent, request))
    script = full_traversal_script()
    record = run(scripted_config(evaluator="scripted", faults=default_fault_set(),
                                 evaluator_script=['{"state": "okay"}'] * len(script),
                                 out_dir=tmp_path, run_id="run-refs"))
    controller = [request.prompt for request in requests if request.role == "controller"]
    evaluator = [request.prompt for request in requests if request.role == "evaluator"]
    assert len(controller) == len(evaluator) == len(record.iterations) == len(script)
    blobs = load_blobs(tmp_path / "run-refs")
    body = RemoteAgent(RemoteAgentConfig("http://localhost", "m"))._build_body
    for index, iteration in enumerate(record.iterations):
        before, after = evaluator[index].attachments
        assert controller[index].attachments[0] is before
        if index:  # the after image of the step before, the same object
            assert before is evaluator[index - 1].attachments[1]
        assert before.digest == iteration.before_digest and after.digest == iteration.after_digest
        assert after.rendered == blobs[iteration.after_digest]
    sent = body(requests[-1])["messages"][0]["content"][-1]["image_url"]["url"]
    assert base64.b64decode(sent.partition("base64,")[2]) == after.rendered.encode("utf-8")


def test_every_evaluator_request_carries_the_screenshots_its_prompt_attaches():
    class RecordingEvaluator(Agent):
        def __init__(self):
            self.requests = []

        def respond(self, request):
            self.requests.append(request)
            return '{"state": "okay"}'

    session = RunSession(scripted_config(faults=default_fault_set()))
    session.evaluator = evaluator = RecordingEvaluator()
    record = session.run()
    assert len(evaluator.requests) == len(record.iterations) == len(full_traversal_script())
    for request, iteration in zip(evaluator.requests, record.iterations):
        assert [shot.digest for shot in request.prompt.attachments] == \
            [iteration.before_digest, iteration.after_digest]


# --- run -------------------------------------------------------------------

def test_full_traversal_covers_all_pages_and_ends_on_finish():
    record = run(scripted_config())
    assert len(record.iterations) == len(full_traversal_script())
    assert record.iterations[-1].page_key == "finish"
    assert {it.page_key for it in record.iterations} == {
        "tool_description", "inputs_outputs", "launch_settings",
        "cpacs_properties", "review", "finish"}


def test_a_scripted_run_builds_one_wizard(monkeypatch):
    """The built-in script reads its control ids from the default layout."""
    built = []
    init = SimWizard.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimWizard, "__init__", counting)
    record = run(scripted_config())
    assert len(built) == 1
    assert len(record.iterations) == len(full_traversal_script())


def test_zero_max_iterations_gives_an_empty_record():
    record = run(scripted_config(max_iterations=0))
    assert record.iterations == []


def test_run_stops_at_script_exhaustion():
    record = run(scripted_config(controller_script=mini_script(), max_iterations=50))
    assert len(record.iterations) == 2


def test_same_config_twice_is_identical_modulo_timestamps():
    a = run(scripted_config(faults=default_fault_set()))
    b = run(scripted_config(faults=default_fault_set()))
    assert a.fingerprint() == b.fingerprint()


def test_random_controller_is_reproducible():
    a = run(RunConfig(controller="random", evaluator="oracle", seed=11, max_iterations=20))
    b = run(RunConfig(controller="random", evaluator="oracle", seed=11, max_iterations=20))
    assert a.fingerprint() == b.fingerprint()
    assert len(a.iterations) == 20


def test_evaluator_script_exhaustion_is_recorded_and_run_continues():
    config = scripted_config(controller_script=mini_script(), evaluator="scripted",
                             evaluator_script=['{"state": "okay"}'])
    record = run(config)
    assert len(record.iterations) == 2
    assert record.iterations[0].verdict == {"state": "okay"}
    assert record.iterations[1].verdict is None
    assert "script exhausted" in record.iterations[1].verdict_error


# --- persistence -----------------------------------------------------------

def test_record_persists_incrementally_and_loads_back(tmp_path):
    config = scripted_config(out_dir=tmp_path, run_id="run-000",
                             faults=default_fault_set())
    record = run(config)
    run_dir = tmp_path / "run-000"
    lines = (run_dir / "iterations.jsonl").read_text("utf-8").splitlines()
    assert len(lines) == len(record.iterations)
    loaded = load_record(run_dir)
    assert loaded.fingerprint() == record.fingerprint()
    blobs = load_blobs(run_dir)
    for iteration in record.iterations:
        assert iteration.before_digest in blobs
        assert iteration.after_digest in blobs
        assert iteration.controller_prompt_digest in blobs


def test_header_echoes_config_without_scripts(tmp_path):
    config = scripted_config(out_dir=tmp_path, run_id="run-h", seed=5,
                             faults=default_fault_set())
    run(config)
    header = json.loads((tmp_path / "run-h" / "header.json").read_text("utf-8"))
    assert header["config"]["seed"] == 5
    assert len(header["config"]["faults"]) == 5
    assert "controller_script" not in header["config"]


def test_header_is_replaced_into_place_or_not_written(tmp_path, monkeypatch):
    def replace_fails(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", replace_fails)
    with pytest.raises(OSError, match="disk full"):
        run(scripted_config(out_dir=tmp_path, run_id="run-a"))
    assert not (tmp_path / "run-a" / "header.json").exists()
    with pytest.raises(RecordLoadError, match="unreadable header"):
        load_record(tmp_path / "run-a")


def test_truncated_iterations_file_fails_to_load(tmp_path):
    config = scripted_config(out_dir=tmp_path, run_id="run-c")
    run(config)
    path = tmp_path / "run-c" / "iterations.jsonl"
    text = path.read_text("utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(RecordLoadError, match="corrupt iteration"):
        load_record(tmp_path / "run-c")


def test_a_blank_line_in_the_iterations_file_is_skipped(tmp_path):
    record = run(scripted_config(out_dir=tmp_path, run_id="run-b", max_iterations=3))
    path = tmp_path / "run-b" / "iterations.jsonl"
    first, *rest = path.read_text("utf-8").splitlines(keepends=True)
    path.write_text(first + "\n" + "".join(rest) + "  \n", encoding="utf-8")
    assert load_record(tmp_path / "run-b").fingerprint() == record.fingerprint()


@pytest.mark.parametrize("damage", ["missing", "a-directory", "not-utf-8"])
def test_an_unreadable_iterations_file_fails_to_load(tmp_path, damage):
    run(scripted_config(out_dir=tmp_path, run_id="run-u", max_iterations=2))
    path = tmp_path / "run-u" / "iterations.jsonl"
    if damage == "not-utf-8":
        path.write_bytes(path.read_bytes() + b"\xff\n")
    else:
        path.unlink()
        if damage == "a-directory":
            path.mkdir()
    with pytest.raises(RecordLoadError, match="unreadable iterations"):
        load_record(tmp_path / "run-u")


@pytest.mark.parametrize("header", [[], {"run_id": "run-h", "config": []}])
def test_non_object_header_fails_to_load(tmp_path, header):
    run(scripted_config(out_dir=tmp_path, run_id="run-h"))
    (tmp_path / "run-h" / "header.json").write_text(json.dumps(header), encoding="utf-8")
    with pytest.raises(RecordLoadError, match="not an object"):
        load_record(tmp_path / "run-h")


@pytest.mark.parametrize("version", [None, 0, 3, "2", 2.0, True])
def test_unknown_format_version_fails_to_load(tmp_path, version):
    run(scripted_config(out_dir=tmp_path, run_id="run-v", max_iterations=2))
    header_path = tmp_path / "run-v" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    assert header["format_version"] == 2
    header["format_version"] = version
    header_path.write_text(json.dumps(header), encoding="utf-8")
    with pytest.raises(RecordLoadError, match="format_version"):
        load_record(tmp_path / "run-v")


def test_format_version_one_header_still_loads(tmp_path):
    record = run(scripted_config(out_dir=tmp_path, run_id="run-v1", max_iterations=3))
    header_path = tmp_path / "run-v1" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    header["format_version"] = 1
    header_path.write_text(json.dumps(header), encoding="utf-8")
    assert load_record(tmp_path / "run-v1").fingerprint() == record.fingerprint()


def test_a_run_never_overwrites_a_run_directory(tmp_path):
    config = scripted_config(out_dir=tmp_path, run_id="run-o", max_iterations=2)
    run(config)
    files = {path.name: path.read_bytes() for path in (tmp_path / "run-o").iterdir()}
    with pytest.raises(FileExistsError):
        run(replace(config, max_iterations=3))
    assert {path.name: path.read_bytes() for path in (tmp_path / "run-o").iterdir()} == files


PERSISTED_DIGESTS = ("before_digest", "after_digest", "controller_prompt_digest",
                     "evaluator_prompt_digest")


def test_every_digest_a_line_names_is_in_the_pack_when_the_line_is_written(tmp_path,
                                                                             monkeypatch):
    steps = 12
    session = RunSession(RunConfig(controller="random", evaluator="oracle", seed=3,
                                   max_iterations=steps, faults=default_fault_set(),
                                   out_dir=tmp_path, run_id="run-p"))
    run_dir = tmp_path / "run-p"
    writer = session.writer

    def assert_resolved(lines):
        blobs = load_blobs(run_dir)
        for line in lines:
            obj = json.loads(line)
            for key in PERSISTED_DIGESTS:
                text = blobs[obj[key]]
                assert hashlib.sha256(text.encode("utf-8")).hexdigest() == obj[key]

    written = []

    class LineSpy:
        """Reads the pack from disk whenever a line is handed to iterations.jsonl."""

        def __init__(self, handle):
            self.handle = handle

        def write(self, line):
            assert_resolved([line])
            written.append(line)
            return self.handle.write(line)

        def __getattr__(self, name):
            return getattr(self.handle, name)

    monkeypatch.setattr(writer, "_iterations", LineSpy(writer._iterations))
    try:
        for index in range(steps):
            writer.append_iteration(session.run_iteration(index))
            lines = (run_dir / "iterations.jsonl").read_text("utf-8").splitlines()
            assert len(lines) == index + 1
            assert_resolved(lines)
    finally:
        writer.close()
    assert len(written) == steps


def test_a_pack_cut_or_changed_inside_its_last_entry_fails_to_load(tmp_path):
    run(scripted_config(controller_script=mini_script(), out_dir=tmp_path, run_id="run-t"))
    path = tmp_path / "run-t" / "blobs.txt"
    data = path.read_bytes()
    digest, text = list(load_blobs(tmp_path / "run-t").items())[-1]
    body = text.encode("utf-8")
    head = f"{digest} {len(body)}\n".encode("ascii")
    start = len(data) - len(head) - len(body) - 1
    assert data[start:] == head + body + b"\n"
    cuts = [*range(start + 1, start + len(head) + 2), start + len(head) + len(body) // 2,
            len(data) - 2, len(data) - 1]
    for cut in cuts:
        path.write_bytes(data[:cut])
        with pytest.raises(RecordLoadError, match="torn or corrupt"):
            load_blobs(tmp_path / "run-t")
    changed = bytearray(data)
    changed[start + len(head)] ^= 1
    path.write_bytes(bytes(changed))
    with pytest.raises(RecordLoadError, match="torn or corrupt"):
        load_blobs(tmp_path / "run-t")


def test_a_pack_entry_that_hashes_but_is_not_utf8_fails_to_load(tmp_path):
    run(scripted_config(controller_script=mini_script(), out_dir=tmp_path, run_id="run-n"))
    body = b"\xff\xfe"
    with (tmp_path / "run-n" / "blobs.txt").open("ab") as pack:
        pack.write(b"%s %d\n%s\n" % (hashlib.sha256(body).hexdigest().encode("ascii"),
                                      len(body), body))
    with pytest.raises(RecordLoadError, match="is not UTF-8"):
        load_blobs(tmp_path / "run-n")


# --- run_many --------------------------------------------------------------

def test_run_many_produces_n_records(tmp_path):
    records = run_many(scripted_config(out_dir=tmp_path), 9)
    assert len(records) == 9
    assert [record.run_id for record in records] == [f"run-{i:03d}" for i in range(9)]
    assert all((tmp_path / record.run_id / "header.json").is_file() for record in records)


def test_run_many_of_one_equals_run():
    config = scripted_config()
    (one,) = run_many(scripted_config(), 1)
    assert one.fingerprint() == run(config).fingerprint()


def test_run_many_derives_distinct_random_trajectories():
    config = RunConfig(controller="random", evaluator="oracle", seed=100,
                       max_iterations=12)
    records = run_many(config, 3)
    logs = [tuple(it.action for it in record.iterations) for record in records]
    assert logs[0] != logs[1] and logs[1] != logs[2] and logs[0] != logs[2]


def test_run_many_runs_in_parallel(tmp_path):
    sequential = run_many(scripted_config(faults=default_fault_set()), 3)
    parallel = run_many(scripted_config(faults=default_fault_set(), out_dir=tmp_path),
                        3, jobs=3)
    for a, b in zip(sequential, parallel):
        assert a.fingerprint() == b.fingerprint()


def test_simulated_campaign_runs_one_run_at_a_time(monkeypatch):
    threads = []
    real_run = harness.run

    def spy(config):
        threads.append(threading.get_ident())
        return real_run(config)

    monkeypatch.setattr(harness, "run", spy)
    config = RunConfig(controller="random", evaluator="oracle", seed=7, max_iterations=15,
                       faults=default_fault_set())
    three_jobs = run_many(config, 4, jobs=3)
    assert len(threads) == 4 and len(set(threads)) == 1
    one_job = run_many(config, 4, jobs=1)
    assert [r.fingerprint() for r in three_jobs] == [r.fingerprint() for r in one_job]


@pytest.mark.parametrize("role", ["controller", "evaluator"])
def test_remote_campaign_keeps_jobs_requests_in_flight(stub_server, monkeypatch, role):
    from guiscout.agents import RemoteAgentConfig

    monkeypatch.setenv("GUISCOUT_TEST_KEY", "k")
    # Each request waits until three are in flight; runs one at a time would
    # break the barrier at its timeout and record an agent error.
    barrier = threading.Barrier(3, timeout=10)
    content = mini_script()[0] if role == "controller" else '{"state": "okay"}'

    def responder(body):
        barrier.wait()
        return 200, content

    stub_server.set_responder(responder)
    remote = RemoteAgentConfig(endpoint=stub_server.url, model="m",
                               api_key_env="GUISCOUT_TEST_KEY", timeout=20.0,
                               max_retries=0, retry_backoff=0.0)
    config = scripted_config(max_iterations=1, controller_script=mini_script(),
                             **{role: "remote", f"remote_{role}": remote})
    records = run_many(config, 3, jobs=3)
    assert len(stub_server.requests) == 3
    assert not barrier.broken
    for record in records:
        (it,) = record.iterations
        assert it.controller_error is None and it.verdict_error is None
        assert it.status == "executed" and it.verdict == {"state": "okay"}


def test_agent_failures_are_recorded_and_the_run_continues():
    from guiscout.agents import RemoteAgentConfig

    config = scripted_config(
        controller="remote", max_iterations=2,
        remote_controller=RemoteAgentConfig(
            endpoint="http://127.0.0.1:9/none", model="m",
            api_key_env="GUISCOUT_MISSING_KEY_FOR_TESTS",
            max_retries=0, retry_backoff=0.0))
    record = run(config)
    assert len(record.iterations) == 2
    assert all(it.controller_error for it in record.iterations)
    assert all(it.status is None for it in record.iterations)


@pytest.mark.parametrize("content", [None, [{"type": "text", "text": '{"state": "okay"}'}]])
@pytest.mark.parametrize("role", ["controller", "evaluator"])
def test_a_completion_whose_content_is_not_text_is_recorded_as_an_agent_error(
        stub_server, monkeypatch, role, content):
    monkeypatch.setenv("GUISCOUT_TEST_KEY", "k")
    stub_server.set_responder(lambda body: (200, content))
    remote = RemoteAgentConfig(endpoint=stub_server.url, model="m",
                               api_key_env="GUISCOUT_TEST_KEY", max_retries=0,
                               retry_backoff=0.0)
    record = run(scripted_config(max_iterations=2, controller_script=mini_script(),
                                 **{role: "remote", f"remote_{role}": remote}))
    assert len(record.iterations) == 2
    error = "controller_error" if role == "controller" else "verdict_error"
    for it in record.iterations:
        assert getattr(it, error).startswith("malformed completion response")


def test_header_records_the_remote_agent_retry_backoff(tmp_path):
    from guiscout.agents import RemoteAgentConfig

    config = scripted_config(
        controller="remote", max_iterations=1, out_dir=tmp_path, run_id="run-r",
        remote_controller=RemoteAgentConfig(
            endpoint="http://127.0.0.1:9/none", model="m",
            api_key_env="GUISCOUT_MISSING_KEY_FOR_TESTS",
            max_retries=0, retry_backoff=0.25))
    run(config)
    header = json.loads((tmp_path / "run-r" / "header.json").read_text("utf-8"))
    assert header["config"]["remote_controller"]["retry_backoff"] == 0.25


def test_run_many_isolates_per_run_failures():
    # a fault targeting a missing field fails each session at construction
    config = scripted_config(
        faults=[FaultSpec(FaultKind.TRUNCATED_TEXT, "tool_description", "Nope")])
    with pytest.raises(CampaignError) as info:
        run_many(config, 2)
    assert len(info.value.failures) == 2
    assert info.value.records == []


@pytest.mark.parametrize("runs, jobs", [(0, 1), (1, 0)])
def test_run_many_rejects_zero_runs(runs, jobs):
    with pytest.raises(ConfigError):
        run_many(scripted_config(), runs, jobs=jobs)


@pytest.mark.parametrize("setting, value", [
    ("task", 5),
    ("run_id", None),
    ("max_iterations", True),
    ("seed", "1"),
    ("doc_budget", -1),
    ("faults", [{"kind": "stale_error"}]),
    ("wizard_config", []),
    ("controller_script", ["{}", 5]),
    ("attach_screenshot", 1),
])
def test_run_config_rejects_a_value_of_the_wrong_type(setting, value):
    with pytest.raises(ConfigError, match=setting):
        scripted_config(**{setting: value})


@pytest.mark.parametrize("run_id", ["", ".", "..", "../../escaped", "a/b", f"a{os.sep}b"])
def test_a_run_id_that_is_not_one_directory_in_out_dir_is_a_config_error(tmp_path, run_id):
    out = tmp_path / "a" / "runs"
    with pytest.raises(ConfigError, match="run_id"):
        run(scripted_config(out_dir=out, run_id=run_id, max_iterations=1))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("run_id", ["my run", "run\t0", " run", "run\u2003000"])
def test_a_run_id_with_whitespace_is_a_config_error(tmp_path, run_id):
    with pytest.raises(ConfigError, match="run_id must not contain whitespace"):
        run(scripted_config(out_dir=tmp_path, run_id=run_id, max_iterations=1))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("run_id", ["#r", "#"])
def test_a_run_id_starting_with_a_hash_is_a_config_error(tmp_path, run_id):
    with pytest.raises(ConfigError, match="starts with '#'"):
        run(scripted_config(out_dir=tmp_path, run_id=run_id, max_iterations=1))
    assert not any(tmp_path.iterdir())


def test_a_run_id_with_a_hash_after_its_first_character_is_accepted():
    assert scripted_config(run_id="run#1").run_id == "run#1"


# --- replay ----------------------------------------------------------------

def test_replay_of_a_header_whose_run_id_leaves_out_dir_is_a_replay_error(tmp_path):
    run(scripted_config(out_dir=tmp_path / "runs", run_id="run-e", max_iterations=2))
    header_path = tmp_path / "runs" / "run-e" / "header.json"
    header = json.loads(header_path.read_text("utf-8"))
    header["run_id"] = "../escaped"
    header_path.write_text(json.dumps(header), encoding="utf-8")
    replays = tmp_path / "replays"
    replays.mkdir()
    with pytest.raises(ReplayError, match="run_id"):
        replay(load_record(tmp_path / "runs" / "run-e"), out_dir=replays)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["replays", "runs"]
    assert not any(replays.iterdir())


def test_self_replay_matches(tmp_path):
    config = scripted_config(out_dir=tmp_path, run_id="run-000",
                             faults=default_fault_set())
    run(config)
    record = load_record(tmp_path / "run-000")
    replayed = replay(record)
    assert [it.after_digest for it in replayed.iterations] == \
        [it.after_digest for it in record.iterations]


def test_replay_of_a_scripted_run_on_a_custom_wizard_matches(tmp_path):
    from guiscout.simulator import default_wizard_config

    config = scripted_config(out_dir=tmp_path, run_id="run-w", max_iterations=12,
                             wizard_config=default_wizard_config(),
                             controller_script=full_traversal_script())
    run(config)
    record = load_record(tmp_path / "run-w")
    assert [it.fingerprint() for it in replay(record).iterations] == \
        [it.fingerprint() for it in record.iterations]


def test_replay_of_empty_record_is_trivially_equal():
    record = run(scripted_config(max_iterations=0))
    assert replay(record).iterations == []


def test_replay_with_different_faults_diverges_at_first_observable_iteration():
    fault = [FaultSpec(FaultKind.MISALIGNED_RECT, "inputs_outputs", "Add Input...")]
    record = run(scripted_config(faults=fault))
    without_faults = replace(record, config={**record.config, "faults": []})
    with pytest.raises(ReplayDivergence) as info:
        replay(without_faults)
    # the shifted button first renders when page two appears: the Next click
    first_on_page_two = next(it.index for it in record.iterations
                             if it.page_key == "inputs_outputs")
    assert info.value.iteration == first_on_page_two


def test_failure_statuses_also_replay():
    sim = new_wizard()
    name_id = sim.layout.control_id_of("Name", page="tool_description")
    static_id = sim.layout.control_id_of("Description", page="tool_description")
    next_id = sim.layout.control_id_of("", nav="next")
    add_id = sim.layout.control_id_of("Add Input...", page="inputs_outputs")
    ok_id = sim.layout.modal_button_id("add_input", "OK")
    script = [
        json.dumps({"action": f"write({name_id}, 'T')", "explanation": "name it"}),
        json.dumps({"action": f"click({next_id})", "explanation": "advance"}),
        json.dumps({"action": f"click({add_id})", "explanation": "open the input dialog"}),
        json.dumps({"action": f"click({ok_id})", "explanation": "confirm an empty name"}),
        json.dumps({"action": f"click({static_id})", "explanation": "poke a label"}),
    ]
    record = run(scripted_config(controller_script=script))
    statuses = [it.status for it in record.iterations]
    assert statuses == ["executed", "executed", "executed", "failed", "rejected"]
    replayed = replay(record)
    assert [it.status for it in replayed.iterations] == statuses


# --- oracle contract -------------------------------------------------------

FAULT_UNIVERSE = default_fault_set() + OTHER_FAULTS


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       active=st.lists(st.booleans(), min_size=len(FAULT_UNIVERSE),
                       max_size=len(FAULT_UNIVERSE)),
       length=st.integers(1, 60))
def test_oracle_flags_each_active_fault_at_most_once_on_its_page(seed, active, length):
    faults = [replace(fault, active=on) for fault, on in zip(FAULT_UNIVERSE, active)]
    sim = new_wizard(faults)
    fault_by_reason = {sim.fault_reason(fault): fault for fault in faults}
    record = run(RunConfig(controller="random", evaluator="oracle", seed=seed,
                           max_iterations=length, faults=faults))
    flagged = []
    before_page = "tool_description"
    for it in record.iterations:
        if it.verdict["state"] == "problem":
            fault = fault_by_reason[it.verdict["reason"]]
            assert fault.active
            assert fault.page in (before_page, it.page_key)
            flagged.append(it.verdict["reason"])
        before_page = it.page_key
    assert len(flagged) == len(set(flagged))
    replayed = replay(record)
    assert [it.fingerprint() for it in replayed.iterations] == \
        [it.fingerprint() for it in record.iterations]
