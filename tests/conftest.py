"""Shared fixtures: a synthetic campaign shaped like a real evaluation
(9 runs, 752 actions, 72 positives, 7 true positives, 5 unique issues) and a
local stub chat-completion server for remote-agent tests.

``HYPOTHESIS_PROFILE=ci`` selects a Hypothesis profile with a fixed example
sequence and no per-example deadline, so property tests neither vary between
CI runs nor flake on a slow runner.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import settings

from guiscout import prompts, simulator
from guiscout.harness import IterationRecord, RunRecord, RunWriter
from guiscout.triage import FALSE_POSITIVE, TRUE_POSITIVE, Label, LabelFile
from guiscout.widgets import WidgetNode

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def find_widget(tree: WidgetNode, control_id: int) -> WidgetNode | None:
    """The node of ``tree`` with the given id, or None: a reference scan in
    document order."""
    for node in tree.iter_nodes():
        if node.control_id == control_id:
            return node
    return None


@pytest.fixture
def cold_default_layout(monkeypatch):
    """The default wizard compiled afresh for one test, so its node table
    starts empty: what a test counts is then not what earlier tests built."""
    layout = simulator._compile(simulator.default_wizard_config())
    monkeypatch.setattr(simulator, "_DEFAULT_LAYOUT", layout)
    return layout


@pytest.fixture
def cold_prompt_heads():
    """The process's cache of hashed controller-prompt heads, emptied before
    and after one test: what a test counts is then not what earlier tests
    hashed, and what it hashed stays out of later tests."""
    prompts._controller_head.cache_clear()
    yield prompts._controller_head
    prompts._controller_head.cache_clear()


RUN_SIZES = [84] * 8 + [80]  # 752 total
POSITIVES_PER_RUN = 8  # 72 total

# Seven true positives in run-000; two pairs share a cause after reason
# normalization (exact duplicate, and a case/id variation), so five issues.
TRUE_POSITIVE_REASONS = [
    "The error message 'Invalid path to working directory' is unspecific.",
    "the error message 'invalid path to working directory' is unspecific.",
    "The text of the Description (control 4411) is not fully visible.",
    "The text of the Description (control 99) is not fully visible.",
    "The 'Next >' button 134478 overlaps the Cancel button.",
    "The title of the Launch Settings page is missing.",
    "Two identical error dialogs appear after clicking OK.",
]

PAGE_CYCLE = ["tool_description", "inputs_outputs", "launch_settings",
              "cpacs_properties", "review", "finish"]


def make_funnel_records() -> tuple[list[RunRecord], LabelFile]:
    """Synthetic records and labels with the exact funnel totals above."""
    records: list[RunRecord] = []
    labels = LabelFile()
    reason_cursor = 0
    for run_index, size in enumerate(RUN_SIZES):
        run_id = f"run-{run_index:03d}"
        record = RunRecord(run_id=run_id, config={"backend": "sim", "seed": run_index})
        positive_at = {i * 10 for i in range(POSITIVES_PER_RUN)}
        for index in range(size):
            verdict = None
            if index in positive_at:
                if run_index == 0 and reason_cursor < len(TRUE_POSITIVE_REASONS):
                    reason = TRUE_POSITIVE_REASONS[reason_cursor]
                    reason_cursor += 1
                    labels.entries[(run_id, index)] = Label(TRUE_POSITIVE)
                else:
                    reason = f"Spurious flicker near control {1000 + index}."
                    labels.entries[(run_id, index)] = Label(FALSE_POSITIVE)
                verdict = {"state": "problem", "reason": reason}
            else:
                verdict = {"state": "okay"}
            record.iterations.append(IterationRecord(
                index=index,
                page_key=PAGE_CYCLE[index % len(PAGE_CYCLE)],
                tree_digest=f"tree-{run_index}-{index}",
                controller_prompt_digest=f"cp-{run_index}-{index}",
                evaluator_prompt_digest=f"ep-{run_index}-{index}",
                controller_raw="{}",
                action=f"click({100 + index % 25})",
                explanation="synthetic",
                status="executed",
                before_digest=f"shot-{run_index}-{index}",
                after_digest=f"shot-{run_index}-{index + 1}",
                evaluator_raw=json.dumps(verdict),
                verdict=verdict,
            ))
        records.append(record)
    return records, labels


def write_funnel_dirs(base: Path) -> tuple[Path, Path]:
    """Persist the synthetic campaign as run directories plus a label file."""
    records, labels = make_funnel_records()
    runs_dir = base / "runs"
    for record in records:
        writer = RunWriter(runs_dir, record.run_id, record.config, 0.0)
        for it in record.iterations:
            writer.append_iteration(it)
        writer.close()
    labels_path = base / "labels.txt"
    labels.save(labels_path)
    return runs_dir, labels_path


@pytest.fixture
def funnel_records():
    return make_funnel_records()


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length).decode("utf-8"))
        self.server.requests.append({
            "path": self.path,
            "headers": {k: v for k, v in self.headers.items()},
            "body": body,
        })
        status, content = self.server.responder(body)
        if isinstance(content, bytes):  # the body itself, sent as it is
            payload = content
        elif status == 200:
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode("utf-8")
        else:
            payload = b"{}"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep test output clean
        pass


class StubChatServer:
    """Records every request; a pluggable responder decides the reply: a
    status and a completion's content, or a status and the raw body bytes."""

    def __init__(self):
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._server.requests = []
        self._server.responder = lambda body: (200, '{"state": "okay"}')
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    @property
    def requests(self) -> list[dict]:
        return self._server.requests

    def set_responder(self, responder) -> None:
        self._server.responder = responder

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_server():
    server = StubChatServer()
    yield server
    server.close()
