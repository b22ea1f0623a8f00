from pathlib import Path

import pytest

from guiscout.harness import IterationRecord, RunRecord, RunConfig, run
from guiscout.simulator import default_fault_set
from guiscout.triage import (
    FALSE_POSITIVE,
    TRUE_POSITIVE,
    UNLABELED,
    Label,
    LabelFile,
    PositiveFinding,
    TriageError,
    UnlabeledFindingsError,
    build_report,
    collect_positives,
    normalize_reason,
    prefill_labels,
    report_to_json,
)

FIXTURES = Path(__file__).parent / "fixtures"


def finding(run_id="run-000", iteration=0, reason="broken"):
    return PositiveFinding(run_id=run_id, iteration=iteration, reason=reason)


def okay_record(run_id="run-000", size=3) -> RunRecord:
    record = RunRecord(run_id=run_id, config={})
    for index in range(size):
        record.iterations.append(IterationRecord(
            index=index, page_key="tool_description", tree_digest="t",
            action=f"click({index})", status="executed",
            verdict={"state": "okay"}))
    return record


def problem_record(reasons, run_id="run-000") -> RunRecord:
    """One problem verdict per reason, at iterations 0, 1, ..."""
    record = RunRecord(run_id=run_id, config={})
    for index, reason in enumerate(reasons):
        record.iterations.append(IterationRecord(
            index=index, page_key="tool_description", tree_digest="t",
            action=f"click({index})", status="executed",
            verdict={"state": "problem", "reason": reason}))
    return record


def unique_issues(record: RunRecord, cause_key=None) -> int:
    """Unique issues when every finding of ``record`` is a true positive."""
    labels = LabelFile({finding.key: Label(TRUE_POSITIVE, cause_key)
                        for finding in collect_positives([record])})
    return build_report([record], labels).unique_issues


# --- collect_positives ------------------------------------------------------

def test_no_problem_verdicts_means_no_findings():
    assert collect_positives([okay_record()]) == []


def test_funnel_fixture_yields_72_findings(funnel_records):
    records, _ = funnel_records
    findings = collect_positives(records)
    assert len(findings) == 72
    assert findings == sorted(findings, key=lambda f: (f.run_id, f.iteration))


def test_two_records_with_one_run_id_are_an_error():
    with pytest.raises(TriageError, match="run id run-000 names more than one run"):
        collect_positives([problem_record(["broken"]), problem_record(["broken"])])


@pytest.mark.parametrize("run_id", ["my run", "run\t0", "run-000\n", "run\u00a0000"])
def test_a_run_id_with_whitespace_is_an_error(run_id):
    # A label line "my run 0 unknown" would read back as run "my", iteration "run".
    with pytest.raises(TriageError, match="whitespace"):
        collect_positives([okay_record(run_id=run_id)])


@pytest.mark.parametrize("run_id", ["#r", "#"])
def test_a_run_id_starting_with_a_hash_is_an_error(run_id):
    # Its label lines "#r 0 unknown" would read back as comments.
    with pytest.raises(TriageError, match=f"run id '{run_id}' starts with '#'"):
        collect_positives([problem_record(["broken"], run_id=run_id)])


def test_sim_run_with_k_faults_yields_k_findings():
    record = run(RunConfig(controller="scripted", evaluator="oracle",
                           faults=default_fault_set()))
    assert len(collect_positives([record])) == 5


# --- unique issues ----------------------------------------------------------

def test_four_distinct_reasons_are_four_issues():
    assert unique_issues(problem_record([f"problem kind {kind}" for kind in "ABCD"])) == 4


def test_reasons_differing_only_in_control_ids_merge():
    assert unique_issues(problem_record(["Button 134478 overlaps the label.",
                                         "Button 99 overlaps the label."])) == 1


def test_explicit_cause_key_overrides_the_normalized_reason():
    record = problem_record(["completely unrelated text", "another unrelated text"])
    assert unique_issues(record) == 2
    assert unique_issues(record, cause_key="same-root-cause") == 1


def test_normalize_reason_masks_ids_case_and_punctuation():
    assert normalize_reason("The 'Next >' Button 134478 is broken!") == \
        normalize_reason("the next button 7 is broken")


# --- build_report -----------------------------------------------------------

def test_funnel_fixture_summary_counts(funnel_records):
    records, labels = funnel_records
    report = build_report(records, labels)
    assert (report.runs, report.actions, report.positives,
            report.true_positives, report.unique_issues) == (9, 752, 72, 7, 5)


def test_empty_records_summarize_to_zero():
    report = build_report([], LabelFile())
    assert (report.runs, report.actions, report.positives,
            report.true_positives, report.unique_issues) == (0, 0, 0, 0, 0)


def test_label_for_missing_finding_is_an_error():
    labels = LabelFile({("run-000", 99): Label(TRUE_POSITIVE)})
    with pytest.raises(TriageError, match=r"missing finding \(run run-000, iteration 99\)"):
        build_report([okay_record()], labels)


def test_funnel_chain_is_monotone(funnel_records):
    records, labels = funnel_records
    report = build_report(records, labels)
    assert report.unique_issues <= report.true_positives <= report.positives <= report.actions


def test_report_counts_coverage_from_executed_actions_only():
    record = okay_record(size=2)
    record.iterations.append(IterationRecord(
        index=2, page_key="tool_description", tree_digest="t",
        action="click(40)", status="rejected", verdict={"state": "okay"}))
    report = build_report([record], LabelFile())
    assert report.controls_acted == 2
    assert report.pages_visited == ["tool_description"]


def test_summarize_is_pure(funnel_records):
    records, labels = funnel_records
    assert build_report(records, labels).to_json_obj() == \
        build_report(records, labels).to_json_obj()


def test_funnel_fixture_report_is_pinned(funnel_records):
    # Every number of the report, per-run rows and coverage included, in both formats.
    records, labels = funnel_records
    report = build_report(records, labels)
    assert report_to_json(report) + "\n" == (FIXTURES / "funnel_report.json").read_text("utf-8")
    assert report.render_text() + "\n" == (FIXTURES / "funnel_report.txt").read_text("utf-8")


def test_report_text_shows_the_funnel_stages(funnel_records):
    records, labels = funnel_records
    text = build_report(records, labels).render_text()
    for stage in ("Execute Test Runs", "Evaluate Results", "Consolidate Errors"):
        assert stage in text
    for number in ("9", "752", "72", "7", "5"):
        assert number in text


# --- labels ----------------------------------------------------------------

def test_label_file_round_trip():
    labels = LabelFile({
        ("run-000", 3): Label(TRUE_POSITIVE, "stuck-message"),
        ("run-001", 17): Label(FALSE_POSITIVE),
        ("run-002", 4): Label(UNLABELED),
    })
    parsed = LabelFile.parse(labels.render())
    assert parsed.entries == labels.entries


def test_label_file_rejects_bad_lines():
    with pytest.raises(TriageError, match="needs: run_id iteration label"):
        LabelFile.parse("run-000 3")
    with pytest.raises(TriageError, match="bad iteration"):
        LabelFile.parse("run-000 x true_positive")
    with pytest.raises(TriageError, match="unknown label"):
        LabelFile.parse("run-000 3 maybe")
    with pytest.raises(TriageError,
                       match="^label lines 2 and 4 both label run-000 iteration 3$"):
        LabelFile.parse("# run_id iteration label\nrun-000 3 true_positive cause-a\n\n"
                        "run-000 3 false_positive\n")


def test_cause_key_only_on_true_positives():
    with pytest.raises(TriageError, match="cause_key"):
        Label(FALSE_POSITIVE, "nope")


def test_prefill_keeps_existing_labels():
    findings = [finding(iteration=0), finding(iteration=1)]
    existing = LabelFile({findings[0].key: Label(TRUE_POSITIVE)})
    merged = prefill_labels(findings, existing)
    assert merged.entries[findings[0].key].value == TRUE_POSITIVE
    assert merged.entries[findings[1].key].value == UNLABELED


def test_prefill_refuses_a_label_with_no_finding():
    findings = [finding(iteration=0)]
    existing = LabelFile({findings[0].key: Label(TRUE_POSITIVE),
                          ("run-000", 5): Label(FALSE_POSITIVE)})
    with pytest.raises(TriageError, match=r"missing finding \(run run-000, iteration 5\)"):
        prefill_labels(findings, existing)


def test_unlabeled_findings_block_the_report(funnel_records):
    records, labels = funnel_records
    incomplete = LabelFile(dict(labels.entries))
    del incomplete.entries[("run-003", 20)]
    with pytest.raises(UnlabeledFindingsError) as info:
        build_report(records, incomplete)
    assert ("run-003", 20) in info.value.keys


def test_assume_unlabeled_false_unblocks(funnel_records):
    records, labels = funnel_records
    incomplete = LabelFile(dict(labels.entries))
    del incomplete.entries[("run-003", 20)]
    report = build_report(records, incomplete, assume_unlabeled_false=True)
    assert report.true_positives == 7
    assert report.positives == 72
