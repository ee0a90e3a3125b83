"""The benchmark's own tests: python3 -m pytest perfbench -q"""

import json

import pytest

from perfbench import reference, run, tracer, workloads
from perfbench.tracer import Span, Tracer, installed, layer_metrics, self_times

ROOT = run.ROOT


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_same_inputs(name):
    first = workloads.build(name, 7, ROOT)
    again = workloads.build(name, 7, ROOT)
    assert first.texts == again.texts
    assert [c.name for c in first.cases] == [c.name for c in again.cases]


@pytest.mark.parametrize("name", ["plane-fillin", "leray-dims",
                                  "problems-batch"])
def test_seed_changes_inputs(name):
    assert (workloads.build(name, 1, ROOT).texts
            != workloads.build(name, 2, ROOT).texts)


def test_same_inputs_same_digests():
    texts = workloads.shipped_problems(ROOT)
    first = {n: workloads.run_problem(t) for n, t in texts.items()}
    again = {n: workloads.run_problem(t) for n, t in texts.items()}
    assert first == again
    goldens = json.loads((workloads.HERE / "goldens.json").read_text())
    assert set(goldens) == set(texts)


def test_traced_and_untraced_reports_identical():
    texts = workloads.shipped_problems(ROOT)
    plain = {n: workloads.run_problem(t) for n, t in texts.items()}
    tr = Tracer()
    with installed(tr):
        tr.recording = True
        traced = {n: workloads.run_problem(t) for n, t in texts.items()}
        tr.recording = False
    assert traced == plain
    assert {s.layer for s in tr.spans} >= {"problems.parse", "cli.run",
                                           "cli.emit", "linalg.snf"}


def test_every_importing_module_is_rebound():
    from ovc import cohomology, linalg, pairing, pushforward, unipotent
    holders = (linalg, cohomology, pushforward, pairing, unipotent)
    original = linalg.sparse_snf
    with installed(Tracer()):
        for module in holders:
            assert module.sparse_snf is not original
            assert module.sparse_snf.__wrapped__ is original
    assert all(module.sparse_snf is original for module in holders)


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", "a", 0.0, 10.0, None),
        Span("child", "b", 1.0, 4.0, 0),
        Span("grandchild", "c", 2.0, 3.0, 1),
        Span("child", "b", 5.0, 6.0, 0),
        Span("root", "a", 12.0, 13.0, None),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    m = layer_metrics(spans, 14.0)
    assert m["a_s"] == 7.0 and m["b_s"] == 3.0 and m["c_s"] == 1.0
    # self times partition the root spans; the rest of the pass is unwrapped
    assert m["trace.unwrapped_s"] == 14.0 - 11.0


def test_self_time_with_overlapping_children():
    spans = [Span("root", "a", 0.0, 10.0, None),
             Span("x", "b", 1.0, 4.0, 0),
             Span("y", "b", 3.0, 5.0, 0),
             Span("z", "b", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_meter_scales_by_the_reference(monkeypatch):
    runs = iter([0.04, 0.04, 0.02])
    monkeypatch.setattr(reference, "reference_seconds", lambda: next(runs))
    meter = reference.Meter(every=1.0)
    meter.add(0.5)
    meter.add(0.6)          # closes a stretch between runs of 0.04 and 0.04
    meter.add(0.3)          # closed by take(), between 0.04 and 0.02
    ref = reference.REF_SECONDS
    assert meter.take() == pytest.approx(1.1 * ref / 0.04 + 0.3 * ref / 0.03)
    assert meter.take() == 0.0
    assert meter.samples == [0.04, 0.04, 0.02]


def test_reference_job_is_fixed():
    assert reference.eliminate() == reference.eliminate() > 0


def _line(window):
    text = workloads._text(3, 12, workloads._rank1("x", window, {}),
                           "cohomology M1")
    return workloads.problems.parse_problem(text).modules["M1"]


def test_negative_control_counts_in_fail_frac(monkeypatch, capsys):
    line = _line(10)

    def control(seed, root):
        good = workloads._dims_case(
            "line-right", lambda: workloads.cohomology.mw_cohomology(line),
            lambda: {0: 1, 1: 0})
        wrong = workloads._dims_case(
            "line-wrong", lambda: workloads.cohomology.mw_cohomology(line),
            lambda: {0: 2, 1: 0})
        return workloads.Workload("negative-control", [], [good, wrong])

    monkeypatch.setitem(workloads.BUILDERS, "negative-control", control)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", "negative-control", "--seed", "1",
                     "--seconds", "0.01", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] * 2 == result["attempted"]
    assert result["metrics"]["pass_frac"]["value"] == 0.5


def test_raising_case_is_a_failure():
    def boom():
        raise ValueError("engine error")

    wl = workloads.Workload("w", [], [workloads.Case("boom", boom,
                                                     lambda out: True)])
    _, failed, _ = run.run_pass(wl)
    assert failed == 1


def test_traced_pass_accounts_for_its_time():
    line = _line(30)
    wl = workloads.Workload("w", [], [workloads._dims_case(
        "line", lambda: workloads.cohomology.mw_cohomology(line),
        lambda: {0: 1, 1: 0})])
    tr = Tracer()
    with installed(tr):
        dt, failed, _ = run.run_pass(wl, tr)
    m = layer_metrics(tr.spans, dt)
    own = sum(m[f"{layer}_s"] for layer in tracer.LAYERS)
    assert failed == 0
    assert m["linalg.snf_calls"] == 1 and m["linalg.snf_per_map"] == 1.0
    assert own + m["trace.unwrapped_s"] == pytest.approx(dt)
    assert 0 <= m["trace.unwrapped_s"] < dt
