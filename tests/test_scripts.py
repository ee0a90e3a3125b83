"""The command-line scripts, loaded from their files."""

import importlib.util
import json
import pickle
import sys
import time
from pathlib import Path

from ovc.linalg import Entries
from test_linalg import triples

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(seed, base_ok=True, head_ok=True):
    return {"seed": seed, "first": "base",
            "base": {"correct": base_ok, "metrics": {}},
            "head": {"correct": head_ok, "metrics": {}}}


def test_bench_pairs_names_every_wrong_run():
    bench = _load("bench_pairs")
    assert bench.wrong_runs([_pair(7), _pair(8)]) == []
    assert bench.wrong_runs([_pair(7), _pair(8, head_ok=False)]) \
        == [(8, "head")]
    assert bench.wrong_runs([_pair(7, base_ok=False),
                             _pair(8, base_ok=False, head_ok=False)]) \
        == [(7, "base"), (8, "base"), (8, "head")]


def test_bench_pairs_writes_its_file_then_exits_1_on_a_wrong_run(
        tmp_path, monkeypatch, capsys):
    bench = _load("bench_pairs")
    (tmp_path / "BENCHMARK.json").write_text(
        (SCRIPTS.parent / "BENCHMARK.json").read_text())

    def run_once(checkout, workload, seed, seconds):
        metrics = {name: {"value": 1.0, "unit": "s"} for name in
                   ("wall_s", "setup_s", "peak_rss_mb", "pass_frac")}
        return {"correct": not (seed == 4 and checkout == tmp_path),
                "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench, "run_once", run_once)
    argv = ["--base", str(SCRIPTS), "--head", str(tmp_path),
            "--workload", "w", "--label", "t", "--seeds"]
    assert bench.main(argv + ["3"]) == 0
    assert bench.main(argv + ["3", "4"]) == 1
    assert "seed 4: the head run failed" in capsys.readouterr().err
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [p["seed"] for p in written["pairs"]] == [3, 4]


def test_run_problems_exits_1_when_nothing_ran(tmp_path, monkeypatch, capsys):
    runner = _load("run_problems")
    monkeypatch.setattr(runner, "ROOT", tmp_path)
    assert runner.main([]) == 1
    (tmp_path / "problems").mkdir()
    assert runner.main([]) == 1
    assert "no problem files ran" in capsys.readouterr().err


def test_snf_replay_agrees_with_its_own_checkout(capsys):
    replay = _load("snf_replay")
    root = str(SCRIPTS.parent)
    assert replay.main(["--workload", "problems-batch", "--seed", "1",
                        "--base", root, "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    # 4 of the calls pass logs=None, rank-only
    assert "problems-batch seed 1: 26 calls (22 tracked)" in out
    assert "s CPU per replay" in out and "replays in 1 rounds" in out
    assert "all 26 results agree" in out


def test_snf_replay_replays_until_the_round_is_spent(monkeypatch):
    # one pass over a short list is too brief to time on a shared host, so
    # a round replays the list until its CPU budget is spent
    replay = _load("snf_replay")
    monkeypatch.setattr(replay, "ROUND_SECONDS", 0.2)
    monkeypatch.setattr(sys, "path", sys.path[:])
    calls = [((3, 4, triples({(0, 0): 1, (1, 1): 3, (2, 0): 2, (2, 3): 9}),
               3, 4), {"logs": None})]
    start = time.process_time()
    times, summaries = replay.replay(SCRIPTS.parent / "src", calls)
    assert time.process_time() - start >= 0.2
    assert len(times) > 10 and sum(times) > 0.1
    assert summaries == [("rank-only", [0, 1, 2, 4], [0, 1, 2, 3, 3], 2, 1,
                          0)]


def test_snf_replay_pickles_captured_entries(monkeypatch):
    # each captured input is held as Entries, and the pickled calls a
    # replay child loads hold the same lists and reduce to the same results
    replay = _load("snf_replay")
    monkeypatch.setattr(replay, "ROUND_SECONDS", 0.0)
    monkeypatch.setattr(sys, "path", sys.path[:])
    calls = replay.capture("problems-batch", 1)
    assert len(calls) == 26
    for args, _ in calls:
        assert isinstance(args[2], Entries)
        assert len(args[2].rows) == len(args[2].cols) == len(args[2])
    loaded = pickle.loads(pickle.dumps(calls))

    def lists(calls):
        return [(a[2].rows, a[2].cols, a[2].vals) for a, _ in calls]

    assert lists(loaded) == lists(calls)
    src = SCRIPTS.parent / "src"
    assert replay.replay(src, loaded)[1] == replay.replay(src, calls)[1]


def test_snf_replay_replays_the_logs_keyword(monkeypatch):
    # a call that keeps the column log alone is captured with its keyword
    # and replayed with it: the replayed result has no row log, and its
    # other tracked fields are those of the run that keeps both logs
    replay = _load("snf_replay")
    monkeypatch.setattr(replay, "ROUND_SECONDS", 0.0)
    monkeypatch.setattr(sys, "path", sys.path[:])
    calls = [(args, kwargs) for args, kwargs in
             replay.capture("grid-generators", 1)
             if kwargs == {"logs": "V"}]
    assert calls
    src = SCRIPTS.parent / "src"
    head = replay.replay(src, calls)[1]
    full = replay.replay(src, [(args, {}) for args, _ in calls])[1]
    assert any(f[2] for f in full)
    assert all(h[0] == "tracked" and h[2] == [] for h in head)
    assert replay.mismatches(head, full) == [
        (i, "row_ops") for i, f in enumerate(full) if f[2]]


def test_snf_replay_exits_1_on_a_mismatch(monkeypatch, capsys):
    replay = _load("snf_replay")
    run_side = replay.run_side

    def tampered(side, checkout, calls_file):
        seconds, summaries = run_side(side, checkout, calls_file)
        if side == "base":
            kind, *fields = summaries[0]
            fields[1] = fields[1] + ["tampered"]
            summaries[0] = (kind, *fields)
        return seconds, summaries

    monkeypatch.setattr(replay, "run_side", tampered)
    assert replay.main(["--workload", "problems-batch", "--seed", "1",
                        "--base", str(SCRIPTS.parent), "--repeat", "1"]) == 1
    err = capsys.readouterr().err
    assert "call 0:" in err and "1 mismatched fields" in err


STUB_LINALG = '''
class Entries:
    __slots__ = ("rows", "cols", "vals")


def sparse_snf(nrows, ncols, entries, p, N, track=True):
    raise AssertionError("a kernel that lacks a keyword is never replayed")
'''


def _stub_checkout(root, linalg):
    ovc = root / "src" / "ovc"
    ovc.mkdir(parents=True)
    (ovc / "__init__.py").write_text("")
    (ovc / "linalg.py").write_text(linalg)


def test_snf_replay_names_a_keyword_the_base_kernel_lacks(tmp_path, capfd):
    # a base checkout whose sparse_snf takes no logs keyword: the script
    # checks its signature before replaying anything and stops on one line
    replay = _load("snf_replay")
    _stub_checkout(tmp_path, STUB_LINALG)
    assert replay.main(["--workload", "problems-batch", "--seed", "1",
                        "--base", str(tmp_path), "--repeat", "1"]) == 2
    captured = capfd.readouterr()
    assert "median" not in captured.out
    assert captured.err.splitlines() == [
        f"base {tmp_path}: sparse_snf takes no keyword 'logs', which the "
        f"captured calls pass"]


def test_snf_replay_stops_on_a_base_kernel_that_takes_track(tmp_path,
                                                           capfd):
    # a kernel that takes both track and logs would run a logs=None call
    # tracked, so its results cannot be compared: one line, nothing replayed
    replay = _load("snf_replay")
    _stub_checkout(tmp_path, STUB_LINALG.replace(
        "track=True)", 'track=True, logs="UV")'))
    assert replay.main(["--workload", "problems-batch", "--seed", "1",
                        "--base", str(tmp_path), "--repeat", "1"]) == 2
    captured = capfd.readouterr()
    assert "median" not in captured.out
    assert captured.err.splitlines() == [
        f"base {tmp_path}: sparse_snf still takes 'track', so logs=None is "
        f"no rank-only run there"]
