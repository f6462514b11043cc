"""Self-tests of the benchmark: file schema, output schema, a seconds-long
smoke run of each workload on a shrunken corpus, output checks, and that
tracing leaves every output digest unchanged.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from oris import harness, learner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def shrink(workload):
    """The same workload on a 200-document corpus with a small net and budget."""
    return dataclasses.replace(
        workload,
        train_per_class=(64, 72, 8, 30, 26), test_per_class=(16, 18, 2, 8, 6),
        train={**workload.train, "agent.hidden": "8, 8", "agent.minibatch": 16,
               "agent.replay_capacity": 1000, "agent.episodes": 1, "agent.budget": 20},
        experiment={**workload.experiment, "harness.budget": 50, "harness.update_freq": 10},
        al_seeds=workload.al_seeds[:2],
    )


def small_run(tmp_path, name, trace, seed=3):
    return bench.run_workload(shrink(bench.WORKLOADS[name]), seed, 0.01, trace,
                              tmp_path / f"{name}-{int(trace)}")


def test_benchmark_json_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(tmp_path, name):
    out = small_run(tmp_path, name, trace=False)
    assert out["failed"] == 0, out["failures"]
    jobs = bench.round_jobs(bench.WORKLOADS[name])
    assert out["attempted"] == 1 + out["rounds"] * len(jobs)
    assert jobs.count("train") >= 1 and [j for j in jobs if j != "train"] == list(bench.AGENTS)
    assert len(out["gauge_s"]) == out["attempted"]  # one before every timed op, one at the end
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in out["metrics"].items()} == units
    assert all(value > 0 for value, _ in out["metrics"].values())


def test_traced_run_reports_layers_and_keeps_the_digests(tmp_path):
    untraced = small_run(tmp_path, "al-sweep", trace=False)
    traced = small_run(tmp_path, "al-sweep", trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["digests"] == untraced["digests"]
    assert traced["trace_missing"] == []
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = traced["metrics"]
    assert {k: u for k, (_, u) in metrics.items()} == units
    assert metrics["dqn.train_step.calls"][0] > 0
    assert metrics["learner.fit.calls"][0] > 0
    assert metrics["harness.picks"][0] == metrics["oracle.annotate.calls"][0]
    assert 0.95 < metrics["trace.accounted_share"][0] <= 1.0
    # every patched name is restored
    assert harness.fit is learner.fit and not hasattr(harness.fit, "__wrapped__")


def test_accounted_share_drops_when_the_stream_loop_is_not_wrapped(tmp_path, monkeypatch):
    full = small_run(tmp_path, "al-sweep", trace=True)["metrics"]
    monkeypatch.delitem(tracer.FUNCTION_SITES, "harness.single_run")
    cut = small_run(tmp_path, "al-sweep", trace=True)["metrics"]
    # on this small corpus the stream loop's own time is a few percent of the wall
    assert cut["harness.loop_self_s"][0] == 0.0 < full["harness.loop_self_s"][0]
    assert cut["trace.accounted_share"][0] < full["trace.accounted_share"][0] - 0.02


def test_times_are_taken_to_the_reference_host_speed():
    res = bench.OpResult("random", wall_s=2.0, main_s=1.9)
    train = bench.OpResult("train", wall_s=1.1, main_s=1.0, updates=500)
    args = ([{"setup_s": 0.1}], {**{agent: [res] for agent in bench.AGENTS}, "train": [train]},
            [dataclasses.replace(res, finals=[(0.5, 0.4)])])
    at_reference = bench.end_to_end_metrics(*args, [bench.REFERENCE_S] * 3)
    assert at_reference["al_wall_s.random"][0] == pytest.approx(2.0)
    assert at_reference["train_steps_per_s"][0] == pytest.approx(500.0)
    # the same times on a host on which the gauge runs twice as slowly
    slow = bench.end_to_end_metrics(*args, [bench.REFERENCE_S * 2] * 3)
    assert slow["al_wall_s.random"][0] == pytest.approx(1.0)
    assert slow["setup_s"][0] == pytest.approx(0.05)
    assert slow["train_steps_per_s"][0] == pytest.approx(1000.0)


def test_gauge_process_is_stopped():
    with gauge.Gauge() as host:
        proc = host._proc
        assert host.read() > 0 and len(host.readings) == 1
    assert proc.returncode is not None


def test_layer_self_time_excludes_children():
    spans = tracer.Tracer()
    spans.spans = [["root", 0.0, 10.0, -1, "op"], ["a", 1.0, 4.0, 0, "op"],
                    ["b", 2.0, 3.0, 1, "op"], ["a", 5.0, 6.0, 0, "op"]]
    times = spans.layer_times()
    assert times["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert times["a"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert times["b"]["self_s"] == 1.0


def test_changed_output_between_rounds_counts_as_failed(tmp_path, monkeypatch):
    calls = Counter()
    original = harness.write_record
    first_round = len(bench.AGENTS)  # one sweep per agent and round

    def drifting(record, path):
        calls["n"] += 1
        if calls["n"] > first_round and record.rows:
            record.rows[0].machine_f1_macro /= 2
        original(record, path)

    monkeypatch.setattr(harness, "write_record", drifting)
    out = small_run(tmp_path, "al-sweep", trace=False)
    assert out["failed"] >= 1
    assert any("differs from the first round" in p
               for problems in out["failures"].values() for p in problems)


def test_check_run_flags_broken_invariants():
    cfg = harness.HarnessConfig(labels=bench.corpus.LabelSpace(bench.CLASSES), budget=50,
                                update_freq=10)
    good = [f"0,{b},0.5,0.9,{b},{b // 10}" for b in (10, 20, 30, 40, 50)]
    assert bench.check_run(good, cfg, completed=True) == []
    for bad, completed in (
        (good[:4], True),                                   # completed run cut short
        (good, False),                                      # partial run at the budget
        (good[:1] + ["0,25,0.5,0.9,25,1"], False),          # row off the interval
        (good[:1] + ["0,20,0.5,0.9,20,0"], False),          # errors decreased
        (["0,10,0.5,0.9,10,11"], False),                    # more errors than picks
        (["0,10,1.5,0.9,10,0"], False),                     # f1 outside [0, 1]
    ):
        assert bench.check_run(bad, cfg, completed=completed)


def test_main_prints_the_result_as_the_last_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, "al-sweep", shrink(bench.WORKLOADS["al-sweep"]))
    monkeypatch.setattr(run, "RUNS", tmp_path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "2")  # restored after the test
    monkeypatch.setenv("ORIS_THREADS", "3")
    monkeypatch.setattr(run, "pin_cpu", lambda: None)  # keeps this process's CPUs
    code = run.main(["--workload", "al-sweep", "--seed", "4", "--seconds", "0.01",
                     "--trace", "0"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and isinstance(metric["value"], float), name
    record = json.loads((tmp_path / "al-sweep-seed4-trace0" / "result.json").read_text())
    assert record["env"]["ORIS_THREADS"] is None
    assert record["env"]["ORIS_THREADS_at_launch"] == "3"
    assert record["env"]["blas"]["threads_env"] == str(run.BLAS_THREADS)
    assert sorted(p.name for p in (tmp_path / "al-sweep-seed4-trace0").iterdir()) == [
        "result.json"]


def test_exits_with_an_error_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "al-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_skips_a_lookup_site_the_program_no_longer_has(monkeypatch):
    monkeypatch.setitem(tracer.FUNCTION_SITES, "harness.gone", [("oris.harness", "no_such")])
    spans = tracer.Tracer()
    with spans.installed():
        assert hasattr(harness.fit, "__wrapped__")
    assert spans.missing == {"oris.harness.no_such"}
    assert not hasattr(harness.fit, "__wrapped__")
