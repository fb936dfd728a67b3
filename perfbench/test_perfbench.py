"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They use the smoke sizes (tiny N, 40 ring cases), so they take seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = run_cli(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("field,delta", [("abs_eval", 1e-6), ("maxdeg", 4),
                                         ("maxabscoeff", 1)])
def test_corrupted_reference_raises_error_rate(field, delta):
    reference = workloads.load_reference()
    text = workloads.GROWTH["decay"][0][0]
    n = str(workloads.SMOKE_NS[-1])
    ref = reference[text][n]
    ref[field] = ref[field] * (1 + delta) if field == "abs_eval" else ref[field] + delta
    result = run.run_workload("decay", 3, 0.01, trace=False, smoke=True,
                              reference=reference)
    # One of six rows is wrong; the run still finishes every row.
    assert result["correct"] is False
    assert result["failed"] * 6 == result["attempted"]


def test_missing_reference_row_counts_as_failure():
    reference = workloads.load_reference()
    del reference[workloads.GROWTH["iterated"][0][0]][str(workloads.SMOKE_NS[0])]
    result = run.run_workload("iterated", 3, 0.01, trace=False, smoke=True,
                              reference=reference)
    assert result["failed"] * 2 == result["attempted"]


def _hooked_attributes():
    out = {}
    for module, cls, attr, _ in tracing.HOOKS:
        owner = tracing._owner(module, cls)
        out[tracing.hook_name(module, cls, attr)] = vars(owner)[attr]
    return out


def test_tracing_restores_the_package_even_after_an_error():
    before = _hooked_attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            assert _hooked_attributes() != before
            run_pass = workloads.make_pass("decay", 1, True, workloads.load_reference(),
                                           tracer)
            run_pass(workloads.Tally(), tracer)
            raise RuntimeError("stop")
    after = _hooked_attributes()
    assert all(after[k] is before[k] for k in before)
    assert tracer.absent == []
    metrics = tracer.layer_metrics()
    assert metrics["laurent.mul_calls"] > 0 and metrics["jones.memo_misses"] > 0
    assert metrics["laurent.div_qint_calls"] > 0 and metrics["asympt.rows"] == 6


def test_missing_hook_target_is_reported_absent(monkeypatch):
    gone = ("cablejones.laurent", "NoSuchAccumulator", "add",
            tracing._span_hook("laurent.acc_add"))
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (gone,))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        pass
    assert tracer.absent == ["cablejones.laurent.NoSuchAccumulator.add"]
    assert tracer.layer_metrics()["trace.absent_hooks"] == 1


def test_counting_memo_matches_plain_memo():
    from cablejones import colored_jones, parse

    e = parse("cable(2,5;1;cable(2,3;1;unknot))")
    memo = tracing.CountingMemo()
    assert colored_jones(e, (6,), memo) == colored_jones(e, (6,))
    assert memo.stores == memo.misses and memo.hits > 0


def test_inputs_follow_the_seed():
    assert workloads.ring_inputs(5, True) == workloads.ring_inputs(5, True)
    assert workloads.ring_inputs(5, True) != workloads.ring_inputs(6, True)
    tracer = tracing.NullTracer()
    first = workloads.growth_inputs("decay", 5, True, tracer)
    assert first == workloads.growth_inputs("decay", 5, True, tracer)
    flips = {(r.twist, r.mirrored) for s in range(20)
             for r in workloads.growth_inputs("decay", s, True, tracer)}
    assert len(flips) > 4


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "ring", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
