"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    records = {x["workload"]: x for x in lines if "workload" in x and "seed" in x}
    summaries = {x["workload"]: x for x in lines if "workload" in x and "metrics" in x}
    return records, summaries, lines[-1]


def _assert_metrics(summary, spec):
    got = summary["metrics"]
    assert set(got) == {m["name"] for m in spec}
    for m in spec:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(trace):
    records, summaries, last = _run(trace)
    assert sorted(summaries) == sorted(WORKLOADS)
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
    for name in WORKLOADS:
        s = summaries[name]
        assert s["correct"] and s["attempted"] >= 1
        _assert_metrics(s, SPEC["per_layer"] if trace else SPEC["end_to_end"])
        if trace:
            rec = records[name]
            # self times are disjoint slices of the traced wall time
            assert 0 < rec["traced_self_sum_s"] <= rec["traced_span_wall_s"]


def test_recorded_mismatch_fails():
    sys.path.insert(0, str(HERE))
    import inputs
    import run
    from checks import CheckFailed

    run._import_package()
    signal.signal(signal.SIGALRM, run._on_alarm)
    pool = inputs.load_pool()
    wl = run.workload("checks5", smoke=True, pool=pool)
    wl.counts = {"mi5": 1}
    run.run_round(wl, 7, 0, run._warm_calibration())  # as recorded: passes
    for entry in pool["checks5"]["mi5"]:
        entry["digest"] = "0" * 16
    with pytest.raises(CheckFailed):
        run.run_round(wl, 7, 0, run._warm_calibration())
