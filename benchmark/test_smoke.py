"""Smoke tests for the benchmark itself: every workload once, at tiny sizes.

    python3 -m pytest benchmark/test_smoke.py -q

Each case runs ``run.py --smoke`` in a subprocess and checks that every
metric the benchmark defines is printed with its unit, that no round failed,
and that the last line has exactly the shape BENCHMARK.json promises.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmark" / "run.py"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {
    "setup_s": "s", "round_s": "s", "round_s.tail": "s", "votes_per_s": "1/s",
    "peak_rss_mb": "MB", "error_rate": "ratio",
}
END_TO_END_ONLY = {
    "mean_relative_accuracy": ("ratio", ("round-default", "wire-round")),
    "wire_bytes": ("B", ("wire-round",)),
}
PER_LAYER = {
    "domain.build_round_data_s": "s",
    **{f"learners.{phase}_s.{kind}": "s"
       for phase in ("train_local", "pseudolabel", "update_train", "evaluate")
       for kind in ("knn", "mlp", "gnb")},
    "learners.fit_rows": "count", "learners.predict_rows": "count",
    "aggregation.aggregate_s": "s", "aggregation.aggregate_weighted_s": "s",
    "aggregation.remove_global_conflicts_s": "s", "aggregation.build_bundle_s": "s",
    "aggregation.aggregate_peak_mb": "MB", "aggregation.votes": "count",
    "aggregation.admitted": "count", "aggregation.conflicts_dropped": "count",
    "aggregation.bundle_yield": "ratio",
    "netproto.encode_s": "s", "netproto.decode_s": "s", "netproto.recv_wait_s": "s",
    "netproto.serve_s": "s", "netproto.messages": "count", "netproto.bytes_up": "B",
    "netproto.bytes_down": "B",
    "orchestrator.run_round_s": "s", "orchestrator.self_s": "s",
}
# Layers each workload must be seen to enter in its traced run.
ENTERED = {
    "round-default": ("learners.update_train_s.mlp", "learners.evaluate_s.knn",
                      "aggregation.aggregate_s", "orchestrator.self_s",
                      "domain.build_round_data_s"),
    "vote-scale": ("aggregation.aggregate_s", "aggregation.build_bundle_s",
                   "aggregation.aggregate_peak_mb"),
    "wire-round": ("learners.pseudolabel_s.gnb", "aggregation.aggregate_weighted_s",
                   "aggregation.remove_global_conflicts_s", "netproto.encode_s",
                   "netproto.decode_s", "netproto.serve_s", "netproto.bytes_up",
                   "domain.build_round_data_s"),
}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def check_units(printed, expected):
    for name, unit in expected.items():
        assert name in printed, f"{name} not printed"
        assert printed[name]["unit"] == unit, name
        assert isinstance(printed[name]["value"], (int, float)), name


def check_result(result, listed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_end_to_end_metrics_printed(workload):
    report, result = run(workload, 0)
    expected = dict(END_TO_END)
    expected.update({name: unit for name, (unit, workloads) in END_TO_END_ONLY.items()
                     if workload in workloads})
    check_units(report["metrics"], expected)
    assert report["metrics"]["error_rate"]["value"] == 0
    assert all(report["metrics"][m["name"]]["value"] > 0 for m in CONTRACT["end_to_end"])
    check_result(result, CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_per_layer_metrics_printed(workload):
    report, result = run(workload, 1)
    check_units(report["metrics"], PER_LAYER)
    for name in ENTERED[workload]:
        assert report["metrics"][name]["value"] > 0, name
    assert report["failed"] == 0
    assert report["overhead"]["pairs"] >= 1
    check_result(result, CONTRACT["per_layer"])
    stem = ROOT / ".bench_out" / f"{workload}-seed3-smoke"
    spans = [json.loads(line) for line in Path(f"{stem}-spans.jsonl").read_text().splitlines()]
    assert spans and {"name", "start", "end", "parent", "round"} <= set(spans[0])


def test_without_the_package_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for path in (ROOT / "benchmark").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "vote-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
