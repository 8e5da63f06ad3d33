"""The benchmark's own tests.

    python -m pytest -q lqbench/selftest.py

They run every workload briefly, traced and untraced, so they take a few
minutes; the file name keeps them out of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]

# Counts that depend only on the workload's shapes, never on timing or seed.
EXACT_COUNTS = ("model.discretize.calls", "synthesis.steps", "synthesis.calls",
                "lin_ops.solve.calls", "lin_ops.expm.calls",
                "schemes.run_scheme.calls", "simulate.rollout.calls",
                "model.load_config.calls")

_runs = {}


def bench(workload, seed, trace, cwd=ROOT):
    key = (workload, seed, trace, str(cwd))
    if key not in _runs:
        _runs[key] = subprocess.run(
            [sys.executable, "lqbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=300)
    return _runs[key]


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + GATED
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert set(GATED) <= set(run.WORKLOADS)


def test_every_per_layer_metric_is_documented():
    readme = (HERE / "README.md").read_text()
    for metric in SPEC["per_layer"]:
        assert f"`{metric['name']}`" in readme, metric["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    metrics = result(workload, 1, 0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result(workload, 1, 1)["metrics"]
    second = result(workload, 2, 1)["metrics"]
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert first[spec["name"]]["unit"] == spec["unit"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["synthesis.calls"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(GATED[0], 1, 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_relative_divides_by_the_yardstick_after_each_sample():
    stats = run.Stats()
    stats.by_op = {"a": [2.0, 3.0], "b": [1.0]}
    stats.yard = {"a": [1.0, 2.0], "b": [4.0], "probe": [1.0]}
    assert stats.relative(stats.by_op) == {"a": [2.0, 1.5], "b": [0.25]}


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    got = run.tail([float(i) for i in range(20)])
    assert got == {"value_s": 9.0, "percentile": 50.0, "samples": 20}


def test_importtime_attribution():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         numpy.core",
        "import time:        50 |        150 |       numpy",
        "import time:         5 |          5 |           numpy.fft",
        "import time:        20 |         25 |         scipy._lib",
        "import time:        30 |         55 |       scipy.linalg",
        "import time:         7 |          7 |       json",
        "import time:        40 |        252 |     delay_lqgame.lin_ops",
        "import time:        10 |        262 |   delay_lqgame",
        "import time:         3 |          3 |   site",
    ])
    got = tracing.parse_importtime(text)
    assert got["import.numpy_s"] == pytest.approx(155e-6)
    assert got["import.scipy_s"] == pytest.approx(50e-6)
    assert got["import.delay_lqgame_self_s"] == pytest.approx(57e-6)
    assert got["import.delay_lqgame_total_s"] == pytest.approx(262e-6)
