"""The benchmark's own tests, on the small mode of each workload.

    python3 -m pytest -q perfbench

They show that a corrupted reference is counted as failed, that per-layer
counts repeat exactly, that the load runs in one process and one thread,
that set-up times no reference, that the speed meter leaves the process as
it found it, and that the benchmark refuses to run without the program's
sources.
"""

import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["jumps_scan", "tau_queries", "verify_corpus"]


def run(workload, trace=0, data=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--small"]
    if data is not None:
        cmd += ["--data", str(data)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    summary = json.loads(next(x for x in lines if x.startswith("summary "))[len("summary "):])
    return done.returncode, json.loads(lines[-1]), summary


def corrupt(workload, data):
    path = data / f"{workload}.json"
    ref = json.loads(path.read_text())
    if workload == "jumps_scan":
        for report in ref["reports"].values():
            report["jumps"][-1]["c"] = "1/2"
    elif workload == "tau_queries":
        ref["digests"] = ["0" * 16] * len(ref["digests"])
    else:
        ref["stable_hash"] = "0" * 64
    path.write_text(json.dumps(ref))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_reports_every_metric(workload):
    code, result, summary = run(workload)
    assert code == 0 and result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert summary["env"]["nproc"] >= 1 and summary["env"]["python"]
    # the load ran in worker processes, one after another, each in one thread
    assert len(summary["pass_walls_s"]) >= 1 and summary["threads_at_end"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failed(workload, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(HERE / "data", data)
    corrupt(workload, data)
    code, result, summary = run(workload, data=data)
    assert code != 0 and not result["correct"]
    assert summary["failed_ratio"] > 0 and result["failed"] > 0


def test_raising_operations_count_as_failed(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(HERE / "data", data)
    path = data / "tau_pool.json"
    pool = json.loads(path.read_text())
    for query in pool["queries"]:
        query.update(kind="left", c="0")  # tau_left_limit rejects c = 0
    path.write_text(json.dumps(pool))
    code, result, summary = run("tau_queries", data=data)
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] and summary["failed_ratio"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_in_one_thread(workload):
    runs = [run(workload, trace=1) for _ in range(2)]
    counts = [
        {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
        for _, result, _ in runs
    ]
    assert counts[0] == counts[1]
    for code, result, summary in runs:
        assert code == 0 and result["correct"] and not summary["unloaded_layers"]
        assert summary["threads_seen"] == 1 and summary["threads_at_end"] == 1
        assert summary["env"]["nproc"] >= 1 and summary["env"]["python"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_probe_reads_no_reference(workload, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(HERE / "data", data)
    (data / f"{workload}.json").unlink()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", "3",
         "--data", str(data)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    raw, scaled = map(float, done.stdout.strip().splitlines()[-1].split())
    assert raw > 0 and scaled > 0


def test_meter_samples_and_restores_the_process():
    from meter import Meter

    with Meter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert len(meter.times) >= 5 and meter.handler_s > 0
    assert meter.scale(start, end) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL and gc.isenabled()


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    listed = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]} | {"unresolved_intervals"}
    for layer in layers.values():
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["loaded_by"]) <= set(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jumps_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
