import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    assert workloads.build(name, 5) == workloads.build(name, 5)


@pytest.mark.parametrize("name", NAMES)
def test_seed_moves_values_not_sizes(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert [op.config_text for op in a.ops] != [op.config_text for op in b.ops]
    assert sorted(op.kind for op in a.ops) == sorted(op.kind for op in b.ops)
    assert (sorted(op.largest_array_bytes for op in a.ops)
            == sorted(op.largest_array_bytes for op in b.ops))
    assert a.min_passes == b.min_passes


@pytest.mark.parametrize("name", NAMES)
def test_least_passes_leave_ten_samples_beyond_the_tail(name):
    wl = workloads.build(name, 0)
    n = wl.valid_ops * wl.min_passes
    _, beyond = run.nearest_rank([float(i) for i in range(n)], wl.tail_pct)
    assert beyond >= 10


@pytest.mark.parametrize("name", NAMES)
def test_no_oversize_inputs(name):
    for op in workloads.build(name, 0).ops:
        assert op.largest_array_bytes <= 32 * 2**20
        if op.config_text.startswith("{") and op.config_text.endswith("}"):
            cfg = json.loads(op.config_text)
            assert cfg.get("levels", 3) in (3, 4, 5, "x")


def test_probes_expect_exit_2():
    probes = [op for op in workloads.build("certify-mix", 0).ops if op.probe]
    assert len(probes) == 8
    assert all(op.expect_exit == 2 for op in probes)


def test_fails_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_end_to_end_times_valid_ops_in_reference_units():
    wl = workloads.build("certify-mix", 0)
    # every valid op takes 50 reference-loop times, while the host's
    # speed (the loop's own time) varies fourfold; probes are left out
    samples = [run.Sample(op, 1.0 if op.probe else 0.05 * k, 0, 1e-3 * k)
               for op in wl.ops for k in (1, 2, 4)]
    metrics, extra = run.end_to_end(wl, samples, setup_s=0.3)
    assert metrics["latency_p50_ref"] == pytest.approx(50.0)
    assert metrics["latency_tail_ref"] == pytest.approx(50.0)
    assert metrics["ops_per_kref"] == pytest.approx(20.0)
    assert extra["seconds_metrics"]["latency_p50_s"] == pytest.approx(0.1)
    assert extra["seconds_metrics"]["latency_tail_s"] == pytest.approx(0.2)
    assert extra["latency_samples"] == 3 * wl.valid_ops
