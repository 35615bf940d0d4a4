"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The count test runs every workload twice traced (about two minutes on
two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from spans import COUNTS, Span, self_times, union_length  # noqa: E402


def bench(cwd, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([]) == 0.0


def test_self_times_subtract_covered_interval():
    # a unit on thread 1 with two overlapping children on threads 2 and 3
    spans = [
        Span(0, "experiments.unit", 0.0, 10.0, 1.0, None, 1, 1),
        Span(1, "kernel.build_affinity", 1.0, 6.0, 4.0, 0, 1, 2),
        Span(2, "kernel.build_affinity", 2.0, 8.0, 6.0, 0, 1, 3),
    ]
    own = self_times(spans)
    assert own[0] == (3.0, 2.0)
    assert own[1] == (5.0, 1.0)
    assert own[2] == (6.0, 0.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = bench(HERE.parent, workload, 7, 0, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        runs.append({k: v for k, v in metrics.items() if k.endswith(".calls") or k in COUNTS})
    assert runs[0] == runs[1]
    assert len(runs[0]) == 10 + len(COUNTS)


def test_fails_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "noisy_embedding", 0, 1, 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
