"""Self-tests of the benchmark, at the tiny size of each workload.

    python3 -m pytest -q bench/test_bench.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args],
                          capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def tiny(workload: str, seed: int, trace: int, nth: int = 0):
    """(run record, result object) of one tiny run; `nth` forces a rerun."""
    proc = _run(BENCH / "run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line)["record"] for line in lines
                  if line.startswith('{"record"'))
    return record, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_lists_every_metric_and_no_failure(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        _, result = tiny(workload, 7, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_perturbs_no_report(workload):
    plain, _ = tiny(workload, 7, 0)
    traced, result = tiny(workload, 7, 1)
    assert traced["digests"] == plain["digests"]
    # traced rounds compared against the run's own untraced round
    assert result["metrics"]["reporting.digest_match"]["value"] == len(plain["digests"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_reports(workload):
    first, _ = tiny(workload, 7, 0)
    again, _ = tiny(workload, 7, 0, nth=1)
    assert again["input_digest"] == first["input_digest"]
    assert again["digests"] == first["digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs(workload):
    first, _ = tiny(workload, 7, 0)
    other, _ = tiny(workload, 8, 0)
    assert other["input_digest"] != first["input_digest"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path / "bench" / "run.py", "--workload", WORKLOADS[0],
                "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_child_spans():
    sys.path.insert(0, str(BENCH))
    import spans
    parent = spans.Span(0, "p", None, 0.0, 10.0)
    kids = [spans.Span(1, "c", 0, 1.0, 4.0), spans.Span(2, "c", 0, 3.0, 6.0),
            spans.Span(3, "c", 0, 9.0, 12.0)]   # overlapping, and past the end
    assert spans.self_times([parent, *kids])[0] == 10.0 - (5.0 + 1.0)
