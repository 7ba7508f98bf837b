"""Checks of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q benchmarks/selftest.py

Generators must be deterministic for a seed, and a tiny-size run of every
workload must print every metric BENCHMARK.json names, in both modes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(dest: Path) -> dict:
    return {p.relative_to(dest).as_posix(): p.read_bytes()
            for p in sorted(dest.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("size", workloads.SIZES)
def test_generator_is_deterministic(tmp_path, workload, size):
    first = workloads.write_inputs(workload, 7, size, tmp_path / "a")
    again = workloads.write_inputs(workload, 7, size, tmp_path / "b")
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")


@pytest.mark.parametrize("workload", ("mesh-trunk", "curved-hull"))
def test_variants_differ(tmp_path, workload):
    workloads.write_inputs(workload, 0, "tiny", tmp_path / "a")
    workloads.write_inputs(workload, 1, "tiny", tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


def test_mesh_cube_is_closed_and_sized():
    mesh = workloads.mesh_cube(700, 8, (10, 20, 30))
    assert len(mesh["triangles"]) == 6 * 8 * 8 * 2
    edges = {}
    for tri in mesh["triangles"]:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (tuple(tri[a]), tuple(tri[b]))
            edges[key] = edges.get(key, 0) + 1
    # consistently wound and closed: every directed edge has its reverse
    assert all(edges.get((b, a)) == 1 for (a, b) in edges)


def _run(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_metric(workload, trace):
    detail, line = _run(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in SPEC[key]}
    for metric in SPEC[key]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert detail["source_lines"]["total"] > 0
    # every failure is accounted for with its cause
    assert len(detail["failures"]) == line["failed"]
    for failure in detail["failures"]:
        assert "check" in failure or ("exit_code" in failure
                                      and "stderr_last" in failure)
    if line["failed"] < line["attempted"]:
        assert detail["counters"]


def test_missing_sources_exit_without_result(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "mesh-trunk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
