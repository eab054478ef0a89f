"""Fast self-tests of the benchmark: the reference computations against
textbook values, and the benchmark command on tiny rounds.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as R

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ---------------------------------------------------------------------------
# reference computations


def test_root_counts():
    assert R.counts_A(5, 3) == (1, 30, 90)
    assert R.counts_A(1, 5) == (1, 2, 0, 0, 2)
    assert R.counts_D(4, 3) == (1, 24, 24)
    assert R.counts_D(6, 2) == (1, 60)
    assert R.counts_E7(3) == (1, 126, 756)
    assert R.counts_E8(4) == (1, 240, 2160, 6720)
    assert R.counts_A1D4(3) == (1, 26, 72)
    assert [R.counts_D(n, 2)[1] for n in range(4, 9)] == [2 * n * (n - 1) for n in range(4, 9)]


def test_five_squares_and_siegel_counts():
    assert R.five_square_counts(5) == (1, 10, 40, 80, 90)
    assert R.siegel_count("S5", 1) == 10
    assert R.siegel_count("A5", 6) == 330
    assert R.siegel_count("A1D4", 1) == 26


def test_d24_count():
    # the coefficient of q^38 in (theta3^24 + theta4^24) / 2
    assert R.counts_D(24, 39)[38] == 11318878100909407680


def test_e7_model():
    roots = R.e7_roots_doubled()
    assert len(roots) == len(set(roots)) == 126
    assert all(sum(r) == 0 and sum(x * x for x in r) == 8 for r in roots)
    gram = [[sum(a * b for a, b in zip(u, v)) // 4 for v in R.E7_SIMPLE_DOUBLED] for u in R.E7_SIMPLE_DOUBLED]
    assert gram == [list(row) for row in R.E7_CARTAN]
    assert all(R.e7_doubled(e) in roots for e in ([int(i == j) for j in range(7)] for i in range(7)))


def test_sublattice_counts():
    assert len(R.e8_roots_doubled()) == 240
    assert R.sublattice_counts(R.e7_roots_doubled()) == {"A1+A1": 945, "A2": 336, "4A1": 4725}
    assert R.sublattice_counts(R.e8_roots_doubled())["4A1"] == 122850


def test_witness_table_and_statements():
    for d, p, lam in R.WITNESS_TABLE:
        assert R.e7_norm(lam) == 2 * d
        assert R.e7_orthogonal_roots(lam) == 2 * p
    _, _, lam12 = R.WITNESS_TABLE[2]
    assert R.verdict_problems(12, "GeneralType", 14, 19, lam12) == []
    assert R.verdict_problems(12, "Inconclusive", None, None, None)
    assert R.verdict_problems(5, "GeneralType", 14, 19, lam12)
    _, _, lam9 = R.WITNESS_TABLE[0]
    assert R.verdict_problems(9, "NonNegativeKodaira", 16, 20, lam9) == []
    assert R.verdict_problems(9, "Inconclusive", 18, None, None)


def test_polarisation_counts():
    assert R.orbit_count(6, 3, 3) == 2
    assert R.orbit_count(5, 7, 1) == 1
    assert R.stable_index_w(6, 5, 1) == 1
    assert R.stable_index(6, 1) == 4


# ---------------------------------------------------------------------------
# the benchmark command


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def _report(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, "stdout must carry the report alone"
    report = json.loads(lines[0])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert isinstance(report["attempted"], int) and report["attempted"] >= 1
    assert isinstance(report["failed"], int)
    return report


def _assert_metrics(report, specs):
    assert {n: m["unit"] for n, m in report["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    assert all(isinstance(m["value"], (int, float)) for m in report["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_command(workload, trace):
    report = _report(_run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny"))
    _assert_metrics(report, SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"])
    # the D24 repcount is the one operation that fails, once per round
    rounds = 2 if trace == "1" else 1
    assert report["failed"] == (rounds if workload == "cli_cold" else 0)
    if trace == "0":
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
