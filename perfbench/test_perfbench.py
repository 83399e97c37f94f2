"""Tests for the benchmark itself, at toy size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import exhaustive_min  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from hilbfam import hilbert, poly, theorems  # noqa: E402
from layertrace import COUNTS, METRICS, Tracer  # noqa: E402
from run import END_TO_END, Ledger, _reset_between_rounds  # noqa: E402


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in METRICS.items()
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_toy_workload_passes_its_checks(name):
    ledger = Ledger(workloads.build(name, seed=3, toy=True))
    ledger.run_round()
    ledger.run_round()
    assert ledger.check() == (True, 0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_trace_counts_repeat_and_patches_come_off(name):
    ledger = Ledger(workloads.build(name, seed=4, toy=True))
    originals = (theorems.verify_main2, hilbert.kernel_matrix, theorems.kernel_matrix)
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            ledger.run_round()
        finally:
            tracer.remove()
        metrics = tracer.round_metrics()
        counts.append({k: metrics[k] for k in COUNTS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert (theorems.verify_main2, hilbert.kernel_matrix, theorems.kernel_matrix) == originals
    assert ledger.check() == (True, 0)


def test_rounds_start_with_empty_memo_caches():
    poly.monomials_upto(3, 1, 1)
    _reset_between_rounds()
    assert poly.monomials_upto.cache_info().currsize == 0


def _subsets(n: int, sizes) -> list[tuple[int, ...]]:
    return [
        tuple(1 if i in c else 0 for i in range(n))
        for k in sizes
        for c in combinations(range(n), k)
    ]


def test_kernel_check_rejects_wrong_kernels():
    points = _subsets(7, [3])[::2]
    kernel, monos = hilbert.kernel_matrix(points, 2, 3, 1)
    oracle.check_kernel(points, 2, 3, kernel, monos)
    bad = kernel.copy()
    bad[0, np.nonzero(bad[0])[0][0]] += 1
    with pytest.raises(oracle.CheckError):
        oracle.check_kernel(points, 2, 3, bad % 3, monos)
    with pytest.raises(oracle.CheckError):
        oracle.check_kernel(points, 2, 3, kernel[1:], monos)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_sympy(p):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(p)
    rng = np.random.default_rng(p)
    matrices = [rng.integers(0, p, size=shape) for shape in [(6, 9), (12, 7), (15, 15), (20, 12)]]
    for m in matrices:
        m[-1] = (m[0] + 2 * m[1]) % p
    points = _subsets(8, [4])
    picks = rng.choice(len(points), size=30, replace=False)
    matrices.append(oracle.evaluation_matrix([points[i] for i in sorted(picks)], _subsets(8, range(3))))
    for m in matrices:
        dm = DomainMatrix([[field(int(v)) for v in row] for row in m], m.shape, field)
        assert oracle.rank_mod(m, p) == dm.rank()


@pytest.mark.parametrize("n,d,q,p", [(6, 0, 2, 2), (6, 1, 4, 2), (7, 2, 3, 3), (8, 0, 4, 2), (6, 3, 5, 5)])
def test_modq_closed_form_matches_brute_force_rank(n, d, q, p):
    points = _subsets(n, [k for k in range(n + 1) if k % q == d % q])
    series = []
    for m in range(n + 1):
        series.append(oracle.rank_mod(oracle.evaluation_matrix(points, _subsets(n, range(m + 1))), p))
        if series[-1] == len(points):
            break
    assert tuple(series) == oracle.modq_series(n, d, q)


def test_n8_minimum_table_matches_exhaustive_search():
    for L, want in oracle.N8_MINIMUM.items():
        assert exhaustive_min.minimum_size(8, L, want + 1) == want


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "balance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
