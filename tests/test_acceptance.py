"""Acceptance criteria, one test per criterion.

All arithmetic is exact (integers or F_p), so every comparison is
equality with tolerance zero.  Each test prints one PASS/FAIL line;
stated wall-clock budgets are asserted alongside the math.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time
from itertools import combinations, product

import pytest

from hilbfam.balancing import BalancingInstance, check_lower_bound, min_balancing_size, witness_poly
from hilbfam.gflinalg import FpMatrix, kernel_basis, rank_mod_p
from hilbfam.hilbert import (
    hilbert_series,
    hilbert_value,
    ideal_truncation_basis,
    modq_value,
    wilson_value,
)
from hilbfam.poly import Polynomial, evaluate, multilinear_reduce
from hilbfam.setfam import Subset, binomial, char_vector, make_modq_family, make_uniform_family
from hilbfam.theorems import (
    NOT_APPLICABLE,
    PASS,
    GridInstance,
    verify_grid_remark,
    verify_hlemma,
    verify_hrubes,
    verify_ideal_truncation_equality,
    verify_main2,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def report(number, name, ok, elapsed):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_wilson_consistency():
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        for d in range(n + 1):
            points = make_uniform_family(n, d).points()
            for p in (2, 3, 5):
                for m in range(min(d, n - d) + 1):
                    if hilbert_value(points, m, p, 1) != binomial(n, m):
                        ok = False
    elapsed = time.perf_counter() - start
    report(1, "wilson consistency", ok and elapsed < 60, elapsed)


def test_criterion_02_modq_closed_form():
    start = time.perf_counter()
    ok = True
    for p, q in ((2, 2), (2, 4), (3, 3)):
        for n in range(1, 9):
            for d in range(n + 1):
                points = make_modq_family(n, d, q).points()
                for m in range(n + 1):
                    if modq_value(n, d, q, m) != hilbert_value(points, m, p, 1):
                        ok = False
    elapsed = time.perf_counter() - start
    report(2, "mod-q closed form", ok and elapsed < 120, elapsed)


def _main2_parameters():
    for p, q in ((2, 2), (2, 4), (3, 3)):
        for n in range(1, 10):
            for d in range(q - 1, n - q + 2):
                yield p, q, n, d


def test_criterion_03_main2_sweep():
    start = time.perf_counter()
    ok = all(verify_main2(n, d, q, p).status == PASS for p, q, n, d in _main2_parameters())
    elapsed = time.perf_counter() - start
    report(3, "mod-q vanishing sweep", ok and elapsed < 120, elapsed)


def test_criterion_04_hrubes():
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        t0 = time.perf_counter()
        rep = verify_hrubes(p)
        dt = time.perf_counter() - t0
        if rep.status != PASS:
            ok = False
        if p == 5:
            if rep.metrics["points"] != 252 or rep.metrics["monomials"] != 386:
                ok = False
            if dt >= 5:
                ok = False
    elapsed = time.perf_counter() - start
    report(4, "origin-value degree bound", ok, elapsed)


def test_criterion_05_hlemma():
    start = time.perf_counter()
    ok = True
    for p in (2, 3):
        t0 = time.perf_counter()
        rep = verify_hlemma(p)
        dt = time.perf_counter() - t0
        if rep.status != PASS:
            ok = False
        if p == 3:
            if rep.metrics["points_lower"] != 924 or rep.metrics["monomials"] != 79:
                ok = False
            if dt >= 5:
                ok = False
    elapsed = time.perf_counter() - start
    report(5, "2p-vs-3p degree bound", ok, elapsed)


@pytest.mark.extended
def test_criterion_05_extended_hlemma_p5():
    start = time.perf_counter()
    rep = verify_hlemma(5)
    elapsed = time.perf_counter() - start
    report(5, "2p-vs-3p degree bound, p=5 extended", rep.status == PASS and elapsed < 120, elapsed)


def test_criterion_06_truncation_equality_chain():
    start = time.perf_counter()
    ok = True
    for p, q, n, d in _main2_parameters():
        uniform = make_uniform_family(n, d).points()
        modq = make_modq_family(n, d, q).points()
        main = verify_ideal_truncation_equality(uniform, modq, q - 1, p, 1)
        closed_equal = wilson_value(n, d, q - 1) == modq_value(n, d, q, q - 1)
        main2_pass = verify_main2(n, d, q, p).status == PASS
        if main.status != PASS or not closed_equal:
            ok = False
        # The chain is the proof: truncation equality at degree q-1 plus
        # the closed-form equality forces the mod-q vanishing claim.
        if (main.status == PASS and closed_equal) and not main2_pass:
            ok = False
    elapsed = time.perf_counter() - start
    report(6, "truncation-equality chain", ok, elapsed)


def test_criterion_07_grid_remark():
    start = time.perf_counter()
    ok = True
    for p in (2, 3):
        value_sets = [
            tuple(c) for size in (2, 3) if size <= p for c in combinations(range(p), size)
        ]
        for n in (1, 2, 3):
            for sets in product(value_sets, repeat=n):
                for w in product(*sets):
                    rep = verify_grid_remark(GridInstance(p, n, sets, w))
                    expected = 1
                    for t in rep.params["sizes"]:
                        expected *= t
                    if rep.status != PASS:
                        ok = False
                    if rep.metrics["h_f"] != expected - 1 or rep.metrics["h_g"] != expected - 1:
                        ok = False
    elapsed = time.perf_counter() - start
    report(7, "punctured-grid equality", ok, elapsed)


def test_criterion_08_balancing_bound_and_tightness():
    start = time.perf_counter()
    ok = True

    result = min_balancing_size(4, (1,), 3)
    if result.minimum_size != 2 or result.minimum_size != 4 // (2 * 1):
        ok = False

    n = 6
    d_subsets = list(combinations(range(1, n + 1), 3))
    pool = [Subset(c) for k in range(1, n) for c in combinations(range(1, n + 1), k)]
    full_coverage = (1 << len(d_subsets)) - 1
    for L in ((1,), (2,), (1, 2)):
        s = len(L)
        targets = set(L)
        # Coverage bitmap per candidate member: bit i set iff the member
        # meets the i-th 3-subset in a size from L.  A family balances
        # iff the OR of its members' bitmaps is all-ones, so exhausting
        # all families of size <= 3 is three nested loops over ints.
        bitmaps = [
            sum(
                1 << i
                for i, combo in enumerate(d_subsets)
                if len(set(combo) & set(g.members)) in targets
            )
            for g in pool
        ]
        for size in range(1, 4):
            if 2 * s * size >= n:
                continue
            for chosen in combinations(bitmaps, size):
                acc = 0
                for b in chosen:
                    acc |= b
                if acc == full_coverage:
                    ok = False

        found = min_balancing_size(n, L, 3)
        if found.minimum_size is None or 2 * s * found.minimum_size < n:
            ok = False
            continue
        inst = BalancingInstance(found.witness_family, L)
        if check_lower_bound(inst, 3).status != PASS:
            ok = False
        cert = witness_poly(inst, 3)
        if cert.degree > found.minimum_size * s:
            ok = False
        if evaluate(cert, (0,) * n) == 0:
            ok = False
        for combo in combinations(range(1, n + 1), 3):
            if evaluate(cert, char_vector(Subset(combo), n)) != 0:
                ok = False
    elapsed = time.perf_counter() - start
    report(8, "balancing bound and tightness", ok and elapsed < 60, elapsed)


def test_criterion_09_property_suites():
    start = time.perf_counter()
    rng = random.Random(271828)
    ok = True

    # Rank-nullity on random matrices.
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = FpMatrix.from_rows(
            [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p
        )
        if rank_mod_p(m) + len(kernel_basis(m)) != cols:
            ok = False

    # Hilbert monotonicity, stabilization, identity block.
    for _ in range(15):
        n = rng.randint(1, 7)
        d = rng.randint(0, n)
        p = rng.choice([2, 3, 5])
        points = make_uniform_family(n, d).points()
        series = hilbert_series(points, p, 1)
        if any(a > b for a, b in zip(series, series[1:])):
            ok = False
        if series[-1] != len(points) or len(series) - 1 > n:
            ok = False
        for m in range(d, n + 1):
            if hilbert_value(points, m, p, 1) != binomial(n, d):
                ok = False

    # Permutation invariance.
    for _ in range(10):
        n = rng.randint(2, 6)
        d = rng.randint(0, n)
        p = rng.choice([2, 3])
        m = rng.randint(0, n)
        points = make_uniform_family(n, d).points()
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [tuple(pt[i] for i in perm) for pt in points]
        if hilbert_value(points, m, p, 1) != hilbert_value(permuted, m, p, 1):
            ok = False

    # Multilinear reduction is value-preserving on the cube, n <= 10.
    for _ in range(5):
        n = rng.randint(2, 10)
        p = rng.choice([2, 3])
        terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(1, p - 1)
            for _ in range(6)
        }
        f = Polynomial.from_terms(p, n, terms)
        g = multilinear_reduce(f)
        for _ in range(40):
            x = tuple(rng.randint(0, 1) for _ in range(n))
            if evaluate(f, x) != evaluate(g, x):
                ok = False

    # Kernel polynomials vanish on their defining points.
    for _ in range(10):
        n = rng.randint(1, 6)
        d = rng.randint(0, n)
        p = rng.choice([2, 3])
        m = rng.randint(0, n)
        points = make_uniform_family(n, d).points()
        for f in ideal_truncation_basis(points, m, p, 1):
            for pt in points:
                if evaluate(f, pt) != 0:
                    ok = False

    elapsed = time.perf_counter() - start
    report(9, "property suites", ok, elapsed)


def test_criterion_10_cli_determinism():
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-m", "hilbfam", "verify", "all", "--p-max", "3", "--n-max", "7"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    body = json.loads(first.stdout)
    ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and body["summary"]["fail"] == 0
        and body["summary"]["total"] == body["summary"]["pass"]
    )
    elapsed = time.perf_counter() - start
    report(10, "batch output determinism", ok, elapsed)
