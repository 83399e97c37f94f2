"""Claim drivers: statuses, metrics, witnesses, cross-implications."""

import json
import tracemalloc
from itertools import combinations, product
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbfam import gflinalg, hilbert, theorems
from hilbfam.gflinalg import Rref, matmul_mod
from hilbfam.hilbert import (
    _eval_rows,
    hilbert_value,
    kernel_matrix,
    modq_value,
    nested_kernel,
    vector_to_polynomial,
    wilson_value,
)
from hilbfam.poly import monomial_table, monomials_upto
from hilbfam.setfam import (
    EnumerationCapError,
    binomial,
    family_points,
    family_sizes,
    make_modq_family,
    make_uniform_family,
)
from hilbfam.theorems import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    GridInstance,
    _vanishing_witness,
    verify_grid_remark,
    verify_hlemma,
    verify_hrubes,
    verify_ideal_truncation_equality,
    verify_main2,
    verify_main_pair,
)


class TestIdealTruncationEquality:
    def test_uniform_vs_modq_6_3(self):
        f = make_uniform_family(6, 3).points()
        g = make_modq_family(6, 3, 3).points()
        rep = verify_ideal_truncation_equality(f, g, 2, 3, 1)
        assert rep.status == PASS
        assert rep.metrics["h_f"] == 15
        assert rep.metrics["h_g"] == 15
        assert rep.metrics["ideal_dim_f"] == 7
        assert rep.metrics["matrix_shape_g"] == [22, 22]

    def test_unequal_hilbert_values_not_applicable(self):
        rep = verify_ideal_truncation_equality([(0,)], [(0,), (1,)], 1, 2, 1)
        assert rep.status == NOT_APPLICABLE
        assert rep.metrics["h_f"] == 1
        assert rep.metrics["h_g"] == 2

    def test_equal_point_sets_pass_vacuously(self):
        pts = make_uniform_family(4, 2).points()
        rep = verify_ideal_truncation_equality(pts, pts, 2, 2, 1)
        assert rep.status == PASS

    def test_non_nested_inputs_rejected(self):
        with pytest.raises(ValueError):
            verify_ideal_truncation_equality([(1, 0)], [(0, 1)], 1, 2, 1)

    def test_interpretation_recorded(self):
        pts = make_uniform_family(3, 1).points()
        rep = verify_ideal_truncation_equality(pts, pts, 1, 2, 1)
        assert rep.params["point_interpretation"] == "finite point subsets of F_p^n"


def small_blocks():
    """Blocks of 3 rows, so F and the rows of G outside F span several."""
    return mock.patch.object(hilbert, "_BLOCK_ROWS", 3)


class TestNestedOneElimination:
    """h_g comes from F's reducer; it must equal h(G) computed on its own."""

    def check(self, f, g, m, p, cap=1):
        with small_blocks():
            rep = verify_ideal_truncation_equality(f, g, m, p, cap)
        assert rep.metrics["h_g"] == hilbert_value(g, m, p, cap)
        assert rep.metrics["h_f"] == hilbert_value(f, m, p, cap)
        return rep

    def test_g_equals_f(self):
        pts = make_uniform_family(5, 2).points()
        assert self.check(pts, pts, 2, 3).status == PASS

    def test_g_repeats_points_of_f(self):
        f = make_uniform_family(4, 2).points()
        g = f + f[:3] + make_uniform_family(4, 0).points() + f[:2]
        rep = self.check(f, g, 1, 2)
        assert rep.metrics["matrix_shape_g"] == [len(g), 5]

    def test_not_applicable_pair(self):
        f = make_uniform_family(5, 2).points()
        g = make_modq_family(5, 2, 2).points()
        rep = self.check(f, g, 3, 2)
        assert rep.status == NOT_APPLICABLE
        assert rep.metrics["h_f"] != rep.metrics["h_g"]

    def test_f_not_inside_g_rejected(self):
        with small_blocks(), pytest.raises(ValueError, match="contained"):
            verify_ideal_truncation_equality([(1, 0)], [(0, 1)], 1, 2, 1)

    def test_containment_checked_mod_p_by_nested_kernel(self):
        with pytest.raises(ValueError, match="contained"):
            nested_kernel(np.array([[1, 0]]), np.array([[0, 1], [0, 0]]), 1, 2, 1)
        with pytest.raises(ValueError, match="contained"):
            nested_kernel([(1, 0, 0)], [(1, 0)], 1, 2, 1)
        _, _, h_g = nested_kernel([(3, 1)], [(0, 1), (1, 1)], 1, 3, 2)
        assert h_g == 2

    def test_g_validated_as_a_whole(self):
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            verify_ideal_truncation_equality([(0, 1)], [(0, 1), (1,)], 1, 2, 1)
        with pytest.raises(ValueError, match="0/1-valued"):
            verify_ideal_truncation_equality([(0, 1)], [(0, 1), (2, 0)], 1, 3, 1)

    @given(st.integers(1, 5), st.sampled_from([2, 3, 5]), st.integers(0, 4),
           st.randoms(use_true_random=False))
    def test_random_nested_binary_sets(self, n, p, m, rng):
        cube = list(product((0, 1), repeat=n))
        g = rng.sample(cube, rng.randrange(1, len(cube) + 1))
        f = rng.sample(g, rng.randrange(1, len(g) + 1))
        self.check(f, g + f[:2], m, p)

    @given(st.integers(1, 5), st.sampled_from([2, 3, 5]), st.integers(0, 4),
           st.randoms(use_true_random=False))
    def test_array_input_matches_tuples(self, n, p, m, rng):
        cube = list(product((0, 1), repeat=n))
        g = rng.sample(cube, rng.randrange(1, len(cube) + 1))
        f = rng.sample(g, rng.randrange(1, len(g) + 1))
        want = verify_ideal_truncation_equality(f, g, m, p, 1).as_dict()
        assert verify_ideal_truncation_equality(np.array(f), np.array(g), m, p, 1).as_dict() == want

    def test_grid_remark_h_g(self):
        grid = GridInstance(5, 2, ((0, 1, 3), (2, 4)), (3, 4))
        with small_blocks():
            rep = verify_grid_remark(grid)
        assert rep.status == PASS
        assert rep.metrics["h_g"] == hilbert_value(grid.grid_points(), rep.params["m"], 5, 4) == 5


class TestMain2:
    def test_6_3_3_3(self):
        rep = verify_main2(6, 3, 3, 3)
        assert rep.status == PASS
        assert rep.metrics["kernel_dim"] == 7
        assert rep.metrics["points_modq"] == 22

    def test_4_2_2_2_single_kernel_polynomial(self):
        rep = verify_main2(4, 2, 2, 2)
        assert rep.status == PASS
        assert rep.metrics["kernel_dim"] == 1

    def test_out_of_range_not_applicable(self):
        rep = verify_main2(4, 1, 4, 2)
        assert rep.status == NOT_APPLICABLE
        assert not rep.params["in_range"]

    def test_force_runs_empirically_but_stays_not_applicable(self):
        rep = verify_main2(4, 1, 4, 2, force=True)
        assert rep.status == NOT_APPLICABLE
        assert "vanishes_outside_range" in rep.metrics

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            verify_main2(6, 3, 6, 3)
        with pytest.raises(ValueError):
            verify_main2(6, 3, 3, 4)

    def test_spun_report_and_kernel_equal_streamed(self, monkeypatch):
        spun = verify_main2(17, 8, 2, 2).as_dict()
        spun_rref, *spun_rest = hilbert.family_rref(17, (8,), 1, 2)
        real = hilbert._feed_family
        monkeypatch.setattr(hilbert, "_feed_family", lambda *args: real(*args, spin=False))
        assert verify_main2(17, 8, 2, 2).as_dict() == spun
        streamed_rref, *streamed_rest = hilbert.family_rref(17, (8,), 1, 2)
        assert np.array_equal(spun_rref.kernel(2), streamed_rref.kernel(2))
        assert spun_rest == streamed_rest

    def test_sweep_small_parameters(self):
        for (p, q) in [(2, 2), (3, 3)]:
            for n in range(1, 7):
                for d in range(q - 1, n - q + 2):
                    assert verify_main2(n, d, q, p).status == PASS


def in_range_cases(p_max, n_max):
    for p in (2, 3, 5):
        if p > p_max:
            continue
        q = p
        while q <= n_max:
            for n in range(1, n_max + 1):
                for d in range(q - 1, n - q + 2):
                    yield n, d, q, p
            q *= p


class TestMainPair:
    """One elimination and one scan must give both standalone reports."""

    def test_matches_standalone_drivers(self):
        cases = list(in_range_cases(5, 9))
        assert len(cases) == 70
        for n, d, q, p in cases:
            main, main2 = verify_main_pair(n, d, q, p)
            want = verify_ideal_truncation_equality(
                family_points(n, d), family_points(n, d, q), q - 1, p, 1
            )
            assert main.as_dict() == want.as_dict(), (n, d, q, p)
            assert main2.as_dict() == verify_main2(n, d, q, p).as_dict(), (n, d, q, p)

    @pytest.mark.parametrize("n, d, q, p", [(4, 1, 4, 2), (6, 1, 3, 3), (5, 0, 2, 2), (7, 7, 3, 3)])
    def test_out_of_range_matches_forced_drivers(self, n, d, q, p):
        main, main2 = verify_main_pair(n, d, q, p)
        want = verify_ideal_truncation_equality(
            family_points(n, d), family_points(n, d, q), q - 1, p, 1
        )
        assert main.as_dict() == want.as_dict()
        assert main2.as_dict() == verify_main2(n, d, q, p, force=True).as_dict()
        assert main2.status == NOT_APPLICABLE

    @pytest.mark.parametrize("cap, count", [(10_000, 12870), (20_000, 32768)])
    def test_cap_refusal_names_the_uniform_family_first(self, monkeypatch, cap, count):
        monkeypatch.setenv("HILBFAM_ENUM_CAP", str(cap))
        for run in (verify_main2, verify_main_pair):
            with pytest.raises(EnumerationCapError, match=f"contain {count} sets"):
                run(16, 8, 2, 2)

    def test_invalid_inputs_rejected_like_main2(self):
        for args in [(6, 3, 6, 3), (6, 3, 3, 4), (4, 5, 2, 2)]:
            with pytest.raises(ValueError):
                verify_main2(*args)
            with pytest.raises(ValueError):
                verify_main_pair(*args)

    def test_shared_witness_fails_both(self, monkeypatch):
        witness = {"polynomial": "x1", "point": [1, 0, 0, 0, 0, 0], "value": 1}
        monkeypatch.setattr(theorems, "_vanishing_witness", lambda *args: witness)
        main, main2 = verify_main_pair(6, 3, 3, 3)
        assert main.status == main2.status == FAIL
        assert main.witnesses == main2.witnesses == witness

    def test_unequal_h_g_drops_main_witness_but_main2_still_scans(self, monkeypatch):
        real_family = theorems.family_rref

        def shifted(*args):
            rref, monos, h_g = real_family(*args)
            return rref, monos, h_g + 1

        scan = mock.Mock(wraps=theorems._vanishing_witness)
        monkeypatch.setattr(theorems, "family_rref", shifted)
        monkeypatch.setattr(theorems, "_vanishing_witness", scan)
        main, main2 = verify_main_pair(6, 3, 3, 3)
        assert main.status == NOT_APPLICABLE
        assert main.metrics["reason"] == "hilbert values differ"
        assert main.witnesses is None
        assert main.metrics["h_g"] == main.metrics["h_f"] + 1
        assert main2.status == PASS
        assert scan.call_count == 1
        # One seed row per mod-q level, not every mod-q point.
        assert len(scan.call_args.args[2]) == len(family_sizes(6, 3, 3))


class TestHrubes:
    def test_p2(self):
        rep = verify_hrubes(2)
        assert rep.status == PASS
        assert rep.metrics["kernel_dim"] == 1

    def test_p3(self):
        rep = verify_hrubes(3)
        assert rep.status == PASS
        assert rep.metrics == {"points": 20, "monomials": 22, "h": 15, "kernel_dim": 7}

    def test_p4_rejected(self):
        with pytest.raises(ValueError):
            verify_hrubes(4)

    def test_fail_witness_from_row_0_of_r(self, monkeypatch):
        # Nonzero entries in row 0 of R make kernel rows 2 and 4 nonzero at
        # the constant monomial; the witness is the first of them, as the
        # canonical kernel's column 0 gives it, at the origin.
        p = 3
        real = theorems.family_rref(2 * p, (p,), p - 1, p)
        rows = real[0].rows.copy()
        rows[0, [2, 4]] = [1, 2]
        monkeypatch.setattr(theorems, "family_rref", lambda *args: (real[0]._replace(rows=rows), *real[1:]))
        rep = verify_hrubes(p)
        kernel = real[0]._replace(rows=rows).kernel(p)
        bad = np.flatnonzero(kernel[:, 0])
        assert bad.tolist() == [2, 4]
        assert rep.status == FAIL
        assert rep.witnesses == {
            "polynomial": str(vector_to_polynomial(kernel[2], real[1], p)),
            "point": [0] * (2 * p),
            "value": int(kernel[2, 0]),
        }
        assert rep.witnesses["value"] == 2
        assert rep.metrics == {"points": 20, "monomials": 22, "h": 15, "kernel_dim": 7}


class TestHlemma:
    def test_p2(self):
        rep = verify_hlemma(2)
        assert rep.status == PASS
        assert rep.metrics["points_lower"] == 70
        assert rep.metrics["monomials"] == 9
        assert rep.metrics["kernel_dim"] == 1

    def test_p3_matrix_shape(self):
        rep = verify_hlemma(3)
        assert rep.status == PASS
        assert rep.metrics["points_lower"] == 924
        assert rep.metrics["monomials"] == 79

    def test_p6_rejected(self):
        with pytest.raises(ValueError):
            verify_hlemma(6)

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setenv("HILBFAM_ENUM_CAP", "100")
        with pytest.raises(EnumerationCapError):
            verify_hlemma(3)

    def test_implied_by_main2(self):
        # 3p = 2p mod p, so the mod-p driver at (4p, 2p, p) covers this claim.
        for p in (2, 3):
            assert verify_main2(4 * p, 2 * p, p, p).status == PASS
            assert verify_hlemma(p).status == PASS


class TestGridRemark:
    def test_p3_line(self):
        rep = verify_grid_remark(GridInstance(3, 1, ((0, 1, 2),), (0,)))
        assert rep.status == PASS
        assert rep.params["m"] == 1
        assert rep.metrics["h_f"] == 2
        assert rep.metrics["h_g"] == 2
        assert rep.metrics["kernel_dim"] == 0

    def test_p2_square(self):
        rep = verify_grid_remark(GridInstance(2, 2, ((0, 1), (0, 1)), (0, 0)))
        assert rep.status == PASS
        assert rep.params["m"] == 1
        assert rep.metrics["h_f"] == 3

    def test_p3_rectangle(self):
        rep = verify_grid_remark(GridInstance(3, 2, ((0, 1), (0, 1, 2)), (1, 2)))
        assert rep.status == PASS
        assert rep.params["m"] == 2
        assert rep.metrics["h_f"] == 5

    def test_w_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            GridInstance(3, 2, ((0, 1), (0, 1)), (0, 2))

    def test_singleton_coordinate_set_rejected(self):
        with pytest.raises(ValueError):
            GridInstance(3, 1, ((1,),), (1,))

    def test_exhaustive_small_grids(self):
        for p in (2, 3):
            sizes = [c for k in (2, 3) if k <= p for c in combinations(range(p), k)]
            for n in (1, 2):
                for sets in product(sizes, repeat=n):
                    for w in product(*sets):
                        rep = verify_grid_remark(GridInstance(p, n, sets, w))
                        assert rep.status == PASS, (p, n, sets, w)


def kernel_scan_main2(n, d, q, p):
    """Status, metrics and witness of ``verify_main2(n, d, q, p, force=True)``
    by the kernel-based scan: the canonical kernel of the d-level from
    ``kernel_matrix``, and every mod-q point (one block: n <= 10 gives at
    most 1024) evaluated on all of it with ``_eval_rows`` and
    ``matmul_mod``; the witness is the first nonzero (point, kernel row)."""
    uniform, modq = family_points(n, d), family_points(n, d, q)
    kernel, monos = kernel_matrix(uniform, q - 1, p, 1)
    values = matmul_mod(_eval_rows(modq, np.array(monos), p, 1), kernel.T, p)
    witness = None
    if values.any():
        i, j = np.argwhere(values)[0]
        witness = {
            "polynomial": str(vector_to_polynomial(kernel[j], np.array(monos), p)),
            "point": modq[i].tolist(),
            "value": int(values[i, j]),
        }
    metrics = {
        "h_uniform": len(monos) - len(kernel),
        "kernel_dim": len(kernel),
        "monomials": len(monos),
        "points_uniform": len(uniform),
        "points_modq": len(modq),
    }
    status = PASS if witness is None else FAIL
    if not q - 1 <= d <= n - q + 1:
        metrics["vanishes_outside_range"] = witness is None
        status = NOT_APPLICABLE
    return status, metrics, witness


class TestResidueScanOracle:
    def test_forced_main2_sweep_matches_kernel_scan(self):
        cases = witnesses = 0
        for q, p in [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (5, 5)]:
            for n in range(1, 11):
                for d in range(n + 1):
                    rep = verify_main2(n, d, q, p, force=True)
                    want = kernel_scan_main2(n, d, q, p)
                    assert (rep.status, rep.metrics, rep.witnesses) == want, (n, d, q, p)
                    cases += 1
                    witnesses += want[2] is not None
        assert (cases, witnesses) == (390, 138)


@pytest.fixture
def eliminations(monkeypatch):
    """Every (rref, monos, h) that ``theorems.family_rref`` returns, in
    call order."""
    seen = []
    real = theorems.family_rref

    def record(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(theorems, "family_rref", record)
    return seen


def audit_main2(eliminations, n_max):
    """(cases, witnesses) over every forced MAIN2 with n <= n_max, p in 2,
    3, 5 and 7 and q a power of p up to 9, asserting that each report's
    witness is the one a scan of every mod-q point finds against the RREF
    the driver eliminated."""
    cases = witnesses = 0
    for q, p in [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (5, 5), (7, 7)]:
        for n in range(1, n_max + 1):
            for d in range(n + 1):
                witness = verify_main2(n, d, q, p, force=True).witnesses
                rref, monos, _ = eliminations.pop()
                full = _vanishing_witness(rref, monos, family_points(n, d, q), p, 1)
                assert witness == full, (n, d, q, p)
                cases += 1
                witnesses += witness is not None
    return cases, witnesses


def audit_hlemma(eliminations, p):
    """HLEMMA's report, asserting that its witness is the one a scan of
    every 3p-subset of [4p] finds against the RREF the driver eliminated."""
    report = verify_hlemma(p)
    rref, monos, _ = eliminations.pop()
    assert report.witnesses == _vanishing_witness(rref, monos, family_points(4 * p, 3 * p), p, 1)
    return report


class TestSeedScanAudit:
    """The drivers scan each checked level at its first point only; a scan
    of every point of the family must give the same witness, FAILs
    included."""

    def test_forced_main2_up_to_n10(self, eliminations):
        assert audit_main2(eliminations, 10) == (455, 158)

    @pytest.mark.parametrize("p", [2, 3])
    def test_hlemma(self, eliminations, p):
        assert audit_hlemma(eliminations, p).status == PASS

    @pytest.mark.extended
    def test_forced_main2_up_to_n12(self, eliminations):
        assert audit_main2(eliminations, 12) == (630, 252)

    @pytest.mark.extended
    def test_hlemma_p5(self, eliminations):
        assert audit_hlemma(eliminations, 5).status == PASS


class TestCrossImplications:
    def test_main_chain_implies_main2(self):
        # Truncation equality plus closed-form equality forces the mod-q
        # vanishing claim; assert the implication on concrete parameters.
        for (p, q) in [(2, 2), (2, 4), (3, 3)]:
            for n in range(2 * q - 2, 8):
                for d in range(q - 1, n - q + 2):
                    f = make_uniform_family(n, d).points()
                    g = make_modq_family(n, d, q).points()
                    main = verify_ideal_truncation_equality(f, g, q - 1, p, 1)
                    closed_equal = wilson_value(n, d, q - 1) == modq_value(n, d, q, q - 1)
                    main2 = verify_main2(n, d, q, p)
                    assert main.status == PASS and closed_equal
                    assert main2.status == PASS


def traced_peak(run):
    """`run()` and the peak of the memory tracemalloc sees it allocate."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The elimination and the witness scan of verify_main2(13, 6, 5, 5)
    hold R and one chunk at a time, not a whole block in the working dtype.
    tracemalloc counts numpy's allocations, wherever glibc places them."""

    n, d, q, p = 13, 6, 5, 5

    def test_elimination(self):
        monos = monomials_upto(self.n, self.q - 1, 1)
        cols, points = len(monos), binomial(self.n, self.d)
        (rref, _, _), peak = traced_peak(lambda: hilbert.family_rref(self.n, (self.d,), self.q - 1, self.p))
        assert rref.rows.dtype == np.float32
        # The store reserved for R (calloc'd, so only R's pages are
        # touched), the bool rows of the one streamed block, one chunk and
        # the temporaries of a few panels; a float32 copy of the whole
        # block would not fit in what is left.
        store = min(points * cols, cols * cols // 3 + cols) * 4
        panels = 6 * gflinalg._PANEL * cols * 4
        bound = store + points * cols + gflinalg._CHUNK_BYTES + panels
        assert peak <= bound < peak + points * cols * 4

    def test_scan(self):
        rref, monos, _ = hilbert.family_rref(self.n, (self.d,), self.q - 1, self.p)
        modq = family_points(self.n, self.d, self.q)
        witness, peak = traced_peak(lambda: theorems._vanishing_witness(rref, monos, modq, self.p, 1))
        assert witness is None
        # Float32 evaluations of all 1807 points would not fit.
        bound = rref.rows.nbytes + gflinalg._CHUNK_BYTES
        assert peak <= bound < peak + modq.shape[0] * len(monos) * 4

    def test_wide_mod2_family(self):
        # The 65 536 points of the mod-2 family over [17], one byte per
        # coordinate (1.1 MB); as int64 they took 8.9 MB.
        report, peak = traced_peak(lambda: verify_main2(17, 8, 2, 2))
        assert report.status == "PASS" and report.metrics["points_modq"] == 2**16
        assert peak < 5 * 2**20


class TestWitnessMachinery:
    """The residue scan on fixtures written as (R, pivots, free)."""

    def test_nonvanishing_kernel_row_is_reported(self):
        # Constant polynomial 1 never vanishes; the helper must surface
        # the first offending (polynomial, point) pair with its value.
        # Its RREF is x1 and x2 as pivots, with R zero on the free column 1.
        monos = ((0, 0), (0, 1), (1, 0))
        rref = Rref(np.zeros((2, 1), dtype=np.float32), np.array([1, 2]), np.array([0]))
        assert rref.kernel(2).tolist() == [[1, 0, 0]]
        witness = _vanishing_witness(rref, np.array(monos), np.array([(0, 0), (1, 1)]), 2, 1)
        assert witness == {"polynomial": "1", "point": [0, 0], "value": 1}

    @pytest.mark.parametrize("p", [3, 1009])
    def test_first_pair_past_the_first_block_and_the_first_row(self, monkeypatch, p):
        # The odd-size subsets of [13], 4096 points over two scan blocks of
        # 2048; the first block is every subset holding 1.  Each kernel row is
        # +-(1 - x1) * x_k, zero on the first block, normalised to 1 at its
        # free column: x13 - x1*x13 (free x13, the first column past the
        # constant) and x1*x_k - x_k for k = 4, 3 (free x1*x4 < x1*x3).
        # Row 0 is nonzero first at a later point than rows 1 and 2, which
        # both are at {2, 3, 4}, so the witness is row 1 there, value p-1.
        # Every pivot column's R entry is 0 but the partner's, which is 1.
        # p = 1009 multiplies in float64, p = 3 in float32.
        n, m = 13, 2
        points = family_points(n, 1, 2)
        assert len(points) > hilbert._BLOCK_ROWS
        monos = monomials_upto(n, m, 1)
        column = {mono: j for j, mono in enumerate(monos)}

        def unit(*coords):
            return column[tuple(int(i in coords) for i in range(1, n + 1))]

        pairs = [(unit(13), unit(1, 13)), (unit(1, 4), unit(4)), (unit(1, 3), unit(3))]
        free = np.array([f for f, _ in pairs])
        assert list(free) == sorted(free)
        pivots = np.setdiff1d(np.arange(len(monos)), free)
        rows = np.zeros((pivots.size, free.size), dtype=np.int64)
        for j, (_, partner) in enumerate(pairs):
            rows[np.searchsorted(pivots, partner), j] = 1
        kernel = np.zeros((3, len(monos)), dtype=np.int64)
        for j, (f, partner) in enumerate(pairs):
            kernel[j, f] = 1
            kernel[j, partner] = p - 1
        rref = Rref(rows, pivots, free)
        assert np.array_equal(rref.kernel(p), kernel)
        monkeypatch.setattr(theorems, "chunk_rows", lambda *sizes: hilbert._BLOCK_ROWS)
        witness = _vanishing_witness(rref, monomial_table(n, m, 1), points, p, 1)

        expected = None
        for i, pt in enumerate(points.tolist()):
            for j, row in enumerate(kernel.tolist()):
                terms = (c * prod(pow(x, e, p) for x, e in zip(pt, mono)) for c, mono in zip(row, monos) if c)
                value = sum(terms) % p
                if value:
                    expected = (i, j, {
                        "polynomial": str(vector_to_polynomial(kernel[j], np.array(monos), p)),
                        "point": pt,
                        "value": value,
                    })
                    break
            if expected:
                break
        i, j, body = expected
        assert i >= hilbert._BLOCK_ROWS and j == 1 and body["value"] == p - 1
        assert witness == body

    def test_empty_kernel_has_no_witness(self):
        rref = Rref(np.zeros((3, 0), dtype=np.float32), np.arange(3), np.arange(0))
        assert _vanishing_witness(rref, np.array([(0, 0), (0, 1), (1, 0)]), np.array([(0, 0)]), 2, 1) is None

    def test_fail_witness_reverifies(self):
        # Fabricate a failing check by feeding a kernel vector that is not
        # actually in the kernel of the larger point set.
        f = [(0, 0)]
        g = [(0, 0), (1, 1)]
        rep = verify_ideal_truncation_equality(f, g, 0, 2, 1)
        # h_f(0) = h_g(0) = 1 and the degree-0 kernel of f is empty: PASS.
        assert rep.status == PASS


class TestReportSerialization:
    def test_stable_json_body(self):
        rep = verify_hrubes(3)
        body = rep.as_dict()
        assert list(body) == ["claim", "params", "status", "witnesses", "metrics"]
        again = verify_hrubes(3)
        assert json.dumps(body) == json.dumps(again.as_dict())

    def test_timing_opt_in(self):
        rep = verify_hrubes(2)
        assert "wall_time_ms" not in rep.as_dict()
        assert "wall_time_ms" in rep.as_dict(include_timing=True)
        assert rep.wall_time_ms >= 0
