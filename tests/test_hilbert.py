"""Hilbert values, series, truncated-ideal bases and both closed forms."""

import math
import random
import tracemalloc
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfam import hilbert
from hilbfam.gflinalg import RowReducer
from hilbfam.hilbert import (
    HilbertReport,
    _eval_rows,
    family_rref,
    hilbert_series,
    hilbert_value,
    ideal_truncation_basis,
    kernel_matrix,
    modq_report,
    modq_value,
    uniform_report,
    wilson_value,
)
from hilbfam.poly import Polynomial, evaluate, monomial_table, monomials_upto
from hilbfam.setfam import (
    EnumerationCapError,
    binomial,
    family_points,
    family_sizes,
    make_modq_family,
    make_uniform_family,
)
from hilbfam.theorems import verify_ideal_truncation_equality
from test_gflinalg import echelon


def oracle_rank(rows, p):
    """Row reduction on plain lists; independent of the library engines."""
    m = [list(r) for r in rows]
    rank = 0
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c] % p, -1, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] % p:
                f = m[i][c] % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def oracle_hilbert(points, m, p, cap=1):
    """Build the evaluation matrix by direct monomial evaluation and
    rank it with the oracle eliminator."""
    n = len(points[0])
    monos = monomials_upto(n, m, cap)
    rows = []
    for pt in points:
        row = []
        for mono in monos:
            val = 1
            for x, e in zip(pt, mono):
                val = (val * pow(x, e, p)) % p
            row.append(val)
        rows.append(row)
    return oracle_rank(rows, p)


def eval_rows(points, m, p, cap):
    arr = np.asarray(points, dtype=np.int64)
    monos = monomials_upto(arr.shape[1], m, cap)
    return _eval_rows(arr, np.array(monos, dtype=np.int64), p, cap), monos


class TestEvaluationMatrix:
    def test_two_point_example(self):
        data, monos = eval_rows([(0, 0), (1, 1)], 1, 2, 1)
        assert data.tolist() == [[1, 0, 0], [1, 1, 1]]
        assert monos == ((0, 0), (0, 1), (1, 0))

    def test_single_origin_row(self):
        data, monos = eval_rows([(0, 0, 0)], 2, 3, 1)
        assert data[0].tolist() == [1] + [0] * (len(monos) - 1)

    def test_uniform_family_rows(self):
        points = make_uniform_family(4, 2).points()
        data, _ = eval_rows(points, 1, 3, 1)
        assert data.shape == (6, 5)
        for row in data:
            assert row[0] == 1
            assert int(row[1:].sum()) == 2

    def test_cap_one_rejects_non_binary_points(self):
        with pytest.raises(ValueError):
            hilbert_value([(0, 2)], 1, 3, 1)

    def test_empty_point_list_rejected(self):
        with pytest.raises(ValueError):
            hilbert_value([], 1, 2, 1)

    @given(st.sampled_from([3, 5, 7, 65537]), st.integers(1, 3), st.integers(0, 3),
           st.randoms(use_true_random=False))
    def test_power_path_matches_pow(self, p, n, m, rng):
        points = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(4)]
        data, monos = eval_rows(points, m, p, p - 1)
        assert data.dtype == np.int64
        expected = [
            [math.prod(pow(x, e, p) for x, e in zip(pt, mono)) % p for mono in monos]
            for pt in points
        ]
        assert data.tolist() == expected


def pow_reference(points, monos, p):
    """Each monomial evaluated by Python's pow, one point at a time."""
    return [[math.prod(pow(x, e, p) for x, e in zip(pt, mono)) % p for mono in monos] for pt in points]


class TestCapOneProduct:
    """The cap-1 path evaluates by one product over the exponent matrix;
    it must match term-by-term evaluation at any number of variables, and
    hand the 0/1 values on as bool, which the reducer takes as reduced."""

    @staticmethod
    def check(points, m, p):
        data, monos = eval_rows(points, m, p, 1)
        assert data.dtype == np.bool_
        assert data.tolist() == pow_reference(points, monos, p)
        # A block of one row answers as that row of the full block.
        one, _ = eval_rows(points[:1], m, p, 1)
        assert one.tolist() == data[:1].tolist()

    @given(st.integers(1, 8), st.integers(0, 4), st.integers(1, 6), st.sampled_from([2, 3, 5]),
           st.randoms(use_true_random=False))
    def test_matches_pow(self, n, m, rows, p, rng):
        points = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(rows)]
        self.check(points, m, p)

    @settings(max_examples=8)
    @given(st.sampled_from([63, 64]), st.integers(0, 2), st.integers(1, 3),
           st.randoms(use_true_random=False))
    def test_past_62_variables(self, n, m, rows, rng):
        points = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(rows)]
        self.check(points, m, 2)

    def test_all_ones_and_all_zeros_at_64_variables(self):
        data, monos = eval_rows([(1,) * 64, (0,) * 64], 2, 3, 1)
        assert data[0].tolist() == [1] * len(monos)
        assert data[1].tolist() == [1] + [0] * (len(monos) - 1)


class TestHilbertValue:
    def test_full_cube(self):
        points = list(product((0, 1), repeat=2))
        assert hilbert_value(points, 2, 2, 1) == 4

    def test_wilson_instance_c41(self):
        points = make_uniform_family(4, 2).points()
        assert hilbert_value(points, 1, 3, 1) == 4

    def test_single_point(self):
        for m in range(3):
            assert hilbert_value([(0, 1, 0)], m, 2, 1) == 1

    @given(st.integers(1, 6), st.integers(0, 6), st.sampled_from([2, 3, 5]),
           st.integers(0, 6))
    def test_matches_oracle_rank(self, n, d, p, m):
        if d > n or m > n:
            return
        points = make_uniform_family(n, d).points()
        assert hilbert_value(points, m, p, 1) == oracle_hilbert(points, m, p)


class TestHilbertSeries:
    def test_c42_series(self):
        # (1, 4, 6): frozen from oracle_hilbert at m = 0, 1, 2.
        points = make_uniform_family(4, 2).points()
        assert tuple(oracle_hilbert(points, m, 2) for m in range(3)) == (1, 4, 6)
        assert hilbert_series(points, 2, 1) == (1, 4, 6)

    def test_single_point(self):
        assert hilbert_series([(0, 0)], 3, 1) == (1,)

    def test_c21_series(self):
        points = make_uniform_family(2, 1).points()
        assert hilbert_series(points, 2, 1) == (1, 2)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            hilbert_series([(0, 1), (0, 1)], 2, 1)

    @given(st.integers(1, 6), st.integers(0, 6), st.sampled_from([2, 3]))
    def test_monotone_and_stabilizes_at_family_size(self, n, d, p):
        if d > n:
            return
        points = make_uniform_family(n, d).points()
        series = hilbert_series(points, p, 1)
        assert all(a <= b for a, b in zip(series, series[1:]))
        assert series[-1] == len(points)
        assert len(series) - 1 <= n


def series_by_values(points, p, cap):
    """The series by its definition: h(m) for m = 0, 1, ... until h = |points|."""
    values = []
    for m in range(len(points[0]) * cap + 1):
        values.append(hilbert_value(points, m, p, cap))
        if values[-1] == len(points):
            return tuple(values)
    raise AssertionError("no stabilization")


@st.composite
def binary_point_sets(draw):
    n = draw(st.integers(1, 5))
    codes = draw(st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=12))
    return [tuple((c >> i) & 1 for i in range(n)) for c in sorted(codes)]


@st.composite
def grid_point_sets(draw):
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 3))
    grid = list(product(range(p), repeat=n))
    picks = draw(st.sets(st.integers(0, len(grid) - 1), min_size=1, max_size=15))
    return p, [grid[i] for i in sorted(picks)]


class TestSeriesOneElimination:
    """The transposed one-reducer series against per-degree values, with
    blocks small enough that degree slices span several of them."""

    @given(binary_point_sets(), st.sampled_from([2, 3, 5]))
    def test_binary_points(self, points, p):
        with mock.patch.object(hilbert, "_BLOCK_ROWS", 3):
            assert hilbert_series(points, p, 1) == series_by_values(points, p, 1)

    @settings(max_examples=30)
    @given(grid_point_sets())
    def test_grid_subsets_at_cap_p_minus_1(self, case):
        p, points = case
        with mock.patch.object(hilbert, "_BLOCK_ROWS", 3):
            series = hilbert_series(points, p, p - 1)
            assert series == series_by_values(points, p, p - 1)
        assert series == tuple(oracle_hilbert(points, m, p, p - 1) for m in range(len(series)))

    def test_errors_unchanged(self):
        with pytest.raises(ValueError, match="at least one point"):
            hilbert_series([], 2, 1)
        with pytest.raises(ValueError, match="inconsistent dimensions"):
            hilbert_series([(0, 1), (1,)], 2, 1)
        with pytest.raises(ValueError, match="0/1-valued"):
            hilbert_series([(0, 2)], 3, 1)
        with pytest.raises(ValueError, match="exponent cap"):
            hilbert_series([(0, 1)], 5, 2)


class TestSeriesOrderIdeal:
    """The series feeds only the monomials whose every lower neighbour is
    standard, and keys monomials without any integer encoding that could
    overflow past 62 variables."""

    def test_rows_fed_on_the_mod4_family(self, monkeypatch):
        fed = []
        real = RowReducer.add_rows

        def counting(red, rows):
            fed.append(len(rows))
            return real(red, rows)

        monkeypatch.setattr(RowReducer, "add_rows", counting)
        series = hilbert_series(make_modq_family(12, 0, 4).points(), 2, 1)
        assert series == tuple(modq_value(12, 0, 4, m) for m in range(10))
        # Of the 4017 monomials of degree <= 9 over [12], for rank 992.
        assert sum(fed) == 1040

    @pytest.mark.parametrize("n", [63, 64, 70, 100])
    @pytest.mark.parametrize("p", [2, 3])
    def test_wide_points_at_cap_one(self, n, p):
        # Seven corners of a cube on coordinates 0, n-2 and n-1, and five
        # random points: degree 2 is needed, on the last variables.
        rng = np.random.default_rng(n)
        base = rng.integers(0, 2, n)
        corners = [(), (n - 1,), (n - 2,), (n - 2, n - 1), (0,), (0, n - 1), (0, n - 2)]
        points = [tuple(int(v) for v in base ^ np.isin(np.arange(n), c)) for c in corners]
        points += [tuple(int(v) for v in row) for row in rng.integers(0, 2, (5, n))]
        series = hilbert_series(points, p, 1)
        assert series == series_by_values(points, p, 1)
        assert len(series) == 3

    def test_thirty_variables_at_cap_p_minus_1(self):
        # Four values of x_30 need x_30^3; two of x_1 and x_1 * x_30.
        rng = np.random.default_rng(30)
        base = rng.integers(0, 5, 30)
        shifts = [(t, 0) for t in range(4)] + [(0, 1), (1, 1), (2, 3)]
        points = [tuple(int(v) for v in (base + np.eye(30, dtype=np.int64)[29] * t
                                         + np.eye(30, dtype=np.int64)[0] * u) % 5)
                  for t, u in shifts]
        series = hilbert_series(points, 5, 4)
        assert series == series_by_values(points, 5, 4)
        assert len(series) == 4


class TestArrayInput:
    """Points given as one int64 array answer as the same points as tuples."""

    @staticmethod
    def check(points, p, cap, m):
        arr = np.array(points, dtype=np.int64)
        assert hilbert_value(arr, m, p, cap) == hilbert_value(points, m, p, cap)
        kernel, monos = kernel_matrix(arr, m, p, cap)
        want_kernel, want_monos = kernel_matrix(points, m, p, cap)
        assert monos == want_monos
        assert np.array_equal(kernel, want_kernel)
        assert hilbert_series(arr, p, cap) == hilbert_series(points, p, cap)

    @given(binary_point_sets(), st.sampled_from([2, 3, 5]), st.integers(0, 4))
    def test_binary_points(self, points, p, m):
        self.check(points, p, 1, m)

    @settings(max_examples=30)
    @given(grid_point_sets(), st.integers(0, 3))
    def test_grid_points(self, case, m):
        p, points = case
        self.check(points, p, p - 1, m)

    def test_shapes_rejected(self):
        for bad in (np.array([0, 1, 1]), np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.int64)):
            with pytest.raises(ValueError, match="need at least one point"):
                hilbert_value(bad, 1, 2, 1)
        with pytest.raises(ValueError, match="at least one coordinate"):
            hilbert_value(np.zeros((2, 0), dtype=np.int64), 1, 2, 1)

    def test_reduced_arrays_kept_and_others_reduced(self):
        points = family_points(6, 3, 2)
        for arr in (points, points.astype(bool), points.astype(np.int64)):
            assert hilbert._points_array(arr, 3, 1) is arr
        assert hilbert._points_array(np.array([[0, 4], [-2, 1]]), 3, 2).tolist() == [[0, 1], [1, 1]]
        assert hilbert._points_array(np.array([[0, 3]], dtype=np.uint8), 3, 1).tolist() == [[0, 0]]

    def test_series_rejects_rows_equal_mod_p(self):
        with pytest.raises(ValueError, match="distinct"):
            hilbert_series(np.array([[0, 1], [1, 0], [0, 1]]), 2, 1)
        with pytest.raises(ValueError, match="distinct"):
            hilbert_series([(0, 1), (0, 4)], 3, 2)


class TestNonIntegerPoints:
    """Coordinates must be integer values; integral floats and bools are
    the same points as their ints, anything else is refused."""

    BAD = ([(0.5, 1), (1, 0)], np.array([[0.0, 1.0], [1.0, 0.25]]), [(0, 1), (1, float("nan"))])

    @pytest.mark.parametrize("bad", BAD)
    def test_rejected_everywhere(self, bad):
        good = [(0, 1), (1, 0)]
        with pytest.raises(ValueError, match="integers"):
            hilbert_value(bad, 1, 2, 1)
        with pytest.raises(ValueError, match="integers"):
            kernel_matrix(bad, 1, 2, 1)
        with pytest.raises(ValueError, match="integers"):
            hilbert_series(bad, 2, 1)
        with pytest.raises(ValueError, match="integers"):
            verify_ideal_truncation_equality(bad, good, 1, 2, 1)
        with pytest.raises(ValueError, match="integers"):
            verify_ideal_truncation_equality(good[:1], bad, 1, 2, 1)

    @pytest.mark.parametrize("same", [
        [(0.0, 1.0), (1.0, 0.0)],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[False, True], [True, False]]),
        np.array([[0, 1], [1, 0]], dtype=np.int8),
    ])
    def test_integer_values_accepted(self, same):
        ints = [(0, 1), (1, 0)]
        assert hilbert_value(same, 1, 2, 1) == hilbert_value(ints, 1, 2, 1) == 2
        kernel, monos = kernel_matrix(same, 1, 3, 1)
        want_kernel, want_monos = kernel_matrix(ints, 1, 3, 1)
        assert monos == want_monos
        assert np.array_equal(kernel, want_kernel)
        assert hilbert_series(same, 2, 1) == hilbert_series(ints, 2, 1)
        rep = verify_ideal_truncation_equality(same[:1], same, 1, 2, 1)
        assert rep.metrics == verify_ideal_truncation_equality(ints[:1], ints, 1, 2, 1).metrics

    def test_integral_floats_at_cap_p_minus_1(self):
        assert hilbert_value([(2.0, 4.0), (3.0, 1.0)], 2, 5, 4) == hilbert_value([(2, 4), (3, 1)], 2, 5, 4)


class TestIdealTruncationBasis:
    def test_c42_degree1_kernel(self):
        # Hand computation: a0 + a_i + a_j = 0 for all pairs forces a0 = 0
        # and all a_i equal, so the kernel is spanned by x1+x2+x3+x4.
        points = make_uniform_family(4, 2).points()
        basis = ideal_truncation_basis(points, 1, 2, 1)
        expected = Polynomial.from_terms(
            2, 4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}
        )
        assert basis == [expected]

    def test_terms_are_python_ints_from_the_nonzero_entries(self):
        exps = monomial_table(3, 2, 2)
        vec = np.zeros(len(exps), dtype=np.int64)
        vec[[0, 5, 9]] = [2, 1, 2]
        f = hilbert.vector_to_polynomial(vec, exps, 3)
        assert f.terms == (((0, 0, 0), 2), ((0, 1, 1), 1), ((2, 0, 0), 2))
        assert all(type(e) is int for mono, c in f.terms for e in (*mono, c))
        for f in ideal_truncation_basis([(0, 1), (2, 2), (1, 0)], 2, 3, 2):
            assert all(type(e) is int for mono, c in f.terms for e in (*mono, c))

    def test_full_cube_empty_kernel(self):
        for n in (2, 3):
            points = list(product((0, 1), repeat=n))
            for m in range(n + 1):
                assert ideal_truncation_basis(points, m, 2, 1) == []

    def test_origin_only(self):
        basis = ideal_truncation_basis([(0, 0)], 1, 2, 1)
        x1 = Polynomial.from_terms(2, 2, {(1, 0): 1})
        x2 = Polynomial.from_terms(2, 2, {(0, 1): 1})
        assert basis == [x2, x1]

    @given(st.integers(1, 5), st.integers(0, 5), st.sampled_from([2, 3]),
           st.integers(0, 3))
    def test_basis_vanishes_on_points(self, n, d, p, m):
        if d > n:
            return
        points = make_uniform_family(n, d).points()
        for f in ideal_truncation_basis(points, m, p, 1):
            for pt in points:
                assert evaluate(f, pt) == 0

    @given(st.integers(1, 5), st.integers(0, 5), st.sampled_from([2, 3]),
           st.integers(0, 4))
    def test_dimension_identity(self, n, d, p, m):
        if d > n:
            return
        points = make_uniform_family(n, d).points()
        h = hilbert_value(points, m, p, 1)
        basis = ideal_truncation_basis(points, m, p, 1)
        assert h + len(basis) == len(monomials_upto(n, m, 1))


class TestWilsonValue:
    def test_examples(self):
        assert wilson_value(4, 2, 1) == 4
        assert wilson_value(7, 3, 0) == 1
        assert wilson_value(10, 5, 3) == 120

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            wilson_value(4, 2, 3)
        with pytest.raises(ValueError):
            wilson_value(4, 2, -1)
        with pytest.raises(ValueError):
            wilson_value(4, 5, 1)

    def test_10_5_3_against_oracle(self):
        points = make_uniform_family(10, 5).points()
        assert oracle_hilbert(points, 3, 2) == 120

    @settings(max_examples=25)
    @given(st.integers(1, 7), st.integers(0, 7), st.sampled_from([2, 3, 5]))
    def test_field_independence(self, n, d, p):
        if d > n:
            return
        points = make_uniform_family(n, d).points()
        for m in range(min(d, n - d) + 1):
            assert wilson_value(n, d, m) == hilbert_value(points, m, p, 1)


class TestModqValue:
    def test_examples(self):
        assert modq_value(6, 3, 3, 2) == 15
        assert modq_value(6, 3, 3, 3) == 21
        assert modq_value(6, 3, 3, 4) == 22

    def test_examples_against_oracle(self):
        points = make_modq_family(6, 3, 3).points()
        assert [oracle_hilbert(points, m, 3) for m in (2, 3, 4)] == [15, 21, 22]

    def test_stabilizes_at_family_size(self):
        assert modq_value(6, 3, 3, 6) == len(make_modq_family(6, 3, 3))

    def test_empty_sum_convention(self):
        # m > r with (n - m) // q == 0: the subtracted sum is empty.
        assert modq_value(4, 0, 2, 4) == sum(binomial(4, k) for k in (0, 2, 4))

    @settings(max_examples=25)
    @given(st.integers(1, 7), st.integers(0, 7),
           st.sampled_from([(2, 2), (2, 4), (3, 3)]), st.integers(0, 7))
    def test_matches_oracle(self, n, d, pq, m):
        p, q = pq
        if d > n or m > n:
            return
        points = make_modq_family(n, d, q).points()
        assert modq_value(n, d, q, m) == oracle_hilbert(points, m, p)


class TestStructuralProperties:
    @given(st.integers(2, 6), st.integers(0, 6), st.sampled_from([2, 3]),
           st.integers(0, 5), st.randoms(use_true_random=False))
    def test_inclusion_monotonicity(self, n, d, p, m, rng):
        if d > n or m > n:
            return
        big = list(make_uniform_family(n, d).points())
        if len(big) < 2:
            return
        small = sorted(rng.sample(big, rng.randrange(1, len(big))))
        assert hilbert_value(small, m, p, 1) <= hilbert_value(big, m, p, 1)

    @given(st.integers(1, 6), st.integers(0, 6), st.sampled_from([2, 3, 5]))
    def test_identity_block_property(self, n, d, p):
        if d > n:
            return
        points = make_uniform_family(n, d).points()
        for m in range(d, n + 1):
            assert hilbert_value(points, m, p, 1) == binomial(n, d)

    @given(st.integers(2, 5), st.integers(0, 5), st.sampled_from([2, 3]),
           st.integers(0, 4), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, n, d, p, m, rng):
        if d > n or m > n:
            return
        points = make_uniform_family(n, d).points()
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [tuple(pt[i] for i in perm) for pt in points]
        assert hilbert_value(points, m, p, 1) == hilbert_value(permuted, m, p, 1)


class TestReports:
    def test_modq_report_example(self):
        rep = modq_report(6, 3, 3, 3, 2)
        body = rep.as_dict()
        assert body == {
            "n": 6, "d": 3, "p": 3, "q": 3, "m": 2, "cap": 1,
            "h_oracle": 15, "h_closed_form": 15, "ideal_dim": 7, "r": 3,
            "match": True,
        }

    def test_uniform_report_inside_range(self):
        rep = uniform_report(4, 2, 3, 1)
        assert rep.h_oracle == 4
        assert rep.h_closed_form == 4
        assert rep.match is True

    def test_uniform_report_outside_wilson_range(self):
        rep = uniform_report(4, 2, 3, 3)
        assert rep.h_closed_form is None
        assert rep.match is None
        assert rep.h_oracle == 6

    def test_dimension_identity_in_report(self):
        rep = modq_report(5, 1, 2, 2, 2)
        n_monos = len(monomials_upto(5, 2, 1))
        assert rep.h_oracle + rep.ideal_dim == n_monos

    def test_modq_report_requires_prime_power(self):
        with pytest.raises(ValueError):
            modq_report(5, 1, 6, 2, 1)


def levels_fed(n, d, q, m, p, spin):
    """The d-level's reducer kernel, then the whole family's echelon rows and
    kernel, with every size level fed one way, in family_rref's order."""
    monos = monomial_table(n, m, 1)
    red = RowReducer(p, len(monos))
    hilbert._feed_family(red, n, (d,), monos, spin=spin)
    kernel = red.kernel_matrix()
    others = [k for k in family_sizes(n, d, q) if k != d]
    hilbert._feed_family(red, n, others, monos, spin=spin)
    return kernel, echelon(red.rref())[0], red.kernel_matrix()


class TestSpinning:
    """One seed row per size level, spun under (1 2) and (1 2 ... n), spans
    the rows of every point of those levels."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_spun_equals_streamed_for_every_family(self, n):
        m = min(3, n // 2 + 1)
        for q in (None, 2, 3, 4, 5):
            for d in range(n + 1 if q is None else min(q, n + 1)):
                for p in (2, 3, 5):
                    spun = levels_fed(n, d, q, m, p, spin=True)
                    streamed = levels_fed(n, d, q, m, p, spin=False)
                    for a, b in zip(spun, streamed):
                        assert np.array_equal(a, b), (n, d, q, p)

    @pytest.mark.parametrize("n,m,cap", [(1, 3, 1), (2, 2, 1), (3, 4, 2), (7, 3, 1), (5, 6, 4), (12, 4, 1)])
    def test_permutations_match_a_tuple_reference(self, n, m, cap):
        # The column index of each monomial with its exponents permuted by
        # (1 2) and by (1 2 ... n), looked up in a dict keyed by tuples.
        monos = monomials_upto(n, m, cap)
        index = {mono: j for j, mono in enumerate(monos)}
        want = [
            [index[mono[1::-1] + mono[2:]] for mono in monos],
            [index[mono[1:] + mono[:1]] for mono in monos],
        ]
        got = hilbert._spin_permutations(monomial_table(n, m, cap))
        assert [perm.tolist() for perm in got] == want

    def test_streamed_path_is_the_public_kernel(self):
        for n, d, q, m, p in [(6, 3, None, 2, 3), (7, 1, 3, 3, 2), (8, 2, 4, 3, 5)]:
            kernel, _, whole = levels_fed(n, d, q, m, p, spin=False)
            assert np.array_equal(kernel, kernel_matrix(family_points(n, d), m, p, 1)[0])
            assert np.array_equal(whole, kernel_matrix(family_points(n, d, q), m, p, 1)[0])

    def test_spinning_feeds_a_seed_and_two_images_per_basis_row(self, monkeypatch):
        fed = []
        real, real_images = RowReducer.add_rows, RowReducer.add_basis_images

        def counting(red, rows):
            fed.append(len(rows))
            return real(red, rows)

        def counting_images(red, start, stop, perms):
            fed.append(len(perms) * (min(stop, red.rank) - start))
            return real_images(red, start, stop, perms)

        monkeypatch.setattr(RowReducer, "add_rows", counting)
        monkeypatch.setattr(RowReducer, "add_basis_images", counting_images)
        rref, monos, h = family_rref(16, (8,), 3, 2)
        kernel = rref.kernel(2)
        assert h == len(monos) - len(kernel) == binomial(16, 3)
        assert sum(fed) == 1 + 2 * h

    @pytest.mark.parametrize("n,sizes,m,spins", [
        (12, (6,), 1, False),            # 924 points: within one block
        (13, (6,), 1, False),            # 1716 points: within one block
        (12, (5, 6, 7), 5, False),       # 2508 points, not above 2 * 1586 columns
        (16, (8,), 1, True),             # 12870 points over 17 columns
        (14, (1, 4, 7, 10, 13), 3, True),
    ])
    def test_rule_streams_small_or_square_levels(self, monkeypatch, n, sizes, m, spins):
        streamed = []
        monkeypatch.setattr(hilbert, "_feed_points", lambda red, arr, *rest: streamed.append(len(arr)))
        monos = monomial_table(n, m, 1)
        red = RowReducer(2, len(monos))
        hilbert._feed_family(red, n, sizes, monos)
        assert streamed == ([] if spins else [sum(binomial(n, k) for k in sizes)])

    def test_closed_forms_beyond_brute_force(self):
        rep = uniform_report(16, 8, 2, 3)
        assert rep.h_oracle == rep.h_closed_form == math.comb(16, 3)
        for m in range(4):
            assert modq_report(16, 8, 4, 2, m).h_oracle == modq_value(16, 8, 4, m)

    @pytest.mark.parametrize("q", [None, 4])
    def test_cap_boundary_matches_family_points(self, monkeypatch, q):
        count = len(family_points(16, 8, q))
        calls = [
            lambda: family_points(16, 8, q),
            lambda: family_rref(16, family_sizes(16, 8), 1, 2, family_sizes(16, 8, q)),
            lambda: modq_report(16, 8, q, 2, 1) if q else uniform_report(16, 8, 2, 1),
        ]
        monkeypatch.setenv("HILBFAM_ENUM_CAP", str(count))
        for call in calls:
            call()
        monkeypatch.setenv("HILBFAM_ENUM_CAP", str(count - 1))
        for call in calls:
            with pytest.raises(EnumerationCapError):
                call()


def assert_same_rref(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestHandOver:
    """A driver's RREF is the reducer's own store, handed over in place.
    Rows fed after it that raise the rank must leave it as it was."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("spin", [True, False])
    def test_family_rref_unchanged_by_more_levels(self, monkeypatch, spin, p):
        real = hilbert._feed_family
        monkeypatch.setattr(hilbert, "_feed_family", lambda *args: real(*args, spin=spin))
        alone, monos, h = family_rref(8, (2,), 3, p)
        rref, more_monos, h_more = family_rref(8, (2,), 3, p, family_sizes(8, 2, 4))
        assert h == alone.pivots.size < h_more
        assert np.array_equal(more_monos, monos)
        assert_same_rref(rref, alone)

    @pytest.mark.parametrize("spin", [True, False])
    def test_family_rref_under_a_tracer(self, monkeypatch, traced, spin):
        real = hilbert._feed_family
        monkeypatch.setattr(hilbert, "_feed_family", lambda *args: real(*args, spin=spin))
        args = (8, (2,), 3, 3, family_sizes(8, 2, 4))
        want, monos, h = family_rref(*args)
        with traced():
            got = family_rref(*args)
        assert_same_rref(got[0], want)
        assert np.array_equal(got[1], monos) and got[2] == h

    @pytest.mark.parametrize("p", [2, 3])
    def test_nested_kernel_unchanged_by_the_points_of_g(self, p):
        f, g = family_points(8, 2), family_points(8, 2, 4)
        rref, _, h_g = hilbert.nested_kernel(f, g, 3, p, 1)
        red, _ = hilbert._reduce_points(f, 3, p, 1)
        assert red.rank < h_g
        assert_same_rref(rref, red.rref())

    @pytest.mark.parametrize("dtype_a, dtype_b", [
        (np.uint8, np.uint8), (np.uint8, np.int64), (np.int64, np.uint8),
        (np.bool_, np.uint8), (np.uint64, np.int64), (np.int8, np.uint16),
    ])
    def test_rows_in_across_dtypes(self, dtype_a, dtype_b):
        # Keys in the common dtype: uint64 with int64 is float64, which
        # still keys nonnegative integers under 2^53 exactly and in order.
        rng = np.random.default_rng(7)
        top = 2 if np.bool_ in (dtype_a, dtype_b) else 100
        a = rng.integers(0, top, (300, 5))
        b = np.vstack([a[::3], rng.integers(0, top, (50, 5))])
        got = hilbert._rows_in(a.astype(dtype_a), b.astype(dtype_b))
        rows_b = set(map(tuple, b.tolist()))
        assert got.tolist() == [tuple(row) in rows_b for row in a.tolist()]

    def test_rows_in_keys_uint8_points_at_their_width(self):
        # int64 keys of both arrays and a sorted copy would take 24 times
        # the points' bytes; one byte a coordinate stays within 3.
        a = family_points(18, 9)
        b = family_points(18, 9, 2)
        tracemalloc.start()
        try:
            assert hilbert._rows_in(a, b).all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (a.nbytes + b.nbytes)
