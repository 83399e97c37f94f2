"""Polynomial representation, evaluation, reduction, affine products."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbfam.poly import (
    ZERO_DEGREE,
    Polynomial,
    evaluate,
    expand_affine_product,
    monomial_table,
    monomials_upto,
    multilinear_reduce,
)
from hilbfam.setfam import ENUMERATION_CAP_ENV, EnumerationCapError


@st.composite
def polynomials(draw, max_n=4, max_deg=3):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, max_n))
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_deg)) for _ in range(n))
        terms[mono] = draw(st.integers(0, p - 1))
    return Polynomial.from_terms(p, n, terms)


class TestMonomialsUpto:
    def test_examples(self):
        assert monomials_upto(2, 1, 1) == ((0, 0), (0, 1), (1, 0))
        assert monomials_upto(2, 2, 1) == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert monomials_upto(1, 3, 2) == ((0,), (1,), (2,))

    def test_order_is_degree_then_lex(self):
        monos = monomials_upto(3, 2, 2)
        keys = [(sum(m), m) for m in monos]
        assert keys == sorted(keys)

    def test_multilinear_count(self):
        from math import comb

        monos = monomials_upto(6, 3, 1)
        assert len(monos) == sum(comb(6, k) for k in range(4))

    def test_same_tuple_as_the_recursive_enumerator(self):
        def recursive(n, m, cap):
            out, vec = [], [0] * n

            def rec(i, remaining):
                if i == n:
                    out.append(tuple(vec))
                    return
                for e in range(min(cap, remaining) + 1):
                    vec[i] = e
                    rec(i + 1, remaining - e)
                vec[i] = 0

            rec(0, m)
            return tuple(sorted(out, key=lambda mono: (sum(mono), mono)))

        # Past them: cap p - 1 at p = 2^31 - 1, m past n * cap, n = 1 at m = 0.
        extra = [(2, 3, 2_147_483_646), (3, 10, 2), (2, 9, 3), (1, 0, 1)]
        for n, m, cap in [*product(range(1, 7), range(7), range(1, 4)), *extra]:
            want = recursive(n, m, cap)
            assert monomials_upto(n, m, cap) == want, (n, m, cap)
            assert monomial_table(n, m, cap).tolist() == list(map(list, want)), (n, m, cap)

    @pytest.mark.parametrize("n,m,cap,dtype", [
        (3, 2, 1, np.uint8), (2, 3, 2_147_483_646, np.uint8), (1, 255, 300, np.uint8),
        (1, 256, 300, np.uint16), (2, 300, 256, np.uint16), (1, 70_000, 70_000, np.uint32),
    ])
    def test_table_is_read_only_in_the_smallest_dtype(self, n, m, cap, dtype):
        # The smallest unsigned dtype that holds min(cap, m).
        table = monomial_table(n, m, cap)
        assert table.dtype == dtype and table.shape[1] == n
        assert int(table.max()) == min(cap, m)
        assert monomial_table(n, m, cap) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1
        entries = monomials_upto(n, m, cap)[-1]
        assert all(type(e) is int for e in entries)

    @pytest.mark.parametrize("n,m,cap", [(30, 3, 1), (5, 6, 2), (4, 20, 3), (7, 4, 4)])
    def test_count_checked_against_the_enumeration_cap(self, monkeypatch, n, m, cap):
        monomials_upto.cache_clear()
        count = len(monomials_upto(n, m, cap))
        monomials_upto.cache_clear()
        monkeypatch.setenv(ENUMERATION_CAP_ENV, str(count - 1))
        with pytest.raises(EnumerationCapError):
            monomials_upto(n, m, cap)
        monkeypatch.setenv(ENUMERATION_CAP_ENV, str(count))
        assert len(monomials_upto(n, m, cap)) == count
        # The table, built once, is counted again on every call.
        monkeypatch.setenv(ENUMERATION_CAP_ENV, str(count - 1))
        with pytest.raises(EnumerationCapError):
            monomial_table(n, m, cap)


class TestEvaluate:
    def test_examples(self):
        f = Polynomial.from_terms(2, 2, {(1, 1): 1})
        assert evaluate(f, (1, 1)) == 1
        g = Polynomial.from_terms(3, 2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
        assert evaluate(g, (1, 0)) == 0
        h = Polynomial.from_terms(3, 1, {(2,): 1})
        assert evaluate(h, (2,)) == 1

    def test_dimension_mismatch(self):
        f = Polynomial.from_terms(2, 2, {(1, 0): 1})
        with pytest.raises(ValueError):
            evaluate(f, (1, 0, 1))


class TestMultilinearReduce:
    def test_examples(self):
        f = Polynomial.from_terms(2, 1, {(2,): 1})
        assert multilinear_reduce(f) == Polynomial.from_terms(2, 1, {(1,): 1})
        g = Polynomial.from_terms(3, 2, {(2, 1): 1, (1, 1): 1})
        assert multilinear_reduce(g) == Polynomial.from_terms(3, 2, {(1, 1): 2})
        c = Polynomial.constant(5, 3, 2)
        assert c == Polynomial.constant(2, 3, 2)
        assert multilinear_reduce(c) == c

    @given(polynomials())
    def test_value_preserving_on_cube(self, f):
        reduced = multilinear_reduce(f)
        for x in product((0, 1), repeat=f.n):
            assert evaluate(f, x) == evaluate(reduced, x)

    @given(polynomials())
    def test_degree_does_not_increase(self, f):
        assert multilinear_reduce(f).degree <= f.degree or not f.terms

    def test_exhaustive_cube_equality_n10(self):
        # Random degree-inflated polynomials in 10 variables, all 1024 points.
        rng = random.Random(20240817)
        for _ in range(3):
            p = rng.choice([2, 3])
            terms = {}
            for _ in range(8):
                mono = tuple(rng.randint(0, 3) for _ in range(10))
                terms[mono] = rng.randint(1, p - 1)
            f = Polynomial.from_terms(p, 10, terms)
            g = multilinear_reduce(f)
            for x in product((0, 1), repeat=10):
                assert evaluate(f, x) == evaluate(g, x)


class TestExpandAffineProduct:
    def test_empty_product_is_one(self):
        assert expand_affine_product([], 3, 2) == Polynomial.constant(1, 3, 2)

    def test_single_factor_mod_2(self):
        f = expand_affine_product([((1, 1, 0, 0), 1)], 2, 4)
        assert f == Polynomial.from_terms(
            2, 4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 0, 0): 1}
        )

    def test_two_factor_example(self):
        factors = [((1, 0, 1, 0), 1), ((1, 1, 0, 0), 1)]
        f = expand_affine_product(factors, 2, 4)
        assert f.degree == 2
        assert evaluate(f, (0, 0, 0, 0)) == 1
        # Frozen from evaluating both sides at all 16 cube points.
        for x in product((0, 1), repeat=4):
            direct = ((x[0] + x[2] + 1) * (x[0] + x[1] + 1)) % 2
            assert evaluate(f, x) == direct

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(1, 4),
        st.lists(st.tuples(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                           st.integers(0, 4)), max_size=4),
        st.lists(st.integers(0, 4), min_size=4, max_size=4),
    )
    def test_matches_factorwise_evaluation(self, p, _unused, factors, point):
        n = 4
        fs = [(tuple(v), c) for v, c in factors]
        f = expand_affine_product(fs, p, n)
        expected = 1
        for v, c in fs:
            expected = (expected * (sum(a * b for a, b in zip(point, v)) - c)) % p
        assert evaluate(f, point) == expected

    def test_degree_bounded_by_factor_count(self):
        factors = [((1, 1), 1), ((1, 0), 2), ((0, 1), 1)]
        assert expand_affine_product(factors, 3, 2).degree <= 3

    def test_term_bound_over_cap_fails_fast(self, monkeypatch):
        # Three factors in two variables: at most C(5, 3) = 10 terms of
        # two exponents and a coefficient, 30 stored entries.
        factors = [((1, 1), 1), ((1, 0), 2), ((0, 1), 1)]
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "30")
        assert expand_affine_product(factors, 3, 2).degree == 3
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "29")
        with pytest.raises(EnumerationCapError):
            expand_affine_product(iter(factors), 3, 2)


class TestPolynomialRepresentation:
    def test_no_zero_coefficients_stored(self):
        f = Polynomial.from_terms(3, 2, {(1, 0): 3, (0, 1): 1})
        assert f.terms == (((0, 1), 1),)

    @given(polynomials(), polynomials())
    def test_arithmetic_stays_canonical(self, f, g):
        if (f.p, f.n) != (g.p, g.n):
            return
        for h in (f + g, f - g, f * g):
            assert all(1 <= c < h.p for _, c in h.terms)
            monos = [m for m, _ in h.terms]
            assert len(set(monos)) == len(monos)

    def test_zero_degree_sentinel(self):
        zero = Polynomial.zero(3, 2)
        assert zero.degree == ZERO_DEGREE
        assert zero.degree < 0
        assert Polynomial.constant(1, 3, 2).degree == 0

    def test_equality_is_table_equality(self):
        f = Polynomial.from_terms(3, 2, {(1, 1): 2})
        g = Polynomial.from_terms(3, 2, {(1, 1): 2})
        assert f == g
        assert f != Polynomial.from_terms(3, 2, {(1, 1): 1})

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Polynomial(3, 2, (((1, 0), 3),))
        with pytest.raises(ValueError):
            Polynomial(3, 2, (((1, 0, 0), 1),))


class TestRendering:
    def test_spec_style(self):
        f = Polynomial.from_terms(3, 3, {(0, 0, 0): 1, (1, 0, 1): 2})
        assert str(f) == "1 + 2*x1*x3"

    def test_powers_and_unit_coefficients(self):
        f = Polynomial.from_terms(5, 2, {(2, 0): 1, (0, 1): 4})
        assert str(f) == "4*x2 + x1^2"

    def test_zero(self):
        assert str(Polynomial.zero(2, 3)) == "0"

    def test_terms_in_global_order(self):
        f = Polynomial.from_terms(2, 4, {(1, 0, 0, 0): 1, (0, 0, 0, 1): 1})
        assert str(f) == "x4 + x1"
