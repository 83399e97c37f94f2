"""Set-family constructors, characteristic vectors, text format."""

import random
import time
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbfam.balancing import _intersection_counts
from hilbfam.hilbert import _eval_rows, family_rref, hilbert_value
from hilbfam.poly import monomial_table
from hilbfam.setfam import (
    EnumerationCapError,
    Params,
    SetFamily,
    Subset,
    _family,
    binomial,
    char_vector,
    family_points,
    format_family,
    is_prime,
    level_points,
    make_modq_family,
    make_uniform_family,
    parse_family,
)


def brute_modq_count(n: int, d: int, q: int) -> int:
    # Independent enumeration: walk every subset of [n] and count sizes.
    return sum(
        1
        for k in range(n + 1)
        for _ in combinations(range(1, n + 1), k)
        if k % q == d % q
    )


class TestConstructors:
    def test_uniform_4_2(self):
        fam = make_uniform_family(4, 2)
        assert [s.members for s in fam.sets] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_uniform_empty_set_case(self):
        fam = make_uniform_family(4, 0)
        assert len(fam) == 1
        assert fam.sets[0].members == ()

    def test_uniform_6_3_count(self):
        assert len(make_uniform_family(6, 3)) == 20

    def test_uniform_d_out_of_range(self):
        with pytest.raises(ValueError):
            make_uniform_family(4, 5)
        with pytest.raises(ValueError):
            make_uniform_family(4, -1)

    def test_uniform_cap_exceeded(self):
        with pytest.raises(EnumerationCapError):
            make_uniform_family(6, 3, cap=10)

    def test_modq_4_2_2(self):
        fam = make_modq_family(4, 2, 2)
        assert len(fam) == 8
        assert {len(s) for s in fam.sets} == {0, 2, 4}

    def test_modq_6_3_3(self):
        # 22, frozen from the independent enumeration oracle.
        assert brute_modq_count(6, 3, 3) == 22
        assert len(make_modq_family(6, 3, 3)) == 22

    def test_modq_3_0_5(self):
        fam = make_modq_family(3, 0, 5)
        assert len(fam) == 1
        assert fam.sets[0].members == ()

    def test_modq_cap_checked_before_enumeration(self):
        with pytest.raises(EnumerationCapError):
            make_modq_family(20, 0, 2, cap=100)

    def test_canonical_order_is_lexicographic(self):
        fam = make_modq_family(4, 0, 2)
        members = [s.members for s in fam.sets]
        assert members == sorted(members)

    def test_deterministic_enumeration(self):
        assert make_modq_family(6, 1, 3) == make_modq_family(6, 1, 3)


class TestFamilyPoints:
    """The array enumerator against the Subset-based adapters."""

    @staticmethod
    def constructed(n, d, q):
        return make_uniform_family(n, d) if q is None else make_modq_family(n, d, q)

    def test_matches_constructor_points(self):
        for n in range(1, 9):
            for d in range(n + 1):
                for q in (None, 2, 3, 4, 5):
                    pts = family_points(n, d, q)
                    expected = oracle_level_points(n, [d] if q is None else range(d % q, n + 1, q))
                    assert pts.dtype == np.uint8
                    assert np.array_equal(pts, expected), (n, d, q)
                    assert np.array_equal(np.array(self.constructed(n, d, q).points()), expected), (n, d, q)

    def test_modq_rows_in_lexicographic_member_order(self):
        # Sizes 0, 2 and 4 interleave: (), {1,2}, {1,2,3,4}, {1,3}, ...
        members = [(), (1, 2), (1, 2, 3, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        expected = [[int(i in ms) for i in range(1, 5)] for ms in members]
        assert family_points(4, 0, 2).tolist() == expected

    @pytest.mark.parametrize("n,d,q", [
        (4, 5, None), (4, -1, None), (4, 5, 2), (4, 2, 1), (4, 2, 0), (0, 0, None), (0, 0, 2),
    ])
    def test_bad_arguments_raise_constructor_errors(self, n, d, q):
        with pytest.raises(ValueError) as want:
            self.constructed(n, d, q)
        with pytest.raises(ValueError) as got:
            family_points(n, d, q)
        assert str(got.value) == str(want.value)

    def test_cap(self):
        with pytest.raises(EnumerationCapError, match="cap is 10"):
            family_points(6, 3, cap=10)
        with pytest.raises(EnumerationCapError, match="cap is 100"):
            family_points(20, 0, 2, cap=100)
        assert family_points(6, 3, cap=20).shape == (20, 6)

    def test_cap_checked_before_enumeration(self):
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError):
            family_points(40, 20)
        assert time.perf_counter() - start < 1.0


def oracle_level_points(n, sizes):
    """The enumeration by member tuples: each size's combinations, merged
    by a sort of the tuples, read into the array."""
    sizes = tuple(sizes)
    members = [c for k in sizes for c in combinations(range(1, n + 1), k)]
    members = members if len(sizes) < 2 else sorted(members)
    arr = np.zeros((len(members), n), dtype=np.int64)
    rows = np.repeat(np.arange(len(members)), [len(c) for c in members])
    arr[rows, np.fromiter(chain.from_iterable(members), np.intp, len(rows)) - 1] = 1
    return arr


class TestLevelPoints:
    """The prefix enumeration against the member-tuple oracle."""

    @staticmethod
    def check(n, sizes):
        got = level_points(n, sizes)
        assert got.dtype == np.uint8
        assert np.array_equal(got, oracle_level_points(n, sizes)), (n, sizes)

    def test_every_set_of_sizes_up_to_n9(self):
        # Sizes up to n + 1, so some lie past n.
        for n in range(10):
            for r in range(n + 3):
                for sizes in combinations(range(n + 2), r):
                    self.check(n, sizes)

    def test_random_sets_of_sizes_up_to_n14(self):
        rng = random.Random(14)
        for n in range(10, 15):
            for _ in range(12):
                self.check(n, rng.sample(range(n + 1), rng.randint(1, n + 1)))

    @pytest.mark.parametrize("n,sizes", [
        (17, tuple(range(0, 18, 2))), (20, (10,)), (300, (0, 1, 2)), (1000, (1,)),
        (1500, (1499,)), (40, (0, 39, 40)),
    ])
    def test_wide_and_deep(self, n, sizes):
        # (1500, (1499,)) walks 1488 depths, past the recursion limit.
        self.check(n, sizes)

    def test_order_of_sizes_ignored(self):
        assert np.array_equal(level_points(9, (6, 0, 3)), level_points(9, (0, 3, 6)))

    @pytest.mark.parametrize("sizes", [(-1,), (2, -1), (-3, 0, 5)])
    def test_negative_size_rejected(self, sizes):
        with pytest.raises(ValueError):
            oracle_level_points(6, sizes)
        with pytest.raises(ValueError, match="nonnegative"):
            level_points(6, sizes)

    @pytest.mark.parametrize("n,sizes", [(20, (10,)), (300, (0, 1, 2)), (17, tuple(range(0, 18, 2)))])
    def test_peak_memory_within_three_outputs(self, n, sizes):
        tracemalloc.start()
        try:
            out = level_points(n, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes


class TestUint8Points:
    """The uint8 points of level_points over n >= 256 coordinates, where a
    row sum or a count in their own dtype would wrap: every consumer
    answers as it does for the same points in int64."""

    n = 300
    wide = level_points(n, [n - 1])
    as_int64 = wide.astype(np.int64)

    def test_family_members(self):
        assert self.wide.dtype == np.uint8
        family = _family(self.n, self.wide)
        assert family == _family(self.n, self.as_int64)
        everything = tuple(range(1, self.n + 1))
        want = [everything[:i] + everything[i + 1 :] for i in range(self.n)]
        assert sorted(s.members for s in family.sets) == sorted(want)

    def test_cap1_evaluation_and_hilbert_value(self):
        exps = monomial_table(self.n, 1, 1)
        assert np.array_equal(_eval_rows(self.wide, exps, 2, 1), _eval_rows(self.as_int64, exps, 2, 1))
        # The 300 points are affinely independent, so h(1) is 300.
        h = hilbert_value(self.as_int64, 1, 2, 1)
        assert h == hilbert_value(self.wide, 1, 2, 1) == family_rref(self.n, (self.n - 1,), 1, 2)[2] == 300

    @pytest.mark.parametrize("k", [1, 299])
    def test_balancing_counts(self, k):
        got = list(_intersection_counts(self.n, k, self.wide))
        want = list(_intersection_counts(self.n, k, self.as_int64))
        assert len(got) == len(want)
        for (idx, counts), (idx_want, counts_want) in zip(got, want):
            assert np.array_equal(idx, idx_want) and np.array_equal(counts, counts_want)
        # |g & S| of a 299-set g and a 299-set S is 298 or 299.
        assert got[-1][1].max() == min(k, self.n - 1)


class TestCharVector:
    def test_examples(self):
        assert char_vector(Subset((1, 3)), 4) == (1, 0, 1, 0)
        assert char_vector(Subset(()), 3) == (0, 0, 0)
        assert char_vector(Subset((1, 2, 3, 4)), 4) == (1, 1, 1, 1)

    def test_member_exceeding_n(self):
        with pytest.raises(ValueError):
            char_vector(Subset((1, 5)), 4)

    @given(st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, 10).filter(lambda v: v <= n)))
    ))
    def test_injective_and_weight(self, case):
        n, members = case
        sub = Subset.of(members)
        vec = char_vector(sub, n)
        assert sum(vec) == len(sub)
        assert tuple(i + 1 for i, v in enumerate(vec) if v) == sub.members


class TestSetFamilyPoints:
    """`SetFamily.points` against `char_vector` member by member."""

    @staticmethod
    def check(family):
        expected = tuple(char_vector(s, family.n) for s in family.sets)
        got = family.points()
        assert got == expected
        assert all(type(v) is int for pt in got for v in pt)

    @pytest.mark.parametrize("n", [1, 5, 12, 64, 65, 100])
    def test_random_families(self, n):
        rng = random.Random(n)
        for _ in range(5):
            sets = {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))) for _ in range(rng.randint(1, 30))}
            self.check(SetFamily(n, tuple(Subset(m) for m in sets)))

    def test_empty_set_and_empty_family(self):
        self.check(SetFamily(4, (Subset(()), Subset((2, 4)))))
        assert SetFamily(3, (Subset(()),)).points() == ((0, 0, 0),)
        assert SetFamily(3, ()).points() == ()

    def test_library_families(self):
        self.check(make_modq_family(12, 0, 4))
        self.check(make_uniform_family(9, 4))


class TestBinomial:
    def test_examples(self):
        assert binomial(6, 3) == 20
        assert binomial(20, 10) == 184756
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_large_exact(self):
        assert binomial(80, 40) == 107507208733336176461620


class TestFamilyInvariants:
    @given(st.integers(1, 8), st.integers(0, 8))
    def test_uniform_size_matches_binomial(self, n, d):
        if d > n:
            return
        assert len(make_uniform_family(n, d)) == binomial(n, d)

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(2, 5))
    def test_modq_size_matches_binomial_sum(self, n, d, q):
        if d > n:
            return
        expected = sum(binomial(n, k) for k in range(n + 1) if k % q == d % q)
        assert len(make_modq_family(n, d, q)) == expected

    @given(st.integers(1, 7), st.integers(0, 7), st.integers(2, 4))
    def test_uniform_contained_in_modq(self, n, d, q):
        if d > n:
            return
        uniform = set(make_uniform_family(n, d).sets)
        modq = set(make_modq_family(n, d, q).sets)
        assert uniform <= modq

    def test_duplicate_subsets_rejected(self):
        with pytest.raises(ValueError):
            SetFamily(3, (Subset((1,)), Subset((1,))))

    def test_subset_must_be_increasing(self):
        with pytest.raises(ValueError):
            Subset((2, 1))
        with pytest.raises(ValueError):
            Subset((1, 1))


class TestParams:
    def test_valid(self):
        params = Params(n=6, p=3, d=3, m=2, q=9)
        assert params.q == 9

    def test_p_must_be_prime(self):
        with pytest.raises(ValueError):
            Params(n=4, p=4, d=2, m=1)

    def test_q_must_be_power_of_p(self):
        with pytest.raises(ValueError):
            Params(n=4, p=2, d=2, m=1, q=6)
        with pytest.raises(ValueError):
            Params(n=4, p=2, d=2, m=1, q=1)

    def test_d_range(self):
        with pytest.raises(ValueError):
            Params(n=4, p=2, d=5, m=1)


class TestPrimality:
    def test_small_values(self):
        primes = [p for p in range(2, 60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)


class TestTextFormat:
    def test_roundtrip(self):
        fam = make_modq_family(4, 0, 2)
        assert parse_family(format_family(fam)) == fam

    def test_empty_line_is_empty_set(self):
        fam = parse_family("n=3\n\n1,2\n")
        assert fam.sets[0].members == ()
        assert fam.sets[1].members == (1, 2)

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_family("1,2\n")

    def test_bad_member(self):
        with pytest.raises(ValueError):
            parse_family("n=3\n1,x\n")

    def test_members_normalized(self):
        fam = parse_family("n=4\n3,1\n")
        assert fam.sets[0].members == (1, 3)
