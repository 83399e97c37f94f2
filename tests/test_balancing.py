"""Balancing families: coverage check, certificate, bound, search."""

import random
import time
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbfam import balancing
from hilbfam.balancing import (
    BalancingInstance,
    check_lower_bound,
    is_balancing,
    min_balancing_size,
    witness_poly,
)
from hilbfam.poly import Polynomial, evaluate
from hilbfam.setfam import ENUMERATION_CAP_ENV, EnumerationCapError, SetFamily, Subset, char_vector
from hilbfam.theorems import FAIL, NOT_APPLICABLE, PASS


def family(n, *member_lists):
    return SetFamily(n, tuple(Subset.of(ms) for ms in member_lists))


def brute_is_balancing(n, L, members):
    d = n // 2
    targets = set(L)
    for combo in combinations(range(1, n + 1), d):
        if not any(len(set(combo) & set(g)) in targets for g in members):
            return False
    return True


def expanded_reference(inst, p):
    """The certificate quantities check_lower_bound reports, from the expansion.

    Returns the origin value, the degree, the number of p-subsets and the
    first p-subset point where the expanded certificate is nonzero (with
    its value), or None there.
    """
    cert = witness_poly(inst, p)
    points = [char_vector(Subset(c), inst.n) for c in combinations(range(1, inst.n + 1), p)]
    nonzero = None
    for point in points:
        value = evaluate(cert, point)
        if value:
            nonzero = {"polynomial": str(cert), "point": list(point), "value": value}
            break
    return evaluate(cert, (0,) * inst.n), cert.degree, len(points), nonzero


def assert_matches_expansion(inst, p, rep):
    origin, degree, count, nonzero = expanded_reference(inst, p)
    assert rep.metrics["origin_value"] == origin
    assert rep.metrics["certificate_degree"] == degree
    assert rep.metrics["checked_points"] == count
    assert (rep.witnesses or {}).get("vanishing") == nonzero
    bound_ok = 2 * inst.s * inst.size >= inst.n
    assert (rep.status == PASS) == (bound_ok and degree <= inst.s * inst.size and nonzero is None)


# A balancing family over [10] at p = 5 whose certificate has 16 factors;
# expanding it took minutes and hundreds of MB.
SIXTEEN_FACTORS = (
    (1, 2, 3, 4, 5, 6, 7, 10), (1, 2, 3, 5, 6, 7, 8, 10), (1, 3, 4, 6, 8, 9),
    (1, 5, 7, 8, 9, 10), (1, 7), (2, 3, 4, 6, 8), (2, 3, 5, 6, 7, 10), (4, 9, 10),
)


@st.composite
def instances(draw, p=None):
    prime = p if p is not None else draw(st.sampled_from([2, 3]))
    n = 2 * prime
    options = [
        tuple(c) for k in range(1, n) for c in combinations(range(1, n + 1), k)
    ]
    members = draw(st.sets(st.sampled_from(options), min_size=1, max_size=4))
    L = draw(st.sets(st.integers(1, prime - 1), min_size=1))
    return BalancingInstance(family(n, *members), tuple(sorted(L))), prime


class TestIsBalancing:
    def test_covering_pair(self):
        inst = BalancingInstance(family(4, (1, 3), (1, 2)), (1,))
        assert is_balancing(inst) == (True, None)

    def test_single_member_fails_with_witness(self):
        inst = BalancingInstance(family(4, (1, 2)), (1,))
        ok, witness = is_balancing(inst)
        assert not ok
        assert witness == Subset((1, 2))

    def test_lexicographically_first_witness(self):
        # {3,4} covers nothing in L={1} for F={1,2}; first failure is {1,2}.
        inst = BalancingInstance(family(4, (1, 2)), (1,))
        assert is_balancing(inst)[1].members == (1, 2)

    @given(instances())
    def test_matches_brute_force(self, case):
        inst, _ = case
        expected = brute_is_balancing(inst.n, inst.L, [g.members for g in inst.family])
        assert is_balancing(inst)[0] == expected

    def test_L_validated(self):
        with pytest.raises(ValueError):
            BalancingInstance(family(4, (1, 2)), ())
        with pytest.raises(ValueError):
            BalancingInstance(family(4, (1, 2)), (2,))
        with pytest.raises(ValueError):
            BalancingInstance(family(5, (1, 2)), (1,))


class TestWitnessPoly:
    def test_two_member_example_mod2(self):
        inst = BalancingInstance(family(4, (1, 3), (1, 2)), (1,))
        cert = witness_poly(inst, 2)
        # (x1+x3+1)(x1+x2+1) expanded without exponent reduction.
        expected = Polynomial.from_terms(2, 4, {
            (2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (1, 0, 1, 0): 1, (0, 1, 1, 0): 1,
            (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 0): 1,
        })
        assert cert == expected
        assert evaluate(cert, (0, 0, 0, 0)) == 1
        for combo in combinations(range(1, 5), 2):
            assert evaluate(cert, char_vector(Subset(combo), 4)) == 0

    def test_single_affine_factor_mod3(self):
        inst = BalancingInstance(family(6, (1, 2, 3)), (1,))
        cert = witness_poly(inst, 3)
        expected = Polynomial.from_terms(3, 6, {
            (1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 1,
            (0, 0, 0, 0, 0, 0): 2,
        })
        assert cert == expected
        assert evaluate(cert, (0,) * 6) == 2

    def test_empty_family_rejected_by_family_type(self):
        # An empty family is representable; its certificate is the empty
        # product, the constant 1.
        inst = BalancingInstance(SetFamily(4, ()), (1,))
        assert witness_poly(inst, 2) == Polynomial.constant(1, 2, 4)

    def test_ground_set_must_be_2p(self):
        inst = BalancingInstance(family(6, (1, 2)), (1, 2))
        with pytest.raises(ValueError):
            witness_poly(inst, 2)

    @given(instances())
    def test_degree_and_origin(self, case):
        inst, p = case
        cert = witness_poly(inst, p)
        m, s = inst.size, inst.s
        assert cert.degree <= m * s
        prod = 1
        for ell in inst.L:
            prod = (prod * (-ell)) % p
        assert evaluate(cert, (0,) * inst.n) == pow(prod, m, p) != 0

    @given(instances())
    def test_vanishing_iff_covered(self, case):
        # Ties the algebraic certificate to the combinatorial coverage:
        # intersection sizes live in 0..p and L in 1..p-1, so a factor
        # vanishes mod p exactly when the intersection size is hit.
        inst, p = case
        cert = witness_poly(inst, p)
        targets = set(inst.L)
        for combo in combinations(range(1, inst.n + 1), inst.d):
            point = char_vector(Subset(combo), inst.n)
            covered = any(
                len(set(combo) & set(g.members)) in targets for g in inst.family
            )
            assert (evaluate(cert, point) == 0) == covered


class TestCheckLowerBound:
    def test_pass_example(self):
        inst = BalancingInstance(family(4, (1, 3), (1, 2)), (1,))
        rep = check_lower_bound(inst, 2)
        assert rep.status == PASS
        assert rep.metrics["bound_lhs"] == 4
        assert rep.metrics["bound_rhs"] == 4
        assert rep.metrics["certificate_degree"] == 2
        assert rep.metrics["origin_value"] == 1

    def test_not_balancing_is_not_applicable(self):
        inst = BalancingInstance(family(4, (1, 2)), (1,))
        rep = check_lower_bound(inst, 2)
        assert rep.status == NOT_APPLICABLE
        assert rep.witnesses == {"uncovered_subset": [1, 2]}

    def test_wrong_ground_set_size_not_applicable(self):
        inst = BalancingInstance(family(6, (1, 2)), (1, 2))
        rep = check_lower_bound(inst, 2)
        assert rep.status == NOT_APPLICABLE

    def test_non_prime_rejected(self):
        inst = BalancingInstance(family(4, (1, 3), (1, 2)), (1,))
        with pytest.raises(ValueError):
            check_lower_bound(inst, 4)

    def test_interpretation_recorded(self):
        inst = BalancingInstance(family(4, (1, 3), (1, 2)), (1,))
        rep = check_lower_bound(inst, 2)
        assert rep.params["existential_scope"] == "family members"

    @given(instances())
    def test_bound_holds_on_every_balancing_family(self, case):
        inst, p = case
        rep = check_lower_bound(inst, p)
        if is_balancing(inst)[0]:
            assert rep.status == PASS
            assert 2 * inst.s * inst.size >= inst.n
        else:
            assert rep.status == NOT_APPLICABLE

    @given(instances())
    def test_factored_check_matches_expansion(self, case):
        inst, p = case
        rep = check_lower_bound(inst, p)
        if rep.status == NOT_APPLICABLE:
            # Non-balancing: the expansion is nonzero on some p-subset.
            assert expanded_reference(inst, p)[3] is not None
        else:
            assert_matches_expansion(inst, p, rep)

    @given(instances())
    def test_factored_fail_witness_matches_expansion(self, case):
        # Forcing the coverage check past a non-balancing family reaches
        # the FAIL path: its point, value and rendered polynomial must be
        # those of the expansion.
        inst, p = case
        with mock.patch.object(balancing, "is_balancing", return_value=(True, None)):
            rep = check_lower_bound(inst, p)
        assert_matches_expansion(inst, p, rep)

    def test_factored_check_matches_expansion_n10(self):
        # Certificate of 2658 terms, the benchmark's first given family.
        inst = BalancingInstance(
            family(10, (1, 2, 4, 8, 10), (3, 4, 6, 7, 8), (4, 5, 6, 9, 10)), (2, 3)
        )
        assert len(witness_poly(inst, 5).terms) == 2658
        rep = check_lower_bound(inst, 5)
        assert rep.status == PASS
        assert_matches_expansion(inst, 5, rep)

    def test_empty_member_factor_is_constant(self):
        # Family files may list the empty set; its factors are the
        # constants -l and add nothing to the degree.
        inst = BalancingInstance(family(4, (), (1, 3), (1, 2)), (1,))
        rep = check_lower_bound(inst, 2)
        assert rep.status == PASS
        assert rep.metrics["certificate_degree"] == 2
        assert_matches_expansion(inst, 2, rep)

    def test_sixteen_factor_certificate_is_fast(self, monkeypatch):
        inst = BalancingInstance(family(10, *SIXTEEN_FACTORS), (1, 2))
        start = time.perf_counter()
        rep = check_lower_bound(inst, 5)
        elapsed = time.perf_counter() - start
        assert rep.status == PASS
        assert rep.metrics["certificate_degree"] == 16
        assert rep.metrics["checked_points"] == 252
        assert elapsed < 5
        # The check never expands: it passes under a cap the expansion fails.
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "1000")
        assert check_lower_bound(inst, 5).as_dict() == rep.as_dict()
        with pytest.raises(EnumerationCapError):
            witness_poly(inst, 5)

    def test_sixteen_factor_expansion_refused_at_default_cap(self, monkeypatch):
        # C(26, 16) = 5 311 735 terms fit under 10^7, but their
        # C(26, 16) * 11 stored entries do not.
        monkeypatch.delenv(ENUMERATION_CAP_ENV, raising=False)
        inst = BalancingInstance(family(10, *SIXTEEN_FACTORS), (1, 2))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError):
            witness_poly(inst, 5)
        assert time.perf_counter() - start < 1


class TestEnumerationCap:
    """The coverage and certificate scans enumerate C(n, k) subsets, so
    they are held to the enumeration cap before the first block."""

    def test_large_ground_set_refused_at_once(self, monkeypatch):
        monkeypatch.delenv(ENUMERATION_CAP_ENV, raising=False)
        # C(38, 19) is about 3.5e10 subsets.
        inst = BalancingInstance(family(38, (1,)), (1,))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match="35345263800 19-subsets of \\[38\\]; cap is 10000000"):
            is_balancing(inst)
        with pytest.raises(EnumerationCapError):
            check_lower_bound(inst, 19)
        assert time.perf_counter() - start < 1

    def test_cap_from_the_environment(self, monkeypatch):
        # C(10, 5) = 252 five-subsets for the coverage and the certificate.
        inst = BalancingInstance(family(10, *SIXTEEN_FACTORS), (1, 2))
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "251")
        with pytest.raises(EnumerationCapError, match="cap is 251"):
            is_balancing(inst)
        with pytest.raises(EnumerationCapError, match="cap is 251"):
            check_lower_bound(inst, 5)
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "252")
        assert is_balancing(inst) == (True, None)
        assert check_lower_bound(inst, 5).status == PASS


class TestSearch:
    def test_n4_minimum_is_two(self):
        res = min_balancing_size(4, (1,), 3)
        assert res.minimum_size == 2
        assert res.limit_hit is False
        assert is_balancing(BalancingInstance(res.witness_family, (1,)))[0]
        assert res.minimum_size == 4 // (2 * 1)

    def test_n4_limit_one_exhausts(self):
        res = min_balancing_size(4, (1,), 1)
        assert res.minimum_size is None
        assert res.witness_family is None
        assert res.limit_hit is True

    def test_n6_L12_minimum_two(self):
        res = min_balancing_size(6, (1, 2), 3)
        assert res.minimum_size == 2

    def test_explored_counter_positive_and_deterministic(self):
        a = min_balancing_size(4, (1,), 2)
        b = min_balancing_size(4, (1,), 2)
        assert a.explored == b.explored > 0
        assert a.witness_family == b.witness_family

    def test_candidate_pool_restriction(self):
        pool = [Subset((1, 2)), Subset((1, 3)), Subset((2, 3))]
        res = min_balancing_size(4, (1,), 3, candidates=pool)
        assert res.minimum_size == 2

    def test_invalid_candidates_rejected(self):
        with pytest.raises(ValueError):
            min_balancing_size(4, (1,), 2, candidates=[Subset((1, 2, 3, 4))])

    @pytest.mark.parametrize("n,L", [(4, (1,)), (6, (1,)), (6, (2,)), (6, (1, 2))])
    def test_exhaustiveness_against_brute_force(self, n, L):
        # Independent oracle: try every family of every size below the
        # reported minimum; none may balance.
        res = min_balancing_size(n, L, 3)
        assert res.minimum_size is not None
        options = [
            tuple(c) for k in range(1, n) for c in combinations(range(1, n + 1), k)
        ]
        for size in range(1, res.minimum_size):
            for members in combinations(options, size):
                assert not brute_is_balancing(n, L, members)

    def test_n8_L1_pinned(self):
        res = min_balancing_size(8, (1,), 6)
        assert res.as_dict() == {
            "minimum_size": 4,
            "witness_family": [[1, 2], [1, 3], [1, 4], [1, 5]],
            "explored": 541068,
            "limit_hit": False,
        }

    def test_n8_L13_pinned(self):
        # perfbench/exhaustive_min.py proves the minimum 4 independently;
        # the node count and witness are those of the earlier per-node
        # rescanning search, which took 213 s to reach them.
        res = min_balancing_size(8, (1, 3), 6)
        assert res.as_dict() == {
            "minimum_size": 4,
            "witness_family": [[1, 2, 3, 4], [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7], [1, 2, 3, 5]],
            "explored": 6390800,
            "limit_hit": False,
        }
        assert brute_is_balancing(8, (1, 3), [g.members for g in res.witness_family])

    def test_bitmap_size_capped(self, monkeypatch):
        # 254 candidates x C(8,4) = 70 d-subsets take two 64-bit words each.
        uncapped = min_balancing_size(8, (2,), 2)
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "507")
        with pytest.raises(EnumerationCapError):
            min_balancing_size(8, (2,), 2)
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "508")
        assert min_balancing_size(8, (2,), 2) == uncapped
        # One candidate, but C(40, 20) d-subsets: refused before listing them.
        with pytest.raises(EnumerationCapError):
            min_balancing_size(40, (1,), 1, candidates=[Subset((1,))])

    @pytest.mark.parametrize("chunk", [1, 150, 1000])
    def test_bitmaps_independent_of_chunking(self, monkeypatch, chunk):
        cases = [((2,), 3), ((1, 3), 2)]
        expected = [min_balancing_size(8, L, limit).as_dict() for L, limit in cases]
        monkeypatch.setattr(balancing, "_COVER_CHUNK", chunk)
        assert [min_balancing_size(8, L, limit).as_dict() for L, limit in cases] == expected

    @pytest.mark.parametrize("L", [(1,), (2,), (1, 3), (1, 2, 3)])
    def test_coverage_bitmaps_match_popcount(self, L):
        n = 8
        pool = sorted(Subset(c) for k in range(1, n) for c in combinations(range(1, n + 1), k))
        d_masks = [sum(1 << i for i in c) for c in combinations(range(n), n // 2)]
        expected = [
            sum(1 << i for i, dm in enumerate(d_masks) if bin(g.bitmask & dm).count("1") in L)
            for g in pool
        ]
        points = np.array([char_vector(g, n) for g in pool])
        packed = balancing._coverage_bitmaps(points, n, L)
        assert [int.from_bytes(row.tobytes(), "little") for row in packed] == expected

    @pytest.mark.parametrize(
        "L, limit, expected",
        [
            ((1, 4), 2, {"minimum_size": None, "witness_family": None,
                         "explored": 103042, "limit_hit": True}),
            ((2, 3), 3, {"minimum_size": 3,
                         "witness_family": [[1, 2, 3], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 7]],
                         "explored": 821769, "limit_hit": False}),
            ((1,), 3, {"minimum_size": None, "witness_family": None,
                       "explored": 4147683, "limit_hit": True}),
        ],
        ids=["L14", "L23", "L1"],
    )
    def test_n10_pinned(self, L, limit, expected):
        # The last level is counted in one pass over the options; these
        # node counts are those of the search that recursed into it.
        assert min_balancing_size(10, L, limit).as_dict() == expected

    @pytest.mark.extended
    def test_n12_L1_pinned(self):
        res = min_balancing_size(12, (1,), 3)
        assert res.as_dict() == {
            "minimum_size": None,
            "witness_family": None,
            "explored": 56919171,
            "limit_hit": True,
        }

    def test_found_families_satisfy_bound(self):
        for L in [(1,), (2,), (1, 2)]:
            res = min_balancing_size(6, L, 3)
            if res.minimum_size is not None:
                assert 2 * len(L) * res.minimum_size >= 6


# Over [6] the first 3-subset that misses {1} is {2,3,4}, the 11th in
# combinations order: past the first block of 8.
PAST_FIRST_BLOCK = (BalancingInstance(family(6, (1,)), (1,)), 3)


class TestCountBlocks:
    """Intersection counts streamed in blocks of 8 subsets: the first
    uncovered subset and the first nonzero certificate point may fall in
    any block."""

    def test_blocks_join_to_the_whole_product(self):
        members = np.array([[1, 0, 1, 1, 0, 0], [0, 1, 1, 0, 1, 1]])
        subsets = list(combinations(range(6), 3))
        with mock.patch.object(balancing, "_COVER_CHUNK", 1):
            blocks = list(balancing._intersection_counts(6, 3, members))
        assert [len(idx) for idx, _ in blocks] == [8, 8, 4]
        assert [tuple(row) for idx, _ in blocks for row in idx.tolist()] == subsets
        counts = np.concatenate([c for _, c in blocks], axis=1)
        assert counts.tolist() == [
            [sum(g[i] for i in s) for s in subsets] for g in members.tolist()
        ]

    @given(instances())
    @example(PAST_FIRST_BLOCK)
    def test_first_uncovered_subset(self, case):
        inst, p = case
        with mock.patch.object(balancing, "_COVER_CHUNK", 1):
            ok, uncovered = is_balancing(inst)
        assert ok == brute_is_balancing(inst.n, inst.L, [g.members for g in inst.family])
        # Over [2p] the expanded certificate is first nonzero at the first
        # uncovered p-subset.
        nonzero = expanded_reference(inst, p)[3]
        assert (uncovered is None) == (nonzero is None)
        if uncovered is not None:
            assert list(char_vector(uncovered, inst.n)) == nonzero["point"]

    @given(instances())
    @example(PAST_FIRST_BLOCK)
    def test_not_applicable_witness(self, case):
        inst, p = case
        with mock.patch.object(balancing, "_COVER_CHUNK", 1):
            rep = check_lower_bound(inst, p)
        nonzero = expanded_reference(inst, p)[3]
        if rep.status == NOT_APPLICABLE:
            point = char_vector(Subset(tuple(rep.witnesses["uncovered_subset"])), inst.n)
            assert list(point) == nonzero["point"]
        else:
            assert nonzero is None

    @given(instances())
    @example(PAST_FIRST_BLOCK)
    def test_forced_fail_witness(self, case):
        inst, p = case
        with mock.patch.object(balancing, "_COVER_CHUNK", 1), \
                mock.patch.object(balancing, "is_balancing", return_value=(True, None)):
            rep = check_lower_bound(inst, p)
        assert_matches_expansion(inst, p, rep)
