"""Balancing families and the algebraic certificate for their size bound.

A family over [2d] balances a set L of intersection sizes if every
d-subset meets some family member in a size belonging to L.  For ground
sets of size 2p, p prime, any such family must have at least n/(2|L|)
members; the certificate is the product of affine forms (<x, v_g> - l),
nonzero at the origin yet vanishing on every d-subset point, which no
low-degree polynomial can do.  `check_lower_bound` evaluates it factored,
one intersection count per factor; `witness_poly` is its expansion.  The
search keeps a partial family's coverage as one bitmap int over the
d-subsets, so its first uncovered d-subset is the lowest zero bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator, Sequence

import numpy as np

from .poly import Polynomial, expand_affine_product
from .setfam import (
    EnumerationCapError,
    SetFamily,
    Subset,
    char_vector,
    enumeration_cap,
    is_prime,
    level_points,
)
from .theorems import (
    CLAIM_MAIN3,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    VerificationReport,
    _elapsed_ms,
)

# Entries of one block of the member x k-subset intersection product.
# Each entry takes 5 bytes (float32 count, bool hit); at 1 << 20 the
# n = 10 searches peaked 1 MiB higher under tracemalloc.
_COVER_CHUNK = 1 << 16


def _intersection_counts(n: int, k: int, members: np.ndarray) -> Iterator[tuple]:
    """Blocks of (0-based members of k-subsets S of [n] in combinations
    order, |g & S| with one row per row g of the 0/1 array members), each
    one float32 product, exact as counts are at most n.  Every block but
    the last holds a multiple of 8 subsets, so bits packed per block join up.
    Raises EnumerationCapError, before any block, when C(n, k) exceeds the
    enumeration cap."""
    count = math.comb(n, k)
    if count > enumeration_cap():
        raise EnumerationCapError(f"{count} {k}-subsets of [{n}]; cap is {enumeration_cap()}")
    rows = np.asarray(members, dtype=np.float32).reshape(-1, n)
    width = max(8, _COVER_CHUNK // max(1, len(rows)) // 8 * 8)
    combos = combinations(range(n), k)
    while True:
        idx = np.fromiter(chain.from_iterable(islice(combos, width)), np.intp).reshape(-1, k)
        if not len(idx):
            return
        cols = np.zeros((n, len(idx)), dtype=np.float32)
        cols[idx, np.arange(len(idx))[:, None]] = 1
        yield idx, rows @ cols


def _subset(idx: np.ndarray) -> Subset:
    return Subset(tuple((idx + 1).tolist()))


@dataclass(frozen=True)
class BalancingInstance:
    """A candidate balancing family with its target intersection sizes."""

    family: SetFamily
    L: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.family.n
        if n % 2:
            raise ValueError(f"ground-set size must be even, got {n}")
        d = n // 2
        L = tuple(sorted(set(int(v) for v in self.L)))
        if not L:
            raise ValueError("L must be nonempty")
        if L[0] < 1 or L[-1] > d - 1:
            raise ValueError(f"L must lie inside 1..{d - 1}, got {L}")
        object.__setattr__(self, "L", L)

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def d(self) -> int:
        return self.family.n // 2

    @property
    def s(self) -> int:
        return len(self.L)

    @property
    def size(self) -> int:
        return len(self.family)


def is_balancing(inst: BalancingInstance) -> tuple[bool, Subset | None]:
    """Whether every d-subset meets some family member in a size from L.

    On failure returns the lexicographically first uncovered d-subset.
    Raises EnumerationCapError when C(n, d) exceeds the enumeration cap.
    """
    for idx, counts in _intersection_counts(inst.n, inst.d, inst.family.points()):
        uncovered = np.flatnonzero(~np.isin(counts, inst.L).any(axis=0))
        if len(uncovered):
            return False, _subset(idx[uncovered[0]])
    return True, None


def witness_poly(inst: BalancingInstance, p: int) -> Polynomial:
    """Expanded certificate polynomial for a ground set of size 2p.

    One affine factor per (member, l) pair; intersection sizes lie in
    0..p and l in 1..p-1, so vanishing of a factor mod p pins the exact
    intersection size.  Raises EnumerationCapError when the expansion's
    size bound passes the enumeration cap (see expand_affine_product).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if inst.n != 2 * p:
        raise ValueError(f"certificate needs ground-set size 2p = {2 * p}, got {inst.n}")
    if inst.L[0] < 1 or inst.L[-1] > p - 1:
        raise ValueError(f"L must lie inside 1..{p - 1}, got {inst.L}")
    factors = [
        (char_vector(g, inst.n), ell)
        for g in inst.family.sets
        for ell in inst.L
    ]
    return expand_affine_product(factors, p, inst.n)


def check_lower_bound(inst: BalancingInstance, p: int) -> VerificationReport:
    """Check 2*s*m >= n for a balancing family over [2p], certificate included.

    Non-balancing families and ground sets other than 2p are
    NOT_APPLICABLE; a FAIL would falsify the bound and carries a
    re-verifiable witness.  Raises EnumerationCapError when C(n, n/2) or
    C(n, p) exceeds the enumeration cap.
    """
    start = time.perf_counter()
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    params = {
        "n": inst.n,
        "p": p,
        "L": list(inst.L),
        "s": inst.s,
        "family_size": inst.size,
        "family": [list(g.members) for g in inst.family.sets],
        "existential_scope": "family members",
    }
    if inst.n != 2 * p:
        return VerificationReport(
            CLAIM_MAIN3, params, NOT_APPLICABLE,
            metrics={"reason": f"bound is stated for ground sets of size 2p={2 * p}"},
            wall_time_ms=_elapsed_ms(start),
        )
    balanced, uncovered = is_balancing(inst)
    if not balanced:
        return VerificationReport(
            CLAIM_MAIN3, params, NOT_APPLICABLE,
            witnesses={"uncovered_subset": list(uncovered.members)},
            metrics={"reason": "family is not balancing"},
            wall_time_ms=_elapsed_ms(start),
        )
    m, s, n = inst.size, inst.s, inst.n
    members = inst.family.points()

    def values(counts: np.ndarray) -> np.ndarray:
        # The certificate factored: one affine form per (member g, l); its
        # value at a 0/1 point F is the product of (|F & g| - l) mod p.
        value = np.ones(counts.shape[1], dtype=np.int64)
        for ell in inst.L:
            for row in counts.astype(np.int64):
                value = value * ((row - ell) % p) % p
        return value

    origin_value = int(values(np.zeros((m, 1)))[0])
    # Each affine factor contributes -l at the origin, so the exact value
    # is (prod of -l)^m; nonzero because every l lies in 1..p-1.
    expected_origin = 1
    for ell in inst.L:
        expected_origin = (expected_origin * (-ell)) % p
    expected_origin = pow(expected_origin, m, p)
    # F_p[x] is an integral domain and every factor is nonzero (l lies in
    # 1..p-1), so the expansion's degree is the number of factors with a
    # nonzero linear part: those of the nonempty members.
    degree = s * sum(map(any, members))
    bound_ok = 2 * s * m >= n
    deg_ok = degree <= m * s
    origin_ok = origin_value == expected_origin and origin_value != 0
    vanish_witness = None
    for idx, counts in _intersection_counts(n, p, members):
        value = values(counts)
        nonzero = np.flatnonzero(value)
        if len(nonzero):
            vanish_witness = {
                "polynomial": str(witness_poly(inst, p)),
                "point": list(char_vector(_subset(idx[nonzero[0]]), n)),
                "value": int(value[nonzero[0]]),
            }
            break
    metrics = {
        "m": m,
        "s": s,
        "bound_lhs": 2 * s * m,
        "bound_rhs": n,
        "certificate_degree": degree,
        "origin_value": origin_value,
        "expected_origin_value": expected_origin,
        "checked_points": math.comb(n, p),
    }
    failures = {}
    if not bound_ok:
        failures["bound"] = f"2*s*m = {2 * s * m} < n = {n}"
    if not deg_ok:
        failures["degree"] = f"deg = {degree} > m*s = {m * s}"
    if not origin_ok:
        failures["origin"] = f"value at origin is {origin_value}"
    if vanish_witness is not None:
        failures["vanishing"] = vanish_witness
    if failures:
        return VerificationReport(
            CLAIM_MAIN3, params, FAIL, failures, metrics, _elapsed_ms(start)
        )
    return VerificationReport(CLAIM_MAIN3, params, PASS, None, metrics, _elapsed_ms(start))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the minimal-family search."""

    minimum_size: int | None
    witness_family: SetFamily | None
    explored: int
    limit_hit: bool

    def as_dict(self) -> dict:
        return {
            "minimum_size": self.minimum_size,
            "witness_family": None
            if self.witness_family is None
            else [list(g.members) for g in self.witness_family.sets],
            "explored": self.explored,
            "limit_hit": self.limit_hit,
        }


def _coverage_bitmaps(points: np.ndarray, n: int, targets: Sequence[int]) -> np.ndarray:
    """Coverage bitmaps of the rows of points, packed little-endian into one
    uint8 row each: bit i says the row meets the i-th d-subset of [n], in
    combinations order, in a size from targets."""
    packed = np.empty((len(points), -(-math.comb(n, n // 2) // 8)), dtype=np.uint8)
    start = 0
    for _, counts in _intersection_counts(n, n // 2, points):
        hits = np.isin(counts, targets)
        width = -(-hits.shape[1] // 8)
        # Packed flat when rows fill whole bytes: packbits along rows of a
        # few bytes costs more than the product.
        axis = None if hits.shape[1] % 8 == 0 else 1
        packed[:, start:start + width] = np.packbits(
            hits, axis=axis, bitorder="little").reshape(-1, width)
        start += width
    return packed


def min_balancing_size(
    n: int,
    L: Sequence[int],
    size_limit: int,
    candidates: Sequence[Subset] | None = None,
) -> SearchResult:
    """Smallest balancing family size up to size_limit, by iterative deepening.

    Candidate members default to all nonempty proper subsets of [n].
    Branching always extends through the lexicographically first
    uncovered d-subset, which every balancing family must cover, so the
    search is exhaustive for each size.  Each candidate's coverage bitmap
    takes C(n, d) bits; EnumerationCapError is raised when C(n, d), or the
    bitmaps counted in 64-bit words, exceed the enumeration cap.
    """
    if n < 4 or n % 2:
        raise ValueError(f"ground-set size must be even and at least 4, got {n}")
    if size_limit < 1:
        raise ValueError(f"size limit must be positive, got {size_limit}")
    d = n // 2
    targets = tuple(sorted(set(int(v) for v in L)))
    if not targets or targets[0] < 1 or targets[-1] > d - 1:
        raise ValueError(f"L must be a nonempty subset of 1..{d - 1}, got {tuple(L)}")
    if candidates is None:
        if 2**n - 2 > enumeration_cap():
            raise EnumerationCapError(f"candidate pool 2^{n}-2 exceeds cap")
    else:
        pool = sorted(set(candidates))
        for g in pool:
            if not g.members or len(g.members) == n or g.members[-1] > n:
                raise ValueError(f"candidate {g} must be a nonempty proper subset of [{n}]")
    pool_size = 2**n - 2 if candidates is None else len(pool)
    n_d = math.comb(n, d)
    words = pool_size * -(-n_d // 64)
    if max(n_d, words) > enumeration_cap():
        raise EnumerationCapError(
            f"{n_d} d-subsets, coverage bitmaps of {pool_size} candidates in "
            f"{words} 64-bit words; cap is {enumeration_cap()}"
        )
    # One uint8 0/1 row per candidate, in sorted Subset order, the form
    # level_points makes; _intersection_counts reads it in float32.
    points = (level_points(n, range(1, n)) if candidates is None
              else np.array([char_vector(g, n) for g in pool], dtype=np.uint8))
    packed = _coverage_bitmaps(points, n, targets)
    bitmaps = [int.from_bytes(row.tobytes(), "little") for row in packed]
    full = (1 << n_d) - 1
    # Branches at the i-th d-subset: the rows covering it and their
    # bitmaps, in pool order, listed the first time the search stops there.
    branches: dict[int, tuple[list[int], list[int]]] = {}

    explored = 0

    def dfs(covered: int, members: list[int], depth_left: int) -> list[int] | None:
        nonlocal explored
        explored += 1
        if covered == full:
            return list(members)
        missing = (~covered & (covered + 1)).bit_length() - 1
        options = branches.get(missing)
        if options is None:
            rows = np.flatnonzero(packed[:, missing >> 3] >> (missing & 7) & 1).tolist()
            options = branches[missing] = (rows, [bitmaps[g] for g in rows])
        rows, masks = options
        if depth_left == 1:
            # Each child covers everything or is a dead leaf: count those up to the first.
            need = full ^ covered
            for i, bitmap in enumerate(masks):
                if bitmap & need == need:
                    explored += i + 1
                    return members + [rows[i]]
            explored += len(masks)
            return None
        for g, bitmap in zip(rows, masks):
            members.append(g)
            found = dfs(covered | bitmap, members, depth_left - 1)
            members.pop()
            if found is not None:
                return found
        return None

    for k in range(1, size_limit + 1):
        found = dfs(0, [], k)
        if found is not None:
            family = SetFamily(n, tuple(_subset(np.flatnonzero(points[g])) for g in found))
            return SearchResult(k, family, explored, False)
    return SearchResult(None, None, explored, True)
