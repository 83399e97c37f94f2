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
from itertools import combinations
from typing import Sequence

import numpy as np

from .poly import Polynomial, expand_affine_product
from .setfam import (
    EnumerationCapError,
    SetFamily,
    Subset,
    char_vector,
    enumeration_cap,
    family_points,
    is_prime,
)
from .theorems import (
    CLAIM_MAIN3,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    VerificationReport,
    _elapsed_ms,
)

# Entries of one chunk of the candidate x d-subset intersection product.
# Each entry takes 12 bytes (float32 product, intp copy); at 1 << 20 the
# n = 10 searches peaked 2.5 MiB higher, and n = 14 ran no faster.
_COVER_CHUNK = 1 << 16


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
    """
    masks = inst.family.masks()
    targets = set(inst.L)
    for combo in combinations(range(1, inst.n + 1), inst.d):
        fmask = sum(1 << (i - 1) for i in combo)
        if not any((fmask & g).bit_count() in targets for g in masks):
            return False, Subset(combo)
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
    re-verifiable witness.
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
    # The certificate factored: one (member mask, l) pair per affine form.
    # Its value at a 0/1 point F is the product of (|F & g| - l) mod p.
    factors = [(g.bitmask, ell) for g in inst.family.sets for ell in inst.L]

    def value_at(fmask: int) -> int:
        value = 1
        for gmask, ell in factors:
            value = value * ((fmask & gmask).bit_count() - ell) % p
            if not value:
                break
        return value

    origin_value = value_at(0)
    # Each affine factor contributes -l at the origin, so the exact value
    # is (prod of -l)^m; nonzero because every l lies in 1..p-1.
    expected_origin = 1
    for ell in inst.L:
        expected_origin = (expected_origin * (-ell)) % p
    expected_origin = pow(expected_origin, m, p)
    # F_p[x] is an integral domain and every factor is nonzero (l lies in
    # 1..p-1), so the expansion's degree is the number of factors with a
    # nonzero linear part: those of the nonempty members.
    degree = sum(1 for gmask, _ in factors if gmask)
    bound_ok = 2 * s * m >= n
    deg_ok = degree <= m * s
    origin_ok = origin_value == expected_origin and origin_value != 0
    vanish_witness = None
    for combo in combinations(range(1, n + 1), p):
        subset = Subset(combo)
        value = value_at(subset.bitmask)
        if value:
            vanish_witness = {
                "polynomial": str(witness_poly(inst, p)),
                "point": list(char_vector(subset, n)),
                "value": value,
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


def _coverage_bitmaps(pool: Sequence[Subset], n: int, targets: Sequence[int]) -> list[int]:
    """Bit i of a candidate's bitmap: it meets the i-th d-subset of [n], in
    combinations order, in a size from targets.

    Built in row chunks of one float32 product, exact because every
    intersection count is at most n.
    """
    masks = np.array([g.bitmask for g in pool], dtype=np.int64)
    cand_pts = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float32)
    d_cols = family_points(n, n // 2).T.astype(np.float32)
    in_L = np.zeros(n + 1, dtype=bool)
    in_L[list(targets)] = True
    bitmaps: list[int] = []
    rows = max(1, _COVER_CHUNK // d_cols.shape[1])
    for lo in range(0, len(pool), rows):
        hits = in_L[(cand_pts[lo:lo + rows] @ d_cols).astype(np.intp)]
        packed = np.packbits(hits, axis=1, bitorder="little")
        bitmaps.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return bitmaps


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
        pool = sorted(
            Subset(c) for k in range(1, n) for c in combinations(range(1, n + 1), k)
        )
    else:
        pool = sorted(set(candidates))
        for g in pool:
            if not g.members or len(g.members) == n or g.members[-1] > n:
                raise ValueError(f"candidate {g} must be a nonempty proper subset of [{n}]")
    n_d = math.comb(n, d)
    words = len(pool) * -(-n_d // 64)
    if max(n_d, words) > enumeration_cap():
        raise EnumerationCapError(
            f"{n_d} d-subsets, coverage bitmaps of {len(pool)} candidates in "
            f"{words} 64-bit words; cap is {enumeration_cap()}"
        )
    entries = list(zip(pool, _coverage_bitmaps(pool, n, targets)))
    full = (1 << n_d) - 1
    # Branches at the i-th d-subset: the candidates covering it, in pool
    # order, listed the first time the search stops there.
    branches: dict[int, list[tuple[Subset, int]]] = {}

    explored = 0

    def dfs(covered: int, members: list[Subset], depth_left: int) -> list[Subset] | None:
        nonlocal explored
        explored += 1
        if covered == full:
            return list(members)
        if depth_left == 0:
            return None
        missing = (~covered & (covered + 1)).bit_length() - 1
        options = branches.get(missing)
        if options is None:
            options = branches[missing] = [e for e in entries if e[1] >> missing & 1]
        for g, bitmap in options:
            members.append(g)
            found = dfs(covered | bitmap, members, depth_left - 1)
            members.pop()
            if found is not None:
                return found
        return None

    for k in range(1, size_limit + 1):
        found = dfs(0, [], k)
        if found is not None:
            family = SetFamily(n, tuple(found))
            return SearchResult(k, family, explored, False)
    return SearchResult(None, None, explored, True)
