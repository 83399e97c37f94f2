"""Reference computations made apart from hilbfam.

Every answer the benchmark times is checked here, after timing, against
closed forms, brute force or this module's own exact linear algebra.
Nothing in this file imports hilbfam, so a defect in the library cannot
hide in its own check.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from math import ceil, comb
from typing import Any, Iterable, Sequence

import numpy as np


class CheckError(Exception):
    """An answer disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- closed forms -----------------------------------------------------------


def monomial_count(n: int, m: int) -> int:
    """Number of multilinear monomials of degree <= m in n variables."""
    return sum(comb(n, i) for i in range(m + 1))


def wilson_rank(n: int, m: int) -> int:
    """Hilbert value of the complete d-uniform family at m <= min(d, n-d)."""
    return comb(n, m)


def modq_family_size(n: int, d: int, q: int) -> int:
    return sum(comb(n, k) for k in range(n + 1) if k % q == d % q)


def modq_series(n: int, d: int, q: int) -> tuple[int, ...]:
    """Hilbert series of {F in 2^[n] : |F| = d mod q} over a field of
    characteristic p, q a power of p, stopped at the first full value.

    Up to r, the largest min(k, n-k) over the family's sizes k, h(m) sums
    C(n, j) over j <= m with j = m mod q; above r it is the family size
    less the same sum taken over j > m.
    """
    total = modq_family_size(n, d, q)
    r = max(min(k, n - k) for k in range(n + 1) if k % q == d % q)
    series = []
    for m in range(n + 1):
        same_class = [j for j in range(n + 1) if (j - m) % q == 0]
        if m <= r:
            h = sum(comb(n, j) for j in same_class if j <= m)
        else:
            h = total - sum(comb(n, j) for j in same_class if j > m)
        series.append(h)
        if h == total:
            break
    return tuple(series)


# -- exact linear algebra -----------------------------------------------------


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p by plain Gaussian elimination (Python ints for p = 2)."""
    a = np.asarray(matrix, dtype=np.int64) % p
    if a.size == 0:
        return 0
    if p == 2:
        basis: dict[int, int] = {}
        for row in np.packbits(a.astype(np.uint8), axis=1, bitorder="little"):
            r = int.from_bytes(row.tobytes(), "little")
            while r:
                top = r.bit_length() - 1
                if top not in basis:
                    basis[top] = r
                    break
                r ^= basis[top]
        return len(basis)
    a = a.copy()
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), -1, p) % p
        hit = rank + 1 + np.nonzero(a[rank + 1 :, c])[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[rank, c:])) % p
        rank += 1
    return rank


def evaluation_matrix(points: Sequence[Sequence[int]], monomials: Sequence[Sequence[int]]) -> np.ndarray:
    """Values of multilinear monomials at 0/1 points: 1 iff the
    monomial's support lies inside the point's support."""
    pts = np.asarray(points, dtype=np.int64)
    mons = np.asarray(monomials, dtype=np.int64)
    return (pts @ mons.T == mons.sum(axis=1)).astype(np.int64)


def check_multilinear_columns(monomials: Sequence[Sequence[int]], n: int, m: int) -> None:
    mons = np.asarray(monomials, dtype=np.int64)
    expect(mons.shape == (monomial_count(n, m), n), f"monomial table has shape {mons.shape}")
    expect(bool(np.isin(mons, (0, 1)).all()), "monomials are not multilinear")
    expect(int(mons.sum(axis=1).max()) <= m, f"a monomial has degree above {m}")
    expect(len({tuple(r) for r in mons.tolist()}) == mons.shape[0], "repeated monomial")


def check_kernel(points, m: int, p: int, kernel: np.ndarray, monomials) -> None:
    """The rows of kernel are independent, vanish at every point, and
    with the rank of the evaluation matrix account for every monomial."""
    n = len(points[0])
    check_multilinear_columns(monomials, n, m)
    evals = evaluation_matrix(points, monomials)
    k = np.asarray(kernel, dtype=np.int64)
    expect(k.ndim == 2 and k.shape[1] == evals.shape[1], f"kernel has shape {k.shape}")
    expect(not ((evals @ k.T) % p).any(), "a kernel row does not vanish on the points")
    expect(rank_mod(k, p) == k.shape[0], "kernel rows are dependent")
    rank = rank_mod(evals, p)
    expect(
        rank + k.shape[0] == len(monomials),
        f"rank {rank} + kernel dimension {k.shape[0]} != {len(monomials)} monomials",
    )


# -- balancing families -------------------------------------------------------

# Minimum balancing-family sizes over [8], as hilbfam's search finds them.
# They are copies; exhaustive_min.py recomputes them independently.
N8_MINIMUM = {(2,): 3, (1, 2): 2, (2, 3): 2, (1, 2, 3): 2, (1, 3): 4}


def _mask(members: Iterable[int]) -> int:
    return sum(1 << (i - 1) for i in members)


def is_balancing(n: int, L: Sequence[int], family: Sequence[Sequence[int]]) -> bool:
    """Every n/2-subset of [n] meets some member in a size from L."""
    targets = set(L)
    masks = [_mask(g) for g in family]
    return all(
        any((_mask(f) & g).bit_count() in targets for g in masks)
        for f in combinations(range(1, n + 1), n // 2)
    )


def size_bound(n: int, s: int) -> int:
    """The paper's lower bound on a balancing family over [2p]: n/(2s)."""
    return ceil(n / (2 * s))


def origin_value(L: Sequence[int], m: int, p: int) -> int:
    """Certificate value at the origin: each of the m members contributes
    one factor -l per l in L."""
    value = 1
    for ell in L:
        value *= -ell
    return pow(value % p, m, p)


# -- answer fingerprints ------------------------------------------------------


def fingerprint(answer: Any) -> str:
    """Stable digest of an answer, to compare the rounds of one run."""
    h = hashlib.sha256()
    _feed(h, answer)
    return h.hexdigest()


def _feed(h, obj: Any) -> None:
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"{type(obj).__name__}{len(obj)}(".encode())
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif hasattr(obj, "as_dict"):
        h.update(json.dumps(obj.as_dict(), sort_keys=True, default=repr).encode())
    else:
        h.update(repr(obj).encode())
