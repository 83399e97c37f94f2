"""Hilbert function values of finite point sets in F_p^n.

The value h(m) is the rank of the evaluation matrix whose rows are
points and whose columns are the reduced monomials of degree at most m
(exponent cap 1 for 0/1 point sets, p-1 in general; both caps preserve
values pointwise, so the reduced columns span the full degree-<= m
function space).  The columns are one exponent array,
``poly.monomial_table``, passed on as it is; only :func:`kernel_matrix`
returns them as tuples.  Rows are whole-array products over it (see
:func:`_eval_rows`).  Every question is one elimination through the
incremental reducer, fed in blocks of at most ``_BLOCK_ROWS`` rows so the
matrix is never materialized:

- a value or kernel of caller-supplied points feeds every point row;
- a whole series feeds the transposed matrix, monomial rows over point
  columns, in the global monomial order.  Rank is invariant under
  transposition.  The monomials whose rows raise the rank, the standard
  ones, form an order ideal, as in the Moeller-Buchberger algorithm: if
  u's row depends on the rows of earlier monomials, the row of x_i * u
  (reduced by x^2 = x at cap 1, x^p = x at cap p-1) depends on theirs
  times x_i, which come earlier too.  So h(m) is the number of standard
  monomials of degree <= m, and each degree feeds only the monomials whose
  every lower neighbour is standard (see :func:`_next_degree`);
- for nested point sets F in G, the rows of G outside F go into F's
  reducer after F's RREF is taken, and the final rank is h(G).

The uniform and mod-q families this library builds itself are unions of
size levels, each one orbit of S_n permuting coordinates, and every
question about them at one degree bound (the reports, ``hilbfam ideal``,
and the MAIN2, HRUBES and HLEMMA drivers) is one :func:`family_rref` over
the levels that ``setfam.family_sizes`` names.  When a question's levels
hold more than max(2 * columns, ``_BLOCK_ROWS``) points, their row space
is spun from one seed row per level under two generators of S_n instead,
whose column permutations are looked up in the monomial array (see
:func:`_feed_family`); below that, streaming every point is as cheap.
The RREF of a row space is unique, so both paths give the same kernels
and values.

The drivers take the RREF itself, a :class:`~hilbfam.gflinalg.Rref`
from :func:`family_rref` or :func:`nested_kernel`, and scan it for
witnesses without building the canonical kernel (see
``theorems._vanishing_witness``); :meth:`~hilbfam.gflinalg.Rref.kernel`
and :func:`kernel_matrix` build it for callers that want it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gflinalg import Rref, RowReducer, chunk_rows
from .poly import Monomial, Point, Polynomial, monomial_table, monomials_upto
from .setfam import Params, binomial, family_sizes, is_power_of, is_prime, level_points

_BLOCK_ROWS = 2048


def _points_array(points: Sequence[Point] | np.ndarray, p: int) -> np.ndarray:
    try:
        raw = np.asarray(points)
        with np.errstate(invalid="ignore"):
            arr = raw.astype(np.int64, copy=False)
    except ValueError as exc:
        raise ValueError("points have inconsistent dimensions") from exc
    if arr is not raw and not np.array_equal(arr, raw):
        raise ValueError("point coordinates must be integers")
    if arr.ndim != 2 or not arr.shape[0]:
        raise ValueError("need at least one point")
    if not arr.shape[1]:
        raise ValueError("points must have at least one coordinate")
    return arr % p


def _validate_cap(arr: np.ndarray, p: int, cap: int) -> None:
    if cap not in (1, p - 1) or cap < 1:
        raise ValueError(f"exponent cap must be 1 or p-1, got {cap} for p={p}")
    if cap == 1 and arr.size and int(arr.max()) > 1:
        raise ValueError("exponent cap 1 requires 0/1-valued points")


def _eval_rows(arr: np.ndarray, exps: np.ndarray, p: int, cap: int, dtype=None) -> np.ndarray:
    """Evaluate every monomial, one row of exponents each in `exps` (rows
    of a monomial table), at every point of a row block.

    At cap 1, a float32 product counts the monomial's variables that are 0
    at the point (exact: counts are at most n); the value is count == 0,
    written as bool, or as 0/1 into `dtype`.  The points' 1 - x and their
    counts are made in float32 one chunk of points at a time (see
    ``gflinalg.chunk_rows``), so beside the output they take at most one
    chunk, a float32 output holds its own counts, and the points may come
    in any integer dtype: the uint8 arrays of ``setfam.level_points`` are
    read as they are.  At cap p-1, one gather-multiply mod p per variable
    in int64, returned as int64 or `dtype`."""
    rows, n = arr.shape
    if cap == 1:
        out = np.empty((rows, exps.shape[0]), dtype=dtype or np.bool_)
        exps_t = exps.T.astype(np.float32)
        step = chunk_rows(4 * (n + exps.shape[0]))
        for i in range(0, rows, step):
            part = out[i : i + step]
            zeros = np.subtract(1, arr[i : i + step], dtype=np.float32)
            counts = np.matmul(zeros, exps_t, out=part if part.dtype == np.float32 else None)
            np.equal(counts, 0, out=part, casting="unsafe")
        return out
    # powers[:, i, e] = arr[:, i]^e mod p up to the largest exponent in use;
    # exact in int64, as callers' RowReducer refuses (p-1)^2 >= 2^62.
    powers = np.ones((rows, n, int(exps.max(initial=0)) + 1), dtype=np.int64)
    for e in range(1, powers.shape[2]):
        powers[:, :, e] = powers[:, :, e - 1] * arr % p
    out = np.ones((rows, exps.shape[0]), dtype=np.int64)
    for i in range(n):
        out *= np.take(powers[:, i], exps[:, i], axis=1)
        out %= p
    return out if dtype is None else out.astype(dtype, copy=False)


def _feed_points(red: RowReducer, arr: np.ndarray, exps: np.ndarray, p: int, cap: int) -> None:
    for start in range(0, arr.shape[0], _BLOCK_ROWS):
        red.add_rows(_eval_rows(arr[start : start + _BLOCK_ROWS], exps, p, cap))


def _row_keys(rows: np.ndarray, dtype) -> np.ndarray:
    """One byte string per row of a nonnegative integer array, its entries
    big-endian in `dtype`, so that the strings sort as the rows do; no
    encoding of a whole row as one integer, which would overflow."""
    big = np.dtype(dtype).newbyteorder(">")
    keys = np.ascontiguousarray(rows, dtype=big)
    return keys.view(np.dtype((np.void, big.itemsize * rows.shape[1]))).ravel()


def _spin_permutations(exps: np.ndarray) -> list[np.ndarray]:
    """The position in the monomial table `exps` of every row with its
    exponents permuted by (1 2) and by (1 2 ... n): e_2 e_1 e_3 .. e_n and
    e_2 .. e_n e_1.  Keys [degree, e_1..e_n] ascend in the global order, so
    ``searchsorted`` finds each image."""
    n = exps.shape[1]
    degree = exps.sum(axis=1, dtype=np.int64)
    dtype = np.min_scalar_type(int(degree[-1]))
    orders = (range(n), [*range(n)[1::-1], *range(2, n)], [*range(1, n), 0])
    keys = [_row_keys(np.column_stack([degree.astype(dtype), exps[:, order]]), dtype) for order in orders]
    return [np.searchsorted(keys[0], images) for images in keys[1:]]


def _feed_family(
    red: RowReducer, n: int, sizes: Sequence[int], exps: np.ndarray, spin: bool | None = None
) -> None:
    """Bring into `red` the cap-1 rows, over the columns of the monomial
    table `exps`, of every 0/1 point of [n] whose size is in `sizes`.  What
    `red` holds already must be closed under permuting the coordinates, as
    the rows of whole size levels are.

    Streaming feeds every point.  Spinning feeds one seed row per level,
    then both images of each basis row, in the order rows join the basis,
    under the column permutations that the coordinate permutations (1 2)
    and (1 2 ... n) induce, until every row has been imaged.  That span is
    closed under S_n, and each level is one S_n-orbit, so it is the
    levels' row space, reached after len(sizes) + 2 * (rank gained) rows.
    `spin` None spins when the levels hold more than max(2 * cols,
    ``_BLOCK_ROWS``) points; below that, streaming feeds no more rows than
    spinning can, or fits in one block.
    """
    if not sizes:
        return
    if spin is None:
        spin = sum(binomial(n, k) for k in sizes) > max(2 * len(exps), _BLOCK_ROWS)
    if not spin:
        _feed_points(red, level_points(n, sizes), exps, red.p, 1)
        return
    # Row of the permuted point at monomial u = row of the point at u with
    # its exponents permuted back.
    perms = _spin_permutations(exps)
    seeds = (np.arange(n) < np.array(sizes)[:, None]).astype(np.uint8)
    done = red.rank
    red.add_rows(_eval_rows(seeds, exps, red.p, 1))
    while done < red.rank:
        stop = min(done + _BLOCK_ROWS // 2, red.rank)
        red.add_basis_images(done, stop, perms)
        done = stop


def _reduce_points(
    points: Sequence[Point], m: int, p: int, cap: int, rows: int | None = None
) -> tuple[RowReducer, np.ndarray]:
    """A reducer fed every point's row, with its basis allocated for `rows`
    rows (default: the points), and its monomial table."""
    arr = _points_array(points, p)
    _validate_cap(arr, p, cap)
    exps = monomial_table(arr.shape[1], m, cap)
    red = RowReducer(p, len(exps), len(arr) if rows is None else rows)
    _feed_points(red, arr, exps, p, cap)
    return red, exps


def hilbert_value(points: Sequence[Point], m: int, p: int, cap: int) -> int:
    """Dimension of the degree-<= m function space on the point set."""
    red, _ = _reduce_points(points, m, p, cap)
    return red.rank


def _next_degree(standard: np.ndarray, cap: int) -> np.ndarray:
    """The exponent rows, in the global monomial order, one degree above
    the rows of `standard` (all of one degree), with entries <= cap, whose
    every lower neighbour c - e_j (c_j >= 1) is a row of `standard`.

    Every c = s + e_j with s in `standard` is made once per such pair, so c
    qualifies when it is made once per nonzero entry, grouped by
    :func:`_row_keys`, whose order is the order of exponent tuples.
    """
    rows, cols = np.nonzero(standard < cap)
    up = standard[rows]
    up[np.arange(len(rows)), cols] += 1
    _, first, made = np.unique(_row_keys(up, np.min_scalar_type(cap)), return_index=True, return_counts=True)
    up = up[first]
    return up[made == np.count_nonzero(up, axis=1)]


def hilbert_series(points: Sequence[Point], p: int, cap: int) -> tuple[int, ...]:
    """Values h(0), h(1), ... up to and including the first m with h(m) = |points|."""
    arr = _points_array(points, p)
    if len(np.unique(arr, axis=0)) != len(arr):
        raise ValueError("points must be distinct for a Hilbert series")
    _validate_cap(arr, p, cap)
    red = RowReducer(p, len(arr))
    values = []
    exps = np.zeros((1, arr.shape[1]), dtype=np.int64)
    while len(exps):
        standard = []
        for start in range(0, len(exps), _BLOCK_ROWS):
            block = exps[start : start + _BLOCK_ROWS]
            standard.append(block[red.add_rows(_eval_rows(arr, block, p, cap).T)])
        values.append(red.rank)
        if red.rank == len(arr):
            return tuple(values)
        exps = _next_degree(np.concatenate(standard), cap)
    raise AssertionError("series failed to stabilize below the interpolation degree")


def kernel_matrix(points: Sequence[Point], m: int, p: int, cap: int) -> tuple[np.ndarray, tuple[Monomial, ...]]:
    """Coefficient vectors (rows) of a canonical basis of the degree-<= m
    vanishing polynomials, over the reduced monomial columns as tuples."""
    red, exps = _reduce_points(points, m, p, cap)
    return red.kernel_matrix(), monomials_upto(exps.shape[1], m, cap)


def _rows_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the rows of `a` that are rows of `b`, for nonnegative int64
    arrays of one width, by their :func:`_row_keys`, looked up in b's."""
    keys = _row_keys(a, np.int64)
    table = np.sort(_row_keys(b, np.int64))
    at = np.searchsorted(table, keys)
    return table[np.minimum(at, len(table) - 1)] == keys


def nested_kernel(
    points_f: Sequence[Point], points_g: Sequence[Point], m: int, p: int, cap: int
) -> tuple[Rref, np.ndarray, int]:
    """For point sets F contained in G: the RREF of F's degree-<= m
    evaluation rows, whose kernel is :func:`kernel_matrix`'s, its monomial
    table, and h(G) at m.

    One elimination: the rows of the points of G outside F go into F's
    reducer after its RREF is taken.  G is validated as a whole, and F
    must be contained in G.
    """
    arr_g = _points_array(points_g, p)
    _validate_cap(arr_g, p, cap)
    arr_f = _points_array(points_f, p)
    if arr_f.shape[1] != arr_g.shape[1] or not _rows_in(arr_f, arr_g).all():
        raise ValueError("the first point set must be contained in the second")
    # F is inside G, so G's points bound the rank.
    red, exps = _reduce_points(arr_f, m, p, cap, len(arr_g))
    rref = red.rref()
    _feed_points(red, arr_g[~_rows_in(arr_g, arr_f)], exps, p, cap)
    return rref, exps, red.rank


def family_rref(
    n: int, sizes: Sequence[int], m: int, p: int, more: Sequence[int] = ()
) -> tuple[Rref, np.ndarray, int]:
    """The RREF of the cap-1 degree-<= m evaluation rows of the 0/1 points
    of [n] with sizes in `sizes`, whose kernel is :func:`kernel_matrix`'s
    of ``level_points(n, sizes)``, its monomial table, and h at m of the
    points with sizes in `sizes` or `more`.  The RREF is the reducer's R
    itself, rows and pivots in join order (see ``RowReducer.rref``).

    One elimination, as :func:`nested_kernel`: the levels of `more` outside
    `sizes` go into the reducer after the RREF is taken, which leaves it
    as it is, and the basis is allocated once for all their points.
    Callers take both groups from ``setfam.family_sizes``, which holds
    them to the enumeration cap; neither need be enumerated.
    """
    others = [k for k in more if k not in sizes]
    exps = monomial_table(n, m, 1)
    red = RowReducer(p, len(exps), sum(binomial(n, k) for k in [*sizes, *others]))
    _feed_family(red, n, sizes, exps)
    rref = red.rref()
    _feed_family(red, n, others, exps)
    return rref, exps, red.rank


def vector_to_polynomial(vec: np.ndarray, exps: np.ndarray, p: int) -> Polynomial:
    """The polynomial with coefficients `vec` on the monomial table `exps`,
    its terms made from the nonzero entries only, as Python ints."""
    nonzero = np.flatnonzero(vec)
    terms = zip(map(tuple, exps[nonzero].tolist()), np.asarray(vec)[nonzero].tolist())
    return Polynomial.from_terms(p, exps.shape[1], dict(terms))


def ideal_truncation_basis(points: Sequence[Point], m: int, p: int, cap: int) -> list[Polynomial]:
    """Basis of the polynomials of degree <= m vanishing on every point."""
    red, exps = _reduce_points(points, m, p, cap)
    return [vector_to_polynomial(row, exps, p) for row in red.kernel_matrix()]


def wilson_value(n: int, d: int, m: int) -> int:
    """Closed-form Hilbert value C(n, m) for the complete d-uniform family.

    Only asserted for 0 <= m <= min(d, n-d); outside that range the
    closed form does not apply and a ValueError is raised.
    """
    if not 0 <= d <= n:
        raise ValueError(f"d must satisfy 0 <= d <= n, got d={d}, n={n}")
    if not 0 <= m <= min(d, n - d):
        raise ValueError(f"m={m} outside closed-form range 0..min(d, n-d)={min(d, n - d)}")
    return binomial(n, m)


def modq_value(n: int, d: int, q: int, m: int) -> int:
    """Closed-form Hilbert value for the size-congruent family mod q.

    Two cases split at r; empty sums contribute 0.  The family depends
    only on d mod q, so the split point must be representative-free:
    r is min(k, n-k) for the size k in the class of d closest to n/2
    (taking min(d, n-d) literally gives wrong values when another class
    member lies nearer the middle, e.g. n=5, d=0, q=3, m=1).
    """
    if not 0 <= d <= n:
        raise ValueError(f"d must satisfy 0 <= d <= n, got d={d}, n={n}")
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    r = max(min(k, n - k) for k in range(n + 1) if k % q == d % q)
    if m <= r:
        return sum(binomial(n, m - i * q) for i in range(m // q + 1))
    full = sum(binomial(n, r + i * q) for i in range(-(r // q), (n - r) // q + 1))
    tail = sum(binomial(n, m + i * q) for i in range(1, (n - m) // q + 1))
    return full - tail


@dataclass(frozen=True)
class HilbertReport:
    """One Hilbert computation: rank-oracle value next to a closed form."""

    params: Params
    cap: int
    h_oracle: int
    h_closed_form: int | None
    ideal_dim: int
    r: int

    @property
    def match(self) -> bool | None:
        if self.h_closed_form is None:
            return None
        return self.h_closed_form == self.h_oracle

    def as_dict(self) -> dict:
        return {
            "n": self.params.n,
            "d": self.params.d,
            "p": self.params.p,
            "q": self.params.q,
            "m": self.params.m,
            "cap": self.cap,
            "h_oracle": self.h_oracle,
            "h_closed_form": self.h_closed_form,
            "ideal_dim": self.ideal_dim,
            "r": self.r,
            "match": self.match,
        }


def uniform_report(n: int, d: int, p: int, m: int, cap: int | None = None) -> HilbertReport:
    """Report for the complete d-uniform family, with the closed form
    attached whenever m is inside its range."""
    params = Params(n=n, p=p, d=d, m=m)
    rref, _, h = family_rref(n, family_sizes(n, d, cap=cap), m, p)
    closed = binomial(n, m) if m <= min(d, n - d) else None
    return HilbertReport(params, 1, h, closed, rref.free.size, min(d, n - d))


def modq_report(n: int, d: int, q: int, p: int, m: int, cap: int | None = None) -> HilbertReport:
    """Report for the size-congruent family mod q, q a power of p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not is_power_of(q, p):
        raise ValueError(f"q must be a positive power of p={p}, got {q}")
    params = Params(n=n, p=p, d=d, m=m, q=q)
    rref, _, h = family_rref(n, family_sizes(n, d, q, cap), m, p)
    return HilbertReport(params, 1, h, modq_value(n, d, q, m), rref.free.size, min(d, n - d))
