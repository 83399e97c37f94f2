"""Exact dense linear algebra over a prime field F_p.

Everything here funnels through one object, :class:`RowReducer`, which
maintains the reduced row echelon form of the rows fed to it so far.
Rows can be supplied incrementally, so callers with very large matrices
never need to materialize them.  One engine serves every p, p = 2
included; since the RREF of a row space is unique, rank, pivot columns
and the canonical kernel basis do not depend on how the rows arrive.

The engine follows the delayed-update scheme of Dumas, Giorgi and
Pernet (FFLAS-FFPACK, ACM TOMS 2008).  A block of rows is reduced once
against the basis, then eliminated in panels of ``_PANEL`` rows.  Each
panel is reduced against the rows earlier panels of the same block
added, brought to RREF by recursive halving down to ``_LEAF``-row leaves
(each merge is two products: the top half's pivots are cleared from the
bottom half, then the bottom half's from the top), and clears its new
pivots only from the rows its own block added.  Once the block is done,
one pass clears all of the block's new pivots from the earlier blocks'
rows, one product per ``_CHUNK`` rows, so the basis is in RREF again
whenever :meth:`RowReducer.add_rows` returns.  Reducing against rows in
RREF multiplies only on the free columns and zeroes the pivot ones.
Each update ``sub -= product; sub %= p`` reduces mod p once: the product
comes back exact and unreduced.

The working dtype is fixed at construction from ``max(cols, 1) *
(p-1)^2``, the largest sum a product can reach.  Under 2^21 the basis,
blocks, panels and products are float32, the ``Modular<float>`` field of
FFLAS-FFPACK, reduced by :func:`_mod`; otherwise the basis is int64, and
products are exact in float64 BLAS while their sums stay under 2^53 and
in int64 arithmetic under 2^62.  :class:`RowReducer` refuses larger
fields.  What the reducer returns is int64 either way.

A bool block, the form cap-1 evaluation rows arrive in, is already
reduced (0 and 1 lie in 0..p-1 for every p) and is converted once,
straight to the working dtype; any other input is reduced with int64
``% p`` first.  :meth:`RowReducer.add_basis_images` feeds permuted basis
rows, which are reduced and in the working dtype already.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .setfam import is_prime

# Products in a block reduction are sums of at most `rank` <= cols terms
# bounded by (p-1)^2.  They are exact in float32 under 2^24, in float64
# under 2^53 and in int64 under 2^62; the float32 tier stops at 2^21 so
# that :func:`_mod` reduces its results exactly as well.
_FLOAT32_EXACT_LIMIT = 2**21
_FLOAT64_EXACT_LIMIT = 2**53
_INT64_EXACT_LIMIT = 2**62

# Rows per elimination panel, rows per leaf of a panel's recursion, and
# basis rows per back-elimination product.  Chosen by timing on one core
# (float32 BLAS at 66-85 GFLOP/s against 38-42 for float64; the float32
# offset floor at 1.1-3 ns per element against 4.2-4.6 for int64 `%`):
# 64-row panels were slower on the odd-elim benchmark (0.28-0.30 s a
# round against 0.25-0.27 s); 256-row panels were faster there by about
# 7% in 4 of 4 pairs but not on gf2-wide or verify-batch; leaves of 8 or
# 32 rows and chunks of 256 rows were within run-to-run spread.
_PANEL = 128
_LEAF = 16
_CHUNK = 128


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x %= p in place; returns x.  `x` is int64, float64 holding integers
    under 2^53, or float32 holding integers in [-2^21, 2^21).  For float32
    this is the offset floor x -= p * floor(x * (1/p) + 0.5/p): the exact
    quotient plus the offset lies at least 0.5/p from an integer, and in
    that range its three roundings move it by under 0.375/p, so the floor
    is the true quotient and every other step is exact."""
    if x.dtype == np.float32:
        q = x * np.float32(1 / p)
        q += np.float32(0.5 / p)
        np.floor(q, out=q)
        q *= np.float32(p)
        x -= q
    else:
        x %= p
    return x


def product_dtype(k: int, p: int) -> type:
    """The dtype :func:`matmul_mod` multiplies in at inner dimension `k`:
    float32 while k * (p-1)^2 < 2^21, float64 under 2^53 and int64 under
    2^62.  A caller that multiplies many blocks by one matrix converts
    that matrix to this dtype once."""
    bound = k * (p - 1) ** 2
    if bound < _FLOAT32_EXACT_LIMIT:
        return np.float32
    if bound < _FLOAT64_EXACT_LIMIT:
        return np.float64
    if bound < _INT64_EXACT_LIMIT:
        return np.int64
    raise ValueError(f"modulus {p} too large for exact matmul at this size")


def _matmul_exact(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The exact integer product a @ b, unreduced, for arrays with entries
    in 0..p-1 (bool counts as 0/1).  Float32 operands come from a float32
    :class:`RowReducer`, whose bound keeps the sums under 2^21.  Other
    operands are converted to :func:`product_dtype` of the inner
    dimension, those already in it without a copy.  Subtract the product
    from rows with :func:`_subtract`."""
    if a.dtype == np.float32:
        return a @ b
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    dtype = product_dtype(a.shape[1], p)
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def _subtract(rows: np.ndarray, prod: np.ndarray, p: int) -> None:
    """rows = (rows - prod) % p in place, for rows in a reducer's working
    dtype and an exact product from :func:`_matmul_exact`.  A float
    product is subtracted from int64 rows without an int64 copy: the
    difference is an integer under 2^53, so the float arithmetic and the
    cast back are exact."""
    np.subtract(rows, prod, out=rows, casting="unsafe")
    _mod(rows, p)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p, as int64, for arrays with entries in 0..p-1: int64
    or bool, or already in :func:`product_dtype` of the inner dimension."""
    prod = _matmul_exact(a, b, p)
    if prod.dtype == np.float64:
        prod = prod.astype(np.int64)
    return _mod(prod, p).astype(np.int64, copy=False)


class Rref(NamedTuple):
    """A row space over F_p by its reduced echelon form: the RREF rows in
    pivot order on the free columns (rank x free, in the working dtype of
    the reducer they came from), and the pivot and free columns, ascending.

    The canonical kernel has one row per free column: row j is 1 at
    ``free[j]``, 0 at the other free columns and ``-rows[:, j]`` mod p at
    the pivots.  So a matrix's product with the kernel is its free columns
    minus its pivot columns times `rows`, and the kernel need not be built.
    """

    rows: np.ndarray
    pivots: np.ndarray
    free: np.ndarray

    def kernel(self, p: int) -> np.ndarray:
        """The canonical kernel basis, int64, one row per free column."""
        kernel = np.zeros((self.free.size, self.pivots.size + self.free.size), dtype=np.int64)
        kernel[np.arange(self.free.size), self.free] = 1
        kernel[:, self.pivots] = _mod(-self.rows, p).T
        return kernel

    def kernel_row(self, j: int, p: int) -> np.ndarray:
        """Row j of :meth:`kernel`, int64, from column j of `rows` alone."""
        row = np.zeros(self.pivots.size + self.free.size, dtype=np.int64)
        row[self.free[j]] = 1
        row[self.pivots] = _mod(-self.rows[:, j], p)
        return row

    def kernel_product(self, a: np.ndarray, p: int) -> np.ndarray:
        """(a @ kernel.T) mod p for `a` with entries in 0..p-1 (bool counts
        as 0/1): ``a[:, free] - a[:, pivots] @ rows``, one exact product,
        reduced once.  Returned in the product's dtype."""
        out = _matmul_exact(np.take(a, self.pivots, axis=1), self.rows, p)
        np.subtract(np.take(a, self.free, axis=1), out, out=out)
        return _mod(out, p)


@dataclass(frozen=True, eq=False)
class FpMatrix:
    """Dense matrix over F_p with entries reduced into 0..p-1."""

    p: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr = arr % self.p
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_rows(cls, rows, p: int) -> "FpMatrix":
        return cls(p, np.asarray(rows, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, shape={self.data.shape})"


@dataclass(frozen=True, eq=False)
class FpVector:
    """Vector over F_p with entries reduced into 0..p-1."""

    p: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")
        object.__setattr__(self, "values", tuple(int(v) % self.p for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpVector):
            return NotImplemented
        return self.p == other.p and self.values == other.values

    def __repr__(self) -> str:
        return f"FpVector(p={self.p}, values={self.values})"


class RowReducer:
    """Incremental reduced-row-echelon accumulator over F_p.

    Feed row blocks with :meth:`add_rows`; at any point the object holds
    the unique RREF basis of the row space seen so far.  The pivot rule
    is fixed (leftmost nonzero column wins) and never depends on the
    order in which rows arrive, by uniqueness of the RREF.

    The basis is float32 while ``max(cols, 1) * (p-1)^2 < 2^21``: every
    value the elimination makes (an entry minus a product of at most
    ``cols`` terms, a row scaled by an inverse) is then an integer in
    [-2^21, 2^21), where float32 and :func:`_mod` are exact.  Otherwise
    it is int64.

    A caller that knows how many rows it will feed passes that count as
    `rows`: the basis is then allocated once, for min(rows, cols) rows, the
    most those rows can add.  Otherwise it doubles as it fills.
    """

    def __init__(self, p: int, cols: int, rows: int = 0):
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        if cols < 0:
            raise ValueError(f"cols must be nonnegative, got {cols}")
        bound = max(cols, 1) * (p - 1) ** 2
        if bound >= _INT64_EXACT_LIMIT:
            raise ValueError(
                f"modulus {p} too large for exact elimination over {cols} columns: "
                "need max(cols, 1) * (p-1)^2 < 2^62"
            )
        self.p = p
        self.cols = cols
        # Growing basis matrix in the working dtype, its pivot column per
        # row, and a mask of the pivot columns.
        dtype = np.float32 if bound < _FLOAT32_EXACT_LIMIT else np.int64
        self._basis = np.zeros((min(rows, cols), cols), dtype=dtype)
        self._pivots: list[int] = []
        self._is_pivot = np.zeros(cols, dtype=bool)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    def add_rows(self, rows) -> np.ndarray:
        """Bring a row, or a block of rows, into the basis, and return the
        positions, ascending, of the rows that raised the rank: each is
        independent of the basis and of every row before it in the block.
        A single row is position 0.  A bool block is 0/1 and so already
        reduced; anything else is reduced with int64 ``% p`` first, so any
        integer input is safe to convert."""
        arr = np.asarray(rows)
        if arr.dtype != np.bool_:
            arr = np.asarray(rows, dtype=np.int64) % self.p
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[1] != self.cols:
            raise ValueError(f"expected {self.cols} columns, got {arr.shape[1]}")
        # One conversion to a fresh C-contiguous block in the working dtype.
        return self._add_block(np.ascontiguousarray(arr, dtype=self._basis.dtype))

    def add_basis_images(self, start: int, stop: int, perms: list[np.ndarray]) -> None:
        """Bring in ``row[perm]`` for every basis row start..stop, in the
        order the rows joined the basis, and every column permutation in
        `perms`: all of the first permutation's images, then the next's.
        The rows are reduced and in the working dtype already."""
        rows = self._basis[start : min(stop, self.rank)]
        self._add_block(np.concatenate([rows[:, perm] for perm in perms]))

    def basis_rows(self, start: int, stop: int) -> np.ndarray:
        """Read-only view of the RREF rows start..stop in the order they
        joined the basis, in the working dtype, valid until rows are next
        added."""
        view = self._basis[start : min(stop, self.rank)]
        view.flags.writeable = False
        return view

    def echelon_rows(self) -> np.ndarray:
        """The nonzero rows of the RREF, ordered by pivot column, as int64."""
        order = np.argsort(np.asarray(self._pivots, dtype=np.int64))
        return self._basis[order].astype(np.int64, copy=False)

    def rref(self) -> Rref:
        """A copy of the RREF as an :class:`Rref`, unchanged by later rows."""
        order = np.argsort(np.asarray(self._pivots, dtype=np.int64))
        free = np.flatnonzero(~self._is_pivot)
        return Rref(self._basis[np.ix_(order, free)], np.flatnonzero(self._is_pivot), free)

    def kernel_matrix(self) -> np.ndarray:
        """Canonical kernel basis, one row per free column, ascending (see
        :meth:`Rref.kernel`)."""
        return self.rref().kernel(self.p)

    # -- elimination -------------------------------------------------------

    def _reduce_against(self, block: np.ndarray, start: int, stop: int) -> None:
        """Reduce `block` in place against basis rows start..stop.

        Each basis row is 1 at its own pivot and 0 at every other pivot,
        so on pivot columns the full product would only cancel these
        rows' coefficients: multiply on the free columns and zero these
        rows' pivots."""
        pivots = self._pivots[start:stop]
        coeffs = block[:, pivots]
        if coeffs.any():
            # np.take gathers columns faster than fancy indexing does.
            free = np.flatnonzero(~self._is_pivot)
            prod = _matmul_exact(coeffs, np.take(self._basis[start:stop], free, axis=1), self.p)
            sub = np.take(block, free, axis=1)
            _subtract(sub, prod, self.p)
            block[:, free] = sub
            block[:, pivots] = 0

    def _eliminate(self, panel: np.ndarray) -> tuple[list[int], list[int]]:
        """Bring `panel` to RREF in place, its dependent rows to zero; return
        the positions of its pivot rows, ascending, and their pivot columns.
        A row is a pivot row when it is independent of the rows above it.
        Above ``_LEAF`` rows, halve: eliminate the top half, clear its
        pivots from the bottom half, eliminate that, and clear the bottom
        half's pivots from the top half."""
        if panel.shape[0] > _LEAF:
            half = panel.shape[0] // 2
            top, bottom = panel[:half], panel[half:]
            found, pivots = self._eliminate(top)
            self._clear(bottom, top[found], pivots)
            found_bottom, pivots_bottom = self._eliminate(bottom)
            self._clear(top, bottom[found_bottom], pivots_bottom)
            return found + [half + i for i in found_bottom], pivots + pivots_bottom
        found: list[int] = []
        pivots: list[int] = []
        for i in panel.any(axis=1).nonzero()[0].tolist():
            nz = panel[i].nonzero()[0]
            if not nz.size:
                continue
            # Row i is zero left of its pivot j, so only columns j.. change.
            j = int(nz[0])
            row = panel[i, j:]
            if row[0] != 1:
                row *= pow(int(row[0]), -1, self.p)
                _mod(row, self.p)
            hit = panel[:, j].nonzero()[0]
            if hit.size > 1:
                hit = hit[hit != i]
                sub = panel[hit, j:]
                sub -= sub[:, :1] * row
                panel[hit, j:] = _mod(sub, self.p)
            found.append(i)
            pivots.append(j)
        return found, pivots

    def _clear(self, target: np.ndarray, rows: np.ndarray, pivots: list[int]) -> None:
        """Clear `pivots` from `target` in place.  `rows` is the identity at
        `pivots` and zero at every pivot `target` is already clear of, so
        one product does it; each row is zero left of its own pivot, so only
        columns lo.. change."""
        if not pivots:
            return
        coeffs = target[:, pivots]
        if coeffs.any():
            lo = min(pivots)
            _subtract(target[:, lo:], _matmul_exact(coeffs, rows[:, lo:], self.p), self.p)

    def _back_eliminate(self, rows: np.ndarray, pivots: list[int], start: int, stop: int) -> None:
        """Clear `pivots` from basis rows start..stop with :meth:`_clear`,
        ``_CHUNK`` at a time of the rows that have a nonzero there."""
        basis = self._basis
        hit = start + np.flatnonzero(basis[start:stop, pivots].any(axis=1))
        for at in range(0, hit.size, _CHUNK):
            idx = hit[at : at + _CHUNK]
            sub = basis[idx]
            self._clear(sub, rows, pivots)
            basis[idx] = sub

    def _append(self, rows: np.ndarray, pivots: list[int]) -> None:
        count = self.rank
        stop = count + len(pivots)
        if stop > self._basis.shape[0]:
            capacity = min(max(64, 2 * self._basis.shape[0], stop), self.cols)
            fresh = np.zeros((capacity, self.cols), dtype=self._basis.dtype)
            fresh[:count] = self._basis[:count]
            self._basis = fresh
        self._basis[count:stop] = rows
        self._pivots.extend(pivots)
        self._is_pivot[pivots] = True

    def _add_block(self, block: np.ndarray) -> np.ndarray:
        """Bring `block` into the basis; return the positions of its rows
        that raised the rank, ascending."""
        self._reduce_against(block, 0, self.rank)
        block_start = self.rank
        live = np.flatnonzero(block.any(axis=1))
        raised = [live[:0]]
        for start in range(0, live.size, _PANEL):
            at = live[start : start + _PANEL]
            panel = block[at]
            self._reduce_against(panel, block_start, self.rank)
            found, pivots = self._eliminate(panel)
            if pivots:
                rows = panel[found]
                self._back_eliminate(rows, pivots, block_start, self.rank)
                self._append(rows, pivots)
                raised.append(at[found])
        # The panels left this block's pivots in the earlier blocks' rows;
        # one pass clears them, so the basis is in RREF again.
        if 0 < block_start < self.rank:
            new = self._basis[block_start : self.rank]
            self._back_eliminate(new, self._pivots[block_start:], 0, block_start)
        return np.concatenate(raised)


def rank_mod_p(matrix: FpMatrix) -> int:
    red = RowReducer(matrix.p, matrix.cols)
    red.add_rows(matrix.data)
    return red.rank


def kernel_basis(matrix: FpMatrix) -> list[FpVector]:
    """Canonical basis of the right kernel {c : M c = 0}."""
    red = RowReducer(matrix.p, matrix.cols)
    red.add_rows(matrix.data)
    kernel = red.kernel_matrix()
    return [FpVector(matrix.p, tuple(int(v) for v in row)) for row in kernel]
