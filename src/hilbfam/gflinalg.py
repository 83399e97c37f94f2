"""Exact dense linear algebra over a prime field F_p.

Everything here funnels through one object, :class:`RowReducer`, which
maintains the reduced row echelon form of the rows fed to it so far.
Rows can be supplied incrementally, so callers with very large matrices
never need to materialize them.  One engine serves every p, p = 2
included; since the RREF of a row space is unique, rank, pivot columns
and the canonical kernel basis do not depend on how the rows arrive.

The engine follows the delayed-update scheme of Dumas, Giorgi and
Pernet (FFLAS-FFPACK, ACM TOMS 2008).  A block of rows is reduced once
against the basis, then eliminated in panels of ``_PANEL`` rows: each
panel is reduced against the rows earlier panels of the block added,
brought to RREF locally, and clears its new pivot columns from the basis
with one :func:`matmul_mod` per ``_PANEL`` basis rows it touches, so the
back-elimination never holds a temporary larger than ``_PANEL`` x cols.
The basis is in RREF, the identity on its pivot columns, so reducing a
block multiplies only on the free columns and zeroes the pivot ones.
All products are exact in int64 (and in float64 BLAS where
:func:`matmul_mod` can prove it) while ``max(cols, 1) * (p-1)^2 < 2^62``;
:class:`RowReducer` refuses larger fields at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .setfam import is_prime

# Products in a block reduction are sums of at most `rank` terms bounded
# by (p-1)^2; float64 matmul is exact while they stay under 2^53, int64
# arithmetic while they stay under 2^62.
_FLOAT_EXACT_LIMIT = 2**53
_INT64_EXACT_LIMIT = 2**62

# Rows per elimination panel.
_PANEL = 64


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for int64 arrays with entries in 0..p-1.

    Routes through float64 BLAS when the accumulated dot products are
    provably exact, otherwise falls back to int64 arithmetic.
    """
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    bound = a.shape[1] * (p - 1) ** 2
    if bound < _FLOAT_EXACT_LIMIT:
        prod = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    elif bound < _INT64_EXACT_LIMIT:
        prod = a @ b
    else:
        raise ValueError(f"modulus {p} too large for exact matmul at this size")
    prod %= p
    return prod


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
    """

    def __init__(self, p: int, cols: int):
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        if cols < 0:
            raise ValueError(f"cols must be nonnegative, got {cols}")
        if max(cols, 1) * (p - 1) ** 2 >= _INT64_EXACT_LIMIT:
            raise ValueError(
                f"modulus {p} too large for exact elimination over {cols} columns: "
                "need max(cols, 1) * (p-1)^2 < 2^62"
            )
        self.p = p
        self.cols = cols
        # Growing basis matrix, its pivot column per row, and a mask of
        # the pivot columns.
        self._basis = np.zeros((0, cols), dtype=np.int64)
        self._pivots: list[int] = []
        self._is_pivot = np.zeros(cols, dtype=bool)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    def add_rows(self, rows) -> None:
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[1] != self.cols:
            raise ValueError(f"expected {self.cols} columns, got {arr.shape[1]}")
        self._add_block(arr % self.p)

    def basis_rows(self, start: int, stop: int) -> np.ndarray:
        """Read-only view of the RREF rows start..stop in the order they
        joined the basis, valid until the next :meth:`add_rows`."""
        view = self._basis[start : min(stop, self.rank)]
        view.flags.writeable = False
        return view

    def echelon_rows(self) -> np.ndarray:
        """The nonzero rows of the RREF, ordered by pivot column."""
        order = np.argsort(np.asarray(self._pivots, dtype=np.int64))
        return self._basis[: self.rank][order]

    def kernel_matrix(self) -> np.ndarray:
        """Canonical kernel basis, one row per free column, ascending.

        Each basis vector carries a 1 at its own free column, 0 at the
        other free columns and the negated echelon entries at the pivot
        columns.
        """
        pivots = np.flatnonzero(self._is_pivot)
        free = np.flatnonzero(~self._is_pivot)
        kernel = np.zeros((free.size, self.cols), dtype=np.int64)
        kernel[np.arange(free.size), free] = 1
        if pivots.size and free.size:
            kernel[:, pivots] = (-self.echelon_rows()[:, free].T) % self.p
        return kernel

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
            sub = np.take(block, free, axis=1)
            sub -= matmul_mod(coeffs, np.take(self._basis[start:stop], free, axis=1), self.p)
            sub %= self.p
            block[:, free] = sub
            block[:, pivots] = 0

    def _eliminate_panel(self, panel: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Gauss-Jordan a panel in place with leftmost pivots; return its
        nonzero RREF rows and their pivot columns in the order found."""
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
                np.remainder(row * pow(int(row[0]), -1, self.p), self.p, out=row)
            hit = panel[:, j].nonzero()[0]
            if hit.size > 1:
                hit = hit[hit != i]
                sub = panel[hit, j:]
                sub -= sub[:, :1] * row
                panel[hit, j:] = sub % self.p
            found.append(i)
            pivots.append(j)
        return panel[found], pivots

    def _back_eliminate(self, rows: np.ndarray, pivots: list[int]) -> None:
        # `rows` is zero at every basis pivot and the identity at `pivots`,
        # so one product clears all of `pivots` from a basis row.  Each row
        # is zero left of its own pivot, so only columns lo.. change.
        basis = self._basis
        lo = min(pivots)
        rows = rows[:, lo:]
        hit = np.flatnonzero(basis[: self.rank, pivots].any(axis=1))
        for start in range(0, hit.size, _PANEL):
            idx = hit[start : start + _PANEL]
            sub = basis[idx, lo:]
            sub -= matmul_mod(basis[np.ix_(idx, pivots)], rows, self.p)
            sub %= self.p
            basis[idx, lo:] = sub

    def _append(self, rows: np.ndarray, pivots: list[int]) -> None:
        count = self.rank
        stop = count + len(pivots)
        if stop > self._basis.shape[0]:
            capacity = min(max(64, 2 * self._basis.shape[0], stop), self.cols)
            fresh = np.zeros((capacity, self.cols), dtype=np.int64)
            fresh[:count] = self._basis[:count]
            self._basis = fresh
        self._basis[count:stop] = rows
        self._pivots.extend(pivots)
        self._is_pivot[pivots] = True

    def _add_block(self, block: np.ndarray) -> None:
        self._reduce_against(block, 0, self.rank)
        block_start = self.rank
        live = np.flatnonzero(block.any(axis=1))
        for start in range(0, live.size, _PANEL):
            panel = block[live[start : start + _PANEL]]
            self._reduce_against(panel, block_start, self.rank)
            rows, pivots = self._eliminate_panel(panel)
            if pivots:
                self._back_eliminate(rows, pivots)
                self._append(rows, pivots)


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
