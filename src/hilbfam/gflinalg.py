"""Exact dense linear algebra over a prime field F_p.

Everything here funnels through one object, :class:`RowReducer`, which
maintains the reduced row echelon form of the rows fed to it so far.
Because the RREF of a row space is unique, the two internal engines
(word-parallel XOR on int-packed rows for p = 2, panel-blocked
elimination for odd p) are interchangeable: rank, pivot columns and the
canonical kernel basis come out identical whichever one ran.  Rows can
be supplied incrementally, so callers with very large matrices never
need to materialize them.

The odd-p engine follows the delayed-update scheme of Dumas, Giorgi and
Pernet (FFLAS-FFPACK, ACM TOMS 2008).  A block of rows is reduced once
against the basis, then eliminated in panels of ``_PANEL`` rows: each
panel is reduced against the rows earlier panels of the block added,
brought to RREF locally, and clears its new pivot columns from the basis
with one :func:`matmul_mod` per ``_PANEL`` basis rows it touches, so the
back-elimination never holds a temporary larger than ``_PANEL`` x cols.
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

# Rows per panel of the odd-p engine.
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


def _pack_gf2_row(row: np.ndarray) -> int:
    bits = np.packbits(row.astype(np.uint8), bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


def _unpack_gf2_row(bits: int, cols: int) -> np.ndarray:
    raw = bits.to_bytes((cols + 7) // 8 or 1, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=cols, bitorder="little").astype(np.int64)


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
        self._bitpack = p == 2
        # p = 2: map pivot column -> fully reduced packed row.
        self._bit_rows: dict[int, int] = {}
        # odd p: growing basis matrix plus parallel pivot-column list.
        self._basis = np.zeros((0, cols), dtype=np.int64)
        self._pivots: list[int] = []
        self._count = 0

    # -- shared surface ------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self._bit_rows) if self._bitpack else self._count

    def pivot_columns(self) -> tuple[int, ...]:
        if self._bitpack:
            return tuple(sorted(self._bit_rows))
        return tuple(sorted(self._pivots[: self._count]))

    def add_rows(self, rows) -> None:
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[1] != self.cols:
            raise ValueError(f"expected {self.cols} columns, got {arr.shape[1]}")
        arr = arr % self.p
        if self._bitpack:
            for i in range(arr.shape[0]):
                self._insert_bits(_pack_gf2_row(arr[i]))
        else:
            self._add_block_generic(arr)

    def echelon_rows(self) -> np.ndarray:
        """The nonzero rows of the RREF, ordered by pivot column."""
        if self._bitpack:
            cols_sorted = sorted(self._bit_rows)
            if not cols_sorted:
                return np.zeros((0, self.cols), dtype=np.int64)
            return np.stack([_unpack_gf2_row(self._bit_rows[j], self.cols) for j in cols_sorted])
        if self._count == 0:
            return np.zeros((0, self.cols), dtype=np.int64)
        order = np.argsort(np.asarray(self._pivots[: self._count]))
        return self._basis[: self._count][order].copy()

    def kernel_matrix(self) -> np.ndarray:
        """Canonical kernel basis, one row per free column, ascending.

        Each basis vector carries a 1 at its own free column, 0 at the
        other free columns and the negated echelon entries at the pivot
        columns.
        """
        pivots = np.asarray(self.pivot_columns(), dtype=np.int64)
        rows = self.echelon_rows()
        free = np.setdiff1d(np.arange(self.cols), pivots)
        kernel = np.zeros((free.size, self.cols), dtype=np.int64)
        kernel[np.arange(free.size), free] = 1
        if pivots.size and free.size:
            kernel[:, pivots] = (-rows[:, free].T) % self.p
        return kernel

    # -- p = 2 engine ----------------------------------------------------

    def _insert_bits(self, r: int) -> None:
        # One pass suffices: each pivot row is zero at all other pivot
        # columns, so clearing one pivot bit never sets another.
        for j, row in self._bit_rows.items():
            if (r >> j) & 1:
                r ^= row
        if not r:
            return
        j = (r & -r).bit_length() - 1
        for jj, row in self._bit_rows.items():
            if (row >> j) & 1:
                self._bit_rows[jj] = row ^ r
        self._bit_rows[j] = r

    # -- generic engine ----------------------------------------------------

    def _reduce_against(self, block: np.ndarray, start: int, stop: int) -> None:
        """Reduce `block` in place against basis rows start..stop."""
        coeffs = block[:, self._pivots[start:stop]]
        if coeffs.any():
            block -= matmul_mod(coeffs, self._basis[start:stop], self.p)
            block %= self.p

    def _eliminate_panel(self, panel: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Gauss-Jordan a panel in place with leftmost pivots; return its
        nonzero RREF rows and their pivot columns in the order found."""
        p = self.p
        found: list[int] = []
        pivots: list[int] = []
        for i in range(panel.shape[0]):
            nz = np.flatnonzero(panel[i])
            if not nz.size:
                continue
            # Row i is zero left of its pivot j, so only columns j.. change.
            j = int(nz[0])
            row = (panel[i, j:] * pow(int(panel[i, j]), -1, p)) % p
            panel[i, j:] = row
            col = panel[:, j].copy()
            col[i] = 0
            hit = np.flatnonzero(col)
            if hit.size:
                panel[hit, j:] = (panel[hit, j:] - np.outer(col[hit], row)) % p
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
        hit = np.flatnonzero(basis[: self._count, pivots].any(axis=1))
        for start in range(0, hit.size, _PANEL):
            idx = hit[start : start + _PANEL]
            sub = basis[idx, lo:]
            sub -= matmul_mod(basis[np.ix_(idx, pivots)], rows, self.p)
            sub %= self.p
            basis[idx, lo:] = sub

    def _append(self, rows: np.ndarray, pivots: list[int]) -> None:
        stop = self._count + len(pivots)
        if stop > self._basis.shape[0]:
            capacity = min(max(64, 2 * self._basis.shape[0], stop), self.cols)
            fresh = np.zeros((capacity, self.cols), dtype=np.int64)
            fresh[: self._count] = self._basis[: self._count]
            self._basis = fresh
        self._basis[self._count : stop] = rows
        self._pivots.extend(pivots)
        self._count = stop

    def _add_block_generic(self, block: np.ndarray) -> None:
        self._reduce_against(block, 0, self._count)
        block_start = self._count
        live = np.flatnonzero(block.any(axis=1))
        for start in range(0, live.size, _PANEL):
            panel = block[live[start : start + _PANEL]]
            self._reduce_against(panel, block_start, self._count)
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
