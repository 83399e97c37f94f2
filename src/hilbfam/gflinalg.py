"""Exact dense linear algebra over a prime field F_p.

Everything here funnels through one object, :class:`RowReducer`, which
maintains the reduced row echelon form of the rows fed to it so far.
Rows can be supplied incrementally, so callers with very large matrices
never need to materialize them.  One engine serves every p, p = 2
included; since the RREF of a row space is unique, rank, pivot columns
and the canonical kernel basis do not depend on how the rows arrive.

The engine follows the delayed-update scheme of Dumas, Giorgi and
Pernet (FFLAS-FFPACK, ACM TOMS 2008).  The basis is kept as R, its rows
on the current free columns only: each row's 1 at its own pivot and 0s
at the other pivots are implicit.  A block of rows is taken a chunk at a
time (:func:`chunk_rows`: ``_CHUNK_BYTES`` of rows, and at least
``_CHUNK_FLOOR`` rows where R is that large), and each chunk is converted
and reduced against R, ``chunk[:, free] - chunk[:, pivots] @ R``, only
when its turn comes; from then on it lives on the free columns alone, so
beside R and the block as it came, only one chunk is ever in the working
dtype.  A chunk is eliminated in panels of ``_PANEL`` rows.  Each panel
is reduced against the rows earlier panels of the same block added,
brought to RREF, and clears its new pivots from the rows its own block
added, which are compacted onto the columns still free after every
panel.  At odd p a panel is brought to RREF by recursive halving down to
``_LEAF``-row leaves (each merge is two products: the top half's pivots
are cleared from the bottom half, then the bottom half's from the top).
At p = 2 the whole panel is packed once into bit rows, one Python int
per row, eliminated by XOR as in M4RI (Albrecht, Bard and Hart, ACM TOMS
2010) and unpacked once.  That is not a second engine: the bit rows
live only inside one panel, after the products against R and against
the block's earlier rows have done the bulk of the work, and the store,
chunks, panels and products are those of every p.  Once the block is
done, one pass clears all of the block's new pivots from the earlier
blocks' rows and compacts them, one product per ``_CHUNK`` rows, so the
basis is in RREF again whenever :meth:`RowReducer.add_rows` returns.
Each update ``sub -= product; sub %= p`` reduces mod p once: the
product comes back exact and unreduced.  :meth:`RowReducer.rref` hands
R over as it is stored, rows in the order they joined the basis, as an
:class:`Rref`.

The working dtype is fixed at construction from ``max(cols, 1) *
(p-1)^2``, the largest sum a product can reach.  Under 2^21 the basis,
blocks, panels and products are float32, the ``Modular<float>`` field of
FFLAS-FFPACK, reduced by :func:`_mod`; otherwise the basis is int64, and
products are exact in float64 BLAS while their sums stay under 2^53 and
in int64 arithmetic under 2^62.  :class:`RowReducer` refuses larger
fields.  What the reducer returns is int64 either way.

A bool block, the form cap-1 evaluation rows arrive in, is already
reduced (0 and 1 lie in 0..p-1 for every p), and only a chunk's free and
pivot columns are converted to the working dtype; any other input is
taken as int64 and reduced with ``% p`` a chunk at a time.
:meth:`RowReducer.add_basis_images` feeds permuted basis rows, written
straight from R in the working dtype.
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

# Rows per elimination panel, rows per leaf of a panel's recursion at odd
# p (at p = 2 the whole panel is one XOR elimination on bit rows, which
# over gf2-wide, verify-batch, the mod-4 series and the q = 8 rung ran
# 2-5% faster than 16-row bit leaves with their merges), and basis rows
# per back-elimination product.  Chosen by timing on one core
# (float32 BLAS at 66-85 GFLOP/s against 38-42 for float64; the float32
# offset floor at 1.1-3 ns per element against 4.2-4.6 for int64 `%`):
# 64-row panels were slower on the odd-elim benchmark (0.28-0.30 s a
# round against 0.25-0.27 s); 256-row panels were faster there by about
# 7% in 4 of 4 pairs but not on gf2-wide or verify-batch; leaves of 8 or
# 32 rows and chunks of 256 rows were within run-to-run spread.
_PANEL = 128
_LEAF = 16
_CHUNK = 128
# Bytes per chunk of rows that is converted, reduced against R or
# evaluated at a time (see :func:`chunk_rows`), and the rows a chunk of
# the elimination, or a block of the witness scan, holds at least where R
# is as large as that.  On one thread an sgemm against R at q = 8 shapes
# (4096 x 12288) ran at 80 GFLOP/s with 128 rows, 113 with 512 and
# 119-125 with 1024 or more.  The scan is one such product per block and
# holds nothing else beside R: at q = 8 it took 8.7 s with 512-point
# blocks, 7.4 with 1024 and 7.35 with 2048.  The elimination's chunks sit
# beside the store and the block, and 1024 rows would take the q = 8 rung
# past 450 MiB.  With 2 MiB chunks a round of the odd-elim benchmark took
# 4200 minor page faults, with 1 MiB 2500.
_CHUNK_BYTES = 1 << 20
_CHUNK_FLOOR = 512
_SCAN_FLOOR = 1024
# Entries per block of the float32 `_mod`: 256 KiB, within a core's L2.
_MOD_ENTRIES = 1 << 16


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x %= p in place; returns x.  `x` is int64, float64 holding integers
    under 2^53, or float32 holding integers in [-2^21, 2^21).  For float32
    this is the offset floor x -= p * floor(x * (1/p) + 0.5/p): the exact
    quotient plus the offset lies at least 0.5/p from an integer, and in
    that range its three roundings move it by under 0.375/p, so the floor
    is the true quotient and every other step is exact.  It runs over
    blocks of about ``_MOD_ENTRIES`` entries, so the quotient is a small
    temporary and its five passes stay in cache; an array of at most one
    block, any shape or stride, is taken whole."""
    if x.dtype != np.float32:
        x %= p
        return x
    if x.size <= _MOD_ENTRIES:
        parts = (x,)
    else:
        rows = x if x.ndim == 2 else x.reshape(1, -1)
        step = max(1, _MOD_ENTRIES // rows.shape[1])
        parts = (rows[i : i + step] for i in range(0, rows.shape[0], step))
    for part in parts:
        q = part * np.float32(1 / p)
        q += np.float32(0.5 / p)
        np.floor(q, out=q)
        q *= np.float32(p)
        part -= q
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


def chunk_rows(row_bytes: int, r_bytes: int = 0, floor: int = _CHUNK_FLOOR) -> int:
    """Rows per chunk of rows of `row_bytes` bytes each, next to an R of
    `r_bytes` bytes: ``_CHUNK_BYTES`` worth, and at least `floor` where R
    holds that many rows' bytes, so that a chunk's product against R keeps
    its BLAS rate.  A chunk then takes at most the larger of
    ``_CHUNK_BYTES`` and R's bytes, give or take one row."""
    row_bytes = max(row_bytes, 1)
    return max(1, _CHUNK_BYTES // row_bytes, min(floor, r_bytes // row_bytes))


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
    """A row space over F_p by its reduced echelon form: the RREF rows on
    the free columns (rank x free, in the working dtype of the reducer they
    came from), the pivot column of each row, and the free columns,
    ascending.  A reducer hands its rows over in join order, the order
    they entered the basis, not in pivot order; nothing here depends on it.

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
        """(a @ kernel.T) mod p for `a` with entries in 0..p-1 whose columns
        are the pivots, then the free columns, best in
        ``product_dtype(rank, p)``: its free part minus its pivot part times
        `rows`, one exact product on views, reduced once.  Returned in the
        product's dtype."""
        rank = self.pivots.size
        out = _matmul_exact(a[:, :rank], self.rows, p)
        np.subtract(a[:, rank:], out, out=out)
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

    The basis is stored as R: its rows in the order they joined, on the
    current free columns only, one after another in one flat buffer (the
    store).  Each row's 1 at its own pivot and 0s at the other pivots are
    implicit.  A block's new rows follow R's, at the stride of the
    columns still free, and are compacted onto them after every panel;
    the earlier blocks' rows are back-eliminated and compacted once, when
    the block is done, both in place, front to back.  So the store's used
    prefix never runs past R's rows at their stride before the block plus
    the block's new rows at theirs.  :meth:`rref` hands R over as a
    read-only view of the store, without a copy.

    The store is float32 while ``max(cols, 1) * (p-1)^2 < 2^21``: every
    value the elimination makes (an entry minus a product of at most
    ``cols`` terms, a row scaled by an inverse) is then an integer in
    [-2^21, 2^21), where float32 and :func:`_mod` are exact.  Otherwise
    it is int64.

    The used prefix stays within what R can reach: with r rows before a
    block and k new ones, ``r (cols - r) + k (cols - r - k)`` entries, at
    most (r + k) cols - 3 (r + k)^2 / 4, which is at most cols^2 / 3.  A
    caller that knows how many rows it will feed passes that count as
    `rows`: the store is then allocated once, for the smaller of `rows`
    rows of `cols` entries and ``cols^2 // 3 + cols`` entries.  Otherwise
    it doubles as it fills, up to that same reach.
    """

    def __init__(self, p: int, cols: int, rows: int = 0):
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        if cols < 0:
            raise ValueError(f"cols must be nonnegative, got {cols}")
        if rows < 0:
            raise ValueError(f"rows must be nonnegative, got {rows}")
        bound = max(cols, 1) * (p - 1) ** 2
        if bound >= _INT64_EXACT_LIMIT:
            raise ValueError(
                f"modulus {p} too large for exact elimination over {cols} columns: "
                "need max(cols, 1) * (p-1)^2 < 2^62"
            )
        self.p = p
        self.cols = cols
        # The store in the working dtype, the pivot column of each row in
        # join order, and the free columns, ascending.
        dtype = np.float32 if bound < _FLOAT32_EXACT_LIMIT else np.int64
        self._reach = cols * cols // 3 + cols
        self._store = np.zeros(min(rows * cols, self._reach), dtype=dtype)
        self._pivots = np.zeros(0, dtype=np.intp)
        self._free = np.arange(cols)
        # Set once an Rref may view the store, which must then never be
        # resized; cleared when R moves to a fresh store.
        self._handed = False

    @property
    def rank(self) -> int:
        return self._pivots.size

    def add_rows(self, rows) -> np.ndarray:
        """Bring a row, or a block of rows, into the basis, and return the
        positions, ascending, of the rows that raised the rank: each is
        independent of the basis and of every row before it in the block.
        A single row is position 0.  A bool block is 0/1 and so already
        reduced; anything else is taken as int64 and reduced with ``% p``
        a chunk at a time, so any integer input is safe to convert."""
        arr = np.asarray(rows)
        if arr.dtype != np.bool_:
            arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.cols:
            raise ValueError(f"expected a row or rows of {self.cols} columns, got shape {arr.shape}")
        return self._add_block(np.atleast_2d(arr))

    def add_basis_images(self, start: int, stop: int, perms: list[np.ndarray]) -> None:
        """Bring in ``row[perm]`` for every basis row start..stop, in the
        order the rows joined the basis, and every column permutation in
        `perms`: all of the first permutation's images, then the next's.
        The images are written straight from R, in the working dtype."""
        pivots = self._pivots[start:stop]
        k = pivots.size
        images = np.zeros((len(perms) * k, self.cols), dtype=self._store.dtype)
        for t, perm in enumerate(perms):
            inv = np.argsort(perm)
            images[t * k : (t + 1) * k, inv[self._free]] = self._rows()[start:stop]
            images[t * k + np.arange(k), inv[pivots]] = 1
        self._add_block(images)

    def rref(self) -> Rref:
        """The RREF as an :class:`Rref` whose rows are a read-only view of
        R, rows and pivots in join order.  The first call on a store cuts it
        back to R, in place, so the memory past it is freed.  A later row
        that adds a pivot then needs a larger store and leaves this one as
        it is (one that fills every free column writes no entry), and one
        that adds none writes nothing, so the result never changes."""
        if not self._handed:
            # No view of this store is alive yet, so the resize needs no
            # reference check, which profilers and debuggers would defeat.
            self._store.resize(self.rank * self._free.size, refcheck=False)
            self._handed = True
        rows = self._rows()
        rows.flags.writeable = False
        return Rref(rows, self._pivots.copy(), self._free.copy())

    def kernel_matrix(self) -> np.ndarray:
        """Canonical kernel basis, one row per free column, ascending (see
        :meth:`Rref.kernel`)."""
        return self.rref().kernel(self.p)

    # -- the store ---------------------------------------------------------

    def _view(self, offset: int, count: int, stride: int, width: int) -> np.ndarray:
        """`count` rows of the store from entry `offset` on, laid out
        `stride` entries apart, on their first `width` entries."""
        flat = self._store[offset : offset + count * stride]
        return flat.reshape(count, stride)[:, :width]

    def _rows(self) -> np.ndarray:
        """R: the basis rows on the free columns, in join order (a view)."""
        width = self._free.size
        return self._view(0, self.rank, width, width)

    def _reserve(self, size: int, used: int) -> None:
        """Make the store hold `size` entries, keeping its first `used`:
        at least 64 rows, and twice what it held, up to R's reach."""
        if size > self._store.size:
            entries = min(max(64 * self.cols, 2 * self._store.size, size), self._reach)
            fresh = np.zeros(entries, dtype=self._store.dtype)
            fresh[:used] = self._store[:used]
            self._store = fresh
            self._handed = False

    # -- elimination -------------------------------------------------------

    def _eliminate(self, panel: np.ndarray) -> tuple[list[int], list[int]]:
        """Bring `panel` to RREF in place, its dependent rows to zero; return
        the positions of its pivot rows, ascending, and their pivot columns.
        A row is a pivot row when it is independent of the rows above it.
        At p = 2 the whole panel goes to :func:`_eliminate_bits`.
        Otherwise, above ``_LEAF`` rows, halve: eliminate the top half,
        clear its pivots from the bottom half, eliminate that, and clear
        the bottom half's pivots from the top half; a leaf takes one pivot
        at a time."""
        if self.p == 2:
            return _eliminate_bits(panel)
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

    def _reduce(self, block: np.ndarray) -> np.ndarray:
        """`block` (bool, int64, or reduced in the working dtype) reduced
        mod p and against R, onto the free columns, in the working dtype:
        only its free and pivot columns are converted."""
        if block.dtype == np.int64:
            block = block % self.p
        if not self.rank:
            return np.ascontiguousarray(block, dtype=self._store.dtype)
        work = np.take(block, self._free, axis=1).astype(self._store.dtype, copy=False)
        coeffs = np.take(block, self._pivots, axis=1)
        if coeffs.any():
            _subtract(work, _matmul_exact(coeffs, self._rows(), self.p), self.p)
        return work

    def _add_block(self, block: np.ndarray) -> np.ndarray:
        """Bring `block` into the basis; return the positions of its rows
        that raised the rank, ascending.

        The block is taken a chunk of :func:`chunk_rows` rows at a time,
        each converted and reduced against R by :meth:`_reduce` only when
        its panels' turn comes, so beside R only one chunk is in the
        working dtype.  A chunk's live rows go in ``_PANEL``-row panels.
        Its new rows follow R's in the store, from entry `base` on, on
        `keep`: the columns of the block still free, at the stride
        ``keep.size``, which shrinks after every panel that adds pivots.
        `new` lists their pivots as columns of the block's free part, in
        join order."""
        p, start, width = self.p, self.rank, self._free.size
        base = start * width
        itemsize = self._store.itemsize
        step = max(_PANEL, chunk_rows(self.cols * itemsize, base * itemsize))
        keep = np.arange(width)
        new: list[int] = []
        raised = [np.zeros(0, dtype=np.intp)]
        for first in range(0, block.shape[0], step):
            work = self._reduce(block[first : first + step])
            live = np.flatnonzero(work.any(axis=1))
            for at in (live[i : i + _PANEL] for i in range(0, live.size, _PANEL)):
                panel = work[at]
                if new:
                    coeffs = panel[:, new]
                    panel = np.take(panel, keep, axis=1)
                    if coeffs.any():
                        added = self._view(base, len(new), keep.size, keep.size)
                        _subtract(panel, _matmul_exact(coeffs, added, p), p)
                found, pivots = self._eliminate(panel)
                if pivots:
                    stay = np.delete(np.arange(keep.size), pivots)
                    self._reserve(base + (len(new) + len(found)) * stay.size, base + len(new) * keep.size)
                    rows = np.take(panel[found], stay, axis=1)
                    added = self._view(base, len(new), keep.size, keep.size)
                    self._clear_compact(added, pivots, stay, rows, base, stay.size)
                    self._view(base + len(new) * stay.size, len(found), stay.size, stay.size)[:] = rows
                    new.extend(keep[pivots].tolist())
                    keep = keep[stay]
                    raised.append(first + at[found])
            # Freed before the next chunk is reduced, not beside it.
            del work
        if new:
            # Back-eliminate and compact the earlier blocks' rows, then
            # close up the block's own rows behind them.
            added = self._view(base, len(new), keep.size, keep.size)
            self._clear_compact(self._view(0, start, width, width), new, keep, added, 0, keep.size)
            self._clear_compact(added, [], np.arange(keep.size), added, start * keep.size, keep.size)
            self._pivots = np.concatenate([self._pivots, self._free[new]])
            self._free = self._free[keep]
        return np.concatenate(raised)

    def _clear_compact(self, rows: np.ndarray, pivots, stay: np.ndarray, clear: np.ndarray,
                       offset: int, stride: int) -> None:
        """Clear `pivots` from `rows`, a view of the store, and write them
        back on the columns `stay` only, from store entry `offset` on at
        `stride`, ``_CHUNK`` rows per product.  `clear` holds, on `stay`,
        the rows that are the identity at `pivots`.  The writes never pass
        the rows still to be read: `offset` is at most the view's, and
        `stride` at most its stride."""
        for i in range(0, rows.shape[0], _CHUNK):
            chunk = rows[i : i + _CHUNK]
            coeffs = np.take(chunk, pivots, axis=1)
            sub = np.take(chunk, stay, axis=1)
            if coeffs.any():
                _subtract(sub, _matmul_exact(coeffs, clear, self.p), self.p)
            self._view(offset + i * stride, len(chunk), stride, stay.size)[:] = sub


def _eliminate_bits(panel: np.ndarray) -> tuple[list[int], list[int]]:
    """:meth:`RowReducer._eliminate` at p = 2 on bit rows: the panel is
    packed once, one Python int per row with column 0 as its highest bit,
    eliminated by XOR (a row's highest set bit is its leftmost nonzero
    column, and its pivot clears that bit from every other row), and
    unpacked back once."""
    width = panel.shape[1]
    packed = np.packbits(panel != 0, axis=1)
    nbytes = packed.shape[1]
    data = packed.tobytes()
    rows = [int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "big") for i in range(len(packed))]
    found: list[int] = []
    pivots: list[int] = []
    for i in range(len(rows)):
        row = rows[i]
        if row:
            bit = 1 << (row.bit_length() - 1)
            rows = [r ^ row if r & bit else r for r in rows]
            rows[i] = row
            found.append(i)
            pivots.append(8 * nbytes - row.bit_length())
    data = b"".join(r.to_bytes(nbytes, "big") for r in rows)
    panel[:] = np.unpackbits(np.frombuffer(data, np.uint8).reshape(packed.shape), axis=1, count=width)
    return found, pivots


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
