"""Exact F_p elimination: examples, rank-nullity, agreement with oracles."""

from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbfam import gflinalg
from hilbfam.gflinalg import (
    _CHUNK,
    _FLOAT32_EXACT_LIMIT,
    _PANEL,
    FpMatrix,
    FpVector,
    RowReducer,
    _matmul_exact,
    _mod,
    kernel_basis,
    matmul_mod,
    rank_mod_p,
)
from hilbfam.hilbert import _BLOCK_ROWS, family_rref, hilbert_value
from hilbfam.setfam import binomial, level_points, make_uniform_family


def oracle_rref(rows, p):
    """Textbook row reduction on lists of ints, independent of the library.

    Returns (matrix, pivot_cols) with the same shape as the input.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c] % p, -1, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] % p:
                f = m[i][c] % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, tuple(pivots)


def echelon(rref):
    """The RREF an :class:`Rref` stands for, rebuilt on every column: its
    rows, int64, and its pivot columns, both in pivot order."""
    order = np.argsort(rref.pivots)
    pivots = rref.pivots[order]
    rows = np.zeros((pivots.size, pivots.size + rref.free.size), dtype=np.int64)
    rows[:, rref.free] = rref.rows[order]
    rows[np.arange(pivots.size), pivots] = 1
    return rows, tuple(pivots.tolist())


small_primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def fp_matrices(draw, max_rows=8, max_cols=8):
    p = draw(small_primes)
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return FpMatrix.from_rows(entries, p)


def reduce_all(m):
    red = RowReducer(m.p, m.cols)
    red.add_rows(m.data)
    return red


class TestRref:
    def test_identity_mod_2(self):
        m = FpMatrix.from_rows(np.eye(3, dtype=int), 2)
        red = reduce_all(m)
        assert echelon(red.rref())[0].tolist() == m.data.tolist()
        assert echelon(red.rref())[1] == (0, 1, 2)

    def test_repeated_rows_mod_2(self):
        red = reduce_all(FpMatrix.from_rows([[1, 1], [1, 1]], 2))
        assert echelon(red.rref())[0].tolist() == [[1, 1]]
        assert echelon(red.rref())[1] == (0,)

    def test_proportional_rows_mod_5(self):
        red = reduce_all(FpMatrix.from_rows([[2, 4], [1, 2]], 5))
        assert echelon(red.rref())[0].tolist() == [[1, 2]]
        assert echelon(red.rref())[1] == (0,)

    @given(fp_matrices())
    def test_matches_oracle(self, m):
        red = reduce_all(m)
        expected, expected_piv = oracle_rref(m.data.tolist(), m.p)
        assert echelon(red.rref())[0].tolist() == expected[: len(expected_piv)]
        assert echelon(red.rref())[1] == expected_piv

    def test_basis_rows_in_join_order_read_only(self):
        red = RowReducer(3, 4)
        red.add_rows([[0, 1, 2, 0]])
        red.add_rows([[2, 0, 0, 2]])
        rref = red.rref()
        assert rref.pivots.tolist() == [1, 0] and rref.free.tolist() == [2, 3]
        assert rref.rows.tolist() == [[2, 0], [0, 1]]
        assert echelon(rref)[0].tolist() == [[1, 0, 0, 1], [0, 1, 2, 0]]
        assert not rref.rows.flags.writeable

    @given(fp_matrices())
    def test_idempotent(self, m):
        red = reduce_all(m)
        again = reduce_all(FpMatrix(m.p, echelon(red.rref())[0]))
        assert echelon(again.rref())[0].tolist() == echelon(red.rref())[0].tolist()
        assert echelon(again.rref())[1] == echelon(red.rref())[1]


class TestRank:
    def test_identity(self):
        for p in (2, 3, 5):
            assert rank_mod_p(FpMatrix.from_rows(np.eye(4, dtype=int), p)) == 4

    def test_zero_matrix(self):
        assert rank_mod_p(FpMatrix.from_rows(np.zeros((3, 5), dtype=int), 3)) == 0

    def test_proportional_rows(self):
        assert rank_mod_p(FpMatrix.from_rows([[1, 2], [2, 4]], 5)) == 1

    @given(fp_matrices(), st.randoms(use_true_random=False))
    def test_invariant_under_row_scaling_and_swaps(self, m, rng):
        base = rank_mod_p(m)
        data = m.data.copy()
        i = rng.randrange(data.shape[0])
        j = rng.randrange(data.shape[0])
        data[[i, j]] = data[[j, i]]
        k = rng.randrange(data.shape[0])
        scale = rng.randrange(1, m.p)
        data[k] = (data[k] * scale) % m.p
        assert rank_mod_p(FpMatrix(m.p, data)) == base


class TestKernel:
    def test_full_rank_has_empty_kernel(self):
        assert kernel_basis(FpMatrix.from_rows(np.eye(2, dtype=int), 3)) == []

    def test_single_parity_row(self):
        basis = kernel_basis(FpMatrix.from_rows([[1, 1]], 2))
        assert basis == [FpVector(2, (1, 1))]

    def test_sum_row_mod_3(self):
        # Free-variable construction by hand: pivot col 0, free cols 1 and 2.
        basis = kernel_basis(FpMatrix.from_rows([[1, 1, 1]], 3))
        assert [v.values for v in basis] == [(2, 1, 0), (2, 0, 1)]
        for v in basis:
            assert sum(v.values) % 3 == 0

    @given(fp_matrices())
    def test_rank_nullity(self, m):
        assert rank_mod_p(m) + len(kernel_basis(m)) == m.cols

    @given(fp_matrices())
    def test_kernel_vectors_annihilated(self, m):
        for v in kernel_basis(m):
            out = (m.data @ np.array(v.values)) % m.p
            assert not out.any()

    @given(fp_matrices())
    def test_kernel_canonical_form(self, m):
        basis = kernel_basis(m)
        pivots = echelon(reduce_all(m).rref())[1]
        free = [c for c in range(m.cols) if c not in pivots]
        assert len(basis) == len(free)
        for v, f in zip(basis, free):
            assert v.values[f] == 1
            for other in free:
                if other != f:
                    assert v.values[other] == 0


class TestEngineAgreement:
    """The engine must give the unique RREF, whatever the feeding."""

    @given(fp_matrices(max_rows=10, max_cols=12))
    def test_gf2_matches_oracle(self, m):
        data = (m.data % 2).tolist()
        red = RowReducer(2, m.cols)
        red.add_rows(data)
        expected, expected_piv = oracle_rref(data, 2)
        assert echelon(red.rref())[1] == expected_piv
        assert echelon(red.rref())[0].tolist() == expected[: len(expected_piv)]
        # Canonical kernel from the oracle's RREF: 1 at its own free
        # column, minus the echelon entries (= plus, mod 2) at the pivots.
        free = [c for c in range(m.cols) if c not in expected_piv]
        kernel = [[0] * m.cols for _ in free]
        for vec, f in zip(kernel, free):
            vec[f] = 1
            for row, c in zip(expected, expected_piv):
                vec[c] = row[f]
        assert red.kernel_matrix().tolist() == kernel

    @given(fp_matrices(max_rows=12, max_cols=10), st.integers(1, 4))
    def test_block_feeding_matches_single_shot(self, m, block):
        whole = RowReducer(m.p, m.cols)
        whole.add_rows(m.data)
        chunked = RowReducer(m.p, m.cols)
        for start in range(0, m.rows, block):
            chunked.add_rows(m.data[start : start + block])
        assert echelon(whole.rref())[1] == echelon(chunked.rref())[1]
        assert echelon(whole.rref())[0].tolist() == echelon(chunked.rref())[0].tolist()


def multi_panel_matrix(kind, p, seed, rows=3 * _PANEL + 20, cols=2 * _PANEL + 8):
    """Seeded matrix whose rows span more than three elimination panels."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, p, (rows, cols))
    low = 2 * cols // 3
    if kind == "low-rank":
        return (rng.integers(0, p, (rows, low)) @ rng.integers(0, p, (low, cols))) % p
    # Rows drawn with repetition from a small pool, scaled.
    pool = rng.integers(0, p, (low, cols))
    scale = rng.integers(1, p, (rows, 1))
    return (pool[rng.integers(0, len(pool), rows)] * scale) % p


def reduce_in_blocks(data, p, block):
    red = RowReducer(p, data.shape[1])
    for start in range(0, data.shape[0], block):
        red.add_rows(data[start : start + block])
    return red


class TestMultiPanel:
    """Inputs long enough that the engine crosses panel boundaries."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    @pytest.mark.parametrize("kind", ["random", "low-rank", "repeated"])
    def test_matches_oracle_in_one_call_and_in_blocks(self, kind, p):
        # Over 264 columns p <= 7 runs in float32 and p = 101 in int64;
        # what the reducer returns is int64 either way.
        data = multi_panel_matrix(kind, p, seed=p)
        expected, expected_piv = oracle_rref(data.tolist(), p)
        for block in (data.shape[0], 37):
            red = reduce_in_blocks(data, p, block)
            assert red.rref().rows.dtype == (np.float32 if p <= 7 else np.int64)
            assert echelon(red.rref())[1] == expected_piv
            assert echelon(red.rref())[0].tolist() == expected[: len(expected_piv)]
            kernel = red.kernel_matrix()
            assert kernel.dtype == np.int64
            assert kernel.shape == (data.shape[1] - red.rank, data.shape[1])
            assert not ((data @ kernel.T) % p).any()
        vectors = kernel_basis(FpMatrix(p, data))
        assert [list(v.values) for v in vectors] == kernel.tolist()

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    @pytest.mark.parametrize("kind", ["low-rank", "repeated"])
    def test_rank_matches_sympy(self, kind, p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        # Narrow, since sympy's dense elimination is pure Python.
        data = multi_panel_matrix(kind, p, seed=10 + p, cols=40)
        expected = DomainMatrix.from_list(data.tolist(), sympy.GF(p)).rank()
        assert reduce_in_blocks(data, p, 37).rank == expected
        assert reduce_in_blocks(data, p, data.shape[0]).rank == expected

    def test_int64_matmul_path_matches_oracle(self):
        # (p-1)^2 > 2^51, so products past two terms leave the float64 range.
        p = 67108859
        data = multi_panel_matrix("random", p, seed=1, rows=150, cols=80)
        expected, expected_piv = oracle_rref(data.tolist(), p)
        red = reduce_in_blocks(data, p, 37)
        assert echelon(red.rref())[1] == expected_piv
        assert echelon(red.rref())[0].tolist() == expected[: len(expected_piv)]

    def test_wilson_rank_beyond_brute_force(self):
        # h(m) = C(n, m) for the uniform family when m <= min(d, n - d).
        points = make_uniform_family(12, 6).points()
        assert hilbert_value(points, 4, 5, 1) == binomial(12, 4) == 495

    def test_int64_path_across_multi_panel_blocks(self):
        # Blocks of 150 rows: the first is two panels, and the second adds
        # pivots that must be cleared from the first's rows, on the int64
        # path.
        p = 67108859
        data = multi_panel_matrix("random", p, seed=3, rows=200, cols=170)
        expected, expected_piv = oracle_rref(data.tolist(), p)
        red = reduce_in_blocks(data, p, 150)
        assert red.rank > 150
        assert echelon(red.rref())[1] == expected_piv
        assert echelon(red.rref())[0].tolist() == expected[: len(expected_piv)]

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_second_block_clears_its_pivots_from_the_first(self, p):
        rng = np.random.default_rng(30 + p)
        cols = 200
        # The first block has rank about 150 < cols, so its RREF rows are
        # dense on the columns where the second block's pivots land.
        first = (rng.integers(0, p, (170, 150)) @ rng.integers(0, p, (150, cols))) % p
        second = rng.integers(0, p, (140, cols))
        red = RowReducer(p, cols)
        red.add_rows(first)
        before, old_piv = echelon(red.rref())
        red.add_rows(second)
        rows, pivots = echelon(red.rref())
        new = sorted(set(pivots) - set(old_piv))
        # More first-block rows are hit than one chunk holds.
        assert before[:, new].any(axis=1).sum() > _CHUNK
        assert not rows[np.isin(pivots, old_piv)][:, new].any()
        expected, expected_piv = oracle_rref(np.vstack([first, second]).tolist(), p)
        assert pivots == expected_piv
        assert rows.tolist() == expected[: len(expected_piv)]

    @pytest.mark.parametrize("p", [2, 3, 101, 1009])
    @pytest.mark.parametrize("kind", ["low-rank", "repeated"])
    def test_basis_rows_join_in_arrival_order(self, kind, p):
        # Over 90 columns p = 1009 runs in int64, the others in float32.
        data = multi_panel_matrix(kind, p, seed=40 + p, rows=2 * _PANEL + 20, cols=90)
        order, final = arrival_pivots(data, p)
        for block in (data.shape[0], 150, 37):
            red = reduce_in_blocks(data, p, block)
            rref = red.rref()
            assert not rref.rows.flags.writeable
            assert rref.pivots.tolist() == order
            assert rref.rows.tolist() == [final[c][rref.free].tolist() for c in order]


def arrival_pivots(data, p):
    """The pivot column each independent row brings when the rows arrive
    one at a time, in arrival order, and the final RREF row per pivot."""
    ref = ArrivalReference(p, data.shape[1])
    ref.add(data)
    return ref.order, ref.rows


class ArrivalReference:
    """A reducer in plain numpy, one row at a time: the RREF row per pivot
    and the pivots in the order their rows joined, as a reference for the
    join order and the raised positions, independent of the R store."""

    def __init__(self, p, cols):
        self.p, self.cols = p, cols
        self.rows, self.order = {}, []

    def add(self, block):
        raised = []
        for i, vec in enumerate(np.asarray(block, dtype=np.int64) % self.p):
            for c, row in self.rows.items():
                vec = (vec - vec[c] * row) % self.p
            if vec.any():
                c = int(np.flatnonzero(vec)[0])
                vec = vec * pow(int(vec[c]), -1, self.p) % self.p
                for other, row in self.rows.items():
                    self.rows[other] = (row - row[c] * vec) % self.p
                self.rows[c] = vec
                self.order.append(c)
                raised.append(i)
        return raised

    def basis_rows(self, start, stop):
        return np.array([self.rows[c] for c in self.order[start:stop]]).reshape(-1, self.cols)


def inclusion_matrix(n, t, k):
    """W_{t,k}(n): one row per k-subset K of [n] and one column per
    t-subset T, in combinations order, with 1 where T is inside K."""
    k_sets, t_sets = (level_points(n, [s]).astype(np.int64) for s in (k, t))
    return ((1 - k_sets) @ t_sets.T == 0).astype(np.int64)


def wilson_p_rank(n, t, k, p):
    """Wilson's p-rank of W_{t,k}(n) for t <= min(k, n - k) (R. M. Wilson,
    European J. Combin. 1990): the sum of C(n, i) - C(n, i - 1) over the
    i <= t with p not dividing C(k - i, t - i)."""
    return sum(
        comb(n, i) - (comb(n, i - 1) if i else 0)
        for i in range(t + 1)
        if comb(k - i, t - i) % p
    )


class TestWilsonPRank:
    """Ranks of inclusion matrices against Wilson's closed form."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_case_up_to_n11(self, p):
        deficient = 0
        for n in range(1, 12):
            for k in range(n + 1):
                for t in range(min(k, n - k) + 1):
                    w = inclusion_matrix(n, t, k)
                    expected = wilson_p_rank(n, t, k, p)
                    red = RowReducer(p, w.shape[1])
                    red.add_rows(w)
                    assert red.rank == expected, (n, t, k, p)
                    deficient += expected < comb(n, t)
        assert deficient

    @pytest.mark.parametrize(
        "n, t, k, p",
        [(14, 3, 7, 2), (14, 3, 7, 3), (14, 3, 7, 7), (15, 2, 7, 5),
         (15, 3, 7, 2), (15, 3, 7, 3), (15, 3, 7, 7)],
    )
    def test_beyond_one_block(self, n, t, k, p):
        w = inclusion_matrix(n, t, k)
        red = RowReducer(p, w.shape[1])
        ranks = []
        for start in range(0, w.shape[0], _BLOCK_ROWS):
            red.add_rows(w[start : start + _BLOCK_ROWS])
            ranks.append(red.rank)
        assert red.rank == wilson_p_rank(n, t, k, p)
        # A later block adds pivots, so the end-of-block pass runs; the
        # basis must still be the identity on its pivot columns.
        assert ranks[0] < red.rank
        pivots = list(echelon(red.rref())[1])
        assert (echelon(red.rref())[0][:, pivots] == np.eye(red.rank, dtype=np.int64)).all()
        assert not ((w @ red.kernel_matrix().T) % p).any()



def eliminate_panel(panel, p):
    """`_eliminate` on a copy of `panel`: its pivot rows and their pivot
    columns, in the order found."""
    work = panel.copy()
    found, pivots = RowReducer(p, panel.shape[1])._eliminate(work)
    return work[found], pivots


def check_panel(panel, p):
    """`_eliminate` against the oracle RREF of the same rows."""
    expected, expected_piv = oracle_rref(panel.tolist(), p)
    rows, pivots = eliminate_panel(panel, p)
    assert rows.shape == (len(pivots), panel.shape[1])
    # Rows come back in the order their pivots were found.
    order = np.argsort(pivots)
    assert tuple(np.asarray(pivots)[order].tolist()) == expected_piv
    assert rows[order].tolist() == expected[: len(expected_piv)]


def panel_matrix(p, seed, rows=_PANEL, cols=48):
    """A full panel of rank well below its row count, with rows zero on
    entry, rows scaled so their leads are not 1, and repeated rows."""
    rng = np.random.default_rng(seed)
    rank = rows // 4
    data = (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p
    data[rng.choice(rows, rows // 8, replace=False)] = 0
    data[1::5] = (data[1::5] * rng.integers(1, p, (len(data[1::5]), 1))) % p
    data[2::7] = data[0]
    return data


class TestEliminatePanel:
    """The panel's Gauss-Jordan step on its own, against the oracle."""

    @pytest.mark.parametrize("p", [2, 3, 101])
    @pytest.mark.parametrize("seed", range(4))
    def test_low_rank_panels(self, p, seed):
        panel = panel_matrix(p, seed)
        assert not panel.any(axis=1).all()
        check_panel(panel, p)

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_full_rank_panel(self, p):
        check_panel(np.random.default_rng(p).integers(0, p, (_PANEL, _PANEL + 5)), p)

    def test_zero_rows_cancelled_rows_and_leads(self):
        # Row 0 is zero on entry, row 1 leads with 2 (not a unit lead),
        # row 2 is 2 * row 1 and cancels, row 3 leads with 1.
        panel = np.array([[0, 0, 0, 0], [2, 1, 0, 1], [1, 2, 0, 2], [0, 1, 1, 0]])
        check_panel(panel, 3)
        rows, pivots = eliminate_panel(panel, 3)
        assert pivots == [0, 1]
        assert rows.tolist() == [[1, 0, 1, 2], [0, 1, 1, 0]]

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_all_zero_panel(self, p):
        rows, pivots = eliminate_panel(np.zeros((3, 5), dtype=np.int64), p)
        assert pivots == [] and rows.shape == (0, 5)

    @pytest.mark.parametrize("p", [2, 3, 101])
    @pytest.mark.parametrize("rows", [15, 16, 17, 33, _PANEL])
    def test_panel_sizes_around_the_leaves(self, rows, p):
        # One leaf, a leaf split in two, and halves of uneven size.
        check_panel(panel_matrix(p, rows, rows=rows), p)
        check_panel(np.random.default_rng(rows).integers(0, p, (rows, rows + 5)), p)

    @given(fp_matrices(max_rows=_PANEL, max_cols=12))
    def test_random_panels(self, m):
        check_panel(np.array(m.data), m.p)


def raising_rows_oracle(data, p):
    """Positions of the rows of `data` independent of every row before them,
    that is of the rows that raise the prefix rank: the pivot columns of the
    oracle RREF of the transpose."""
    return list(oracle_rref(np.asarray(data).T.tolist(), p)[1])


class TestRaisedRows:
    """`add_rows` returns the positions of the rows that raised the rank.
    Panels of 8 rows and leaves of 2 make every block span several panels
    and every panel several leaves, and chunks of 8 to 12 rows, reduced
    against R one at a time, cut panels short where they end."""

    @pytest.fixture(autouse=True)
    def small_panels(self, monkeypatch):
        monkeypatch.setattr(gflinalg, "_PANEL", 8)
        monkeypatch.setattr(gflinalg, "_LEAF", 2)
        monkeypatch.setattr(gflinalg, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(gflinalg, "_CHUNK_FLOOR", 12)

    @staticmethod
    def matrix(kind, p):
        data = multi_panel_matrix(kind, p, seed=60 + p, rows=70, cols=30)
        data[[0, 3, 20, 21, 50]] = 0
        data[40] = data[5]
        data[41] = 2 * data[12] % p
        data[42] = data[42] + p * 3
        return data

    # Over 30 columns p = 1009 runs in int64, the others in float32.
    @pytest.mark.parametrize("p, dtype", [(2, np.float32), (3, np.float32), (7, np.float32), (1009, np.int64)])
    @pytest.mark.parametrize("kind", ["random", "low-rank", "repeated"])
    def test_matches_prefix_ranks(self, kind, p, dtype):
        data = self.matrix(kind, p)
        expected = raising_rows_oracle(data, p)
        # One call; calls of several sizes, an empty one among them; and
        # one 1-D row per call.
        for blocks in ([70], [25, 0, 1, 30, 14], [1] * 70):
            red = RowReducer(p, data.shape[1])
            raised, start = [], 0
            for size in blocks:
                rows = data[start] if blocks[0] == 1 else data[start : start + size]
                got = red.add_rows(rows)
                assert np.all(np.diff(got) > 0)
                raised.extend((start + got).tolist())
                start += size
            assert raised == expected
            assert red.rank == len(expected)
            assert red.rref().rows.dtype == dtype

    @pytest.mark.parametrize("p", [2, 1009])
    def test_bool_rows_and_zero_block(self, p):
        data = zero_one_matrix(seed=70 + p, rows=60, cols=40)
        red = RowReducer(p, 40)
        assert red.add_rows(np.zeros((5, 40), dtype=bool)).tolist() == []
        assert red.add_rows(data).tolist() == raising_rows_oracle(data.astype(np.int64), p)
        # Everything again: every row now depends on the basis.
        assert red.add_rows(data).tolist() == []


class TestMatmulMod:
    @given(fp_matrices(max_rows=5, max_cols=5), st.integers(1, 4))
    def test_matches_integer_product(self, m, k):
        other = np.arange(m.cols * k).reshape(m.cols, k) % m.p
        expected = (m.data @ other) % m.p
        result = matmul_mod(m.data, other, m.p)
        assert result.dtype == np.int64
        assert result.tolist() == expected.tolist()

    # (p, k, tier): k * (p-1)^2 just under and just over 2^21, 2^53 and
    # 2^62, so each product tier meets all-(p-1) operands at its largest
    # sum.
    @pytest.mark.parametrize(
        "p, k, tier",
        [(101, 209, np.float32), (101, 210, np.float64),
         (1447, 1, np.float32), (1447, 2, np.float64),
         (67108859, 2, np.float64), (67108859, 3, np.int64),
         (1518500213, 2, np.int64)],
    )
    def test_each_side_of_every_tier_boundary(self, p, k, tier):
        rng = np.random.default_rng(k)
        a = np.vstack([np.full((2, k), p - 1), rng.integers(0, p, (2, k))])
        b = np.hstack([np.full((k, 2), p - 1), rng.integers(0, p, (k, 2))])
        assert _matmul_exact(a, b, p).dtype == tier
        expected = (a.astype(object) @ b.astype(object)) % p
        result = matmul_mod(a, b, p)
        assert result.dtype == np.int64
        assert result.tolist() == expected.tolist()

    def test_beyond_the_int64_tier_refused(self):
        p = 1518500213
        assert 3 * (p - 1) ** 2 >= 2**62
        with pytest.raises(ValueError, match="too large"):
            matmul_mod(np.ones((1, 3), dtype=np.int64), np.ones((3, 1), dtype=np.int64), p)


class TestFloat32Path:
    """The float32 working dtype, at and around its bound 2^21."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1447])
    def test_mod_exact_on_the_whole_admitted_range(self, p):
        # 1447 is the largest prime with (p-1)^2 < 2^21, so the largest
        # the bound admits at one column.
        assert (p - 1) ** 2 < _FLOAT32_EXACT_LIMIT == 2**21
        x = np.arange(-(2**21), 2**21, dtype=np.int64)
        assert np.array_equal(_mod(x.astype(np.float32), p), x % p)
        # As rows, over many blocks, and on a strided view.
        rows = x.astype(np.float32).reshape(-1, 1024)
        assert np.array_equal(_mod(rows, p), (x % p).reshape(-1, 1024))
        wide = np.zeros((4096, 1100), dtype=np.float32)
        wide[:, 50:1074] = x.reshape(-1, 1024)
        _mod(wide[:, 50:1074], p)
        assert np.array_equal(wide[:, 50:1074], (x % p).reshape(-1, 1024))
        assert not wide[:, :50].any() and not wide[:, 1074:].any()
        assert np.array_equal(_mod(x.copy(), p), x % p)

    # (p, cols): cols * (p-1)^2 just under 2^21, where the reducer works
    # in float32, and just over, where it works in int64 (with float64
    # products); p = 1009 at 200 columns is well over.
    @pytest.mark.parametrize(
        "p, cols, dtype",
        [(1447, 1, np.float32), (1447, 2, np.int64),
         (307, 22, np.float32), (307, 23, np.int64),
         (101, 209, np.float32), (101, 210, np.int64),
         (1009, 200, np.int64)],
    )
    def test_reducer_on_each_side_of_the_bound(self, p, cols, dtype):
        assert (cols * (p - 1) ** 2 < 2**21) == (dtype is np.float32)
        data = bound_matrix(p, cols, seed=cols)
        expected, expected_piv = oracle_rref(data.tolist(), p)
        for rows in (data, data[::-1]):
            for block in (rows.shape[0], 37):
                red = reduce_in_blocks(rows, p, block)
                assert red.rref().rows.dtype == dtype
                assert echelon(red.rref())[1] == expected_piv
                assert echelon(red.rref())[0].tolist() == expected[: len(expected_piv)]
                kernel = red.kernel_matrix()
                assert kernel.dtype == np.int64
                assert not ((data @ kernel.T) % p).any()
        if cols <= 23:
            sympy = pytest.importorskip("sympy")
            from sympy.polys.matrices import DomainMatrix

            assert red.rank == DomainMatrix.from_list(data.tolist(), sympy.GF(p)).rank()

    def test_large_integer_input_reduced_before_conversion(self):
        # The row is (2, 2, 2) mod 3; float32 would round 2^40 + 1 to 2^40.
        red = RowReducer(3, 3)
        red.add_rows([[2**40 + 1, -(2**40), 3**30 + 2]])
        assert echelon(red.rref())[0].tolist() == [[1, 1, 1]]


def zero_one_matrix(seed, rows=3 * _PANEL + 20, cols=2 * _PANEL + 8):
    """Seeded bool matrix over more than three panels; its columns repeat
    200 random ones, so it has a kernel."""
    rng = np.random.default_rng(seed)
    base = rng.random((rows, 200)) < 0.3
    return base[:, rng.integers(0, 200, cols)]


class TestBoolInput:
    """A bool block is 0/1, so the reducer takes it as reduced and converts
    it once; it must answer as the same block given in int64."""

    @staticmethod
    def check_same(data, p, block, dtype):
        as_bool = reduce_in_blocks(data, p, block)
        as_int = reduce_in_blocks(data.astype(np.int64), p, block)
        assert as_bool.rref().rows.dtype == dtype
        assert echelon(as_bool.rref())[1] == echelon(as_int.rref())[1]
        assert np.array_equal(echelon(as_bool.rref())[0], echelon(as_int.rref())[0])
        kernel = as_bool.kernel_matrix()
        assert kernel.shape[0] > 0
        assert np.array_equal(kernel, as_int.kernel_matrix())
        assert not ((data.astype(np.int64) @ kernel.T) % p).any()

    # Over 264 columns p = 1009 runs in int64, the others in float32.
    @pytest.mark.parametrize("p, dtype", [(2, np.float32), (7, np.float32), (1009, np.int64)])
    def test_bool_block_matches_int64_block(self, p, dtype):
        data = zero_one_matrix(seed=p)
        assert data.dtype == np.bool_
        before = data.copy()
        for block in (data.shape[0], 37):
            self.check_same(data, p, block, dtype)
        assert np.array_equal(data, before)

    @pytest.mark.parametrize("p, dtype", [(3, np.float32), (1009, np.int64)])
    def test_transposed_bool_block(self, p, dtype):
        # As hilbert_series feeds: monomial rows over point columns.
        data = zero_one_matrix(seed=20 + p, rows=2 * _PANEL + 8, cols=3 * _PANEL + 20)
        data = np.ascontiguousarray(data).T
        assert not data.flags.c_contiguous
        self.check_same(data, p, data.shape[0], dtype)

    @pytest.mark.parametrize("p", [3, 1009])
    def test_basis_images_match_feeding_the_permuted_rows(self, p):
        # Over 90 columns p = 1009 runs in int64, p = 3 in float32.
        data = multi_panel_matrix("low-rank", p, seed=50 + p, cols=90)
        rng = np.random.default_rng(p)
        perms = [rng.permutation(90), rng.permutation(90)]
        images, fed = reduce_in_blocks(data, p, 150), reduce_in_blocks(data, p, 150)
        rank = fed.rank
        # Few enough images that the rank stays short of the 90 columns, so
        # the RREF depends on which rows came in; the second range runs
        # past the rank, where both stop.
        for start, stop in ((0, 3), (rank - 2, rank + 100)):
            # fed's basis rows start..stop, in join order.
            rref = fed.rref()
            rows, pivots = echelon(rref)
            rows = rows[np.searchsorted(pivots, rref.pivots[start:stop])]
            fed.add_rows(np.concatenate([rows[:, perm] for perm in perms]))
            images.add_basis_images(start, stop, perms)
            assert echelon(images.rref())[1] == echelon(fed.rref())[1]
            assert np.array_equal(echelon(images.rref())[0], echelon(fed.rref())[0])
        assert rank < images.rank < data.shape[1]


def bound_matrix(p, cols, seed):
    """Rows that drive the products to their largest sums: RREF rows that
    are p-1 on every free column, all-(p-1) rows, whose coefficient on
    every pivot is then p-1, and a few seeded random rows."""
    rng = np.random.default_rng(seed)
    k = max(cols - 2, 1)
    head = np.hstack([np.eye(k, dtype=np.int64), np.full((k, cols - k), p - 1)])
    return np.vstack([head, np.full((4, cols), p - 1), rng.integers(0, p, (6, cols))])


class TestValidation:
    def test_modulus_must_be_prime(self):
        with pytest.raises(ValueError):
            FpMatrix.from_rows([[1]], 4)
        with pytest.raises(ValueError):
            RowReducer(6, 3)

    def test_entries_reduced(self):
        m = FpMatrix.from_rows([[7, -1]], 5)
        assert m.data.tolist() == [[2, 4]]

    def test_vector_entries_reduced(self):
        assert FpVector(3, (4, -1)).values == (1, 2)

    def test_modulus_beyond_exact_bound_refused(self):
        # Before the bound this returned [1, 2863311315, 2863311314]; the
        # true row is [1, 2863311540, 2863311539].
        with pytest.raises(ValueError, match="2\\^62"):
            RowReducer(4294967311, 3)
        with pytest.raises(ValueError, match="2\\^62"):
            RowReducer(2147483647, 3)

    def test_large_modulus_within_bound_is_exact(self):
        p = 2147483647
        red = RowReducer(p, 1)
        red.add_rows([[5]])
        assert echelon(red.rref())[0].tolist() == [[1]]
        p = 1000000007
        red = RowReducer(p, 3)
        red.add_rows([[3, p - 2, p - 5]])
        inv = pow(3, -1, p)
        assert echelon(red.rref())[0].tolist() == [[1, (p - 2) * inv % p, (p - 5) * inv % p]]

    def test_matrix_must_be_2d(self):
        with pytest.raises(ValueError):
            FpMatrix(2, np.array([1, 0, 1]))

    def test_row_hint_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="rows must be nonnegative, got -1"):
            RowReducer(3, 2, -1)
        assert RowReducer(3, 2, 0).rank == 0

    def test_rows_must_be_a_row_or_a_block(self):
        red = RowReducer(3, 2)
        with pytest.raises(ValueError, match=r"got shape \(2, 2, 1\)"):
            red.add_rows(np.ones((2, 2, 1), dtype=np.int64))
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            red.add_rows(1)
        assert red.rank == 0


class TestChunkRows:
    """Chunks hold ``_CHUNK_BYTES`` of rows, and at least ``_CHUNK_FLOOR``
    rows where R holds that many rows' bytes."""

    def test_budget_rows(self):
        assert gflinalg.chunk_rows(4096) == gflinalg._CHUNK_BYTES // 4096
        assert gflinalg.chunk_rows(0) == gflinalg._CHUNK_BYTES
        assert gflinalg.chunk_rows(gflinalg._CHUNK_BYTES + 1) == 1

    def test_floor_where_r_is_large(self):
        row = 1 << 16
        assert gflinalg._CHUNK_BYTES // row < 100 < gflinalg._CHUNK_FLOOR < gflinalg._SCAN_FLOOR
        assert gflinalg.chunk_rows(row, 100 * row + 5) == 100
        assert gflinalg.chunk_rows(row, 1 << 40) == gflinalg._CHUNK_FLOOR
        assert gflinalg.chunk_rows(row, 1 << 40, gflinalg._SCAN_FLOOR) == gflinalg._SCAN_FLOOR


class TestRStore:
    """The basis kept as R, its rows on the free columns in join order:
    fed as a spin feeds it, in many small blocks and image chunks, then a
    block that adds no pivot and one that fills every free column.  Run
    with the default panels and with panels of 4 rows, leaves of 2,
    back-elimination chunks of 3 and block chunks of 4 to 6 rows, so blocks
    span several chunks and panels and the compaction runs over several
    chunks."""

    @pytest.fixture(params=["default", "small"], autouse=True)
    def sizes(self, request, monkeypatch):
        if request.param == "small":
            monkeypatch.setattr(gflinalg, "_PANEL", 4)
            monkeypatch.setattr(gflinalg, "_LEAF", 2)
            monkeypatch.setattr(gflinalg, "_CHUNK", 3)
            monkeypatch.setattr(gflinalg, "_CHUNK_BYTES", 1)
            monkeypatch.setattr(gflinalg, "_CHUNK_FLOOR", 6)

    @staticmethod
    def check_state(red, ref, fed, p):
        cols = red.cols
        expected, expected_piv = oracle_rref(np.vstack(fed).tolist(), p)
        rref = red.rref()
        assert echelon(rref)[1] == expected_piv
        assert echelon(rref)[0].tolist() == expected[: len(expected_piv)]
        free = [c for c in range(cols) if c not in expected_piv]
        assert rref.free.tolist() == free
        # R in join order, as the one-row-at-a-time reference has it.
        assert not rref.rows.flags.writeable
        assert rref.pivots.tolist() == ref.order
        assert rref.rows.tolist() == ref.basis_rows(0, len(ref.order))[:, free].tolist()
        kernel = red.kernel_matrix()
        assert np.array_equal(kernel, rref.kernel(p))
        assert kernel.shape == (len(free), cols)
        assert not ((np.vstack(fed) @ kernel.T) % p).any()

    @pytest.mark.parametrize("p, dtype", [(2, np.float32), (3, np.float32), (7, np.float32), (1009, np.int64)])
    def test_spin_like_feed_matches_the_oracles(self, p, dtype):
        cols = 40
        rng = np.random.default_rng(80 + p)
        # Rank at most 12, dense on every column, so later pivots land
        # where the earlier rows are nonzero.
        data = (rng.integers(0, p, (60, 12)) @ rng.integers(0, p, (12, cols))) % p
        perms = [rng.permutation(cols), rng.permutation(cols)]
        red, ref, fed = RowReducer(p, cols), ArrivalReference(p, cols), []
        assert red.rref().rows.dtype == dtype

        def feed(block):
            fed.append(np.asarray(block, dtype=np.int64) % p)
            assert red.add_rows(block).tolist() == ref.add(block)

        start = 0
        for size in (1, 3, 2, 7, 1, 5, 11, 4):
            feed(data[start : start + size])
            start += size
        self.check_state(red, ref, fed, p)
        # Images of the basis rows in chunks, in join order, as the spin
        # feeds them, while the rank stays short of the columns.
        done = calls = 0
        while done < red.rank < cols - 6:
            stop = min(done + 2, red.rank)
            images = np.concatenate([ref.basis_rows(done, stop)[:, perm] for perm in perms])
            fed.append(images)
            ref.add(images)
            red.add_basis_images(done, stop, perms)
            done, calls = stop, calls + 1
            self.check_state(red, ref, fed, p)
        assert calls >= 2 and red.rank < cols
        # A block in the span adds no pivot, and raises nothing.
        feed((np.vstack(fed[:3])[::-1] * 2) % p)
        assert red.rank == len(ref.order)
        self.check_state(red, ref, fed, p)
        # A block that fills every remaining free column.
        feed(np.vstack([np.eye(cols, dtype=np.int64)[red.rref().free], data[:4]]))
        assert red.rank == cols and red.rref().rows.shape == (cols, 0)
        assert red.kernel_matrix().shape == (0, cols)
        self.check_state(red, ref, fed, p)
        assert red.add_rows(data[:9]).tolist() == []

    @pytest.mark.parametrize("p", [2, 3, 7, 1009])
    def test_rank_matches_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        data = multi_panel_matrix("repeated", p, seed=90 + p, rows=70, cols=36)
        red = RowReducer(p, 36)
        for start in range(0, 70, 6):
            red.add_rows(data[start : start + 6])
        assert red.rank == DomainMatrix.from_list(data.tolist(), sympy.GF(p)).rank()

    @pytest.mark.parametrize("p", [2, 3, 1009])
    def test_rref_hands_over_the_store(self, p):
        data = multi_panel_matrix("low-rank", p, seed=95 + p, rows=50, cols=30)
        red = RowReducer(p, 30, 50)
        red.add_rows(data[25:])
        red.add_rows(data[:25])
        handed = red.rref()
        assert np.shares_memory(handed.rows, red._store)
        assert not handed.rows.flags.writeable
        with pytest.raises(ValueError):
            handed.rows[0, 0] = 0
        # A second call, with the first's view alive, hands over the same.
        again = red.rref()
        assert all(np.array_equal(got, want) for got, want in zip(again, handed))
        copies = [field.copy() for field in handed]

        def unchanged():
            for got, want in zip(handed, copies):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

        # Rows in the span add no pivot and write nothing.
        red.add_rows((data[::-1] * 2) % p)
        assert red.rank == handed.pivots.size < 30
        unchanged()
        # Rows that add a few pivots, then the rest, move the store.
        eye = np.eye(30, dtype=np.int64)
        few = eye[handed.free[:3]]
        red.add_rows(few)
        assert red.rank == handed.pivots.size + 3
        unchanged()
        expected, expected_piv = oracle_rref(np.vstack([data, few]).tolist(), p)
        rows, pivots = echelon(red.rref())
        assert pivots == expected_piv
        assert rows.tolist() == expected[: len(expected_piv)]
        red.add_rows(eye)
        assert red.rank == 30
        unchanged()

    @pytest.mark.parametrize("p", [2, 1009])
    def test_rref_under_a_tracer(self, p, traced):
        # Profilers and debuggers hold references to what a frame touches;
        # the hand-over must not depend on reference counts.
        data = multi_panel_matrix("low-rank", p, seed=97 + p, rows=50, cols=30)
        red = RowReducer(p, 30, 50)
        with traced():
            red.add_rows(data)
            handed = red.rref()
            again = red.rref()
            red.add_rows(np.eye(30, dtype=np.int64)[handed.free[:2]])
            after = red.rref()
        expected, expected_piv = oracle_rref(data.tolist(), p)
        rows, pivots = echelon(handed)
        assert pivots == expected_piv and rows.tolist() == expected[: len(expected_piv)]
        assert np.shares_memory(handed.rows, again.rows)
        assert after.pivots.size == handed.pivots.size + 2
        assert not np.shares_memory(after.rows, handed.rows)


@pytest.fixture
def reserve_requests(monkeypatch):
    """Every RowReducer made while patched, with its store's size when it
    was made; each records the sizes its `_reserve` calls ask for."""
    made = []
    init, reserve = RowReducer.__init__, RowReducer._reserve

    def recording_init(self, *args):
        init(self, *args)
        self.requests = []
        made.append((self, self._store.size))

    def recording_reserve(self, size, used):
        self.requests.append(size)
        reserve(self, size, used)

    monkeypatch.setattr(RowReducer, "__init__", recording_init)
    monkeypatch.setattr(RowReducer, "_reserve", recording_reserve)
    return made


class TestStoreReach:
    """The store's used prefix never passes r * cols - 3 r^2 / 4 entries
    at rank r, at most cols^2 / 3.  A reducer told its row count reserves
    min(rows * cols, cols^2 // 3 + cols) entries, and no request it makes
    asks for more; one that is not doubles up to that same reach."""

    @staticmethod
    def reach(cols):
        return cols * cols // 3 + cols

    @pytest.mark.parametrize("block", [1, 37, 1000])
    @pytest.mark.parametrize("p", [2, 3, 101])
    @pytest.mark.parametrize("kind", ["random", "low-rank", "repeated"])
    def test_random_feeds(self, reserve_requests, kind, p, block):
        data = multi_panel_matrix(kind, p, seed=p)
        rows, cols = data.shape
        hinted, doubling = RowReducer(p, cols, rows), RowReducer(p, cols)
        for start in range(0, rows, block):
            hinted.add_rows(data[start : start + block])
            doubling.add_rows(data[start : start + block])
        assert hinted.rank == doubling.rank == rank_mod_p(FpMatrix(p, data))
        (_, reserved), (_, empty) = reserve_requests[:2]
        assert (reserved, empty) == (min(rows * cols, self.reach(cols)), 0)
        assert hinted.requests and max(hinted.requests) <= reserved
        assert max(doubling.requests) <= cols * cols / 3
        assert doubling._store.size <= self.reach(cols)

    @pytest.mark.parametrize("n, sizes, m, p, more", [
        (13, (6,), 4, 5, ()),          # streamed
        (14, (7,), 2, 3, ()),          # spun
        (10, (5,), 3, 2, (1, 3, 7, 9)),  # more rows after the hand-over
    ])
    def test_family_rref(self, reserve_requests, n, sizes, m, p, more):
        _, exps, _ = family_rref(n, sizes, m, p, more)
        [(red, reserved)] = reserve_requests
        rows, cols = sum(binomial(n, k) for k in {*sizes, *more}), len(exps)
        assert reserved == min(rows * cols, self.reach(cols))
        assert red.requests and max(red.requests) <= min(reserved, cols * cols / 3)
