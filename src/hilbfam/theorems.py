"""Executable checks for the vanishing-ideal facts the library is built around.

Each driver reduces a "for every polynomial of degree <= m in the ideal"
claim to a finite kernel-basis computation: vanishing conditions are
linear, so checking a basis of the truncated ideal decides the claim for
the whole space.  The basis is the canonical kernel of one elimination,
read from its RREF without being built: a point's values on every kernel
polynomial are one residue of its evaluation row against the RREF rows
(see :func:`_vanishing_witness`), and HRUBES reads the constant terms
straight off the RREF's first row.  Its columns are the question's
monomial table (``poly.monomial_table``), which the scan indexes as it
is.  Reports record enough dimensions to audit that reduction, and a
FAIL always carries a witness that re-verifies independently (a rendered
polynomial plus the point where it fails).

MAIN2, the MAIN/MAIN2 pair and HLEMMA scan one point per level they check,
its first, {1..k} (``setfam.level_seeds``).  Their kernel is that of whole
levels, each one S_n-orbit, so it is closed under permuting coordinates: a
level fails exactly where its first point does, and {1..k} comes before
every point of a larger level in family order.  So the witness is the one a
scan of every point gives, as the tests audit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Sequence

import numpy as np

from .gflinalg import _SCAN_FLOOR, Rref, chunk_rows, product_dtype
from .hilbert import (  # noqa: F401  (kernel_matrix stays importable from here)
    _eval_rows,
    _points_array,
    family_rref,
    kernel_matrix,
    nested_kernel,
    vector_to_polynomial,
)
from .poly import Point
from .setfam import (
    EnumerationCapError,
    binomial,
    enumeration_cap,
    family_sizes,
    is_power_of,
    is_prime,
    level_seeds,
)

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"

CLAIM_MAIN = "MAIN"
CLAIM_MAIN2 = "MAIN2"
CLAIM_HRUBES = "HRUBES"
CLAIM_HLEMMA = "HLEMMA"
CLAIM_GRID_REMARK = "GRID_REMARK"
CLAIM_MAIN3 = "MAIN3"


@dataclass
class VerificationReport:
    """Outcome of one claim check.

    NOT_APPLICABLE means the claim's hypotheses exclude the inputs; it is
    never an internal error.  Wall time is kept out of the serialized
    body by default so repeated runs compare byte for byte.
    """

    claim: str
    params: dict[str, Any]
    status: str
    witnesses: dict[str, Any] | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    wall_time_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def as_dict(self, include_timing: bool = False) -> dict[str, Any]:
        body: dict[str, Any] = {
            "claim": self.claim,
            "params": self.params,
            "status": self.status,
            "witnesses": self.witnesses,
            "metrics": self.metrics,
        }
        if include_timing:
            body["wall_time_ms"] = round(self.wall_time_ms, 3)
        return body


def _elapsed_ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _vanishing_witness(
    rref: Rref,
    exps: np.ndarray,
    arr: np.ndarray,
    p: int,
    cap: int,
) -> dict[str, Any] | None:
    """First (kernel polynomial, point) pair with a nonzero value, or None,
    for the canonical kernel of `rref` over the monomial table `exps` and
    the points `arr`, an integer array reduced mod p: at cap 1, uint8 0/1
    rows such as ``setfam.level_seeds`` makes, as they are, which
    ``_eval_rows`` reads a chunk at a time in float32.  The witness point
    is made of Python ints.

    Scans points in their given order, in blocks sized by bytes with
    ``gflinalg.chunk_rows``: beside R, a block's evaluations and values
    take one chunk, or ``_SCAN_FLOOR`` points where R holds that many
    points' bytes, so its product against R keeps its BLAS rate.  Kernel
    rows go in basis order, so the witness is deterministic.  A block's
    values on every kernel row are the residues of its evaluation rows E
    against the RREF, ``E[:, free] - E[:, pivots] @ R`` mod p
    (:meth:`Rref.kernel_product`): a plain product over every point given,
    which does not trust the elimination that gave R.  E is evaluated
    straight into pivot-then-free column order, in the product's dtype,
    from the table's rows in that order.  Only the witness row's
    polynomial is built.
    """
    if not rref.free.size:
        return None
    ordered = exps[np.concatenate([rref.pivots, rref.free])]
    dtype = product_dtype(rref.pivots.size, p)
    itemsize = np.dtype(dtype).itemsize
    step = chunk_rows(itemsize * (len(exps) + rref.free.size), rref.rows.nbytes, _SCAN_FLOOR)
    for start in range(0, arr.shape[0], step):
        block = arr[start : start + step]
        values = rref.kernel_product(_eval_rows(block, ordered, p, cap, dtype), p)
        hits = np.flatnonzero(values.any(axis=1))
        if hits.size:
            i = int(hits[0])
            j = int(np.flatnonzero(values[i])[0])
            poly = vector_to_polynomial(rref.kernel_row(j, p), exps, p)
            return {
                "polynomial": str(poly),
                "point": [int(v) for v in block[i]],
                "value": int(values[i, j]),
            }
        # Freed before the next block is evaluated, not beside it.
        del values
    return None


def _main_report(
    sizes: tuple[int, int], m: int, p: int, cap: int, kernel_dim: int,
    monos: np.ndarray, h_g: int, witness: dict[str, Any] | None, wall_ms: float,
) -> VerificationReport:
    """MAIN's report for |F|, |G| = sizes; the witness is dropped when h_f != h_g."""
    n_f, n_g = sizes
    params = {"m": m, "p": p, "cap": cap, "points_f": n_f, "points_g": n_g,
              "point_interpretation": "finite point subsets of F_p^n"}
    h_f = len(monos) - kernel_dim
    metrics = {
        "h_f": int(h_f),
        "h_g": int(h_g),
        "monomials": len(monos),
        "ideal_dim_f": kernel_dim,
        "ideal_dim_g": len(monos) - int(h_g),
        "matrix_shape_f": [n_f, len(monos)],
        "matrix_shape_g": [n_g, len(monos)],
    }
    if h_f != h_g:
        return VerificationReport(
            CLAIM_MAIN, params, NOT_APPLICABLE,
            metrics={**metrics, "reason": "hilbert values differ"},
            wall_time_ms=wall_ms,
        )
    metrics["ideal_dims_equal"] = metrics["ideal_dim_f"] == metrics["ideal_dim_g"]
    status = PASS if witness is None else FAIL
    return VerificationReport(CLAIM_MAIN, params, status, witness, metrics, wall_ms)


def verify_ideal_truncation_equality(
    points_f: Sequence[Point],
    points_g: Sequence[Point],
    m: int,
    p: int,
    cap: int,
) -> VerificationReport:
    """Nested point sets with equal Hilbert values at m share all
    degree-<= m vanishing polynomials.

    Requires points_f to be contained in points_g.  Unequal Hilbert
    values mean the hypothesis fails: NOT_APPLICABLE.
    """
    start = time.perf_counter()
    arr_g = _points_array(points_g, p, cap)
    rref, monos, h_g = nested_kernel(points_f, arr_g, m, p, cap)
    witness = None
    if len(monos) - rref.free.size == h_g:
        witness = _vanishing_witness(rref, monos, arr_g, p, cap)
    sizes = (len(points_f), len(points_g))
    return _main_report(sizes, m, p, cap, rref.free.size, monos, h_g, witness, _elapsed_ms(start))


def _main2_params(n: int, d: int, q: int, p: int) -> dict[str, Any]:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not is_power_of(q, p):
        raise ValueError(f"q must be a positive power of p={p}, got {q}")
    if not 0 <= d <= n:
        raise ValueError(f"d must satisfy 0 <= d <= n, got d={d}, n={n}")
    in_range = q - 1 <= d <= n - q + 1
    return {"n": n, "d": d, "q": q, "p": p, "degree_bound": q - 1, "in_range": in_range}


def _main2_report(
    params: dict[str, Any], sizes: tuple[int, int], kernel_dim: int,
    monos: np.ndarray, witness: dict[str, Any] | None, wall_ms: float,
) -> VerificationReport:
    """MAIN2's report for |uniform|, |mod-q| = sizes."""
    metrics = {
        "h_uniform": len(monos) - kernel_dim,
        "kernel_dim": kernel_dim,
        "monomials": len(monos),
        "points_uniform": sizes[0],
        "points_modq": sizes[1],
    }
    status = PASS if witness is None else FAIL
    if not params["in_range"]:
        metrics["vanishes_outside_range"] = witness is None
        status = NOT_APPLICABLE
    return VerificationReport(CLAIM_MAIN2, params, status, witness, metrics, wall_ms)


def verify_main2(n: int, d: int, q: int, p: int, force: bool = False) -> VerificationReport:
    """Every polynomial of degree <= q-1 vanishing on all d-subsets of [n]
    also vanishes on every subset of size congruent to d mod q.

    Asserted for q-1 <= d <= n-q+1 with q a power of the prime p.  With
    force=True the check still runs outside that range, but the status
    stays NOT_APPLICABLE and only the metrics report the empirical
    outcome.
    """
    start = time.perf_counter()
    params = _main2_params(n, d, q, p)
    if not params["in_range"] and not force:
        return VerificationReport(
            CLAIM_MAIN2, params, NOT_APPLICABLE,
            metrics={"reason": "d outside q-1..n-q+1"},
            wall_time_ms=_elapsed_ms(start),
        )
    uniform, modq = family_sizes(n, d), family_sizes(n, d, q)
    rref, monos, _ = family_rref(n, uniform, q - 1, p)
    witness = _vanishing_witness(rref, monos, level_seeds(n, modq), p, 1)
    sizes = (binomial(n, d), sum(binomial(n, k) for k in modq))
    return _main2_report(params, sizes, rref.free.size, monos, witness, _elapsed_ms(start))


def verify_main_pair(n: int, d: int, q: int, p: int) -> tuple[VerificationReport, VerificationReport]:
    """The MAIN report at m = q-1 for the d-uniform family of [n] inside its
    mod-q family, and the MAIN2 report, from one shared computation.

    Equal to ``verify_ideal_truncation_equality`` and ``verify_main2`` with
    force=True on the same inputs, but with one nested elimination and one
    witness scan of the mod-q levels' first points; both reports carry the
    pair's wall time.
    """
    start = time.perf_counter()
    params = _main2_params(n, d, q, p)
    # The uniform family first, so that a refusal at the cap names its count.
    uniform, modq = family_sizes(n, d), family_sizes(n, d, q)
    rref, monos, h_g = family_rref(n, uniform, q - 1, p, modq)
    witness = _vanishing_witness(rref, monos, level_seeds(n, modq), p, 1)
    sizes = (binomial(n, d), sum(binomial(n, k) for k in modq))
    wall_ms = _elapsed_ms(start)
    return (
        _main_report(sizes, q - 1, p, 1, rref.free.size, monos, h_g, witness, wall_ms),
        _main2_report(params, sizes, rref.free.size, monos, witness, wall_ms),
    )


def verify_hrubes(p: int) -> VerificationReport:
    """No polynomial of degree < p can vanish on all p-subsets of [2p]
    while taking a nonzero value at the origin.

    Checked by confirming that every kernel-basis polynomial of the
    p-subset points at degree p-1 has zero constant term.
    """
    start = time.perf_counter()
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    rref, monos, _ = family_rref(2 * p, family_sizes(2 * p, p), p - 1, p)
    params = {"p": p, "n": 2 * p, "d": p, "degree_bound": p - 1}
    metrics = {
        "points": binomial(2 * p, p),
        "monomials": len(monos),
        "h": len(monos) - rref.free.size,
        "kernel_dim": rref.free.size,
    }
    # The value at the origin of a cap-1 polynomial is its constant
    # coefficient.  The constant monomial, column 0, is 1 at every point,
    # so the first row fed has its pivot there and is the first to join
    # R, and kernel row j's coefficient there is -R[0, j]: row 0 of R
    # decides the claim.
    assert rref.pivots[0] == 0
    bad = np.flatnonzero(rref.rows[0])
    if bad.size:
        row = rref.kernel_row(int(bad[0]), p)
        witness = {
            "polynomial": str(vector_to_polynomial(row, monos, p)),
            "point": [0] * (2 * p),
            "value": int(row[0]),
        }
        return VerificationReport(CLAIM_HRUBES, params, FAIL, witness, metrics, _elapsed_ms(start))
    return VerificationReport(CLAIM_HRUBES, params, PASS, None, metrics, _elapsed_ms(start))


def verify_hlemma(p: int) -> VerificationReport:
    """No polynomial of degree < p can vanish on all 2p-subsets of [4p]
    without also vanishing on all 3p-subsets."""
    start = time.perf_counter()
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    rref, monos, _ = family_rref(4 * p, family_sizes(4 * p, 2 * p), p - 1, p)
    upper = family_sizes(4 * p, 3 * p)
    witness = _vanishing_witness(rref, monos, level_seeds(4 * p, upper), p, 1)
    params = {"p": p, "n": 4 * p, "d_lower": 2 * p, "d_upper": 3 * p, "degree_bound": p - 1}
    metrics = {
        "points_lower": binomial(4 * p, 2 * p),
        "points_upper": binomial(4 * p, 3 * p),
        "monomials": len(monos),
        "h": len(monos) - rref.free.size,
        "kernel_dim": rref.free.size,
    }
    status = PASS if witness is None else FAIL
    return VerificationReport(CLAIM_HLEMMA, params, status, witness, metrics, _elapsed_ms(start))


@dataclass(frozen=True)
class GridInstance:
    """A finite product grid in F_p^n with one marked interior point.

    sets holds the coordinate value sets (each of size >= 2, inside
    0..p-1); w is the marked grid point.
    """

    p: int
    n: int
    sets: tuple[tuple[int, ...], ...]
    w: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 1 or len(self.sets) != self.n:
            raise ValueError(f"need one value set per coordinate, n={self.n}")
        norm = []
        for t in self.sets:
            vals = tuple(sorted(set(int(v) for v in t)))
            if len(vals) < 2:
                raise ValueError(f"coordinate set {t} must have at least 2 values")
            if vals[0] < 0 or vals[-1] >= self.p:
                raise ValueError(f"coordinate set {t} not inside 0..{self.p - 1}")
            norm.append(vals)
        object.__setattr__(self, "sets", tuple(norm))
        w = tuple(int(v) for v in self.w)
        if len(w) != self.n or any(w[i] not in self.sets[i] for i in range(self.n)):
            raise ValueError(f"marked point {w} is not inside the grid")
        object.__setattr__(self, "w", w)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.sets)

    def grid_points(self) -> tuple[Point, ...]:
        return tuple(product(*self.sets))


def verify_grid_remark(grid: GridInstance) -> VerificationReport:
    """Removing one point from a product grid leaves the Hilbert value at
    m = sum(t_i) - n - 1 unchanged at (prod t_i) - 1, so every
    degree-<= m polynomial vanishing off the marked point vanishes there
    too."""
    start = time.perf_counter()
    total = 1
    for t in grid.sizes:
        total *= t
    if total > enumeration_cap():
        raise EnumerationCapError(f"grid has {total} points, cap is {enumeration_cap()}")
    m = sum(grid.sizes) - grid.n - 1
    cap = grid.p - 1
    points_g = grid.grid_points()
    points_f = tuple(pt for pt in points_g if pt != grid.w)
    params = {
        "p": grid.p,
        "n": grid.n,
        "sizes": list(grid.sizes),
        "w": list(grid.w),
        "m": m,
        "cap": cap,
    }
    expected = total - 1
    rref, monos, h_g = nested_kernel(points_f, points_g, m, grid.p, cap)
    h_f = len(monos) - rref.free.size
    metrics = {
        "h_f": int(h_f),
        "h_g": int(h_g),
        "expected_h": expected,
        "kernel_dim": rref.free.size,
        "monomials": len(monos),
        "grid_points": total,
    }
    witness = _vanishing_witness(rref, monos, np.array([grid.w]), grid.p, cap)
    ok = h_f == expected and h_g == expected and witness is None
    status = PASS if ok else FAIL
    return VerificationReport(CLAIM_GRID_REMARK, params, status, witness, metrics, _elapsed_ms(start))
