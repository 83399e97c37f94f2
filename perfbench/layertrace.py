"""Per-layer trace of hilbfam, taken from outside the library.

The tracer wraps public functions of each hilbfam module, patched on
every hilbfam module that holds a reference to them (so calls between
modules are seen too) and on the classes for methods.  A span's self
time is its duration minus its child spans; a layer's self time is the
sum over its spans, so private helpers such as `_eval_rows` and
`_vanishing_witness` count towards the layer that calls them.  Counts
come from arguments and return values only.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from hilbfam import balancing, cli, gflinalg, hilbert, poly, setfam, theorems

# (layer, owner, attribute).  Owners that are classes get their method
# replaced; owners that are modules get the function replaced wherever a
# hilbfam module holds it.
SPANS = (
    ("setfam", setfam, "make_uniform_family"),
    ("setfam", setfam, "make_modq_family"),
    ("setfam", setfam.SetFamily, "points"),
    ("setfam", setfam.SetFamily, "masks"),
    ("poly", poly, "monomials_upto"),
    ("poly", poly, "evaluate"),
    ("poly", poly, "expand_affine_product"),
    ("hilbert", hilbert, "hilbert_value"),
    ("hilbert", hilbert, "hilbert_series"),
    ("hilbert", hilbert, "kernel_matrix"),
    ("hilbert", hilbert, "uniform_report"),
    ("gflinalg", gflinalg.RowReducer, "__init__"),
    ("gflinalg", gflinalg.RowReducer, "add_rows"),
    ("gflinalg", gflinalg.RowReducer, "kernel_matrix"),
    ("gflinalg", gflinalg, "matmul_mod"),
    ("theorems", theorems, "verify_main2"),
    ("theorems", theorems, "verify_hrubes"),
    ("theorems", theorems, "verify_hlemma"),
    ("theorems", theorems, "verify_ideal_truncation_equality"),
    ("theorems", theorems, "verify_grid_remark"),
    ("balancing", balancing, "is_balancing"),
    ("balancing", balancing, "min_balancing_size"),
    ("balancing", balancing, "witness_poly"),
    ("balancing", balancing, "check_lower_bound"),
    ("cli", cli, "main"),
)

# name -> (unit, better), in report order.
METRICS = {
    "setfam.self_s": ("s", "lower"),
    "setfam.sets": ("count", "lower"),
    "poly.self_s": ("s", "lower"),
    "poly.term_evals": ("count", "lower"),
    "hilbert.self_s": ("s", "lower"),
    "hilbert.cells": ("count", "lower"),
    "gflinalg.fp_s": ("s", "lower"),
    "gflinalg.fp_rows_per_s": ("rows/s", "higher"),
    "gflinalg.gf2_s": ("s", "lower"),
    "gflinalg.gf2_rows_per_s": ("rows/s", "higher"),
    "gflinalg.kernel_s": ("s", "lower"),
    "gflinalg.reducers": ("count", "lower"),
    "gflinalg.rows": ("count", "lower"),
    "gflinalg.rank_per_row": ("ratio", "higher"),
    "gflinalg.matmul_calls": ("count", "lower"),
    "theorems.scan_s": ("s", "lower"),
    "theorems.points_scanned": ("count", "lower"),
    "balancing.search_s": ("s", "lower"),
    "balancing.nodes": ("count", "lower"),
    "balancing.nodes_per_s": ("nodes/s", "higher"),
    "balancing.cert_s": ("s", "lower"),
    "balancing.cert_terms": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

COUNTS = tuple(name for name, (unit, _) in METRICS.items() if unit == "count")


def _points_scanned(name: str, report) -> int:
    """Points a `verify_*` function offered to its witness scan."""
    mt = report.metrics
    if name == "verify_main2":
        return mt["points_modq"] if mt.get("kernel_dim") else 0
    if name == "verify_ideal_truncation_equality":
        return report.params["points_g"] if "ideal_dims_equal" in mt and mt["ideal_dim_f"] else 0
    if name == "verify_hlemma":
        return mt["points_upper"] if mt["kernel_dim"] else 0
    if name == "verify_grid_remark":
        return 1 if mt["kernel_dim"] else 0
    return 0


class Tracer:
    """Spans and counts for one round; `install` patches, `remove` undoes."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self._stack: list[list] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "hilbfam" or k.startswith("hilbfam.")]
        for layer, owner, attr in SPANS:
            orig = getattr(owner, attr)
            wrapped = self._wrap(layer, attr, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            before = args[0].rank if name == "add_rows" else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tracer.time[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            tracer._account(layer, name, args, result, elapsed, before, parent)
            return result

        return span

    # -- counts ---------------------------------------------------------------

    def _account(self, layer, name, args, result, elapsed, before, parent) -> None:
        c, t = self.count, self.time
        if name in ("make_uniform_family", "make_modq_family"):
            c["setfam.sets"] += len(result)
        elif name == "evaluate":
            c["poly.term_evals"] += len(args[0].terms)
        elif name == "__init__" and layer == "gflinalg":
            c["gflinalg.reducers"] += 1
        elif name == "add_rows":
            reducer, rows = args[0], args[1]
            n_rows = 1 if np.ndim(rows) == 1 else len(rows)
            engine = "gf2" if reducer.p == 2 else "fp"
            t[f"gflinalg.{engine}_s"] += elapsed
            c[f"gflinalg.{engine}_rows"] += n_rows
            c["gflinalg.rows"] += n_rows
            c["gflinalg.pivots"] += reducer.rank - before
            if parent is not None and parent[0] == "hilbert":
                c["hilbert.cells"] += n_rows * reducer.cols
        elif name == "kernel_matrix" and layer == "gflinalg":
            t["gflinalg.kernel_s"] += elapsed
        elif name == "matmul_mod":
            c["gflinalg.matmul_calls"] += 1
            if parent is not None and parent[0] == "theorems":
                t["theorems.scan_matmul_s"] += elapsed
        elif layer == "theorems":
            c["theorems.points_scanned"] += _points_scanned(name, result)
        elif name == "min_balancing_size":
            t["balancing.search_s"] += elapsed
            c["balancing.nodes"] += result.explored
        elif name == "witness_poly":
            c["balancing.cert_terms"] += len(result.terms)
        elif name == "check_lower_bound":
            t["balancing.cert_s"] += elapsed

    def round_metrics(self) -> dict[str, float]:
        """This round's metrics, except the overhead, which needs an
        untraced round to compare with."""
        t, c = self.time, self.count

        def rate(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "setfam.self_s": t["setfam"],
            "poly.self_s": t["poly"],
            "hilbert.self_s": t["hilbert"],
            "gflinalg.fp_s": t["gflinalg.fp_s"],
            "gflinalg.fp_rows_per_s": rate(c["gflinalg.fp_rows"], t["gflinalg.fp_s"]),
            "gflinalg.gf2_s": t["gflinalg.gf2_s"],
            "gflinalg.gf2_rows_per_s": rate(c["gflinalg.gf2_rows"], t["gflinalg.gf2_s"]),
            "gflinalg.kernel_s": t["gflinalg.kernel_s"],
            "gflinalg.rank_per_row": rate(c["gflinalg.pivots"], c["gflinalg.rows"]),
            "theorems.scan_s": t["theorems"] + t["theorems.scan_matmul_s"],
            "balancing.search_s": t["balancing.search_s"],
            "balancing.nodes_per_s": rate(c["balancing.nodes"], t["balancing.search_s"]),
            "balancing.cert_s": t["balancing.cert_s"],
            "cli.self_s": t["cli"],
        }
        out.update({name: c[name] for name in COUNTS})
        return out
