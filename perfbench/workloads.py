"""The benchmark's workloads: fixed lists of questions to hilbfam.

Each question asks the library one thing through its public API or its
CLI and carries an independent check of the answer (see oracle.py).
Library functions are looked up on their modules at call time, so the
tracer's patches see every call.  Seeded inputs have a fixed size: the
seed changes which inputs run, not how much work they take.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any, Callable

from hilbfam import balancing, cli, hilbert, setfam, theorems

import oracle
from oracle import N8_MINIMUM, expect


@dataclass(frozen=True)
class Question:
    label: str
    ask: Callable[[], Any]
    check: Callable[[Any], None]


# Balancing families over [10] at p = 5, found by a random search; their
# certificates expand to 2658 and 5456 terms.  They are fixed, not seeded:
# relabeling [10] keeps the term count but moved the certificate scan's
# time by up to 25% between seeds, since `evaluate` stops at the first
# zero coordinate and so depends on where the variables sit.
GIVEN_N10 = (
    ((2, 3), ((1, 2, 4, 8, 10), (3, 4, 6, 7, 8), (4, 5, 6, 9, 10))),
    ((3, 4), ((1, 2, 3, 5, 6, 8, 9, 10), (2, 3, 4, 5, 8, 9, 10), (2, 3, 4, 7, 8, 10))),
)

SIZES = {
    "odd-elim": {
        "main2": (13, 6, 5, 5),
        "uniform": (12, 6, 5, 4),
        "hrubes": 5,
        "kernel": (12, 6, 500, 4, 5),
    },
    "gf2-wide": {
        "main2": ((17, 8, 2, 2), (16, 8, 4, 2)),
        "series": (12, 0, 4),
        "kernel": (16, 8, 3000, 3, 2),
    },
    "verify-batch": {"p_max": 5, "n_max": 11},
    "balance": {
        "n8": (((2,), 4), ((1, 2), 4), ((2, 3), 4), ((1, 2, 3), 4), ((1, 3), 2)),
        "n10_below": ((1, 4), (1, 2, 3), (2, 3, 4), (1, 2, 3, 4)),
        "n10_found": ((1, 2, 3, 4), (2, 3, 4), (1, 2, 3)),
        "given": GIVEN_N10,
    },
}

# The same questions at toy size, for the benchmark's own tests.
TOY_SIZES = {
    "odd-elim": {
        "main2": (9, 4, 5, 5),
        "uniform": (9, 4, 5, 3),
        "hrubes": 3,
        "kernel": (9, 4, 60, 3, 5),
    },
    "gf2-wide": {
        "main2": ((10, 5, 2, 2), (9, 4, 4, 2)),
        "series": (6, 0, 4),
        "kernel": (10, 5, 150, 2, 2),
    },
    "verify-batch": {"p_max": 3, "n_max": 6},
    "balance": {
        "n8": (((1, 2), 4), ((2, 3), 4)),
        "n10_below": ((1, 2, 3),),
        "n10_found": ((1, 2, 3, 4),),
        "given": GIVEN_N10[:1],
    },
}

WORKLOADS = tuple(SIZES)


def build(name: str, seed: int, toy: bool = False) -> list[Question]:
    """The question list of one workload, with its seeded inputs made."""
    sizes = (TOY_SIZES if toy else SIZES)[name]
    return _BUILDERS[name](sizes, random.Random(seed))


# -- shared checks ------------------------------------------------------------


def _check_main2(report, n: int, d: int, q: int, p: int) -> None:
    expect(report.status == theorems.PASS, f"verify_main2{(n, d, q, p)} is {report.status}")
    mt = report.metrics
    monos = oracle.monomial_count(n, q - 1)
    h = oracle.wilson_rank(n, q - 1)
    expect(mt["monomials"] == monos, f"monomials {mt['monomials']} != {monos}")
    expect(mt["h_uniform"] == h, f"h_uniform {mt['h_uniform']} != C({n},{q - 1}) = {h}")
    expect(mt["kernel_dim"] == monos - h, f"kernel_dim {mt['kernel_dim']} != {monos - h}")
    expect(mt["points_uniform"] == comb(n, d), "uniform family has the wrong size")
    expect(mt["points_modq"] == oracle.modq_family_size(n, d, q), "mod-q family has the wrong size")


def _check_hrubes(report, p: int) -> None:
    expect(report.status == theorems.PASS, f"verify_hrubes({p}) is {report.status}")
    mt = report.metrics
    expect(mt["points"] == comb(2 * p, p), "wrong number of p-subsets")
    expect(mt["monomials"] == oracle.monomial_count(2 * p, p - 1), "wrong monomial count")
    expect(mt["h"] == oracle.wilson_rank(2 * p, p - 1), f"h {mt['h']} != C({2 * p},{p - 1})")


def _subfamily_points(rng: random.Random, n: int, d: int, size: int) -> tuple[tuple[int, ...], ...]:
    """A seeded random set of `size` d-subsets of [n], as sorted 0/1 points."""
    picked = rng.sample(range(comb(n, d)), size)
    subsets = list(combinations(range(n), d))
    points = []
    for idx in sorted(picked):
        pt = [0] * n
        for i in subsets[idx]:
            pt[i] = 1
        points.append(tuple(pt))
    return tuple(points)


def _kernel_question(label: str, points, m: int, p: int) -> Question:
    def check(answer) -> None:
        kernel, monos = answer
        oracle.check_kernel(points, m, p, kernel, monos)

    return Question(label, lambda: hilbert.kernel_matrix(points, m, p, 1), check)


# -- odd-elim -------------------------------------------------------------------


def _odd_elim(sizes: dict, rng: random.Random) -> list[Question]:
    n2, d2, q2, p2 = sizes["main2"]
    nu, du, pu, mu = sizes["uniform"]
    ph = sizes["hrubes"]
    nk, dk, kk, mk, pk = sizes["kernel"]

    def check_uniform(report) -> None:
        expect(mu <= min(du, nu - du), "uniform question must lie in the closed-form range")
        h = oracle.wilson_rank(nu, mu)
        expect(report.h_oracle == h, f"h_oracle {report.h_oracle} != C({nu},{mu}) = {h}")
        expect(report.ideal_dim == oracle.monomial_count(nu, mu) - h, "wrong ideal dimension")

    return [
        Question(
            f"verify_main2{sizes['main2']}",
            lambda: theorems.verify_main2(n2, d2, q2, p2),
            lambda r: _check_main2(r, n2, d2, q2, p2),
        ),
        Question(
            f"uniform_report{sizes['uniform']}",
            lambda: hilbert.uniform_report(nu, du, pu, mu),
            check_uniform,
        ),
        Question(f"verify_hrubes({ph})", lambda: theorems.verify_hrubes(ph), lambda r: _check_hrubes(r, ph)),
        _kernel_question(
            f"kernel_matrix(seeded {kk} of C({nk},{dk}), m={mk}, p={pk})",
            _subfamily_points(rng, nk, dk, kk), mk, pk,
        ),
    ]


# -- gf2-wide -------------------------------------------------------------------


def _gf2_wide(sizes: dict, rng: random.Random) -> list[Question]:
    questions = [
        Question(
            f"verify_main2{args}",
            lambda a=args: theorems.verify_main2(*a),
            lambda r, a=args: _check_main2(r, *a),
        )
        for args in sizes["main2"]
    ]
    ns, ds, qs = sizes["series"]
    want = oracle.modq_series(ns, ds, qs)

    def check_series(series) -> None:
        expect(tuple(series) == want, f"series {tuple(series)} != closed form {want}")

    questions.append(Question(
        f"hilbert_series(mod-{qs} family n={ns} d={ds}, p=2)",
        lambda: hilbert.hilbert_series(setfam.make_modq_family(ns, ds, qs).points(), 2, 1),
        check_series,
    ))
    nk, dk, kk, mk, pk = sizes["kernel"]
    questions.append(_kernel_question(
        f"kernel_matrix(seeded {kk} of C({nk},{dk}), m={mk}, p={pk})",
        _subfamily_points(rng, nk, dk, kk), mk, pk,
    ))
    return questions


# -- verify-batch ---------------------------------------------------------------


def _primes_upto(k: int) -> list[int]:
    return [p for p in range(2, k + 1) if all(p % f for f in range(2, p))]


def _verify_batch(sizes: dict, rng: random.Random) -> list[Question]:
    p_max, n_max = sizes["p_max"], sizes["n_max"]
    argv = ["verify", "all", "--p-max", str(p_max), "--n-max", str(n_max)]

    def ask():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    # In-range MAIN2 instances: q a power of a prime p <= p_max, q <= n_max,
    # and q-1 <= d <= n-q+1.
    in_range = [
        (n, d, q, p)
        for p in _primes_upto(p_max)
        for q in (p**a for a in range(1, n_max + 1) if p**a <= n_max)
        for n in range(1, n_max + 1)
        for d in range(q - 1, n - q + 2)
    ]

    def check(answer) -> None:
        code, text = answer
        expect(code == 0, f"`hilbfam {' '.join(argv)}` exited {code}")
        body = json.loads(text)
        reports = body["reports"]
        summary = body["summary"]
        expect(summary["total"] == len(reports) == summary["pass"], f"summary {summary}")
        expect(all(r["status"] == "PASS" for r in reports), "a report is not PASS")
        main2 = [r for r in reports if r["claim"] == "MAIN2"]
        got = sorted((r["params"]["n"], r["params"]["d"], r["params"]["q"], r["params"]["p"]) for r in main2)
        expect(got == sorted(in_range), "MAIN2 reports do not cover the in-range instances")
        for r in main2:
            pr, mt = r["params"], r["metrics"]
            expect(mt["h_uniform"] == oracle.wilson_rank(pr["n"], pr["q"] - 1), f"MAIN2 {pr}: wrong h")
        hrubes = [r for r in reports if r["claim"] == "HRUBES"]
        expect(len(hrubes) == len(_primes_upto(p_max)), "missing HRUBES reports")
        for r in hrubes:
            p = r["params"]["p"]
            expect(r["metrics"]["h"] == oracle.wilson_rank(2 * p, p - 1), f"HRUBES p={p}: wrong h")

    return [Question(f"hilbfam {' '.join(argv)}", ask, check)]


# -- balance --------------------------------------------------------------------


def _family(n: int, members) -> setfam.SetFamily:
    return setfam.SetFamily(n, tuple(setfam.Subset.of(g) for g in members))


def _members(family) -> list[tuple[int, ...]]:
    return [g.members for g in family.sets]


def _check_found(result, n: int, L, expected_size) -> None:
    expect(result.minimum_size == expected_size, f"minimum size {result.minimum_size} != {expected_size}")
    if expected_size is None:
        expect(result.witness_family is None and result.limit_hit, "search below the minimum found a family")
        return
    fam = _members(result.witness_family)
    expect(len(fam) == expected_size, "witness family has the wrong size")
    expect(oracle.is_balancing(n, L, fam), f"witness family {fam} is not balancing for L={L}")


def _check_certificate(report, L, members, p: int) -> None:
    n, m, s = 2 * p, len(members), len(L)
    expect(report.status == theorems.PASS, f"check_lower_bound is {report.status}")
    expect(oracle.is_balancing(n, L, members), "certified family is not balancing")
    mt = report.metrics
    want = oracle.origin_value(L, m, p)
    expect(mt["origin_value"] == want != 0, f"origin value {mt['origin_value']} != {want}")
    expect(mt["certificate_degree"] <= m * s, "certificate degree above m*s")
    expect(mt["checked_points"] == comb(n, p), "certificate not checked on every p-subset")
    expect(2 * s * m >= n, "family below the size bound")


def _balance(sizes: dict, rng: random.Random) -> list[Question]:
    questions = []
    for L, limit in sizes["n8"]:
        minimum = N8_MINIMUM[L]
        want = minimum if minimum <= limit else None
        questions.append(Question(
            f"min_balancing_size(8, {L}, {limit})",
            lambda L=L, limit=limit: balancing.min_balancing_size(8, L, limit),
            lambda r, L=L, want=want: _check_found(r, 8, L, want),
        ))
    for L in sizes["n10_below"]:
        limit = oracle.size_bound(10, len(L)) - 1
        questions.append(Question(
            f"min_balancing_size(10, {L}, {limit}) below the bound",
            lambda L=L, limit=limit: balancing.min_balancing_size(10, L, limit),
            lambda r, L=L: _check_found(r, 10, L, None),
        ))
    for L in sizes["n10_found"]:
        bound = oracle.size_bound(10, len(L))

        def ask(L=L, bound=bound):
            result = balancing.min_balancing_size(10, L, bound)
            inst = balancing.BalancingInstance(result.witness_family, L)
            return result, balancing.check_lower_bound(inst, 5)

        def check(answer, L=L, bound=bound):
            result, report = answer
            _check_found(result, 10, L, bound)
            _check_certificate(report, L, _members(result.witness_family), 5)

        questions.append(Question(f"search and certify n=10 L={L}", ask, check))
    for L, members in sizes["given"]:
        inst = balancing.BalancingInstance(_family(10, members), L)
        questions.append(Question(
            f"check_lower_bound(given family, L={L}, p=5)",
            lambda inst=inst: balancing.check_lower_bound(inst, 5),
            lambda r, L=L, fam=members: _check_certificate(r, L, fam, 5),
        ))
    return questions


_BUILDERS = {
    "odd-elim": _odd_elim,
    "gf2-wide": _gf2_wide,
    "verify-batch": _verify_batch,
    "balance": _balance,
}
