"""Command-line front end.

Subcommands map one-to-one onto library calls and print deterministic
reports (stable key order, no timestamps unless --timing is given), so
repeated runs with equal arguments produce byte-identical output.

Exit codes: 0 success/PASS, 1 FAIL or false/not-found results,
2 usage or validation errors (an unreadable family file among them),
3 resource-cap errors and refused allocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations, product
from pathlib import Path
from typing import Any, Sequence

from .balancing import BalancingInstance, check_lower_bound, min_balancing_size
from .hilbert import (
    family_rref,
    hilbert_series,
    modq_report,
    uniform_report,
    vector_to_polynomial,
)
from .setfam import (
    EnumerationCapError,
    binomial,
    family_points,
    family_sizes,
    is_prime,
    parse_family,
)
from .theorems import (
    GridInstance,
    PASS,
    verify_grid_remark,
    verify_hlemma,
    verify_hrubes,
    verify_ideal_truncation_equality,
    verify_main2,
    verify_main_pair,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _emit(obj: Any, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    elif fmt == "text":
        _emit_text(obj)
    else:
        raise ValueError(f"format {fmt!r} not supported for this subcommand")


def _emit_text(obj: Any, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                print(f"{pad}{key}:")
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                print(f"{pad}-")
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}- {_scalar(value)}")
    else:
        print(f"{pad}{_scalar(obj)}")


def _scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def cmd_hilbert(args: argparse.Namespace) -> int:
    if args.modq is not None:
        report = modq_report(args.n, args.d, args.modq, args.p, args.m, cap=args.cap)
    else:
        report = uniform_report(args.n, args.d, args.p, args.m, cap=args.cap)
    _emit(report.as_dict(), args.format)
    return EXIT_FAIL if report.match is False else EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    points = family_points(args.n, args.d, args.modq, args.cap)
    series = hilbert_series(points, args.p, 1)
    if args.format == "csv":
        print("m,h")
        for m, h in enumerate(series):
            print(f"{m},{h}")
        return EXIT_OK
    out = {
        "n": args.n,
        "d": args.d,
        "p": args.p,
        "q": args.modq,
        "points": len(points),
        "series": list(series),
    }
    _emit(out, args.format)
    return EXIT_OK


def cmd_ideal(args: argparse.Namespace) -> int:
    sizes = family_sizes(args.n, args.d, args.modq, args.cap)
    rref, monos, h = family_rref(args.n, sizes, args.m, args.p)
    kernel = rref.kernel(args.p)
    out = {
        "n": args.n,
        "d": args.d,
        "p": args.p,
        "q": args.modq,
        "m": args.m,
        "points": sum(binomial(args.n, k) for k in sizes),
        "h": h,
        "ideal_dim": len(kernel),
        "basis": [str(vector_to_polynomial(row, monos, args.p)) for row in kernel],
    }
    _emit(out, args.format)
    return EXIT_OK


def _emit_report(report, args: argparse.Namespace) -> int:
    _emit(report.as_dict(include_timing=args.timing), args.format)
    return EXIT_OK if report.status == PASS else EXIT_FAIL


def cmd_verify_main(args: argparse.Namespace) -> int:
    m = args.m if args.m is not None else args.q - 1
    uniform = family_points(args.n, args.d, cap=args.cap)
    modq = family_points(args.n, args.d, args.q, args.cap)
    report = verify_ideal_truncation_equality(uniform, modq, m, args.p, 1)
    return _emit_report(report, args)


def cmd_verify_main2(args: argparse.Namespace) -> int:
    report = verify_main2(args.n, args.d, args.q, args.p, force=args.force)
    return _emit_report(report, args)


def cmd_verify_hrubes(args: argparse.Namespace) -> int:
    return _emit_report(verify_hrubes(args.p), args)


def cmd_verify_hlemma(args: argparse.Namespace) -> int:
    return _emit_report(verify_hlemma(args.p), args)


def cmd_verify_grid(args: argparse.Namespace) -> int:
    sets = tuple(_parse_int_list(part, "--sets") for part in args.sets.split(";"))
    w = _parse_int_list(args.w, "--w")
    grid = GridInstance(args.p, len(sets), sets, w)
    return _emit_report(verify_grid_remark(grid), args)


def _batch_reports(p_max: int, n_max: int) -> list:
    """The standard verification batch, in a fixed deterministic order."""
    reports = []
    primes = [p for p in range(2, p_max + 1) if is_prime(p)]
    for p in primes:
        reports.append(verify_hrubes(p))
    for p in primes:
        # The 4p-choose-2p instances grow fast; keep the batch quick.
        if p <= 3:
            reports.append(verify_hlemma(p))
    for p in primes:
        q = p
        while q <= n_max:
            for n in range(1, n_max + 1):
                for d in range(max(q - 1, 0), n - q + 2):
                    reports.extend(verify_main_pair(n, d, q, p))
            q *= p
    for p in primes:
        if p > 3:
            continue
        value_sets = [
            tuple(c) for size in (2, 3) if size <= p for c in combinations(range(p), size)
        ]
        for n in (1, 2):
            for sets in product(value_sets, repeat=n):
                for w in product(*sets):
                    reports.append(verify_grid_remark(GridInstance(p, n, sets, w)))
    for p in primes:
        if p > 3:
            continue
        n = 2 * p
        options = [
            tuple(c) for size in range(1, p) for c in combinations(range(1, p), size)
        ]
        for L in options:
            result = min_balancing_size(n, L, p)
            if result.witness_family is not None:
                inst = BalancingInstance(result.witness_family, L)
                reports.append(check_lower_bound(inst, p))
    return reports


def cmd_verify_all(args: argparse.Namespace) -> int:
    if args.p_max < 2:
        # No prime is below 2, so the batch would be empty.
        raise ValueError(f"--p-max must be at least 2, got {args.p_max}")
    reports = _batch_reports(args.p_max, args.n_max)
    statuses = [r.status for r in reports]
    out = {
        "suite": "verify-all",
        "p_max": args.p_max,
        "n_max": args.n_max,
        "reports": [r.as_dict(include_timing=args.timing) for r in reports],
        "summary": {
            "total": len(reports),
            "pass": statuses.count("PASS"),
            "fail": statuses.count("FAIL"),
            "not_applicable": statuses.count("NOT_APPLICABLE"),
        },
    }
    _emit(out, args.format)
    return EXIT_OK if all(s == PASS for s in statuses) else EXIT_FAIL


def cmd_balance_check(args: argparse.Namespace) -> int:
    try:
        text = Path(args.family).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read family file {args.family!r}: {exc.strerror}") from exc
    family = parse_family(text)
    if args.n is not None and args.n != family.n:
        raise ValueError(f"--n {args.n} disagrees with family file n={family.n}")
    p = args.p if args.p is not None else family.n // 2
    inst = BalancingInstance(family, _parse_int_list(args.L, "--L"))
    report = check_lower_bound(inst, p)
    return _emit_report(report, args)


def cmd_search(args: argparse.Namespace) -> int:
    result = min_balancing_size(args.n, _parse_int_list(args.L, "--L"), args.limit)
    _emit(result.as_dict(), args.format)
    return EXIT_OK if result.minimum_size is not None else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbfam",
        description="Hilbert functions of set-family point sets over F_p, "
        "with executable theorem checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, csv: bool = False) -> None:
        choices = ["json", "text"] + (["csv"] if csv else [])
        p.add_argument("--format", choices=choices, default="json")

    def add_timing(p: argparse.ArgumentParser) -> None:
        p.add_argument("--timing", action="store_true", help="include wall time in the report")

    hil = sub.add_parser("hilbert", help="Hilbert value of a constructed family")
    hil.add_argument("--n", type=int, required=True)
    hil.add_argument("--d", type=int, required=True)
    hil.add_argument("--p", type=int, required=True)
    hil.add_argument("--m", type=int, required=True)
    hil.add_argument("--modq", type=int, help="use the size-congruent family mod q")
    hil.add_argument("--cap", type=int, help="enumeration cap override")
    add_format(hil)
    hil.set_defaults(func=cmd_hilbert)

    ser = sub.add_parser("series", help="Hilbert series up to stabilization")
    ser.add_argument("--n", type=int, required=True)
    ser.add_argument("--d", type=int, required=True)
    ser.add_argument("--p", type=int, required=True)
    ser.add_argument("--modq", type=int)
    ser.add_argument("--cap", type=int)
    add_format(ser, csv=True)
    ser.set_defaults(func=cmd_series)

    ide = sub.add_parser("ideal", help="basis of the degree-<= m vanishing polynomials")
    ide.add_argument("--n", type=int, required=True)
    ide.add_argument("--d", type=int, required=True)
    ide.add_argument("--p", type=int, required=True)
    ide.add_argument("--m", type=int, required=True)
    ide.add_argument("--modq", type=int)
    ide.add_argument("--cap", type=int)
    add_format(ide)
    ide.set_defaults(func=cmd_ideal)

    ver = sub.add_parser("verify", help="run one claim check or the whole batch")
    claims = ver.add_subparsers(dest="claim", required=True)

    vmain = claims.add_parser("main", help="ideal truncation equality for nested families")
    vmain.add_argument("--n", type=int, required=True)
    vmain.add_argument("--d", type=int, required=True)
    vmain.add_argument("--q", type=int, required=True)
    vmain.add_argument("--p", type=int, required=True)
    vmain.add_argument("--m", type=int, help="degree bound, default q-1")
    vmain.add_argument("--cap", type=int)
    add_format(vmain)
    add_timing(vmain)
    vmain.set_defaults(func=cmd_verify_main)

    vmain2 = claims.add_parser("main2", help="uniform-family kernel vanishes mod q")
    vmain2.add_argument("--n", type=int, required=True)
    vmain2.add_argument("--d", type=int, required=True)
    vmain2.add_argument("--q", type=int, required=True)
    vmain2.add_argument("--p", type=int, required=True)
    vmain2.add_argument("--force", action="store_true",
                        help="run outside the stated d range, reporting empirically")
    add_format(vmain2)
    add_timing(vmain2)
    vmain2.set_defaults(func=cmd_verify_main2)

    vhr = claims.add_parser("hrubes", help="degree bound for p-subsets of [2p]")
    vhr.add_argument("--p", type=int, required=True)
    add_format(vhr)
    add_timing(vhr)
    vhr.set_defaults(func=cmd_verify_hrubes)

    vhl = claims.add_parser("hlemma", help="degree bound for 2p- vs 3p-subsets of [4p]")
    vhl.add_argument("--p", type=int, required=True)
    add_format(vhl)
    add_timing(vhl)
    vhl.set_defaults(func=cmd_verify_hlemma)

    vgr = claims.add_parser("grid", help="punctured-grid Hilbert equality")
    vgr.add_argument("--p", type=int, required=True)
    vgr.add_argument("--sets", required=True,
                     help="semicolon-separated coordinate value sets, e.g. '0,1;0,1,2'")
    vgr.add_argument("--w", required=True, help="marked grid point, e.g. '0,2'")
    add_format(vgr)
    add_timing(vgr)
    vgr.set_defaults(func=cmd_verify_grid)

    vall = claims.add_parser("all", help="deterministic verification batch")
    vall.add_argument("--p-max", type=int, default=3, dest="p_max")
    vall.add_argument("--n-max", type=int, default=8, dest="n_max")
    add_format(vall)
    add_timing(vall)
    vall.set_defaults(func=cmd_verify_all)

    bal = sub.add_parser("balance", help="balancing-family checks")
    balsub = bal.add_subparsers(dest="action", required=True)
    bchk = balsub.add_parser("check", help="certificate check for a family file")
    bchk.add_argument("--L", required=True, help="comma-separated intersection sizes")
    bchk.add_argument("--family", required=True, help="family file path")
    bchk.add_argument("--n", type=int, help="expected ground-set size")
    bchk.add_argument("--p", type=int, help="prime, default n/2")
    add_format(bchk)
    add_timing(bchk)
    bchk.set_defaults(func=cmd_balance_check)

    sea = sub.add_parser("search", help="minimal balancing family size")
    sea.add_argument("--n", type=int, required=True)
    sea.add_argument("--L", required=True)
    sea.add_argument("--limit", type=int, required=True)
    add_format(sea)
    sea.set_defaults(func=cmd_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
