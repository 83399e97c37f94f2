"""CLI: thin-adapter golden checks, exit codes, output determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest

from hilbfam import cli, theorems
from hilbfam.balancing import BalancingInstance, check_lower_bound, min_balancing_size
from hilbfam.cli import main
from hilbfam.gflinalg import Rref
from hilbfam.hilbert import hilbert_series, ideal_truncation_basis, modq_report
from hilbfam.poly import monomials_upto
from hilbfam.setfam import SetFamily, Subset, family_points, format_family, make_uniform_family
from hilbfam.theorems import verify_hrubes

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHilbertCommand:
    def test_spun_family_keeps_the_enumeration_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HILBFAM_ENUM_CAP", "10000")
        argv = ["hilbert", "--n", "16", "--d", "8", "--p", "2", "--m", "3"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "family would contain 12870 sets, cap is 10000" in err
        code, out, _ = run_cli(capsys, *argv, "--cap", "12870")
        assert code == 0
        assert json.loads(out)["h_oracle"] == 560

    def test_modq_report_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "hilbert", "--n", "6", "--d", "3", "--p", "3", "--m", "2",
            "--modq", "3",
        )
        assert code == 0
        body = json.loads(out)
        assert body == modq_report(6, 3, 3, 3, 2).as_dict()
        assert body["h_oracle"] == 15
        assert body["match"] is True

    def test_uniform_outside_wilson_range_has_null_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "hilbert", "--n", "4", "--d", "2", "--p", "2", "--m", "3"
        )
        assert code == 0
        body = json.loads(out)
        assert body["h_closed_form"] is None
        assert body["match"] is None

    def test_bad_modulus_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "hilbert", "--n", "6", "--d", "3", "--p", "3", "--m", "2",
            "--modq", "2",
        )
        assert code == 2
        assert "error" in err

    def test_modulus_beyond_exact_bound_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "hilbert", "--n", "4", "--d", "2", "--p", "4294967311", "--m", "1"
        )
        assert code == 2
        assert out == ""
        assert "2^62" in err

    def test_a_thousand_variables(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "--n", "1000", "--d", "1", "--p", "2", "--m", "1")
        assert code == 0
        assert json.loads(out)["h_oracle"] == 1000

    def test_too_many_monomials_exits_three(self, capsys):
        # 614 429 672 columns: refused before any is listed.
        code, _, err = run_cli(capsys, "hilbert", "--n", "30", "--d", "1", "--p", "2", "--m", "15")
        assert code == 3
        assert "614429672 monomials in 30 variables up to degree 15" in err


class TestSeriesCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--n", "4", "--d", "2", "--p", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["m,h", "0,1", "1,4", "2,6"]

    def test_json_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--n", "5", "--d", "2", "--p", "3")
        assert code == 0
        points = make_uniform_family(5, 2).points()
        assert json.loads(out)["series"] == list(hilbert_series(points, 3, 1))


class TestIdealCommand:
    def test_basis_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "ideal", "--n", "4", "--d", "2", "--p", "2", "--m", "1"
        )
        assert code == 0
        body = json.loads(out)
        assert body["basis"] == ["x4 + x3 + x2 + x1"]
        assert body["h"] == 4
        assert body["ideal_dim"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "16", "--d", "8", "--p", "2", "--m", "3"],
            ["--n", "12", "--d", "6", "--p", "5", "--m", "2"],
            ["--n", "9", "--d", "4", "--p", "3", "--m", "2", "--format", "text"],
            # 32 768 points, above max(2 * 697 columns, 2048): spun.
            ["--n", "16", "--d", "0", "--modq", "2", "--p", "2", "--m", "3"],
            # 1365 points: streamed.
            ["--n", "12", "--d", "1", "--modq", "3", "--p", "3", "--m", "3"],
        ],
        ids=["spun-p2", "streamed-p5", "text-p3", "modq-spun-p2", "modq-streamed-p3"],
    )
    def test_uniform_output_matches_streamed_path(self, capsys, argv):
        # Either family's kernel comes from one family_rref over its size
        # levels instead of streaming every point through kernel_matrix; the
        # output is the streamed path's.
        family = mock.Mock(wraps=cli.family_rref)
        with mock.patch.object(cli, "family_rref", family):
            code, out, _ = run_cli(capsys, "ideal", *argv)
        assert code == 0
        assert family.call_count == 1
        args = cli.build_parser().parse_args(["ideal", *argv])
        points = family_points(args.n, args.d, args.modq)
        basis = ideal_truncation_basis(points, args.m, args.p, 1)
        cli._emit(
            {
                "n": args.n,
                "d": args.d,
                "p": args.p,
                "q": args.modq,
                "m": args.m,
                "points": len(points),
                "h": len(monomials_upto(args.n, args.m, 1)) - len(basis),
                "ideal_dim": len(basis),
                "basis": [str(f) for f in basis],
            },
            args.format,
        )
        assert out == capsys.readouterr().out

    def test_spun_family_keeps_the_enumeration_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HILBFAM_ENUM_CAP", "10000")
        argv = ["ideal", "--n", "16", "--d", "8", "--p", "2", "--m", "1"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "family would contain 12870 sets, cap is 10000" in err
        code, out, _ = run_cli(capsys, *argv, "--cap", "12870")
        assert code == 0
        assert json.loads(out)["h"] == 16
        code, _, err = run_cli(capsys, *argv, "--cap", "12869")
        assert code == 3
        assert "cap is 12869" in err
        modq = ["ideal", "--n", "16", "--d", "0", "--modq", "2", "--p", "2", "--m", "1"]
        code, _, err = run_cli(capsys, *modq)
        assert code == 3
        assert "family would contain 32768 sets, cap is 10000" in err
        code, out, _ = run_cli(capsys, *modq, "--cap", "32768")
        assert code == 0
        # x1 + ... + x16 vanishes on the even sets mod 2.
        assert json.loads(out)["basis"] == [" + ".join(f"x{i}" for i in range(16, 0, -1))]
        code, _, err = run_cli(capsys, *modq, "--cap", "32767")
        assert code == 3
        assert "cap is 32767" in err


class TestVerifyCommands:
    def test_hrubes_pass_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hrubes", "--p", "3")
        assert code == 0
        assert json.loads(out) == verify_hrubes(3).as_dict()

    def test_hrubes_nonprime_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "hrubes", "--p", "4")
        assert code == 2
        assert "prime" in err

    def test_main2_out_of_range_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "main2", "--n", "4", "--d", "1", "--q", "4", "--p", "2"
        )
        assert code == 1
        assert json.loads(out)["status"] == "NOT_APPLICABLE"

    def test_main_chain_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "main", "--n", "6", "--d", "3", "--q", "3", "--p", "3"
        )
        assert code == 0
        body = json.loads(out)
        assert body["claim"] == "MAIN"
        assert body["metrics"]["h_f"] == body["metrics"]["h_g"] == 15

    def test_grid_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "grid", "--p", "3", "--sets", "0,1;0,1,2", "--w", "1,2"
        )
        assert code == 0
        body = json.loads(out)
        assert body["status"] == "PASS"
        assert body["metrics"]["h_f"] == 5

    def test_grid_large_prime_needs_no_p_by_p_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "grid", "--p", "65537", "--sets", "0,1;0,1", "--w", "0,0"
        )
        assert code == 0
        assert json.loads(out)["status"] == "PASS"
        code, out, _ = run_cli(
            capsys, "verify", "grid", "--p", "65537", "--sets", "0,1,5;0,1,7;3,9",
            "--w", "0,7,3",
        )
        assert code == 0
        body = json.loads(out)
        assert body["status"] == "PASS"
        assert body["metrics"]["h_f"] == body["metrics"]["h_g"] == 17

    def test_timing_flag_adds_field(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hrubes", "--p", "2", "--timing")
        assert code == 0
        assert "wall_time_ms" in json.loads(out)

    def test_hlemma_cap_exceeded_exits_three(self, capsys, monkeypatch):
        monkeypatch.setenv("HILBFAM_ENUM_CAP", "50")
        code, _, err = run_cli(capsys, "verify", "hlemma", "--p", "3")
        assert code == 3
        assert "cap" in err


class TestBalanceCommands:
    def test_check_pass(self, capsys, tmp_path):
        fam = SetFamily(4, (Subset((1, 2)), Subset((1, 3))))
        path = tmp_path / "fam.txt"
        path.write_text(format_family(fam))
        code, out, _ = run_cli(
            capsys, "balance", "check", "--n", "4", "--L", "1", "--family", str(path)
        )
        assert code == 0
        assert json.loads(out) == check_lower_bound(
            BalancingInstance(fam, (1,)), 2
        ).as_dict()

    def test_check_not_balancing_exits_one(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n1,2\n")
        code, out, _ = run_cli(
            capsys, "balance", "check", "--L", "1", "--family", str(path)
        )
        assert code == 1
        assert json.loads(out)["status"] == "NOT_APPLICABLE"

    def test_check_past_the_cap_exits_three(self, tmp_path):
        # One member over [38]: C(38, 19) 19-subsets to scan.  In a
        # subprocess, so that a hang is cut by the timeout.
        path = tmp_path / "fam.txt"
        path.write_text("n=38\n1\n")
        env = {k: v for k, v in os.environ.items() if k != "HILBFAM_ENUM_CAP"}
        env["PYTHONPATH"] = str(SRC)
        cmd = [sys.executable, "-m", "hilbfam", "balance", "check", "--L", "1", "--p", "19", "--family", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "19-subsets of [38]; cap is 10000000" in proc.stderr

    def test_check_cap_from_the_environment(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=6\n1,2\n1,3\n1,4\n")
        argv = ["balance", "check", "--L", "1", "--family", str(path)]
        monkeypatch.setenv("HILBFAM_ENUM_CAP", "19")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "20 3-subsets of [6]; cap is 19" in err
        monkeypatch.setenv("HILBFAM_ENUM_CAP", "20")
        code, out, _ = run_cli(capsys, *argv)
        assert (code, json.loads(out)["status"]) == (0, "PASS")

    def test_n_mismatch_usage_error(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n1,2\n")
        code, _, err = run_cli(
            capsys, "balance", "check", "--n", "6", "--L", "1", "--family", str(path)
        )
        assert code == 2

    @pytest.mark.parametrize("name, reason", [
        ("missing.txt", "No such file or directory"),
        ("", "Is a directory"),
    ], ids=["missing", "directory"])
    def test_unreadable_family_file_usage_error(self, capsys, tmp_path, name, reason):
        path = tmp_path / name
        code, out, err = run_cli(capsys, "balance", "check", "--L", "1", "--family", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read family file {str(path)!r}: {reason}\n"


class TestSearchCommand:
    def test_found(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "4", "--L", "1", "--limit", "3")
        assert code == 0
        assert json.loads(out) == min_balancing_size(4, (1,), 3).as_dict()

    def test_not_found_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "4", "--L", "1", "--limit", "1")
        assert code == 1
        assert json.loads(out)["limit_hit"] is True

    @pytest.mark.parametrize(
        "L, limit, code, explored, digest",
        [
            ("2,3", "3", 0, 821769,
             "a2030be70798af5b48a5a8bf3c5f5d87683f5a80764f318a3997ad64153ae6e7"),
            ("1,4", "2", 1, 103042,
             "4a350cd1a8df75d9b52b83cdcba1ba0c2a829e6c958b7bd67c103b308f1b643b"),
        ],
        ids=["n10-L23-found", "n10-L14-limit"],
    )
    def test_n10_golden_bytes(self, capsys, L, limit, code, explored, digest):
        got, out, _ = run_cli(capsys, "search", "--n", "10", "--L", L, "--limit", limit)
        assert got == code
        assert json.loads(out)["explored"] == explored
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 455. GiB"), "error: out of memory: Unable to allocate 455. GiB\n"),
        (MemoryError(), "error: out of memory: allocation refused\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_three(self, capsys, monkeypatch, error, message):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "uniform_report", refuse)
        code, out, err = run_cli(capsys, "hilbert", "--n", "20", "--d", "10", "--p", "2", "--m", "10")
        assert (code, out, err) == (3, "", message)

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "hilbert", "--bogus", "1")[0] == 2

    def test_verify_all_rejects_an_empty_batch(self, capsys):
        # No prime is below 2, so --p-max 1 would check nothing.
        code, out, err = run_cli(capsys, "verify", "all", "--p-max", "1")
        assert code == 2
        assert out == ""
        assert "--p-max must be at least 2, got 1" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "hrubes", "--p", "2", "--format", "text"
        )
        assert code == 0
        assert "status: PASS" in out


class TestDeterminism:
    def test_verify_batch_byte_identical(self):
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        cmd = [sys.executable, "-m", "hilbfam", "verify", "all", "--p-max", "2",
               "--n-max", "5"]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        body = json.loads(first.stdout)
        assert body["summary"]["fail"] == 0
        assert body["summary"]["not_applicable"] == 0

    def test_verify_all_golden_bytes(self, capsys):
        # Pins the default batch report across changes, not only run to run.
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c0566e38616694d3a5ccead4b62a630c166c7e8b9649179091e2bae2f1dbb4bd"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["verify", "all", "--p-max", "5", "--n-max", "11"],
                "a4187cdf3ea9f5178badf39ff8635324a8046bc45bf33e306ec7b0ff9be87128",
            ),
            (
                ["series", "--n", "12", "--d", "0", "--modq", "4", "--p", "2",
                 "--format", "csv"],
                "6b54be751185524975fdd68378297e4d5f9bfedddf8609e42a0438eaf00c2a91",
            ),
            (
                ["ideal", "--n", "16", "--d", "0", "--modq", "2", "--p", "2", "--m", "3"],
                "67c4bf1a4da6feec9e75e1e748ae41419788e02063671f7b7c40ed9f9a79ff35",
            ),
            (
                ["ideal", "--n", "12", "--d", "1", "--modq", "3", "--p", "3", "--m", "3"],
                "44761c3288a231bd5051c99e624e0701a0c229d2cae6e94eccf28760d8fe88af",
            ),
        ],
        ids=["verify-all-p5-n11", "series-modq4-p2-csv", "ideal-modq2-p2", "ideal-modq3-p3"],
    )
    def test_larger_golden_bytes(self, capsys, argv, digest):
        # Larger inputs than the default batch, a p=2 series fed to one
        # reducer degree by degree, and a spun and a streamed mod-q ideal.
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUnderATracer:
    """cProfile, pdb and other debuggers install a profile or trace hook;
    the output must be the untraced output, byte for byte."""

    @pytest.mark.parametrize("argv", [
        ["verify", "main2", "--n", "6", "--d", "3", "--q", "2", "--p", "2"],
        ["verify", "hrubes", "--p", "3"],
    ])
    def test_verify_output_unchanged(self, capsys, traced, argv):
        want = run_cli(capsys, *argv)
        with traced():
            got = run_cli(capsys, *argv)
        assert want[0] == 0 and want[1]
        assert got == want


class TestVerifyAllSharing:
    """`verify all` answers each MAIN/MAIN2 pair from one computation."""

    def test_one_elimination_per_pair(self):
        family = mock.Mock(wraps=theorems.family_rref)
        nested = mock.Mock(wraps=theorems.nested_kernel)
        plain = mock.Mock(wraps=theorems.kernel_matrix)
        with mock.patch.object(theorems, "family_rref", family), \
                mock.patch.object(theorems, "nested_kernel", nested), \
                mock.patch.object(theorems, "kernel_matrix", plain), \
                mock.patch.object(Rref, "kernel", autospec=True,
                                  side_effect=Rref.kernel) as canonical:
            reports = cli._batch_reports(3, 8)
        claims = Counter(r.claim for r in reports)
        assert claims["MAIN"] == claims["MAIN2"] > 0
        # Each pair, HRUBES and HLEMMA eliminate once with family_rref, so
        # none is left for MAIN2; GRID_REMARK is the only nested_kernel user.
        assert family.call_count == claims["MAIN"] + claims["HRUBES"] + claims["HLEMMA"]
        pairs = [c for c in family.call_args_list if len(c.args) == 5]
        assert len(pairs) == claims["MAIN"]
        assert nested.call_count == claims["GRID_REMARK"]
        assert plain.call_count == 0
        # The scans take the RREF; no driver builds the canonical kernel.
        assert canonical.call_count == 0
        order = [r.claim for r in reports if r.claim in ("MAIN", "MAIN2")]
        assert order == ["MAIN", "MAIN2"] * claims["MAIN"]

    def test_timing_adds_only_wall_time(self, capsys):
        argv = ["verify", "all", "--p-max", "3", "--n-max", "6"]
        code, out, _ = run_cli(capsys, *argv)
        timed_code, timed_out, _ = run_cli(capsys, *argv, "--timing")
        assert code == timed_code == 0
        timed = json.loads(timed_out)
        assert all("wall_time_ms" in r for r in timed["reports"])
        # The two reports of a MAIN/MAIN2 pair share the pair's wall time.
        reports = timed["reports"]
        pairs = [(a, b) for a, b in zip(reports, reports[1:]) if a["claim"] == "MAIN"]
        assert pairs and all(b["claim"] == "MAIN2" for a, b in pairs)
        assert all(a["wall_time_ms"] == b["wall_time_ms"] for a, b in pairs)
        for r in reports:
            del r["wall_time_ms"]
        assert timed == json.loads(out)
