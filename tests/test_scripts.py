"""Smoke runs of the experiment scripts at toy size."""

import csv
import io
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hilbert_sweep_matches_closed_forms():
    rows = list(csv.DictReader(io.StringIO(run_script("hilbert_sweep.py", "--n-max", "6", "--p", "3", "--q", "3"))))
    assert {r["family"] for r in rows} == {"uniform", "mod3"}
    checked = [r for r in rows if r["closed_form"]]
    assert checked
    for r in checked:
        assert r["h"] == r["closed_form"], r


def test_balancing_search_certificates_pass():
    out = run_script("balancing_search.py", "--n", "6", "--limit", "3")
    rows = [line for line in out.splitlines() if line.startswith("(")]
    assert len(rows) == 3
    for line in rows:
        assert line.split()[-1] == "PASS", line
