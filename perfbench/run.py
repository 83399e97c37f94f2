"""Benchmark for hilbfam: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload odd-elim --seed 1 --seconds 24 --trace 0

Runs the workload's question list in whole rounds, in this one process,
until the next round would overrun --seconds, then checks every answer
against oracle.py and prints one JSON line last.  With --trace 0 the
metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with
--trace 1, untraced and traced rounds alternate and the metrics are the
per-layer ones from layertrace.py.  Every run also writes its raw
timings to perfbench/out/.

BLAS runs on one thread: on a 2-core machine OpenBLAS's default thread
count spent 1.6-1.9x the CPU time of one thread for no gain in wall time
and spread the timings widely.  The library itself is not changed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 9


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library() -> None:
    """Put this checkout's hilbfam first on the path, or exit 2."""
    if not (SRC / "hilbfam" / "__init__.py").is_file():
        _fail(f"no hilbfam sources at {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(HERE), str(SRC)]
    import hilbfam

    if Path(hilbfam.__file__).resolve().parent != SRC / "hilbfam":
        _fail(f"imported hilbfam from {hilbfam.__file__}, not from {SRC}")


def _parse(argv, workload_names) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and build the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def _setup_probes(args: argparse.Namespace) -> list[float]:
    """Times from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            _fail(f"set-up probe exited {code} after printing {line!r}")
    return times


class Ledger:
    """Per question: the first answer (kept for the checks), its time in
    every round, and how many rounds raised or answered differently."""

    def __init__(self, questions) -> None:
        self.questions = questions
        self.first: list = [None] * len(questions)
        self.first_fp: list = [None] * len(questions)
        self.raised = [0] * len(questions)
        self.differed = [0] * len(questions)
        self.times: list[list[float]] = [[] for _ in questions]
        self.cpu: list[float] = []

    @property
    def rounds(self) -> int:
        return len(self.cpu)

    def run_round(self) -> float:
        """Ask every question once; return the time spent inside the calls."""
        from oracle import fingerprint

        busy = 0.0
        cpu = process_time()
        for i, q in enumerate(self.questions):
            start = perf_counter()
            try:
                answer = q.ask()
            except Exception:
                self.raised[i] += 1
                print(f"question {q.label!r} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                took = perf_counter() - start
                busy += took
                self.times[i].append(took)
            fp = fingerprint(answer)
            if self.first_fp[i] is None:
                self.first[i], self.first_fp[i] = answer, fp
            elif fp != self.first_fp[i]:
                self.differed[i] += 1
            del answer
        self.cpu.append(process_time() - cpu)
        return busy

    def check(self) -> tuple[bool, int]:
        """Run the independent checks; return (all answers right, failed)."""
        from oracle import CheckError

        right, failed = True, 0
        for i, q in enumerate(self.questions):
            if self.first_fp[i] is None:
                failed += self.rounds
                continue
            try:
                q.check(self.first[i])
            except CheckError as exc:
                print(f"check failed for {q.label!r}: {exc}", file=sys.stderr)
                right = False
                failed += self.rounds
            else:
                failed += self.raised[i] + self.differed[i]
            right &= self.differed[i] == 0
        return right, failed


def _reset_between_rounds() -> None:
    """Give every round the same work: drop hilbfam's memo caches and garbage."""
    for name, mod in list(sys.modules.items()):
        if name == "hilbfam" or name.startswith("hilbfam."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


def _untraced(ledger: Ledger, seconds: float) -> tuple[list[float], float]:
    rounds: list[float] = []
    start = perf_counter()
    while not rounds or perf_counter() - start + rounds[-1] <= seconds:
        _reset_between_rounds()
        rounds.append(ledger.run_round())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, peak_mb


def _traced(ledger: Ledger, seconds: float) -> tuple[list[dict], list[float], list[float]]:
    """After one untraced warm-up round (a process's first round ran up to
    20% slower in trials), alternate traced and untraced rounds.  Returns each traced round's layer metrics and the traced and
    untraced round times."""
    from layertrace import Tracer

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_round: list[dict] = []
    start = perf_counter()
    _reset_between_rounds()
    ledger.run_round()
    while not traced or perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        _reset_between_rounds()
        tracer.reset()
        tracer.install()
        try:
            traced.append(ledger.run_round())
        finally:
            tracer.remove()
        per_round.append(tracer.round_metrics())
        _reset_between_rounds()
        plain.append(ledger.run_round())
    return per_round, traced, plain


def _layer_metrics(per_round: list[dict], traced: list[float], plain: list[float]) -> dict:
    """Median of each layer metric over traced rounds; counts must repeat."""
    from layertrace import COUNTS, METRICS

    for name in COUNTS:
        seen = {r[name] for r in per_round}
        if len(seen) != 1:
            print(f"warning: count {name} differs between traced rounds: {sorted(seen)}", file=sys.stderr)
    values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}


def main(argv=None) -> int:
    _import_library()
    import workloads

    args = _parse(argv, workloads.WORKLOADS)

    questions = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    ledger = Ledger(questions)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        per_round, traced, plain = _traced(ledger, args.seconds)
        metrics = _layer_metrics(per_round, traced, plain)
        record.update(traced_round_s=traced, untraced_round_s=plain, layers_per_round=per_round)
        print(f"{args.workload}: {len(traced)} traced and {len(plain)} untraced rounds after a warm-up; "
              f"median {statistics.median(traced):.3f} s traced, {statistics.median(plain):.3f} s untraced")
    else:
        probes = _setup_probes(args)
        rounds, peak_mb = _untraced(ledger, args.seconds)
        values = {"wall_s": statistics.median(rounds), "setup_s": statistics.median(probes),
                  "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record.update(setup_probe_s=probes, round_s=rounds)
        print(f"{args.workload}: {len(rounds)} rounds of {len(questions)} questions, "
              f"round times {', '.join(f'{r:.3f}' for r in rounds)} s")
    correct, failed = ledger.check()
    result = {"correct": correct, "attempted": ledger.rounds * len(questions), "failed": failed,
              "metrics": metrics}
    record.update(round_cpu_s=ledger.cpu,
                  questions={q.label: ts for q, ts in zip(questions, ledger.times)}, result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
