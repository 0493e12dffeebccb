#!/usr/bin/env python3
"""Benchmark of the normlds CLI: seeded batches of reports, checked independently.

    python3 perfbench/run.py --workload lds-sequences --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; normlds is imported from its `src`. Each run
sets up (imports normlds and builds the seeded inputs) several times, then
runs whole rounds of the batch until --seconds have passed, then one more
round whose reports are checked against independent computations. Every
report is one operation, and every round must repeat the output of the first
byte for byte. With --trace 0 the last line holds the end-to-end metrics,
with --trace 1 the per-layer ones, taken from traced rounds that alternate
with untraced ones. --smoke runs a tiny size of every workload in both modes
and checks the printed metric names and units against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import algebra, checks, hostspeed, inputs, tracer  # noqa: E402

SETUP_REPEATS = 11
SMOKE_DEPTH = 0.02


class SetupError(Exception):
    """normlds cannot be imported from this checkout."""


def import_normlds():
    """A fresh import of normlds.cli from this checkout's src."""
    for name in [m for m in sys.modules if m == "normlds" or m.startswith("normlds.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("normlds.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import normlds from {SRC}: {exc}") from exc
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"normlds was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, depth: float, clock: hostspeed.HostClock):
    """Median of SETUP_REPEATS timings of importing normlds and building the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        clock.refresh(force=True)
        start = time.perf_counter()
        cli = import_normlds()
        jobs = inputs.build(workload, seed, depth)
        times.append((time.perf_counter() - start) * clock.factor)
    return cli, jobs, statistics.median(times)


def run_report(cli, argv: list[str], trace: tracer.Tracer | None):
    """(exit code or None on a crash, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        close = trace.root() if trace else None
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            rc = None
        finally:
            elapsed = time.perf_counter() - start
            if close:
                close()
    return rc, out.getvalue(), err.getvalue(), elapsed


class Ledger:
    """Outcome of every operation.

    Every round must repeat the exit code and output of the first one. The
    check round, after the timed rounds, also checks each report's content.
    """

    def __init__(self, jobs: list[inputs.Job]) -> None:
        self.jobs = jobs
        self.reference: list[tuple[int | None, bytes] | None] = [None] * len(jobs)
        self.changed = [0] * len(jobs)  # rounds whose output differed from the first
        self.bad = [False] * len(jobs)  # failed the check round
        self.deferred: list[tuple[int, checks.Deferred]] = []
        self.attempted = 0
        self.wrong = False

    def _say(self, i: int, why: str) -> None:
        print(f"failed: {' '.join(self.jobs[i].argv)}: {why}", file=sys.stderr)

    def _fail(self, i: int, why: str, wrong: bool) -> None:
        if not self.bad[i]:
            self._say(i, why)
        self.bad[i] = True
        self.wrong = self.wrong or wrong

    def record(self, i: int, rc: int | None, data: bytes) -> None:
        self.attempted += 1
        outcome = (rc, hashlib.sha256(data).digest())
        if self.reference[i] is None:
            self.reference[i] = outcome
        elif self.reference[i] != outcome:
            if not self.changed[i]:
                self._say(i, "output changed between rounds")
            self.changed[i] += 1

    def check(self, i: int, rc: int | None, text: str, err: str) -> None:
        self.record(i, rc, text.encode())
        job = self.jobs[i]
        if rc != checks.expected_rc(job):
            self._fail(i, f"exit code {rc}, expected {checks.expected_rc(job)}: {err.strip()[-300:]}", False)
            return
        try:
            self.deferred.extend((i, d) for d in checks.check(job, text))
        except checks.Mismatch as exc:
            self._fail(i, str(exc), True)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self._fail(i, f"malformed report: {exc!r}", True)

    def finish(self, rounds: int) -> tuple[bool, int]:
        """Run the sympy checks; returns (correct, failed) over `rounds` rounds."""
        import sympy

        for i, deferred in self.deferred:
            if not self.bad[i]:
                try:
                    deferred(sympy)
                except checks.Mismatch as exc:
                    self._fail(i, str(exc), True)
        failed = sum(rounds if bad else changed for bad, changed in zip(self.bad, self.changed))
        return not self.wrong, failed


def run_rounds(cli, jobs, seconds: float, trace: bool, ledger: Ledger, clock: hostspeed.HostClock):
    """Timed whole rounds until `seconds` have passed.

    With `trace`, rounds alternate untraced and traced, in pairs. Times are
    scaled to the reference host speed. Returns the number of rounds, per-job
    times of untraced and traced rounds, and per traced round the layer
    calls, self times, report bytes and the largest generated term's digit
    count.
    """
    plain = [[] for _ in jobs]
    traced = [[] for _ in jobs]
    layers: list[tuple] = []
    tr = tracer.Tracer() if trace else None
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and rounds % 2 == 1
        gc.collect()
        if tracing:
            tr.install()
        report_bytes = 0
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        try:
            for i, job in enumerate(jobs):
                clock.refresh()
                rc, text, _, elapsed = run_report(cli, job.argv, tr if tracing else None)
                (traced if tracing else plain)[i].append(elapsed * clock.factor)
                if tracing:
                    report_calls, report_self = tr.collect()
                    calls.update(report_calls)
                    for name, value in report_self.items():
                        self_s[name] += value * clock.factor
                data = text.encode()
                del text
                report_bytes += len(data)
                ledger.record(i, rc, data)
                del data
        finally:
            if tracing:
                tr.uninstall()
        if tracing:
            max_digits = algebra.digits(max(abs(x) for rep in tr.generated for row in rep.terms
                                            for x in row)) if tr.generated else 0
            tr.generated.clear()
            layers.append((calls, self_s, report_bytes, max_digits))
        rounds += 1
        if time.perf_counter() >= deadline and (not trace or rounds % 2 == 0):
            return rounds, plain, traced, layers


def check_round(cli, jobs, ledger: Ledger) -> None:
    """One more untimed round whose reports are checked in full."""
    for i, job in enumerate(jobs):
        rc, text, err, _ = run_report(cli, job.argv, None)
        ledger.check(i, rc, text, err)


def batch_seconds(per_job: list[list[float]]) -> float:
    """Batch wall time: the sum over reports of each report's median over rounds."""
    return sum(statistics.median(times) for times in per_job)


def end_to_end(setup_s: float, plain, peak_rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "batch_s": (batch_seconds(plain), "s"),
        "report_s.p50": (statistics.median(t for times in plain for t in times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer(plain, traced, layers, probes: list[float]) -> dict:
    metrics = {}
    first_calls = layers[0][0]
    if any(calls != first_calls for calls, *_ in layers):
        print("warning: layer call counts differ between traced rounds", file=sys.stderr)
    for name in list(tracer.TARGETS) + [tracer.ROOT]:
        if name != tracer.ROOT:
            metrics[f"{name}.calls"] = (first_calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(s.get(name, 0.0) for _, s, _, _ in layers), "s")
    metrics["coordseq.generate.max_digits"] = (layers[0][3], "digits")
    metrics["cli.report_bytes"] = (layers[0][2], "bytes")
    metrics["trace.overhead_s"] = (batch_seconds(traced) - batch_seconds(plain), "s")
    metrics["host.probe_s"] = (statistics.median(probes), "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, depth: float = 1.0) -> dict:
    clock = hostspeed.HostClock()
    cli, jobs, setup_s = set_up(workload, seed, depth, clock)
    ledger = Ledger(jobs)
    gc.collect()
    rounds, plain, traced, layers = run_rounds(cli, jobs, seconds, trace, ledger, clock)
    # peak RSS of set-up and the timed rounds, before the checks allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_round(cli, jobs, ledger)
    correct, failed = ledger.finish(rounds + 1)
    if trace:
        metrics = per_layer(plain, traced, layers, clock.probes)
    else:
        metrics = end_to_end(setup_s, plain, peak_rss_mb)
    return {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Tiny size of every workload in both modes; names and units must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in spec["workloads"]:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run(workload["name"], 0, 0.0, trace, SMOKE_DEPTH)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            good = got == want and result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"{workload['name']} trace={int(trace)}: {'ok' if good else 'MISMATCH'}"
                  f" ({result['attempted']} reports, {result['failed']} failed)")
            if got != want:
                print(f"  names or units differ: {sorted(set(got.items()) ^ set(want.items()))}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
