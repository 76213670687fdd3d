"""Benchmark of the subelliptic engine, measured from outside through its public API.

    python3 perfbench/run.py --workload grid|pool|cli --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: instances run one after
another in this process (grid, pool) or as `python -m subelliptic`
subprocesses (cli), with the CLI defaults max_steps=16 and radical_cap=32.
A run repeats whole passes of the workload until S seconds have gone by, so
every run holds the same mix of instances.  Times are scaled to a reference
host speed sampled while each instance runs (see clock.py), because a small
shared host changes speed by up to 1.7 times from one second to the next.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one pass without span wrappers and the same pass with them (see spans.py),
whatever S is, and prints the per-layer metrics, the tracing overhead among
them; its counts repeat exactly for a given seed.  The last line of stdout is
one JSON object {correct, attempted, failed, metrics}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
try:  # importing the engine is part of the set-up that setup_s times
    from perfbench import spans, workloads
    from perfbench.clock import Clock
    from subelliptic import kohn
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the engine from {ROOT / 'src'}: {exc}")

WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("grid", "pool", "cli")
# cli runs at least this many passes, so that its two costliest commands
# always make more than the TAIL_BEYOND samples above the tail (workloads.py).
MIN_PASSES = {"grid": 1, "pool": 1, "cli": 8}
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
CLI_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples beyond the tail percentile


def engine_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def build_pass(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "grid":
        return workloads.grid_pass(rng)
    if workload == "pool":
        return workloads.pool_pass(rng)
    return workloads.cli_pass(rng, WORKDIR / f"cli-{seed}")


def spawn(argv: list[str]) -> None:
    """Run one subprocess that must succeed."""
    subprocess.run(argv, env=engine_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=CLI_TIMEOUT_S)


def spawn_seconds(argv: list[str], repeats: int) -> float:
    """Median scaled wall time of repeats fresh runs of argv."""
    with Clock(subprocesses=True) as clock:
        timings = [clock.time(spawn, argv)[0] for _ in range(repeats)]
    return statistics.median(clock.scale(*timing) for timing in timings)


def setup_seconds(workload: str, seed: int) -> float:
    """Start of a fresh interpreter, engine import and input build."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    return spawn_seconds(argv, SETUP_REPEATS)


# ---------------------------------------------------------------------------
# One instance


def run_kohn_case(case, recorder=None):
    """The KohnResult of one in-process instance, or the exception it raised.

    With a recorder the call runs inside a `bench.instance` span.
    """

    def call():
        return kohn.run_kohn(case.spec, max_steps=workloads.MAX_STEPS,
                             radical_cap=workloads.RADICAL_CAP)

    try:
        return call() if recorder is None else recorder.call("bench.instance", call)
    except Exception as exc:  # a crash is a wrong verdict, and the loop goes on
        return exc


def run_cli_case(case, spans_path=None):
    """The finished subprocess of one CLI instance, or its timeout.

    With spans_path the command runs under launch.py, which writes its spans there.
    """
    if spans_path is None:
        argv = [sys.executable, "-m", "subelliptic", *case.argv]
    else:
        argv = [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(spans_path),
                *case.argv]
    try:
        return subprocess.run(argv, env=engine_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        return exc


def check(case, outcome) -> list[str]:
    """Known-answer check of one instance, run outside the timed interval."""
    if isinstance(outcome, Exception):
        return [f"{case.label}: {outcome!r}"]
    if isinstance(case, workloads.CliCase):
        return [f"{case.label}: {p}" for p in case.check(outcome)]
    return workloads.check_kohn(case, outcome)


def default_runner(case):
    return run_cli_case(case) if isinstance(case, workloads.CliCase) else run_kohn_case(case)


# ---------------------------------------------------------------------------
# Runs


class Tally:
    """The instances run, their timings, and what went wrong."""

    def __init__(self) -> None:
        self.cases: list = []
        self.timings: list[tuple[float, float, float]] = []  # see Clock.time
        self.latencies: list[float] = []  # scaled, filled by finish
        self.problems: list[str] = []
        self.failed = 0

    def run_pass(self, cases, clock: Clock, runner=default_runner) -> None:
        for case in cases:
            timing, outcome = clock.time(runner, case)
            problems = check(case, outcome)
            self.cases.append(case)
            self.timings.append(timing)
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def finish(self, clock: Clock) -> float:
        """Scale every timing, once the clock has its last samples; their sum."""
        self.latencies = [clock.scale(*timing) for timing in self.timings]
        return sum(self.latencies)

    @property
    def raw(self) -> list[float]:
        return [raw for _, _, raw in self.timings]

    def median_by(self, key) -> dict:
        groups: dict = {}
        for case, latency in zip(self.cases, self.latencies):
            groups.setdefault(key(case), []).append(latency)
        return {k: statistics.median(v) for k, v in groups.items()}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_BEYOND samples beyond it.

    With fewer than 2*TAIL_BEYOND samples that rank would fall below the
    median, and the median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Whole passes until seconds of wall time have gone by; end-to-end metrics."""
    cases = build_pass(workload, seed)
    setup = setup_seconds(workload, seed)
    tally = Tally()
    start = time.perf_counter()
    passes = 0
    with Clock(subprocesses=workload == "cli") as clock:
        while passes < MIN_PASSES[workload] or time.perf_counter() - start < seconds:
            tally.run_pass(cases, clock)
            passes += 1
    tally.finish(clock)
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    tail_s, tail_pct = tail(tally.latencies)
    n = len(tally.latencies)
    print(f"{workload}: {n} instances in {passes} passes; tail is p{tail_pct:.1f}; "
          f"unscaled {n / sum(tally.raw):.4g}/s, p50 {1e3 * statistics.median(tally.raw):.4g} ms",
          file=sys.stderr)
    if workload != "pool":
        for label, latency in tally.median_by(lambda case: case.label).items():
            print(f"  {1e3 * latency:9.1f} ms  {label}", file=sys.stderr)
    return tally, {
        "instances_per_s": n / sum(tally.latencies),
        "latency_p50_ms": 1e3 * statistics.median(tally.latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "correct_ratio": (n - tally.failed) / n,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        "setup_s": setup,
    }


def measure_traced(workload: str, seed: int) -> tuple[Tally, dict]:
    """One pass untraced, then the same pass traced; per-layer metrics."""
    cases = build_pass(workload, seed)
    untraced, traced, totals = Tally(), Tally(), spans.Totals()
    with Clock(subprocesses=workload == "cli") as clock:
        # The untraced pass goes first, so that it runs without the span list
        # alive and the traced pass pays for its own bookkeeping.
        untraced.run_pass(cases, clock)
        if workload == "cli":
            span_dir = WORKDIR / f"spans-cli-{seed}"
            span_dir.mkdir(parents=True, exist_ok=True)
            paths = {id(case): span_dir / f"{i}.jsonl" for i, case in enumerate(cases)}
            traced.run_pass(cases, clock, lambda c: run_cli_case(c, paths[id(c)]))
            for path in paths.values():
                totals.add(spans.read_spans(path))
        else:
            recorder = spans.Recorder()
            with spans.traced(recorder):
                traced.run_pass(cases, clock, lambda c: run_kohn_case(c, recorder))
            recorder.write(WORKDIR / f"spans-{workload}-{seed}.jsonl")
            totals.add(recorder.spans)

    untraced_s, traced_s = untraced.finish(clock), traced.finish(clock)
    metrics = totals.layer_metrics()
    # A share of the traced pass's unscaled wall time, which the spans are part of.
    traced_wall = sum(end - start for start, end, _ in traced.timings)
    metrics["localideal.nf_mora.wall_share"] = metrics["localideal.nf_mora.self_s"] / traced_wall
    metrics["cli.startup_ms"] = 1e3 * spawn_seconds(
        [sys.executable, "-c", "import subelliptic.cli"], STARTUP_REPEATS)
    walls = untraced.median_by(lambda case: getattr(case, "subcommand", None))
    for sub in ("levi", "type", "effective", "check-hypo", "verify", "kohn", "compare"):
        metrics[f"cli.{sub}.wall_ms"] = 1e3 * walls.get(sub, 0.0)
    metrics["trace.traced_s"] = traced_s
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    untraced.latencies += traced.latencies
    untraced.failed += traced.failed
    untraced.problems += traced.problems
    return untraced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        build_pass(args.workload, args.seed)
        return 0

    WORKDIR.mkdir(exist_ok=True)
    # The speed samples (clock.py) must come from the CPU that does the work,
    # so this process and every subprocess it starts share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        tally, values = measure_traced(args.workload, args.seed)
    else:
        tally, values = measure(args.workload, args.seed, args.seconds)
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "per_layer" if args.trace else "end_to_end"]}
    for problem in tally.problems:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
