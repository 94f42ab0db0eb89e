"""The repo benchmark: committed transactions per CPU-second, by workload.

Run from the repository root (pure Python, nothing to build)::

    python3 perfbench/run.py --workload geo_uniform --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each run generates its workload's inputs from ``--seed``, replays them in
fresh clusters ("rounds") until ``--seconds`` have passed, checks every
round's outcome, and prints a human-readable report followed, as the last
line, by one JSON object::

    {"correct": true, "attempted": 6428, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports per-layer self time and counts
(see ``layers.py``).  ``attempted`` counts submitted transactions and
``failed`` those left without a decision; aborts are protocol outcomes and
show in ``commit_share``.  ``--workload all`` runs every workload in its
own process and prints one combined JSON line.

The exit status is 0 only when every check passed; a checkout without
``src/repro`` exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Outcomes,
    Round,
    Verdict,
    Workload,
    generate_arrivals,
    nearest_rank,
)

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
WORKLOAD_TIMEOUT_S = 175.0

Metrics = Dict[str, Tuple[float, str]]


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_repro() -> Optional[str]:
    """Import ``repro`` from this checkout; return an error or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no {SRC / 'repro'} package; run from a repository checkout"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro from {SRC}: {exc}"
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


# ----------------------------------------------------------------------
# Set-up time: imports, cluster, sessions, fault plan, scheduled arrivals
# ----------------------------------------------------------------------
def setup_probe(workload: Workload, seed: int) -> float:
    """Seconds to import ``repro`` and build one round in this fresh process."""
    arrivals = generate_arrivals(workload, seed)
    start = time.perf_counter()
    error = _import_repro()
    if error is not None:
        raise SystemExit(_fail(error))
    Round(workload, seed, arrivals)
    return time.perf_counter() - start


def measure_setup(workload: Workload, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
class Tally:
    """Totals over the rounds of one run, and the first round's outcome."""

    def __init__(self) -> None:
        self.rounds = 0
        self.cpu_s = 0.0
        self.attempted = 0
        self.committed = 0
        self.undecided = 0
        self.first: Optional[Outcomes] = None
        self.verdict: Optional[Verdict] = None
        self.problems: List[str] = []

    def add(self, cpu_s: float, verdict: Verdict, outcomes: Outcomes) -> None:
        self.rounds += 1
        self.cpu_s += cpu_s
        self.attempted += outcomes.attempted
        self.committed += outcomes.committed
        self.undecided += verdict.undecided
        self.problems.extend(f"round {self.rounds}: {p}" for p in verdict.problems)
        if self.first is None:
            self.first, self.verdict = outcomes, verdict
        elif outcomes.digest != self.first.digest:
            self.problems.append(
                f"round {self.rounds}: digest {outcomes.digest} != {self.first.digest}"
            )


class Deadline:
    """Ends a run at the round boundary nearest to ``seconds`` after its
    start, taking the longest round so far as the length of the next one.
    The first round always runs."""

    def __init__(self, seconds: float) -> None:
        self.last = time.perf_counter()
        self.end = self.last + seconds
        self.longest = 0.0
        self.rounds = 0

    def reached(self) -> bool:
        now = time.perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        self.rounds += 1
        return self.rounds > 1 and now + self.longest / 2 >= self.end


def timed_round(rnd: Round) -> Tuple[float, float, Verdict]:
    """Run the timed phase; return (cpu seconds, wall seconds, verdict)."""
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    verdict = rnd.execute()
    return time.process_time() - cpu0, time.perf_counter() - wall0, verdict


def run_plain(workload: Workload, seed: int, seconds: float) -> Tuple[Tally, Metrics]:
    arrivals = generate_arrivals(workload, seed)
    tally = Tally()
    # Set-up probes are spread between the rounds so that they sample the
    # same host conditions as the timed phases.
    setup: List[float] = []
    deadline = Deadline(seconds)
    while not deadline.reached():
        if len(setup) < SETUP_PROBES:
            setup.append(measure_setup(workload, seed))
        rnd = Round(workload, seed, arrivals)
        cpu_s, _, verdict = timed_round(rnd)
        tally.add(cpu_s, verdict, rnd.outcomes())
        del rnd
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload, seed))
    first = tally.first
    p50, _ = nearest_rank(first.commit_latencies, 0.50)
    p99, _ = nearest_rank(first.commit_latencies, 0.99)
    r95, _ = nearest_rank(first.response_latencies, 0.95)
    metrics: Metrics = {
        "commits_per_cpu_s": (tally.committed / tally.cpu_s, "tx/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "commit_share": (first.committed / first.attempted, "ratio"),
        "sim_commit_p50_ms": (p50, "sim_ms"),
        "sim_commit_p99_ms": (p99, "sim_ms"),
        "sim_response_p95_ms": (r95, "sim_ms"),
    }
    return tally, metrics


def run_traced(workload: Workload, seed: int, seconds: float) -> Tuple[Tally, Metrics]:
    """Alternate untraced and traced rounds; attribute the traced ones."""
    arrivals = generate_arrivals(workload, seed)
    plain, spanned = Tally(), Tally()
    clock = layers.LayerClock()
    traced_wall = 0.0
    events = sent = dropped = 0
    deadline = Deadline(seconds)
    while not deadline.reached():
        rnd = Round(workload, seed, arrivals)
        cpu_s, _, verdict = timed_round(rnd)
        plain.add(cpu_s, verdict, rnd.outcomes())
        del rnd
        with layers.traced(clock):
            rnd = Round(workload, seed, arrivals)
            cpu_s, wall_s, verdict = timed_round(rnd)
        traced_wall += wall_s
        spanned.add(cpu_s, verdict, rnd.outcomes())
        events += rnd.cluster.sim.events_processed
        sent += rnd.cluster.network.messages_sent
        dropped += rnd.cluster.network.messages_dropped
        del rnd
    if spanned.first.digest != plain.first.digest:
        spanned.problems.append(
            f"traced digest {spanned.first.digest} != untraced {plain.first.digest}"
        )
    spanned.problems[:0] = plain.problems

    rounds = spanned.rounds
    commits = spanned.committed
    first = spanned.first
    metrics: Metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (clock.self_s[layer] / rounds, "s")
        metrics[f"{layer}.self_share"] = (clock.self_s[layer] / traced_wall, "ratio")
        metrics[f"{layer}.calls_per_commit"] = (clock.calls[layer] / commits, "calls/commit")
    entry = clock.entry_calls
    aborted = first.aborted
    metrics.update({
        "sim.events_per_commit": (events / commits, "events/commit"),
        "net.messages_per_commit": (sent / commits, "msgs/commit"),
        "net.drop_share": (dropped / sent, "ratio"),
        "storage.wal_appends_per_commit": (
            entry["WriteAheadLog.append"] / commits, "appends/commit"),
        "mdcc.progress_calls_per_commit": (
            entry["MdccCoordinator.progress"] / commits, "calls/commit"),
        "mdcc.late_abort_share": (
            (aborted.get("conflict", 0) + aborted.get("timeout", 0)) / first.attempted,
            "ratio"),
        "core.likelihood_evals_per_commit": (
            entry["CommitLikelihoodModel.likelihood"] / commits, "calls/commit"),
        "core.admission_reject_share": (
            aborted.get("admission", 0) / first.attempted, "ratio"),
        "core.wrong_guess_rate": (
            first.apologies / first.guesses if first.guesses else 0.0, "ratio"),
        "obs.history_ops_per_commit": (
            spanned.verdict.history_ops / first.committed, "ops/commit"),
        "trace.overhead": (spanned.cpu_s / plain.cpu_s, "ratio"),
    })
    return spanned, metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def src_line_counts() -> Dict[str, int]:
    counts = {"py": 0, "c": 0}
    for suffix in counts:
        for path in sorted(SRC.rglob(f"*.{suffix}")):
            with path.open("rb") as handle:
                counts[suffix] += sum(1 for _ in handle)
    return counts


def report(workload: Workload, seed: int, trace: bool, tally: Tally, metrics: Metrics) -> None:
    from repro import engine

    first, verdict = tally.first, tally.verdict
    meta = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "backend": "python",
        "engine": engine.describe(),
        "python": platform.python_version(),
        "src_lines": src_line_counts(),
        "rounds": tally.rounds,
        "timed_cpu_s": round(tally.cpu_s, 3),
    }
    print(f"== {workload.name} (seed {seed}, {'traced' if trace else 'untraced'})")
    print(f"   why: {workload.why}")
    print("meta " + json.dumps(meta, sort_keys=True))
    beyond50 = nearest_rank(first.commit_latencies, 0.50)[1]
    beyond99 = nearest_rank(first.commit_latencies, 0.99)[1]
    beyond95 = nearest_rank(first.response_latencies, 0.95)[1]
    print(
        f"   outcome digest {first.digest}: {first.attempted} arrivals, "
        f"{first.committed} committed, aborted {dict(sorted(first.aborted.items()))}, "
        f"{first.undecided} undecided"
    )
    print(
        f"   failed_share {first.failed / first.attempted:.4f}; guesses {first.guesses}, "
        f"apologies {first.apologies}; commit samples {len(first.commit_latencies)} "
        f"({beyond50} beyond p50, {beyond99} beyond p99), response samples "
        f"{len(first.response_latencies)} ({beyond95} beyond p95)"
    )
    if workload.faults:
        print(
            f"   checker: {verdict.history_ops} history ops, {verdict.violations} "
            f"violations, {verdict.witnesses} predicted witnesses"
        )
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"   {name:<{width}}  {value:>14.6g}  {unit}")
    for problem in tally.problems:
        print(f"   FAIL {problem}")


def result_line(tally: Tally, metrics: Metrics) -> Dict[str, object]:
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.undecided,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return _fail(f"{name} printed no result (exit {proc.returncode})")
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.setup_probe and args.workload != "all":
        print(repr(setup_probe(WORKLOADS[args.workload], args.seed)))
        return 0
    error = _import_repro()
    if error is not None:
        return _fail(error)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_plain
    tally, metrics = run(workload, args.seed, args.seconds)
    report(workload, args.seed, bool(args.trace), tally, metrics)
    print(json.dumps(result_line(tally, metrics)))
    return 0 if not tally.problems else 1


if __name__ == "__main__":
    sys.exit(main())
