"""Benchmark of the FLARE reproduction: paper cells and the metro.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cell --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60

A run repeats *passes* of one workload (see ``workloads.py``) while
another pass fits in ``--seconds`` (the first pass always runs),
checks every pass's cell reports (see ``checks.py``) and prints a
table of metrics, then one JSON line::

    {"correct": true, "attempted": 81, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, medians over the passes;
``paper_cell``'s times are scaled to a reference host speed measured
between its scenarios (see ``hostspeed.py``), which steadies them
against the host's drift.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians over traced passes); the
layer spans are written to ``perfbench/out/``.  A traced pass must
reproduce the untraced pass's report digests and exact work counters.
``--workload all`` runs every workload, untraced and traced, each in a
fresh process.  ``--record`` stores the run's report digests as the
expected ones for its seed.

Metrics a workload does not exercise (the network, pool and shard
metrics of ``paper_cell``) read 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program is imported from this checkout's sources.
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("paper_cell", "metro_sharded")
#: Shard columns of the per-layer table (the sharded workload's count).
SHARDS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("ue_s_per_s", "UE-s/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qoe.bitrate_kbps", "kbps"),
    ("qoe.streamed_frac", "1"),
)

PER_LAYER = (
    ("kernel.self_s", "s"),
    ("network.working_points_s", "s"),
    ("network.handover_s", "s"),
    ("network.advance_s", "s"),
    ("network.epoch_s.p50", "s"),
    ("network.epoch_s.tail", "s"),
    ("network.epoch_s.samples", "count"),
    ("network.handovers", "count"),
    ("network.fast_cell_frac", "1"),
    *((f"pool.recv_wait_s.{i}", "s") for i in range(SHARDS)),
    ("pool.send_s", "s"),
    *((f"shard.busy_s.{i}", "s") for i in range(SHARDS)),
    ("shard.imbalance", "1"),
    ("shard.serial_frac", "1"),
    ("phy.prime_s", "s"),
    ("phy.prime_buckets", "count"),
    ("phy.position_at_calls", "count"),
    ("phy.position_at_s", "s"),
    ("phy.itbs_at_calls", "count"),
    ("core.bai_sweep_s", "s"),
    ("core.bai_sweep_calls", "count"),
    ("core.oneapi_s", "s"),
    ("core.solves", "count"),
    ("core.infeasible_frac", "1"),
    ("core.holds_per_solve", "1"),
    ("core.solve_s.p50", "s"),
    ("core.solve_s.tail", "s"),
    ("core.solve_s.samples", "count"),
    ("net.pcef_enforce_calls", "count"),
    ("net.pcef_enforce_s", "s"),
    ("has.playback_calls", "count"),
    ("has.playback_s", "s"),
    ("has.segments", "count"),
    ("has.rebuffer_ratio", "1"),
    ("metrics.sampler_calls", "count"),
    ("metrics.sampler_s", "s"),
    ("metrics.report_s", "s"),
    ("setup.build_s", "s"),
    ("setup.shard_init_s", "s"),
    ("trace.overhead_frac", "1"),
)


def tail(values: list[float]) -> float:
    """The highest sample with ten samples above it (the max below 11)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Checker:
    """Digest and invariant checks over the passes of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        stored = checks.load_stored(workload)
        self.expected = (stored["reports"]
                         if stored is not None and stored["seed"] == seed
                         else None)
        self.reference: dict[str, str] | None = None
        self.counters: dict[str, int] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result: workloads.PassResult, label: str) -> None:
        found = checks.digests(result.reports)
        if self.expected is not None:
            bad = checks.mismatched(found, self.expected)
            planned = len(self.expected)
        else:
            bad = checks.invariant_failures(result.reports, result.groups)
            planned = sum(len(labels) for labels, _ in result.groups)
        if self.reference is None:
            self.reference = found
            self.counters = dict(result.counters)
        else:
            bad |= checks.mismatched(found, self.reference)
            if result.counters != self.counters:
                self.problems.append(
                    f"{label}: work counters {result.counters} differ "
                    f"from the first pass's {self.counters}")
        if bad:
            self.problems.append(f"{label}: {len(bad)} reports fail the "
                                 f"output check: {sorted(bad)[:5]}")
        self.attempted += planned
        self.failed += len(bad)

    @property
    def correct(self) -> bool:
        return not self.problems


def end_to_end(passes: list[workloads.PassResult]) -> dict[str, float]:
    """End-to-end metrics of an untraced run.

    Times are medians over the passes: ``setup_s`` up to the first
    simulated step, ``ue_s_per_s`` simulated UE-seconds per wall second
    after it, ``cpu_s`` the pass's CPU time in this process and the
    shard workers it reaped.  A pass that took host-speed samples
    (``paper_cell``) reports them at the reference speed: wall times
    times its ``wall_factor``, CPU times times its ``cpu_factor`` (see
    ``hostspeed.py``).  ``peak_rss_mb`` is the largest peak
    resident set of this process or any worker.  The QoE metrics are
    deterministic and taken from the first pass: the mean average
    bitrate of clients that finished a segment, and the share of
    clients that did.
    """
    qoe = passes[0].qoe
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF,
                              resource.RUSAGE_CHILDREN))
    return {
        "setup_s": statistics.median(p.setup_s * p.speed.wall_factor
                                     for p in passes),
        "ue_s_per_s": statistics.median(
            p.ue_s / (p.timed_s * p.speed.wall_factor) for p in passes),
        "cpu_s": statistics.median(p.cpu_s * p.speed.cpu_factor
                                   for p in passes),
        "peak_rss_mb": peak_kb / 1024.0,
        "qoe.bitrate_kbps": _ratio(qoe["bitrate_kbps"], qoe["streamed"]),
        "qoe.streamed_frac": _ratio(qoe["streamed"], qoe["clients"]),
        # Printed, not reported: the scaling the times above carry.
        "host.cpu_factor": statistics.median(p.speed.cpu_factor
                                             for p in passes),
        "host.wall_factor": statistics.median(p.speed.wall_factor
                                              for p in passes),
    }


def _merge(dumps: list[dict[str, Any]]) -> tuple[dict[str, list[float]],
                                                  dict[str, float]]:
    stats: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for dump in dumps:
        for name, stat in dump["stats"].items():
            merged = stats.setdefault(name, [0, 0.0, 0.0, 0.0])
            for index, value in enumerate(stat):
                merged[index] += value
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return stats, counts


def layer_metrics(result: workloads.PassResult, parent: dict[str, Any],
                  workers: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all processes merged)."""
    stats, counts = _merge([parent, *workers])

    def own(name: str) -> float:
        return spans.self_s(stats, name)

    def n(name: str) -> int:
        return spans.calls(stats, name)

    epochs = [end - start for start, end, _ in parent["epochs"]]
    loop_s = sum(epochs)
    loop_wait = sum(wait for _, _, wait in parent["epochs"])
    busy = [sum(stat[3] for name, stat in dump["stats"].items()
                if not name.startswith("setup."))
            for dump in workers]
    counters = result.counters
    solves = counts.get("core.solves", 0)
    metrics = {
        "kernel.self_s": own("kernel"),
        "network.working_points_s": own("network.working_points"),
        "network.handover_s": own("network.handover"),
        "network.advance_s": own("network.advance"),
        "network.epoch_s.p50": statistics.median(epochs) if epochs else 0.0,
        "network.epoch_s.tail": tail(epochs) if epochs else 0.0,
        "network.epoch_s.samples": len(epochs),
        "network.handovers": counters.get("network.handovers", 0),
        "network.fast_cell_frac": _ratio(
            counters.get("network.kernel_cell_runs", 0),
            counters.get("network.cell_epochs", 0)),
        "pool.send_s": own("pool.send"),
        "shard.imbalance": (_ratio(max(busy), statistics.mean(busy))
                            if busy else 0.0),
        "shard.serial_frac": (_ratio(loop_s - loop_wait, loop_s)
                              if workers else 0.0),
        "phy.prime_s": own("phy.prime"),
        "phy.prime_buckets": counts.get("phy.prime_buckets", 0),
        "phy.position_at_calls": n("phy.position_at"),
        "phy.position_at_s": own("phy.position_at"),
        "phy.itbs_at_calls": n("phy.itbs_at"),
        "core.bai_sweep_s": own("core.bai_sweep"),
        "core.bai_sweep_calls": n("core.bai_sweep"),
        "core.oneapi_s": own("core.oneapi"),
        "core.solves": solves,
        "core.infeasible_frac": _ratio(counts.get("core.infeasible", 0),
                                       solves),
        "core.holds_per_solve": _ratio(counts.get("core.holds", 0), solves),
        "core.solve_s.p50": (statistics.median(result.solve_times)
                             if result.solve_times else 0.0),
        "core.solve_s.tail": (tail(result.solve_times)
                              if result.solve_times else 0.0),
        "core.solve_s.samples": counters.get("core.solve_s.samples", 0),
        "net.pcef_enforce_calls": n("net.pcef_enforce"),
        "net.pcef_enforce_s": own("net.pcef_enforce"),
        "has.playback_calls": n("has.playback"),
        "has.playback_s": own("has.playback"),
        "has.segments": counters.get("has.segments", 0),
        "has.rebuffer_ratio": _ratio(result.qoe["stalled_s"],
                                     result.qoe["client_s"]),
        "metrics.sampler_calls": n("metrics.sampler"),
        "metrics.sampler_s": own("metrics.sampler"),
        "metrics.report_s": own("metrics.report"),
        "setup.build_s": own("setup.build"),
        "setup.shard_init_s": own("setup.shard_init"),
    }
    for index in range(SHARDS):
        metrics[f"pool.recv_wait_s.{index}"] = own(
            f"{spans.RECV_PREFIX}{index}")
        metrics[f"shard.busy_s.{index}"] = (busy[index]
                                            if index < len(busy) else 0.0)
    return metrics


def _timed_pass(run: Any, seed: int,
                recorder: spans.SpanRecorder) -> tuple[Any, float]:
    started = time.perf_counter()
    result = run(seed, recorder)
    return result, time.perf_counter() - started - result.speed.wall_s


def measure(workload: str, seed: int, seconds: float, trace: bool,
            record: bool) -> tuple[Checker, dict[str, float]]:
    run = workloads.WORKLOADS[workload]
    checker: Checker | None = None
    recorder = spans.SpanRecorder()
    marks = spans.install_epoch_marks(recorder)
    passes: list[workloads.PassResult] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    last_dumps: dict[str, Any] = {}
    worker_dir = OUT_DIR / f"workers-{os.getpid()}"
    workloads.warm_up(workload, seed, recorder)
    gc.collect()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            round_started = time.perf_counter()
            result, wall = _timed_pass(run, seed, recorder)
            if checker is None:
                if record:
                    checks.store(workload, seed,
                                 checks.digests(result.reports))
                checker = Checker(workload, seed)
            checker.check(result, f"pass {len(passes) + 1}")
            result.reports = {}
            passes.append(result)
            untraced_walls.append(wall)
            if trace:
                worker_dir.mkdir(parents=True, exist_ok=True)
                recorder.reset()
                patches = spans.install(recorder, worker_dir)
                try:
                    traced, wall = _timed_pass(run, seed, recorder)
                finally:
                    patches.undo()
                checker.check(traced, f"traced pass {len(layers) + 1}")
                traced_walls.append(wall)
                workers = spans.load_worker_dumps(worker_dir)
                parent = recorder.dump()
                layers.append(layer_metrics(traced, parent, workers))
                last_dumps = {"parent": parent, "workers": workers}
                recorder.reset()
            del result
            gc.collect()
            # Start another round only if it can end by the deadline.
            now = time.perf_counter()
            if now + (now - round_started) > deadline:
                break
    finally:
        marks.undo()
        shutil.rmtree(worker_dir, ignore_errors=True)
    assert checker is not None
    if not trace:
        return checker, end_to_end(passes)
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls)
                                      - 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps(last_dumps))
    return checker, metrics


def print_table(title: str, metrics: dict[str, float],
                units: tuple[tuple[str, str], ...]) -> None:
    print(title)
    for name, unit in units:
        print(f"  {name:<28} {metrics[name]:>16.6g}  {unit}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float],
                units: tuple[tuple[str, str], ...]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    })


def run_one(args: argparse.Namespace) -> int:
    checker, metrics = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.record)
    units = PER_LAYER if args.trace else END_TO_END
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print_table(f"{args.workload} seed {args.seed}: {kind}", metrics, units)
    if not args.trace:
        print(f"  host-speed factors (1 = raw): cpu "
              f"{metrics['host.cpu_factor']:.6g}, wall "
              f"{metrics['host.wall_factor']:.6g}")
    print(f"  reports checked {checker.attempted}, failed {checker.failed}, "
          f"failed_frac {_ratio(checker.failed, checker.attempted):.6g}")
    for problem in checker.problems:
        print(f"  CHECK FAILED {problem}", file=sys.stderr)
    print(result_line(checker.correct, checker.attempted, checker.failed,
                      metrics, units))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    correct = True
    attempted = failed = 0
    combined: dict[str, dict[str, Any]] = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                combined[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's report digests as expected")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record and args.trace:
        parser.error("--record needs --trace 0")
    return args


if __name__ == "__main__":
    arguments = parse_args(sys.argv[1:])
    sys.exit(run_all(arguments) if arguments.workload == "all"
             else run_one(arguments))
