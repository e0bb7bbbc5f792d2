"""The benchmark's workloads: one *pass* of each, built from a seed.

A pass builds its inputs, runs them to completion in this process
(``metro_sharded`` forks its two shard workers) and returns a
:class:`PassResult`: the timings, the serialized cell reports and the
exact work counters.

``paper_cell`` runs the host-speed reference kernel after each of its
27 scenario runs (see ``hostspeed.py``), so its times can be reported
at the reference speed.  ``metro_sharded`` is one multi-process run
that cannot be split; samples could only bracket it, which measured
noisier than its raw times, so it takes none and reports raw times.  Program functions are looked up through their
modules at call time, so the wrappers of the traced run see them.

Seed mapping: ``paper_cell`` runs seeds ``3n+1 .. 3n+3`` for benchmark
seed ``n``; ``metro_sharded`` uses seed ``n``.  Seed 0 therefore runs
the paper's seeds 1-3 and the metro's seed 0.

Each pass clears the program's always-on metrics registry first, as a
fresh process would start, so the solver histogram holds that pass's
solves only.
"""

from __future__ import annotations

import resource
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.metrics.serialize import dump_cell_report
from repro.obs.registry import REGISTRY
from repro.sim import network as sim_network
from repro.workload import metro as workload_metro
from repro.workload import scenarios

from hostspeed import HostSpeed
from spans import SpanRecorder

#: The metro workload: cells, UEs, simulated seconds, shard workers.
METRO_CELLS = 16
METRO_UES = 1_000
METRO_SECONDS = 120.0
METRO_SHARDS = 2


@dataclass
class PassResult:
    """One pass of a workload.

    Attributes:
        setup_s: workload start to the first simulated step/epoch.
        timed_s: wall time of the simulation itself.
        ue_s: simulated UE-seconds (UEs times simulated seconds).
        cpu_s: CPU seconds of this process and the workers it reaped.
        reports: report label -> ``dump_cell_report`` text.
        groups: (labels, flow ids planned for those reports): every
            planned flow must be reported exactly once in its group.
        qoe: client totals (see :func:`qoe_totals`).
        counters: exact work counts that must repeat run to run.
        solve_times: ``solver.*.solve_s`` samples of this pass.
        speed: host-speed samples taken during the pass; its time is
            not in ``setup_s``, ``timed_s`` or ``cpu_s``.
    """

    setup_s: float
    timed_s: float
    ue_s: float
    cpu_s: float
    reports: dict[str, str]
    groups: list[tuple[list[str], list[int]]]
    qoe: dict[str, float]
    counters: dict[str, int] = field(default_factory=dict)
    solve_times: list[float] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _solver_samples() -> tuple[int, list[float]]:
    """Solve count and retained solve-time samples since the last clear."""
    count = 0
    values: list[float] = []
    for name, state in REGISTRY.snapshot()["histograms"].items():
        if name.startswith("solver.") and name.endswith(".solve_s"):
            count += state["count"]
            values.extend(state["values"])
    return count, values


def qoe_totals(reports: list[tuple[Any, float]]) -> dict[str, float]:
    """Client totals over ``(CellReport, simulated seconds)`` pairs.

    ``bitrate_kbps`` sums the average bitrate of clients that finished
    at least one segment (a client without segments has no average).
    """
    totals = dict.fromkeys(("clients", "streamed", "bitrate_kbps",
                            "stalled_s", "client_s", "segments"), 0.0)
    for report, duration_s in reports:
        for client in report.clients:
            totals["clients"] += 1
            totals["client_s"] += duration_s
            totals["stalled_s"] += client.rebuffer_time_s
            totals["segments"] += client.segments_downloaded
            if client.segments_downloaded > 0:
                totals["streamed"] += 1
                totals["bitrate_kbps"] += client.average_bitrate_kbps
    return totals


# ----------------------------------------------------------------------
# paper_cell
# ----------------------------------------------------------------------
#: (label, builder name, builder keywords, schemes, simulated seconds).
PAPER_RUNS = (
    ("table1", "build_testbed_scenario", {"dynamic": False},
     ("festive", "google", "flare"), 600.0),
    ("table2", "build_testbed_scenario", {"dynamic": True},
     ("festive", "google", "flare"), 600.0),
    ("fig7", "build_cell_scenario", {"mobile": True},
     ("festive", "avis", "flare"), 240.0),
)


def paper_seeds(seed: int) -> list[int]:
    return [3 * seed + 1, 3 * seed + 2, 3 * seed + 3]


def paper_cell(seed: int, recorder: SpanRecorder) -> PassResult:
    """Table I, Table II and the Fig. 7 mobile cell, serial, uncached.

    A host-speed sample follows each scenario run.
    """
    REGISTRY.clear()
    speed = HostSpeed()
    cpu_before = _cpu_s()
    setup_s = timed_s = ue_s = 0.0
    texts: dict[str, str] = {}
    groups: list[tuple[list[str], list[int]]] = []
    finished: list[tuple[Any, float]] = []
    clock = time.perf_counter
    for label, builder_name, kwargs, schemes, duration_s in PAPER_RUNS:
        for scheme in schemes:
            for run_seed in paper_seeds(seed):
                key = f"{label}/{scheme}/{run_seed}"
                started = clock()
                scenario = getattr(scenarios, builder_name)(
                    scheme, seed=run_seed, duration_s=duration_s, **kwargs)
                built = clock()
                report = scenario.run()
                done = clock()
                setup_s += built - started
                timed_s += done - built
                flows = ([p.flow.flow_id for p in scenario.players]
                         + [f.flow_id for f in scenario.data_flows])
                ue_s += len(flows) * duration_s
                texts[key] = dump_cell_report(report)
                groups.append(([key], flows))
                finished.append((report, duration_s))
                speed.sample()
    solves, samples = _solver_samples()
    qoe = qoe_totals(finished)
    return PassResult(
        setup_s=setup_s, timed_s=timed_s, ue_s=ue_s,
        cpu_s=_cpu_s() - cpu_before - speed.cpu_s, reports=texts,
        groups=groups, qoe=qoe,
        counters={"has.segments": int(qoe["segments"]),
                  "core.solve_s.samples": solves},
        solve_times=samples, speed=speed)


# ----------------------------------------------------------------------
# metro_sharded
# ----------------------------------------------------------------------
def metro_sharded(seed: int, recorder: SpanRecorder) -> PassResult:
    """1,000 UEs, 16 cells, 120 simulated seconds, two shard workers."""
    REGISTRY.clear()
    cpu_before = _cpu_s()
    epochs_before = len(recorder.epochs)
    clock = time.perf_counter
    started = clock()
    plan = workload_metro.build_metro_plan(
        num_cells=METRO_CELLS, scheme="flare", seed=seed,
        total_ues=METRO_UES)
    network = sim_network.Network(plan)
    reports = network.run(METRO_SECONDS, shards=METRO_SHARDS)
    done = clock()
    epochs = recorder.epochs[epochs_before:]
    first_epoch = epochs[0][0]
    labels = [f"cell{cell_id:02d}" for cell_id in reports]
    texts = {label: dump_cell_report(report)
             for label, report in zip(labels, reports.values())}
    solves, samples = _solver_samples()
    qoe = qoe_totals([(report, METRO_SECONDS)
                      for report in reports.values()])
    return PassResult(
        setup_s=first_epoch - started, timed_s=done - first_epoch,
        ue_s=len(plan.ues) * METRO_SECONDS, cpu_s=_cpu_s() - cpu_before,
        reports=texts,
        groups=[(labels, [ue.flow_id for ue in plan.ues])],
        qoe=qoe,
        counters={
            "network.handovers": network.handover_count,
            "network.kernel_cell_runs": network.kernel_cell_runs,
            "network.cell_epochs": len(epochs) * plan.sites.num_cells,
            "has.segments": int(qoe["segments"]),
            "core.solve_s.samples": solves,
        },
        solve_times=samples)


def warm_up(workload: str, seed: int, recorder: SpanRecorder) -> None:
    """Untimed small run of the workload's code paths before a run.

    The first scenario build, network construction and worker fork of
    a process pay one-off import and allocation costs that later
    passes do not; this pays them outside the measured passes.
    """
    if workload == "paper_cell":
        for _ in range(3):
            HostSpeed().sample()
        for _label, builder_name, kwargs, schemes, _duration in PAPER_RUNS:
            getattr(scenarios, builder_name)(
                schemes[-1], seed=paper_seeds(seed)[0], duration_s=1.0,
                **kwargs).run()
        return
    plan = workload_metro.build_metro_plan(
        num_cells=METRO_CELLS, scheme="flare", seed=seed,
        total_ues=METRO_CELLS)
    sim_network.Network(plan).run(2.0, shards=METRO_SHARDS)
    recorder.reset()


WORKLOADS: dict[str, Callable[[int, SpanRecorder], PassResult]] = {
    "paper_cell": paper_cell,
    "metro_sharded": metro_sharded,
}
