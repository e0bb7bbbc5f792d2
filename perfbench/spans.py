"""Outside-in layer timing: wrap public functions of ``repro`` modules.

The traced run installs a wrapper around each function listed in
:data:`LAYERS`.  A wrapper opens a span on entry and closes it on exit;
the :class:`SpanRecorder` keeps, per span name, the call count, the
total span time and the *self* time (span time minus the time covered
by its wrapped children).  In one thread the children of a span are
disjoint intervals inside it, so the covered time is the sum of the
direct children's durations.

Nothing here subclasses a program type or arms the program's own
profiler, tracer or checker: those pin the TTI kernel to its reference
step.  ``MetroChannel.itbs_at`` is never wrapped, because the kernel
recognises primed metro channels by the identity of that function.

Shard workers are forked, so they inherit the installed wrappers and
the recorder.  The wrapper around the worker loop resets the inherited
recorder when the worker starts and writes its spans to a file when
the loop returns; forked workers exit without running ``atexit``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

#: Spans kept per name for the written-out span file.  Aggregates are
#: exact for every span; only the raw list is capped.
KEEP_PER_NAME = 500

#: Span names whose time is shard receive wait, parent side.
RECV_PREFIX = "pool.recv."


class SpanRecorder:
    """In-memory span stack with per-name call/total/self/root time.

    ``stats[name]`` is ``[calls, total_s, self_s, root_s]``; ``root_s``
    sums the spans opened with no enclosing span (a shard worker's busy
    time is the root time of the methods it serves).  ``counts`` holds
    exact counters added by result hooks.  ``spans`` keeps the first
    :data:`KEEP_PER_NAME` spans of each name as ``(id, name, start,
    end, parent_id)``, ``parent_id`` 0 for a root span.
    """

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        """Forget every span, counter and epoch mark."""
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._kept: dict[str, int] = {}
        self.stats: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        #: Per network epoch: (start, end, receive wait inside it).
        self.epochs: list[tuple[float, float, float]] = []
        self._epoch_open: tuple[float, float] | None = None

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        if parent is None:
            stat[3] += duration
        else:
            parent[3] += duration
        kept = self._kept.get(name, 0)
        if kept < KEEP_PER_NAME:
            self._kept[name] = kept + 1
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else 0))

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def recv_wait_s(self) -> float:
        """Receive wait recorded so far, over every shard."""
        return sum(stat[1] for name, stat in self.stats.items()
                   if name.startswith(RECV_PREFIX))

    def epoch_start(self) -> None:
        self._epoch_open = (self.clock(), self.recv_wait_s())

    def epoch_end(self) -> None:
        if self._epoch_open is None:
            return
        start, waited = self._epoch_open
        self.epochs.append((start, self.clock(),
                            self.recv_wait_s() - waited))
        self._epoch_open = None

    def dump(self) -> dict[str, Any]:
        return {"stats": self.stats, "counts": self.counts,
                "spans": self.spans, "epochs": self.epochs}


def self_s(stats: dict[str, list[float]], name: str) -> float:
    """Self time of the spans called ``name``."""
    stat = stats.get(name)
    return stat[2] if stat is not None else 0.0


def calls(stats: dict[str, list[float]], name: str) -> int:
    stat = stats.get(name)
    return int(stat[0]) if stat is not None else 0


# ----------------------------------------------------------------------
# What to wrap
# ----------------------------------------------------------------------
def _count_buckets(recorder: SpanRecorder, args: tuple[Any, ...],
                   result: Any) -> None:
    recorder.count("phy.prime_buckets", int(result))


def _count_solves(recorder: SpanRecorder, args: tuple[Any, ...],
                  result: Any) -> None:
    """Lifetime BAI counters of the reported cell's OneAPI server."""
    from repro.core.oneapi import OneApiServer

    cell = args[0]
    # The cell exposes its interval controllers only privately; this
    # reads them after the run, so nothing the simulation does changes.
    for controller, _due in cell._controllers:
        if isinstance(controller, OneApiServer):
            recorder.count("core.solves", controller.solve_count)
            recorder.count("core.infeasible", controller.infeasible_count)
            recorder.count("core.holds", controller.hold_count)


def _recv_name(args: tuple[Any, ...]) -> str:
    return f"{RECV_PREFIX}{args[1]}"


#: (module, attribute path, span name or args -> name, result hook).
#: Module-level functions are replaced in every loaded ``repro`` module
#: that imported them by name, so ``from x import f`` callers see the
#: wrapper too.
LAYERS: tuple[tuple[str, str, Any, Any], ...] = (
    ("repro.sim.kernel", "run_cells", "kernel", None),
    ("repro.sim.kernel", "TtiKernel.run", "kernel", None),
    ("repro.sim.cell", "Cell.run", "kernel", None),
    ("repro.sim.network", "Network.run", "network.run", None),
    ("repro.sim.network", "NetworkShard.__init__", "setup.shard_init",
     None),
    ("repro.sim.network", "NetworkShard.working_points",
     "network.working_points", None),
    ("repro.sim.network", "NetworkShard.advance", "network.advance",
     None),
    ("repro.sim.network", "NetworkShard.migrate_many", "network.handover",
     None),
    ("repro.sim.network", "NetworkShard.detach_many", "network.handover",
     None),
    ("repro.sim.network", "NetworkShard.attach_many", "network.handover",
     None),
    ("repro.sim.network", "NetworkShard.reports", "network.reports", None),
    ("repro.sim.network", "NetworkShard.handover_records",
     "network.reports", None),
    ("repro.sim.network", "prime_metro_channels", "phy.prime",
     _count_buckets),
    ("repro.phy.mobility", "RandomWaypointMobility.position_at",
     "phy.position_at", None),
    ("repro.phy.channel", "FadingChannel.itbs_at", "phy.itbs_at", None),
    ("repro.core.batch", "BatchBaiPlane.sweep", "core.bai_sweep", None),
    ("repro.core.oneapi", "OneApiServer.on_interval", "core.oneapi", None),
    ("repro.net.pcrf", "Pcef.enforce", "net.pcef_enforce", None),
    ("repro.has.player", "HasPlayer.advance_playback", "has.playback",
     None),
    ("repro.metrics.collector", "MetricsSampler.on_interval",
     "metrics.sampler", None),
    ("repro.metrics.collector", "collect_cell_report", "metrics.report",
     _count_solves),
    ("repro.workload.metro", "build_metro_plan", "setup.build", None),
    ("repro.workload.scenarios", "build_testbed_scenario", "setup.build",
     None),
    ("repro.workload.scenarios", "build_cell_scenario", "setup.build",
     None),
    ("repro.experiments.parallel", "ShardPool.send", "pool.send", None),
    ("repro.experiments.parallel", "ShardPool._receive", _recv_name, None),
)


def _traced(fn: Callable[..., Any], name: Any, recorder: SpanRecorder,
            hook: Any) -> Callable[..., Any]:
    enter = recorder.enter
    leave = recorder.exit
    if isinstance(name, str):
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if hook is not None:
                hook(recorder, args, result)
            return result
        return traced

    @functools.wraps(fn)
    def traced_named(*args: Any, **kwargs: Any) -> Any:
        enter(name(args))
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    return traced_named


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_function(self, original: Any, value: Any) -> None:
        """Rebind ``original`` wherever a ``repro`` module holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, held in list(vars(module).items()):
                if held is original:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install_epoch_marks(recorder: SpanRecorder) -> Patches:
    """Mark network epochs: handover apply starts one, exchange ends it.

    ``Network.run`` applies the boundary's handover directives first in
    every epoch and computes the next penalties last, so the interval
    between the two is the epoch's wall time in the parent.  These two
    wrapped calls per simulated epoch (tens per run) are the untraced
    run's only instrument: the first epoch's start ends ``setup_s``.
    """
    from repro.sim.network import Network

    apply = Network.__dict__["_apply_directives"]
    exchange = Network.__dict__["_exchange"]

    @functools.wraps(apply)
    def apply_directives(*args: Any, **kwargs: Any) -> Any:
        recorder.epoch_start()
        return apply(*args, **kwargs)

    @functools.wraps(exchange)
    def exchange_penalties(*args: Any, **kwargs: Any) -> Any:
        try:
            return exchange(*args, **kwargs)
        finally:
            recorder.epoch_end()

    patches = Patches()
    patches.set(Network, "_apply_directives", apply_directives)
    patches.set(Network, "_exchange", exchange_penalties)
    return patches


def install(recorder: SpanRecorder, worker_dir: Path) -> Patches:
    """Wrap every layer in :data:`LAYERS`; return the undo handle.

    Epoch marks are separate (:func:`install_epoch_marks`).  Shard
    workers forked while installed write their recorder to
    ``worker_dir/shard-<first cell>.json`` when their loop ends.
    """
    patches = Patches()
    for module_name, path, name, hook in LAYERS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            patches.set(owner, attr,
                        _traced(owner.__dict__[attr], name, recorder, hook))
        else:
            original = getattr(module, path)
            patches.replace_function(
                original, _traced(original, name, recorder, hook))

    parallel = importlib.import_module("repro.experiments.parallel")
    worker_loop = parallel._shard_worker

    @functools.wraps(worker_loop)
    def shard_worker(conn: Any, factory: Any, args: tuple[Any, ...],
                     *rest: Any) -> None:
        recorder.reset()
        try:
            worker_loop(conn, factory, args, *rest)
        finally:
            first_cell = min(args[1]) if len(args) > 1 and args[1] else 0
            path = worker_dir / f"shard-{first_cell:06d}.json"
            path.write_text(json.dumps(recorder.dump()))

    patches.set(parallel, "_shard_worker", shard_worker)
    return patches


def load_worker_dumps(worker_dir: Path) -> list[dict[str, Any]]:
    """Read and delete worker recorder files, in shard order."""
    dumps = []
    for path in sorted(worker_dir.glob("shard-*.json")):
        dumps.append(json.loads(path.read_text()))
        os.remove(path)
    return dumps
