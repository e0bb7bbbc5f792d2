"""Differential and handover tests for the multi-cell Network.

The network's contract mirrors the TTI kernel's: the batched
(``shards=1``) and process-sharded (``shards>1``) execution modes must
produce **byte-identical** serialized ``CellReport``s to the per-step
lockstep reference — across schemes, seeds and with interference
coupling on, with the invariant sanitizer armed.  Handover semantics
get targeted tests: handovers land exactly on epoch boundaries, the
pickle round-trip preserves player state, streaming continues in the
target cell, and a stalled player recovers after handing over to a
healthy cell.
"""

import math
import os
import pickle
import signal

import numpy as np
import pytest

from repro import check as chk
from repro.abr.festive import Festive
from repro.core.batch import batch_bai_mode
from repro.core.plugin import FlarePlugin
from repro.experiments.parallel import ShardPoolError
from repro.has.mpd import TESTBED_LADDER, MediaPresentation
from repro.has.player import PlaybackState, PlayerConfig
from repro.mac.gbr import BearerQos
from repro.metrics.collector import MetricsSampler, collect_cell_report
from repro.metrics.serialize import dump_cell_report
from repro.net.flows import UserEquipment, reset_entity_ids
from repro.obs import prof
from repro.obs.telemetry import collecting
from repro.obs.tracer import tracing
from repro.phy.channel import StaticItbsChannel
from repro.sim import Cell, CellConfig
from repro.sim import kernel as kernel_mod
from repro.sim.engine import advance_cells_lockstep
from repro.sim.kernel import LaneSteps, TtiKernel, kernel_mode, run_cells
from repro.sim.network import (
    MetroChannel,
    Network,
    NetworkShard,
    WorkingPoints,
    prime_metro_channels,
)
from repro.workload.handover import HandoverManager
from repro.workload.metro import build_metro_plan
from repro.workload.multicell import build_multicell_scenario


def small_plan(scheme="flare", seed=0, coupling_db=0.0):
    """4 cells on a tight grid: guarantees handovers within ~30 s."""
    return build_metro_plan(num_cells=4, ues_per_cell=2, scheme=scheme,
                            seed=seed, isd_m=300.0,
                            coupling_db=coupling_db)


def run_reports(plan, duration_s, shards=1, lockstep=False):
    network = Network(plan)
    reports = network.run(duration_s, shards=shards, lockstep=lockstep)
    return network, {cell_id: dump_cell_report(report)
                     for cell_id, report in reports.items()}


class TestDifferentialMatrix:
    """lockstep == batched == sharded, byte for byte.

    The sanitizer guards the lockstep object-path reference; an armed
    checker would send the batched and sharded legs to the object path
    too, so they run unchecked and keep the TTI kernel in the loop.
    """

    @pytest.mark.parametrize("scheme,seed,coupling_db", [
        ("flare", 0, 0.0),
        ("flare", 0, 6.0),
        ("flare", 1, 6.0),
        ("festive", 0, 6.0),
    ])
    def test_three_modes_byte_identical(self, scheme, seed, coupling_db):
        plan = small_plan(scheme, seed, coupling_db)
        with chk.checked_run():
            with kernel_mode(False):
                ref_net, ref = run_reports(plan, 30.0, lockstep=True)
        bat_net, batched = run_reports(plan, 30.0, shards=1)
        shard_net, sharded = run_reports(plan, 30.0, shards=2)
        assert bat_net.kernel_cell_runs > 0
        assert ref == batched
        assert batched == sharded
        assert ref_net.records == bat_net.records == shard_net.records
        assert (ref_net.handover_count == bat_net.handover_count
                == shard_net.handover_count)

    def test_batched_bai_plane_off_is_byte_identical(self):
        """The batched controller plane vs the scalar controller path.

        The matrix above runs with the batched BAI plane engaged (the
        default); this leg disables it (`REPRO_BATCH_BAI=0`) in every
        execution mode and the reports must not move a byte — the
        plane is a pure mirror, exercised here across handover churn
        (column rebuilds) and sharded workers (env inheritance).
        """
        plan = small_plan(coupling_db=6.0)
        on_net, batched_on = run_reports(plan, 30.0, shards=1)
        with batch_bai_mode(False):
            with chk.checked_run(), kernel_mode(False):
                _, lockstep_off = run_reports(plan, 30.0, lockstep=True)
            off_net, batched_off = run_reports(plan, 30.0, shards=1)
            _, sharded_off = run_reports(plan, 30.0, shards=2)
        assert batched_on == batched_off
        assert batched_off == lockstep_off == sharded_off
        assert on_net.records == off_net.records
        assert on_net.handover_count == off_net.handover_count > 0

    def test_handovers_actually_happen(self):
        network, _ = run_reports(small_plan(coupling_db=6.0), 30.0)
        assert network.handover_count > 0
        assert len(network.records) == network.handover_count

    def test_interference_coupling_changes_results(self):
        _, quiet = run_reports(small_plan(coupling_db=0.0), 30.0)
        _, coupled = run_reports(small_plan(coupling_db=12.0), 30.0)
        assert quiet != coupled

    def test_lockstep_with_multiple_shards_rejected(self):
        network = Network(small_plan())
        with pytest.raises(ValueError):
            network.run(10.0, shards=2, lockstep=True)


class TestObservabilityParity:
    """Arming the telemetry plane never changes simulation results.

    Extends the differential matrix: every mode runs with telemetry,
    profiling and tracing armed at once, and the CellReports must stay
    byte-identical to the unarmed reference — collection only *reads*
    simulator state, in every execution mode.
    """

    def test_armed_runs_stay_byte_identical_across_modes(self, tmp_path):
        plan = small_plan(coupling_db=6.0)
        _, reference = run_reports(plan, 30.0)  # unarmed

        def armed(jsonl, **mode_kwargs):
            with prof.profiling() as profiler, \
                    collecting() as collector, \
                    tracing(jsonl=str(jsonl)):
                network, dumps = run_reports(plan, 30.0, **mode_kwargs)
            return network, dumps, collector.records, profiler

        with kernel_mode(False):
            _, lock, lock_tel, _ = armed(tmp_path / "lock.jsonl",
                                         lockstep=True)
        bat_net, bat, bat_tel, _ = armed(tmp_path / "bat.jsonl",
                                         shards=1)
        net, shard, shard_tel, profiler = armed(
            tmp_path / "shard.jsonl", shards=2)

        assert reference == lock == bat == shard
        # The rollup stream itself is mode-independent.
        assert lock_tel == bat_tel == shard_tel
        assert {record.cell for record in shard_tel} == {0, 1, 2, 3}
        assert shard_tel[-1].epoch == 14  # 30 s / 2 s epochs

        # Shard-side spans merged back: worker tracks exist in the
        # parent profiler, alongside the parent's pipeline spans.
        stats = profiler.snapshot()["stats"]
        assert any(path.startswith("sim.step") for path in stats)
        assert "net.advance/net.recv.usage" in stats
        assert {event["pid"]
                for event in profiler.chrome_events()} >= {1, 2}

        # Pipeline occupancy: sharded runs only.
        assert bat_net.pipeline == {}
        assert net.pipeline["shards"] == 2
        assert net.pipeline["epochs"] == 15
        assert len(net.pipeline["occupancy"]) == 2
        for frac, occ in zip(net.pipeline["recv_blocked_frac"],
                             net.pipeline["occupancy"]):
            assert 0.0 <= frac <= 1.0
            assert occ == pytest.approx(1.0 - frac)

        # Per-shard trace shards merged into one parent JSONL.
        merged = (tmp_path / "shard.jsonl").read_text(encoding="utf-8")
        assert '"task":1' in merged and '"task":2' in merged
        assert not list(tmp_path.glob("shard.jsonl.netshard*"))


class TestHandoverSemantics:
    def test_handovers_land_on_epoch_boundaries(self):
        plan = small_plan()
        network = Network(plan)
        network.run(30.0, shards=1)
        assert network.records
        for record in network.records:
            epochs = record.time_s / plan.exchange_s
            assert epochs == pytest.approx(round(epochs))
            assert 0.0 < record.time_s < 30.0

    def test_serving_map_tracks_last_record(self):
        network = Network(small_plan())
        network.run(30.0, shards=1)
        last = {}
        for record in network.records:  # sorted by time
            last[record.flow_id] = record.target_cell_id
        for flow_id, target in last.items():
            # metro plans use flow_id == ue_id
            assert network.serving_cell(flow_id) == target

    def test_blob_roundtrip_preserves_player_and_plugin(self):
        plan = small_plan()
        shard = NetworkShard(plan, list(range(plan.sites.num_cells)))
        shard.advance(4.0, {}, lockstep=False)
        source = next(cell_id for cell_id in shard.cell_ids
                      if shard.built(cell_id).players)
        target = next(cell_id for cell_id in shard.cell_ids
                      if cell_id != source)
        flow_id, player = next(iter(
            shard.built(source).players.items()))
        segments = len(player.log)
        buffer_s = player.buffer.level_s

        blob = shard.detach_blob(source, flow_id)
        thawed, plugin = pickle.loads(blob)
        # One pickle call: the shipped plugin IS the player's plugin.
        assert isinstance(plugin, FlarePlugin)
        assert thawed.abr.plugin is plugin

        shard.attach_blob(target, blob, source, 4.0)
        arrived = shard.built(target).players[flow_id]
        assert len(arrived.log) == segments
        assert arrived.buffer.level_s == pytest.approx(buffer_s)
        assert isinstance(arrived.flow.ue.channel, MetroChannel)
        assert arrived.flow.ue.channel.serving_cell == target
        assert flow_id in shard.built(target).cell.players
        assert flow_id not in shard.built(source).cell.players
        [record] = shard.handover_records()
        assert record.time_s == pytest.approx(4.0)
        assert (record.source_cell_id, record.target_cell_id) \
            == (source, target)

        # Streaming continues in the target cell.
        shard.advance(24.0, {}, lockstep=False)
        assert len(arrived.log) > segments

    def test_stalled_player_recovers_after_handover(self):
        scenario = build_multicell_scenario(
            num_cells=2, clients_per_cell=12, itbs_per_cell=[0, 24],
            duration_s=1.0, delta=1)
        cells = list(scenario.cells.values())
        advance_cells_lockstep(cells, 60.0)
        player = scenario.players[0][0]
        stalls_at_handover = player.stall_events
        assert stalls_at_handover > 0
        segments_at_handover = len(player.log)

        # The UE leaves the overloaded cell for the healthy one; its
        # channel improves with the move.
        player.flow.ue.channel = StaticItbsChannel(24)
        manager = HandoverManager()
        manager.migrate(
            player, scenario.cells[0],
            scenario.oneapi.system_for(scenario.cells[0]),
            scenario.cells[1],
            scenario.oneapi.system_for(scenario.cells[1]))
        advance_cells_lockstep(cells, 150.0)
        assert player.state in (PlaybackState.PLAYING,
                                PlaybackState.FINISHED)
        assert len(player.log) > segments_at_handover + 3
        # The healthy cell has headroom: at most one stall can still be
        # in flight from the handover instant itself.
        assert player.stall_events <= stalls_at_handover + 1


def dense_plan(seed=0, ues_per_cell=64):
    """2 cells loaded past the kernel's vector-lane entry threshold.

    Under load the number of *concurrently active* transfers is well
    below the resident count (players pace themselves on full
    buffers), so ``ues_per_cell`` must comfortably exceed ``_VEC_MIN``
    for the full-width masked numpy MAC phase to engage.
    """
    return build_metro_plan(num_cells=2, ues_per_cell=ues_per_cell,
                            seed=seed, isd_m=300.0, coupling_db=6.0)


class _GbrRetune:
    """A non-observer controller: retunes every other GBR bearer."""

    interval_s = 3.0

    def __init__(self):
        self.fired = 0

    def on_interval(self, now_s, cell):
        self.fired += 1
        for flow in cell.flows[::2]:
            cell.registry.update_gbr(
                flow.flow_id, 100_000.0 * (1 + self.fired % 3),
                time_s=now_s)


class _HookAt:
    """Registers a step hook when it first fires (object path after)."""

    interval_s = 1000.0

    def on_interval(self, now_s, cell):
        cell.add_step_hook(lambda end_s: None)


def lockstep_batch(permuted):
    """Six static-channel cells covering every lockstep-driver case.

    ``exhaust`` and ``fill`` are vector-hot on the same TTIs: the
    first's guarantees run the PRB budget dry mid-walk, the second
    keeps budget for multi-candidate PF waterfills.  ``cross`` streams
    a short video, so its active set drops below ``_VEC_EXIT``
    mid-epoch; ``idle`` starts late and fast-forwards; ``hooked``
    registers a step hook at t=5 s and finishes on the object path;
    ``tuned`` has a non-observer controller retuning GBRs every 3 s.
    With ``permuted`` the bearer priorities shuffle ``fill``'s GBR
    walk out of slot order and some slots carry no bearer; otherwise
    every slot has a bearer and every walk visits slots in order.
    """
    reset_entity_ids()
    endless = MediaPresentation(ladder=TESTBED_LADDER,
                                segment_duration_s=4.0)
    short = MediaPresentation(ladder=TESTBED_LADDER,
                              segment_duration_s=4.0,
                              total_duration_s=16.0)

    def build(videos, gbr_bps, mpd=endless, start_s=0.0, data=0,
              priorities=1):
        cell = Cell(CellConfig(step_s=0.02))
        for i in range(videos):
            ue = UserEquipment(StaticItbsChannel(5 + i % 8))
            cell.add_video_flow(ue, mpd, Festive(), PlayerConfig(
                request_threshold_s=12.0, start_time_s=start_s))
        for _ in range(data):
            cell.add_data_flow(UserEquipment(StaticItbsChannel(9)))
        for k, flow in enumerate(cell.flows):
            if gbr_bps and (flow.flow_id in cell.players or not permuted):
                cell.registry.deregister(flow.flow_id)
                cell.registry.register(flow.flow_id, BearerQos(
                    gbr_bps=gbr_bps, priority=k % priorities))
        sampler = MetricsSampler(interval_s=1.0)
        cell.add_controller(sampler)
        return cell, sampler

    cells = {
        "exhaust": build(40, 4_000_000.0),
        "fill": build(36, 150_000.0, data=2,
                      priorities=3 if permuted else 1),
        "cross": build(30, 0.0 if permuted else 100_000.0, mpd=short),
        "idle": build(4, 100_000.0, start_s=12.0),
        "hooked": build(30, 100_000.0),
        "tuned": build(36, 100_000.0),
    }
    cells["hooked"][0].add_controller(_HookAt(), first_fire_s=5.0)
    cells["tuned"][0].add_controller(_GbrRetune())
    return cells


def batch_outputs(cells, duration_s):
    """Per cell: (report, sampler series, buffer traces)."""
    out = {}
    for name, (cell, sampler) in cells.items():
        out[name] = (
            dump_cell_report(collect_cell_report(cell, sampler,
                                                 duration_s)),
            {table: {fid: series.items()
                     for fid, series in sorted(getattr(
                         sampler, table).items())}
             for table in ("throughput_bps", "buffer_s", "bitrate_bps")},
            [player.buffer_trace for player in cell.players.values()])
    return out


class TestVectorLane:
    """The numpy MAC lane == the scalar fast path == lockstep."""

    EPOCHS = (10.0, 20.0, 30.0)

    @pytest.mark.parametrize("permuted", [False, True])
    def test_stacked_sweep_matches_alone_and_lockstep(self, permuted,
                                                      monkeypatch):
        with kernel_mode(False):
            cells = lockstep_batch(permuted)
            for until in self.EPOCHS:
                advance_cells_lockstep([c for c, _ in cells.values()],
                                       until)
            reference = batch_outputs(cells, self.EPOCHS[-1])
        with kernel_mode(True):
            cells = lockstep_batch(permuted)
            for until in self.EPOCHS:
                for cell, _ in cells.values():
                    cell.run(until)
            alone = batch_outputs(cells, self.EPOCHS[-1])

        sweeps, chains, fills, exits = [], [], [], []
        in_sweep = [False]
        orig_sweep = kernel_mod._VecStack.sweep
        orig_chain = TtiKernel._gbr_chain
        orig_fill = kernel_mod._waterfill
        orig_flush = TtiKernel._vec_flush

        def spy_sweep(stack, kernels):
            sweeps.append([kernel._cell for kernel in kernels])
            in_sweep[0] = True
            try:
                return orig_sweep(stack, kernels)
            finally:
                in_sweep[0] = False

        def spy_chain(asks, remaining):
            result = orig_chain(asks, remaining)
            chains.append((len(asks), result[0]))
            return result

        def spy_fill(budget, caps, weights):
            if in_sweep[0]:
                fills.append(len(caps))
            return orig_fill(budget, caps, weights)

        def spy_flush(kernel):
            if kernel._vec_hot:
                exits.append((kernel._cell, kernel._cell.now_s))
            return orig_flush(kernel)

        monkeypatch.setattr(kernel_mod._VecStack, "sweep", spy_sweep)
        monkeypatch.setattr(TtiKernel, "_gbr_chain",
                            staticmethod(spy_chain))
        monkeypatch.setattr(kernel_mod, "_waterfill", spy_fill)
        monkeypatch.setattr(TtiKernel, "_vec_flush", spy_flush)
        with kernel_mode(True):
            cells = lockstep_batch(permuted)
            batch = [c for c, _ in cells.values()]
            lanes = LaneSteps()
            fast = [run_cells(batch, until, lanes)
                    for until in self.EPOCHS]
            stacked = batch_outputs(cells, self.EPOCHS[-1])
        monkeypatch.undo()

        assert stacked == alone
        assert stacked == reference
        # Every case the batch is meant to cover actually happened.
        hooked = cells["hooked"][0]
        assert fast == [5, 5, 5], "the hooked cell must decline"
        assert hooked._step_hooks
        assert cells["idle"][0]._kernel.fast_forwarded_steps > 0
        both = {cells["exhaust"][0], cells["fill"][0]}
        assert any(both <= set(group) for group in sweeps)
        assert max(len(group) for group in sweeps) >= 2
        assert any(cut < n for n, cut in chains), "no GBR exhaustion"
        assert any(n > 1 for n in fills), "no multi-candidate waterfill"
        cross = cells["cross"][0]
        assert any(cell is cross and now not in self.EPOCHS
                   for cell, now in exits), "no mid-epoch lane exit"
        tuned = cells["tuned"][0]
        assert tuned.registry.version > len(tuned.flows) * 2
        assert lanes.swept_cells == lanes.vector > lanes.sweeps > 0
        assert lanes.scalar > 0

    def test_lane_counts_exact_across_shards_and_repeats(self):
        plan = dense_plan(0)
        one, _ = run_reports(plan, 30.0, shards=1)
        again, _ = run_reports(plan, 30.0, shards=1)
        two, _ = run_reports(plan, 30.0, shards=2)
        assert one.lane_steps == again.lane_steps
        assert one.lane_steps.vector > 0 and one.lane_steps.scalar > 0
        assert ((one.lane_steps.vector, one.lane_steps.scalar)
                == (two.lane_steps.vector, two.lane_steps.scalar))
        # One shard sweeps both cells together; two shards sweep each
        # alone, so only the sweep counts differ.
        assert one.lane_steps.swept_cells == two.lane_steps.swept_cells
        assert one.lane_steps.sweeps < two.lane_steps.sweeps

    @pytest.mark.parametrize("seed,shards", [(0, 2), (3, 2)])
    def test_vec_scalar_lockstep_sharded_identical(self, seed, shards,
                                                   monkeypatch):
        # The sanitizer guards the lockstep reference only: an armed
        # CHECKER sends every cell to the object path, so the fast
        # paths under test must run unchecked to engage at all.
        plan = dense_plan(seed)
        with chk.checked_run():
            with kernel_mode(False):
                _, ref = run_reports(plan, 30.0, lockstep=True)
        # Scalar fast path: vector lane structurally disabled.
        monkeypatch.setattr(kernel_mod, "_VEC_DISABLED", True)
        _, scalar = run_reports(plan, 30.0, shards=1)
        monkeypatch.setattr(kernel_mod, "_VEC_DISABLED", False)
        # Vector lane, with a spy proving it actually engaged.
        engaged = []
        orig_gather = TtiKernel._vec_gather

        def spying_gather(kernel):
            engaged.append(True)
            return orig_gather(kernel)

        monkeypatch.setattr(TtiKernel, "_vec_gather", spying_gather)
        _, vec = run_reports(plan, 30.0, shards=1)
        assert engaged, "vector lane never engaged; raise ues_per_cell"
        _, sharded = run_reports(plan, 30.0, shards=shards)
        assert ref == scalar
        assert scalar == vec
        assert vec == sharded

    def test_perturbed_vec_lane_is_detected(self, monkeypatch):
        """The differential harness has teeth.

        A small relative error injected into a single vector-lane
        operand must break byte-identity against the scalar fast path
        (the ``REPRO_KERNEL_NO_VEC`` configuration).  If this
        comparison ever stops detecting the seeded divergence, the
        byte-identity suite is vacuous.
        """
        plan = dense_plan(0)
        monkeypatch.setattr(kernel_mod, "_VEC_DISABLED", True)
        _, scalar = run_reports(plan, 30.0, shards=1)
        monkeypatch.setattr(kernel_mod, "_VEC_DISABLED", False)

        engaged = []
        orig_sweep = kernel_mod._VecStack.sweep

        def perturbing_sweep(stack, kernels):
            engaged.append(True)
            # Skew the in-lane congestion windows by 0.1% per step: a
            # small relative error in one vector-lane operand, of the
            # kind a wrong dtype or a reordered reduction produces.
            for kernel in kernels:
                kernel._v_cwnd *= 1.0 + 1e-3
            return orig_sweep(stack, kernels)

        monkeypatch.setattr(kernel_mod._VecStack, "sweep",
                            perturbing_sweep)
        _, perturbed = run_reports(plan, 30.0, shards=1)
        assert engaged, "vector lane never engaged; raise ues_per_cell"
        assert perturbed != scalar

    def test_empty_cells_and_singleton_shards(self):
        # 2 UEs across a 4-cell grid: some cells start empty, and with
        # shards=4 every shard owns exactly one cell (some with no
        # players at all).  All three modes must still agree.
        plan = build_metro_plan(num_cells=4, ues_per_cell=1, seed=0,
                                isd_m=300.0, coupling_db=6.0, total_ues=2)
        assert len({ue.cell_id for ue in plan.ues}) < 4
        with chk.checked_run():
            with kernel_mode(False):
                _, ref = run_reports(plan, 30.0, lockstep=True)
            _, batched = run_reports(plan, 30.0, shards=1)
            _, sharded = run_reports(plan, 30.0, shards=4)
        assert ref == batched
        assert batched == sharded


class TestShardFailure:
    def test_killed_worker_error_names_shard_and_epoch(self, monkeypatch):
        # Shard 1's worker SIGKILLs itself when asked to run epoch 2
        # (4 s -> 6 s).  Workers are forked after the patch, so they
        # inherit it; the parent must say which shard died, how, what
        # it was waiting for, and in which epoch.
        original = NetworkShard.advance

        def advance(shard, epoch_end_s, penalties, lockstep=False):
            if 3 in shard.cell_ids and epoch_end_s > 5.0:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(shard, epoch_end_s, penalties, lockstep)

        monkeypatch.setattr(NetworkShard, "advance", advance)
        with pytest.raises(
                ShardPoolError,
                match=r"shard 1 worker died \(exitcode -9\) with "
                      r"'advance' pending: .* \[epoch 2, ending at "
                      r"t=6 s\]"):
            Network(small_plan()).run(10.0, shards=2)


class TestChannelPriming:
    """prime_metro_channels == the per-UE scalar iTbs chain, per bucket."""

    @pytest.mark.parametrize("seed", [0, 2])
    def test_primed_tables_match_scalar_chain(self, seed):
        plan = build_metro_plan(num_cells=4, ues_per_cell=3, seed=seed,
                                isd_m=300.0, coupling_db=6.0)
        shard = NetworkShard(plan, list(range(plan.sites.num_cells)))
        channels = shard._metro_channels()
        assert channels
        step_s = shard.built(shard.cell_ids[0]).cell.config.step_s
        epoch_end = plan.exchange_s
        primed = prime_metro_channels(channels, 0.0, epoch_end, step_s)
        assert primed > 0
        for channel in channels:
            table = list(channel._primed_itbs)
            first = channel._primed_first_bucket
            assert len(table) == primed
            # Drop the table (fading samples stay materialised) and
            # replay the TTI grid the way the cells' clocks do —
            # repeated float addition — evaluating the scalar chain at
            # the first grid time inside each fading bucket, exactly
            # where the primed table claims to have been evaluated.
            channel._primed_itbs = None
            period = channel.fading_period_s
            scalar = {}
            now = 0.0
            while now < epoch_end - 1e-9:
                bucket = math.floor(now / period)
                if bucket not in scalar:
                    scalar[bucket] = channel.itbs_at(now)
                now += step_s
            assert table == [scalar[first + k] for k in range(primed)]

    def test_handover_drops_primed_table(self):
        plan = small_plan()
        shard = NetworkShard(plan, list(range(plan.sites.num_cells)))
        channels = shard._metro_channels()
        step_s = shard.built(shard.cell_ids[0]).cell.config.step_s
        prime_metro_channels(channels, 0.0, plan.exchange_s, step_s)
        channel = channels[0]
        assert channel.primed_itbs(channel._primed_first_bucket) is not None
        target = next(c for c in range(plan.sites.num_cells)
                      if c != channel.serving_cell)
        channel.handover(target)
        assert channel.primed_itbs(channel._primed_first_bucket) is None


class TestWorkingPointsBlob:
    """The pickle-free wire contract for shard boundary reports."""

    @staticmethod
    def _points():
        return WorkingPoints(
            ue_ids=np.array([11, 7, 3], dtype=np.int64),
            serving=np.array([0, 1, 1], dtype=np.int64),
            best=np.array([0, 1, 2], dtype=np.int64),
            serving_loss_db=np.array([91.5, 88.25, 104.0]),
            best_loss_db=np.array([91.5, 88.25, 96.125]),
        )

    def test_blob_round_trip(self):
        points = self._points()
        thawed = WorkingPoints.from_blob(points.to_blob())
        for name in WorkingPoints._COLUMNS:
            np.testing.assert_array_equal(getattr(thawed, name),
                                          getattr(points, name))

    def test_blob_layout_is_fixed(self):
        points = self._points()
        blob = points.to_blob()
        # count header + 3 int64 columns + 2 float64 columns.
        assert len(blob) == 8 + 3 * (3 * 8) + 2 * (3 * 8)
        assert blob[:8] == (3).to_bytes(8, "little")
        # Byte-identical serialization is the whole point.
        assert blob == self._points().to_blob()

    def test_pickle_delegates_to_blob(self):
        points = self._points()
        thawed = pickle.loads(pickle.dumps(points))
        for name in WorkingPoints._COLUMNS:
            np.testing.assert_array_equal(getattr(thawed, name),
                                          getattr(points, name))
        # The pickle payload embeds the blob, not per-array pickles.
        assert points.to_blob() in pickle.dumps(points)

    def test_empty_points(self):
        empty = WorkingPoints(
            ue_ids=np.array([], dtype=np.int64),
            serving=np.array([], dtype=np.int64),
            best=np.array([], dtype=np.int64),
            serving_loss_db=np.array([]),
            best_loss_db=np.array([]),
        )
        thawed = WorkingPoints.from_blob(empty.to_blob())
        assert thawed.ue_ids.shape == (0,)
