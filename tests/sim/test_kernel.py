"""Differential tests for the vectorized TTI kernel.

The kernel's contract is *byte-identical* serialized ``CellReport``s
against the pure-object path — not approximate agreement.  The matrix
here runs coordinated (FLARE, AVIS) and client-side (FESTIVE) schemes
across seeds against the object path with the invariant sanitizer
armed (an armed sanitizer sends a cell to the object path, so it
guards the reference leg); any drift in a mirrored quantity (TCP
windows, PF averages, RB trace, delivered totals) shows up as a
serialization diff.  Observer controllers (the metrics sampler) fire
inside the fast step without draining lazy state; their samples are
compared too.

Fast-forward boundary semantics (stride must stop exactly at
controller deadlines, player starts and the run end, and a refused or
zero-length stride must still make progress) get targeted scenarios,
and the per-TTI reference scheduler pins two properties: the kernel
refuses cells it cannot mirror, and the fluid path it accelerates
stays within the reference discipline's agreement envelope.
"""

import pytest

from repro import check as chk
from repro.core.controller import FlareSystem
from repro.has.mpd import TESTBED_LADDER, MediaPresentation
from repro.has.player import PlayerConfig
from repro.abr.festive import Festive
from repro.mac.tti_reference import TtiReferenceScheduler
from repro.metrics.collector import MetricsSampler, collect_cell_report
from repro.metrics.serialize import dump_cell_report
from repro.net.flows import UserEquipment, reset_entity_ids
from repro.phy.channel import StaticItbsChannel
from repro.sim import Cell, CellConfig, kernel_mode
from repro.sim import kernel as kernel_mod
from repro.workload.scenarios import build_cell_scenario, \
    build_testbed_scenario


def _matrix_report(scheme: str, seed: int, kernel: bool,
                   dynamic: bool = False) -> str:
    with kernel_mode(kernel):
        scenario = build_testbed_scenario(scheme, seed=seed,
                                          dynamic=dynamic,
                                          duration_s=30.0)
        report = scenario.run()
    if kernel:
        assert scenario.cell._kernel.active, "the kernel declined the run"
    return dump_cell_report(report)


class TestDifferentialMatrix:
    """FLARE/FESTIVE/AVIS x seeds vs the sanitized object path."""

    @pytest.mark.parametrize("scheme", ["flare", "festive", "avis"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_byte_identical_reports(self, scheme, seed):
        fast = _matrix_report(scheme, seed, kernel=True)
        with chk.checked_run():
            slow = _matrix_report(scheme, seed, kernel=False)
        assert fast == slow

    def test_dynamic_channel_byte_identical(self):
        fast = _matrix_report("flare", 1, kernel=True, dynamic=True)
        with chk.checked_run():
            slow = _matrix_report("flare", 1, kernel=False, dynamic=True)
        assert fast == slow

    def test_armed_sanitizer_runs_the_object_path(self):
        with kernel_mode(True), chk.checked_run():
            scenario = build_testbed_scenario("flare", seed=1,
                                              duration_s=30.0)
            armed = dump_cell_report(scenario.run())
        assert not scenario.cell._kernel.active
        assert armed == _matrix_report("flare", 1, kernel=True)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: mobile FadingChannels are not a pure function of "
        "the query time (mobility and fading draw lazily from one per-UE "
        "RNG, and itbs_at caches the first query in each 0.5 s bucket), "
        "and the kernel queries idle slots only on controller steps "
        "while the object path queries every slot every step"))
    def test_mobile_cell_byte_identical(self):
        def report(kernel):
            with kernel_mode(kernel):
                return dump_cell_report(build_cell_scenario(
                    "flare", mobile=True, seed=1, num_video=8,
                    duration_s=60.0).run())

        assert report(True) == report(False)

    def test_mobile_cell_public_steps_match_object_path(self):
        # Public Cell.step() calls query every plain channel on every
        # step, the object path's schedule, so the mobile divergence
        # above does not arise for a cell stepped from outside.
        def report(kernel):
            with kernel_mode(kernel):
                scenario = build_cell_scenario(
                    "flare", mobile=True, seed=1, num_video=8,
                    duration_s=60.0)
                cell = scenario.cell
                while cell.now_s < scenario.duration_s - 1e-9:
                    cell.step()
            if kernel:
                assert cell._kernel.active
            return dump_cell_report(collect_cell_report(
                cell, scenario.sampler, scenario.duration_s))

        assert report(True) == report(False)


# ----------------------------------------------------------------------
# Observer controllers at observation boundaries
# ----------------------------------------------------------------------
def dense_static_cell(num_video: int = 40):
    """Many static-channel FESTIVE clients: the vector lane engages
    while their first segments download, and full buffers park
    players lazy later on."""
    reset_entity_ids()
    mpd = MediaPresentation(ladder=TESTBED_LADDER, segment_duration_s=4.0)
    cell = Cell(CellConfig(step_s=0.02))
    for i in range(num_video):
        ue = UserEquipment(StaticItbsChannel(5 + i % 8))
        cell.add_video_flow(ue, mpd, Festive(),
                            PlayerConfig(request_threshold_s=12.0))
    sampler = MetricsSampler(interval_s=1.0)
    cell.add_controller(sampler)
    return cell, sampler


def sampled(sampler):
    return {name: {fid: series.items()
                   for fid, series in sorted(table.items())}
            for name, table in (("throughput", sampler.throughput_bps),
                                ("buffer", sampler.buffer_s),
                                ("bitrate", sampler.bitrate_bps))}


class TestObserverBoundary:
    def test_sampler_firing_keeps_lazy_state_and_vector_lane(
            self, monkeypatch):
        seen = []
        original = MetricsSampler.on_interval

        def spying(sampler, now_s, cell):
            kernel = cell._kernel
            if kernel is not None:
                seen.append((kernel._vec_hot,
                             kernel._pl_mode.count(kernel_mod._PL_PLAY)))
            original(sampler, now_s, cell)

        # Patched on the class, the way span wrappers instrument it:
        # the sampler must still be recognised as an observer.
        monkeypatch.setattr(MetricsSampler, "on_interval", spying)
        with kernel_mode(True):
            cell, sampler = dense_static_cell()
            fast = run_report(cell, sampler, 60.0)
            fast_samples = sampled(sampler)
            fast_traces = [p.buffer_trace for p in cell.players.values()]
            assert cell._kernel.active
        assert len(seen) == 59
        # A draining boundary would record (False, 0) at every firing.
        assert any(vec_hot for vec_hot, _ in seen)
        assert any(parked for _, parked in seen)
        with kernel_mode(False):
            cell, sampler = dense_static_cell()
            slow = run_report(cell, sampler, 60.0)
            assert sampled(sampler) == fast_samples
            assert [p.buffer_trace
                    for p in cell.players.values()] == fast_traces
        assert fast == slow


# ----------------------------------------------------------------------
# Idle-TTI fast-forward boundaries
# ----------------------------------------------------------------------
def idle_start_cell(start_time_s: float, sampler_interval_s: float,
                    flare: bool = False):
    """One static-channel video client that starts in the future.

    Until ``start_time_s`` no flow is backlogged, so the kernel may
    stride — bounded by the sampler's deadlines (and FLARE's BAI
    controller when ``flare``).
    """
    reset_entity_ids()
    mpd = MediaPresentation(ladder=TESTBED_LADDER, segment_duration_s=4.0)
    cell = Cell(CellConfig(step_s=0.02))
    ue = UserEquipment(StaticItbsChannel(7))
    config = PlayerConfig(request_threshold_s=12.0,
                          start_time_s=start_time_s)
    if flare:
        system = FlareSystem(bai_s=2.0)
        system.install(cell)
        system.attach_client(cell, ue, mpd, config)
    else:
        cell.add_video_flow(ue, mpd, Festive(), config)
    sampler = MetricsSampler(interval_s=sampler_interval_s)
    cell.add_controller(sampler)
    return cell, sampler


def run_report(cell, sampler, duration_s):
    cell.run(duration_s)
    return dump_cell_report(collect_cell_report(cell, sampler,
                                                duration_s))


class TestFastForward:
    def _compare(self, start, interval, duration, flare=False):
        with kernel_mode(True):
            cell, sampler = idle_start_cell(start, interval, flare)
            fast = run_report(cell, sampler, duration)
            ff_steps = cell._kernel._ff_steps
        with kernel_mode(False):
            cell, sampler = idle_start_cell(start, interval, flare)
            slow = run_report(cell, sampler, duration)
        assert fast == slow
        return ff_steps

    def test_skips_idle_prefix(self):
        # 6 s idle gap, 1 s sampler: plenty of whole strides.
        assert self._compare(6.0, 1.0, 12.0) > 0

    def test_event_exactly_at_stride_edge(self):
        # The sampler's only deadline coincides with the player start:
        # the stride must stop there so the step covering both runs.
        assert self._compare(5.0, 5.0, 10.0) > 0

    def test_bai_edge(self):
        # FLARE's 2 s BAI controller bounds every stride; firings at
        # 2/4/... must happen at the same clock values as the object
        # loop's accumulated float time.
        assert self._compare(5.0, 1.0, 12.0, flare=True) > 0

    def test_zero_length_stride_makes_progress(self):
        # A deadline every single step leaves nothing to skip; the
        # kernel must fall through to normal stepping, not livelock.
        ff = self._compare(2.0, 0.02, 4.0)
        assert ff == 0

    def test_no_skip_when_flow_backlogged(self):
        # Starting at t=0 there is never an idle window.
        assert self._compare(0.0, 1.0, 8.0) == 0


# ----------------------------------------------------------------------
# Per-TTI reference scheduler
# ----------------------------------------------------------------------
def reference_cell(start: float = 0.0):
    reset_entity_ids()
    mpd = MediaPresentation(ladder=TESTBED_LADDER, segment_duration_s=4.0)
    cell = Cell(CellConfig(step_s=0.02),
                scheduler=TtiReferenceScheduler())
    ue = UserEquipment(StaticItbsChannel(7))
    cell.add_video_flow(ue, mpd, Festive(),
                        PlayerConfig(request_threshold_s=12.0,
                                     start_time_s=start))
    sampler = MetricsSampler(interval_s=1.0)
    cell.add_controller(sampler)
    return cell, sampler


class TestTtiReference:
    def test_kernel_refuses_reference_scheduler(self):
        # The reference discipline is not mirrorable; the cell must
        # fall back to the object path and still finish correctly.
        with kernel_mode(True):
            cell, sampler = reference_cell()
            fast = run_report(cell, sampler, 12.0)
            assert cell._kernel is not None
            assert cell._kernel._ff_steps == 0
        with kernel_mode(False):
            cell, sampler = reference_cell()
            slow = run_report(cell, sampler, 12.0)
        assert fast == slow

    def test_fluid_kernel_within_reference_envelope(self):
        # The kernel accelerates the fluid approximation; its total
        # delivery must stay inside the fluid-vs-reference agreement
        # the scheduler tests pin (10%).
        def total(scheduler):
            reset_entity_ids()
            mpd = MediaPresentation(ladder=TESTBED_LADDER,
                                    segment_duration_s=4.0)
            cell = Cell(CellConfig(step_s=0.02), scheduler=scheduler)
            ue = UserEquipment(StaticItbsChannel(7))
            cell.add_video_flow(ue, mpd, Festive(),
                                PlayerConfig(request_threshold_s=12.0))
            cell.run(20.0)
            return sum(f.total_delivered_bytes for f in cell._flows)

        with kernel_mode(True):
            fluid = total(None)
        with kernel_mode(False):
            reference = total(TtiReferenceScheduler())
        assert fluid == pytest.approx(reference, rel=0.1)
