"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import gc
import json
import math
import random
import re
from pathlib import Path

import hostspeed
import run
import spans
from checks import digest, digests, invariant_failures, mismatched

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, *times: float) -> None:
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


def test_self_time_subtracts_nested_and_sibling_children() -> None:
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 7].
    recorder = spans.SpanRecorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 7, 10))
    recorder.enter("outer")
    recorder.enter("a")
    recorder.enter("b")
    recorder.exit()
    recorder.exit()
    recorder.enter("b")
    recorder.exit()
    recorder.exit()
    stats = recorder.stats
    assert stats["outer"] == [1, 10.0, 5.0, 10.0]
    assert stats["a"] == [1, 3.0, 2.0, 0.0]
    assert stats["b"] == [2, 3.0, 3.0, 0.0]
    # Self times partition the root span.
    assert sum(stat[2] for stat in stats.values()) == 10.0
    parents = {span[1]: span[4] for span in recorder.spans if span[1] == "a"}
    outer_id = next(span[0] for span in recorder.spans if span[1] == "outer")
    assert parents["a"] == outer_id


def test_root_time_counts_only_unenclosed_spans() -> None:
    recorder = spans.SpanRecorder(clock=FakeClock(0, 2, 3, 4, 6, 8))
    recorder.enter("served")
    recorder.exit()
    recorder.enter("served")
    recorder.enter("served")
    recorder.exit()
    recorder.exit()
    assert recorder.stats["served"] == [3, 9.0, 7.0, 7.0]


def test_epoch_marks_carry_receive_wait() -> None:
    recorder = spans.SpanRecorder(clock=FakeClock(0, 1, 3, 5))
    recorder.epoch_start()
    recorder.enter(f"{spans.RECV_PREFIX}0")
    recorder.exit()
    recorder.epoch_end()
    assert recorder.epochs == [(0, 5, 2.0)]


def test_tail_leaves_ten_samples_above() -> None:
    values = [float(v) for v in range(100)]
    assert run.tail(values) == 89.0
    assert sum(v > run.tail(values) for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0]) == 3.0


def _report(flows: list[int], rebuffer: float = 0.0) -> str:
    clients = [{"flow_id": flow, "average_bitrate_bps": 1e6,
                "rebuffer_time_s": rebuffer, "startup_delay_s": None}
               for flow in flows]
    return json.dumps({"clients": clients, "data_throughput_bps": {},
                       "average_bitrate_kbps": 1000.0})


def test_digest_check_catches_one_byte_change() -> None:
    reports = {"cell00": _report([0, 1]), "cell01": _report([2])}
    stored = digests(reports)
    text = reports["cell01"]
    changed = dict(reports, cell01=text[:-2] + chr(ord(text[-2]) ^ 1)
                   + text[-1])
    assert mismatched(digests(reports), stored) == set()
    assert mismatched(digests(changed), stored) == {"cell01"}
    assert mismatched({"cell00": stored["cell00"]}, stored) == {"cell01"}
    assert mismatched(dict(stored, cell02="x"), stored) == {"cell02"}
    assert digest("a") != digest("b")


def test_invariants_flag_duplicates_strays_gaps_and_bad_numbers() -> None:
    group = (["cell00", "cell01"], [0, 1, 2])
    good = {"cell00": _report([0, 1]), "cell01": _report([2])}
    assert invariant_failures(good, [group]) == set()
    twice = {"cell00": _report([0, 1]), "cell01": _report([1, 2])}
    assert invariant_failures(twice, [group]) == {"cell00", "cell01"}
    stray = {"cell00": _report([0, 1]), "cell01": _report([2, 9])}
    assert invariant_failures(stray, [group]) == {"cell01"}
    gap = {"cell00": _report([0]), "cell01": _report([2])}
    assert invariant_failures(gap, [group]) == {"cell00", "cell01"}
    # A missing report leaves its flows unreported: the group fails.
    assert invariant_failures({"cell00": _report([0, 1])},
                              [group]) == {"cell00", "cell01"}
    for bad in (-1.0, math.nan, math.inf):
        broken = dict(good, cell01=_report([2], rebuffer=bad))
        assert invariant_failures(broken, [group]) == {"cell01"}


def test_metric_names_and_units_match_benchmark_json() -> None:
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64 and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}",
                                                unit), (name, unit)
    config = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in config["workloads"]] == list(
        run.WORKLOAD_NAMES)


def test_install_restores_every_attribute_and_spares_metro_itbs() -> None:
    from repro.experiments import parallel
    from repro.sim import kernel, network
    from repro.sim.network import MetroChannel, NetworkShard

    def current() -> tuple[object, ...]:
        return (kernel.run_cells, network.run_cells,
                NetworkShard.__dict__["advance"],
                parallel.ShardPool.__dict__["_receive"],
                parallel._shard_worker)

    before = current()
    recorder = spans.SpanRecorder()
    patches = spans.install(recorder, Path("."))
    try:
        assert network.run_cells is not before[1]
        assert kernel.run_cells is network.run_cells
        assert MetroChannel.KERNEL_PRIMED_ITBS is MetroChannel.itbs_at
    finally:
        patches.undo()
    assert current() == before


def test_host_speed_scales_to_reference_and_spares_program_state() -> None:
    speed = hostspeed.HostSpeed()
    assert speed.cpu_factor == speed.wall_factor == 1.0
    state = random.getstate()
    assert gc.isenabled()
    for _ in range(2):
        speed.sample()
    assert gc.isenabled()
    assert random.getstate() == state
    assert speed.samples == 2 and speed.cpu_s > 0 and speed.wall_s > 0
    assert math.isclose(speed.cpu_factor * speed.cpu_s,
                        2 * hostspeed.REFERENCE_S)
    assert math.isclose(speed.wall_factor * speed.wall_s,
                        2 * hostspeed.REFERENCE_S)
    assert (hostspeed.reference_kernel()
            == hostspeed.reference_kernel())
