"""CI perf-regression gate over ``BENCH_<name>.json`` artifacts.

Compares the wall time of a freshly-measured run against a committed
baseline artifact and fails when the run regressed by more than the
allowed fraction::

    python tools/perf_gate.py BENCH_table1.json \\
        benchmarks/baselines/BENCH_table1.json --threshold 0.25

Exit codes: ``0`` within budget, ``1`` regression, ``2`` bad input.
The threshold can also be set via ``REPRO_PERF_THRESHOLD`` (the
command-line flag wins).  Two fields gate the build: ``wall_time_s``
against the threshold, and the deterministic ``metrics`` block (the
QoE summary of the simulated cells), which must equal the baseline's
exactly whenever both artifacts carry one — a one-ulp difference is a
changed simulation, not noise.  The other volatile fields (timestamp,
git_rev, host, ...) are informational.

``--telemetry-overhead MAX`` additionally gates the current
artifact's ``telemetry_overhead.frac`` field (written by
``tools/microbench.py``): the per-epoch health-rollup cost as a
fraction of one epoch's simulation work.  CI budgets it at 0.02 —
arming ``--telemetry`` must stay within 2% of epoch wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Any

#: Environment variable overriding the default regression threshold.
THRESHOLD_ENV = "REPRO_PERF_THRESHOLD"

#: Allowed fractional slowdown vs the baseline before CI fails.
DEFAULT_THRESHOLD = 0.25


class GateError(ValueError):
    """A BENCH artifact is missing or malformed."""


def load_bench(path: pathlib.Path) -> dict[str, Any]:
    """Load one BENCH artifact, validating the fields the gate needs."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise GateError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GateError(f"{path} is not valid JSON: {exc}") from exc
    wall = payload.get("wall_time_s")
    if not isinstance(wall, (int, float)) or wall < 0:
        raise GateError(f"{path} has no usable wall_time_s field")
    return payload


def evaluate(current: dict[str, Any], baseline: dict[str, Any],
             threshold: float) -> tuple[bool, str]:
    """Gate ``current`` against ``baseline``; returns (ok, summary).

    ``ok`` is False only for a wall-time regression beyond
    ``baseline * (1 + threshold)``.  A baseline wall time of zero
    (degenerate artifact) passes anything, since no meaningful ratio
    exists.
    """
    base_wall = float(baseline["wall_time_s"])
    cur_wall = float(current["wall_time_s"])
    budget = base_wall * (1.0 + threshold)
    name = current.get("name", "?")
    if base_wall <= 0.0:
        return True, (f"perf-gate [{name}]: baseline wall time is 0s; "
                      f"nothing to gate (current {cur_wall:.3f}s)")
    ratio = cur_wall / base_wall
    detail = (f"perf-gate [{name}]: current {cur_wall:.3f}s vs baseline "
              f"{base_wall:.3f}s ({ratio:.2f}x, budget "
              f"{budget:.3f}s = +{threshold:.0%})")
    if cur_wall > budget:
        return False, detail + " -- REGRESSION"
    return True, detail + " -- OK"


def evaluate_metrics(current: dict[str, Any],
                     baseline: dict[str, Any]) -> tuple[bool, str] | None:
    """Compare the deterministic ``metrics`` blocks exactly.

    Returns ``None`` when either artifact lacks the block, else
    ``(ok, summary)`` with every differing key listed.
    """
    cur = current.get("metrics")
    base = baseline.get("metrics")
    if cur is None or base is None:
        return None
    name = current.get("name", "?")
    if cur == base:
        return True, (f"perf-gate [{name}]: metrics identical to the "
                      f"baseline ({len(base)} keys) -- OK")
    diffs = [f"{key}: {cur.get(key)!r} != baseline {base.get(key)!r}"
             for key in sorted(set(cur) | set(base))
             if cur.get(key) != base.get(key)]
    return False, (f"perf-gate [{name}]: metrics differ from the "
                   f"baseline -- REGRESSION\n  " + "\n  ".join(diffs))


def evaluate_telemetry_overhead(current: dict[str, Any],
                                max_frac: float) -> tuple[bool, str]:
    """Gate the telemetry collection cost; returns (ok, summary)."""
    section = current.get("telemetry_overhead")
    if not isinstance(section, dict) or "frac" not in section:
        raise GateError(
            "artifact has no telemetry_overhead.frac section; "
            "run tools/microbench.py to produce one")
    frac = float(section["frac"])
    name = current.get("name", "?")
    detail = (f"perf-gate [{name}]: telemetry rollup costs {frac:.2%} "
              f"of one epoch (budget {max_frac:.0%})")
    if frac > max_frac:
        return False, detail + " -- REGRESSION"
    return True, detail + " -- OK"


def _resolve_threshold(flag: float | None) -> float:
    if flag is not None:
        return flag
    env = os.environ.get(THRESHOLD_ENV)
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise GateError(
                f"{THRESHOLD_ENV}={env!r} is not a number") from exc
    return DEFAULT_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_gate",
        description="Fail when a BENCH artifact's wall time regresses "
                    "past the committed baseline or its deterministic "
                    "metrics differ from it.")
    parser.add_argument("current", type=pathlib.Path,
                        help="BENCH_<name>.json from this run")
    parser.add_argument("baseline", type=pathlib.Path,
                        help="committed baseline BENCH_<name>.json")
    parser.add_argument("--threshold", type=float, default=None,
                        help=f"allowed fractional slowdown (default "
                             f"{DEFAULT_THRESHOLD}, env {THRESHOLD_ENV})")
    parser.add_argument("--telemetry-overhead", type=float, default=None,
                        metavar="MAX",
                        help="also require the artifact's "
                             "telemetry_overhead.frac to stay at or "
                             "below MAX (e.g. 0.02)")
    args = parser.parse_args(argv)
    try:
        threshold = _resolve_threshold(args.threshold)
        if threshold < 0:
            raise GateError(f"threshold must be >= 0, got {threshold}")
        current = load_bench(args.current)
        baseline = load_bench(args.baseline)
        ok, summary = evaluate(current, baseline, threshold)
        print(summary)
        metrics = evaluate_metrics(current, baseline)
        if metrics is not None:
            metrics_ok, metrics_summary = metrics
            print(metrics_summary)
            ok = ok and metrics_ok
        if args.telemetry_overhead is not None:
            tele_ok, tele_summary = evaluate_telemetry_overhead(
                current, args.telemetry_overhead)
            print(tele_summary)
            ok = ok and tele_ok
    except GateError as exc:
        print(f"perf-gate: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
