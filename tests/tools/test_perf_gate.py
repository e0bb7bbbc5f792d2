"""Tests for the CI perf-regression gate."""

import json
import math

import pytest

from tools.perf_gate import (
    DEFAULT_THRESHOLD,
    GateError,
    evaluate,
    evaluate_metrics,
    evaluate_telemetry_overhead,
    load_bench,
    main,
)


def _artifact(tmp_path, name, wall, **extra):
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps({"name": name.split("@")[0],
                                "wall_time_s": wall, **extra}))
    return path


class TestEvaluate:
    def test_within_budget_passes(self):
        ok, summary = evaluate({"name": "t", "wall_time_s": 1.2},
                               {"wall_time_s": 1.0}, threshold=0.25)
        assert ok
        assert "OK" in summary

    def test_regression_fails(self):
        ok, summary = evaluate({"name": "t", "wall_time_s": 1.3},
                               {"wall_time_s": 1.0}, threshold=0.25)
        assert not ok
        assert "REGRESSION" in summary

    def test_exact_budget_boundary_passes(self):
        ok, _ = evaluate({"name": "t", "wall_time_s": 1.25},
                         {"wall_time_s": 1.0}, threshold=0.25)
        assert ok

    def test_zero_baseline_passes_anything(self):
        ok, summary = evaluate({"name": "t", "wall_time_s": 100.0},
                               {"wall_time_s": 0.0}, threshold=0.25)
        assert ok
        assert "nothing to gate" in summary


METRICS = {"clients": 9, "mean_bitrate_kbps": 874.2434988179668,
           "mean_changes": 5.777777777777778,
           "mean_rebuffer_s": 0.8288888888888918}


class TestEvaluateMetrics:
    def test_identical_metrics_pass(self):
        ok, summary = evaluate_metrics({"metrics": dict(METRICS)},
                                       {"metrics": dict(METRICS)})
        assert ok
        assert "identical" in summary

    def test_absent_block_is_not_gated(self):
        assert evaluate_metrics({}, {"metrics": METRICS}) is None
        assert evaluate_metrics({"metrics": METRICS}, {}) is None

    def test_missing_key_fails(self):
        partial = {k: v for k, v in METRICS.items() if k != "clients"}
        ok, summary = evaluate_metrics({"metrics": partial},
                                       {"metrics": METRICS})
        assert not ok
        assert "clients" in summary


class TestLoadBench:
    def test_missing_file(self, tmp_path):
        with pytest.raises(GateError):
            load_bench(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(GateError):
            load_bench(path)

    def test_missing_wall_time(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(GateError):
            load_bench(path)


class TestMain:
    def test_pass_exit_zero(self, tmp_path, capsys):
        current = _artifact(tmp_path, "t@cur", 1.0)
        baseline = _artifact(tmp_path, "t@base", 1.0)
        assert main([str(current), str(baseline)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        current = _artifact(tmp_path, "t@cur", 2.0)
        baseline = _artifact(tmp_path, "t@base", 1.0)
        assert main([str(current), str(baseline),
                     "--threshold", "0.25"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bad_input_exit_two(self, tmp_path, capsys):
        baseline = _artifact(tmp_path, "t@base", 1.0)
        assert main([str(tmp_path / "missing.json"), str(baseline)]) == 2
        assert "perf-gate:" in capsys.readouterr().err

    def test_env_threshold(self, tmp_path, monkeypatch):
        current = _artifact(tmp_path, "t@cur", 1.5)
        baseline = _artifact(tmp_path, "t@base", 1.0)
        monkeypatch.setenv("REPRO_PERF_THRESHOLD", "1.0")
        assert main([str(current), str(baseline)]) == 0
        monkeypatch.setenv("REPRO_PERF_THRESHOLD", "0.1")
        assert main([str(current), str(baseline)]) == 1
        # The explicit flag wins over the environment.
        assert main([str(current), str(baseline),
                     "--threshold", "1.0"]) == 0

    def test_bad_env_threshold_exit_two(self, tmp_path, monkeypatch):
        current = _artifact(tmp_path, "t@cur", 1.0)
        monkeypatch.setenv("REPRO_PERF_THRESHOLD", "fast")
        assert main([str(current), str(current)]) == 2

    def test_negative_threshold_exit_two(self, tmp_path):
        current = _artifact(tmp_path, "t@cur", 1.0)
        assert main([str(current), str(current),
                     "--threshold", "-0.5"]) == 2

    def test_default_threshold_is_quarter(self):
        assert DEFAULT_THRESHOLD == 0.25


class TestTelemetryOverheadGate:
    def test_within_budget_passes(self):
        ok, summary = evaluate_telemetry_overhead(
            {"name": "micro", "telemetry_overhead": {"frac": 0.01}},
            max_frac=0.02)
        assert ok
        assert "OK" in summary

    def test_over_budget_fails(self):
        ok, summary = evaluate_telemetry_overhead(
            {"name": "micro", "telemetry_overhead": {"frac": 0.05}},
            max_frac=0.02)
        assert not ok
        assert "REGRESSION" in summary

    def test_missing_section_raises(self):
        with pytest.raises(GateError, match="telemetry_overhead"):
            evaluate_telemetry_overhead({"name": "micro"}, max_frac=0.02)

    def test_main_combines_wall_and_overhead_gates(self, tmp_path,
                                                   capsys):
        current = _artifact(tmp_path, "m@cur", 1.0,
                            telemetry_overhead={"frac": 0.01})
        baseline = _artifact(tmp_path, "m@base", 1.0)
        assert main([str(current), str(baseline),
                     "--telemetry-overhead", "0.02"]) == 0
        assert "telemetry rollup" in capsys.readouterr().out
        hot = _artifact(tmp_path, "m@hot", 1.0,
                        telemetry_overhead={"frac": 0.5})
        assert main([str(hot), str(baseline),
                     "--telemetry-overhead", "0.02"]) == 1
        current_no_section = _artifact(tmp_path, "m@bare", 1.0)
        assert main([str(current_no_section), str(baseline),
                     "--telemetry-overhead", "0.02"]) == 2


class TestCommittedBaseline:
    def test_table1_baseline_is_committed_and_loadable(self):
        import pathlib

        baseline = (pathlib.Path(__file__).resolve().parents[2]
                    / "benchmarks" / "baselines" / "BENCH_table1.json")
        payload = load_bench(baseline)
        assert payload["name"] == "table1"
        assert payload["wall_time_s"] > 0

    def test_micro_baseline_covers_the_telemetry_kernel(self):
        import pathlib

        baseline = (pathlib.Path(__file__).resolve().parents[2]
                    / "benchmarks" / "baselines" / "BENCH_micro.json")
        payload = load_bench(baseline)
        assert "telemetry" in payload["micro"]
        assert 0.0 < payload["telemetry_overhead"]["frac"] <= 0.02


class TestMainMetricsGate:
    def test_one_ulp_metric_change_fails_the_gate(self, tmp_path, capsys):
        bumped = dict(METRICS)
        bumped["mean_bitrate_kbps"] = math.nextafter(
            METRICS["mean_bitrate_kbps"], math.inf)
        current = _artifact(tmp_path, "t@cur", 1.0, metrics=bumped)
        baseline = _artifact(tmp_path, "t@base", 1.0, metrics=METRICS)
        assert main([str(current), str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "mean_bitrate_kbps" in out

    def test_identical_metrics_exit_zero(self, tmp_path):
        current = _artifact(tmp_path, "t@cur", 1.0, metrics=METRICS)
        baseline = _artifact(tmp_path, "t@base", 1.0, metrics=METRICS)
        assert main([str(current), str(baseline)]) == 0
