"""Unit tests for the engine-benchmark perf-regression gate.

Covers the pure decision logic of ``benchmarks/bench_engine.py``
(baseline comparison, smoke-section shape, warn-and-pass fallbacks)
without running the timed benchmark itself.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_engine  # noqa: E402


def fake_record(device_p50: float, vec_p50: float) -> dict:
    return {
        "shape": {"m": 256, "n": 128, "k": 256},
        "device_timing": {"p50": device_p50},
        "vectorized_timing": {"p50": vec_p50},
    }


def fake_plan_record(device_p50: float, warm_p50: float) -> dict:
    return {
        "shape": {"m": 256, "n": 128, "k": 256},
        "device_timing": {"p50": device_p50},
        "warm_timing": {"p50": warm_p50},
    }


def write_baseline(path: Path, speedups: dict) -> None:
    path.write_text(json.dumps({
        "benchmark": "bench_engine",
        "smoke": {"speedup_p50": speedups},
    }))


class TestSmokeSection:
    def test_p50_speedups_and_shapes(self):
        section = bench_engine.smoke_section({
            "PE": fake_record(1.0, 0.01),
            "SCHED": fake_record(2.0, 0.02),
        })
        assert section["speedup_p50"] == {"PE": 100.0, "SCHED": 100.0}
        assert section["shapes"]["PE"]["m"] == 256

    def test_handles_both_record_shapes(self):
        """Engine records compare device/vectorized; stepwise-plan
        records compare device/warm — one section covers both."""
        section = bench_engine.smoke_section({
            "SCHED": fake_record(1.0, 0.01),
            "STEPWISE_PLAN": fake_plan_record(1.0, 0.25),
        })
        assert section["speedup_p50"] == {"SCHED": 100.0,
                                          "STEPWISE_PLAN": 4.0}


class TestCheckRegression:
    def test_passes_within_allowance(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, {"PE": 100.0})
        # 80x vs 100x baseline is inside the 25% allowance (floor 75x)
        records = {"PE": fake_record(1.0, 1 / 80)}
        assert bench_engine.check_regression(records, str(baseline), 0.25) == []
        assert "ok" in capsys.readouterr().out

    def test_fails_beyond_allowance(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, {"PE": 100.0})
        records = {"PE": fake_record(1.0, 1 / 60)}  # 60x < 75x floor
        failures = bench_engine.check_regression(records, str(baseline), 0.25)
        assert len(failures) == 1 and "regressed" in failures[0]
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_smoke_section_warns_and_passes(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"benchmark": "bench_engine"}))
        records = {"PE": fake_record(1.0, 1.0)}
        assert bench_engine.check_regression(records, str(baseline), 0.25) == []
        assert "no smoke section" in capsys.readouterr().err

    def test_unreadable_baseline_warns_and_passes(self, tmp_path, capsys):
        records = {"PE": fake_record(1.0, 1.0)}
        missing = tmp_path / "nope.json"
        assert bench_engine.check_regression(records, str(missing), 0.25) == []
        assert "unreadable" in capsys.readouterr().err

    def test_unknown_variant_warns_and_passes(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, {"SCHED": 50.0})
        records = {"PE": fake_record(1.0, 1 / 10)}
        assert bench_engine.check_regression(records, str(baseline), 0.25) == []
        assert "no smoke entry for PE" in capsys.readouterr().err


class TestWriteBaseline:
    def test_merges_into_existing_payload(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({"benchmark": "bench_engine",
                                    "variants": {"RAW": {}}}))
        bench_engine.write_smoke_baseline({"PE": fake_record(2.0, 0.5)},
                                          str(path))
        payload = json.loads(path.read_text())
        assert payload["variants"] == {"RAW": {}}  # untouched
        assert payload["smoke"]["speedup_p50"]["PE"] == 4.0

    def test_creates_fresh_payload(self, tmp_path):
        path = tmp_path / "new.json"
        bench_engine.write_smoke_baseline({"PE": fake_record(1.0, 0.25)},
                                          str(path))
        payload = json.loads(path.read_text())
        assert payload["smoke"]["speedup_p50"]["PE"] == 4.0


class TestArgParsing:
    def test_baseline_requires_smoke(self, capsys):
        with pytest.raises(SystemExit):
            bench_engine.main(["--baseline", "x.json"])

    def test_max_regression_bounds(self, capsys):
        with pytest.raises(SystemExit):
            bench_engine.main(["--smoke", "--max-regression", "1.5"])


class TestPlanRegression:
    def test_plan_record_gated_like_engine_records(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, {"STEPWISE_PLAN": 4.0})
        records = {"STEPWISE_PLAN": fake_plan_record(1.0, 0.5)}  # 2x < 3x floor
        failures = bench_engine.check_regression(records, str(baseline), 0.25)
        assert len(failures) == 1 and "regressed" in failures[0]
        assert "REGRESSION" in capsys.readouterr().out


def test_committed_baseline_has_smoke_section():
    """The perf gate is only armed if the committed trajectory file
    carries the smoke section the CI job compares against."""
    committed = BENCH_DIR.parent / "BENCH_engine.json"
    payload = json.loads(committed.read_text())
    speedups = payload["smoke"]["speedup_p50"]
    assert set(speedups) == {"PE", "SCHED", "STEPWISE_PLAN"}
    assert all(v > 1.0 for v in speedups.values())
    plan = payload["stepwise_plan"]
    assert plan["speedup_p50"] >= bench_engine.STEPWISE_PLAN_DEVICE_FLOOR
    assert plan["results_bitwise_equal"] and plan["stats_match"]
    assert plan["plan_cache"]["builds"] == 1
