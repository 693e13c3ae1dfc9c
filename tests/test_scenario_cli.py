import math
import subprocess
import sys
from pathlib import Path

import pytest

from srpicsim.channel import PathConfig
from srpicsim.cli import main
from srpicsim.coalescing import CoalescingParams
from srpicsim.scenario import (
    CSV_COLUMNS,
    ConfigError,
    ScenarioConfig,
    compare,
    load_scenario,
    override_param,
    parse_csv,
    rows_to_csv,
    run_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SMALL_YAML = """\
name: tiny
duration: 0.2
num_streams: 1
sender_mode: static
sack_enabled: false
max_cwnd: 16
segment_spacing_us: 4.0
fwd: {alpha_ms: 2.5, beta: 0.01, drop_rate: 0.0}
rev: {alpha_ms: 2.5, beta: 0.0, drop_rate: 0.0}
srpic: {enabled: true, block_size: 32, ringbuffer_size: 512}
coalescing: {t_intr_us: 120.0, r_sn_pps: 300000}
seeds: [1, 2]
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(SMALL_YAML, encoding="utf-8")
    return path


def tiny_cfg():
    return ScenarioConfig(
        name="tiny",
        duration=0.2,
        fwd=PathConfig(alpha_ms=2.5, beta=0.01, drop_rate=0.0),
        rev=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
        coalescing=CoalescingParams(t_intr_us=120.0, r_sn_pps=3e5),
        max_cwnd=16,
        segment_spacing_us=4.0,
        seeds=(1, 2),
    )


class TestConfigLoading:
    def test_load_valid(self, tiny_config):
        cfg = load_scenario(str(tiny_config))
        assert cfg.name == "tiny"
        assert cfg.fwd.beta == 0.01
        assert cfg.seeds == (1, 2)

    def test_shipped_scenarios_load(self):
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            cfg = load_scenario(str(path))
            assert cfg.duration > 0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML + "bogus_knob: 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_scenario(str(path))

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML.replace("duration: 0.2", "duration: 0"), "utf-8")
        with pytest.raises(ConfigError, match="duration"):
            load_scenario(str(path))

    def test_yaml_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\nduration: 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_scenario(str(path))

    def test_override_param(self):
        cfg = tiny_cfg()
        assert override_param(cfg, "beta", 0.1).fwd.beta == 0.1
        assert override_param(cfg, "delta", 0.01).fwd.drop_rate == 0.01
        assert override_param(cfg, "rev.alpha_ms", 5.0).rev.alpha_ms == 5.0
        with pytest.raises(ConfigError):
            override_param(cfg, "nope.nope", 1.0)

    def test_override_param_coerces_to_field_type(self):
        cfg = tiny_cfg()
        point = override_param(cfg, "num_streams", 2.0)
        assert point.num_streams == 2 and type(point.num_streams) is int
        assert type(override_param(cfg, "srpic.block_size", 16.0).srpic.block_size) is int
        assert override_param(cfg, "sack_enabled", 1.0).sack_enabled is True
        for param, value in (
            ("srpic.block_size", 1.5),
            ("num_streams", float("inf")),
            ("sack_enabled", 2.0),
            ("beta", float("nan")),
            ("name", 1.0),
            ("fwd", 1.0),
            ("fwd.beta.x", 1.0),
            ("seeds.real", 1.0),
        ):
            with pytest.raises(ConfigError):
                override_param(cfg, param, value)

    def test_override_param_validates_result(self):
        cfg = tiny_cfg()
        for param, value in (("num_streams", 0.0), ("beta", -1.0), ("srpic.block_size", 1024.0)):
            with pytest.raises(ConfigError):
                override_param(cfg, param, value)


class TestRunScenario:
    def test_row_shape_and_order(self):
        rows = run_scenario(tiny_cfg())
        assert len(rows) == 4  # 2 seeds x 2 arms x 1 stream
        assert [set(r) == set(CSV_COLUMNS) for r in rows]
        key = [(r["seed"], r["srpic"]) for r in rows]
        assert key == [(1, "off"), (1, "on"), (2, "off"), (2, "on")]

    def test_csv_byte_determinism(self):
        a = rows_to_csv(run_scenario(tiny_cfg()))
        b = rows_to_csv(run_scenario(tiny_cfg()))
        assert a == b
        assert a.startswith(",".join(CSV_COLUMNS) + "\n")
        assert "\r" not in a

    def test_clean_channel_rows_differ_only_in_arm_column(self):
        cfg = ScenarioConfig(
            name="ident",
            duration=0.2,
            fwd=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
            rev=PathConfig(alpha_ms=2.5, beta=0.0, drop_rate=0.0),
            coalescing=CoalescingParams(t_intr_us=120.0, r_sn_pps=3e5),
            max_cwnd=16,
            segment_spacing_us=4.0,
            seeds=(1,),
        )
        rows = run_scenario(cfg)
        off, on = rows
        for col in CSV_COLUMNS:
            if col in ("srpic", "max_hold_delay_us"):
                continue
            assert off[col] == on[col], col

    def test_float_formatting_six_significant_digits(self):
        text = rows_to_csv(
            [dict.fromkeys(CSV_COLUMNS, 0) | {"goodput_proxy": 1234567.891}]
        )
        assert "1.23457e+06" in text


class TestCompare:
    def rows(self):
        return parse_csv(rows_to_csv(run_scenario(tiny_cfg())))

    def test_summary_shape(self):
        summary = compare(self.rows())
        assert {r["scenario"] for r in summary} == {"tiny"}
        metrics = [r["metric"] for r in summary]
        assert "dup_acks_in" in metrics
        assert "dup_acks_in_per_goodput" in metrics
        by_metric = {r["metric"]: r for r in summary}
        norm = by_metric["dup_acks_in_per_goodput"]
        assert norm["baseline_mean"] > 0

    def test_normalized_metric_is_raw_over_goodput(self):
        rows = self.rows()
        first = rows[0]
        summary = compare([r for r in rows if r["seed"] == first["seed"]])
        by_metric = {r["metric"]: r for r in summary}
        arm = "baseline_mean" if first["srpic"] == "off" else "srpic_mean"
        assert by_metric["dup_acks_in_per_goodput"][arm] == pytest.approx(
            first["dup_acks_in"] / first["goodput_proxy"]
        )

    def test_paired_difference_ci_matches_independent_statistics(self):
        # paired t interval computed directly from scipy must match
        from scipy import stats as sps

        rows = self.rows()
        off = {r["seed"]: r for r in rows if r["srpic"] == "off"}
        on = {r["seed"]: r for r in rows if r["srpic"] == "on"}
        diffs = [on[s]["dup_acks_in"] - off[s]["dup_acks_in"] for s in sorted(off)]
        n = len(diffs)
        expected_half = float(sps.t.ppf(0.975, n - 1)) * sps.tstd(diffs) / n**0.5
        by_metric = {r["metric"]: r for r in compare(rows)}
        entry = by_metric["dup_acks_in"]
        assert entry["diff_mean"] == pytest.approx(sum(diffs) / n)
        assert entry["diff_ci95"] == pytest.approx(expected_half)

    def test_identical_rows_have_zero_ci(self):
        rows = self.rows()
        # duplicate each row under a second seed id to build two identical pairs
        clones = []
        for r in rows:
            if r["seed"] == 1:
                clone = dict(r)
                clone["seed"] = 3
                clones.append(clone)
        summary = compare([r for r in rows if r["seed"] == 1] + clones)
        for entry in summary:
            assert entry["baseline_ci95"] == 0.0
            assert entry["srpic_ci95"] == 0.0

    def test_empty_input_empty_summary(self):
        assert compare([]) == []

    def test_mismatched_pairing_rejected(self):
        rows = self.rows()
        with pytest.raises(ConfigError, match="paired"):
            compare(rows[:-1])

    def test_ratio_column(self):
        summary = compare(self.rows())
        for entry in summary:
            if entry["baseline_mean"]:
                assert entry["ratio"] == pytest.approx(
                    entry["srpic_mean"] / entry["baseline_mean"]
                )
            else:
                assert math.isnan(entry["ratio"])


class TestCli:
    def test_run_and_compare_roundtrip(self, tiny_config, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        assert main(["run", str(tiny_config), "--out", str(out_csv)]) == 0
        text = out_csv.read_text(encoding="utf-8")
        assert text.startswith(",".join(CSV_COLUMNS))
        out_cmp = tmp_path / "summary.csv"
        assert main(["compare", str(out_csv), "--out", str(out_cmp)]) == 0
        assert "dup_acks_in" in out_cmp.read_text(encoding="utf-8")

    def test_seed_count_override(self, tiny_config, tmp_path):
        out_csv = tmp_path / "rows.csv"
        assert main(["run", str(tiny_config), "--out", str(out_csv), "--seed-count", "3"]) == 0
        rows = parse_csv(out_csv.read_text(encoding="utf-8"))
        assert {r["seed"] for r in rows} == {1, 2, 3}

    def test_sweep_names_points(self, tiny_config, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                str(tiny_config),
                "--param",
                "beta",
                "--values",
                "0.0,0.01",
                "--out",
                str(out_csv),
                "--seed-count",
                "1",
            ]
        )
        assert code == 0
        rows = parse_csv(out_csv.read_text(encoding="utf-8"))
        assert {r["scenario"] for r in rows} == {"tiny[beta=0]", "tiny[beta=0.01]"}

    def test_sweep_over_integer_field(self, tiny_config, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        args = ["sweep", str(tiny_config), "--param", "num_streams", "--values", "2"]
        assert main(args + ["--seed-count", "1", "--out", str(out_csv)]) == 0
        rows = parse_csv(out_csv.read_text(encoding="utf-8"))
        assert {r["scenario"] for r in rows} == {"tiny[num_streams=2]"}
        assert sorted(r["stream_id"] for r in rows) == [0, 0, 1, 1]

    def test_sweep_rejects_fractional_integer_exits_2(self, tiny_config, capsys):
        args = ["sweep", str(tiny_config), "--param", "srpic.block_size", "--values", "1.5"]
        assert main(args) == 2
        assert "srpic.block_size" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nduration: -1\nseeds: [1]\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "duration" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "/nonexistent/cfg.yaml"]) == 2

    def test_entry_point_runs(self, tiny_config, tmp_path):
        out_csv = tmp_path / "cli.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "srpicsim.cli",
                "run",
                str(tiny_config),
                "--seed-count",
                "1",
                "--out",
                str(out_csv),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out_csv.exists()
