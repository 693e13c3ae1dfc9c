import math
import os
import random
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml

from srpicsim import cli, scenario
from srpicsim.channel import PathConfig
from srpicsim.cli import main
from srpicsim.coalescing import CoalescingParams
from srpicsim.scenario import (
    COMPARE_COLUMNS,
    CSV_COLUMNS,
    ConfigError,
    ScenarioConfig,
    SrpicSettings,
    compare,
    load_scenario,
    override_param,
    parse_csv,
    rows_to_csv,
    run_scenario,
    scenario_from_mapping,
)
from srpicsim.sorter import SrpicEngine

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"

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
srpic: {block_size: 32, ringbuffer_size: 512}
coalescing: {t_intr_us: 120.0, r_sn_pps: 300000}
seeds: [1, 2]
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(SMALL_YAML, encoding="utf-8")
    return path


@pytest.fixture
def no_run(monkeypatch):
    """Fail instead of running: a bad value that loads (say, an infinite
    duration) must not hang the suite."""

    def refuse(cfg):
        raise AssertionError(f"a bad scenario loaded and was run: {cfg}")

    monkeypatch.setattr(cli, "run_scenario", refuse)


def with_key(key, value):
    """SMALL_YAML as a mapping, with one (possibly dotted) key set."""
    doc = yaml.safe_load(SMALL_YAML)
    section, _, leaf = key.rpartition(".")
    (doc[section] if section else doc)[leaf] = value
    return doc


def numeric_points():
    """Every numeric key of the scenario dataclasses, with a valid new value."""
    cfg = scenario_from_mapping(yaml.safe_load(SMALL_YAML))
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        leaves = (
            [(f"{f.name}.{g.name}", getattr(value, g.name)) for g in fields(value)]
            if is_dataclass(value)
            else [(f.name, value)]
        )
        for key, old in leaves:
            if isinstance(old, bool):
                yield key, float(not old)
            elif isinstance(old, int):
                yield key, float(old + 1)
            elif isinstance(old, float):
                yield key, old * 0.5 + 0.25


def arm_rows(**changes):
    """One paired run of hand-made rows, with ``changes`` set on both."""
    base = dict.fromkeys(CSV_COLUMNS, 1) | {"scenario": "x", "goodput_proxy": 2.5}
    return [base | {"srpic": arm} | changes for arm in ("off", "on")]


def paired_rows(n, rng):
    """Hand-made rows of ``n`` pairs under the scenario name ``n<n>``,
    with random counters and floats."""
    rows = []
    for seed in range(1, n + 1):
        for arm in ("off", "on"):
            row = {c: rng.randrange(1, 500) for c in CSV_COLUMNS}
            row |= {"scenario": f"n{n}", "seed": seed, "stream_id": 0, "srpic": arm}
            for c in ("goodput_proxy", "mean_block_size", "max_hold_delay_us"):
                row[c] = rng.uniform(0.5, 2e6)
            for c in ("reorder_pre_ratio", "reorder_post_ratio"):
                row[c] = rng.random()
            rows.append(row)
    return rows


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

    @pytest.mark.parametrize("isn", [-1, 2**32, 1.5, "x"])
    def test_isn_out_of_range_rejected(self, tmp_path, isn):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML + f"isn: {isn}\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_scenario(str(path))

    def test_isn_loads(self, tmp_path):
        path = tmp_path / "isn.yaml"
        path.write_text(SMALL_YAML + f"isn: {2**32 - 1}\n", encoding="utf-8")
        assert load_scenario(str(path)).isn == 2**32 - 1
        assert load_scenario(str(SCENARIO_DIR / "table4_analog.yaml")).isn == 0

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
            ("fwd.seed", 1.0),
            ("rev.seed", 1.0),
            ("srpic.enabled", 1.0),
        ):
            with pytest.raises(ConfigError):
                override_param(cfg, param, value)

    def test_omitted_keys_take_the_dataclass_defaults(self):
        expected = ScenarioConfig("x", 1.0)
        assert scenario_from_mapping({"name": "x", "duration": 1.0}) == expected

    def test_one_source_for_defaults(self):
        assert ScenarioConfig(name="x", duration=1.0).coalescing == CoalescingParams()
        settings, engine = SrpicSettings(), SrpicEngine()
        assert settings.block_size == engine.block_size
        assert settings.ringbuffer_size == engine.ringbuffer_size

    @pytest.mark.parametrize("key, value", list(numeric_points()))
    def test_sweep_and_file_accept_the_same_keys(self, key, value):
        # Path seeds are derived by the run, so neither sets them.
        try:
            loaded = scenario_from_mapping(with_key(key, value))
        except ConfigError:
            loaded = None
        base = scenario_from_mapping(yaml.safe_load(SMALL_YAML))
        try:
            swept = override_param(base, key, value)
        except ConfigError:
            swept = None
        assert loaded == swept
        assert (loaded is None) == key.endswith(".seed")

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

    def test_t_quantile_matches_scipy(self):
        from scipy import stats as sps

        spread = [250, 333, 500, 1000, 1999, 2500, 5000, 7777, 9999, 10_000]
        for df in [*range(1, 201), *spread]:
            expected = float(sps.t.ppf(0.975, df))
            assert scenario._t_quantile(df) == pytest.approx(expected, rel=1e-10), df

    def test_summary_bytes_match_scipy_quantile(self, monkeypatch):
        from scipy import stats as sps

        rng = random.Random(7)
        rows = [r for n in (2, 3, 30, 1000) for r in paired_rows(n, rng)]
        ours = rows_to_csv(compare(rows), COMPARE_COLUMNS)
        monkeypatch.setattr(scenario, "_t_quantile", lambda df: float(sps.t.ppf(0.975, df)))
        assert ours == rows_to_csv(compare(rows), COMPARE_COLUMNS)
        assert {r["n_pairs"] for r in compare(rows)} == {2, 3, 30, 1000}

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

    def test_sweep_rejects_repeated_point_exits_2(self, tiny_config, capsys, no_run):
        args = ["sweep", str(tiny_config), "--param", "beta", "--values", "0.01,0.02,0.010"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "tiny[beta=0.01]" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    def test_unwritable_out_exits_2(self, command, tiny_config, tmp_path, capsys, no_run):
        out = tmp_path / "missing" / "x.csv"
        if command == "compare":
            rows_csv = tmp_path / "rows.csv"
            rows_csv.write_text(rows_to_csv(arm_rows()), encoding="utf-8")
            args = ["compare", str(rows_csv)]
        else:
            args = [command, str(tiny_config)]
            if command == "sweep":
                args += ["--param", "beta", "--values", "0.0,0.01"]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("device", ["/dev/null", "/dev/stdout"])
    def test_out_may_be_a_device(self, device, tmp_path):
        if not os.path.exists(device):
            pytest.skip(f"needs {device}")
        rows_csv = tmp_path / "rows.csv"
        rows_csv.write_text(rows_to_csv(arm_rows()), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "srpicsim.cli", "compare", str(rows_csv), "--out", device],
            env=os.environ | {"PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        summary = rows_to_csv(compare(arm_rows()), COMPARE_COLUMNS)
        assert proc.stdout == (summary if device == "/dev/stdout" else "")

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nduration: -1\nseeds: [1]\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "duration" in capsys.readouterr().err

    def test_coalescing_ringbuffer_size_exits_2(self, tmp_path, capsys):
        # The sorter's ring is srpic.ringbuffer_size; the coalescing key is
        # rejected instead of being accepted and ignored.
        path = tmp_path / "bad.yaml"
        text = SMALL_YAML.replace(
            "r_sn_pps: 300000}", "r_sn_pps: 300000, ringbuffer_size: 512}"
        )
        assert text != SMALL_YAML
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "coalescing" in err and "ringbuffer_size" in err

    def test_srpic_enabled_exits_2(self, tmp_path, capsys):
        # Every run executes both arms; the key that claimed to pick one is
        # rejected instead of being accepted and ignored.
        path = tmp_path / "bad.yaml"
        text = SMALL_YAML.replace("srpic: {", "srpic: {enabled: true, ")
        assert text != SMALL_YAML
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "srpic" in err and "enabled" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_streams", 2.7),
            ("max_cwnd", 16.9),
            ("seeds", [1.9]),
            ("seeds", 5),
            ("srpic.block_size", 32.5),
            ("sack_enabled", "false"),
            ("name", 123),
            ("fwd.beta", "0.1"),
            ("duration", math.inf),
            ("fwd.beta", math.nan),
            ("coalescing.r_sn_pps", math.inf),
        ],
    )
    def test_bad_value_exits_2(self, key, value, tmp_path, capsys, no_run):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(with_key(key, value)), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{key}:" in err and "Traceback" not in err
        if isinstance(value, float):
            with pytest.raises(ConfigError, match=key):
                override_param(tiny_cfg(), key, value)

    @pytest.mark.parametrize(
        "text, column",
        [
            (rows_to_csv(arm_rows(), CSV_COLUMNS[1:]), "scenario"),
            (rows_to_csv(arm_rows(goodput_proxy="abc")), "goodput_proxy"),
            (rows_to_csv(arm_rows(srpic="maybe")), "srpic"),
            (rows_to_csv(arm_rows(), CSV_COLUMNS[:4]), "dup_acks_in"),
        ],
        ids=["no-scenario-column", "non-numeric", "unknown-arm", "no-metric-columns"],
    )
    def test_compare_malformed_csv_exits_2(self, text, column, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv: line " in err and column in err and "Traceback" not in err

    def test_compare_undecodable_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"scenario,\xff\xfe\n")
        assert main(["compare", str(path)]) == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_compare_hand_made_rows(self, tmp_path, capsys):
        path = tmp_path / "ok.csv"
        path.write_text(rows_to_csv(arm_rows()), encoding="utf-8")
        assert main(["compare", str(path)]) == 0
        assert "goodput_proxy" in capsys.readouterr().out

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


def test_import_loads_neither_scipy_nor_numpy():
    code = (
        "import sys, srpicsim, srpicsim.cli; "
        "heavy = sorted({'scipy', 'numpy'} & set(sys.modules)); "
        "assert not heavy, heavy"
    )
    env = os.environ | {"PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
