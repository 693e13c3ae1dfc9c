import csv
import itertools
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml

from srpicsim import cli, scenario
from srpicsim.channel import PathConfig
from srpicsim.cli import main
from srpicsim.coalescing import CoalescingParams, SimulationError
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

    def refuse(*cfgs):
        raise AssertionError(f"a bad scenario loaded and was run: {cfgs}")

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


# Values at the edges a YAML value can reach: zeros and signs, subnormals,
# floats near overflow, integers past a float or a C long, each other
# type, NaN and infinity.
EDGE_VALUES = (
    0, 1, -1, 1e-320, 5e-324, 1e-300, 1e300, 1.7e308, 2**63, 10**30, -0.0,
    True, False, "x", None, [], {}, math.nan, math.inf, 10**400,
)


def settable_keys():
    """Every key a scenario may set, a section's own keys dotted after
    it, read from ``scenario._settable``: a new key is covered with no
    test edit."""
    for key in scenario._settable(ScenarioConfig):
        yield key
        if key in scenario._SECTIONS:
            leaves = scenario._settable(type(scenario._SECTIONS[key]))
            yield from (f"{key}.{leaf}" for leaf in leaves)


def arm_rows(**changes):
    """One paired run of hand-made rows, with ``changes`` set on both."""
    base = dict.fromkeys(CSV_COLUMNS, 1) | {"scenario": "x", "goodput_proxy": 2.5}
    return [base | {"srpic": arm} | changes for arm in ("off", "on")]


def with_column(name, cell):
    """The CSV of ``arm_rows()`` with one more column, ``name``, whose
    cells are all ``cell``."""
    head, *lines = rows_to_csv(arm_rows()).splitlines()
    return "\n".join([f"{head},{name}", *(f"{line},{cell}" for line in lines)]) + "\n"


def paired_rows(n, rng):
    """Hand-made rows of ``n`` pairs under the scenario name ``n<n>``,
    with a random value of each metric column's type."""
    rows = []
    for seed in range(1, n + 1):
        for arm in ("off", "on"):
            row = {
                c: rng.uniform(0.5, 2e6) if parse is scenario._float else rng.randrange(1, 500)
                for c, (parse, _) in scenario._COLUMNS.items()
            }
            row |= {"scenario": f"n{n}", "seed": seed, "stream_id": 0, "srpic": arm}
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

    def test_repeated_seeds_found_in_one_pass(self):
        # Every replace validates again (each sweep point, --seed-count),
        # so the check must stay linear in the number of seeds.
        seeds = (*range(200_000), 150_000, 3)
        start = time.perf_counter()
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(name="many", duration=0.1, seeds=seeds)
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == "seeds: [3, 150000] repeated; each seed runs once"

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

    def test_negative_earliest_draw_counts_as_zero(self):
        # About a sixth of fwd's draws clamp to 0, so packets arrive; every
        # ACK still lands past the hard stop.  fwd's negative 9-sigma bound
        # (-8e12 us) must not cancel rev's 1e10 us.
        with pytest.raises(ConfigError, match="^rev: the earliest ACK"):
            ScenarioConfig(
                name="back",
                duration=0.05,
                fwd=PathConfig(alpha_ms=1.0e9, beta=1.0),
                rev=PathConfig(alpha_ms=1.0e7),
            )

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

    def test_every_key_at_every_edge_value_loads_or_is_a_config_error(self):
        # Each settable key, on top of the least scenario, set to each
        # edge value: scenario_from_mapping returns a config or raises
        # ConfigError, and nothing else escapes.
        escaped = []
        for key, value in itertools.product(settable_keys(), EDGE_VALUES):
            doc = {"name": "edge", "duration": 0.01}
            section, _, leaf = key.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[leaf] = value
            try:
                cfg = scenario_from_mapping(doc)
            except ConfigError:
                continue
            except Exception as exc:
                escaped.append((key, value, repr(exc)))
                continue
            assert isinstance(cfg, ScenarioConfig)
        assert escaped == []

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


class _UnloadableError(Exception):
    """Pickles, but loading calls ``__init__`` with one argument of two."""

    def __init__(self, arm, why):
        super().__init__(f"{arm} arm: {why}")


def _unpicklable_error():
    exc = ValueError("off arm: no pickle")
    exc.hook = lambda: None  # a lambda does not pickle
    return exc


class TestArmsInParallel:
    """``run_scenario`` runs the sorter-off arm of every seed in one forked
    child where ``scenario._child_cpus()`` is nonempty; the caller runs the
    sorter-on arms."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def faults(self, monkeypatch):
        """Patch ``tcp.run_transfer`` (which a child inherits) to call
        ``fault(seed, srpic)`` first."""
        from srpicsim import tcp

        run_transfer = tcp.run_transfer

        def patch(fault):
            def faulty(cfg, *, seed, srpic):
                fault(seed, srpic)
                return run_transfer(cfg, seed=seed, srpic=srpic)

            monkeypatch.setattr(tcp, "run_transfer", faulty)

        return patch

    @pytest.fixture
    def forked(self, monkeypatch, faults):
        """Fork on any host with CPU affinity calls, pinning the child to
        the lowest CPU this process may use; return ``faults``."""
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity calls")
        monkeypatch.setattr(scenario, "_child_cpus", lambda: {min(os.sched_getaffinity(0))})
        return faults

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
    def test_serial_and_forked_give_the_same_bytes(self, name, forked, monkeypatch):
        cfg = replace(load_scenario(str(SCENARIO_DIR / f"{name}.yaml")), duration=0.2, seeds=(1, 2))
        forked_csv = rows_to_csv(run_scenario(cfg))
        monkeypatch.setattr(scenario, "_child_cpus", set)
        assert rows_to_csv(run_scenario(cfg)) == forked_csv

    def test_a_run_forks_once_whatever_its_seed_count(self, forked, monkeypatch):
        cfg = replace(tiny_cfg(), seeds=(1, 2, 3))
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        forked_csv = rows_to_csv(run_scenario(cfg))
        assert forks == [os.getpid()]
        monkeypatch.setattr(scenario, "_child_cpus", set)
        assert rows_to_csv(run_scenario(cfg)) == forked_csv
        assert len(forks) == 1

    def test_a_sweep_forks_once(self, forked, monkeypatch, tiny_config, tmp_path):
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        argv = ["sweep", str(tiny_config), "--param", "beta", "--values", "0.002,0.01"]
        assert main(argv + ["--out", str(tmp_path / "forked.csv")]) == 0
        assert forks == [os.getpid()]
        monkeypatch.setattr(scenario, "_child_cpus", set)
        assert main(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
        assert len(forks) == 1
        forked_csv = (tmp_path / "forked.csv").read_text(encoding="utf-8")
        assert (tmp_path / "serial.csv").read_text(encoding="utf-8") == forked_csv
        assert forked_csv.count("tiny[beta=") == 8  # 2 points x 2 seeds x 2 arms

    @pytest.mark.parametrize("forks", [False, True], ids=["serial", "forked"])
    def test_off_arm_error_wins_across_points(self, forks, faults, request, monkeypatch):
        """The on arm fails at point 1 and the off arm only at point 2;
        each point has its own seed, which the fault reads."""
        if forks:
            request.getfixturevalue("forked")
        else:
            monkeypatch.setattr(scenario, "_child_cpus", set)

        def fault(seed, srpic):
            if (seed, srpic) in ((1, True), (2, False)):
                raise SimulationError(f"{'on' if srpic else 'off'} arm at point {seed}")

        faults(fault)
        points = [replace(tiny_cfg(), name=f"p{seed}", seeds=(seed,)) for seed in (1, 2)]
        with pytest.raises(SimulationError, match="^off arm at point 2$"):
            run_scenario(*points)

    def test_off_arm_error_reaches_the_caller(self, forked):
        caller = os.getpid()

        def fault(seed, srpic):
            if not srpic:
                raise SimulationError(f"off arm failed in a child: {os.getpid() != caller}")

        forked(fault)
        with pytest.raises(SimulationError, match="^off arm failed in a child: True$"):
            run_scenario(tiny_cfg())

    def test_off_arm_error_wins_over_the_callers(self, forked):
        def fault(seed, srpic):
            raise (ConfigError("sorter arm") if srpic else SimulationError("off arm"))

        forked(fault)
        with pytest.raises(SimulationError, match="^off arm$"):
            run_scenario(tiny_cfg())

    @pytest.mark.parametrize("forks", [False, True], ids=["serial", "forked"])
    def test_off_arm_error_wins_across_seeds(self, forks, faults, request, monkeypatch):
        """The on arm fails at seed 1 and the off arm only at seed 2."""
        if forks:
            request.getfixturevalue("forked")
        else:
            monkeypatch.setattr(scenario, "_child_cpus", set)

        def fault(seed, srpic):
            if (seed, srpic) in ((1, True), (2, False)):
                raise SimulationError(f"{'on' if srpic else 'off'} arm at seed {seed}")

        faults(fault)
        with pytest.raises(SimulationError, match="^off arm at seed 2$"):
            run_scenario(tiny_cfg())

    def test_caller_arm_error_still_reaps_the_child(self, forked):
        def fault(seed, srpic):
            if srpic:
                raise SimulationError("sorter arm")

        forked(fault)
        with pytest.raises(SimulationError, match="^sorter arm$"):
            run_scenario(tiny_cfg())

    @pytest.mark.parametrize(
        "make, shown",
        [
            (lambda: _UnloadableError("off", "no load"), "_UnloadableError('off arm: no load')"),
            (_unpicklable_error, "ValueError('off arm: no pickle')"),
        ],
        ids=["does-not-load", "does-not-pickle"],
    )
    def test_an_error_that_does_not_travel_arrives_as_its_repr(self, make, shown, forked):
        def fault(seed, srpic):
            if not srpic:
                raise make()

        forked(fault)
        with pytest.raises(RuntimeError) as exc:
            run_scenario(tiny_cfg())
        assert type(exc.value) is RuntimeError and str(exc.value) == shown

    def test_child_that_dies_without_a_result_names_its_exit_status(self, forked):
        caller = os.getpid()

        def fault(seed, srpic):
            if not srpic and os.getpid() != caller:
                os._exit(3)

        forked(fault)
        with pytest.raises(SimulationError, match="exit status 3$"):
            run_scenario(tiny_cfg())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
    def test_failed_fork_leaks_no_descriptor(self, forked, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to be had")

        monkeypatch.setattr(os, "fork", no_fork)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_scenario(tiny_cfg())
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_off_arm_runs_on_the_cpus_the_caller_does_not(self, forked):
        cpu = min(os.sched_getaffinity(0))

        def fault(seed, srpic):
            if not srpic:
                raise SimulationError(f"off arm on {sorted(os.sched_getaffinity(0))}")

        forked(fault)
        with pytest.raises(SimulationError, match=rf"^off arm on \[{cpu}\]$"):
            run_scenario(tiny_cfg())

    def test_a_cpu_the_child_cannot_take_leaves_it_where_it_is(self, forked, monkeypatch):
        serial = rows_to_csv(run_scenario(tiny_cfg()))
        monkeypatch.setattr(scenario, "_child_cpus", lambda: {4095})  # no such CPU
        assert rows_to_csv(run_scenario(tiny_cfg())) == serial

    @pytest.mark.skipif(
        not (os.path.isfile("/proc/self/stat") and hasattr(os, "sched_getaffinity")),
        reason="reads the current CPU from /proc",
    )
    def test_child_cpus_leave_out_the_one_the_caller_runs_on(self):
        allowed = os.sched_getaffinity(0)
        others = scenario._child_cpus()
        assert others < allowed and len(others) == len(allowed) - 1

    def test_serial_conditions(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(scenario.threading, "active_count", lambda: 2)
            assert scenario._child_cpus() == set()
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            assert scenario._child_cpus() == set()
        with monkeypatch.context() as m:
            m.delattr(os, "sched_getaffinity", raising=False)
            assert scenario._child_cpus() == set()
        if hasattr(os, "sched_setaffinity"):  # as under taskset -c 0
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(allowed)})
            try:
                assert scenario._child_cpus() == set()
            finally:
                os.sched_setaffinity(0, allowed)


class TestRunCsvSchema:
    @pytest.mark.parametrize(
        "path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda path: path.stem
    )
    def test_run_csv_round_trips_with_its_types(self, path):
        # An int column parsed as a float prints the same bytes, so only
        # the types show it.
        rows = run_scenario(replace(load_scenario(str(path)), duration=0.2, seeds=(1,)))
        text = rows_to_csv(rows)
        parsed = parse_csv(text)
        assert rows_to_csv(parsed) == text
        types = [{c: type(v) for c, v in row.items()} for row in rows]
        assert [{c: type(v) for c, v in row.items()} for row in parsed] == types

    def test_compared_metrics_are_metric_columns(self):
        for metric in scenario._COMPARE_METRICS:
            _, attr = scenario._COLUMNS[metric.removesuffix("_per_goodput")]
            assert attr, metric

    def test_readme_lists_the_run_csv_columns(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        listed = readme.split("CSV columns, in order: `", 1)[1].split("`", 1)[0]
        assert [c.strip() for c in listed.split(",")] == CSV_COLUMNS


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

    def test_negative_seeds_round_trip_through_compare(self, tmp_path, capsys):
        # Seeds are the one signed column: a file may list any integers.
        path = tmp_path / "neg.yaml"
        path.write_text(SMALL_YAML.replace("seeds: [1, 2]", "seeds: [-3, 0]"), encoding="utf-8")
        out_csv = tmp_path / "rows.csv"
        assert main(["run", str(path), "--out", str(out_csv)]) == 0
        text = out_csv.read_text(encoding="utf-8")
        rows = parse_csv(text)
        assert sorted({r["seed"] for r in rows}) == [-3, 0] and rows_to_csv(rows) == text
        assert main(["compare", str(out_csv)]) == 0
        assert rows_to_csv(compare(rows), COMPARE_COLUMNS) == capsys.readouterr().out

    def test_run_is_the_sweep_over_no_parameter(self, tiny_config, tmp_path):
        # Sweeping beta over the file's own value runs the file's scenario.
        run_csv, sweep_csv = tmp_path / "run.csv", tmp_path / "sweep.csv"
        assert main(["run", str(tiny_config), "--out", str(run_csv)]) == 0
        args = ["sweep", str(tiny_config), "--param", "beta", "--values", "0.01"]
        assert main(args + ["--out", str(sweep_csv)]) == 0
        run_rows = parse_csv(run_csv.read_text(encoding="utf-8"))
        sweep_rows = parse_csv(sweep_csv.read_text(encoding="utf-8"))
        assert {r["scenario"] for r in run_rows} == {"tiny"}
        assert {r["scenario"] for r in sweep_rows} == {"tiny[beta=0.01]"}
        assert [r | {"scenario": "tiny"} for r in sweep_rows] == run_rows

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

    @staticmethod
    def command_args(command, tiny_config, tmp_path):
        """Arguments of ``command`` on the tiny scenario, or for
        ``compare`` on the rows of ``arm_rows()``, with no ``--out``."""
        if command == "compare":
            rows_csv = tmp_path / "rows.csv"
            rows_csv.write_text(rows_to_csv(arm_rows()), encoding="utf-8")
            return ["compare", str(rows_csv)]
        args = [command, str(tiny_config)]
        if command == "sweep":
            args += ["--param", "beta", "--values", "0.0,0.01"]
        return args

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    def test_unwritable_out_exits_2(self, command, tiny_config, tmp_path, capsys, no_run):
        out = tmp_path / "missing" / "x.csv"
        args = self.command_args(command, tiny_config, tmp_path)
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    def test_out_whose_write_fails_exits_2(self, command, tiny_config, tmp_path, capsys, monkeypatch):
        # /dev/full opens for writing, so it passes the check before the
        # run, and the write after the run fails with ENOSPC.
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        monkeypatch.setattr(cli, "run_scenario", lambda *cfgs: arm_rows())
        args = self.command_args(command, tiny_config, tmp_path)
        assert main(args + ["--out", "/dev/full"]) == 2
        assert "error: --out /dev/full: " in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("name: x\nduration: 0.05\nduration: 0.01\n", "duration", 3),
            ("name: x\nduration: 0.05\nfwd:\n  beta: 0.1\n  beta: 0.2\n", "beta", 5),
        ],
    )
    def test_repeated_key_exits_2(self, text, key, line, tmp_path, capsys, no_run):
        # The plain YAML loader keeps the last value: a run that silently
        # ignores a line of its scenario.
        path = tmp_path / "dup.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"dup.yaml:{line}:" in err and f"repeated key {key!r}" in err

    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys, no_run):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"# caf\xe9 \xff\n" + SMALL_YAML.encode())
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "latin1.yaml: " in err and "utf-8" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "line",
        ["seeds: " + "[" * 3000 + "]" * 3000, "fwd: " + "{a: " * 3000 + "1" + "}" * 3000],
        ids=["3000-deep-list", "3000-deep-mapping"],
    )
    def test_deeply_nested_scenario_exits_2(self, line, tmp_path, capsys, no_run):
        # PyYAML composes nested nodes recursively and runs out of stack.
        path = tmp_path / "deep.yaml"
        path.write_text(f"name: deep\nduration: 0.01\n{line}\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "deep.yaml: nesting too deep" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "line", ["max_cwnd: 1" + "0" * 5000, "name: 2020-13-45"], ids=["5001-digit-int", "month-13"]
    )
    def test_value_yaml_cannot_build_exits_2(self, line, tmp_path, capsys, no_run):
        # YAML's own constructors raise ValueError on these, not YAMLError.
        path = tmp_path / "bad.yaml"
        path.write_text(f"duration: 0.05\n{line}\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.yaml: " in err and "Traceback" not in err

    def test_repeated_seed_exits_2(self, tmp_path, capsys, no_run):
        # Rows of one seed twice would make a CSV that compare rejects.
        path = tmp_path / "dup.yaml"
        path.write_text("name: x\nduration: 0.05\nseeds: [1, 2, 1]\n", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "seeds: [1] repeated" in capsys.readouterr().err

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
            # Too large for a float: the run would raise OverflowError.
            pytest.param("max_cwnd", 10**400, id="max_cwnd-10**400"),
            pytest.param("srpic.block_size", 10**400, id="srpic.block_size-10**400"),
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
        "key, value, message",
        [
            ("duration", 1.0e303, "duration: duration * 1e6"),
            ("fwd.alpha_ms", 1.0e306, "alpha_ms * 1000"),
            ("fwd.beta", 1.0e306, "beta * alpha_ms * 1000"),
            # No first service: both arms reported zero goodput, exit 0.
            ("coalescing.r_sn_pps", 1.0e-320, "1e6 / r_sn_pps (in us) must be finite"),
            # A finite first service (1e306 us) after the hard stop: the same.
            ("coalescing.r_sn_pps", 1.0e-300, "must come before the hard stop"),
            # Every forward delay (at least 9.1e11 us) past the hard stop:
            # the same, as no packet is fetched.
            ("fwd.alpha_ms", 1.0e9, "the earliest delay draw"),
            # Every reverse delay (at least 1e10 us) past the hard stop: no
            # ACK comes back, so both arms reported zero goodput, exit 0.
            ("rev.alpha_ms", 1.0e7, "the earliest ACK"),
        ],
    )
    def test_value_infinite_in_microseconds_exits_2(
        self, key, value, message, tiny_config, tmp_path, capsys, no_run
    ):
        # Finite in the file, but infinite once the run scales it to
        # microseconds (or, for the first service and the forward delay,
        # past the run's hard stop): a run that never ends, delays that
        # clamp to 0, or a run that fetches no packet.
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(with_key(key, value)), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        section = key.rpartition(".")[0] or key
        assert f"{section}: " in err and message in err and "Traceback" not in err
        args = ["sweep", str(tiny_config), "--param", key, "--values", repr(value)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{key}: " in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [5.0e-324, 1.0e-9, 9.99e-7])
    def test_duration_below_one_microsecond_exits_2(
        self, value, tiny_config, tmp_path, capsys, no_run
    ):
        # The run counts time in microseconds.  A shorter run still acks its
        # initial window in the drain, and bytes_acked / duration is inf
        # (5e-324) or absurd (1e-9 gave 1.448e+13 B/s).
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(with_key("duration", value)), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "duration: " in err and "microsecond" in err and "Traceback" not in err
        args = ["sweep", str(tiny_config), "--param", "duration", "--values", repr(value)]
        assert main(args) == 2
        assert "duration: " in capsys.readouterr().err
        with pytest.raises(ConfigError, match="duration"):
            ScenarioConfig(name="short", duration=value)

    def test_one_microsecond_duration_loads(self):
        assert ScenarioConfig(name="short", duration=1e-6).duration == 1e-6

    @pytest.mark.parametrize(
        "text, column",
        [
            (rows_to_csv(arm_rows(), CSV_COLUMNS[1:]), "scenario"),
            (rows_to_csv(arm_rows(goodput_proxy="abc")), "goodput_proxy"),
            (rows_to_csv(arm_rows(srpic="maybe")), "srpic"),
            (rows_to_csv(arm_rows(), CSV_COLUMNS[:4]), "dup_acks_in"),
            (with_column("note", 7), "note"),
            (with_column("pkts_retrans", 7), "pkts_retrans"),
        ],
        ids=[
            "no-scenario-column",
            "non-numeric",
            "unknown-arm",
            "no-metric-columns",
            "unknown-column",
            "repeated-column",
        ],
    )
    def test_compare_malformed_csv_exits_2(self, text, column, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv: line " in err and column in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "column, cell",
        [
            ("goodput_proxy", "inf"),
            ("goodput_proxy", "-inf"),
            ("goodput_proxy", "-2.5"),
            ("goodput_proxy", "-1e+200"),
            ("goodput_proxy", "-0"),
            ("pkts_retrans", "-5"),
            ("reorder_pre_ratio", "-0.5"),
            ("stream_id", "-1"),
            ("max_hold_delay_us", "nan"),
            ("mean_block_size", "1e400"),
            ("goodput_proxy", "2_5"),
            ("goodput_proxy", " 2.5"),
            ("goodput_proxy", "1e6"),
            ("pkts_retrans", "1_0"),
            ("pkts_retrans", " 5"),
            ("seed", "+5"),
            ("stream_id", "05"),
            pytest.param("dup_acks_in", str(10**400), id="dup_acks_in-10**400"),
        ],
    )
    def test_compare_rejects_cells_no_run_writes(self, column, cell, tmp_path, capsys):
        # A run writes finite numbers as format_value prints them, with no
        # sign except in a seed.  int() and float() also take "1_0" as 10,
        # " 5" as 5 and "1e6" for the "1e+06" a run writes, and a count
        # past 1e308 cannot be averaged as a float.
        path = tmp_path / "bad.csv"
        path.write_text(rows_to_csv(arm_rows(**{column: cell})), encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"bad.csv: line 2, column {column!r}: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "cells, metric",
        [
            ((0.0, 1e200), "goodput_proxy"),
            ((1.7e308, 1.7e308), "goodput_proxy"),
            ((1e-310, 1e-310), "pkts_retrans_per_goodput"),
        ],
    )
    def test_compare_overflowing_statistics_exit_2(self, cells, metric, tmp_path, capsys):
        # Finite goodput cells whose statistics overflow a float: a
        # deviation of 5e199 squared raised OverflowError, 1.7e308 summed printed inf, and a
        # count of 1 over 1e-310 is inf.
        rows = [
            row | {"seed": seed}
            for seed, cell in enumerate(cells, 1)
            for row in arm_rows(goodput_proxy=cell)
        ]
        path = tmp_path / "big.csv"
        path.write_text(rows_to_csv(rows), encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"scenario 'x', metric {metric!r}: " in err and "overflows" in err
        assert "Traceback" not in err

    def test_compare_overflowing_ratio_exits_2(self, tmp_path, capsys):
        # Finite means whose ratio overflows: 1e10 over 1e-300 printed inf.
        rows = [row | {"goodput_proxy": cell} for row, cell in zip(arm_rows(), (1e-300, 1e10))]
        path = tmp_path / "ratio.csv"
        path.write_text(rows_to_csv(rows), encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert "scenario 'x', metric 'goodput_proxy': " in err and "overflows" in err
        assert "Traceback" not in err

    def test_compare_zero_goodput_keeps_its_nan_ratios(self):
        summary = {e["metric"]: e for e in compare(arm_rows(goodput_proxy=0.0))}
        assert math.isnan(summary["goodput_proxy"]["ratio"])
        assert math.isnan(summary["pkts_retrans_per_goodput"]["baseline_mean"])

    def test_compare_undecodable_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"scenario,\xff\xfe\n")
        assert main(["compare", str(path)]) == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_compare_field_over_the_csv_size_limit_exits_2(self, tmp_path, capsys):
        # A run named with 200,000 characters; the process-wide field limit
        # (131,072 by default) is left as it is.
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text(rows_to_csv(arm_rows(scenario="x" * 200_000)), encoding="utf-8")
        assert main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert "long.csv: line 2: " in err and "field larger than field limit" in err
        assert csv.field_size_limit() == limit

    def test_compare_hand_made_rows(self, tmp_path, capsys):
        path = tmp_path / "ok.csv"
        path.write_text(rows_to_csv(arm_rows()), encoding="utf-8")
        assert main(["compare", str(path)]) == 0
        assert "goodput_proxy" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "count, message",
        # 10**20 seeds overflow a tuple's length before any is allocated.
        [("0", "seeds: "), (str(10**20), "too many seeds")],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_seed_count_zero_exits_2(self, command, count, message, tiny_config, capsys, no_run):
        args = [command, str(tiny_config), "--seed-count", count]
        if command == "sweep":
            args += ["--param", "beta", "--values", "0.01"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"--seed-count {count}: {message}" in err and "Traceback" not in err

    def test_sweep_over_a_section_names_it(self, tiny_config, capsys, no_run):
        with pytest.raises(ConfigError, match="^fwd: "):
            override_param(tiny_cfg(), "fwd", 1.0)
        args = ["sweep", str(tiny_config), "--param", "fwd", "--values", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error: fwd: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "param, value",
        [
            ("num_streams", "0"),
            ("nope", "1"),
            ("duration", "0"),
            ("fwd", "1"),
            ("fwd.drop_rate", "2"),
        ],
    )
    def test_sweep_error_names_its_key_once(self, param, value, tiny_config, capsys, no_run):
        # The loader's message already named some keys, and the sweep named
        # them again: "num_streams: num_streams: must be >= 1".
        args = ["sweep", str(tiny_config), "--param", param, "--values", value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count(param) == 1 and "Traceback" not in err, err

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
    # A bare ``import srpicsim`` loads no submodule; each public name and
    # each submodule in the export table loads on first use.
    code = """
import sys
before = set(sys.modules)
import srpicsim
added = set(sys.modules) - before
assert added == {"srpicsim"}, sorted(added)
exports = srpicsim._EXPORTS
assert srpicsim.__all__ == [name for names in exports.values() for name in names]
for module in exports:
    assert getattr(srpicsim, module) is sys.modules["srpicsim." + module], module
for name in srpicsim.__all__:
    module = sys.modules[getattr(srpicsim, name).__module__]
    assert getattr(srpicsim, name) is getattr(module, name), name
for module, name in (("scenario", "load_scenario"), ("packets", "seq_cmp")):
    marker = object()
    setattr(getattr(srpicsim, module), name, marker)
    assert getattr(srpicsim, name) is marker, f"{name} was cached"
try:
    srpicsim.nope
except AttributeError:
    pass
else:
    raise AssertionError("srpicsim.nope resolved")
import srpicsim.cli
heavy = sorted({"scipy", "numpy"} & set(sys.modules))
assert not heavy, heavy
"""
    env = os.environ | {"PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_config_names_are_the_config_modules():
    # Each section type and constant is defined once, in srpicsim.config,
    # and every module that used to define one hands out that object.
    from srpicsim import channel, coalescing, config, packets, sorter

    for module, names in (
        (channel, ("PathConfig",)),
        (coalescing, ("CoalescingParams",)),
        (sorter, ("DEFAULT_BLOCK_SIZE", "DEFAULT_RINGBUFFER_SIZE", "SEQ_MOD", "SEQ_HALF")),
        (packets, ("SEQ_MOD", "SEQ_HALF")),
        (scenario, ("PathConfig", "CoalescingParams", "SrpicSettings", "SEQ_MOD")),
    ):
        for name in names:
            assert getattr(module, name) is getattr(config, name), (module.__name__, name)


def test_scenario_layer_and_cli_load_no_tcp_loop():
    # compare reads a CSV and never runs a transfer, and a scenario's
    # sections are srpicsim.config's types, so the scenario layer and the
    # command line load the simulator (the TCP loop, the receive path, the
    # sorter, the channel and statistics, which it draws delays through,
    # the packets and the metrics) only in a run, and pickle, which carries
    # a forked arm's rows, too.  A run loads every simulator module.
    simulator = {
        "srpicsim.tcp", "srpicsim.channel", "srpicsim.coalescing", "srpicsim.sorter",
        "srpicsim.packets", "srpicsim.metrics", "statistics",
    }
    load = f"""
import sys
from dataclasses import replace
import srpicsim.cli, srpicsim.scenario
cfg = srpicsim.scenario.load_scenario({str(SCENARIO_DIR / "table4_analog.yaml")!r})
"""
    not_loaded = load + f"""
loaded = {sorted(simulator | {"pickle"})!r} & sys.modules.keys()
assert not loaded, sorted(loaded)
"""
    run = load + f"""
srpicsim.scenario.run_scenario(replace(cfg, duration=0.01, seeds=(1,)))
missing = {sorted(simulator)!r} - sys.modules.keys()
assert not missing, sorted(missing)
"""
    env = os.environ | {"PYTHONPATH": str(REPO / "src")}
    for code in (not_loaded, run):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
