"""Declarative experiment scenarios: YAML config, paired runs, CSV, summaries.

A scenario names a channel/sender/receive-path configuration plus a seed
list.  Running it executes every seed twice — sorter off and sorter on —
with identical channel randomness (paired design) and emits one CSV row
per stream per seed per arm.  Output is byte-stable: fixed column order,
fixed row order, floats printed with 6 significant digits.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Iterable

import yaml

from .channel import PathConfig
from .coalescing import CoalescingParams
from .packets import SEQ_MOD
from .sorter import DEFAULT_BLOCK_SIZE, DEFAULT_RINGBUFFER_SIZE
from .tcp import run_transfer


class ConfigError(ValueError):
    """Scenario configuration is invalid; message names the offending key."""


@dataclass(frozen=True)
class SrpicSettings:
    block_size: int = DEFAULT_BLOCK_SIZE
    ringbuffer_size: int = DEFAULT_RINGBUFFER_SIZE

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.ringbuffer_size < self.block_size:
            raise ValueError("ringbuffer_size must be >= block_size")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    duration: float  # simulated seconds
    num_streams: int = 1
    fwd: PathConfig = field(default_factory=PathConfig)
    rev: PathConfig = field(default_factory=PathConfig)
    sender_mode: str = "static"  # "static" | "adaptive"
    sack_enabled: bool = False
    srpic: SrpicSettings = field(default_factory=SrpicSettings)
    coalescing: CoalescingParams = field(default_factory=CoalescingParams)
    seeds: tuple[int, ...] = (1,)
    max_cwnd: int = 64
    segment_spacing_us: float = 12.0
    isn: int = 0  # initial sequence number of every stream

    def __post_init__(self):
        if not self.name:
            raise ConfigError("name: must be a nonempty string")
        if self.duration <= 0:
            raise ConfigError("duration: must be > 0 seconds")
        if self.num_streams < 1:
            raise ConfigError("num_streams: must be >= 1")
        if not self.seeds:
            raise ConfigError("seeds: must be a nonempty list")
        if self.sender_mode not in ("static", "adaptive"):
            raise ConfigError("sender_mode: must be 'static' or 'adaptive'")
        if self.max_cwnd < 2:
            raise ConfigError("max_cwnd: must be >= 2")
        if self.segment_spacing_us <= 0:
            raise ConfigError("segment_spacing_us: must be > 0")
        if not 0 <= self.isn < SEQ_MOD:
            raise ConfigError("isn: must be in [0, 2**32)")


# The section fields of ScenarioConfig and their defaults.  A scenario's
# section starts from the default and replaces the keys the file sets.
_SECTIONS = {
    f.name: f.default_factory()
    for f in fields(ScenarioConfig)
    if f.default_factory is not MISSING
}
_ALIASES = {"beta": "fwd.beta", "delta": "fwd.drop_rate"}
_SCALARS = {"float": float, "int": int, "bool": bool, "str": str}


def _settable(cls) -> dict[str, str]:
    """The keys a scenario may set on a config dataclass, with their
    declared types.  ``PathConfig.seed`` is not one: the run derives each
    path's seed from the scenario seed, the stream and the direction."""
    return {
        f.name: f.type for f in fields(cls) if not (cls is PathConfig and f.name == "seed")
    }


def _coerce(key: str, declared: str, value):
    """Return ``value`` as the declared type of ``key``, exactly.

    An int takes no fractional part, a bool is true/false (or 1/0), a
    float is finite and a str is a string; anything else is a ConfigError.
    """
    if declared == "tuple[int, ...]":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: {value!r} is not a list of integers")
        return tuple(_coerce(key, "int", v) for v in value)
    if declared not in _SCALARS:
        raise ConfigError(f"{key}: is a section, not a single value")
    try:
        coerced = _SCALARS[declared](value)
    except (OverflowError, TypeError, ValueError):
        coerced = None
    if (
        coerced is None
        or coerced != value
        or (isinstance(value, bool) and declared != "bool")
        or (declared == "float" and not math.isfinite(coerced))
    ):
        raise ConfigError(f"{key}: {value!r} is not a valid {declared}")
    return coerced


def _replace(key: str, section, changes: dict):
    try:
        return replace(section, **changes)
    except ValueError as exc:  # the section's own range check
        raise ConfigError(f"{key}: {exc}") from exc


def _coerce_mapping(doc, cls, where: str) -> dict[str, Any]:
    """The keyword arguments for ``cls`` that one mapping of a scenario
    file sets, each value through ``_coerce``; sections recurse."""
    label = where or "top level"
    if not isinstance(doc, dict):
        raise ConfigError(f"{label}: expected a mapping")
    declared = _settable(cls)
    unknown = sorted(str(key) for key in doc if key not in declared)
    if unknown:
        raise ConfigError(f"{label}: unknown key(s) {unknown}")
    values = {}
    for key, value in doc.items():
        if cls is ScenarioConfig and key in _SECTIONS:
            section = _SECTIONS[key]
            values[key] = _replace(key, section, _coerce_mapping(value, type(section), key))
        else:
            values[key] = _coerce(f"{where}.{key}" if where else key, declared[key], value)
    return values


def scenario_from_mapping(doc: dict[str, Any]) -> ScenarioConfig:
    """Build a validated scenario from a parsed YAML mapping.

    Keys, types and defaults are the fields of ``ScenarioConfig`` and of
    its section dataclasses; an omitted key takes the field's default.
    """
    values = _coerce_mapping(doc, ScenarioConfig, "")
    try:
        return ScenarioConfig(**values)
    except TypeError as exc:  # name or duration is missing
        raise ConfigError(f"top level: {exc}") from exc


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario YAML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else path
        raise ConfigError(f"{where}: invalid YAML: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return scenario_from_mapping(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def override_param(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return a validated copy of ``cfg`` with one (possibly dotted) key set.

    ``beta`` and ``delta`` are shorthands for ``fwd.beta`` and
    ``fwd.drop_rate``.  The keys and the type rule are those of
    ``scenario_from_mapping``.
    """
    section, _, leaf = _ALIASES.get(param, param).rpartition(".")
    owner = _SECTIONS.get(section) if section else cfg
    declared = _settable(type(owner)) if owner is not None else {}
    if leaf not in declared:
        raise ConfigError(f"sweep parameter {param!r} is not a scenario field")
    coerced = _coerce(param, declared[leaf], value)
    if not section:
        return replace(cfg, **{leaf: coerced})
    return replace(cfg, **{section: _replace(param, getattr(cfg, section), {leaf: coerced})})


# ---------------------------------------------------------------------------
# Running and CSV emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "scenario",
    "seed",
    "stream_id",
    "srpic",
    "goodput_proxy",
    "pkts_retrans",
    "dup_acks_in",
    "sack_blocks_rcvd",
    "reorder_pre_count",
    "reorder_pre_ratio",
    "reorder_pre_max_extent",
    "reorder_post_count",
    "reorder_post_ratio",
    "reorder_post_max_extent",
    "mean_block_size",
    "max_hold_delay_us",
]

_FLOAT_COLUMNS = {
    "goodput_proxy",
    "reorder_pre_ratio",
    "reorder_post_ratio",
    "mean_block_size",
    "max_hold_delay_us",
}


def format_value(value) -> str:
    """One CSV cell: a float to 6 significant digits, anything else as str."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def row_key(row: dict) -> tuple:
    """The CSV row order: scenario, seed, stream, arm."""
    return (row["scenario"], row["seed"], row["stream_id"], row["srpic"])


def run_scenario(cfg: ScenarioConfig) -> list[dict]:
    """Execute all seeds of a scenario, paired sorter-off/sorter-on, and
    return one row dict per stream per seed per arm."""
    rows: list[dict] = []
    for seed in cfg.seeds:
        for srpic_on in (False, True):
            result = run_transfer(cfg, seed=seed, srpic=srpic_on)
            for sid, m in enumerate(result.streams):
                rows.append(
                    {
                        "scenario": cfg.name,
                        "seed": seed,
                        "stream_id": sid,
                        "srpic": "on" if srpic_on else "off",
                        "goodput_proxy": m.goodput_proxy,
                        "pkts_retrans": m.pkts_retrans,
                        "dup_acks_in": m.dup_acks_in,
                        "sack_blocks_rcvd": m.sack_blocks_rcvd,
                        "reorder_pre_count": m.reorder_pre.reordered_count,
                        "reorder_pre_ratio": m.reorder_pre.ratio,
                        "reorder_pre_max_extent": m.reorder_pre.max_extent,
                        "reorder_post_count": m.reorder_post.reordered_count,
                        "reorder_post_ratio": m.reorder_post.ratio,
                        "reorder_post_max_extent": m.reorder_post.max_extent,
                        "mean_block_size": m.mean_block_size,
                        "max_hold_delay_us": m.max_hold_delay_us,
                    }
                )
    rows.sort(key=row_key)
    return rows


def rows_to_csv(rows: Iterable[dict], columns: list[str] | None = None) -> str:
    columns = columns or CSV_COLUMNS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(row[c]) for c in columns])
    return buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    """Read a run CSV back into typed rows.

    A missing column, a value that does not parse and an arm other than
    ``on``/``off`` are ConfigErrors naming the line and the column.
    """
    reader = csv.DictReader(io.StringIO(text), restval="")
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"line 1: missing column(s) {missing}")
    rows = []
    for raw in reader:
        if None in raw:
            raise ConfigError(f"line {reader.line_num}: more fields than columns")
        row: dict[str, Any] = {}
        for key, value in raw.items():
            try:
                if key == "srpic" and value not in ("on", "off"):
                    raise ValueError(f"{value!r} is not on/off")
                if key in ("scenario", "srpic"):
                    row[key] = value
                elif key in _FLOAT_COLUMNS:
                    row[key] = float(value)
                else:
                    row[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"line {reader.line_num}, column {key!r}: {exc}") from exc
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Paired comparison summaries
# ---------------------------------------------------------------------------

_COMPARE_METRICS = [
    "goodput_proxy",
    "pkts_retrans",
    "dup_acks_in",
    "sack_blocks_rcvd",
    "reorder_pre_count",
    "reorder_post_count",
    "reorder_pre_max_extent",
    "reorder_post_max_extent",
    "mean_block_size",
    "max_hold_delay_us",
    "pkts_retrans_per_goodput",
    "dup_acks_in_per_goodput",
    "sack_blocks_rcvd_per_goodput",
]

COMPARE_COLUMNS = [
    "scenario",
    "metric",
    "n_pairs",
    "baseline_mean",
    "baseline_ci95",
    "srpic_mean",
    "srpic_ci95",
    "diff_mean",
    "diff_ci95",
    "ratio",
]


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), by the modified Lentz
    evaluation of its continued fraction (Numerical Recipes, 6.4), for
    0 < x < 1."""
    if x > (a + 1.0) / (a + b + 2.0):  # the fraction converges fast only below this
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 3e-16:  # a few ulps of 1.0
            break
    else:
        raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    return math.exp(log_front) * h / a


_CI_TAIL = 0.025  # upper-tail mass of the two-sided 95% interval


@functools.cache
def _t_quantile(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` degrees of freedom:
    bisection on the upper tail 0.5 * I_{df/(df+t^2)}(df/2, 1/2) down to
    adjacent floats."""
    def tail(t):
        return 0.5 * _betainc(df / 2.0, 0.5, df / (df + t * t))

    lo, hi = 0.0, 1.0
    while tail(hi) > _CI_TAIL:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if tail(mid) > _CI_TAIL:
            lo = mid
        else:
            hi = mid


def _mean_ci(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    if var == 0.0:
        return mean, 0.0
    half = _t_quantile(n - 1) * math.sqrt(var / n)
    return mean, half


def _metric_value(row: dict, metric: str) -> float:
    if metric.endswith("_per_goodput"):
        base = metric[: -len("_per_goodput")]
        g = row["goodput_proxy"]
        return row[base] / g if g else float("nan")
    return float(row[metric])


def compare(rows: list[dict]) -> list[dict]:
    """Per-scenario paired means, 95% confidence intervals, and
    sorter/baseline ratios for every metric.

    ``diff_mean``/``diff_ci95`` describe the paired per-seed difference
    (sorter minus baseline); a difference interval excluding zero is the
    paired-design evidence that the ratio differs from one.
    """
    by_scenario: dict[str, dict[str, dict]] = {}
    for row in rows:
        arms = by_scenario.setdefault(row["scenario"], {"off": {}, "on": {}})
        key = (row["seed"], row["stream_id"])
        arm = arms[row["srpic"]]
        if key in arm:
            raise ConfigError(
                f"duplicate row for scenario={row['scenario']} seed/stream={key}"
            )
        arm[key] = row

    out: list[dict] = []
    for scenario in sorted(by_scenario):
        arms = by_scenario[scenario]
        if set(arms["off"]) != set(arms["on"]):
            raise ConfigError(
                f"scenario {scenario!r}: baseline and srpic rows are not paired"
            )
        keys = sorted(arms["off"])
        if not keys:
            continue
        for metric in _COMPARE_METRICS:
            base_vals = [_metric_value(arms["off"][k], metric) for k in keys]
            srpic_vals = [_metric_value(arms["on"][k], metric) for k in keys]
            b_mean, b_ci = _mean_ci(base_vals)
            s_mean, s_ci = _mean_ci(srpic_vals)
            d_mean, d_ci = _mean_ci([s - b for s, b in zip(srpic_vals, base_vals)])
            ratio = s_mean / b_mean if b_mean else float("nan")
            out.append(
                {
                    "scenario": scenario,
                    "metric": metric,
                    "n_pairs": len(keys),
                    "baseline_mean": b_mean,
                    "baseline_ci95": b_ci,
                    "srpic_mean": s_mean,
                    "srpic_ci95": s_ci,
                    "diff_mean": d_mean,
                    "diff_ci95": d_ci,
                    "ratio": ratio,
                }
            )
    return out
