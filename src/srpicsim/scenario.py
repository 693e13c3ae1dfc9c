"""Declarative experiment scenarios: YAML config, paired runs, CSV, summaries.

A scenario names a channel/sender/receive-path configuration plus a seed
list.  Running it executes every seed twice — sorter off and sorter on —
with identical channel randomness (paired design) and emits one CSV row
per stream per seed per arm.  Output is byte-stable: fixed column order,
fixed row order, floats printed with 6 significant digits.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Iterable

import yaml
from scipy import stats

from .channel import PathConfig
from .coalescing import CoalescingParams
from .packets import SEQ_MOD
from .tcp import run_transfer


class ConfigError(ValueError):
    """Scenario configuration is invalid; message names the offending key."""


@dataclass(frozen=True)
class SrpicSettings:
    enabled: bool = True
    block_size: int = 32
    ringbuffer_size: int = 512


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    duration: float  # simulated seconds
    num_streams: int = 1
    fwd: PathConfig = field(default_factory=PathConfig)
    rev: PathConfig = field(default_factory=lambda: PathConfig(beta=0.0))
    sender_mode: str = "static"  # "static" | "adaptive"
    sack_enabled: bool = False
    srpic: SrpicSettings = field(default_factory=SrpicSettings)
    coalescing: CoalescingParams = field(
        default_factory=lambda: CoalescingParams(t_intr_us=100.0, r_sn_pps=1e5)
    )
    seeds: tuple[int, ...] = (1,)
    max_cwnd: int = 64
    segment_spacing_us: float = 12.0
    isn: int = 0  # initial sequence number of every stream

    def validate(self) -> None:
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
        if self.srpic.block_size < 1:
            raise ConfigError("srpic.block_size: must be >= 1")
        if self.srpic.ringbuffer_size < self.srpic.block_size:
            raise ConfigError("srpic.ringbuffer_size: must be >= srpic.block_size")
        if self.max_cwnd < 2:
            raise ConfigError("max_cwnd: must be >= 2")
        if self.segment_spacing_us <= 0:
            raise ConfigError("segment_spacing_us: must be > 0")
        if not 0 <= self.isn < SEQ_MOD:
            raise ConfigError("isn: must be in [0, 2**32)")
        for label, path in (("fwd", self.fwd), ("rev", self.rev)):
            try:
                PathConfig(
                    alpha_ms=path.alpha_ms,
                    beta=path.beta,
                    drop_rate=path.drop_rate,
                    seed=path.seed,
                )
            except ValueError as exc:
                raise ConfigError(f"{label}: {exc}") from exc


_PATH_KEYS = {"alpha_ms", "beta", "drop_rate"}
_SRPIC_KEYS = {"enabled", "block_size", "ringbuffer_size"}
_COALESCING_KEYS = {"t_intr_us", "r_sn_pps"}
_TOP_KEYS = {
    "name",
    "duration",
    "num_streams",
    "fwd",
    "rev",
    "sender_mode",
    "sack_enabled",
    "srpic",
    "coalescing",
    "seeds",
    "max_cwnd",
    "segment_spacing_us",
    "isn",
}


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def scenario_from_mapping(doc: dict[str, Any]) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a mapping of scenario fields")
    _check_keys(doc, _TOP_KEYS, "top level")
    try:
        fwd_doc = dict(doc.get("fwd", {}))
        rev_doc = dict(doc.get("rev", {}))
        srpic_doc = dict(doc.get("srpic", {}))
        coal_doc = dict(doc.get("coalescing", {}))
    except TypeError as exc:
        raise ConfigError(f"section must be a mapping: {exc}") from exc
    _check_keys(fwd_doc, _PATH_KEYS, "fwd")
    _check_keys(rev_doc, _PATH_KEYS, "rev")
    _check_keys(srpic_doc, _SRPIC_KEYS, "srpic")
    _check_keys(coal_doc, _COALESCING_KEYS, "coalescing")

    try:
        cfg = ScenarioConfig(
            name=str(doc.get("name", "")),
            duration=float(doc.get("duration", 0.0)),
            num_streams=int(doc.get("num_streams", 1)),
            fwd=PathConfig(**fwd_doc),
            rev=PathConfig(**{"beta": 0.0, **rev_doc}),
            sender_mode=str(doc.get("sender_mode", "static")),
            sack_enabled=bool(doc.get("sack_enabled", False)),
            srpic=SrpicSettings(**srpic_doc),
            coalescing=CoalescingParams(
                **{"t_intr_us": 100.0, "r_sn_pps": 1e5, **coal_doc}
            ),
            seeds=tuple(int(s) for s in doc.get("seeds", (1,))),
            max_cwnd=int(doc.get("max_cwnd", 64)),
            segment_spacing_us=float(doc.get("segment_spacing_us", 12.0)),
            isn=_coerce("isn", "int", doc.get("isn", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


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
    """Return a validated copy of ``cfg`` with one (possibly nested) field replaced.

    ``beta`` and ``delta`` are shorthands for ``fwd.beta`` and
    ``fwd.drop_rate``.  The value is coerced to the field's declared type;
    an integer field rejects a value with a fractional part.
    """
    aliases = {"beta": "fwd.beta", "delta": "fwd.drop_rate"}
    dotted = aliases.get(param, param)
    section_name, _, leaf = dotted.rpartition(".")
    owner = getattr(cfg, section_name, None) if section_name else cfg
    field_types = {f.name: f.type for f in fields(owner)} if is_dataclass(owner) else {}
    if leaf not in field_types:
        raise ConfigError(f"sweep parameter {param!r} is not a scenario field")
    coerced = _coerce(param, field_types[leaf], value)
    try:
        updated = replace(owner, **{leaf: coerced})
    except ValueError as exc:  # a section's own range check
        raise ConfigError(f"{param}: {exc}") from exc
    out = replace(cfg, **{section_name: updated}) if section_name else updated
    out.validate()
    return out


_SWEEPABLE = {"float": float, "int": int, "bool": bool}


def _coerce(param: str, declared, value: float):
    kind = declared if isinstance(declared, str) else getattr(declared, "__name__", "")
    if kind not in _SWEEPABLE:
        raise ConfigError(f"sweep parameter {param!r} is not numeric and cannot be swept")
    try:
        coerced = _SWEEPABLE[kind](value)
    except (OverflowError, ValueError):
        coerced = None
    if coerced is None or coerced != value:
        raise ConfigError(f"{param}: {value!r} is not a valid {kind}")
    return coerced


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


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_scenario(cfg: ScenarioConfig) -> list[dict]:
    """Execute all seeds of a scenario, paired sorter-off/sorter-on, and
    return one row dict per stream per seed per arm."""
    cfg.validate()
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
    rows.sort(key=lambda r: (r["scenario"], r["seed"], r["stream_id"], r["srpic"]))
    return rows


def rows_to_csv(rows: Iterable[dict], columns: list[str] | None = None) -> str:
    columns = columns or CSV_COLUMNS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for raw in reader:
        row: dict[str, Any] = {}
        for key, value in raw.items():
            if key in ("scenario", "srpic"):
                row[key] = value
            elif key in _FLOAT_COLUMNS:
                row[key] = float(value)
            else:
                row[key] = int(value)
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


def _mean_ci(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    if var == 0.0:
        return mean, 0.0
    half = float(stats.t.ppf(0.975, n - 1)) * math.sqrt(var / n)
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
