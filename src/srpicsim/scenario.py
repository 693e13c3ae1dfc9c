"""Declarative experiment scenarios: YAML config, paired runs, CSV, summaries.

A scenario names a channel/sender/receive-path configuration plus a seed
list.  Running it executes every seed twice — sorter off and sorter on —
with identical channel randomness (paired design), the off arms in one
forked child beside the on arms where another CPU allows, and emits one
CSV row per stream per seed per arm.  Output is byte-stable: fixed column
order, fixed row order, floats printed with 6 significant digits.

``_COLUMNS`` states the run CSV once: column order, cell parsers and the
metric each column prints.  ``parse_csv`` accepts only what a run writes.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import threading
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from operator import attrgetter
from typing import Any, Iterable

import yaml

from .channel import PathConfig
from .coalescing import CoalescingParams, SimulationError
from .packets import SEQ_MOD
from .sorter import DEFAULT_BLOCK_SIZE, DEFAULT_RINGBUFFER_SIZE


# A run stops this long after ``duration``: the drain, in which data
# already sent is still delivered and acknowledged.
DRAIN_GRACE_US = 2_000_000.0


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
        if self.duration * 1e6 < 1:
            raise ConfigError("duration: must be at least 1e-6 seconds, one simulated microsecond")
        if not math.isfinite(self.duration * 1e6):
            raise ConfigError("duration: duration * 1e6 (the run length in us) must be finite")
        # The first ACK can reach the sender no earlier than the forward
        # path's earliest delay draw, the first service and the reverse
        # path's earliest draw; at or after the hard stop, no byte is acked.
        terms = {
            "fwd": self.fwd.earliest_us,
            "coalescing": self.coalescing.t_intr_us + self.coalescing.quantum_us,
            "rev": self.rev.earliest_us,
        }
        stop_us = self.hard_stop_us
        first_ack_us = sum(terms.values())
        if first_ack_us >= stop_us:
            fwd_us, service_us, rev_us = terms.values()
            raise ConfigError(
                f"{max(terms, key=terms.get)}: the earliest ACK, fwd's earliest delay draw + the first"
                f" service + rev's earliest delay draw = {fwd_us:g} + {service_us:g} + {rev_us:g} ="
                f" {first_ack_us:g} us, must come before the hard stop, duration * 1e6 +"
                f" {DRAIN_GRACE_US:g} = {stop_us:g} us (the first service is t_intr_us + 1e6 /"
                " r_sn_pps, and the earliest delay draw is alpha_ms * 1000 * (1 - 9 * beta))"
            )
        if self.num_streams < 1:
            raise ConfigError("num_streams: must be >= 1")
        if not self.seeds:
            raise ConfigError("seeds: must be a nonempty list")
        repeated = sorted(s for s, n in Counter(self.seeds).items() if n > 1)
        if repeated:
            raise ConfigError(f"seeds: {repeated} repeated; each seed runs once")
        if self.sender_mode not in ("static", "adaptive"):
            raise ConfigError("sender_mode: must be 'static' or 'adaptive'")
        if self.max_cwnd < 2:
            raise ConfigError("max_cwnd: must be >= 2")
        if self.segment_spacing_us <= 0:
            raise ConfigError("segment_spacing_us: must be > 0")
        if not 0 <= self.isn < SEQ_MOD:
            raise ConfigError("isn: must be in [0, 2**32)")

    @property
    def hard_stop_us(self) -> float:
        """The instant a run stops: ``duration`` plus the drain, in us."""
        return self.duration * 1e6 + DRAIN_GRACE_US


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

    An int is integral and converts to a float, a bool is true/false (or
    1/0), a float is finite and a str is a string; else a ConfigError.
    """
    if declared == "tuple[int, ...]":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: {value!r} is not a list of integers")
        return tuple(_coerce(key, "int", v) for v in value)
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
    if declared == "int":
        try:
            float(coerced)  # a run scales some ints as floats
        except OverflowError:
            raise ConfigError(f"{key}: is too large to convert to a float") from None
    return coerced


def _coerce_mapping(doc, cls, where: str, base=None) -> dict[str, Any]:
    """The keyword arguments for ``cls`` that one scenario mapping sets,
    each through ``_coerce``; a section recurses from ``base``'s or the default."""
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
            section = _SECTIONS[key] if base is None else getattr(base, key)
            changes = _coerce_mapping(value, type(section), key)
            try:
                values[key] = replace(section, **changes)
            except ValueError as exc:  # the section's own range check
                raise ConfigError(f"{key}: {exc}") from exc
        else:
            values[key] = _coerce(f"{where}.{key}" if where else key, declared[key], value)
    return values


def scenario_from_mapping(doc: dict[str, Any], base=None) -> ScenarioConfig:
    """Build a validated scenario from a parsed YAML mapping.

    Keys and types are the fields of ``ScenarioConfig`` and its section
    dataclasses; an omitted key keeps ``base``'s value, else its default.
    """
    values = _coerce_mapping(doc, ScenarioConfig, "", base)
    try:
        return ScenarioConfig(**values) if base is None else replace(base, **values)
    except TypeError as exc:  # name or duration is missing
        raise ConfigError(f"top level: {exc}") from exc


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a key repeated within one mapping,
    where the plain loader would keep the last value."""

    def construct_mapping(self, node, deep=False):
        seen = []
        for key_node, _value in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=True)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"repeated key {key!r}", key_node.start_mark
                )
            seen.append(key)
        return super().construct_mapping(node, deep=deep)


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario YAML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else path
        raise ConfigError(f"{where}: invalid YAML: {exc}") from exc
    except (OSError, ValueError) as exc:  # not UTF-8, or a value YAML cannot build
        raise ConfigError(f"{path}: {exc}") from exc
    except RecursionError:  # PyYAML composes nested nodes recursively
        raise ConfigError(f"{path}: nesting too deep") from None
    try:
        return scenario_from_mapping(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def override_param(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return a validated copy of ``cfg`` with one (possibly dotted) key set.

    ``beta`` and ``delta`` are shorthands for ``fwd.beta`` and
    ``fwd.drop_rate``.  The key is read as a one-key scenario mapping laid
    over ``cfg`` by ``scenario_from_mapping``; its errors name ``param``
    once, so a message that already names it is left as it is.
    """
    section, _, leaf = _ALIASES.get(param, param).rpartition(".")
    doc = {section: {leaf: value}} if section else {leaf: value}
    try:
        return scenario_from_mapping(doc, cfg)
    except ConfigError as exc:
        if str(exc).startswith(f"{param}:") or repr(param) in str(exc):
            raise
        raise ConfigError(f"{param}: {exc}") from exc


# ---------------------------------------------------------------------------
# Running and CSV emission
# ---------------------------------------------------------------------------

def _number(parse, cell: str, signed: bool = False):
    """``parse(cell)`` if ``format_value`` writes that value as ``cell``,
    it is finite and, unless ``signed``, it has no minus sign (so no
    ``-0`` either); an int too large for the float that compare averages
    it as fails the finiteness test with an OverflowError."""
    value = parse(cell)
    if format_value(value) != cell or not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number as a run writes it")
    if not signed and cell.startswith("-"):
        raise ValueError(f"{cell!r} has a minus sign, which a run writes only in a seed")
    return value


_int, _float = functools.partial(_number, int), functools.partial(_number, float)
_seed = functools.partial(_number, int, signed=True)  # a file may list negative seeds


def _arm(cell: str) -> str:
    if cell not in ("on", "off"):
        raise ValueError(f"{cell!r} is not on/off")
    return cell


# The run CSV in column order: each cell's parser and the ``TransferMetrics``
# attribute the column prints (none for the four that name the run).
_COLUMNS = {
    "scenario": (str, None),
    "seed": (_seed, None),
    "stream_id": (_int, None),
    "srpic": (_arm, None),
    "goodput_proxy": (_float, "goodput_proxy"),
    "pkts_retrans": (_int, "pkts_retrans"),
    "dup_acks_in": (_int, "dup_acks_in"),
    "sack_blocks_rcvd": (_int, "sack_blocks_rcvd"),
    "reorder_pre_count": (_int, "reorder_pre.reordered_count"),
    "reorder_pre_ratio": (_float, "reorder_pre.ratio"),
    "reorder_pre_max_extent": (_int, "reorder_pre.max_extent"),
    "reorder_post_count": (_int, "reorder_post.reordered_count"),
    "reorder_post_ratio": (_float, "reorder_post.ratio"),
    "reorder_post_max_extent": (_int, "reorder_post.max_extent"),
    "mean_block_size": (_float, "mean_block_size"),
    "max_hold_delay_us": (_float, "max_hold_delay_us"),
}
CSV_COLUMNS = list(_COLUMNS)
_METRIC_VALUES = attrgetter(*(attr for _, attr in _COLUMNS.values() if attr))


def format_value(value) -> str:
    """One CSV cell: a float to 6 significant digits, anything else as str."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def row_key(row: dict) -> tuple:
    """The CSV row order: scenario, seed, stream, arm."""
    return (row["scenario"], row["seed"], row["stream_id"], row["srpic"])


def _child_cpus() -> set[int]:
    """The CPUs a forked child may run the sorter-off arms on: those this
    process may use, bar the one it runs on now.  Empty, so the arms run
    serially, where ``os.fork`` is missing, another thread runs (the child
    would copy any lock it holds), or either set cannot be read."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return set()
    try:
        with open("/proc/self/stat", "rb") as fh:
            now = int(fh.read().rsplit(b")", 1)[1].split()[36])  # field 39, processor
        return os.sched_getaffinity(0) - {now}
    except (AttributeError, OSError, IndexError, ValueError):
        return set()


def _start_child(arm_rows, cpus: set[int]) -> tuple[int, int]:
    """Fork a child that runs ``arm_rows()`` and writes the pickled pair
    ``(ok, rows or exception)`` to a pipe; return its pid and the pipe's
    read end.  An exception that does not pickle and load back travels as
    a ``RuntimeError`` of its repr.  The child leaves only through
    ``os._exit``, so it never returns into the caller's stack, runs no
    ``atexit`` hook and flushes no stdio buffer it inherited.

    The child confines itself to ``cpus``.  Linux may start a forked
    child on its parent's CPU and leave the two sharing it for much of an
    arm, which made a paired run take anywhere from the longer arm's time
    to both arms' time."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: leak no descriptor
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:  # placement only: run wherever the child is
            pass
        try:
            data = pickle.dumps((True, arm_rows()))
        except BaseException as exc:
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)  # some exceptions pickle but do not load
            except BaseException:
                data = pickle.dumps((False, RuntimeError(repr(exc))))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _child_rows(pid: int, read_fd: int) -> list[dict]:
    """Read the child's rows, or raise its error, after reaping it."""
    import pickle

    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SimulationError(f"the sorter-off arm's process ended with no result, exit status {code}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def run_scenario(*cfgs: ScenarioConfig) -> list[dict]:
    """Execute all seeds of each scenario, paired sorter-off/sorter-on, and
    return one row dict per stream per seed per arm, sorted by ``row_key``.

    The two arms share no state.  Where ``_child_cpus()`` is nonempty, one
    forked child pinned to those CPUs runs the sorter-off arm of every
    seed of every scenario while the caller runs the sorter-on arms, so a
    replacement installed in the caller sees every call of the sorter arm;
    otherwise every off arm of every scenario runs, then every on arm.
    So one call forks at most once, however many scenarios it runs.  The
    rows are the same either way, and so is the error: the off arm's
    wins, as it comes first in a serial run.  The child is reaped before
    this returns or raises.
    """
    from . import tcp  # the TCP loop loads only for a run

    def arm_rows(arm: str) -> list[dict]:
        return [dict(zip(CSV_COLUMNS, (cfg.name, seed, sid, arm, *_METRIC_VALUES(m))))
                for cfg in cfgs
                for seed in cfg.seeds
                for sid, m in enumerate(tcp.run_transfer(cfg, seed=seed, srpic=arm == "on"))]

    cpus = _child_cpus()
    if not cpus:
        rows = arm_rows("off") + arm_rows("on")
    else:
        rows = []
        child = _start_child(functools.partial(arm_rows, "off"), cpus)
        try:
            rows += arm_rows("on")
        finally:
            rows += _child_rows(*child)
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

    A missing, unknown or repeated column, and a cell that its column's
    parser rejects, are ConfigErrors naming the line and the column.
    """
    reader = csv.DictReader(io.StringIO(text), restval="")
    try:
        records = [(reader.line_num, raw) for raw in reader]
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        # The DictReader's own count stops at the last row it returned.
        raise ConfigError(f"line {reader.reader.line_num}: {exc}") from exc
    header = reader.fieldnames or []
    for problem, names in (
        ("missing", [c for c in CSV_COLUMNS if c not in header]),
        ("unknown", [c for c in header if c not in _COLUMNS]),
        ("repeated", [c for c, n in Counter(header).items() if n > 1]),
    ):
        if names:
            raise ConfigError(f"line 1: {problem} column(s) {names}")
    rows = []
    for line, raw in records:
        if None in raw:
            raise ConfigError(f"line {line}: more fields than columns")
        row: dict[str, Any] = {}
        for key, cell in raw.items():
            try:
                row[key] = _COLUMNS[key][0](cell)
            except (OverflowError, ValueError) as exc:
                raise ConfigError(f"line {line}, column {key!r}: {exc}") from exc
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


_CI_TAIL = 0.025  # upper-tail mass of the two-sided 95% interval


def _t_tail(t: float, df: int) -> float:
    """P(T > t) for t >= 0 under Student's t with ``df`` degrees of freedom,
    from the finite series for P(|T| <= t) in theta = atan(t / sqrt(df))
    (Abramowitz & Stegun 26.7.3 for odd df, 26.7.4 for even df)."""
    theta = math.atan(t / math.sqrt(df))
    odd = df % 2
    cos2 = math.cos(theta) ** 2
    term, total = (math.cos(theta) if odd else 1.0), 0.0
    for j in range(1, df // 2 + 1):  # the df // 2 terms, in powers of cos2
        total += term
        term *= cos2 * (2 * j - 1 + odd) / (2 * j + odd)
    series = math.sin(theta) * total
    within = 2.0 / math.pi * (theta + series) if odd else series  # P(|T| <= t)
    return 0.5 * (1.0 - within)


@functools.cache
def _t_quantile(df: int) -> float:
    """The 0.975 quantile of Student's t with ``df`` degrees of freedom:
    bisection on ``_t_tail`` down to adjacent floats."""
    lo, hi = 0.0, 1.0
    while _t_tail(hi, df) > _CI_TAIL:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _t_tail(mid, df) > _CI_TAIL:
            lo = mid
        else:
            hi = mid


def _mean_ci(values: list[float]) -> tuple[float, float]:
    """Mean and 95% half-width; both nan if a value is (a count over a
    zero goodput)."""
    n = len(values)
    mean = sum(values) / n
    half = 0.0
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        if var != 0.0:
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
        keys = sorted(arms["off"])  # nonempty: a row named the scenario
        for metric in _COMPARE_METRICS:
            base_vals = [_metric_value(arms["off"][k], metric) for k in keys]
            srpic_vals = [_metric_value(arms["on"][k], metric) for k in keys]
            diffs = [s - b for s, b in zip(srpic_vals, base_vals)]
            # A zero goodput (a nan value) or a zero baseline mean (a nan
            # ratio) makes a nan, never an infinity, and finite values make
            # no other nan.  So an infinite value or statistic, or the
            # OverflowError of a square, is the one sign of overflow.
            try:
                b_mean, b_ci = _mean_ci(base_vals)
                s_mean, s_ci = _mean_ci(srpic_vals)
                d_mean, d_ci = _mean_ci(diffs)
                ratio = s_mean / b_mean if b_mean else float("nan")
                stats = (b_mean, b_ci, s_mean, s_ci, d_mean, d_ci, ratio)
                if any(map(math.isinf, (*base_vals, *srpic_vals, *diffs, *stats))):
                    raise OverflowError
            except OverflowError:
                raise ConfigError(
                    f"scenario {scenario!r}, metric {metric!r}: a value or statistic overflows"
                ) from None
            out.append(dict(zip(COMPARE_COLUMNS, (scenario, metric, len(keys), *stats))))
    return out
