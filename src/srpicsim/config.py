"""The section types a scenario file sets, with their defaults and range checks.

A scenario's ``fwd`` and ``rev`` sections are ``PathConfig``s, its
``coalescing`` section a ``CoalescingParams`` and its ``srpic`` section an
``SrpicSettings``.  Each type, and each constant they read, is defined
here once; the modules that use one import it from here, or ``tcp`` and
``metrics`` through ``packets``.  This module imports only ``math`` and
``dataclasses``, so loading a scenario loads none of the simulator's
modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# 32-bit TCP sequence space and half of it, the serial comparison's bound.
SEQ_MOD = 1 << 32
SEQ_HALF = 1 << 31

DEFAULT_BLOCK_SIZE = 32
DEFAULT_RINGBUFFER_SIZE = 512


@dataclass(frozen=True)
class PathConfig:
    """One direction of the emulated path."""

    alpha_ms: float = 2.5  # mean one-way delay
    beta: float = 0.0  # relative std-dev factor; std-dev = beta * alpha
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.alpha_ms < 0:
            raise ValueError("alpha_ms must be >= 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        # A draw is mean + x * std, |x| <= 8.21 for random() > 0: 9 std-devs bound it.
        mean_us = self.alpha_ms * 1000.0
        if not math.isfinite(mean_us + 9.0 * (self.beta * mean_us)):
            raise ValueError("alpha_ms * 1000 + 9 * beta * alpha_ms * 1000 (in us) must be finite")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")

    @property
    def earliest_us(self) -> float:
        """The earliest delay draw, in us: 9 std-devs below the mean, bar a
        random() of exactly 0.0 (odds 2**-53), and never below 0."""
        return max(0.0, self.alpha_ms * 1000.0 * (1.0 - 9.0 * self.beta))


@dataclass(frozen=True)
class CoalescingParams:
    """Receive-path timing constants.

    ``t_intr_us``: hardware interrupt dispatch+service delay before the
    drain starts.  ``r_sn_pps``: softirq packet service rate.
    """

    t_intr_us: float = 100.0
    r_sn_pps: float = 1e5

    def __post_init__(self):
        if self.r_sn_pps <= 0:
            raise ValueError("r_sn_pps must be > 0")
        if self.t_intr_us < 0:
            raise ValueError("t_intr_us must be >= 0")
        if not math.isfinite(self.t_intr_us + self.quantum_us):
            raise ValueError("t_intr_us + 1e6 / r_sn_pps (in us) must be finite")

    @property
    def quantum_us(self) -> float:
        return 1e6 / self.r_sn_pps


@dataclass(frozen=True)
class SrpicSettings:
    block_size: int = DEFAULT_BLOCK_SIZE
    ringbuffer_size: int = DEFAULT_RINGBUFFER_SIZE

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.ringbuffer_size < self.block_size:
            raise ValueError("ringbuffer_size must be >= block_size")
