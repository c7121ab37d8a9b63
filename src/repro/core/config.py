"""Core configuration (paper Table III) and partition plans (Table I)."""

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict


@dataclass
class CoreConfig:
    """Superscalar core parameters.

    Defaults are the paper's principal configuration: an A14-class machine
    with an 8-wide frontend, 11-stage pipeline, and a 632-entry ROB
    (divisible by 8 for partitioning).
    """

    fetch_width: int = 8
    retire_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 8
    pipeline_stages: int = 11  # fetch to retire
    rob_size: int = 632
    prf_size: int = 696
    lq_size: int = 144
    sq_size: int = 144
    iq_size: int = 128
    lanes_simple: int = 4
    lanes_mem: int = 2
    lanes_complex: int = 2
    store_forward_latency: int = 2
    # Predicate machinery (Section V-H).
    pred_prf_size: int = 128
    pred_fl_size: int = 97
    # TAGE-SC-L / BTB handled by frontend objects; oracle mode for perfBP.
    perfect_branch_prediction: bool = False
    # Event-driven idle-cycle skipping in :meth:`Core.run`: when the whole
    # machine is provably quiescent (no issue/dispatch/retire/fetch work
    # possible) the clock jumps to the next scheduled writeback/ifetch-ready
    # event instead of ticking idle cycles one by one.  Cycle-exact with the
    # naive loop (see docs/simulator-internals.md "Performance"); disable to
    # cross-check.
    enable_cycle_skip: bool = True
    # Simulation health (repro.guard).  ``guard_level`` selects the
    # checking depth: "off" (default, ~0% overhead), "commit" (golden-model
    # co-simulation at every main-thread retire), or "full" (commit checks
    # plus a structural invariant sweep every ``guard_check_interval``
    # cycles).  ``watchdog_cycles`` is the no-commit livelock threshold:
    # if that many cycles pass without a main-thread retire the run raises
    # ``SimulationHang`` instead of spinning to ``max_cycles``; 0 disables.
    guard_level: str = "off"
    guard_check_interval: int = 1
    watchdog_cycles: int = 1_000_000

    def __post_init__(self):
        if self.rob_size % 8:
            raise ValueError("rob_size must be divisible by 8 for partitioning")
        if self.guard_level not in ("off", "commit", "full"):
            raise ValueError(f"guard_level must be off/commit/full, "
                             f"got {self.guard_level!r}")
        if self.guard_check_interval < 1:
            raise ValueError("guard_check_interval must be >= 1")
        if self.watchdog_cycles < 0:
            raise ValueError("watchdog_cycles must be >= 0 (0 disables)")

    @property
    def frontend_latency(self) -> int:
        """Cycles from fetch to rename/dispatch (pipeline depth minus the
        dispatch/issue/execute/writeback/retire backend stages)."""
        return max(1, self.pipeline_stages - 5)

    def scaled(self) -> "CoreConfig":
        """A smaller core for fast unit/integration tests."""
        return replace(self, rob_size=64, prf_size=96, lq_size=24, sq_size=24, iq_size=32)

    def with_window(self, rob: int) -> "CoreConfig":
        """Commensurately resize PRF/LQ/SQ/IQ with the ROB (Fig. 15a sweeps)."""
        scale = Fraction(rob, self.rob_size)
        return replace(
            self,
            rob_size=rob,
            prf_size=int(self.prf_size * scale) // 8 * 8,
            lq_size=max(8, int(self.lq_size * scale) // 8 * 8),
            sq_size=max(8, int(self.sq_size * scale) // 8 * 8),
            iq_size=max(8, int(self.iq_size * scale) // 8 * 8),
        )


# Fractions from Table I.  Keys are thread roles.
_PARTITIONS: Dict[str, Dict[str, Fraction]] = {
    "MT_ONLY": {"MT": Fraction(1)},
    "MT_ITO": {"MT": Fraction(1, 2), "ITO": Fraction(1, 2)},
    "MT_OT_IT": {"MT": Fraction(1, 2), "OT": Fraction(1, 8), "IT": Fraction(3, 8)},
}


@dataclass
class PartitionShare:
    """Resolved per-thread resource allocation."""

    fetch_width: int
    dispatch_width: int
    retire_width: int
    rob: int
    prf_quota: int
    lq: int
    sq: int


class PartitionPlan:
    """Resolves Table I fractions against a :class:`CoreConfig`.

    ``mode`` is one of ``MT_ONLY``, ``MT_ITO``, ``MT_OT_IT``.  Width shares
    are rounded to at least 1; capacity shares use exact fractions (the
    paper sizes the ROB divisible by 8 precisely so these are integral).
    """

    def __init__(self, config: CoreConfig, mode: str = "MT_ONLY"):
        if mode not in _PARTITIONS:
            raise ValueError(f"unknown partition mode {mode!r}")
        self.config = config
        self.mode = mode
        self.fractions = _PARTITIONS[mode]

    def share(self, role: str) -> PartitionShare:
        frac = self.fractions.get(role)
        if frac is None:
            raise ValueError(f"role {role!r} not active in mode {self.mode}")
        cfg = self.config

        def width(total: int) -> int:
            return max(1, int(total * frac))

        def capacity(total: int) -> int:
            return max(1, int(total * frac))

        return PartitionShare(
            fetch_width=width(cfg.fetch_width),
            dispatch_width=width(cfg.dispatch_width),
            retire_width=width(cfg.retire_width),
            rob=capacity(cfg.rob_size),
            prf_quota=capacity(cfg.prf_size),
            lq=capacity(cfg.lq_size),
            sq=capacity(cfg.sq_size),
        )

    def roles(self):
        return list(self.fractions)
