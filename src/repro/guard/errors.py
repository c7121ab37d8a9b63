"""Typed guard failures and their diagnostic bundles.

This module is a dependency leaf: the core pipeline raises these from its
hot loop and the CLI maps them to exit codes, so nothing here may import
the pipeline, the harness, or the engines.  Each exception carries a
report dataclass whose ``to_dict()`` is the JSON "diagnostic bundle" the
``guard`` CLI verb writes on failure.

The snapshot helpers at the bottom duck-type against a live ``Core`` so a
report can be assembled at the exact cycle of the failure without this
module knowing the core's types.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "DivergenceError", "DivergenceReport", "GuardError", "HangReport",
    "InvariantReport", "InvariantViolation", "SimulationHang",
    "pipeline_snapshot", "recent_events",
]


@dataclass
class DivergenceReport:
    """First architectural disagreement between commit and the golden model."""

    cycle: int
    kind: str                     # "pc" | "reg_value" | "load_value" | ...
    expected: str                 # golden-model view
    actual: str                   # pipeline view
    uop: str                      # repr of the diverging uop
    pc: int
    seq: int
    golden_pc: int
    golden_retired: int
    checked: int                  # instructions compared before this one
    events: List[Dict] = field(default_factory=list)   # last-N obs events
    threads: List[Dict] = field(default_factory=list)  # pipeline snapshot
    # Rewind-and-replay bundle: when the run carried mid-run snapshots,
    # the harness re-runs from the preceding snapshot with full pipeline
    # tracing and attaches the focused diagnostics here (see
    # ``repro.harness.simulator``).  None when no snapshot was available.
    replay: Optional[Dict] = None

    def to_dict(self) -> Dict:
        doc = {
            "failure": "divergence",
            "cycle": self.cycle,
            "kind": self.kind,
            "expected": self.expected,
            "actual": self.actual,
            "uop": self.uop,
            "pc": f"{self.pc:#x}",
            "seq": self.seq,
            "golden_pc": f"{self.golden_pc:#x}",
            "golden_retired": self.golden_retired,
            "checked": self.checked,
            "events": self.events,
            "threads": self.threads,
        }
        if self.replay is not None:
            doc["replay"] = self.replay
        return doc

    def summary(self) -> str:
        return (f"divergence[{self.kind}] at cycle {self.cycle}, "
                f"pc={self.pc:#x}: expected {self.expected}, "
                f"got {self.actual} ({self.checked} instructions matched)")


@dataclass
class InvariantReport:
    """Cycle-level sanitizer failure: structural invariants that broke."""

    cycle: int
    violations: List[str]
    events: List[Dict] = field(default_factory=list)
    threads: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "failure": "invariant",
            "cycle": self.cycle,
            "violations": list(self.violations),
            "events": self.events,
            "threads": self.threads,
        }

    def summary(self) -> str:
        head = self.violations[0] if self.violations else "?"
        more = f" (+{len(self.violations) - 1} more)" if len(self.violations) > 1 else ""
        return f"invariant violation at cycle {self.cycle}: {head}{more}"


@dataclass
class HangReport:
    """No-commit livelock: the main thread stopped retiring instructions."""

    cycle: int
    last_commit_cycle: int
    stalled_for: int
    retired: int
    idle_cycles_skipped: int
    engine: str                   # engine class name
    events: List[Dict] = field(default_factory=list)
    threads: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "failure": "hang",
            "cycle": self.cycle,
            "last_commit_cycle": self.last_commit_cycle,
            "stalled_for": self.stalled_for,
            "retired": self.retired,
            "idle_cycles_skipped": self.idle_cycles_skipped,
            "engine": self.engine,
            "events": self.events,
            "threads": self.threads,
        }

    def summary(self) -> str:
        return (f"no commit for {self.stalled_for} cycles "
                f"(last at cycle {self.last_commit_cycle}, "
                f"{self.retired} retired, engine {self.engine})")


class GuardError(RuntimeError):
    """Base class for guard failures; ``report`` is the diagnostic bundle."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())


class DivergenceError(GuardError):
    """Commit disagreed with the golden in-order model."""


class InvariantViolation(GuardError):
    """A structural pipeline invariant broke mid-flight."""


class SimulationHang(GuardError):
    """The forward-progress watchdog fired: no-commit livelock."""


# ----------------------------------------------------------------------
# Snapshot helpers (duck-typed against a live Core).
# ----------------------------------------------------------------------
def pipeline_snapshot(core) -> List[Dict]:
    """Per-thread pipeline occupancy at the failure cycle."""
    out: List[Dict] = []
    for t in core.threads:
        rob_head: Optional[str] = repr(t.rob[0]) if t.rob else None
        out.append({
            "thread": t.id,
            "kind": t.kind.value,
            "retired": t.retired,
            "rob": len(t.rob),
            "rob_head": rob_head,
            "frontend_q": len(t.frontend_q),
            "lq": len(t.lq.entries),
            "sq": len(t.sq.entries),
            "fetch_halted": t.fetch_halted,
            "wait_for_moves": t.wait_for_moves,
            "resume_pc": f"{t.resume_pc:#x}",
        })
    return out


def recent_events(core, limit: int = 32) -> List[Dict]:
    """The last ``limit`` observability events (empty when obs is off)."""
    if core.obs is None:
        return []
    events = core.obs.events.events()[-limit:]
    return [{"cycle": e.cycle, "name": e.name, "category": e.category,
             "args": dict(e.args)} for e in events]
