"""Interface between the core pipeline and a pre-execution engine.

Phelps (``repro.phelps.controller``) and Branch Runahead
(``repro.runahead.controller``) implement this; the baseline core uses
:class:`NullEngine`.  The pipeline calls these hooks at well-defined
points; the engine may in turn drive core-level actions (full squash,
re-partitioning, spawning helper thread contexts) through the ``core``
reference it is given at attach time.  The engine keeps that reference as
a weak proxy: the core owns its engine, so a strong back-edge would make
every core a reference cycle that outlives its last user.
"""

import pickle
import weakref
from typing import Any, Optional, Tuple

from repro.core.uop import Uop
from repro.core.thread import ThreadContext
from repro.obs.metrics import WeakProvider


class PreExecutionEngine:
    """Default no-op engine."""

    # Observability events handle; left as the class-level None on
    # observability-off runs so subclass attributes are never clobbered.
    events = None

    def attach(self, core) -> None:
        """Called once when the engine is installed on a core.

        ``self.core`` becomes a weak proxy to ``core``.  If the core
        carries an observability hub, the engine registers its metric
        providers and keeps a direct events handle (``self.events`` is
        None on observability-off runs — call sites must guard)."""
        self.core = weakref.proxy(core)
        hub = getattr(core, "obs", None)
        if hub is not None:
            self.events = hub.events
            self._register_metrics(hub.registry)

    def _register_metrics(self, registry) -> None:
        """Default wiring: the engine's ``stats()`` dict, flattened under
        ``engine.*``.  Engines add finer-grained providers on top, each a
        :class:`WeakProvider`, so a kept registry holds no engine."""
        registry.register_provider("engine",
                                   WeakProvider(self, lambda e: e.stats()))

    # ------------------------------------------------------------ fetch
    def fetch_override(self, thread: ThreadContext, inst) -> Optional[Tuple[bool, Any]]:
        """Prediction-queue override for a conditional branch fetched by the
        main thread.  Returns (taken, token) to override the default
        predictor, or None to fall through.  The token is stored on the uop
        and handed back at retire for accuracy accounting."""
        return None

    def note_fetched(self, thread: ThreadContext, uop: Uop) -> None:
        """Called for every fetched uop *after* next-PC selection (used to
        advance spec_head on loop-branch fetch)."""

    # ---------------------------------------------------------- recovery
    def checkpoint(self) -> Any:
        """Snapshot engine speculative state (spec_head pointer sets)."""
        return None

    def restore(self, state: Any) -> None:
        """Restore a snapshot taken by :meth:`checkpoint`."""

    def on_squash(self, thread: ThreadContext, uop: Uop) -> None:
        """Called once per squashed uop (resource reclamation hooks)."""

    def note_refetched(self, thread: ThreadContext, uop: Uop) -> None:
        """After a conditional-branch misprediction recovery: the engine's
        checkpoint has been restored; re-apply this branch's own effect on
        speculative pointers (e.g. loop-branch spec_head advance)."""

    def on_helper_branch_mispredicted(self, thread: ThreadContext, uop: Uop) -> None:
        """A helper thread's conditional branch resolved against its
        fetch-time prediction (the wrongly-fetched-ahead instructions were
        just squashed).  The engine redirects the helper's fetch unit."""

    # ------------------------------------------------------------ retire
    def retire_blocked(self, thread: ThreadContext, uop: Uop) -> bool:
        """Backpressure hook checked before retiring the ROB head: a helper
        thread's loop branch stalls when its prediction-queue column ring is
        full, and an outer thread's header predicate stalls when the Visit
        Queue is full."""
        return False

    def on_retire(self, thread: ThreadContext, uop: Uop) -> None:
        """Called for every retired uop, after architectural effects.

        This is where Phelps trains the DBT/CDFSM/IBDA structures, deposits
        predicate-producer outcomes, advances queue tails, triggers and
        terminates helper threads."""

    # ------------------------------------------------------------- cycle
    def on_cycle(self, cycle: int) -> None:
        """Called once per simulated cycle (engine-internal bookkeeping)."""

    def idle_skip(self, cycle: int, limit: int) -> int:
        """Fast-path negotiation for the core's event-driven idle skip.

        The core has proven that every tick in ``[cycle, limit)`` would be
        an architectural no-op apart from ``on_cycle``.  Return how many of
        those cycles may be skipped (``0 .. limit - cycle``), accounting any
        per-cycle bookkeeping as if :meth:`on_cycle` had run for each
        skipped cycle.  Engines that override :meth:`on_cycle` without
        overriding this hook get the conservative answer (no skip), so
        cycle-exactness holds for third-party engines by default.
        """
        if type(self).on_cycle is not PreExecutionEngine.on_cycle:
            return 0
        return limit - cycle

    # --------------------------------------------------------- snapshots
    def quiesce(self) -> None:
        """Bring the engine to a snapshot-safe state.

        Called by the core before a mid-run snapshot is taken: the engine
        must end any in-flight helper-thread deployment (its normal
        termination path, so the perturbation is an event the engine
        already models) and leave only state that :meth:`warm_state` can
        carry across a process boundary."""

    def warm_state(self) -> bytes:
        """Serialize the engine's warm state (training tables, counters).

        The default covers any engine whose ``__dict__`` is picklable
        apart from the attach-time handles; engines holding closures over
        live objects override this to strip and re-wire them."""
        return pickle.dumps({k: v for k, v in self.__dict__.items()
                             if k not in ("core", "events")})

    def restore_warm(self, payload: Optional[bytes]) -> None:
        """Adopt warm state from :meth:`warm_state` after :meth:`attach`.

        Mutates ``self.__dict__`` in place so metric providers registered
        at attach time (closures over ``self``) stay valid."""
        if payload is None:
            return
        self.__dict__.update(pickle.loads(payload))

    # ------------------------------------------------------------- stats
    def stats(self) -> dict:
        return {}


class NullEngine(PreExecutionEngine):
    """Explicit alias for the baseline (no pre-execution) core."""
