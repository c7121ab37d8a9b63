"""Hierarchical metric registry (counters, gauges, histograms, providers).

Components register metrics under dotted names (``phelps.queues.0x118.
consumed``) instead of stuffing ad-hoc dicts into :class:`SimStats`.  Two
registration styles:

* **owned instruments** — ``registry.counter("core.full_squashes")``
  returns a :class:`Counter` the component holds and increments on its hot
  path;
* **providers** — ``registry.register_provider("memory", fn)`` pulls a flat
  ``{suffix: value}`` dict lazily at snapshot time.  This is the preferred
  style for counters that already live on a component as plain attributes:
  the simulation hot path stays untouched and the registry only pays at
  epoch boundaries / end of run.

The disabled path is a :class:`NullRegistry` whose instruments are shared
no-op singletons, so guarded call sites cost one attribute test.
"""

import weakref
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "WeakProvider",
    "flatten",
]


def flatten(obj, prefix: str = "") -> Dict[str, object]:
    """Flatten nested dicts into dotted names; ints used as keys (branch
    PCs) are rendered as hex so names stay greppable across runs."""
    out: Dict[str, object] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            name = f"{key:#x}" if isinstance(key, int) else str(key)
            path = f"{prefix}.{name}" if prefix else name
            out.update(flatten(value, path))
        return out
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        out[prefix] = obj
        return out
    if isinstance(obj, (list, tuple)):
        out[prefix] = list(obj)
        return out
    # Stats dataclasses (e.g. CacheStats) flatten via their public fields.
    public = {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    if public:
        return flatten(public, prefix)
    out[prefix] = str(obj)
    return out


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def get(self):
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (queue occupancy, active helper count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def dec(self, n: int = 1) -> None:
        self.value -= n

    def get(self):
        return self.value


class Histogram:
    """Summary statistics over observed values (count/sum/min/max).

    Keeps no per-sample storage — cheap enough to leave on in sampling
    paths, rich enough for latency-style metrics.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def get(self) -> Dict[str, float]:
        return {"count": self.count, "sum": self.total, "mean": self.mean,
                "min": self.min if self.min is not None else 0,
                "max": self.max if self.max is not None else 0}


class WeakProvider:
    """A provider that reads its owner (the core, an engine, the guard)
    through a weak proxy: live values while the owner lives, the last
    values read once it is freed (every run ends with a registry
    snapshot, so those are final)."""

    __slots__ = ("owner", "read", "last")

    def __init__(self, owner, read: Callable[[object], Dict]):
        self.owner = weakref.proxy(owner)
        self.read = read
        self.last: Dict = {}

    def __call__(self) -> Dict:
        try:
            self.last = self.read(self.owner)
        except ReferenceError:
            pass
        return self.last


class MetricsRegistry:
    """Name -> instrument map plus lazily-pulled providers."""

    enabled = True

    def __init__(self):
        self._instruments: Dict[str, object] = {}
        self._providers: List = []  # (prefix, callable)

    # ------------------------------------------------------------ create
    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    def _instrument(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        elif type(inst) is not cls:
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(inst).__name__}")
        return inst

    def register_provider(self, prefix: str,
                          fn: Callable[[], Dict[str, object]]) -> None:
        """``fn`` returns a (possibly nested) dict pulled at snapshot time
        and flattened under ``prefix``."""
        self._providers.append((prefix, fn))

    # ------------------------------------------------------------- query
    def value(self, name: str, default=0):
        """Current value of one metric, searching owned instruments first,
        then providers (snapshot-priced — meant for sampling, not hot
        paths)."""
        inst = self._instruments.get(name)
        if inst is not None:
            return inst.get()
        return self.snapshot().get(name, default)

    def snapshot(self) -> Dict[str, object]:
        """Flat ``{dotted.name: value}`` of every instrument and provider."""
        out: Dict[str, object] = {}
        for name, inst in self._instruments.items():
            out[name] = inst.get()
        for prefix, fn in self._providers:
            out.update(flatten(fn(), prefix))
        return out

    def tree(self) -> Dict[str, object]:
        """The snapshot re-nested by dotted-name segments (for pretty
        printing)."""
        root: Dict[str, object] = {}
        for name, value in sorted(self.snapshot().items()):
            node = root
            parts = name.split(".")
            for part in parts[:-1]:
                nxt = node.setdefault(part, {})
                if not isinstance(nxt, dict):  # leaf/name collision
                    nxt = node[part] = {"": nxt}
                node = nxt
            node[parts[-1]] = value
        return root


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"

    def inc(self, n: int = 1) -> None:
        pass

    def dec(self, n: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def get(self):
        return 0


_NULL = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """Fast path for observability-off runs: every instrument is the same
    inert singleton and snapshots are empty."""

    enabled = False

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL  # type: ignore[return-value]

    gauge = counter  # type: ignore[assignment]
    histogram = counter  # type: ignore[assignment]

    def register_provider(self, prefix, fn) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {}
