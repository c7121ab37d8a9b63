"""Plain-text rendering of experiment results (the benches' output)."""

from typing import Dict, Iterable, List, Optional, Sequence


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width table with a header rule.

    Tolerates ragged rows: short rows are padded with empty cells, extra
    cells beyond the header count are kept and get their own width.
    """
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i >= len(widths):
                widths.append(0)
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        padded = list(cells) + [""] * (len(widths) - len(cells))
        return "  ".join(c.ljust(w) for c, w in zip(padded, widths)).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def speedup(entry: Dict, baseline: Dict) -> Optional[float]:
    """Instruction-rate ratio of two result entries (robust to slightly
    different retire counts); None when the baseline retired nothing."""
    base_rate = baseline["retired"] / max(baseline["cycles"], 1)
    rate = entry["retired"] / max(entry["cycles"], 1)
    return rate / base_rate if base_rate else None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_series(name: str, points: Dict) -> str:
    """One figure series as ``name: k1=v1 k2=v2 ...``."""
    body = " ".join(f"{k}={_fmt(v)}" for k, v in points.items())
    return f"{name}: {body}"


def bar(value: float, scale: float = 40.0, maximum: float = 2.0) -> str:
    """A crude ASCII bar for eyeballing figure shapes in bench output.

    Negative/zero values render empty; a non-positive ``maximum`` is
    treated as degenerate rather than dividing by zero.
    """
    if maximum <= 0:
        return ""
    n = max(0, int(value / maximum * scale))
    return "#" * min(n, int(scale * 2))


# ----------------------------------------------------------------------
# Observability rendering (the ``stats`` CLI verb and bench reports).
# ----------------------------------------------------------------------
def metrics_report(metrics: Dict[str, object], prefix: str = "") -> str:
    """Aligned ``name  value`` lines for a flat dotted-name snapshot,
    optionally filtered to one subtree."""
    if prefix:
        items = [(k, v) for k, v in metrics.items()
                 if k == prefix or k.startswith(prefix + ".")]
    else:
        items = list(metrics.items())
    if not items:
        return "(no metrics)"
    items.sort()
    width = max(len(k) for k, _ in items)
    return "\n".join(f"{k.ljust(width)}  {_fmt(v)}" for k, v in items)


def epoch_table(samples: List[Dict], columns: Optional[Sequence[str]] = None) -> str:
    """The per-epoch timeseries as an ascii table.

    Default columns are the core trajectory; any watched counter present
    in at least one sample is appended automatically.
    """
    if not samples:
        return "(no epoch samples)"
    base = ["epoch", "cycles", "retired", "ipc", "mpki"]
    if columns is None:
        extras = sorted({k for s in samples for k in s}
                        - set(base) - {"mispredicts", "cum_mpki"})
        columns = base + extras
    rows = [[s.get(c, "") for c in columns] for s in samples]
    return ascii_table(list(columns), rows)
