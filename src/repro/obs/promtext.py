"""Prometheus text exposition for the campaign daemon's ``/metrics``.

:func:`prom_line` renders one sample in the Prometheus `text exposition
format`__; :func:`render_prometheus` joins pre-rendered samples into the
document.  Booleans render as 0/1.

__ https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from typing import Dict, Iterable, Optional

__all__ = ["prom_line", "render_prometheus"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def prom_line(name: str, value, labels: Optional[Dict[str, str]] = None
              ) -> str:
    """One exposition sample line; ``name`` must already be sanitized."""
    label_part = ""
    if labels:
        inner = ",".join(f'{k}="{_escape_label(v)}"'
                         for k, v in sorted(labels.items()))
        label_part = "{" + inner + "}"
    if isinstance(value, bool):
        value = int(value)
    return f"{name}{label_part} {value}"


def render_prometheus(lines: Iterable[str]) -> str:
    """The exposition document for pre-rendered sample lines; it ends
    with a newline, as the format requires."""
    return "\n".join(lines) + "\n"
