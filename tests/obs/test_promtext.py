"""Prometheus text exposition of the daemon's sample lines."""

from repro.obs.promtext import prom_line, render_prometheus


def test_prom_line_labels_and_escaping():
    assert prom_line("m", 3) == "m 3"
    assert prom_line("m", True) == "m 1"
    line = prom_line("m", 1, {"status": 'do"ne', "b": "x"})
    assert line == 'm{b="x",status="do\\"ne"} 1'


def test_extra_lines_appended():
    extra = [prom_line("repro_campaign_points", 4, {"status": "done"})]
    text = render_prometheus(extra)
    assert 'repro_campaign_points{status="done"} 4' in text


def test_valid_exposition_shape():
    """Every non-comment line must be `name[{labels}] value` with a
    parseable float value — the format scrapers actually check."""
    lines = [prom_line("repro_x_y", 1), prom_line("repro_z", 1.5),
             prom_line("repro_w", False, {"worker": "a"})]
    text = render_prometheus(lines)
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        float(value)
        assert name[0].isalpha() or name[0] == "_"
    assert render_prometheus([]) == "\n"
