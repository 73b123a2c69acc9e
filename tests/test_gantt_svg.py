"""The Gantt SVG writer against a copy of its previous, self-contained implementation.

``fileio.write_gantt_svg`` computes each bar's geometry once and takes the text
that depends only on the row count, or only on one row, from a ``fragments``
map that charts drawn together share. ``reference_gantt_svg`` below is the
writer as it was before: every chart, whatever map it shares and in whatever
order the charts are drawn, must come out byte for byte as the reference
draws it.
"""

import random

import pytest

from gridrestore import GanttChart, GanttEntry, fileio
from gridrestore.network import node_key

_PALETTE = ("#e6194b", "#3c89d0", "#3cb44b", "#9334e6", "#f58231",
            "#46c8c8", "#d4a017", "#911eb4", "#800000", "#2f6f4f")


def _nice_step(span_h):
    for step in (0.5, 1, 2, 4, 6, 12, 24, 48, 96):
        if span_h / step <= 12:
            return float(step)
    return max(1.0, span_h / 12.0)


def _xml_text(value):
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def reference_gantt_svg(chart, title="Crew schedule"):
    """The text the writer wrote before it shared fragments between charts."""
    rows = sorted({(e.node_id, e.crew) for e in chart.entries},
                  key=lambda t: (node_key(t[0]), t[1]))
    scenario_ids = sorted({e.scenario_id for e in chart.entries})
    row_index = {rc: i for i, rc in enumerate(rows)}
    labels = {node: _xml_text(node) for node, _ in rows}
    lane_of = {sid: lane for lane, sid in enumerate(scenario_ids)}
    lane_count = max(1, len(scenario_ids))

    ml, mr, mt, mb = 180.0, 24.0, 48.0, 34.0
    row_h = 22.0
    span = max(chart.makespan_h, 1e-9)
    plot_w = 760.0
    width = ml + plot_w + mr
    height = mt + row_h * max(1, len(rows)) + mb

    def x(t):
        return ml + (t / span) * plot_w

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="monospace" font-size="11">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{ml:.1f}" y="20" font-size="14">{_xml_text(title)}</text>',
    ]
    step = _nice_step(span)
    t = 0.0
    while t <= span + 1e-9:
        xx = x(min(t, span))
        out.append(
            f'<line x1="{xx:.2f}" y1="{mt:.2f}" x2="{xx:.2f}" '
            f'y2="{height - mb:.2f}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{height - mb + 14:.2f}" text-anchor="middle">{t:g}h</text>'
        )
        t += step
    for (node, crew), idx in row_index.items():
        y0 = mt + idx * row_h
        out.append(
            f'<text x="{ml - 8:.1f}" y="{y0 + row_h * 0.7:.2f}" '
            f'text-anchor="end">{labels[node]} crew{crew}</text>'
        )
    lane_h = (row_h - 6.0) / lane_count
    for e in chart.entries:
        idx = row_index[(e.node_id, e.crew)]
        lane = lane_of[e.scenario_id]
        y0 = mt + idx * row_h + 3.0 + lane * lane_h
        color = _PALETTE[e.scenario_id % len(_PALETTE)]
        bar_w = max(x(e.finish_h) - x(e.start_h), 0.5)
        out.append(
            f'<rect x="{x(e.start_h):.2f}" y="{y0:.2f}" width="{bar_w:.2f}" '
            f'height="{max(lane_h - 1.0, 1.0):.2f}" fill="{color}">'
            f'<title>s{e.scenario_id} {labels[e.node_id]} crew{e.crew}: '
            f'{e.start_h:.2f}-{e.finish_h:.2f}h</title></rect>'
        )
    for lane, sid in enumerate(scenario_ids):
        color = _PALETTE[sid % len(_PALETTE)]
        lx = ml + 110.0 * lane
        out.append(f'<rect x="{lx:.1f}" y="30" width="10" height="10" fill="{color}"/>')
        out.append(f'<text x="{lx + 14:.1f}" y="39">scenario {sid}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


IDS = {
    "int": [0, 7, 12, 40, 300, -3],
    "str": ["r1c2", "a10", "a9", "b", "é", "A&B"],
    "mixed": [3, "3", 20, "20", "a", -1],
    "markup": ["a&b", "<n>", "x>y", "&amp;", 5, "q\"'"],
}


def random_chart(rnd, ids, n_scenarios, span, *, zero_share=0.2, sort=True):
    """A chart over ``ids`` of ``n_scenarios`` scenarios whose bars end by ``span`` h;
    about ``zero_share`` of the bars have no length."""
    entries = []
    for sid in sorted(rnd.sample(range(5 * n_scenarios + 3), n_scenarios)):
        for node in rnd.sample(ids, rnd.randint(1, min(3, len(ids)))):
            for crew in sorted(rnd.sample(range(4), rnd.randint(1, 4))):
                start = rnd.uniform(0.0, span)
                finish = start if rnd.random() < zero_share else rnd.uniform(start, span)
                entries.append(GanttEntry(sid, node, crew, start, finish))
    if sort:
        return GanttChart.from_entries(entries)
    rnd.shuffle(entries)  # a chart built directly need not be sorted
    return GanttChart(tuple(entries), max(e.finish_h for e in entries))


def written(tmp_path, chart, title, **kwargs):
    path = tmp_path / "chart.svg"
    fileio.write_gantt_svg(chart, path, title, **kwargs)
    return path.read_bytes()


@pytest.mark.parametrize("kind", sorted(IDS))
@pytest.mark.parametrize("n_scenarios", [1, 7, 8, 800])
def test_random_charts_equal_the_reference(tmp_path, kind, n_scenarios):
    rnd = random.Random(f"{kind}:{n_scenarios}")
    fragments = {}
    for trial in range(2 if n_scenarios == 800 else 6):
        span = rnd.choice((0.3, 5.0, 40.0, 700.0, 5000.0))
        chart = random_chart(rnd, IDS[kind], n_scenarios, span, sort=trial % 2 == 0)
        title = rnd.choice(("Crew schedule", f"scenario {trial}", "a <b> & c"))
        expected = reference_gantt_svg(chart, title).encode("utf-8")
        assert written(tmp_path, chart, title) == expected
        assert written(tmp_path, chart, title, fragments=fragments) == expected


@pytest.mark.parametrize("span", [1e-6, 0.2, 0.49, 0.5, 1152.0, 1152.5, 2e4])
def test_spans_across_every_grid_step(tmp_path, span):
    """Spans under 0.5 h take the finest step; spans past 12 x 96 h take
    ``_nice_step``'s fallback."""
    rnd = random.Random(repr(span))
    chart = random_chart(rnd, IDS["mixed"], 3, span, zero_share=0.0)
    chart = GanttChart(chart.entries, span)  # the makespan is the span itself
    assert written(tmp_path, chart, "t") == reference_gantt_svg(chart, "t").encode()


def test_zero_length_bars_and_the_empty_chart(tmp_path):
    zero = GanttChart.from_entries([GanttEntry(0, "n", 0, 2.0, 2.0),
                                    GanttEntry(0, "n", 1, 0.0, 0.0)])
    empty = GanttChart.from_entries([])
    everything_zero = GanttChart.from_entries([GanttEntry(3, 4, 2, 0.0, 0.0)])
    fragments = {}
    for chart in (zero, empty, everything_zero, empty, zero):
        expected = reference_gantt_svg(chart).encode()
        assert written(tmp_path, chart, "Crew schedule") == expected
        assert written(tmp_path, chart, "Crew schedule", fragments=fragments) == expected


@pytest.mark.parametrize("order", ["as-drawn", "reversed"])
def test_one_map_shared_across_rows_and_titles(tmp_path, order):
    """Charts of different row counts, rows and titles drawn with one map, in both
    orders, each equal the reference; a row index met again with another label does
    not take the first one's text."""
    rnd = random.Random(11)
    charts = [random_chart(rnd, IDS[kind], n, rnd.choice((0.4, 9.0, 3000.0)))
              for kind in sorted(IDS) for n in (1, 1, 2, 9)]
    charts.append(GanttChart.from_entries([]))
    titles = [f"Crew schedule, scenario {i} & <{i}>" for i in range(len(charts))]
    drawn = list(zip(charts, titles))
    if order == "reversed":
        drawn.reverse()
    assert len({len({(e.node_id, e.crew) for e in c.entries}) for c in charts}) > 3
    fragments = {}
    for chart, title in drawn:
        assert (written(tmp_path, chart, title, fragments=fragments)
                == reference_gantt_svg(chart, title).encode("utf-8"))
    assert fragments
