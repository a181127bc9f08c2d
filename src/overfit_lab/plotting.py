"""Static SVG plots of experiment aggregates.

Hand-rolled emitter so the output is byte-deterministic: no timestamps, no
random ids, fixed float formatting.  Each series draws its median as a line
with markers and its interquartile range as a translucent band.
"""

from __future__ import annotations

import math

from .errors import PlotFieldError
from .experiments import GROUP_FIELDS, ExperimentReport

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 30, 50
PALETTE = ("#1f6fb4", "#d34f2e", "#2e8b57", "#8a2be2", "#b8860b", "#444444")


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _tick_label(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.0e}"
    return _fmt(x)


def _series_label(key, varying) -> str:
    parts = [str(k) for k, f in zip(key, GROUP_FIELDS) if f in varying and k is not None]
    return "/".join(parts) if parts else "all"


def render_plot(report: ExperimentReport, path, y_field: str = "mse",
                log_x: bool = False, log_y: bool = False):
    """Write a self-contained SVG of per-N aggregates for one value field.

    Non-finite aggregate values are dropped; the count of dropped points is
    recorded in a metadata comment at the top of the file.
    """
    aggs = report.aggregates
    present = {f for stats in aggs.values() for f in stats}
    if y_field not in present:
        raise PlotFieldError(f"field {y_field!r} has no values in this report")

    # series split on whichever grouping columns actually vary
    varying = set()
    for idx, name in enumerate(GROUP_FIELDS):
        if name == "N":
            continue
        if len({key[idx] for key in aggs}) > 1:
            varying.add(name)

    series: dict = {}
    dropped = 0
    for key, stats in aggs.items():
        if y_field not in stats:
            continue
        agg = stats[y_field]
        n = key[GROUP_FIELDS.index("N")]
        pt = (n, agg.q25, agg.median, agg.q75)
        if not all(map(math.isfinite, pt)):
            dropped += 1
            continue
        if log_y and (agg.q25 <= 0 or agg.median <= 0 or agg.q75 <= 0):
            dropped += 1
            continue
        series.setdefault(_series_label(key, varying), []).append(pt)
    for pts in series.values():
        pts.sort()

    xs, ys = [], []
    for pts in series.values():
        for n, lo, med, hi in pts:
            xs.append(n)
            ys.extend((lo, med, hi))
    if not xs:
        raise PlotFieldError(f"no finite values to plot for {y_field!r}")

    def xt(v):
        return math.log10(v) if log_x else v

    def yt(v):
        return math.log10(v) if log_y else v

    x_lo, x_hi = min(map(xt, xs)), max(map(xt, xs))
    y_lo, y_hi = min(map(yt, ys)), max(map(yt, ys))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (xt(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return MARGIN_T + (y_hi - yt(v)) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- dropped-points: {dropped} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#999999"/>',
    ]

    # axis ticks
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = x_lo + frac * (x_hi - x_lo)
        vx = 10**tx if log_x else tx
        x = MARGIN_L + frac * plot_w
        out.append(f'<line x1="{_fmt(x)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(x)}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(x)}" y="{MARGIN_T + plot_h + 20}" '
                   f'font-size="11" text-anchor="middle">{_tick_label(vx)}</text>')
        ty = y_lo + frac * (y_hi - y_lo)
        vy = 10**ty if log_y else ty
        y = MARGIN_T + (1 - frac) * plot_h
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
                   f'y2="{_fmt(y)}" stroke="#333333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" font-size="11" '
                   f'text-anchor="end">{_tick_label(vy)}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 12}" font-size="13" '
               f'text-anchor="middle">N</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{MARGIN_T + plot_h / 2})">{y_field}</text>')

    for i, (label, pts) in enumerate(sorted(series.items())):
        color = PALETTE[i % len(PALETTE)]
        if len(pts) >= 2:
            band = [f"{_fmt(px(n))},{_fmt(py(hi))}" for n, _, _, hi in pts]
            band += [f"{_fmt(px(n))},{_fmt(py(lo))}" for n, lo, _, _ in reversed(pts)]
            out.append(f'<polygon points="{" ".join(band)}" fill="{color}" '
                       f'fill-opacity="0.15" stroke="none"/>')
            line = " ".join(f"{_fmt(px(n))},{_fmt(py(med))}" for n, _, med, _ in pts)
            out.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        for n, _, med, _ in pts:
            out.append(f'<circle cx="{_fmt(px(n))}" cy="{_fmt(py(med))}" r="3" '
                       f'fill="{color}"/>')
        ly = MARGIN_T + 14 + 16 * i
        lx = WIDTH - MARGIN_R + 10
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}" font-size="11">{label}</text>')

    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
