"""CSV and SVG emission for traces and experiment reports.

CSV uses '.' decimals, '\n' line endings and 17 significant digits so
files round-trip float64 exactly.  SVG charts are generated directly
(fixed 800x600 viewBox, polyline series, linear or log-scale y) with no
plotting dependency.
"""

import math

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins around the plot area
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def fmt(x):
    """17-significant-digit decimal rendering of a float."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def write_trace_csv(path, trace):
    """The trace as CSV: k, x0..x{D-1}, cost, grad_norm, dist_to_o,
    dist_to_final, step_used, where D is the length of the first record's
    point (descend always records at least one)."""
    header = (["k"] + [f"x{i}" for i in range(len(trace.records[0].point))]
              + ["cost", "grad_norm", "dist_to_o", "dist_to_final", "step_used"])
    write_csv(path, header,
              [[rec.k, *map(float, rec.point), rec.cost, rec.grad_norm,
                rec.dist_to_o, dfin, rec.step_used]
               for rec, dfin in zip(trace.records, trace.dist_to_final)])


class PlotSeries:
    def __init__(self, label, xs, ys):
        if len(xs) != len(ys):
            raise ValueError("series length mismatch")
        self.label = label
        self.xs = [float(x) for x in xs]
        self.ys = [float(y) for y in ys]


def write_svg(path, series_list, title="", x_label="", y_label="", y_log=False):
    """Render line series into a standalone 800x600 SVG file."""
    pts = [(x, y) for s in series_list for x, y in zip(s.xs, s.ys)
           if math.isfinite(x) and math.isfinite(y) and (not y_log or y > 0)]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    xs = [p[0] for p in pts]
    ys = [math.log10(p[1]) if y_log else p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(y):
        yv = math.log10(y) if y_log else y
        return _H - _MB - (yv - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    # axes
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
               'stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
               'stroke="black"/>')
    if title:
        out.append(f'<text x="{_W / 2}" y="25" text-anchor="middle" '
                   f'font-size="16">{_esc(title)}</text>')
    if x_label:
        out.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" '
                   f'font-size="13">{_esc(x_label)}</text>')
    if y_label:
        out.append(f'<text x="18" y="{_H / 2}" text-anchor="middle" font-size="13" '
                   f'transform="rotate(-90 18 {_H / 2})">{_esc(y_label)}</text>')
    # axis end labels
    out.append(f'<text x="{_ML}" y="{_H - _MB + 18}" font-size="11">{x0:g}</text>')
    out.append(f'<text x="{_W - _MR}" y="{_H - _MB + 18}" text-anchor="end" '
               f'font-size="11">{x1:g}</text>')
    ylab0 = f"1e{y0:g}" if y_log else f"{y0:g}"
    ylab1 = f"1e{y1:g}" if y_log else f"{y1:g}"
    out.append(f'<text x="{_ML - 6}" y="{_H - _MB}" text-anchor="end" '
               f'font-size="11">{ylab0}</text>')
    out.append(f'<text x="{_ML - 6}" y="{_MT + 4}" text-anchor="end" '
               f'font-size="11">{ylab1}</text>')
    for i, s in enumerate(series_list):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys)
                          if math.isfinite(y) and (not y_log or y > 0))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 6}" y="{_MT + 18 + 16 * i}" '
                   f'text-anchor="end" font-size="12" fill="{color}">'
                   f'{_esc(s.label)}</text>')
    out.append("</svg>\n")
    with open(path, "w", newline="") as f:
        f.write("\n".join(out))


def _esc(s):
    return (str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
