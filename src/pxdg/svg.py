"""Dependency-free SVG line charts (polyline primitives only)."""

import math

__all__ = ["LineChart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 760, 480


def _ticks(lo, hi, target=6):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(t)
        t += step
    return out


class LineChart:
    """Accumulates (x, y) series and renders a standalone SVG document."""

    def __init__(self, title=""):
        self.title = title
        self.series = []

    def add_series(self, xs, ys, label):
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)]
        if not pts:
            raise ValueError("series has no finite points")
        self.series.append((pts, label, _COLORS[len(self.series) % len(_COLORS)]))

    def render(self):
        if not self.series:
            raise ValueError("no series to plot")
        ml, mr, mt, mb = 70, 20, 34, 44
        iw = WIDTH - ml - mr
        ih = HEIGHT - mt - mb
        xs = [x for pts, _, _ in self.series for x, _ in pts]
        ys = [y for pts, _, _ in self.series for _, y in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        pad = 0.04 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad

        def sx(x):
            return ml + (x - x0) / (x1 - x0) * iw

        def sy(y):
            return mt + (y1 - y) / (y1 - y0) * ih

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        if self.title:
            out.append(f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="14">{self.title}</text>')
        out.append(f'<rect x="{ml}" y="{mt}" width="{iw}" height="{ih}" '
                   'fill="none" stroke="#444"/>')
        for t in _ticks(x0, x1):
            px = sx(t)
            out.append(f'<line x1="{px:.2f}" y1="{mt + ih}" x2="{px:.2f}" '
                       f'y2="{mt + ih + 5}" stroke="#444"/>')
            out.append(f'<text x="{px:.2f}" y="{mt + ih + 18}" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="11">{t:.6g}</text>')
        for t in _ticks(y0, y1):
            py = sy(t)
            out.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" '
                       'stroke="#444"/>')
            out.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end" '
                       f'font-family="sans-serif" font-size="11">{t:.6g}</text>')
        for i, (pts, label, color) in enumerate(self.series):
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       'stroke-width="1.6"/>')
            lx = ml + 10
            ly = mt + 16 + 16 * i
            out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="1.6"/>')
            out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                       f'font-size="12">{label}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"
