"""Minimal deterministic SVG line plots, no plotting dependency.

Renders one or more (x, y) series with symmetric error bars into a
standalone SVG file.  Output is a pure function of the inputs, so
identical data gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 42, 56
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class Series:
    name: str
    x: tuple
    y: tuple
    err: tuple  # half-length of each point's error bar; none is drawn at 0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """`lo, hi`, or when they are equal a nonzero range around the value.

    Its half-width is 1, or 2**-50 of the value from 2**50 up, where 1
    nears the float spacing: from 2**53 up, value +- 1 rounds back to the
    value and the plot's scale would divide by zero.
    """
    if hi != lo:
        return lo, hi
    half = max(1.0, abs(lo) * 2.0**-50)
    return lo - half, hi + half


def _bounds(series: list[Series]) -> tuple[float, float, float, float]:
    xs = [v for s in series for v in s.x]
    ys = [w for s in series for v, e in zip(s.y, s.err) for w in (v - e, v + e)]
    x_lo, x_hi = _widen(min(xs), max(xs))
    y_lo, y_hi = _widen(min(ys), max(ys))
    pad_x, pad_y = 0.05 * (x_hi - x_lo), 0.08 * (y_hi - y_lo)
    return x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y


def _tag(name: str, body: str | None = None, **attrs) -> str:
    """One SVG element, attributes in the order given, `_` in a name written `-`.

    An attribute given as None is left out, and the tag closes itself
    when there is no `body`.
    """
    pairs = [f'{k.replace("_", "-")}="{v}"' for k, v in attrs.items() if v is not None]
    head = " ".join([name] + pairs)
    return f"<{head}/>" if body is None else f"<{head}>{body}</{name}>"


def _text(body: str, x, y, anchor: str | None, size: int, **rest) -> str:
    """Sans-serif text at (x, y); an `anchor` of None keeps SVG's start anchor."""
    font = dict(font_family="sans-serif", font_size=size)
    return _tag("text", body, x=x, y=y, text_anchor=anchor, **font, **rest)


def line_plot(path, series: list[Series], title: str, x_label: str, y_label: str) -> None:
    """Write a line plot with circle markers and error bars to `path`."""
    if not series:
        raise ValueError("line_plot needs at least one series")
    x_lo, x_hi, y_lo, y_hi = _bounds(series)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    bottom = HEIGHT - MARGIN_B

    def sx(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return bottom - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        _tag("rect", width=WIDTH, height=HEIGHT, fill="white"),
        _text(title, f"{WIDTH / 2:.0f}", 24, "middle", 15),
    ]
    for tx in _ticks(x_lo, x_hi):
        px = _fmt(sx(tx))
        parts.append(_tag("line", x1=px, y1=MARGIN_T, x2=px, y2=bottom, stroke="#dddddd"))
        parts.append(_text(f"{tx:g}", px, bottom + 18, "middle", 11))
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(_tag("line", x1=MARGIN_L, y1=_fmt(py), x2=WIDTH - MARGIN_R, y2=_fmt(py),
                          stroke="#dddddd"))
        parts.append(_text(f"{ty:.3g}", MARGIN_L - 6, _fmt(py + 4), "end", 11))
    cy = f"{MARGIN_T + plot_h / 2:.0f}"
    parts += [
        _tag("rect", x=MARGIN_L, y=MARGIN_T, width=plot_w, height=plot_h,
             fill="none", stroke="black"),
        _text(x_label, f"{MARGIN_L + plot_w / 2:.0f}", HEIGHT - 12, "middle", 13),
        _text(y_label, 18, cy, "middle", 13, transform=f"rotate(-90 18 {cy})"),
    ]

    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        pts = [(sx(x), sy(y)) for x, y in zip(s.x, s.y)]
        for (px, _), y, e in zip(pts, s.y, s.err):
            if e <= 0:
                continue
            top, bot = _fmt(sy(y + e)), _fmt(sy(y - e))
            mid, left, right = _fmt(px), _fmt(px - 4), _fmt(px + 4)
            parts.append(_tag("line", x1=mid, y1=top, x2=mid, y2=bot, stroke=color))
            for py in (top, bot):
                parts.append(_tag("line", x1=left, y1=py, x2=right, y2=py, stroke=color))
        wide = dict(stroke=color, stroke_width=1.5)
        if len(pts) > 1:
            coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
            parts.append(_tag("polyline", points=coords, fill="none", **wide))
        parts += [_tag("circle", cx=_fmt(a), cy=_fmt(b), r=3.5, fill=color) for a, b in pts]
        ly, lx = MARGIN_T + 16 + 18 * si, WIDTH - MARGIN_R - 130
        parts.append(_tag("line", x1=lx, y1=ly - 4, x2=lx + 22, y2=ly - 4, **wide))
        parts.append(_text(s.name, lx + 28, ly, None, 12))
    body = "\n" + "\n".join(parts) + "\n"
    svg = _tag("svg", body, xmlns="http://www.w3.org/2000/svg", width=WIDTH, height=HEIGHT,
               viewBox=f"0 0 {WIDTH} {HEIGHT}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg + "\n")
