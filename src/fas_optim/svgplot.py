"""Minimal deterministic SVG line plots, no plotting dependency.

Renders one or more (x, y) series with optional symmetric error bars
into a standalone SVG file.  Output is a pure function of the inputs,
so identical data gives byte-identical files.
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
    err: tuple | None = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


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
    ys = []
    for s in series:
        for i, v in enumerate(s.y):
            e = s.err[i] if s.err else 0.0
            ys.extend((v - e, v + e))
    x_lo, x_hi = _widen(min(xs), max(xs))
    y_lo, y_hi = _widen(min(ys), max(ys))
    pad_x, pad_y = 0.05 * (x_hi - x_lo), 0.08 * (y_hi - y_lo)
    return x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y


def line_plot(
    path,
    series: list[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Write a line plot with circle markers and error bars to `path`."""
    if not series:
        raise ValueError("line_plot needs at least one series")
    x_lo, x_hi, y_lo, y_hi = _bounds(series)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{MARGIN_T}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{tx:g}</text>"
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(py)}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{_fmt(py)}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.3g}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>'
    )
    if x_label:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">'
            f"{x_label}</text>"
        )
    if y_label:
        cx, cy = 18, MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="{cx}" y="{cy:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 {cx} {cy:.0f})">{y_label}</text>'
        )

    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        pts = [(sx(x), sy(y)) for x, y in zip(s.x, s.y)]
        if s.err is not None:
            for (px, _), y, e in zip(pts, s.y, s.err):
                if e <= 0:
                    continue
                top, bot = sy(y + e), sy(y - e)
                parts.append(
                    f'<line x1="{_fmt(px)}" y1="{_fmt(top)}" x2="{_fmt(px)}" '
                    f'y2="{_fmt(bot)}" stroke="{color}"/>'
                )
                for py in (top, bot):
                    parts.append(
                        f'<line x1="{_fmt(px - 4)}" y1="{_fmt(py)}" '
                        f'x2="{_fmt(px + 4)}" y2="{_fmt(py)}" stroke="{color}"/>'
                    )
        if len(pts) > 1:
            coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for px, py in pts:
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.5" '
                f'fill="{color}"/>'
            )
        ly = MARGIN_T + 16 + 18 * si
        lx = WIDTH - MARGIN_R - 130
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{s.name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
