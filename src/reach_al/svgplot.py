"""Minimal standalone SVG plotting: polylines, markers, bands, axes.

Keeps plot emission dependency-free; the output opens in any browser.
"""

from __future__ import annotations

import math


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(round(v, 10))
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class SvgPlot:
    """A single set of axes with data drawn in user coordinates."""

    def __init__(
        self,
        x_range,
        y_range,
        width=640,
        height=440,
        title="",
        xlabel="",
        ylabel="",
    ):
        self.x0, self.x1 = float(x_range[0]), float(x_range[1])
        self.y0, self.y1 = float(y_range[0]), float(y_range[1])
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.width = width
        self.height = height
        self.margin = dict(left=62, right=16, top=30, bottom=46)
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self._body: list[str] = []
        self._legend: list[tuple[str, str, str]] = []  # label, color, dash

    def _sx(self, x: float) -> float:
        w = self.width - self.margin["left"] - self.margin["right"]
        return self.margin["left"] + (x - self.x0) / (self.x1 - self.x0) * w

    def _sy(self, y: float) -> float:
        h = self.height - self.margin["top"] - self.margin["bottom"]
        return self.height - self.margin["bottom"] - (y - self.y0) / (self.y1 - self.y0) * h

    def polyline(self, xs, ys, color="#1f77b4", width=1.8, dash=None):
        pts = " ".join(
            f"{self._sx(float(x)):.2f},{self._sy(float(y)):.2f}" for x, y in zip(xs, ys)
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def band(self, xs, y_lo, y_hi, color="#1f77b4", opacity=0.18):
        fwd = [f"{self._sx(float(x)):.2f},{self._sy(float(y)):.2f}" for x, y in zip(xs, y_hi)]
        back = [
            f"{self._sx(float(x)):.2f},{self._sy(float(y)):.2f}"
            for x, y in zip(reversed(list(xs)), reversed(list(y_lo)))
        ]
        self._body.append(
            f'<polygon points="{" ".join(fwd + back)}" fill="{color}" '
            f'fill-opacity="{opacity}" stroke="none"/>'
        )

    def markers(self, xs, ys, color="#ff7f0e", r=2.0, opacity=1.0):
        for x, y in zip(xs, ys):
            self._body.append(
                f'<circle cx="{self._sx(float(x)):.2f}" cy="{self._sy(float(y)):.2f}" '
                f'r="{r}" fill="{color}" fill-opacity="{opacity}"/>'
            )

    def legend_entry(self, label, color, dash=None):
        self._legend.append((label, color, dash))

    def render(self) -> str:
        m = self.margin
        plot_w = self.width - m["left"] - m["right"]
        plot_h = self.height - m["top"] - m["bottom"]
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
            f'<rect x="{m["left"]}" y="{m["top"]}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#444" stroke-width="1"/>',
        ]
        if self.title:
            parts.append(
                f'<text x="{self.width / 2:.0f}" y="20" text-anchor="middle" '
                f'font-family="sans-serif" font-size="14">{self.title}</text>'
            )
        for tx in _nice_ticks(self.x0, self.x1):
            sx = self._sx(tx)
            parts.append(
                f'<line x1="{sx:.2f}" y1="{self._sy(self.y0):.2f}" x2="{sx:.2f}" '
                f'y2="{self._sy(self.y0) + 4:.2f}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{sx:.2f}" y="{self._sy(self.y0) + 18:.2f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
            )
        for ty in _nice_ticks(self.y0, self.y1):
            sy = self._sy(ty)
            parts.append(
                f'<line x1="{m["left"] - 4}" y1="{sy:.2f}" x2="{m["left"]}" '
                f'y2="{sy:.2f}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{m["left"] - 7}" y="{sy + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
            )
        if self.xlabel:
            parts.append(
                f'<text x="{m["left"] + plot_w / 2:.0f}" y="{self.height - 8}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="12">{self.xlabel}</text>'
            )
        if self.ylabel:
            cx, cy = 16, m["top"] + plot_h / 2
            parts.append(
                f'<text x="{cx}" y="{cy:.0f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12" '
                f'transform="rotate(-90 {cx} {cy:.0f})">{self.ylabel}</text>'
            )
        parts.extend(self._body)
        for i, (label, color, dash) in enumerate(self._legend):
            ly = m["top"] + 14 + 16 * i
            lx = m["left"] + 12
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"{dash_attr}/>'
            )
            parts.append(
                f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
