"""Minimal standalone SVG plotting: polylines, markers, bands, axes.

Keeps plot emission dependency-free; the output opens in any browser.
"""

from __future__ import annotations

import math


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Round tick values over ``lo < hi`` (``SvgPlot`` widens a collapsed range)."""
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


def _xml(v) -> str:
    # Not xml.sax.saxutils.escape: importing it pulls in urllib.request.
    return f"{v}".replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _attrs(**kw) -> str:
    """`` name="value"`` per keyword, in keyword order: ``_`` is written as
    ``-``, a None value is left out and the value is escaped."""
    return "".join(f' {k.replace("_", "-")}="{_xml(v)}"' for k, v in kw.items() if v is not None)


def _tag(name: str, body=None, **kw) -> str:
    """One element; with no ``body`` it closes itself."""
    return f"<{name}{_attrs(**kw)}" + ("/>" if body is None else f">{_xml(body)}</{name}>")


def _text(body, size, x, y, anchor=None, transform=None) -> str:
    return _tag("text", body, x=x, y=y, text_anchor=anchor, font_family="sans-serif",
                font_size=size, transform=transform)


class SvgPlot:
    """A single set of axes with data drawn in user coordinates."""

    def __init__(self, x_range, y_range, width=640, height=440, title="", xlabel="", ylabel=""):
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

    def _points(self, pairs) -> str:
        return " ".join(f"{self._sx(float(x)):.2f},{self._sy(float(y)):.2f}" for x, y in pairs)

    def polyline(self, xs, ys, color="#1f77b4", width=1.8, dash=None):
        self._body.append(_tag(
            "polyline", points=self._points(zip(xs, ys)), fill="none", stroke=color,
            stroke_width=width, stroke_dasharray=dash or None,
        ))

    def band(self, xs, y_lo, y_hi, color="#1f77b4", opacity=0.18):
        xs, y_lo = list(xs), list(y_lo)
        pairs = [*zip(xs, y_hi), *zip(xs[::-1], y_lo[::-1])]
        self._body.append(_tag(
            "polygon", points=self._points(pairs), fill=color, fill_opacity=opacity, stroke="none"
        ))

    def markers(self, xs, ys, color="#ff7f0e", r=2.0, opacity=1.0):
        # Only the centre differs between circles, and an envelope view draws
        # thousands of them, so the shared attributes are formatted once.
        shared = _attrs(r=r, fill=color, fill_opacity=opacity)
        self._body.extend(
            f'<circle cx="{self._sx(float(x)):.2f}" cy="{self._sy(float(y)):.2f}"{shared}/>'
            for x, y in zip(xs, ys)
        )

    def legend_entry(self, label, color, dash=None):
        self._legend.append((label, color, dash))

    def render(self) -> str:
        m, w, h = self.margin, self.width, self.height
        left, top = m["left"], m["top"]
        plot_w, plot_h = w - left - m["right"], h - top - m["bottom"]
        svg = _attrs(xmlns="http://www.w3.org/2000/svg", width=w, height=h, viewBox=f"0 0 {w} {h}")
        parts = [
            f"<svg{svg}>",
            _tag("rect", width=w, height=h, fill="white"),
            _tag("rect", x=left, y=top, width=plot_w, height=plot_h, fill="none", stroke="#444",
                 stroke_width=1),
        ]
        if self.title:
            parts.append(_text(self.title, 14, f"{w / 2:.0f}", 20, "middle"))
        base = self._sy(self.y0)
        y1, y2, label_y = f"{base:.2f}", f"{base + 4:.2f}", f"{base + 18:.2f}"
        for tx in _nice_ticks(self.x0, self.x1):
            sx = f"{self._sx(tx):.2f}"
            parts.append(_tag("line", x1=sx, y1=y1, x2=sx, y2=y2, stroke="#444"))
            parts.append(_text(f"{tx:.6g}", 11, sx, label_y, "middle"))
        for ty in _nice_ticks(self.y0, self.y1):
            sy = self._sy(ty)
            y = f"{sy:.2f}"
            parts.append(_tag("line", x1=left - 4, y1=y, x2=left, y2=y, stroke="#444"))
            parts.append(_text(f"{ty:.6g}", 11, left - 7, f"{sy + 4:.2f}", "end"))
        if self.xlabel:
            parts.append(_text(self.xlabel, 12, f"{left + plot_w / 2:.0f}", h - 8, "middle"))
        if self.ylabel:
            cy = f"{top + plot_h / 2:.0f}"
            parts.append(_text(self.ylabel, 12, 16, cy, "middle", f"rotate(-90 16 {cy})"))
        parts.extend(self._body)
        for i, (label, color, dash) in enumerate(self._legend):
            ly, lx = top + 14 + 16 * i, left + 12
            parts.append(_tag(
                "line", x1=lx, y1=ly - 4, x2=lx + 24, y2=ly - 4, stroke=color, stroke_width=2,
                stroke_dasharray=dash or None,
            ))
            parts.append(_text(label, 11, lx + 30, ly))
        parts.append("</svg>")
        return "\n".join(parts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
