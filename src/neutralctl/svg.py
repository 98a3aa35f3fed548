"""Minimal SVG emission for spectrum scatters and trajectory plots.

Hand-rolled primitives keep the output free of plotting dependencies and
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["spectrum_svg", "trajectory_svg"]

_W, _H = 640, 480
_MARGIN = 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Frame:
    def __init__(self, x_min, x_max, y_min, y_max):
        if x_max - x_min <= 0:
            x_max = x_min + 1.0
        if y_max - y_min <= 0:
            y_max = y_min + 1.0
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max

    def px(self, x):
        return _MARGIN + (x - self.x_min) / (self.x_max - self.x_min) * (_W - 2 * _MARGIN)

    def py(self, y):
        return _H - _MARGIN - (y - self.y_min) / (self.y_max - self.y_min) * (_H - 2 * _MARGIN)


def _document(body, title):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>\n'
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>\n'
    )
    frame_rect = (
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>\n'
    )
    return head + frame_rect + body + "</svg>\n"


def _axis_labels(fr):
    return (
        f'<text x="{_MARGIN}" y="{_H - _MARGIN + 18}" font-size="11" '
        f'font-family="sans-serif">{_fmt(fr.x_min)}</text>\n'
        f'<text x="{_W - _MARGIN}" y="{_H - _MARGIN + 18}" text-anchor="end" '
        f'font-size="11" font-family="sans-serif">{_fmt(fr.x_max)}</text>\n'
        f'<text x="{_MARGIN - 4}" y="{_H - _MARGIN}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{_fmt(fr.y_min)}</text>\n'
        f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">{_fmt(fr.y_max)}</text>\n'
    )


def spectrum_svg(roots, chains, region) -> str:
    """Scatter of located roots (crosses) and every chain prediction in the
    region (circles): the k-th has Im = phase + 2 pi k, |phase| <= pi."""
    fr = _Frame(region.re_min, region.re_max, region.im_min, region.im_max)
    kmax = int(max(-region.im_min, region.im_max) / (2 * math.pi)) + 2
    body = _axis_labels(fr)
    if fr.x_min < 0 < fr.x_max:
        x0 = _fmt(fr.px(0.0))
        body += (
            f'<line x1="{x0}" y1="{_MARGIN}" x2="{x0}" y2="{_H - _MARGIN}" '
            f'stroke="#bbbbbb" stroke-dasharray="4 3"/>\n'
        )
    if fr.y_min < 0 < fr.y_max:
        y0 = _fmt(fr.py(0.0))
        body += (
            f'<line x1="{_MARGIN}" y1="{y0}" x2="{_W - _MARGIN}" y2="{y0}" '
            f'stroke="#bbbbbb" stroke-dasharray="4 3"/>\n'
        )
    for chain in chains:
        for k in range(-kmax, kmax + 1):
            lam = chain.predict(k)
            if not (fr.x_min <= lam.real <= fr.x_max and fr.y_min <= lam.imag <= fr.y_max):
                continue
            body += (
                f'<circle cx="{_fmt(fr.px(lam.real))}" cy="{_fmt(fr.py(lam.imag))}" '
                f'r="5" fill="none" stroke="#1f77b4"/>\n'
            )
    for root in roots:
        cx, cy = fr.px(root.lam.real), fr.py(root.lam.imag)
        r = 3 + root.multiplicity
        body += (
            f'<line x1="{_fmt(cx - r)}" y1="{_fmt(cy - r)}" x2="{_fmt(cx + r)}" '
            f'y2="{_fmt(cy + r)}" stroke="#d62728" stroke-width="1.5"/>\n'
            f'<line x1="{_fmt(cx - r)}" y1="{_fmt(cy + r)}" x2="{_fmt(cx + r)}" '
            f'y2="{_fmt(cy - r)}" stroke="#d62728" stroke-width="1.5"/>\n'
        )
    return _document(body, "spectrum: roots (x) and chain predictions (o)")


_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]


def _polyline(fr, xs, ys, color):
    xy = np.column_stack((fr.px(np.asarray(xs, dtype=float)), fr.py(np.asarray(ys, dtype=float))))
    # one % operation for all points; "%.2f" rounds exactly as _fmt does
    pts = ("%.2f,%.2f " * xy.shape[0])[:-1] % tuple(xy.ravel().tolist())
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>\n'


def trajectory_svg(traj) -> str:
    """Log-scale norm of the state over time plus the state components."""
    # squares summed column by column, in the order of a row-wise sum
    sq = traj.z[:, 0] * traj.z[:, 0]
    for j in range(1, traj.z.shape[1]):
        sq = sq + traj.z[:, j] * traj.z[:, j]
    floor = 1e-16
    lognorms = np.array([math.log10(max(math.sqrt(s), floor)) for s in sq.tolist()])
    lo, hi = lognorms.min(), lognorms.max()
    t = traj.t.tolist()
    fr = _Frame(t[0], t[-1], lo, hi)
    body = _axis_labels(fr)
    body += _polyline(fr, t, lognorms, "black")
    body += (
        f'<text x="{_W - _MARGIN}" y="{_MARGIN - 6}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">log10 ||z(t)|| (black), components rescaled (colors)</text>\n'
    )
    span = hi - lo or 1.0
    for j in range(traj.z.shape[1]):
        comp = traj.z[:, j]
        c_lo, c_hi = comp.min(), comp.max()
        width = (c_hi - c_lo) or 1.0
        scaled = lo + (comp - c_lo) / width * span
        body += _polyline(fr, t, scaled, _COLORS[j % len(_COLORS)])
    return _document(body, "trajectory")
