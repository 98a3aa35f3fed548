import math

import numpy as np
import pytest

from neutralctl import SpectrumRegion, Trajectory, predict_chains
from neutralctl.svg import (
    _COLORS, _MARGIN, _W, _axis_labels, _document, _Frame, _polyline, spectrum_svg,
    trajectory_svg,
)


def _trajectory_svg_rowwise(traj):
    # the row-by-row loop that trajectory_svg replaced, kept as its oracle
    norms = [math.sqrt(sum(v * v for v in row)) for row in traj.z]
    lognorms = [math.log10(max(x, 1e-16)) for x in norms]
    t = list(traj.t)
    fr = _Frame(t[0], t[-1], min(lognorms), max(lognorms))
    body = _axis_labels(fr)
    body += _polyline(fr, t, lognorms, "black")
    body += (
        f'<text x="{_W - _MARGIN}" y="{_MARGIN - 6}" text-anchor="end" font-size="11" '
        f'font-family="sans-serif">log10 ||z(t)|| (black), components rescaled (colors)</text>\n'
    )
    span = max(lognorms) - min(lognorms) or 1.0
    lo = min(lognorms)
    for j in range(traj.z.shape[1]):
        comp = traj.z[:, j]
        c_lo, c_hi = float(min(comp)), float(max(comp))
        width = (c_hi - c_lo) or 1.0
        body += _polyline(fr, t, lo + (comp - c_lo) / width * span, _COLORS[j % len(_COLORS)])
    return _document(body, "trajectory")


@pytest.mark.parametrize("n", [1, 3, 9])
def test_trajectory_svg_matches_rowwise_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        t = np.arange(2001) / 100.0
        z = rng.standard_normal((t.size, n)) * np.exp(rng.uniform(-40.0, 5.0, (t.size, 1)))
        z[rng.integers(0, t.size, 20)] = 0.0  # rows under the log floor
        if n > 1:
            z[:, 1] = 0.25  # a constant component
        traj = Trajectory(h=0.01, t=t, z=z, dz=z, u=np.zeros((t.size, 1)), v0=z[0])
        assert trajectory_svg(traj) == _trajectory_svg_rowwise(traj)


def test_polyline_matches_per_point_format():
    fr = _Frame(0.0, 1.0, 0.0, 1.0)
    # -50.003 / 540 lands at pixel -0.003, which prints as -0.00
    xs = np.array([0.0, -0.0, -50.003 / 540, np.nan, np.inf, -np.inf, 0.005, 0.125, 2.675, 1e300])
    ys = np.random.default_rng(0).standard_normal(xs.size) * 1e3
    px, py = fr.px(xs).tolist(), fr.py(ys).tolist()
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    assert _polyline(fr, xs, ys, "k") == (
        f'<polyline points="{pts}" fill="none" stroke="k" stroke-width="1.2"/>\n'
    )
    assert 'points=""' in _polyline(fr, [], [], "k")


def test_spectrum_svg_draws_every_chain_point_in_the_region(ex5):
    # ex5's one chain lies at 2 pi i k; |Im| <= 100 holds k = -15..15, of
    # which the fixed range -10..10 drew 21
    svg = spectrum_svg([], predict_chains(ex5), SpectrumRegion(-1, 1, -100, 100))
    assert svg.count("<circle") == 31
