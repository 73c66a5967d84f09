"""Zero-normalized cross-correlation block matching, the classical baseline.

The image is tiled into square windows; each source window is correlated
against every integer shift of itself in the target within a search radius,
and the best shift is kept when its correlation peak clears a threshold.
Windows without intensity variance never match.  Each tile scores all its
shifts in one ``einsum`` over a sliding-window view of the target, no copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .raster import IntensityRaster

DEFAULT_WINDOW = 50
DEFAULT_THRESHOLD = 0.25

CSV_HEADER = ("window_center_x,window_center_y,dx_px,dy_px,"
              "dx_m_per_s,dy_m_per_s,correlation")


@dataclass(frozen=True)
class NccMatch:
    """One accepted window match: center pixel, integer shift, peak value."""

    center_x: float
    center_y: float
    dx: int
    dy: int
    correlation: float


def ncc_displacements(src: IntensityRaster, tgt: IntensityRaster,
                      window: int = DEFAULT_WINDOW,
                      search_radius: int | None = None,
                      threshold: float = DEFAULT_THRESHOLD,
                      stride: int | None = None) -> list[NccMatch]:
    """Best integer displacement per window by exhaustive ZNCC search.

    ``search_radius`` defaults to window // 2 and ``stride`` to ``window``
    (non-overlapping tiling).  Matches come back in row-major tile order;
    ties on the correlation peak keep the first shift in row-major scan
    order, so results are deterministic.
    """
    if src.geometry != tgt.geometry:
        raise ValueError("source and target must share one grid geometry")
    g = src.geometry
    if window < 8:
        raise ValueError("window must be >= 8 pixels")
    if window > min(g.width, g.height):
        raise ValueError("window exceeds image extent")
    if search_radius is None:
        search_radius = window // 2
    if search_radius < 1:
        raise ValueError("search_radius must be >= 1")
    if stride is None:
        stride = window
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not (0 < threshold <= 1):
        raise ValueError("threshold must lie in (0, 1]")

    # One view holds every target window.  A window whose one-pass variance
    # is below that formula's rounding floor is flat: it scores 0, which
    # never clears the positive threshold.
    n = window * window
    wins = sliding_window_view(tgt.values, (window, window))
    s1 = wins.sum(axis=(2, 3))
    s2 = np.einsum("ijkl,ijkl->ij", wins, wins)
    vb = s2 - s1 * s1 / n
    rnorm = 1.0 / np.sqrt(np.where(vb > n * np.finfo(float).eps * s2, vb, np.inf))
    half = (window - 1) / 2.0
    matches = []
    for ty in range(0, g.height - window + 1, stride):
        for tx in range(0, g.width - window + 1, stride):
            a = src.values[ty:ty + window, tx:tx + window]
            if a.min() == a.max():
                continue
            a0 = a - a.mean()
            # the in-bounds shifts; sum(a0) = 0, so a0 . b is the centred term
            y0, x0 = max(ty - search_radius, 0), max(tx - search_radius, 0)
            rows = slice(y0, min(ty + search_radius, g.height - window) + 1)
            cols = slice(x0, min(tx + search_radius, g.width - window) + 1)
            corr = np.einsum("ijkl,kl->ij", wins[rows, cols], a0)
            corr *= rnorm[rows, cols] / np.linalg.norm(a0)
            # argmax keeps the first peak in row-major (dy, dx) order
            iy, ix = np.unravel_index(np.argmax(corr), corr.shape)
            if corr[iy, ix] >= threshold:
                matches.append(NccMatch(tx + half, ty + half, int(x0 + ix - tx),
                                        int(y0 + iy - ty), float(corr[iy, ix])))
    return matches


def matches_to_csv(matches: list[NccMatch], path: str | Path,
                   pixel_size: float, dt: float) -> None:
    """Write matches with their m/s conversion (shift * pixel_size / dt)."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    scale = pixel_size / dt
    lines = [CSV_HEADER]
    for m in matches:
        lines.append(f"{m.center_x:.1f},{m.center_y:.1f},{m.dx},{m.dy},"
                     f"{m.dx * scale:.9g},{m.dy * scale:.9g},{m.correlation:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
