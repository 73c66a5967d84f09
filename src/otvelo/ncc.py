"""Zero-normalized cross-correlation block matching, the classical baseline.

The image is tiled into square windows; each source window is correlated
against every integer shift of itself in the target within a search radius,
and the best shift is kept when its correlation peak clears a threshold.
Windows without intensity variance never match.  This is Lewis's fast NCC:
the target's window sums come from separable sliding sums, O(N * w) for N
pixels and window w, and each textured tile scores all its shifts with one
FFT cross-correlation over the (w + 2R)^2 region they cover.
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
_TIE = 1e-12  # correlations this close to a tile's peak tie with it

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
    (non-overlapping tiling); the search is clipped at the image edges.
    Flat source tiles are skipped and flat target windows score 0.  Matches
    come back in row-major tile order.  Every shift within 1e-12 of the
    tile's correlation peak ties with it, and ties keep the first shift in
    row-major (dy, dx) order, so results are deterministic.
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

    # Every target window's sums, w neighbours per axis at a time, so each
    # sum rounds like the window's own.  A window whose one-pass variance
    # is below that formula's rounding floor is flat: it scores 0, which
    # never clears the positive threshold.
    n = window * window
    s1 = _window_sums(tgt.values, window)
    s2 = _window_sums(tgt.values * tgt.values, window)
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
            # the in-bounds shifts, scored at once by correlating a0 with
            # the region they cover; sum(a0) = 0, so the region's mean can
            # go first and rounding follows its variation, not its level
            y0, x0 = max(ty - search_radius, 0), max(tx - search_radius, 0)
            y1 = min(ty + search_radius, g.height - window) + 1
            x1 = min(tx + search_radius, g.width - window) + 1
            region = tgt.values[y0:y1 + window - 1, x0:x1 + window - 1]
            region = region - region.mean()
            # a circular correlation over the region's own size wraps only
            # past its last in-bounds shift
            spec = np.fft.rfft2(region) * np.fft.rfft2(a0, region.shape).conj()
            corr = np.fft.irfft2(spec, region.shape)[:y1 - y0, :x1 - x0]
            corr *= rnorm[y0:y1, x0:x1] / np.linalg.norm(a0)
            # the first peak in row-major (dy, dx) order, so exact ties
            # survive the FFT's rounding (about 1e-16)
            iy, ix = np.unravel_index(np.argmax(corr >= corr.max() - _TIE), corr.shape)
            if corr[iy, ix] >= threshold:
                matches.append(NccMatch(tx + half, ty + half, int(x0 + ix - tx),
                                        int(y0 + iy - ty), float(corr[iy, ix])))
    return matches


def _window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Sum of every window x window block, as two separable sliding sums."""
    rows = sliding_window_view(values, window, axis=1).sum(axis=-1)
    return sliding_window_view(rows, window, axis=0).sum(axis=-1)


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
