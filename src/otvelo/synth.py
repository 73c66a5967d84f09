"""Synthetic floe scenes with known motion, for validating the transport
pipeline end to end.

Six scenario kinds cover the qualitative regimes of interest: rigid
translation, a floe splitting into two fragments (equal or 20/80), a
four-way split that keeps the scene centroid fixed, two floes moving
independently, and in-place rotation.  Frames are binary (floe 255 on
background 0); ``t`` in [0, 1] scales the motion, and ``t = 0`` reproduces
the source frame exactly.  Geometry comes from one seeded irregular convex
polygon (or a disc), so every render is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .otcore import (DEFAULT_MAX_ITER, DEFAULT_TOL, KernelSpec, resolve_mode,
                     sinkhorn, wasserstein_value)
from .raster import DEFAULT_FLOOR, GridGeometry, IntensityRaster, normalize_to_mass

SCENARIO_KINDS = ("translate", "split_equal", "split_unequal", "split_quad",
                  "multi_floe", "rotate")

SECONDS_PER_DAY = 86400.0

SWEEP_CSV_HEADER = "eps,t,w_eps_minus_w0,iterations,converged"


@dataclass(frozen=True)
class FloeSpec:
    """Floe geometry: seeded irregular convex polygon or a disc."""

    center: tuple[float, float]
    radius: float
    shape: str = "polygon"
    seed: int = 7
    intensity: float = 255.0


@dataclass(frozen=True)
class Scenario:
    kind: str
    size: int
    pixel_size: float
    floe: FloeSpec
    motion: dict[str, Any] = field(default_factory=dict)


def make_scenario(kind: str, size: int = 128, pixel_size: float = 250.0,
                  shape: str = "polygon", seed: int = 7, **motion: Any) -> Scenario:
    """Scenario with size-proportional default motion (20 px drift at 128)."""
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}; pick one of {SCENARIO_KINDS}")
    if size < 16:
        raise ValueError("scenario grids smaller than 16 px are not useful")
    s = size / 128.0
    floe = FloeSpec(center=(size / 2.0, size / 2.0), radius=24.0 * s,
                    shape=shape, seed=seed)
    defaults: dict[str, dict[str, Any]] = {
        "translate": {"displacement": (20.0 * s, 0.0)},
        "split_equal": {"fraction": 0.5, "displacement": (12.0 * s, 0.0),
                        "separation": 14.0 * s},
        "split_unequal": {"fraction": 0.2, "displacement": (12.0 * s, 0.0),
                          "separation": 14.0 * s},
        "split_quad": {"separation": 10.0 * s},
        "multi_floe": {"floes": (
            {"center": (0.33 * size, 0.36 * size), "radius": 0.13 * size,
             "displacement": (0.11 * size, 0.0625 * size)},
            {"center": (0.67 * size, 0.66 * size), "radius": 0.10 * size,
             "displacement": (-0.078 * size, 0.094 * size)},
        )},
        "rotate": {"angle": math.pi / 2.0},
    }
    spec = defaults[kind]
    unknown = set(motion) - set(spec)
    if unknown:
        raise ValueError(f"scenario {kind!r} does not take {sorted(unknown)}")
    spec.update(motion)
    return Scenario(kind, size, pixel_size, floe, spec)


# ---------------------------------------------------------------------------
# polygon machinery (pixel-unit coordinates, centers at index + 0.5)

def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns counterclockwise vertices."""
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _floe_polygon(spec: FloeSpec) -> np.ndarray:
    cx, cy = spec.center
    if spec.shape == "disc":
        ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        return np.column_stack([cx + spec.radius * np.cos(ang),
                                cy + spec.radius * np.sin(ang)])
    if spec.shape != "polygon":
        raise ValueError("floe shape must be 'polygon' or 'disc'")
    rng = np.random.default_rng(spec.seed)
    ang = rng.uniform(0.0, 2.0 * math.pi, 16)
    rad = spec.radius * rng.uniform(0.55, 1.0, 16)
    pts = np.column_stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)])
    return _convex_hull(pts)


def _area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _centroid(poly: np.ndarray) -> np.ndarray:
    x, y = poly[:, 0], poly[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * cross.sum()
    cx = ((x + np.roll(x, -1)) * cross).sum() / (6.0 * a)
    cy = ((y + np.roll(y, -1)) * cross).sum() / (6.0 * a)
    return np.array([cx, cy])


def _clip_halfplane(poly: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Keep the region with normal . p <= offset (Sutherland-Hodgman step)."""
    out = []
    k = len(poly)
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        da = float(normal @ a) - offset
        db = float(normal @ b) - offset
        if da <= 0:
            out.append(a)
        if (da < 0 < db) or (db < 0 < da):
            out.append(a + (b - a) * (da / (da - db)))
    return np.array(out) if out else np.empty((0, 2))


def _split_by_fraction(poly: np.ndarray, axis: int, fraction: float):
    """Cut perpendicular to ``axis`` so the low side holds ``fraction`` of area."""
    normal = np.zeros(2)
    normal[axis] = 1.0
    total = _area(poly)
    lo = poly[:, axis].min()
    hi = poly[:, axis].max()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        part = _clip_halfplane(poly, normal, mid)
        a = _area(part) if len(part) >= 3 else 0.0
        if a < fraction * total:
            lo = mid
        else:
            hi = mid
    cut = 0.5 * (lo + hi)
    low = _clip_halfplane(poly, normal, cut)
    high = _clip_halfplane(poly, -normal, -cut)
    return low, high


def _rasterize(polys: list[np.ndarray], size: int, intensity: float) -> np.ndarray:
    """Point-sample pixel centers against counterclockwise convex polygons."""
    yy, xx = np.mgrid[0:size, 0:size]
    px = xx + 0.5
    py = yy + 0.5
    values = np.zeros((size, size))
    for poly in polys:
        if len(poly) < 3:
            continue
        inside = np.ones((size, size), dtype=bool)
        k = len(poly)
        for i in range(k):
            ax, ay = poly[i]
            bx, by = poly[(i + 1) % k]
            inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0
        values[inside] = intensity
    return values


def _fragment_polys(scn: Scenario, t: float) -> list[np.ndarray]:
    base = _floe_polygon(scn.floe)
    kind = scn.kind
    if kind == "translate":
        d = np.asarray(scn.motion["displacement"], dtype=float)
        return [base + t * d]
    if kind in ("split_equal", "split_unequal"):
        frac = float(scn.motion["fraction"])
        left, right = _split_by_fraction(base, axis=0, fraction=frac)
        drift = np.asarray(scn.motion["displacement"], dtype=float)
        sep = float(scn.motion["separation"]) / 2.0
        return [left + t * (drift + [-sep, 0.0]),
                right + t * (drift + [sep, 0.0])]
    if kind == "split_quad":
        sep = float(scn.motion["separation"])
        left, right = _split_by_fraction(base, axis=0, fraction=0.5)
        parts = []
        for half in (left, right):
            lo, hi = _split_by_fraction(half, axis=1, fraction=0.5)
            parts.extend([lo, hi])
        areas = np.array([_area(p) for p in parts])
        pivot = _centroid(base)
        moves = np.array([np.sign(_centroid(p) - pivot) for p in parts]) * (sep / math.sqrt(2.0))
        # remove the area-weighted mean drift so the scene centroid stays put
        moves -= (areas[:, None] * moves).sum(axis=0) / areas.sum()
        return [p + t * m for p, m in zip(parts, moves)]
    if kind == "multi_floe":
        polys = []
        for i, f in enumerate(scn.motion["floes"]):
            spec = FloeSpec(tuple(f["center"]), float(f["radius"]),
                            shape=scn.floe.shape, seed=scn.floe.seed + i,
                            intensity=scn.floe.intensity)
            d = np.asarray(f["displacement"], dtype=float)
            polys.append(_floe_polygon(spec) + t * d)
        return polys
    raise ValueError(f"no polygon motion for kind {scn.kind!r}")


def render(scn: Scenario, t: float) -> IntensityRaster:
    """Render the scene at motion parameter ``t`` in [0, 1].

    Timestamps advance at one day per unit t, so a (t=0, t=1) pair spans
    86400 s.  Rotation resamples the t = 0 raster by inverse mapping with
    nearest-neighbor lookup; every other kind rasterizes moved polygons.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    geometry = GridGeometry(scn.size, scn.size, scn.pixel_size)
    if scn.kind == "rotate":
        base = _rasterize([_floe_polygon(scn.floe)], scn.size, scn.floe.intensity)
        if t == 0.0:
            values = base
        else:
            angle = t * float(scn.motion["angle"])
            pivot = _centroid(_floe_polygon(scn.floe))
            yy, xx = np.mgrid[0:scn.size, 0:scn.size]
            px = xx + 0.5 - pivot[0]
            py = yy + 0.5 - pivot[1]
            ca, sa = math.cos(-angle), math.sin(-angle)
            sx = np.floor(ca * px - sa * py + pivot[0]).astype(np.intp)
            sy = np.floor(sa * px + ca * py + pivot[1]).astype(np.intp)
            ok = (sx >= 0) & (sx < scn.size) & (sy >= 0) & (sy < scn.size)
            values = np.zeros_like(base)
            values[ok] = base[sy[ok], sx[ok]]
    else:
        values = _rasterize(_fragment_polys(scn, t), scn.size, scn.floe.intensity)
    return IntensityRaster(geometry, values, t * SECONDS_PER_DAY)


def render_pair(scn: Scenario, t: float = 1.0) -> tuple[IntensityRaster, IntensityRaster]:
    return render(scn, 0.0), render(scn, t)


# ---------------------------------------------------------------------------
# regularization sweep

@dataclass(frozen=True)
class SweepPoint:
    eps: float
    t: float
    w_minus_w0: float
    iterations: int
    converged: bool


def sweep(scn: Scenario, eps_list: tuple[float, ...] | list[float],
          t_steps: int = 11, floor: float = DEFAULT_FLOOR,
          tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
          mode: str = "auto", log_domain: bool = False) -> list[SweepPoint]:
    """Distance-vs-motion curves W_eps(t) - W_eps(0) on a shared t grid.

    Rows are ordered by (eps, t); each eps curve starts at exactly 0.  Solver
    errors carry the offending (eps, t) in their message.
    """
    if t_steps < 2:
        raise ValueError("t_steps must be >= 2")
    resolved = resolve_mode(mode, scn.size * scn.size)
    frame0 = render(scn, 0.0)
    p0 = normalize_to_mass(frame0, floor)
    ts = np.linspace(0.0, 1.0, t_steps)
    rows: list[SweepPoint] = []
    for eps in eps_list:
        kernel = KernelSpec(float(eps), resolved)
        w0 = None
        for t in ts:
            qt = normalize_to_mass(render(scn, float(t)), floor)
            try:
                pair = sinkhorn(p0, qt, kernel, tol=tol, max_iter=max_iter,
                                log_domain=log_domain)
            except FloatingPointError as exc:
                raise type(exc)(f"(eps={eps:g}, t={t:g}) {exc}") from exc
            w = wasserstein_value(p0, qt, pair, strict=False)
            if w0 is None:
                w0 = w
            rows.append(SweepPoint(float(eps), float(t), w - w0,
                                   pair.iterations, pair.converged))
    return rows


def sweep_to_csv(rows: list[SweepPoint], path: str | Path) -> None:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.eps:g},{r.t:g},{r.w_minus_w0:.12g},"
                     f"{r.iterations},{str(r.converged).lower()}")
    Path(path).write_text("\n".join(lines) + "\n")
