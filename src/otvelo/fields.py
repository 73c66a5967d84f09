"""Derived per-pixel fields: transport distance, barycentric displacement,
velocity, and incremental strain.

All fields are flat row-major float64 arrays aligned with the mass-field
grid; pixels excluded by the ice mask or the low-mass cutoff carry NaN (the
on-disk NODATA sentinel is applied at write time by :mod:`otvelo.raster`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .otcore import (ScalingPair, _require_converged, _scaled_apply,
                     transport_cost_rows, wasserstein_value)
from .raster import GridGeometry, MassField

# Pixels whose mass is below this multiple of the per-pixel floor contribution
# carry no image signal; their conditional averages are meaningless.
LOW_MASS_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class TransportSummary:
    """Scalar distance plus the per-pixel mean transport cost map.

    ``cbar[i] = sum_j gamma_ij c_ij / p_i`` in normalized squared units,
    NaN outside ``valid``.
    """

    w_eps: float
    cbar: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True, eq=False)
class BarycentricMap:
    """Conditional mean target position per source pixel, normalized coords."""

    target_x: np.ndarray
    target_y: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True, eq=False)
class VelocityField:
    """Per-pixel velocity in m/s over the acquisition interval ``dt`` seconds."""

    vx: np.ndarray
    vy: np.ndarray
    dt: float


@dataclass(frozen=True, eq=False)
class StrainField:
    """Incremental (dimensionless) strain tensor components and the signed
    principal strain of largest magnitude."""

    exx: np.ndarray
    eyy: np.ndarray
    exy: np.ndarray
    principal: np.ndarray


def _valid_pixels(p: MassField) -> np.ndarray:
    return p.mask & (p.mass >= LOW_MASS_FACTOR * p.floor_mass)


def transport_distance(p: MassField, pair: ScalingPair, q: MassField,
                       strict: bool = True) -> TransportSummary:
    """Regularized distance plus the per-pixel mean transport cost."""
    rows = transport_cost_rows(p, pair, strict=strict)
    cbar = np.maximum(rows, 0.0) / p.mass
    valid = _valid_pixels(p)
    cbar = np.where(valid, cbar, np.nan)
    w_eps = wasserstein_value(p, q, pair, strict=strict)
    return TransportSummary(w_eps, cbar, valid)


def transport_speed(summary: TransportSummary, geometry: GridGeometry,
                    dt: float) -> np.ndarray:
    """Physical rendering of cbar: sqrt(cbar) * norm_scale / dt, in m/s."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    return np.sqrt(summary.cbar) * (geometry.norm_scale / dt)


def barycentric_map(p: MassField, pair: ScalingPair,
                    strict: bool = True) -> BarycentricMap:
    """Row-normalized mean target position  x_q = (u * xi(w * x)) / p.

    Low-mass source pixels are NaN; their conditional distributions average
    background floor mass.  The p-weighted mean of the finite map equals the
    target centroid (checked in the test suite on every converged solve that
    feeds this function).
    """
    _require_converged(pair, "barycentric map", strict)
    x, y = p.geometry.pixel_centers()
    tx, ty = _scaled_apply(pair.log_u, pair.log_w, pair, p.geometry, x, y)
    valid = _valid_pixels(p)
    return BarycentricMap(np.where(valid, tx / p.mass, np.nan),
                          np.where(valid, ty / p.mass, np.nan), valid)


def velocity(bmap: BarycentricMap, geometry: GridGeometry, dt: float) -> VelocityField:
    """Velocity (x_q - x_p) * norm_scale / dt at each source pixel, m/s."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    x, y = geometry.pixel_centers()
    scale = geometry.norm_scale / dt
    return VelocityField((bmap.target_x - x) * scale, (bmap.target_y - y) * scale, dt)


def strain(vel: VelocityField, geometry: GridGeometry, dt: float) -> StrainField:
    """Incremental strain  e = (dt / 2) (grad v + grad v^T).

    Spatial derivatives use second-order central differences inside the grid
    and second-order one-sided stencils on the boundary (grid spacing is
    ``pixel_size`` meters).  Any stencil touching a NaN velocity yields NaN.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if geometry.width < 3 or geometry.height < 3:
        raise ValueError("strain needs at least a 3 x 3 grid")
    h = geometry.pixel_size
    vx = vel.vx.reshape(geometry.height, geometry.width)
    vy = vel.vy.reshape(geometry.height, geometry.width)
    dvx_dx = np.gradient(vx, h, axis=1, edge_order=2)
    dvx_dy = np.gradient(vx, h, axis=0, edge_order=2)
    dvy_dx = np.gradient(vy, h, axis=1, edge_order=2)
    dvy_dy = np.gradient(vy, h, axis=0, edge_order=2)
    exx = (dt * dvx_dx).reshape(-1)
    eyy = (dt * dvy_dy).reshape(-1)
    exy = (0.5 * dt * (dvx_dy + dvy_dx)).reshape(-1)
    return StrainField(exx, eyy, exy, _principal(exx, eyy, exy))


def _principal(exx: np.ndarray, eyy: np.ndarray, exy: np.ndarray) -> np.ndarray:
    mean = 0.5 * (exx + eyy)
    radius = np.sqrt((0.5 * (exx - eyy)) ** 2 + exy ** 2)
    lo = mean - radius
    hi = mean + radius
    # signed eigenvalue of larger magnitude; exact ties resolve positive
    return np.where(np.abs(hi) >= np.abs(lo), hi, lo)


def principal_strain(field: StrainField, clip: float | None = None) -> np.ndarray:
    """Signed principal strain of largest magnitude, optionally clipped to
    [-clip, clip] for display."""
    out = _principal(field.exx, field.eyy, field.exy)
    if clip is not None:
        if not clip > 0:
            raise ValueError("clip bound must be positive")
        out = np.clip(out, -clip, clip)
    return out
