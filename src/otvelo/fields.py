"""Derived per-pixel fields: transport distance, barycentric displacement,
velocity, and incremental strain over the velocity field's interval.

This module reads each solved :class:`otvelo.otcore.ScalingPair`: W_eps =
eps * (<p, log u> + <q, log w>) and the coupling moments u * xi(w * f), formed
through the solve's kernel operator from the log scalings, so they stay
finite however far u and w spread, whichever arithmetic the solve ended in.

All fields are flat row-major float64 arrays aligned with the mass-field
grid; pixels excluded by the ice mask or the low-mass cutoff carry NaN (the
on-disk NODATA sentinel is applied at write time by :mod:`otvelo.raster`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .otcore import ScalingPair, _make_operator
from .raster import GridGeometry, MassField

# Pixels whose mass is below this multiple of the per-pixel floor contribution
# carry no image signal; their conditional averages are meaningless.
LOW_MASS_FACTOR = 10.0


class NotConvergedError(RuntimeError):
    """A downstream quantity was requested from a non-converged scaling pair."""


@dataclass(frozen=True, eq=False)
class BarycentricMap:
    """Conditional mean target position per pixel of ``geometry``, normalized."""

    target_x: np.ndarray
    target_y: np.ndarray
    geometry: GridGeometry


@dataclass(frozen=True, eq=False)
class TransportSummary:
    """Scalar distance, the per-pixel mean transport cost map, and the
    barycentric map formed from the same first moments of the coupling.

    ``cbar[i] = sum_j gamma_ij c_ij / p_i`` in normalized squared units,
    NaN where ``target`` is NaN.
    """

    w_eps: float
    cbar: np.ndarray
    target: BarycentricMap


@dataclass(frozen=True, eq=False)
class VelocityField:
    """Per-pixel velocity in m/s over ``dt`` seconds on the grid ``geometry``."""

    vx: np.ndarray
    vy: np.ndarray
    dt: float
    geometry: GridGeometry


@dataclass(frozen=True, eq=False)
class StrainField:
    """Incremental (dimensionless) strain tensor components and the signed
    principal strain of largest magnitude."""

    exx: np.ndarray
    eyy: np.ndarray
    exy: np.ndarray
    principal: np.ndarray


def _check_pair(pair: ScalingPair, what: str, strict: bool,
                *masses: MassField) -> None:
    """Refuse ``masses`` on a grid other than the pair's, and a pair that
    did not converge when ``strict``."""
    for m in masses:
        if m.geometry != pair.geometry:
            raise ValueError(f"{what}: mass field on {m.geometry}, pair solved on "
                             f"{pair.geometry}; pass the fields it was solved from")
    if strict and not pair.converged:
        raise NotConvergedError(
            f"{what} requested from a scaling pair that did not converge "
            f"(residual {pair.residual:.3e} after {pair.iterations} iterations)")


def wasserstein_value(p: MassField, q: MassField, pair: ScalingPair,
                      strict: bool = True) -> float:
    """Regularized transport distance eps * (<p, log u> + <q, log w>), equal
    to sum(c gamma) - eps H(gamma) at the scaled coupling once both
    marginals hold."""
    _check_pair(pair, "transport value", strict, p, q)
    return float(pair.kernel.epsilon * (p.mass @ pair.log_u + q.mass @ pair.log_w))


def _moments(pair: ScalingPair):
    """The coupling moment u * xi(w * f) of ``pair`` as a function of log f,
    exp(log u + logsumexp(log w + log f)) through one kernel operator.  log f
    broadcasts against the (height, width) grid: a row or a column gives a
    new grid, and a full grid is overwritten with its moment."""
    g = pair.geometry
    op = _make_operator(pair.kernel, g)
    log_w = pair.log_w.reshape(g.height, g.width)

    def moment(log_f: np.ndarray) -> np.ndarray:
        out = log_f if log_f.shape == log_w.shape else None
        m = np.add(log_w, log_f, out=out).reshape(-1)
        op.log_apply(m, out=m)
        m += pair.log_u
        return np.exp(m, out=m).reshape(log_w.shape)

    return moment


def _barycentric(p: MassField, moment) -> BarycentricMap:
    """The map x_q = moment(x) / p of ``moment`` (see :func:`_moments`),
    NaN outside the ice mask and on low-mass pixels."""
    invalid = ~(p.mask & (p.mass >= LOW_MASS_FACTOR * p.floor_mass))
    x, y = p.geometry._axis_centers()
    tx, ty = (moment(log_f).reshape(-1) / p.mass
              for log_f in (np.log(x), np.log(y)[:, None]))
    tx[invalid] = ty[invalid] = np.nan
    return BarycentricMap(tx, ty, p.geometry)


def transport_distance(p: MassField, pair: ScalingPair, q: MassField,
                       strict: bool = True) -> TransportSummary:
    """Regularized distance, per-pixel mean transport cost and barycentric map.

    The mean cost of the mass leaving pixel i, sum_j gamma_ij c_ij / p_i,
    separates into

        (u * xi(w * |x|^2))_i / p_i - 2 x_i . T(x_i) + |x_i|^2

    where T = (u * xi(w * x)) / p is the barycentric map.  So the cost map
    takes three coupling moments u * xi(w * f), f = x, y, |x|^2, all through
    one kernel operator: the first two form ``target``, the map
    :func:`barycentric_map` returns, and the third the cost map.  Pixel
    centers are positive, so these f have finite logs.  The map is NaN
    outside the valid pixels, and that NaN carries into the cost map.  ``q``
    is read only for ``w_eps``, which is formed first, so a caller that
    hands over its last reference to ``q`` has it freed before the moments.
    """
    w_eps = wasserstein_value(p, q, pair, strict=strict)
    del q
    moment = _moments(pair)
    target = _barycentric(p, moment)
    g = p.geometry
    shape = (g.height, g.width)
    x, y = g._axis_centers()
    y = y[:, None]
    sq = x * x + y * y
    cbar = moment(np.log(sq, out=sq))
    del moment   # frees the operator's scratch grid before the cost map's
    cbar /= p.mass.reshape(shape)
    # the moment / p - 2 (x tx + y ty) + |x|^2, summed in this order
    cross = target.target_x.reshape(shape) * x
    cross += target.target_y.reshape(shape) * y
    cross *= 2.0
    cbar -= cross
    cbar += np.add(x * x, y * y, out=cross)
    np.maximum(cbar, 0.0, out=cbar)
    return TransportSummary(w_eps, cbar.reshape(-1), target)


def transport_speed(summary: TransportSummary, dt: float) -> np.ndarray:
    """Physical rendering of cbar: sqrt(cbar) * norm_scale / dt, in m/s."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    return np.sqrt(summary.cbar) * (summary.target.geometry.norm_scale / dt)


def barycentric_map(p: MassField, pair: ScalingPair,
                    strict: bool = True) -> BarycentricMap:
    """Row-normalized mean target position  x_q = (u * xi(w * x)) / p, the
    same map :func:`transport_distance` returns as ``target``.

    Low-mass source pixels are NaN; their conditional distributions average
    background floor mass.  The p-weighted mean of the finite map equals the
    target centroid (checked in the test suite on every converged solve that
    feeds this function).
    """
    _check_pair(pair, "barycentric map", strict, p)
    return _barycentric(p, _moments(pair))


def velocity(bmap: BarycentricMap, dt: float) -> VelocityField:
    """Velocity (x_q - x_p) * norm_scale / dt at each source pixel, m/s, on
    the grid ``bmap.geometry``."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    geometry = bmap.geometry
    x, y = geometry._axis_centers()
    shape = (geometry.height, geometry.width)
    scale = geometry.norm_scale / dt
    vx = bmap.target_x.reshape(shape) - x
    vx *= scale
    vy = bmap.target_y.reshape(shape) - y[:, None]
    vy *= scale
    return VelocityField(vx.reshape(-1), vy.reshape(-1), dt, geometry)


def strain(vel: VelocityField) -> StrainField:
    """Incremental strain  e = (dt / 2) (grad v + grad v^T), dt = ``vel.dt``,
    on the grid ``vel.geometry``.

    Spatial derivatives use second-order central differences inside the grid
    and second-order one-sided stencils on the boundary (grid spacing is
    ``pixel_size`` meters).  Any stencil touching a NaN velocity yields NaN.
    """
    dt, geometry = vel.dt, vel.geometry
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if geometry.width < 3 or geometry.height < 3:
        raise ValueError("strain needs at least a 3 x 3 grid")
    h = geometry.pixel_size
    vx = vel.vx.reshape(geometry.height, geometry.width)
    vy = vel.vy.reshape(geometry.height, geometry.width)
    # in place, so at most two gradient arrays are alive at once
    exx = np.gradient(vx, h, axis=1, edge_order=2)
    exx *= dt
    eyy = np.gradient(vy, h, axis=0, edge_order=2)
    eyy *= dt
    exy = np.gradient(vx, h, axis=0, edge_order=2)
    exy += np.gradient(vy, h, axis=1, edge_order=2)
    exy *= 0.5 * dt
    exx, eyy, exy = exx.reshape(-1), eyy.reshape(-1), exy.reshape(-1)
    return StrainField(exx, eyy, exy, _principal(exx, eyy, exy))


def _principal(exx: np.ndarray, eyy: np.ndarray, exy: np.ndarray) -> np.ndarray:
    # in place, so three float grids and one bool grid are alive at most
    hi = exx + eyy
    hi *= 0.5  # the mean
    radius = exx - eyy
    radius *= 0.5
    np.square(radius, out=radius)
    lo = np.square(exy)
    radius += lo
    np.sqrt(radius, out=radius)
    np.subtract(hi, radius, out=lo)
    hi += radius
    # signed eigenvalue of larger magnitude; exact ties resolve positive.
    # |lo| <= |hi| is -|hi| <= lo <= |hi|, false where either is NaN
    np.abs(hi, out=radius)
    keep = np.less_equal(lo, radius)
    np.negative(radius, out=radius)
    np.greater_equal(lo, radius, out=keep, where=keep)
    np.copyto(lo, hi, where=keep)
    return lo


def principal_strain(field: StrainField, clip: float | None = None) -> np.ndarray:
    """Signed principal strain of largest magnitude, optionally clipped to
    [-clip, clip] for display: ``field.principal`` itself, not a copy,
    without ``clip``, else a new clipped array."""
    if clip is None:
        return field.principal
    if not clip > 0:
        raise ValueError("clip bound must be positive")
    return np.clip(field.principal, -clip, clip)
