r"""Entropy-regularized optimal transport between mass fields on a pixel grid.

The regularized distance between mass fields p and q is

    W_eps(p, q) = min_{gamma in Pi(p, q)}  sum_ij c_ij gamma_ij - eps H(gamma)

with squared Euclidean ground cost on normalized pixel-center coordinates
(longer image axis spans [0, 1]) and entropy H(gamma) = -sum gamma log gamma.
The optimum has the scaling form gamma = diag(u) xi diag(w), xi = exp(-c/eps),
and is found by alternating diagonal scaling (Sinkhorn iteration):

    w <- q / (xi^T u),   u <- p / (xi w)

starting from u = 1.  The u-update makes the source marginal exact, so the
iteration stops when the L1 target-marginal error ||w * (xi^T u) - q||_1
drops to ``tol`` (the rule of Altschuler, Weed & Rigollet 2017; Peyre &
Cuturi, "Computational Optimal Transport", sec. 4.2) or after ``max_iter``
sweeps.  Linear and log-domain iterations share this loop.  At the optimum
the value has the dual expression

    W_eps = eps * (<p, log u> + <q, log w>)

which this module uses throughout (it is exact whenever the marginals hold).

Because the squared Euclidean cost separates along axes, xi factorizes into
two 1-D Gaussian kernels: applying xi to a field is two banded 1-D
convolution passes (columns then rows) instead of an N x N product.  The 1-D
weights exp(-(k * pitch)^2 / eps) are truncated at the radius where the
boundary weight falls to 1e-16 of the center weight; the dense path is kept
for small grids and as a cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raster import GridGeometry, MassField

DENSE_MAX_PIXELS = 4096
DEFAULT_EPS = 1e-3
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000

# exp(-x) <= 1e-16 once x >= 16 ln 10
_TRUNCATION_EXPONENT = 16.0 * math.log(10.0)


class ScaleError(ValueError):
    """A dense N x N object was requested beyond the dense-mode pixel budget."""


class StabilizationError(FloatingPointError):
    """Scaling vectors left the float64 range during Sinkhorn iteration."""


class NotConvergedError(RuntimeError):
    """A downstream quantity was requested from a non-converged scaling pair."""


@dataclass(frozen=True)
class KernelSpec:
    """Regularization strength and kernel application strategy.

    ``epsilon`` is in normalized squared-length units (the longer image axis
    has length 1).  Convolutional mode truncates the 1-D kernels at
    :func:`required_truncation_radius`.
    """

    epsilon: float
    mode: str = "conv"
    # not a field: the radius always follows from epsilon and the grid; the
    # attribute stays readable for perfbench/tracing.py
    truncation_radius = None

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if self.mode not in ("dense", "conv"):
            raise ValueError("mode must be 'dense' or 'conv'")


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense pairwise squared-distance matrix in normalized coordinates."""

    geometry: GridGeometry
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class ScalingPair:
    """Sinkhorn output: scaling vectors (stored as logs) plus diagnostics.

    ``residual`` is the final L1 target-marginal error ||w * (xi^T u) - q||_1
    (the source marginal is exact after every sweep); ``converged`` means
    residual <= tol.  ``residual_history[k]`` is that error after sweep k + 1.
    """

    log_u: np.ndarray
    log_w: np.ndarray
    iterations: int
    residual: float
    converged: bool
    kernel: KernelSpec
    residual_history: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return np.exp(self.log_u)

    @property
    def w(self) -> np.ndarray:
        return np.exp(self.log_w)


@dataclass(frozen=True, eq=False)
class DenseCoupling:
    """Materialized transport plan gamma = diag(u) xi diag(w)."""

    geometry: GridGeometry
    entries: np.ndarray
    epsilon: float


def build_cost(geometry: GridGeometry) -> CostMatrix:
    """Dense squared-Euclidean cost between all pixel-center pairs.

    Only available up to DENSE_MAX_PIXELS pixels; larger grids must use the
    convolutional kernel, which never forms this matrix.
    """
    if geometry.n > DENSE_MAX_PIXELS:
        raise ScaleError(
            f"dense cost needs {geometry.n} x {geometry.n} entries; "
            f"limit is {DENSE_MAX_PIXELS} pixels, use convolutional mode"
        )
    x, y = geometry.pixel_centers()
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return CostMatrix(geometry, dx * dx + dy * dy)


def required_truncation_radius(epsilon: float, geometry: GridGeometry) -> int:
    """Smallest 1-D kernel radius keeping the dropped weight <= 1e-16 of center."""
    longest = max(geometry.width, geometry.height)
    return max(1, math.ceil(math.sqrt(_TRUNCATION_EXPONENT * epsilon) * longest))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


class _DenseOperator:
    def __init__(self, spec: KernelSpec, geometry: GridGeometry,
                 cost: CostMatrix | None = None):
        if cost is None:
            cost = build_cost(geometry)
        self.exponent = -cost.entries / spec.epsilon
        self.xi = np.exp(self.exponent)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.xi @ v

    def log_apply(self, lv: np.ndarray) -> np.ndarray:
        return _logsumexp(self.exponent + lv[None, :], axis=1)


class _ConvOperator:
    """xi as two banded 1-D Gaussian passes; memory stays O(N)."""

    def __init__(self, spec: KernelSpec, geometry: GridGeometry):
        radius = required_truncation_radius(spec.epsilon, geometry)
        self.radius = radius
        self.shape = (geometry.height, geometry.width)
        pitch = geometry.pitch
        self.band_x = self._band(geometry.width, radius, pitch, spec.epsilon)
        self.band_y = self._band(geometry.height, radius, pitch, spec.epsilon)
        self.pitch = pitch
        self.epsilon = spec.epsilon

    @staticmethod
    def _band(n: int, radius: int, pitch: float, epsilon: float) -> np.ndarray:
        idx = np.arange(n)
        offsets = idx[:, None] - idx[None, :]
        band = np.exp(-(offsets * pitch) ** 2 / epsilon)
        band[np.abs(offsets) > radius] = 0.0
        return band

    def apply(self, v: np.ndarray) -> np.ndarray:
        grid = v.reshape(self.shape)
        return (self.band_y @ grid @ self.band_x).reshape(-1)

    def _log_weights(self, n: int) -> tuple[np.ndarray, int]:
        r = min(self.radius, n - 1)
        k = np.arange(-r, r + 1)
        return -(k * self.pitch) ** 2 / self.epsilon, r

    def _lse_pass(self, grid: np.ndarray, axis: int) -> np.ndarray:
        n = grid.shape[axis]
        log_w, r = self._log_weights(n)
        out = np.full_like(grid, -np.inf)
        for k in range(-r, r + 1):
            lo_dst, hi_dst = max(0, k), n + min(0, k)
            lo_src, hi_src = max(0, -k), n + min(0, -k)
            if axis == 0:
                dst, src = out[lo_dst:hi_dst, :], grid[lo_src:hi_src, :]
            else:
                dst, src = out[:, lo_dst:hi_dst], grid[:, lo_src:hi_src]
            np.logaddexp(dst, src + log_w[k + r], out=dst)
        return out

    def log_apply(self, lv: np.ndarray) -> np.ndarray:
        grid = lv.reshape(self.shape)
        return self._lse_pass(self._lse_pass(grid, axis=1), axis=0).reshape(-1)


def _make_operator(spec: KernelSpec, geometry: GridGeometry,
                   cost: CostMatrix | None = None):
    if spec.mode == "dense":
        return _DenseOperator(spec, geometry, cost)
    return _ConvOperator(spec, geometry)


def kernel_apply(v: np.ndarray, kernel: KernelSpec, geometry: GridGeometry) -> np.ndarray:
    """Apply the Gibbs kernel xi = exp(-c/eps) to a flat field."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape != (geometry.n,):
        raise ValueError("field length must equal width * height")
    if not np.all(np.isfinite(v)):
        raise ValueError("kernel input must be finite")
    return _make_operator(kernel, geometry).apply(v)


def _check_scaling(vec: np.ndarray, name: str, iteration: int) -> None:
    if not np.all(np.isfinite(vec)) or np.any(vec <= 0.0):
        raise StabilizationError(
            f"{name} left (0, inf) at iteration {iteration}; the mass "
            "separation is too sharp for this epsilon in linear arithmetic. "
            "Increase epsilon or rerun with log_domain=True."
        )


def sinkhorn(p: MassField, q: MassField, kernel: KernelSpec,
             tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
             log_domain: bool = False) -> ScalingPair:
    """Alternating diagonal scaling toward gamma = diag(u) xi diag(w).

    Each sweep updates w <- q / (xi^T u) then u <- p / (xi w), so the source
    marginal is exact after every sweep.  Iteration stops once the L1
    target-marginal error ||w * xi^T u - q||_1 is at most ``tol``, or after
    ``max_iter`` sweeps; the check reuses the xi^T u the next sweep needs.
    ``log_domain=True`` runs the same loop on log u, log w with logsumexp
    kernel applications, which tolerates arbitrarily sharp mass ratios at
    the price of speed.

    Raises StabilizationError if the scaling vectors overflow or underflow in
    linear mode.
    """
    if p.geometry != q.geometry:
        raise ValueError("source and target must share one grid geometry")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    op = _make_operator(kernel, p.geometry)
    if log_domain:
        apply, divide = op.log_apply, np.subtract
        pv, qv = np.log(p.mass), np.log(q.mass)
        check = lambda *_: None  # log scalings span any range
        u = np.zeros(p.geometry.n)
    else:
        apply, divide = op.apply, np.divide
        pv, qv = p.mass, q.mass
        check = _check_scaling
        u = np.ones(p.geometry.n)

    history = []
    # overflow is detected by _check_scaling, not by numpy warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = apply(u)
        for iterations in range(1, max_iter + 1):
            w = divide(qv, t)
            check(w, "w", iterations)
            s = apply(w)
            check(s, "xi w", iterations)
            u = divide(pv, s)
            check(u, "u", iterations)
            t = apply(u)
            check(t, "xi^T u", iterations)
            col = np.exp(w + t) if log_domain else w * t
            history.append(float(np.abs(col - q.mass).sum()))
            if history[-1] <= tol:
                break
    if not log_domain:
        u, w = np.log(u), np.log(w)
    residual = history[-1]
    return ScalingPair(u, w, iterations, residual, residual <= tol, kernel,
                       np.asarray(history))


def _linear_scalings(pair: ScalingPair) -> tuple[np.ndarray, np.ndarray]:
    """u and w in linear form, as the convolutional field formulas need them.

    Raises StabilizationError when a log-domain solve left them outside the
    float64 range.
    """
    with np.errstate(over="ignore"):
        u, w = pair.u, pair.w
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(w))):
        raise StabilizationError(
            "scaling vectors exceed the float64 range in linear form, so the "
            "convolutional fields cannot be formed; re-solve with a larger "
            "epsilon (--eps). Dense mode forms the fields in log space but is "
            f"limited to {DENSE_MAX_PIXELS} pixels."
        )
    return u, w


def _require_converged(pair: ScalingPair, what: str, strict: bool) -> None:
    if strict and not pair.converged:
        raise NotConvergedError(
            f"{what} requested from a scaling pair that did not converge "
            f"(residual {pair.residual:.3e} after {pair.iterations} iterations)"
        )


def dense_coupling(pair: ScalingPair, cost: CostMatrix,
                   strict: bool = True) -> DenseCoupling:
    """Materialize gamma = diag(u) xi diag(w) (dense scale only).

    Entries are assembled in log space, so extreme scaling magnitudes from
    log-domain solves stay representable.
    """
    _require_converged(pair, "dense coupling", strict)
    eps = pair.kernel.epsilon
    exponent = (pair.log_u[:, None] - cost.entries / eps + pair.log_w[None, :])
    return DenseCoupling(cost.geometry, np.exp(exponent), eps)


def wasserstein_value(p: MassField, q: MassField, pair: ScalingPair,
                      strict: bool = True) -> float:
    """Regularized transport distance eps * (<p, log u> + <q, log w>).

    Algebraically identical to sum(c gamma) - eps H(gamma) at the scaled
    coupling once both marginals hold.
    """
    _require_converged(pair, "transport value", strict)
    eps = pair.kernel.epsilon
    return float(eps * (p.mass @ pair.log_u + q.mass @ pair.log_w))


def coupling_marginals(p: MassField, pair: ScalingPair,
                       cost: CostMatrix | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of the implied coupling, without materializing it
    in convolutional mode."""
    if pair.kernel.mode == "dense":
        gamma = dense_coupling(pair, cost or build_cost(p.geometry), strict=False)
        return gamma.entries.sum(axis=1), gamma.entries.sum(axis=0)
    op = _make_operator(pair.kernel, p.geometry)
    u, w = pair.u, pair.w
    return u * op.apply(w), w * op.apply(u)


def transport_cost_rows(p: MassField, pair: ScalingPair,
                        cost: CostMatrix | None = None,
                        strict: bool = True) -> np.ndarray:
    """Per-source-pixel transport cost sum_j gamma_ij c_ij.

    Dense mode takes direct row sums of gamma * c.  Convolutional mode uses
    the separated form

        |x_i|^2 p_i - 2 x_i . (u * xi(w * x))_i + (u * xi(w * |x|^2))_i

    which needs three kernel applications and no dense matrix.
    """
    _require_converged(pair, "transport cost rows", strict)
    if pair.kernel.mode == "dense":
        c = (cost or build_cost(p.geometry)).entries
        gamma = np.exp(pair.log_u[:, None] - c / pair.kernel.epsilon
                       + pair.log_w[None, :])
        return (gamma * c).sum(axis=1)
    op = _make_operator(pair.kernel, p.geometry)
    u, w = _linear_scalings(pair)
    x, y = p.geometry.pixel_centers()
    sq = x * x + y * y
    kx = op.apply(w * x)
    ky = op.apply(w * y)
    ks = op.apply(w * sq)
    return sq * p.mass - 2.0 * (x * u * kx + y * u * ky) + u * ks
