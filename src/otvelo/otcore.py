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

Because the squared Euclidean cost separates along axes, xi is exactly the
Kronecker product of two 1-D Gaussian kernels (Solomon et al. 2015,
"Convolutional Wasserstein distances"): applying xi to a field is two 1-D
passes (columns then rows) with O(N) memory, and no N x N matrix is formed
in either mode.  Dense mode keeps every 1-D weight exp(-(k * pitch)^2 / eps),
so it equals the N x N kernel to rounding at any grid size.  Convolutional
mode truncates the weights at the radius r where they fall to 1e-16 of the
center weight.  The truncation also caps the displacement the convolutional
kernel can carry at r pixels, in linear and log-domain arithmetic alike: mass
that must move farther never reaches the target marginal, and the solve stops
at ``max_iter`` unconverged.

Log-domain iterations apply xi to log-scalings with the same two band
matrices: along each 1-D line the log values are shifted by their maximum m,
and log(exp(lv - m) @ band) + m is one GEMM per axis (the separable form of
the stabilized log-sum-exp of Schmitzer 2019, "Stabilized sparse scaling
algorithms for entropy regularized transport problems").  Where a line's
log-scalings spread so far that a shifted sum underflows or goes denormal,
that entry is recomputed as an exact log-sum-exp over its 2r + 1 band
offsets, so the result does not depend on how far the scalings spread.

The per-pixel moments of the coupling that :mod:`otvelo.fields` needs are
sums u * xi(w * f); :func:`_scaled_apply` forms them through the same kernel
operator and in the same arithmetic as the solve that produced u and w.
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
# a max-shifted kernel sum below this may have lost digits to underflow;
# above it, the terms that underflowed (each < 1e-307) do not matter
_UNDERFLOW_SUM = 1e-280


class ScaleError(ValueError):
    """A dense N x N matrix was requested beyond its pixel limit: the cost
    matrix beyond DENSE_MAX_PIXELS, or the exact oracle beyond its own."""


class StabilizationError(FloatingPointError):
    """Scaling vectors left the float64 range during Sinkhorn iteration."""


class NotConvergedError(RuntimeError):
    """A downstream quantity was requested from a non-converged scaling pair."""


@dataclass(frozen=True)
class KernelSpec:
    """Regularization strength and kernel application strategy.

    ``epsilon`` is in normalized squared-length units (the longer image axis
    has length 1).  Both modes apply xi as two separable 1-D passes: dense
    mode keeps the full 1-D kernels (exact at any grid size), convolutional
    mode truncates them at :func:`required_truncation_radius`.
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
    ``log_domain`` records the arithmetic of the solve, which derived fields
    reuse.
    """

    log_u: np.ndarray
    log_w: np.ndarray
    iterations: int
    residual: float
    converged: bool
    kernel: KernelSpec
    residual_history: np.ndarray
    log_domain: bool


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


class _SeparableOperator:
    """xi as two banded 1-D Gaussian passes of the given radius in px; memory
    stays O(N)."""

    def __init__(self, spec: KernelSpec, geometry: GridGeometry, radius: int):
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

    def _log_pass(self, grid: np.ndarray, band: np.ndarray) -> np.ndarray:
        """log(band @ exp(grid)) down each column, as one max-shifted GEMM.

        A shifted sum below _UNDERFLOW_SUM underflowed or went denormal, so
        those entries are recomputed as an exact log-sum-exp over their
        2r + 1 band offsets, padded with -inf at the edges.
        """
        top = grid.max(axis=0)
        s = grid - top
        np.exp(s, out=s)
        s = band @ s
        low = s < _UNDERFLOW_SUM
        np.maximum(s, _UNDERFLOW_SUM, out=s)
        np.log(s, out=s)
        s += top
        if low.any():
            rows, cols = np.nonzero(low)
            r = min(self.radius, grid.shape[0] - 1)
            k = np.arange(2 * r + 1)
            log_w = -((k - r) * self.pitch) ** 2 / self.epsilon
            padded = np.pad(grid, ((r, r), (0, 0)), constant_values=-np.inf)
            # about max(N, 2^16) window elements at once keep memory O(N)
            step = 1 + max(grid.size, 1 << 16) // k.size
            for lo in range(0, rows.size, step):
                i, j = rows[lo:lo + step, None], cols[lo:lo + step, None]
                win = padded[i + k, j] + log_w
                m = win.max(axis=1, keepdims=True)
                s[i, j] = np.log(np.exp(win - m).sum(axis=1, keepdims=True)) + m
        return s

    def log_apply(self, lv: np.ndarray) -> np.ndarray:
        """log(xi exp(lv)) through the band matrices of :meth:`apply`: rows
        first (on the transposed grid), then columns."""
        grid = self._log_pass(lv.reshape(self.shape).T, self.band_x)
        return self._log_pass(grid.T, self.band_y).reshape(-1)


def _make_operator(spec: KernelSpec, geometry: GridGeometry) -> _SeparableOperator:
    if spec.mode == "conv":
        return _SeparableOperator(
            spec, geometry, required_truncation_radius(spec.epsilon, geometry))
    # a radius spanning the longer axis keeps every weight: the exact kernel
    return _SeparableOperator(spec, geometry, max(geometry.width, geometry.height) - 1)


def resolve_mode(mode: str, n: int) -> str:
    """Kernel mode for an n-pixel grid: ``auto`` picks dense up to
    DENSE_MAX_PIXELS pixels and convolutional beyond."""
    if mode == "auto":
        return "dense" if n <= DENSE_MAX_PIXELS else "conv"
    if mode not in ("dense", "conv"):
        raise ValueError("mode must be auto, dense, or conv")
    return mode


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
            "Increase epsilon (--eps), or rerun with log_domain=True "
            "(--log-domain on the command line)."
        )


def sinkhorn(p: MassField, q: MassField, kernel: KernelSpec,
             tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
             log_domain: bool = False) -> ScalingPair:
    """Alternating diagonal scaling toward gamma = diag(u) xi diag(w).

    Each sweep updates w <- q / (xi^T u) then u <- p / (xi w), so the source
    marginal is exact after every sweep.  Iteration stops once the L1
    target-marginal error ||w * xi^T u - q||_1 is at most ``tol``, or after
    ``max_iter`` sweeps; the check reuses the xi^T u the next sweep needs.
    ``log_domain=True`` runs the same loop on log u, log w with max-shifted
    log-sum-exp kernel applications, which tolerate arbitrarily sharp mass
    ratios; away from underflow a log-domain solve takes about 1.25x the
    time of a linear one at 512^2 and 2.35x at 64^2, where the elementwise
    exp and log weigh more against the GEMMs.

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
                       np.asarray(history), log_domain)


def _scaled_apply(log_a: np.ndarray, log_b: np.ndarray, pair: ScalingPair,
                  geometry: GridGeometry, *fields: np.ndarray) -> list[np.ndarray]:
    """a * xi(b * f) for each positive field f, in the solve's arithmetic.

    After a log-domain solve this is exp(log a + logsumexp(log b + log f)),
    which stays finite however far a and b spread; after a linear solve a and
    b were finite already and the linear apply serves.
    """
    op = _make_operator(pair.kernel, geometry)
    if pair.log_domain:
        return [np.exp(log_a + op.log_apply(log_b + np.log(f))) for f in fields]
    a, b = np.exp(log_a), np.exp(log_b)
    return [a * op.apply(b * f) for f in fields]


def _require_converged(pair: ScalingPair, what: str, strict: bool) -> None:
    if strict and not pair.converged:
        raise NotConvergedError(
            f"{what} requested from a scaling pair that did not converge "
            f"(residual {pair.residual:.3e} after {pair.iterations} iterations)"
        )


def wasserstein_value(p: MassField, q: MassField, pair: ScalingPair,
                      strict: bool = True) -> float:
    """Regularized transport distance eps * (<p, log u> + <q, log w>).

    Algebraically identical to sum(c gamma) - eps H(gamma) at the scaled
    coupling once both marginals hold.
    """
    _require_converged(pair, "transport value", strict)
    eps = pair.kernel.epsilon
    return float(eps * (p.mass @ pair.log_u + q.mass @ pair.log_w))
