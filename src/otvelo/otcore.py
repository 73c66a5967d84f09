r"""Entropy-regularized optimal transport between mass fields on a pixel grid.

The regularized distance between mass fields p and q is

    W_eps(p, q) = min_{gamma in Pi(p, q)}  sum_ij c_ij gamma_ij - eps H(gamma)

with squared Euclidean ground cost on normalized pixel-center coordinates
(longer image axis spans [0, 1]) and entropy H(gamma) = -sum gamma log gamma.
The optimum has the scaling form gamma = diag(u) xi diag(w), xi = exp(-c/eps),
and is found by alternating diagonal scaling (Sinkhorn iteration), here
over-relaxed:

    w <- w * (q / (w * xi^T u))^omega,   u <- u * (p / (u * xi w))^omega

starting from u = 1, from the solve of a coarser grid (below), or from
given log scalings.  omega = 1 is the classic w <- q / (xi^T u),
u <- p / (xi w); the loop runs six such sweeps, then picks omega from the
rate at which they reduced the error (or carries a coarser level's omega,
below), and falls back to omega = 1 if the relaxed sweeps overflow or
stall.  Linear and
log-domain iterations share this loop, and a linear solve whose plain sweeps
overflow restarts in it in log-domain arithmetic.  It stops when the L1
marginal error ||u * xi w - p||_1 + ||w * xi^T u - q||_1 drops to ``tol``
(the rule of Altschuler, Weed & Rigollet 2017; Peyre & Cuturi,
"Computational Optimal Transport", sec. 4.2) or after ``max_iter`` sweeps,
and returns u = p / (xi w), whose source marginal is exact.  At the optimum
the value has the dual expression

    W_eps = eps * (<p, log u> + <q, log w>)

which this module uses throughout (it is exact whenever the marginals hold).

Large solves run coarse to fine (Schmitzer 2019, "Stabilized sparse scaling
algorithms for entropy regularized transport problems", sec. 4; Merigot
2011, "A multiscale approach to optimal transport"): p and q are sum-pooled
2x2 and solved first, and each finer level starts from the coarser level's
mass-relative scalings log(u / p) and log(w / q), bilinearly interpolated,
and, if that level was itself warm-started, from its omega (see
:func:`sinkhorn`).  On the 512^2 block pair at eps = 1e-3 the levels take
71 / 13 / 8 sweeps against 71 cold.  A coarser level's log(u / p) and
log(w / q) stay at their own size; the finer level refines them into its u
and w on each (re)start.

A level works in five grids: u, w, xi w, xi^T u and the kernel operator's
scratch grid, which holds the first of its two passes and, between kernel
applications, the marginals of the error.  The relaxation forms its update
in xi^T u, which is consumed by then and replaced next.  The kernel
applications write into the grid they replace, so a linear sweep makes no
new array; a log-domain sweep makes one per application, the first pass's
product.

Because the squared Euclidean cost separates along axes, xi is exactly the
Kronecker product of two 1-D Gaussian kernels (Solomon et al. 2015,
"Convolutional Wasserstein distances"): applying xi to a field is two 1-D
passes, one per axis, with O(N) memory, and no N x N matrix is formed in
either mode.  Each pass runs one GEMM per 128-row block of its band matrix
over the block's nonzero column span, so it skips the band's exact zeros
(truncated or underflowed weights) and changes results by rounding only.
The weights are nonzero out to an offset r (the truncation radius, or
where they underflow) and zero beyond it, so every block of a band is a
slice of one m x (m + 2r) Toeplitz tile, m = min(128, longer side),
tile[a, b] = weight[b - a - r].  Both axes share the tile, and no band is
stored whole: at 2048 px and eps = 1e-3 the tile holds 0.94 MB (3.75 MB in
dense mode) where the band would take 33.5 MB.  An axis of at most 128 px
is the one block tile[:n, r:n + r], and a grid of two such axes is applied
as the one product band_y @ grid @ band_x.  Dense mode keeps every 1-D weight
exp(-(k * pitch)^2 / eps), so it equals the N x N kernel to rounding at
any grid size.  Convolutional mode truncates the weights at the radius
where they fall to 1e-16 of the center weight.  The truncation also caps
the displacement the convolutional kernel can carry at that many pixels,
in linear and log-domain arithmetic alike: mass that must move farther
never reaches the target marginal, and the solve stops at ``max_iter``
unconverged.

Log-domain iterations apply xi to log-scalings with the same two band
matrices: along each 1-D line the log values are shifted by their maximum m,
and log(exp(lv - m) @ band) + m is one GEMM per axis (the separable form of
the stabilized log-sum-exp of Schmitzer 2019, "Stabilized sparse scaling
algorithms for entropy regularized transport problems").  Where a line's
log-scalings spread so far that a shifted sum underflows or goes denormal,
that entry is recomputed as an exact log-sum-exp over every offset within
the kernel's radius (their log weights stay finite where the weights
underflow), so the result does not depend on how far the scalings spread.

The per-pixel moments of the coupling that :mod:`otvelo.fields` needs are
sums u * xi(w * f); :func:`_scaled_apply` forms them through the same kernel
operator as the solve, always from the log scalings, so they stay finite
however far u and w spread, whichever arithmetic the solve finished in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .raster import GridGeometry, MassField, _pool

# sets only the ``auto`` cutoff (dense up to this many pixels); dense mode
# itself has no pixel limit
DENSE_MAX_PIXELS = 4096
DEFAULT_EPS = 1e-3
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000

# exp(-x) <= 1e-16 once x >= 16 ln 10
_TRUNCATION_EXPONENT = 16.0 * math.log(10.0)
# rows of a band block: one GEMM over the block's nonzero column span
_BLOCK_ROWS = 128
# a max-shifted kernel sum below this may have lost digits to underflow;
# above it, the terms that underflowed (each < 1e-307) do not matter
_UNDERFLOW_SUM = 1e-280
# over-relaxation: omega is set after _WARMUP plain sweeps from the error
# ratio per sweep over the last _RATE_SPAN of them.  A plain rate above
# _FLAT means the error did not fall beyond rounding, which gives no rate to
# extrapolate.  A relaxed solve whose error is still above its value at the
# switch _PATIENCE sweeps later restarts plainly.  A carried omega is set
# after _CARRY_PLAIN plain sweeps and re-estimated _RETUNE_AFTER relaxed
# sweeps later: on the 512^2 block at eps 1e-3, tol 1e-8, 2 plain sweeps or
# a re-estimate after 6 or 12 take 24-26 fine sweeps against 23 uncarried.
_WARMUP = 6
_RATE_SPAN = 3
_FLAT = 1.0 - 1e-9
_OMEGA_MAX = 1.9
_PATIENCE = 50
_CARRY_PLAIN = 1
_RETUNE_AFTER = 8
# coarse-to-fine (see sinkhorn): a solve first solves its 2x2-pooled problem
# while both sides are even, the pooled grid keeps _COARSE_MIN_SIDE px on its
# shorter side, and sqrt(eps / 2) spans _COARSE_MIN_SIGMA pooled pixels.  One
# BLAS thread, 512^2 block pair: at eps = 1e-3 three levels take 71 / 13 / 8
# sweeps against 71 cold; at 1e-4 (sigma 1.8 pooled px) a 256^2 level first
# would take 218 + 158 sweeps against 218 cold, in about the same time, so
# that eps keeps one level (ROADMAP item 3).  Synth translate at 512^2 takes
# 92 / 32 / 29 sweeps against 92 / 43 / 31: its fine level's error falls only
# about 5 % per plain sweep, a slow global mode no start removes.  On grids
# of 128 px or less a pooled level ran at 0.3-1.0x the speed of a cold solve.
_COARSE_MIN_SIDE = 128
_COARSE_MIN_SIGMA = 2.0


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
class ScalingPair:
    """Sinkhorn output: scaling vectors (stored as logs) plus diagnostics.

    ``residual`` is the L1 marginal error ||u * xi w - p||_1 +
    ||w * xi^T u - q||_1 after the last sweep; ``converged`` means
    residual <= tol.  The stored u is the source projection p / (xi w), so
    the pair's source marginal is exact and its target L1 error is at most
    ``residual``.  ``residual_history[k]`` is the error after sweep k + 1;
    after a sweep that restarted the solve it is the error of the level's
    start (u = w = 1 on a one-level solve).  ``log_domain`` records the
    arithmetic the solve finished in; a finer coarse-to-fine level and the
    next warm-started point of :func:`otvelo.synth.sweep` start in it.
    ``omega`` is the over-relaxation factor the solve finished with, possibly
    re-estimated from its relaxed rate: 1.0 if it never relaxed or fell back
    to plain sweeps.  All of these describe the finest level of the solve;
    ``coarse_iterations`` holds the (width, height, sweeps) of each coarser
    level that warm-started it, coarsest first, and is empty for a solve of
    one level.
    """

    log_u: np.ndarray
    log_w: np.ndarray
    iterations: int
    residual: float
    converged: bool
    kernel: KernelSpec
    residual_history: np.ndarray
    log_domain: bool
    omega: float
    coarse_iterations: tuple[tuple[int, int, int], ...] = ()


def required_truncation_radius(epsilon: float, geometry: GridGeometry) -> int:
    """Smallest 1-D kernel radius keeping the dropped weight <= 1e-16 of center."""
    longest = max(geometry.width, geometry.height)
    return max(1, math.ceil(math.sqrt(_TRUNCATION_EXPONENT * epsilon) * longest))


class _SeparableOperator:
    """xi as two banded 1-D Gaussian passes of the given radius in px; memory
    stays O(N): per axis the nonzero row blocks of its band, all slices of
    one Toeplitz tile shared by both axes, plus one scratch grid."""

    def __init__(self, spec: KernelSpec, geometry: GridGeometry, radius: int):
        self.radius = radius
        self.shape = (geometry.height, geometry.width)
        self.pitch = geometry.pitch
        self.epsilon = spec.epsilon
        longest = max(geometry.width, geometry.height)
        offsets = np.arange(min(radius, longest - 1) + 1)
        weights = np.exp(-(offsets * self.pitch) ** 2 / self.epsilon)
        # the last offset whose weight is nonzero: the truncation radius, or
        # where the weights underflow; every weight up to it is nonzero
        self.reach = r = int(np.flatnonzero(weights)[-1])
        # tile[a, b] = weight[b - a - r], rows x (rows + 2 r): row a is
        # line[rows - 1 - a:][:rows + 2 r], line[j] the weight of offset
        # j + 1 - rows - r, 0.0 beyond r
        rows = min(_BLOCK_ROWS, longest)
        line = np.zeros(2 * (rows + r) - 1)
        line[rows - 1:rows + 2 * r] = np.concatenate((weights[r:0:-1], weights[:r + 1]))
        self._tile = np.lib.stride_tricks.sliding_window_view(
            line, rows + 2 * r)[::-1].copy()
        self.band_x = self._band(geometry.width)
        self.band_y = (self.band_x if geometry.height == geometry.width
                       else self._band(geometry.height))
        # the first pass of every apply and log_apply lands here, so neither
        # is reentrant
        self._scratch = np.empty(geometry.n)

    def _band(self, n: int) -> list:
        """The symmetric Toeplitz band[i, j] = weight[i - j] of one n-pixel
        axis: the (rows, cols, block) of each block of it, cols the span
        outside which it is exactly 0.0, block a view of the tile."""
        r = self.reach
        band = []
        for r0 in range(0, n, _BLOCK_ROWS):
            r1 = min(r0 + _BLOCK_ROWS, n)
            c0, c1 = max(0, r0 - r), min(n, r1 + r)
            band.append((slice(r0, r1), slice(c0, c1),
                         self._tile[:r1 - r0, c0 - r0 + r:c1 - r0 + r]))
        return band

    @staticmethod
    def _band_product(band: list, grid: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        """band @ grid, into ``out`` if given: one GEMM per block of the
        band, over the block's nonzero column span; only exact zeros are
        skipped."""
        if out is None:
            out = np.empty(grid.shape)
        for rows, cols, block in band:
            np.matmul(block, grid[cols], out=out[rows])
        return out

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """xi v, written into ``out``, a flat array (which may be ``v``), if
        given."""
        grid = v.reshape(self.shape)
        h, w = self.shape
        out = None if out is None else out.reshape(self.shape)
        if len(self.band_x) == len(self.band_y) == 1:
            # one block per axis: no transposed operands, faster on small
            # grids (0.017 against 0.025 ms at 64^2, one BLAS thread)
            first = np.matmul(self.band_y[0][2], grid, out=self._scratch.reshape(h, w))
            return np.matmul(first, self.band_x[0][2], out=out).reshape(-1)
        # rows first, on the transposed grid (the bands are symmetric), then
        # columns, as in log_apply, so the result comes out C-ordered
        first = self._band_product(self.band_x, grid.T, self._scratch.reshape(w, h))
        return self._band_product(self.band_y, first.T, out).reshape(-1)

    def _log_pass(self, grid: np.ndarray, band: list,
                  out: np.ndarray | None = None) -> np.ndarray:
        """log(band @ exp(grid)) down each column, as one max-shifted
        :meth:`_band_product`, into ``out`` if given (``out`` may hold the
        input of an earlier pass, not ``grid``).

        A shifted sum below _UNDERFLOW_SUM underflowed or went denormal, so
        those entries are recomputed as an exact log-sum-exp over their
        2r + 1 band offsets, where offsets past the edge weigh -inf.
        """
        top = grid.max(axis=0)
        # laid out like ``grid``, a transposed view, as ``grid - top`` would
        # be: the order in which the GEMM sums depends on the layout
        s = np.subtract(grid, top, out=self._scratch.reshape(grid.shape[::-1]).T)
        np.exp(s, out=s)
        s = self._band_product(band, s, out)
        low = s < _UNDERFLOW_SUM
        np.maximum(s, _UNDERFLOW_SUM, out=s)
        np.log(s, out=s)
        s += top
        if low.any():
            self._exact_sums(grid, low, s)
        return s

    def _exact_sums(self, grid: np.ndarray, low: np.ndarray, s: np.ndarray) -> None:
        """s[i, j] = log sum_k exp(grid[i + k, j] + log weight[k]) over
        |k| <= r wherever ``low`` holds, as an exact log-sum-exp.  The
        entries of ``low`` are taken max(N / 8, 2^13) at a time, and their
        windows about as many elements at a time, so memory stays below a
        grid."""
        n = grid.shape[0]
        r = min(self.radius, n - 1)
        k = np.arange(-r, r + 1)
        log_w = -(k * self.pitch) ** 2 / self.epsilon
        flat = low.reshape(-1)
        chunk = max(flat.size // 8, 1 << 13)
        step = 1 + chunk // k.size
        for start in range(0, flat.size, chunk):
            hits = np.flatnonzero(flat[start:start + chunk])
            hits += start
            for lo in range(0, hits.size, step):
                i, j = np.divmod(hits[lo:lo + step, None], low.shape[1])
                rows = i + k
                outside = (rows < 0) | (rows >= n)
                np.clip(rows, 0, n - 1, out=rows)
                win = grid[rows, j]
                del rows
                win += log_w
                win[outside] = -np.inf
                m = win.max(axis=1, keepdims=True)
                win -= m
                np.exp(win, out=win)
                s[i, j] = np.log(win.sum(axis=1, keepdims=True)) + m

    def log_apply(self, lv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """log(xi exp(lv)) through the band matrices of :meth:`apply`: rows
        first (on the transposed grid), then columns; written into ``out``,
        a flat array (which may be ``lv``), if given."""
        grid = self._log_pass(lv.reshape(self.shape).T, self.band_x)
        out = None if out is None else out.reshape(self.shape)
        return self._log_pass(grid.T, self.band_y, out).reshape(-1)


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


def _out_of_range(*vecs: np.ndarray) -> bool:
    """Whether any linear scaling has left (0, inf); min propagates NaN."""
    return any(not (v.min() > 0.0 and v.max() < np.inf) for v in vecs)


def _rate(history: list[float]) -> float:
    """The error ratio per sweep over the last _RATE_SPAN sweeps."""
    return (history[-1] / history[-1 - _RATE_SPAN]) ** (1.0 / _RATE_SPAN)


def _relaxation_factor(ratio: float, omega: float = 1.0) -> float:
    """2 / (1 + sqrt(1 - mu^2)), capped at _OMEGA_MAX, for the plain rate
    mu^2 that Young's relation (rho + omega - 1)^2 = omega^2 mu^2 rho gives
    for the error ratio rho^2 per sweep relaxed by omega (mu^2 = rho, exactly,
    for plain sweeps); omega where rho <= omega - 1 or mu^2 >= _FLAT."""
    rho = math.sqrt(ratio)
    if rho > omega - 1.0:
        mu2 = rho * ((1.0 + (omega - 1.0) / rho) / omega) ** 2
        if mu2 < _FLAT:
            return min(2.0 / (1.0 + math.sqrt(1.0 - mu2)), _OMEGA_MAX)
    return omega


def _relax(v: np.ndarray, new: np.ndarray, omega: float,
           log_domain: bool) -> None:
    """v <- v * (new / v)^omega, or v + omega * (new - v) in logs, in place;
    overwrites ``new``."""
    if log_domain:
        new -= v
        new *= omega
        v += new
    else:
        new /= v
        new **= omega
        v *= new


def _exp_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(a + b) into ``out``: the marginal u * xi w from logs."""
    np.add(a, b, out=out)
    return np.exp(out, out=out)


def _l1(marginal: np.ndarray, target: np.ndarray) -> float:
    """||marginal - target||_1, overwriting ``marginal``."""
    marginal -= target
    np.abs(marginal, out=marginal)
    return float(marginal.sum())


def _coarsens(geometry: GridGeometry, epsilon: float) -> bool:
    """Whether a solve on ``geometry`` first solves its 2x2-pooled problem."""
    return (geometry.width % 2 == 0 and geometry.height % 2 == 0
            and min(geometry.width, geometry.height) // 2 >= _COARSE_MIN_SIDE
            and math.sqrt(epsilon / 2.0)
            >= _COARSE_MIN_SIGMA * 2.0 * geometry.pitch)


def _refine(c: np.ndarray, shape: tuple[int, int],
            out: np.ndarray | None = None) -> np.ndarray:
    """A field of the 2x2-pooled grid bilinearly interpolated onto the fine
    grid of ``shape = (height, width)``, extrapolated linearly at the
    border; written into ``out``, a flat array, if given.

    Fine pixels 2i and 2i + 1 lie at coarse coordinates i - 1/4 and i + 1/4,
    so along each axis they take 3/4 of coarse value i and 1/4 of its
    neighbour.  That is exact for affine fields, such as the mass-relative
    potentials log(u / p) and log(w / q) of a translation.
    """
    height, width = shape
    rows = np.empty((height, width // 2))
    _refine_axis(c.reshape(height // 2, width // 2), rows)
    fine = np.empty((height, width)) if out is None else out.reshape(height, width)
    _refine_axis(rows.T, fine.T)
    return fine.reshape(-1)


def _refine_axis(c: np.ndarray, fine: np.ndarray) -> None:
    """Along axis 0, fine[2i] = 3/4 c[i] + 1/4 c[i - 1] and
    fine[2i + 1] = 3/4 c[i] + 1/4 c[i + 1], where c[-1] and c[n] extrapolate
    linearly (2 c[0] - c[1] and 2 c[n - 1] - c[n - 2]); the 3/4 terms are
    formed in ``fine`` itself."""
    np.multiply(c, 0.75, out=fine[0::2])
    fine[1::2] = fine[0::2]
    far = 0.25 * c
    fine[2::2] += far[:-1]
    fine[1:-1:2] += far[1:]
    fine[0] += 0.25 * (2.0 * c[0] - c[1])
    fine[-1] += 0.25 * (2.0 * c[-1] - c[-2])


def sinkhorn(p: MassField, q: MassField, kernel: KernelSpec,
             tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
             log_domain: bool = False, *,
             start: tuple[np.ndarray, np.ndarray] | None = None) -> ScalingPair:
    """Over-relaxed alternating diagonal scaling toward gamma = diag(u) xi diag(w),
    started from the solution of the 2x2-pooled problem where that pays, or
    from ``start``.

    Levels: while both sides are even, the pooled grid keeps at least 128 px
    on its shorter side, and the kernel's standard deviation sqrt(eps / 2)
    spans at least 2 pooled pixels, the solve first solves the 2x2
    sum-pooled p and q on the grid of twice the pitch, with the same eps,
    kernel mode and ``tol``, and recursively so.  Each finer level starts
    from u = p * exp(refine(log(u_c / p_c))) and w = q * exp(refine(log(w_c
    / q_c))) for the coarser level's scalings u_c, w_c and masses p_c, q_c,
    where refine is bilinear interpolation (see :func:`_refine`), in the
    arithmetic the coarser level finished in: the mass ratios carry the
    steps of the ice edges, which interpolated log u and log w would smear.
    On smaller grids, and at eps where the kernel is narrow against a pooled
    pixel, the warm start costs more than it saves, so those solves run one
    level from u = w = 1.  Every level runs the loop below, with up to
    ``max_iter`` sweeps of its own.  The returned ``iterations``,
    ``residual_history``, ``residual``, ``converged`` and ``omega`` are the
    finest level's; ``coarse_iterations`` lists the (width, height, sweeps)
    of each coarser level, coarsest first.

    ``start = (log_u, log_w)``, two finite flat arrays of p's size, such as
    the scalings of a nearby problem, replaces the levels: the loop below
    runs once, on p's grid, from u = exp(log_u), w = exp(log_w), and its
    safeguards restart from there; ``coarse_iterations`` is empty.

    Each sweep updates w <- w * (q / (w * xi^T u))^omega, then
    u <- u * (p / (u * xi w))^omega.  The first six sweeps are plain
    (omega = 1, the classic w <- q / xi^T u, u <- p / xi w).  Then omega is
    set from the error ratio eta per sweep over sweeps 3 to 6 as
    2 / (1 + sqrt(1 - sqrt(eta))), capped at 1.9 (Thibault et al. 2017,
    "Overrelaxed Sinkhorn-Knopp algorithm for regularized optimal
    transport"; Lehmann et al. 2021, "A note on overrelaxation in the
    Sinkhorn algorithm").  Solves that converge within the six sweeps, or
    whose error did not fall in them, stay plain.  A level whose coarser
    level was itself warm-started and finished relaxed instead relaxes with
    that level's omega from its second sweep; after sweep 9 it sets omega
    once to 2 / (1 + sqrt(1 - mu^2)), mu^2 = (rho + omega - 1)^2 /
    (omega^2 rho), for the ratio rho^2 per sweep over sweeps 6 to 9 (Young's
    relation), where 0 < mu^2 < 1 and rho > omega - 1.

    Iteration stops once the L1 marginal error
    ``residual = ||u * xi w - p||_1 + ||w * xi^T u - q||_1`` is at most
    ``tol``, or after ``max_iter`` sweeps; both terms reuse the two kernel
    applications of the sweep.  On every return u is replaced by p / (xi w),
    which makes the source marginal exact and moves the target marginal by
    at most the first term, so the returned pair's target L1 error is at
    most ``residual``.

    Safeguard: a relaxed sweep whose scalings leave (0, inf) or whose error
    is not finite, or an error still above its value at the switch 50
    relaxed sweeps later, restarts the level from its start with plain
    sweeps; only a switch to log-domain arithmetic (below) relaxes it again.
    A restart records the error of its start in place of the failed sweep's.

    The same loop runs on log u, log w with max-shifted log-sum-exp kernel
    applications, which tolerate arbitrarily sharp mass ratios.  A plain
    linear sweep whose scalings leave (0, inf) restarts the level from its
    start in log-domain arithmetic, with its own six plain sweeps before
    omega is set, so a cold level then repeats a ``log_domain=True`` solve
    sweep for sweep; ``log_domain=True`` only skips the linear attempt.
    ``max_iter`` counts every sweep of a level, and a restart costs two
    extra kernel applications; a solve that ``max_iter`` ends on a restart
    returns the projected start, u = p / (xi w0) for the level's start w0
    (w0 = 1 on one level), with the start's error as ``residual``.
    """
    if p.geometry != q.geometry:
        raise ValueError("source and target must share one grid geometry")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if start is None:
        return _solve(p, q, kernel, tol, max_iter, log_domain)
    start = tuple(np.asarray(v, dtype=np.float64) for v in start)
    if len(start) != 2 or any(v.shape != (p.geometry.n,) for v in start):
        raise ValueError(f"start must be two flat arrays (log_u, log_w) of "
                         f"width * height = {p.geometry.n} log scalings")
    if not all(np.isfinite(v).all() for v in start):
        raise ValueError("start log scalings must be finite")
    return _solve_level(p, q, kernel, tol, max_iter, log_domain, start)


def _solve(p: MassField, q: MassField, kernel: KernelSpec, tol: float,
           max_iter: int, log_domain: bool) -> ScalingPair:
    """:func:`sinkhorn` on validated arguments, coarsest level first; a
    level's pooled fields are dropped once it is solved."""
    if not _coarsens(p.geometry, kernel.epsilon):
        zero = np.broadcast_to(0.0, (p.geometry.n,))
        return _solve_level(p, q, kernel, tol, max_iter, log_domain, (zero, zero))
    pooled_p, pooled_q = _pool(p), _pool(q)
    g = pooled_p.geometry
    coarse = _solve(pooled_p, pooled_q, kernel, tol, max_iter, log_domain)
    # the finer level starts from log(u / p) and log(w / q), formed in the
    # coarse scalings, which nothing else reads: log u = log p - log(xi w)
    # steps wherever the mass does, and only log(xi w) is smooth
    np.subtract(coarse.log_u, np.log(pooled_p.mass), out=coarse.log_u)
    np.subtract(coarse.log_w, np.log(pooled_q.mass), out=coarse.log_w)
    del pooled_p, pooled_q   # only their geometry is kept across the finer level
    # only a warm-started level's omega is carried: a cold one's lost
    # (ROADMAP item 3)
    pair = _solve_level(p, q, kernel, tol, max_iter, coarse.log_domain,
                        (coarse.log_u, coarse.log_w),
                        coarse.omega if coarse.coarse_iterations else 1.0)
    level = (g.width, g.height, coarse.iterations)
    return replace(pair, coarse_iterations=coarse.coarse_iterations + (level,))


def _solve_level(p: MassField, q: MassField, kernel: KernelSpec, tol: float,
                 max_iter: int, log_domain: bool,
                 start: tuple[np.ndarray, np.ndarray],
                 carry: float = 1.0) -> ScalingPair:
    """The Sinkhorn loop of :func:`sinkhorn` on one grid, from
    ``start``: the log scalings (log_u, log_w) on this grid, or the
    mass-relative log(u / p) and log(w / q) on its 2x2-pooled grid, refined
    and put back on this grid's p and q on each use; restarts return to
    that start, and ``carry`` > 1 is a coarser level's omega.  s = xi w and
    t = xi^T u.  Arguments are not validated."""
    g = p.geometry
    op = _make_operator(kernel, g)
    u, w = np.empty(g.n), np.empty(g.n)

    def arithmetic(log_domain):
        if log_domain:
            return (op.log_apply, np.subtract, _exp_sum, np.log(p.mass),
                    np.log(q.mass))
        return op.apply, np.divide, np.multiply, p.mass, q.mass

    def begin(log_domain):
        """u and w from the start, in the current arithmetic, whose pv and
        qv are p and q or their logs."""
        for v, log_v, mass in zip((u, w), start, (pv, qv)):
            if log_v.size == g.n:
                np.copyto(v, log_v)
                if not log_domain:
                    np.exp(v, out=v)
                continue
            _refine(log_v, (g.height, g.width), out=v)
            if log_domain:
                v += mass
            else:
                np.exp(v, out=v)
                v *= mass

    def scale(v, k, target):
        """v <- v * (target / (v * k))^omega: the update of one side; a
        relaxed one is formed in t, whose xi^T u is consumed by then and
        replaced next."""
        if omega == 1.0:
            divide(target, k, out=v)
        else:
            _relax(v, divide(target, k, out=t), omega, log_domain)

    def error():
        # the marginals go into the operator's scratch grid, free between
        # kernel applications
        return (_l1(marginal(u, s, out=op._scratch), p.mass)
                + _l1(marginal(w, t, out=op._scratch), q.mass))

    history = []
    omega = 1.0        # above 1 only after the sweep relax_at raised it
    # the sweep that sets omega, or a carried one; None: plain for good
    relax_at = _CARRY_PLAIN if carry > 1.0 else _WARMUP
    # overflow is detected below, not by numpy warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        apply, divide, marginal, pv, qv = arithmetic(log_domain)
        begin(log_domain)
        # made once the start is refined, whose temporaries are gone by then
        s, t = np.empty(g.n), np.empty(g.n)
        apply(u, out=t)
        for iterations in range(1, max_iter + 1):
            scale(w, t, qv)
            apply(w, out=s)
            scale(u, s, pv)
            apply(u, out=t)
            err = error()
            history.append(err)
            bad = not log_domain and _out_of_range(w, s, u, t)
            if bad or omega > 1.0 and (
                    not math.isfinite(err)
                    or (iterations - relax_at >= _PATIENCE
                        and err > history[relax_at - 1])):
                if omega == 1.0:   # plain linear sweeps overflowed
                    log_domain = True
                    apply, divide, marginal, pv, qv = arithmetic(True)
                    relax_at = iterations + _WARMUP
                else:
                    relax_at = None
                omega = carry = 1.0
                begin(log_domain)
                apply(u, out=t)
                apply(w, out=s)
                history[-1] = error()
                continue
            if err <= tol:
                break
            if iterations == relax_at:
                omega = carry if carry > 1.0 else _relaxation_factor(_rate(history))
            elif carry > 1.0 and iterations == relax_at + _RETUNE_AFTER:
                omega = _relaxation_factor(_rate(history), omega)
        divide(pv, s, out=u)
    if not log_domain:
        np.log(u, out=u)
        np.log(w, out=w)
    residual = history[-1]
    return ScalingPair(u, w, iterations, residual, residual <= tol, kernel,
                       np.asarray(history), log_domain, omega)


def _scaled_apply(op: _SeparableOperator, log_a: np.ndarray,
                  log_bf: np.ndarray) -> np.ndarray:
    """a * xi(b * f) from log_bf = log(b * f), a flat array, as
    exp(log a + logsumexp(log b + log f)), which stays finite however far a
    and b spread; formed in ``log_bf``, which it overwrites."""
    m = op.log_apply(log_bf, out=log_bf)
    m += log_a
    return np.exp(m, out=m)


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
