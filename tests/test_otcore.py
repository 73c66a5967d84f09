import math
import tracemalloc

import numpy as np
import pytest

from otvelo import (
    DENSE_MAX_PIXELS, GridGeometry, IntensityRaster, KernelSpec,
    NotConvergedError, kernel_apply, make_scenario,
    normalize_to_mass, render_pair, required_truncation_radius, sinkhorn,
    transport_distance, wasserstein_value,
)
from otvelo.oracle import _squared_distances
from otvelo.otcore import (
    _OMEGA_MAX, _PATIENCE, _WARMUP, _SeparableOperator, _coarsens,
    _make_operator, _out_of_range, _refine, _relaxation_factor, _scaled_apply,
    _solve_level, resolve_mode,
)
from otvelo.raster import _pool


# ---------------------------------------------------------------------------
# N x N cost of the exact oracle, the reference for the kernel tests below

def test_cost_two_pixel_grid():
    g = GridGeometry(2, 1, 250.0)
    c = _squared_distances(g)
    assert c[0, 0] == 0.0 and c[1, 1] == 0.0
    # centers 0.25 and 0.75 -> squared distance 0.25
    assert c[0, 1] == pytest.approx(0.25)
    assert c[1, 0] == pytest.approx(0.25)


def test_cost_two_by_two_grid():
    g = GridGeometry(2, 2, 250.0)
    c = _squared_distances(g)
    assert np.allclose(np.diag(c), 0.0)
    assert c[0, 1] == pytest.approx(0.25)  # adjacent
    assert c[0, 2] == pytest.approx(0.25)
    assert c[0, 3] == pytest.approx(0.5)   # diagonal
    assert np.allclose(c, c.T)


def test_cost_is_pixel_size_invariant():
    a = _squared_distances(GridGeometry(5, 4, 250.0))
    b = _squared_distances(GridGeometry(5, 4, 1.0))
    assert np.array_equal(a, b)


def test_required_truncation_radius():
    g = GridGeometry(128, 128, 250.0)
    r = required_truncation_radius(1e-3, g)
    # boundary weight exp(-(r*pitch)^2/eps) <= 1e-16 of the center
    pitch = 1.0 / 128
    assert np.exp(-((r * pitch) ** 2) / 1e-3) <= 1e-16
    assert np.exp(-(((r - 1) * pitch) ** 2) / 1e-3) > 1e-16
    assert required_truncation_radius(1e9, GridGeometry(4, 4, 1.0)) >= 1


# ---------------------------------------------------------------------------
# kernel application

def nxn_kernel_apply(v, eps, g):
    """The N x N reference: exp(-C / eps) @ v."""
    return np.exp(-_squared_distances(g) / eps) @ v


def dense_coupling(pair, cost):
    """The N x N plan gamma = diag(u) xi diag(w) of a converged pair,
    assembled in log space so log-domain scalings stay representable."""
    assert pair.converged
    return np.exp(pair.log_u[:, None] - cost / pair.kernel.epsilon
                  + pair.log_w[None, :])


def coupling_marginals(p, pair):
    """Row and column sums u * xi(w) and w * xi(u) of the plan (xi is
    symmetric), through the solve's own kernel operator, from the log
    scalings as the derived fields form them."""
    op = _make_operator(pair.kernel, p.geometry)
    row = _scaled_apply(op, pair.log_u, pair.log_w.copy())
    col = _scaled_apply(op, pair.log_w, pair.log_u.copy())
    return row, col


def test_kernel_delta_vector_conv_matches_dense():
    g = GridGeometry(8, 8, 250.0)
    for eps in (1e-2, 1e-3):
        v = np.zeros(g.n)
        v[27] = 1.0
        ref = nxn_kernel_apply(v, eps, g)
        a = kernel_apply(v, KernelSpec(eps, "dense"), g)
        b = kernel_apply(v, KernelSpec(eps, "conv"), g)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
        assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()


def test_kernel_random_vector_conv_matches_dense():
    g = GridGeometry(12, 9, 250.0)
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 1.0, g.n)
    ref = nxn_kernel_apply(v, 5e-3, g)
    a = kernel_apply(v, KernelSpec(5e-3, "dense"), g)
    b = kernel_apply(v, KernelSpec(5e-3, "conv"), g)
    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
    assert np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()


def nxn_log_apply(lv, eps, g, radius=None):
    """The N x N reference log(exp(-C / eps) @ exp(lv)) as one log-sum-exp;
    weights more than ``radius`` px apart on either axis are dropped."""
    a = -_squared_distances(g) / eps
    if radius is not None:
        x, y = np.arange(g.n) % g.width, np.arange(g.n) // g.width
        a[(np.abs(x[:, None] - x[None, :]) > radius)
          | (np.abs(y[:, None] - y[None, :]) > radius)] = -np.inf
    a += lv[None, :]
    m = a.max(axis=1)
    return np.log(np.exp(a - m[:, None]).sum(axis=1)) + m


def test_dense_log_apply_matches_nxn_logsumexp():
    # at eps 1e-3 the far weights of exp(-C / eps) underflow; in log space
    # they must still count
    g = GridGeometry(12, 9, 250.0)
    rng = np.random.default_rng(8)
    lv = rng.uniform(-30.0, 30.0, g.n)
    for eps in (1e-3, 1.0):
        ref = nxn_log_apply(lv, eps, g)
        got = _make_operator(KernelSpec(eps, "dense"), g).log_apply(lv)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_log_apply_underflow_matches_nxn_logsumexp():
    # log inputs spread this wide underflow exp(lv - max) on most lines, so
    # many entries come from the exact band-window fallback
    g = GridGeometry(12, 9, 250.0)
    rng = np.random.default_rng(9)
    for spread in (1e4, 1e5):
        lv = rng.uniform(-spread, spread, g.n)
        for eps in (1e-3, 1e-2, 1.0):
            for mode, radius in (("dense", None),
                                 ("conv", required_truncation_radius(eps, g))):
                ref = nxn_log_apply(lv, eps, g, radius)
                got = _make_operator(KernelSpec(eps, mode), g).log_apply(lv)
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# 300 x 140 has three row blocks along x and two along y (one of 12 rows)
TILED = GridGeometry(300, 140, 250.0)


def axis_log_apply(lv, eps, pitch, radius):
    """log(K @ exp(lv)) down each column for the 1-D log weights
    -(k * pitch)^2 / eps within ``radius`` px and -inf beyond, as one exact
    log-sum-exp per column."""
    k = np.arange(lv.shape[0])
    offsets = k[:, None] - k[None, :]
    log_k = np.where(np.abs(offsets) <= radius,
                     -(offsets * pitch) ** 2 / eps, -np.inf)
    out = np.empty_like(lv)
    for j in range(lv.shape[1]):
        a = log_k + lv[None, :, j]
        m = a.max(axis=1)
        out[:, j] = np.log(np.exp(a - m[:, None]).sum(axis=1)) + m
    return out


def offset_band(n, eps, pitch, radius):
    """The n x n band weight[i - j] from the offset formula, 0.0 beyond
    ``radius`` px."""
    idx = np.arange(n)
    offsets = idx[:, None] - idx[None, :]
    band = np.exp(-(offsets * pitch) ** 2 / eps)
    band[np.abs(offsets) > radius] = 0.0
    return band


def blocked_product(band, ref, grid):
    """ref @ grid as the operator forms it from a blocked ``band``: one GEMM
    per block, on the slice of the n x n ``ref`` the block stands for."""
    out = np.zeros(grid.shape)
    for rows, cols, _ in band:
        out[rows] = ref[rows, cols] @ grid[cols]
    return out


@pytest.mark.parametrize("eps, mode", [(1e-3, "conv"), (1e-4, "dense")])
def test_tiled_apply_skips_only_exact_zeros(eps, mode):
    g = TILED
    op = _make_operator(KernelSpec(eps, mode), g)
    # the band holds exact zeros to skip
    assert any(cols != slice(0, g.width) for _, cols, _ in op.band_x)
    refs = {}
    for band, n in ((op.band_x, g.width), (op.band_y, g.height)):
        refs[n] = ref = offset_band(n, eps, g.pitch, op.radius)
        covered = np.zeros(ref.shape, dtype=bool)
        for rows, cols, block in band:
            covered[rows, cols] = True
            assert np.array_equal(block, ref[rows, cols])
        assert covered.any(axis=1).all()
        assert np.all(ref[~covered] == 0.0)
    rng = np.random.default_rng(10)
    v = rng.uniform(0.0, 1.0, g.n)
    ref = refs[g.height] @ v.reshape(g.height, g.width) @ refs[g.width]
    got = op.apply(v).reshape(g.height, g.width)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # the blocks of the tile give the products of the full band's blocks,
    # bit for bit
    first = blocked_product(op.band_x, refs[g.width], v.reshape(g.height, g.width).T)
    second = blocked_product(op.band_y, refs[g.height], first.T)
    assert np.array_equal(got, second)
    # a spread of 1e4 underflows most shifted sums into the exact fallback
    radius = required_truncation_radius(eps, g) if mode == "conv" else g.width
    for spread in (30.0, 1e4):
        lv = rng.uniform(-spread, spread, (g.height, g.width))
        ref = axis_log_apply(axis_log_apply(lv.T, eps, g.pitch, radius).T,
                             eps, g.pitch, radius)
        got = op.log_apply(lv.reshape(-1)).reshape(g.height, g.width)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("geometry, eps, mode", [
    (GridGeometry(128, 96, 250.0), 1e-3, "conv"),
    (GridGeometry(64, 64, 250.0), 1e-2, "dense"),
    (TILED, 1e-2, "dense"),   # a band without zeros
])
def test_single_product_apply_is_unchanged(geometry, eps, mode):
    # an axis of at most 128 px is one block, and a grid of such axes is
    # applied as the one product band_y @ grid @ band_x, bit for bit; a
    # longer axis runs the blocked passes, even where its band has no zeros
    op = _make_operator(KernelSpec(eps, mode), geometry)
    band_x = offset_band(geometry.width, eps, geometry.pitch, op.radius)
    band_y = offset_band(geometry.height, eps, geometry.pitch, op.radius)
    v = np.random.default_rng(11).uniform(0.0, 1.0, geometry.n)
    grid = v.reshape(geometry.height, geometry.width)
    if max(geometry.width, geometry.height) <= 128:
        ((_, _, block_x),), ((_, _, block_y),) = op.band_x, op.band_y
        assert np.array_equal(block_x, band_x) and np.array_equal(block_y, band_y)
        ref = band_y @ grid @ band_x
    else:
        first = blocked_product(op.band_x, band_x, grid.T)
        ref = blocked_product(op.band_y, band_y, first.T)
    assert np.array_equal(op.apply(v), ref.reshape(-1))


@pytest.mark.parametrize("n, eps, mode", [
    (9, 1e-2, "dense"), (300, 1e-3, "conv"), (140, 1e-4, "dense"), (512, 1e-3, "conv"),
])
def test_band_from_weights_matches_offset_formula(n, eps, mode):
    # the tile the blocks are cut from is made from its weights, bit for
    # bit the weights of the n x n offset formula, truncated at the same
    # radius
    g = GridGeometry(n, n, 250.0)
    op = _make_operator(KernelSpec(eps, mode), g)
    ref = offset_band(n, eps, g.pitch, op.radius)
    assert op.band_y is op.band_x   # a square grid keeps one band
    got = np.zeros((n, n))
    for rows, cols, block in op.band_x:
        got[rows, cols] = block
    assert np.array_equal(got, ref)
    # every block is a view of one tile of min(128, n) x (min(128, n) + 2 r)
    # weights, r the last offset whose weight is nonzero
    (tile,) = {id(block.base): block.base for _, _, block in op.band_x}.values()
    rows = min(128, n)
    assert tile.shape == (rows, rows + 2 * op.reach)
    assert ref[op.reach, 0] != 0.0 and (op.reach == n - 1 or ref[op.reach + 1, 0] == 0.0)


def test_wide_operator_keeps_a_tile_not_a_band():
    # 2048 px wide at eps 1e-3: a 2048 x 2048 band would take 33.5 MB; the
    # tile of its 394 px radius takes 0.94 MB, and nothing bigger is made
    g = GridGeometry(2048, 8, 250.0)
    tracemalloc.start()
    try:
        op = _make_operator(KernelSpec(1e-3, "conv"), g)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = 8 * g.n
    assert op.reach == 394
    assert kept - scratch <= 2e6 and peak - scratch <= 2e6


def test_dense_operator_keeps_a_tile_not_a_band():
    # dense mode keeps every weight down to where they underflow, 1767 px
    # out at 2048 px and eps 1e-3; the band of the 2048 px axis would take
    # 33.5 MB, the tile of 128 x (128 + 2 * 1767) weights takes 3.75 MB
    g = GridGeometry(2048, 8, 250.0)
    tracemalloc.start()
    try:
        op = _make_operator(KernelSpec(1e-3, "dense"), g)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = 8 * g.n
    assert op.reach == 1767
    assert kept - scratch <= 4e6 and peak - scratch <= 4e6


def test_exact_fallback_takes_no_padded_copy():
    # at a spread of 1e4 most shifted sums of this dense operator underflow
    # into the exact log-sum-exp; it reads the grid through clipped rows, so
    # log_apply peaks at its two passes' products plus a part of a grid
    # (2.3 grids; a copy padded with r = n - 1 rows of -inf peaked at 9.1)
    g = TILED
    op = _make_operator(KernelSpec(1e-4, "dense"), g)
    lv = np.random.default_rng(14).uniform(-1e4, 1e4, g.n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op.log_apply(lv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / (8 * g.n) <= 3.0


@pytest.mark.parametrize("geometry, eps, mode", [
    (TILED, 1e-3, "conv"),                       # tiled passes
    (GridGeometry(64, 48, 250.0), 1e-2, "dense"),  # one product per pass
])
def test_apply_into_out_matches_a_new_array(geometry, eps, mode):
    # a result written into a given array (even the input) is the result
    # returned as a new array, bit for bit, in both arithmetics; the
    # spread of 1e4 takes the exact underflow fallback
    op = _make_operator(KernelSpec(eps, mode), geometry)
    rng = np.random.default_rng(12)
    v = rng.uniform(0.0, 1.0, geometry.n)
    ref = op.apply(v)
    out = np.empty(geometry.n)
    op.apply(v, out=out)
    assert np.array_equal(out, ref)
    op.apply(v, out=v)
    assert np.array_equal(v, ref)
    for spread in (30.0, 1e4):
        lv = rng.uniform(-spread, spread, geometry.n)
        ref = op.log_apply(lv)
        op.log_apply(lv, out=out)
        assert np.array_equal(out, ref)
        op.log_apply(lv, out=lv)
        assert np.array_equal(lv, ref)


@pytest.mark.parametrize("geometry, eps, mode", [
    (TILED, 1e-4, "dense"), (TILED, 1e-3, "conv"),
    (GridGeometry(64, 48, 250.0), 1e-2, "dense"),
])
def test_log_apply_is_the_plain_max_shifted_product(geometry, eps, mode):
    # away from underflow each pass is log(band @ exp(grid - top)) + top
    # with numpy's own temporaries and the blocks of the n x n band of the
    # offset formula, bit for bit: the shifted grid the GEMM reads keeps
    # the transposed layout of ``grid - top``
    op = _make_operator(KernelSpec(eps, mode), geometry)
    lv = np.random.default_rng(13).uniform(-30.0, 30.0, geometry.n)
    grid = lv.reshape(op.shape).T
    for band, n in ((op.band_x, geometry.width), (op.band_y, geometry.height)):
        top = grid.max(axis=0)
        ref = offset_band(n, eps, geometry.pitch, op.radius)
        shifted = np.exp(grid - top)
        product = blocked_product(band, ref, shifted)
        grid = (np.log(product) + top).T
    assert np.array_equal(op.log_apply(lv), grid.T.reshape(-1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("which", range(4))
def test_out_of_range_flags_each_bad_value(bad, which):
    vecs = [np.full(5, 0.5) for _ in range(4)]
    assert not _out_of_range(*vecs)
    vecs[which][3] = bad
    assert _out_of_range(*vecs)


def test_kernel_apply_validates_input():
    g = GridGeometry(4, 4, 250.0)
    k = KernelSpec(1e-2, "dense")
    with pytest.raises(ValueError):
        kernel_apply(np.ones(5), k, g)
    with pytest.raises(ValueError):
        kernel_apply(np.full(16, np.nan), k, g)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0.0, "dense")
    with pytest.raises(ValueError):
        KernelSpec(1e-2, "spectral")


# ---------------------------------------------------------------------------
# sinkhorn scaling

def test_identity_pair_converges_immediately(mass_field):
    g = GridGeometry(6, 6, 250.0)
    rng = np.random.default_rng(0)
    p = mass_field(g, rng.uniform(0.5, 1.5, g.n))
    pair = sinkhorn(p, p, KernelSpec(1e-2, "dense"), tol=1e-6, max_iter=1000)
    assert pair.converged
    assert pair.residual <= 1e-6
    gam = dense_coupling(pair, _squared_distances(g))
    assert np.allclose(gam.sum(axis=1), p.mass, atol=1e-9)


def test_marginals_after_each_sweep(mass_field):
    # the returned u = p / xi(w) makes the source marginal exact
    g = GridGeometry(8, 8, 250.0)
    rng = np.random.default_rng(1)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    k = KernelSpec(1e-2, "dense")
    pair = sinkhorn(p, q, k, tol=1e-9, max_iter=10000)
    row, col = coupling_marginals(p, pair)
    assert np.abs(row - p.mass).max() <= 1e-12
    assert np.abs(col - q.mass).max() <= pair.residual + 1e-15


def test_residual_history_matches_and_decreases(mass_field):
    g = GridGeometry(16, 16, 250.0)
    rng = np.random.default_rng(99)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    pair = sinkhorn(p, q, KernelSpec(1e-2, "dense"), tol=1e-9, max_iter=10000)
    h = pair.residual_history
    assert len(h) == pair.iterations
    assert h[-1] == pair.residual
    # plain sweeps reduce the error monotonically; the relaxed sweeps that
    # follow may overshoot before they converge
    assert np.all(np.diff(h[:_WARMUP]) <= 1e-12 * h[0])


def test_converged_translate_pair_stops_on_marginal_error():
    # the scalings of this pair span many decades, so a rule on their change
    # would run to max_iter long after the marginals hold
    src, tgt = render_pair(make_scenario("translate", size=32), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    tol = 1e-6
    pair = sinkhorn(p, q, KernelSpec(1e-3, "conv"), tol=tol, max_iter=20000)
    assert pair.converged
    assert pair.iterations < 1000
    _, col = coupling_marginals(p, pair)
    assert np.abs(col - q.mass).sum() <= tol


def test_deterministic_rerun_is_bit_identical(mass_field):
    g = GridGeometry(16, 16, 250.0)
    rng = np.random.default_rng(99)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    k = KernelSpec(1e-2, "conv")
    a = sinkhorn(p, q, k, tol=1e-9, max_iter=10000)
    b = sinkhorn(p, q, k, tol=1e-9, max_iter=10000)
    assert a.iterations == b.iterations
    assert np.array_equal(a.log_u, b.log_u)
    assert np.array_equal(a.log_w, b.log_w)


def test_symmetry(mass_field):
    g = GridGeometry(8, 8, 250.0)
    rng = np.random.default_rng(12)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    k = KernelSpec(1e-2, "dense")
    wa = wasserstein_value(p, q, sinkhorn(p, q, k, tol=1e-12, max_iter=50000))
    wb = wasserstein_value(q, p, sinkhorn(q, p, k, tol=1e-12, max_iter=50000))
    assert wa == pytest.approx(wb, rel=1e-12)


def test_translation_equivariance_compact_support(mass_field):
    # only a compact-support property: the box is not periodic
    g = GridGeometry(16, 16, 250.0)
    k = KernelSpec(1e-3, "dense")
    base = np.full((16, 16), 1e-6)
    blob = base.copy()
    blob[5:8, 4:7] = 100.0
    blob2 = base.copy()
    blob2[6:9, 5:8] = 100.0

    def value(a, b):
        p, q = mass_field(g, a), mass_field(g, b)
        return wasserstein_value(p, q, sinkhorn(p, q, k, tol=1e-12, max_iter=100000))

    w1 = value(blob, blob2)
    w2 = value(np.roll(blob, (2, 2), (0, 1)), np.roll(blob2, (2, 2), (0, 1)))
    assert w1 == pytest.approx(w2, rel=1e-6)


def test_dense_conv_same_trajectory(mass_field):
    g = GridGeometry(3, 3, 250.0)
    rng = np.random.default_rng(4)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    a = sinkhorn(p, q, KernelSpec(1e-2, "dense"), tol=1e-9, max_iter=10000)
    b = sinkhorn(p, q, KernelSpec(1e-2, "conv"), tol=1e-9, max_iter=10000)
    assert a.iterations == b.iterations
    assert np.allclose(a.log_u, b.log_u, atol=1e-12)


def test_max_iter_exhaustion_flags_not_converged(mass_field):
    g = GridGeometry(8, 8, 250.0)
    rng = np.random.default_rng(2)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    pair = sinkhorn(p, q, KernelSpec(1e-3, "dense"), tol=1e-12, max_iter=3)
    assert pair.iterations == 3
    assert not pair.converged
    with pytest.raises(NotConvergedError):
        wasserstein_value(p, q, pair)
    # strict=False still evaluates
    assert np.isfinite(wasserstein_value(p, q, pair, strict=False))


def test_sinkhorn_argument_validation(mass_field):
    g = GridGeometry(4, 4, 250.0)
    g2 = GridGeometry(4, 5, 250.0)
    p = mass_field(g, np.ones(g.n))
    q = mass_field(g2, np.ones(g2.n))
    with pytest.raises(ValueError):
        sinkhorn(p, q, KernelSpec(1e-2, "dense"))
    p2 = mass_field(g, np.ones(g.n))
    with pytest.raises(ValueError):
        sinkhorn(p, p2, KernelSpec(1e-2, "dense"), tol=0.0)
    with pytest.raises(ValueError):
        sinkhorn(p, p2, KernelSpec(1e-2, "dense"), max_iter=0)
    # any residual is <= inf: the solve would stop after one sweep as converged
    with pytest.raises(ValueError, match="finite"):
        sinkhorn(p, p2, KernelSpec(1e-2, "dense"), tol=math.inf)


# ---------------------------------------------------------------------------
# stabilization and the log-domain path

def near_pure_swap(mass_field):
    g = GridGeometry(2, 1, 250.0)
    p = mass_field(g, np.array([1.0 - 1e-9, 1e-9]))
    q = mass_field(g, np.array([1e-9, 1.0 - 1e-9]))
    return g, p, q


def test_sharp_swap_overflows_linear_mode(mass_field):
    # the linear scalings leave (0, inf), and the solve carries on in log
    # arithmetic instead of failing
    g, p, q = near_pure_swap(mass_field)
    pair = sinkhorn(p, q, KernelSpec(1e-4, "dense"), tol=1e-10, max_iter=100000)
    assert pair.converged and pair.log_domain
    gam = dense_coupling(pair, _squared_distances(g))
    assert gam[0, 1] >= 0.99


def test_sharp_swap_solved_in_log_domain(mass_field):
    g, p, q = near_pure_swap(mass_field)
    pair = sinkhorn(p, q, KernelSpec(1e-4, "dense"), tol=1e-10,
                    max_iter=100000, log_domain=True)
    assert pair.converged
    gam = dense_coupling(pair, _squared_distances(g))
    # essentially all mass crosses between the two pixels
    assert gam[0, 1] >= 0.99
    w = wasserstein_value(p, q, pair)
    assert w == pytest.approx(0.25, rel=1e-2)


def test_log_domain_agrees_with_linear_mode(mass_field):
    g = GridGeometry(8, 8, 250.0)
    rng = np.random.default_rng(17)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    k = KernelSpec(1e-2, "dense")
    a = sinkhorn(p, q, k, tol=1e-10, max_iter=50000)
    b = sinkhorn(p, q, k, tol=1e-10, max_iter=50000, log_domain=True)
    wa = wasserstein_value(p, q, a)
    wb = wasserstein_value(p, q, b)
    assert wa == pytest.approx(wb, rel=1e-8)
    # one loop, one stopping rule
    assert a.iterations == b.iterations


def test_log_domain_translate_solve_matches_linear():
    src, tgt = render_pair(make_scenario("translate", size=64), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    k = KernelSpec(1e-3, "conv")
    a = sinkhorn(p, q, k, max_iter=5000)
    b = sinkhorn(p, q, k, max_iter=5000, log_domain=True)
    assert a.converged and b.converged
    assert a.iterations == b.iterations
    assert wasserstein_value(p, q, b) == pytest.approx(
        wasserstein_value(p, q, a), rel=1e-12)


def test_overrelaxed_translate_solve_takes_few_sweeps(monkeypatch):
    src, tgt = render_pair(make_scenario("translate", size=64), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    k = KernelSpec(1e-3, "conv")
    a = sinkhorn(p, q, k)
    b = sinkhorn(p, q, k, log_domain=True)
    tight = sinkhorn(p, q, k, tol=1e-12, max_iter=5000)
    assert a.converged and b.converged and tight.converged
    assert a.iterations == b.iterations <= 60
    assert a.omega > 1.0 and b.omega == pytest.approx(a.omega, rel=1e-12)
    # plain sweeps take 198 to the same tol; at tol 1e-6 W_eps is fixed only
    # to about 2e-9 in either loop, and both loops reach one fixed point
    monkeypatch.setattr("otvelo.otcore._OMEGA_MAX", 1.0)
    plain = sinkhorn(p, q, k)
    plain_tight = sinkhorn(p, q, k, tol=1e-12, max_iter=5000)
    assert plain.iterations == 198 and plain.omega == 1.0
    w_plain = wasserstein_value(p, q, plain)
    for pair in (a, b):
        assert wasserstein_value(p, q, pair) == pytest.approx(w_plain, rel=1e-9)
    assert wasserstein_value(p, q, tight) == pytest.approx(
        wasserstein_value(p, q, plain_tight), rel=1e-12)


def test_overrelaxed_pair_keeps_marginal_contract():
    # the returned u is the source projection p / xi(w): the row marginal is
    # exact and the column error stays within the reported residual
    src, tgt = render_pair(make_scenario("translate", size=64), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    for log_domain in (False, True):
        pair = sinkhorn(p, q, KernelSpec(1e-3, "conv"), log_domain=log_domain)
        assert pair.omega > 1.0
        row, col = coupling_marginals(p, pair)
        assert np.abs(row - p.mass).max() <= 1e-12
        assert np.abs(col - q.mass).sum() <= pair.residual


def assert_projected_start(p, q, pair):
    """The pair is the start w = 1 with u projected to p / xi(1), and its
    residual is the start's L1 error ||xi 1 - p||_1 + ||xi 1 - q||_1."""
    xi1 = kernel_apply(np.ones(p.geometry.n), pair.kernel, p.geometry)
    assert np.all(pair.log_w == 0.0)
    assert np.all(np.abs(np.exp(pair.log_u) * xi1 - p.mass) <= 1e-13 * p.mass)
    start = np.abs(xi1 - p.mass).sum() + np.abs(xi1 - q.mass).sum()
    assert math.isfinite(pair.residual)
    assert pair.residual == pytest.approx(start, rel=1e-12)
    assert pair.residual_history[-1] == pair.residual


def test_overrelaxation_overflow_falls_back_to_plain_sweeps():
    # relaxed linear sweeps overflow on this pair (at sweep 30); the solve
    # restarts plainly, still in linear arithmetic
    src, tgt = render_pair(make_scenario("translate", size=128), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    pair = sinkhorn(p, q, KernelSpec(1e-4, "dense"), max_iter=5000)
    assert pair.converged
    assert pair.omega == 1.0 and not pair.log_domain
    # a cap that ends the solve on the restart returns the projected start
    cut = sinkhorn(p, q, KernelSpec(1e-4, "dense"), max_iter=30)
    assert not cut.converged and cut.omega == 1.0 and not cut.log_domain
    assert_projected_start(p, q, cut)


def test_switch_to_log_domain_restarts_the_warmup(monkeypatch):
    # a linear overflow inside the plain warm-up restarts it in log
    # arithmetic: the solve then repeats the log-domain solve sweep for
    # sweep, relaxation included, and its history keeps an entry for each
    # discarded sweep
    src, tgt = render_pair(make_scenario("translate", size=64), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    k = KernelSpec(1e-3, "conv")
    log = sinkhorn(p, q, k, log_domain=True)
    calls = []

    def overflow_at_sweep_3(*vecs):
        calls.append(1)
        return len(calls) == 3

    monkeypatch.setattr("otvelo.otcore._out_of_range", overflow_at_sweep_3)
    auto = sinkhorn(p, q, k)
    assert auto.log_domain and auto.converged
    assert auto.omega == log.omega > 1.0
    assert auto.iterations == log.iterations + 3
    assert np.array_equal(auto.residual_history[3:], log.residual_history)
    assert np.array_equal(auto.log_u, log.log_u)
    assert np.array_equal(auto.log_w, log.log_w)
    # a cap that ends the solve on the switch returns the projected start
    calls.clear()
    cut = sinkhorn(p, q, k, max_iter=3)
    assert cut.log_domain and not cut.converged and cut.omega == 1.0
    assert_projected_start(p, q, cut)


def test_stalled_overrelaxation_restarts_plain_solve(monkeypatch):
    # the relaxed error is still above its value at the switch _PATIENCE
    # sweeps later, so the solve restarts from u = 1 and then repeats the
    # plain solve sweep for sweep
    src, tgt = render_pair(make_scenario("split_unequal", size=32), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    k = KernelSpec(1e-4, "dense")
    relaxed = sinkhorn(p, q, k, max_iter=5000)
    monkeypatch.setattr("otvelo.otcore._OMEGA_MAX", 1.0)
    plain = sinkhorn(p, q, k, max_iter=5000)
    assert plain.converged and relaxed.converged
    assert relaxed.omega == 1.0
    assert relaxed.iterations == plain.iterations + _WARMUP + _PATIENCE
    assert np.array_equal(relaxed.log_u, plain.log_u)
    assert np.array_equal(relaxed.log_w, plain.log_w)


def test_log_domain_corner_swap_solve():
    # the scalings of this swap span far more than exp can hold, so most
    # kernel sums take the exact fallback
    g = GridGeometry(8, 8, 250.0)
    a, b = np.zeros((8, 8)), np.zeros((8, 8))
    a[0, 0] = b[7, 7] = 255.0
    p = normalize_to_mass(IntensityRaster(g, a, 0.0))
    q = normalize_to_mass(IntensityRaster(g, b, 86400.0))
    pair = sinkhorn(p, q, KernelSpec(1e-5, "dense"), max_iter=5000,
                    log_domain=True)
    assert pair.converged
    # the L1 error sits at 2.0 through the warm-up, which gives no rate to
    # extrapolate, so the solve stays plain
    assert pair.omega == 1.0
    assert pair.iterations == 3825
    assert wasserstein_value(p, q, pair) == pytest.approx(1.5312499873949856,
                                                          rel=1e-12)


def test_log_domain_conv_mode(mass_field):
    g = GridGeometry(8, 8, 250.0)
    rng = np.random.default_rng(18)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    a = sinkhorn(p, q, KernelSpec(1e-2, "conv"), tol=1e-10, max_iter=50000,
                 log_domain=True)
    b = sinkhorn(p, q, KernelSpec(1e-2, "dense"), tol=1e-10, max_iter=50000,
                 log_domain=True)
    assert wasserstein_value(p, q, a) == pytest.approx(
        wasserstein_value(p, q, b), rel=1e-10)


# ---------------------------------------------------------------------------
# derived quantities

def test_dual_value_equals_regularized_primal(mass_field):
    g = GridGeometry(3, 3, 250.0)
    c = _squared_distances(g)
    rng = np.random.default_rng(21)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    eps = 1e-2
    pair = sinkhorn(p, q, KernelSpec(eps, "dense"), tol=1e-13, max_iter=200000)
    gam = dense_coupling(pair, c)
    primal = float((gam * c).sum())
    neg_entropy = float((gam * np.log(gam)).sum())
    dual = wasserstein_value(p, q, pair)
    assert dual == pytest.approx(primal + eps * neg_entropy, rel=1e-9)


def test_coupling_rows_and_cols(mass_field):
    g = GridGeometry(4, 4, 250.0)
    rng = np.random.default_rng(30)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    pair = sinkhorn(p, q, KernelSpec(1e-2, "dense"), tol=1e-12, max_iter=100000)
    gam = dense_coupling(pair, _squared_distances(g))
    assert np.abs(gam.sum(axis=1) - p.mass).max() <= 1e-11
    assert np.abs(gam.sum(axis=0) - q.mass).max() <= 1e-11
    assert gam.min() > 0.0


def test_large_eps_coupling_approaches_product(mass_field):
    g = GridGeometry(2, 1, 250.0)
    c = _squared_distances(g)
    p = mass_field(g, np.array([0.5, 0.5]))
    devs = []
    for eps in (0.25, 1.0, 10.0):
        pair = sinkhorn(p, p, KernelSpec(eps, "dense"), tol=1e-12, max_iter=100000)
        gam = dense_coupling(pair, c)
        devs.append(np.abs(gam - np.outer(p.mass, p.mass)).max())
    # deviation from the independent coupling shrinks as entropy dominates
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 1e-2


def test_transport_cost_rows_conv_matches_dense(mass_field):
    g = GridGeometry(10, 10, 250.0)
    rng = np.random.default_rng(31)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    pd = sinkhorn(p, q, KernelSpec(1e-2, "dense"), tol=1e-10, max_iter=50000)
    pc = sinkhorn(p, q, KernelSpec(1e-2, "conv"), tol=1e-10, max_iter=50000)
    # every pixel is valid here, so cbar * p recovers sum_j gamma_ij c_ij
    rows_d = transport_distance(p, pd, q).cbar * p.mass
    rows_c = transport_distance(p, pc, q).cbar * p.mass
    assert np.abs(rows_d - rows_c).max() <= 1e-6 * np.abs(rows_d).max()
    # row costs sum to the primal transport cost
    gam = dense_coupling(pd, _squared_distances(g))
    assert rows_d.sum() == pytest.approx((gam * _squared_distances(g)).sum(),
                                         rel=1e-10)


@pytest.mark.parametrize("mode", ["dense", "conv"])
def test_transport_cost_map_matches_the_explicit_coupling(mass_field, mode):
    # per pixel, cbar is the mean cost sum_j gamma_ij c_ij / p_i of the N x N
    # plan; every pixel of this pair is valid
    g = GridGeometry(10, 10, 250.0)
    rng = np.random.default_rng(31)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    pair = sinkhorn(p, q, KernelSpec(1e-2, mode), tol=1e-10, max_iter=50000)
    c = _squared_distances(g)
    expected = (dense_coupling(pair, c) * c).sum(axis=1) / p.mass
    cbar = transport_distance(p, pair, q).cbar
    assert np.all(np.isfinite(cbar))
    assert np.abs(cbar - expected).max() <= 1e-11 * expected.max()


def test_dense_solve_memory_stays_linear_in_pixels():
    # the N x N kernel of this 64^2 pair alone would take 134 MB
    src, tgt = render_pair(make_scenario("translate", size=64), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    tracemalloc.start()
    try:
        pair = sinkhorn(p, q, KernelSpec(1e-2, "dense"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.converged
    assert peak < 10e6


def test_dense_mode_beyond_auto_cutoff_equals_conv(mass_field):
    # auto switches to conv above DENSE_MAX_PIXELS, but dense mode itself has
    # no pixel limit; at eps 0.1 the conv radius (125 px) spans this grid, so
    # both modes keep every weight and take the same sweeps bit for bit
    assert DENSE_MAX_PIXELS == 4096
    g = GridGeometry(65, 64, 250.0)
    assert resolve_mode("auto", g.n) == "conv"
    assert required_truncation_radius(0.1, g) >= 64
    rng = np.random.default_rng(32)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    a = sinkhorn(p, q, KernelSpec(0.1, "dense"))
    b = sinkhorn(p, q, KernelSpec(0.1, "conv"))
    assert a.converged
    assert a.iterations == b.iterations
    assert np.array_equal(a.log_u, b.log_u)
    assert np.array_equal(a.log_w, b.log_w)


def test_scaled_apply_matches_linear_moments():
    # the moments are formed from the log scalings after a linear solve too;
    # the reference is the linear formula a * xi(b * f)
    src, tgt = render_pair(make_scenario("translate", size=32), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    pair = sinkhorn(p, q, KernelSpec(1e-3, "conv"))
    assert pair.converged and not pair.log_domain
    op = _make_operator(pair.kernel, p.geometry)
    x, y = p.geometry.pixel_centers()
    moments = (x, y, x * x + y * y)
    got = [_scaled_apply(op, pair.log_u, pair.log_w + np.log(f)) for f in moments]
    for f, g in zip(moments, got):
        ref = np.exp(pair.log_u) * op.apply(np.exp(pair.log_w) * f)
        assert np.all(np.abs(g - ref) <= 1e-12 * ref)


# ---------------------------------------------------------------------------
# coarse-to-fine warm start

def _block_pair(width, height, shift):
    """A square block of a third of the shorter side, moved ``shift`` px to
    the right: the criterion-10 pair at other sizes."""
    g = GridGeometry(width, height, 250.0)
    side = min(width, height) // 3
    y0, x0 = (height - side) // 2, (width - side) // 2
    a, b = np.zeros((height, width)), np.zeros((height, width))
    a[y0:y0 + side, x0:x0 + side] = 255.0
    b[y0:y0 + side, x0 + shift:x0 + shift + side] = 255.0
    return (normalize_to_mass(IntensityRaster(g, a, 0.0)),
            normalize_to_mass(IntensityRaster(g, b, 86400.0)))


def _cold(p, q, kernel, max_iter=1000, log_domain=False):
    """The loop on the given grid only, from u = w = 1."""
    start = np.zeros(p.geometry.n), np.zeros(p.geometry.n)
    return _solve_level(p, q, kernel, 1e-6, max_iter, log_domain, start)


@pytest.mark.parametrize("log_domain", [False, True], ids=["linear", "log"])
def test_warm_start_matches_cold_solve(log_domain):
    # 256^2 at eps 1e-3 solves the 128^2 pooled pair first; the fine level
    # then takes 18 sweeps against 73 cold, to the same fixed point (57 when
    # it started from the refined log u and log w themselves)
    p, q = _block_pair(256, 256, 12)
    k = KernelSpec(1e-3, "conv")
    warm = sinkhorn(p, q, k, log_domain=log_domain)
    cold = _cold(p, q, k, log_domain=log_domain)
    assert warm.converged and cold.converged
    assert warm.log_domain == cold.log_domain == log_domain
    (level,) = warm.coarse_iterations
    assert level[:2] == (128, 128) and level[2] > 0
    assert warm.iterations < cold.iterations
    # the start from log(u / p) and log(w / q) leaves 6.0e-4 of marginal
    # error after the first sweep, against 1.8e-2 from log u and log w
    assert warm.residual_history[0] <= 1e-3 and warm.iterations <= 20
    assert len(warm.residual_history) == warm.iterations
    assert wasserstein_value(p, q, warm) == pytest.approx(
        wasserstein_value(p, q, cold), rel=1e-8)
    a = transport_distance(p, warm, q).target
    b = transport_distance(p, cold, q).target
    valid = np.isfinite(a.target_x)
    assert np.array_equal(valid, np.isfinite(b.target_x)) and valid.any()
    for got, ref in ((a.target_x, b.target_x), (a.target_y, b.target_y)):
        px = np.abs(got - ref)[valid] / p.geometry.pitch
        assert px.max() <= 1e-4


@pytest.mark.parametrize("width, height, eps", [
    (258, 257, 1e-3),   # an odd side
    (128, 128, 1e-3),   # the pooled grid would have 64 px
    (256, 256, 1e-4),   # sigma = sqrt(eps / 2) is 0.9 pooled px
], ids=["odd_side", "128px", "narrow_kernel"])
def test_solves_below_the_coarsening_rule_stay_cold(width, height, eps):
    p, q = _block_pair(width, height, 6)
    k = KernelSpec(eps, "conv")
    assert not _coarsens(p.geometry, eps)
    pair = sinkhorn(p, q, k, max_iter=60)
    cold = _cold(p, q, k, max_iter=60)
    assert pair.coarse_iterations == ()
    assert pair.iterations == cold.iterations
    assert np.array_equal(pair.log_u, cold.log_u)
    assert np.array_equal(pair.log_w, cold.log_w)
    assert np.array_equal(pair.residual_history, cold.residual_history)


def test_coarsening_rule_boundaries():
    # sigma = 2 pooled px at 256^2 is sqrt(eps / 2) = 4 / 256
    edge = 2.0 * (4.0 / 256.0) ** 2
    assert _coarsens(GridGeometry(256, 256, 1.0), edge * (1 + 1e-9))
    assert not _coarsens(GridGeometry(256, 256, 1.0), edge * (1 - 1e-9))
    assert _coarsens(GridGeometry(512, 256, 1.0), 1e-2)
    assert not _coarsens(GridGeometry(512, 254, 1.0), 1e-2)
    assert not _coarsens(GridGeometry(512, 255, 1.0), 1e-2)
    assert not _coarsens(GridGeometry(511, 512, 1.0), 1e-2)


def test_pool_matches_the_4d_reduction(mass_field):
    # pair sums of strided views add the four pixels of a cell in the
    # pairwise order np.sum takes over axes (1, 3), so they match it bit for
    # bit; masses spanning many decades would expose any other order
    rng = np.random.default_rng(5)
    g = GridGeometry(512, 256, 250.0)
    weights = rng.random(g.n) * 10.0 ** rng.uniform(-12.0, 0.0, g.n)
    p = mass_field(g, weights, mask=rng.random(g.n) < 0.3)
    pooled = _pool(p)
    cells = (g.height // 2, 2, g.width // 2, 2)
    mass = p.mass.reshape(cells).sum(axis=(1, 3))
    mask = p.mask.reshape(cells).any(axis=(1, 3))
    assert pooled.geometry == GridGeometry(256, 128, 500.0)
    assert np.array_equal(pooled.mass, mass.reshape(-1))
    assert np.array_equal(pooled.mask, mask.reshape(-1))
    assert pooled.floor == p.floor


# fine pixel j of an 8 x 10 grid lies at coarse coordinate j / 2 - 1/4 of
# its 4 x 5 pooled grid on each axis, the border pixels included
_COARSE_YX = np.mgrid[0:4, 0:5]
_FINE_YX = np.mgrid[0:8, 0:10] / 2.0 - 0.25


def _affine(yx, seed=21):
    """A random affine field sampled at the coordinates ``yx``, flat."""
    a, bx, by = np.random.default_rng(seed).normal(size=3)
    return (a + bx * yx[1] + by * yx[0]).reshape(-1)


def test_refine_reproduces_affine_fields():
    got = _refine(_affine(_COARSE_YX), (8, 10))
    assert np.allclose(got, _affine(_FINE_YX), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("log_domain", [False, True], ids=["linear", "log"])
def test_refined_start_keeps_the_mass_step(monkeypatch, log_domain):
    # a coarse start is log(u / p) and log(w / q) on the pooled grid: the
    # level refines it and adds its own log p, so an affine log(u / p) over
    # a block of mass starts u at log p + the refined field, and the
    # block's edge stays one pixel wide
    g = GridGeometry(10, 8, 250.0)
    a = np.full((8, 10), 1.0)
    a[2:6, 3:7] = 255.0
    p = normalize_to_mass(IntensityRaster(g, a, 0.0))
    q = normalize_to_mass(IntensityRaster(g, np.roll(a, 1, axis=1), 86400.0))
    seen = []

    class Seen(Exception):
        pass

    def record(self, v, out=None):
        # the first kernel application reads the start's u
        seen.append(v.copy())
        raise Seen

    monkeypatch.setattr(_SeparableOperator, "log_apply" if log_domain else "apply",
                        record)
    with pytest.raises(Seen):
        _solve_level(p, q, KernelSpec(1e-2, "conv"), 1e-6, 10, log_domain,
                     (_affine(_COARSE_YX), _affine(_COARSE_YX, seed=22)))
    (u,) = seen
    log_u = u if log_domain else np.log(u)
    want = np.log(p.mass) + _affine(_FINE_YX)
    assert np.allclose(log_u, want, rtol=0.0, atol=1e-14)


def test_capped_coarse_level_hands_on_a_start():
    # max_iter caps each level: the pooled level stops unconverged after 10
    # sweeps, and its start still brings the fine level far closer than a
    # cold start in as many sweeps
    p, q = _block_pair(256, 256, 12)
    k = KernelSpec(1e-3, "conv")
    cut = sinkhorn(p, q, k, max_iter=10)
    cold = _cold(p, q, k, max_iter=10)
    assert cut.coarse_iterations == ((128, 128, 10),)
    assert cut.iterations == 10 and not cut.converged
    assert np.isfinite(cut.log_u).all() and np.isfinite(cut.log_w).all()
    assert math.isfinite(cut.residual)
    assert cut.residual < cold.residual / 5


def test_level_starts_in_the_coarser_levels_arithmetic(monkeypatch):
    # the 128^2 level overflows at its first linear sweep and goes on in log
    # arithmetic; the 256^2 level then starts there, runs no linear sweep,
    # and repeats the fine level of a log-domain solve sweep for sweep
    p, q = _block_pair(256, 256, 12)
    k = KernelSpec(1e-3, "conv")
    log = sinkhorn(p, q, k, log_domain=True)
    calls = []

    def overflow_once(*vecs):
        calls.append(1)
        return len(calls) == 1

    monkeypatch.setattr("otvelo.otcore._out_of_range", overflow_once)
    pair = sinkhorn(p, q, k)
    assert len(calls) == 1
    assert pair.converged and pair.log_domain
    ((width, height, sweeps),) = pair.coarse_iterations
    assert log.coarse_iterations == ((width, height, sweeps - 1),)
    assert pair.iterations == log.iterations
    assert np.array_equal(pair.log_u, log.log_u)
    assert np.array_equal(pair.log_w, log.log_w)


# ---------------------------------------------------------------------------
# a given start

def _translate_64(eps=1e-2):
    src, tgt = render_pair(make_scenario("translate", size=64), 1.0)
    return normalize_to_mass(src), normalize_to_mass(tgt), KernelSpec(eps, "dense")


@pytest.mark.parametrize("start", [
    lambda n: (np.zeros(n - 1), np.zeros(n)),
    lambda n: (np.zeros(n), np.zeros((n, 1))),
    lambda n: (np.zeros(n),),
    lambda n: (np.full(n, np.nan), np.zeros(n)),
    lambda n: (np.zeros(n), np.r_[np.zeros(n - 1), np.inf]),
    lambda n: (np.r_[-np.inf, np.zeros(n - 1)], np.zeros(n)),
], ids=["short", "not_flat", "one_array", "nan", "inf", "minus_inf"])
def test_start_is_validated(start, mass_field):
    g = GridGeometry(4, 4, 250.0)
    p = mass_field(g, np.ones(g.n))
    with pytest.raises(ValueError, match="start"):
        sinkhorn(p, p, KernelSpec(1e-2, "dense"), start=start(g.n))


def test_start_at_a_converged_pair_takes_one_sweep():
    p, q, k = _translate_64()
    cold = sinkhorn(p, q, k)
    again = sinkhorn(p, q, k, start=(cold.log_u, cold.log_w))
    assert cold.converged and cold.iterations > 1
    assert again.converged and again.iterations == 1
    assert again.coarse_iterations == () and not again.log_domain
    assert wasserstein_value(p, q, again) == pytest.approx(
        wasserstein_value(p, q, cold), rel=1e-9)


def test_gauge_shifted_start_overflows_into_log_arithmetic():
    # (log u + 800, log w - 800) is the same plan, but exp(log u + 800) is
    # inf in float64: the first linear sweep leaves (0, inf), and the solve
    # restarts from the same start in log arithmetic
    p, q, k = _translate_64()
    cold = sinkhorn(p, q, k)
    shifted = (cold.log_u + 800.0, cold.log_w - 800.0)
    pair = sinkhorn(p, q, k, start=shifted)
    assert shifted[0].max() > math.log(np.finfo(np.float64).max)
    assert pair.converged and pair.log_domain
    assert wasserstein_value(p, q, pair) == pytest.approx(
        wasserstein_value(p, q, cold), rel=1e-9)


def test_start_replaces_the_coarse_levels():
    # 256^2 at eps 1e-3 would solve its 128^2 pooled pair first; a start
    # runs the loop on the given grid only, here the cold loop bit for bit
    p, q = _block_pair(256, 256, 12)
    k = KernelSpec(1e-3, "conv")
    assert _coarsens(p.geometry, k.epsilon)
    zero = np.zeros(p.geometry.n)
    pair = sinkhorn(p, q, k, max_iter=20, start=(zero, zero))
    cold = _cold(p, q, k, max_iter=20)
    assert pair.coarse_iterations == ()
    assert np.array_equal(pair.residual_history, cold.residual_history)
    assert np.array_equal(pair.log_u, cold.log_u)
    assert np.array_equal(pair.log_w, cold.log_w)


# ---------------------------------------------------------------------------
# a coarser level's omega, carried and re-estimated

def _mass_relative_start(p, q, kernel, log_domain=False):
    """The cold solve of the 2x2-pooled pair, as the start the finer level
    takes from it, and its omega."""
    pooled_p, pooled_q = _pool(p), _pool(q)
    coarse = _cold(pooled_p, pooled_q, kernel, log_domain=log_domain)
    start = (coarse.log_u - np.log(pooled_p.mass),
             coarse.log_w - np.log(pooled_q.mass))
    return start, coarse.omega


def _young_ratio(mu2, omega):
    """The error ratio per sweep relaxed by omega for the plain rate mu^2:
    rho^2, rho the larger root of (rho + omega - 1)^2 = omega^2 mu^2 rho."""
    b = omega * math.sqrt(mu2)
    root = (b + math.sqrt(b * b - 4.0 * (omega - 1.0))) / 2.0
    return root ** 4


@pytest.mark.parametrize("mu2, omega", [(0.95, 1.3), (0.99, 1.5), (0.8, 1.05)])
def test_relaxation_factor_inverts_youngs_relation(mu2, omega):
    ratio = _young_ratio(mu2, omega)
    assert math.sqrt(ratio) > omega - 1.0
    assert _relaxation_factor(ratio, omega) == pytest.approx(
        2.0 / (1.0 + math.sqrt(1.0 - mu2)), rel=1e-12)


def test_relaxation_factor_of_plain_sweeps_is_the_warmup_rule():
    # mu^2 = sqrt(eta) exactly, so the warm-up sets omega to the last bit as
    # 2 / (1 + sqrt(1 - sqrt(eta))) did
    for eta in np.random.default_rng(3).uniform(0.0, 1.0, 1000):
        want = min(2.0 / (1.0 + math.sqrt(1.0 - math.sqrt(eta))), _OMEGA_MAX)
        assert _relaxation_factor(eta) == want


@pytest.mark.parametrize("ratio", [
    (1.6 - 1.0) ** 2,          # rho = omega - 1: over-relaxed, no rate
    0.5 * (1.6 - 1.0) ** 2,    # rho below omega - 1
    0.0,
    1.0,                       # mu^2 = 1: the error did not fall
    1.2,                       # mu^2 > 1: the error rose
    math.nan, math.inf,
], ids=["rho_at_omega_1", "rho_below", "zero", "flat", "rising", "nan", "inf"])
def test_relaxation_factor_keeps_omega_without_a_rate(ratio):
    assert _relaxation_factor(ratio, 1.6) == 1.6
    if ratio == 0.0 or not ratio < 1.0:
        assert _relaxation_factor(ratio) == 1.0   # plain sweeps stay plain


def test_relaxation_factor_is_capped():
    # a plain rate of 0.9999 asks for omega 1.98
    assert _relaxation_factor(_young_ratio(0.9999, 1.5), 1.5) == _OMEGA_MAX
    for mu2 in np.linspace(0.01, 0.99999, 50):
        for omega in (1.0, 1.1, 1.5, 1.89):
            if omega * omega * mu2 >= 4.0 * (omega - 1.0):   # a real rate
                ratio = _young_ratio(mu2, omega)
                assert _relaxation_factor(ratio, omega) <= _OMEGA_MAX


def test_third_level_carries_the_warm_started_levels_omega(monkeypatch):
    # the criterion-10 pair: the 256^2 level started from the cold 128^2
    # level sets omega from six plain sweeps; the 512^2 level relaxes with
    # it from its second sweep and takes 8 sweeps, against 12 with a warm-up
    g = GridGeometry(512, 512, 250.0)
    a, b = np.zeros((512, 512)), np.zeros((512, 512))
    a[196:316, 196:316] = 255.0
    b[196:316, 220:340] = 255.0
    p = normalize_to_mass(IntensityRaster(g, a, 0.0))
    q = normalize_to_mass(IntensityRaster(g, b, 86400.0))
    levels = []

    def spy(*args):
        pair = _solve_level(*args)
        levels.append((args[7] if len(args) > 7 else 1.0, pair.omega))
        return pair

    monkeypatch.setattr("otvelo.otcore._solve_level", spy)
    pair = sinkhorn(p, q, KernelSpec(1e-3, "conv"), tol=1e-6, max_iter=3000)
    assert pair.converged
    assert pair.coarse_iterations == ((128, 128, 71), (256, 256, 13))
    assert pair.iterations == 8
    (cold, _), (warm, omega), (carried, _) = levels
    assert cold == warm == 1.0 and carried == omega > 1.0
    # W_eps of the solve with a warm-up at every level
    warmup_w = -0.013902177032342797
    assert wasserstein_value(p, q, pair) == pytest.approx(warmup_w, rel=1e-8)


@pytest.mark.parametrize("log_domain", [False, True], ids=["linear", "log"])
def test_level_after_a_cold_level_keeps_the_warmup(log_domain):
    # the 256^2 block pair's 128^2 level starts cold, so the 256^2 level sets
    # omega from its own six plain sweeps, although the coarse level relaxed
    p, q = _block_pair(256, 256, 12)
    k = KernelSpec(1e-3, "conv")
    pair = sinkhorn(p, q, k, log_domain=log_domain)
    start, omega = _mass_relative_start(p, q, k, log_domain)
    warmup = _solve_level(p, q, k, 1e-6, 1000, log_domain, start)
    carried = _solve_level(p, q, k, 1e-6, 1000, log_domain, start, omega)
    assert omega > 1.0
    assert np.array_equal(pair.residual_history, warmup.residual_history)
    assert pair.omega == warmup.omega
    assert not np.array_equal(carried.residual_history[:_WARMUP],
                              warmup.residual_history[:_WARMUP])


def _first_relaxed_sweep(monkeypatch, solve, plain_solve=None):
    """The first sweep whose error differs from the same solve without
    relaxation: ``plain_solve()``, or ``solve()`` with omega capped at 1."""
    relaxed = solve()
    with monkeypatch.context() as m:
        m.setattr("otvelo.otcore._OMEGA_MAX", 1.0)
        plain = (plain_solve or solve)()
    n = min(len(relaxed.residual_history), len(plain.residual_history))
    same = relaxed.residual_history[:n] == plain.residual_history[:n]
    return None if same.all() else int(np.argmin(same)) + 1


def test_one_level_and_started_solves_keep_the_warmup(monkeypatch):
    # neither a one-level solve nor a given start carries an omega: each
    # relaxes only after its six plain sweeps, and none re-estimates omega
    def warmup_only(ratio, omega=1.0):
        assert omega == 1.0, "omega re-estimated outside a carried level"
        return _relaxation_factor(ratio)

    monkeypatch.setattr("otvelo.otcore._relaxation_factor", warmup_only)
    src, tgt = render_pair(make_scenario("translate", size=64), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    k = KernelSpec(1e-3, "conv")
    near = normalize_to_mass(render_pair(make_scenario("translate", size=64), 0.9)[1])
    guess = sinkhorn(p, near, k)
    for solve in (lambda: sinkhorn(p, q, k),
                  lambda: sinkhorn(p, q, k, start=(guess.log_u, guess.log_w))):
        assert _first_relaxed_sweep(monkeypatch, solve) == _WARMUP + 1


def test_carried_omega_relaxes_after_one_plain_sweep(monkeypatch):
    # a carried level's first sweep is plain and its second relaxed; after
    # 8 relaxed sweeps omega is re-estimated once, from the error ratio per
    # sweep over sweeps 6 to 9
    p, q = _block_pair(256, 256, 12)
    k = KernelSpec(1e-3, "conv")
    start, omega = _mass_relative_start(p, q, k)
    seen = []

    def record(ratio, om=1.0):
        seen.append((ratio, om))
        return om

    monkeypatch.setattr("otvelo.otcore._relaxation_factor", record)
    carried = _solve_level(p, q, k, 1e-12, 12, False, start, omega)
    h = carried.residual_history
    assert carried.iterations == 12
    assert seen == [((h[8] / h[5]) ** (1.0 / 3.0), omega)]
    assert carried.omega == omega
    assert _first_relaxed_sweep(
        monkeypatch, lambda: _solve_level(p, q, k, 1e-12, 12, False, start, omega),
        lambda: _solve_level(p, q, k, 1e-12, 12, False, start)) == 2


def test_carried_level_restarts_by_the_warmup_rule(monkeypatch):
    p, q = _block_pair(256, 256, 12)
    k = KernelSpec(1e-3, "conv")
    start, omega = _mass_relative_start(p, q, k)
    with monkeypatch.context() as m:
        m.setattr("otvelo.otcore._OMEGA_MAX", 1.0)
        plain = _solve_level(p, q, k, 1e-6, 1000, False, start)
    log = _solve_level(p, q, k, 1e-6, 1000, True, start)
    calls = []

    def overflow_at(sweep):
        def out_of_range(*vecs):
            calls.append(1)
            return len(calls) == sweep
        return out_of_range

    # a relaxed sweep that overflows restarts the level with plain sweeps for
    # good; it then repeats the plain solve sweep for sweep
    monkeypatch.setattr("otvelo.otcore._out_of_range", overflow_at(3))
    pair = _solve_level(p, q, k, 1e-6, 1000, False, start, omega)
    assert pair.converged and pair.omega == 1.0 and not pair.log_domain
    assert pair.iterations == plain.iterations + 3
    assert np.array_equal(pair.residual_history[3:], plain.residual_history)
    assert np.array_equal(pair.log_u, plain.log_u)
    # the plain first sweep that overflows restarts in log arithmetic with
    # a warm-up of its own: the log-domain solve, sweep for sweep
    calls.clear()
    monkeypatch.setattr("otvelo.otcore._out_of_range", overflow_at(1))
    pair = _solve_level(p, q, k, 1e-6, 1000, False, start, omega)
    assert pair.converged and pair.log_domain
    assert pair.omega == log.omega > 1.0
    assert pair.iterations == log.iterations + 1
    assert np.array_equal(pair.residual_history[1:], log.residual_history)
    assert np.array_equal(pair.log_u, log.log_u)
