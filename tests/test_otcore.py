import numpy as np
import pytest

from otvelo import (
    DENSE_MAX_PIXELS, GridGeometry, KernelSpec, NotConvergedError, ScaleError,
    StabilizationError,
    build_cost, coupling_marginals, dense_coupling, kernel_apply, make_scenario,
    normalize_to_mass, render_pair, required_truncation_radius, sinkhorn,
    transport_cost_rows, wasserstein_value,
)


# ---------------------------------------------------------------------------
# cost matrix

def test_cost_two_pixel_grid():
    g = GridGeometry(2, 1, 250.0)
    c = build_cost(g).entries
    assert c[0, 0] == 0.0 and c[1, 1] == 0.0
    # centers 0.25 and 0.75 -> squared distance 0.25
    assert c[0, 1] == pytest.approx(0.25)
    assert c[1, 0] == pytest.approx(0.25)


def test_cost_two_by_two_grid():
    g = GridGeometry(2, 2, 250.0)
    c = build_cost(g).entries
    assert np.allclose(np.diag(c), 0.0)
    assert c[0, 1] == pytest.approx(0.25)  # adjacent
    assert c[0, 2] == pytest.approx(0.25)
    assert c[0, 3] == pytest.approx(0.5)   # diagonal
    assert np.allclose(c, c.T)


def test_cost_is_pixel_size_invariant():
    a = build_cost(GridGeometry(5, 4, 250.0)).entries
    b = build_cost(GridGeometry(5, 4, 1.0)).entries
    assert np.array_equal(a, b)


def test_cost_refuses_large_grids():
    g = GridGeometry(65, 64, 250.0)  # 4160 > 4096
    with pytest.raises(ScaleError) as err:
        build_cost(g)
    assert "conv" in str(err.value)


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

def test_kernel_delta_vector_conv_matches_dense():
    g = GridGeometry(8, 8, 250.0)
    for eps in (1e-2, 1e-3):
        v = np.zeros(g.n)
        v[27] = 1.0
        a = kernel_apply(v, KernelSpec(eps, "dense"), g)
        b = kernel_apply(v, KernelSpec(eps, "conv"), g)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_kernel_random_vector_conv_matches_dense():
    g = GridGeometry(12, 9, 250.0)
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 1.0, g.n)
    a = kernel_apply(v, KernelSpec(5e-3, "dense"), g)
    b = kernel_apply(v, KernelSpec(5e-3, "conv"), g)
    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


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
    gam = dense_coupling(pair, build_cost(g))
    assert np.allclose(gam.entries.sum(axis=1), p.mass, atol=1e-9)


def test_marginals_after_each_sweep(mass_field):
    # the u-update enforces the source marginal exactly
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
    assert h[-1] == pytest.approx(pair.residual)
    assert np.all(np.diff(h) <= 1e-12 * h[0])


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


# ---------------------------------------------------------------------------
# stabilization and the log-domain path

def near_pure_swap(mass_field):
    g = GridGeometry(2, 1, 250.0)
    p = mass_field(g, np.array([1.0 - 1e-9, 1e-9]))
    q = mass_field(g, np.array([1e-9, 1.0 - 1e-9]))
    return g, p, q


def test_sharp_swap_overflows_linear_mode(mass_field):
    _, p, q = near_pure_swap(mass_field)
    with pytest.raises(StabilizationError) as err:
        sinkhorn(p, q, KernelSpec(1e-4, "dense"), tol=1e-10, max_iter=100000)
    assert "log_domain" in str(err.value)


def test_sharp_swap_solved_in_log_domain(mass_field):
    g, p, q = near_pure_swap(mass_field)
    pair = sinkhorn(p, q, KernelSpec(1e-4, "dense"), tol=1e-10,
                    max_iter=100000, log_domain=True)
    assert pair.converged
    gam = dense_coupling(pair, build_cost(g))
    # essentially all mass crosses between the two pixels
    assert gam.entries[0, 1] >= 0.99
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
    c = build_cost(g)
    rng = np.random.default_rng(21)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    eps = 1e-2
    pair = sinkhorn(p, q, KernelSpec(eps, "dense"), tol=1e-13, max_iter=200000)
    gam = dense_coupling(pair, c).entries
    primal = float((gam * c.entries).sum())
    neg_entropy = float((gam * np.log(gam)).sum())
    dual = wasserstein_value(p, q, pair)
    assert dual == pytest.approx(primal + eps * neg_entropy, rel=1e-9)


def test_coupling_rows_and_cols(mass_field):
    g = GridGeometry(4, 4, 250.0)
    rng = np.random.default_rng(30)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    pair = sinkhorn(p, q, KernelSpec(1e-2, "dense"), tol=1e-12, max_iter=100000)
    gam = dense_coupling(pair, build_cost(g)).entries
    assert np.abs(gam.sum(axis=1) - p.mass).max() <= 1e-11
    assert np.abs(gam.sum(axis=0) - q.mass).max() <= 1e-11
    assert gam.min() > 0.0


def test_large_eps_coupling_approaches_product(mass_field):
    g = GridGeometry(2, 1, 250.0)
    c = build_cost(g)
    p = mass_field(g, np.array([0.5, 0.5]))
    devs = []
    for eps in (0.25, 1.0, 10.0):
        pair = sinkhorn(p, p, KernelSpec(eps, "dense"), tol=1e-12, max_iter=100000)
        gam = dense_coupling(pair, c).entries
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
    rows_d = transport_cost_rows(p, pd)
    rows_c = transport_cost_rows(p, pc)
    assert np.abs(rows_d - rows_c).max() <= 1e-6 * np.abs(rows_d).max()
    # row costs sum to the primal transport cost
    gam = dense_coupling(pd, build_cost(g)).entries
    assert rows_d.sum() == pytest.approx((gam * build_cost(g).entries).sum(),
                                         rel=1e-10)


def test_dense_mode_pixel_budget(mass_field):
    assert DENSE_MAX_PIXELS == 4096
    g = GridGeometry(65, 64, 250.0)
    rng = np.random.default_rng(32)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    with pytest.raises(ScaleError):
        sinkhorn(p, p, KernelSpec(1e-2, "dense"))
