import re

import numpy as np
import pytest

from otvelo import (
    BarycentricMap, GridGeometry, IntensityRaster, KernelSpec, MassField,
    NotConvergedError, TransportSummary, VelocityField, apply_ice_mask,
    barycentric_map, make_scenario, normalize_to_mass, principal_strain,
    render_pair, sinkhorn, strain, transport_distance, transport_speed,
    velocity, wasserstein_value,
)
from otvelo import fields
from otvelo.fields import _principal

DT = 86400.0


def solve(p, q, eps=1e-2, mode="dense", tol=1e-12, max_iter=200000):
    return sinkhorn(p, q, KernelSpec(eps, mode), tol=tol, max_iter=max_iter)


def field(g, weights, floor=1e-10, mask=None):
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if mask is None:
        mask = np.ones(g.n, dtype=bool)
    return MassField(g, w / w.sum(), mask, floor)


# ---------------------------------------------------------------------------
# transport distance

def test_two_pixel_swap_cbar_is_squared_distance(mass_field):
    g = GridGeometry(2, 1, 250.0)
    p = mass_field(g, np.array([1.0 - 1e-9, 1e-9]))
    q = mass_field(g, np.array([1e-9, 1.0 - 1e-9]))
    pair = sinkhorn(p, q, KernelSpec(1e-4, "dense"), tol=1e-12,
                    max_iter=100000, log_domain=True)
    summary = transport_distance(p, pair, q=q)
    # nearly all mass at pixel 0 travels the full pitch
    assert summary.cbar[0] == pytest.approx(0.25, rel=1e-3)
    assert summary.w_eps == pytest.approx(0.25, rel=1e-2)


def test_transport_speed_units(mass_field):
    g = GridGeometry(2, 1, 250.0)
    p = mass_field(g, np.array([1.0 - 1e-9, 1e-9]))
    q = mass_field(g, np.array([1e-9, 1.0 - 1e-9]))
    pair = sinkhorn(p, q, KernelSpec(1e-4, "dense"), tol=1e-12,
                    max_iter=100000, log_domain=True)
    summary = transport_distance(p, pair, q=q)
    speed = transport_speed(summary, DT)
    # sqrt(0.25) * (2 * 250 m) / 86400 s
    assert speed[0] == pytest.approx(0.5 * 500.0 / DT, rel=1e-3)


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_transport_speed_refuses_bad_dt(dt):
    g = GridGeometry(4, 4, 250.0)
    bmap = BarycentricMap(np.zeros(g.n), np.zeros(g.n), g)
    summary = TransportSummary(0.0, np.zeros(g.n), bmap)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        transport_speed(summary, dt)


def test_uniform_pair_has_negligible_cbar(mass_field):
    g = GridGeometry(16, 16, 250.0)
    p = mass_field(g, np.ones(g.n))
    pair = solve(p, p, eps=1e-3, tol=1e-9, max_iter=10000)
    summary = transport_distance(p, pair, q=p)
    # self-transport cost is bounded by the regularization scale
    assert np.nanmax(summary.cbar) <= 10 * 1e-3


def test_cbar_conv_matches_dense(mass_field):
    g = GridGeometry(12, 12, 250.0)
    rng = np.random.default_rng(3)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    sd = transport_distance(p, solve(p, q, mode="dense"), q=q)
    sc = transport_distance(p, solve(p, q, mode="conv"), q=q)
    scale = np.nanmax(np.abs(sd.cbar))
    assert np.nanmax(np.abs(sd.cbar - sc.cbar)) <= 1e-6 * scale
    assert sd.w_eps == pytest.approx(sc.w_eps, rel=1e-10)
    assert np.nanmin(sd.cbar) >= 0.0


def test_low_mass_pixels_gated_to_nan():
    g = GridGeometry(8, 8, 250.0)
    vals = np.full(g.n, 1000.0)
    vals[:8] = 0.0  # first row dark
    floor = 1e-6
    weights = vals + floor * vals.sum()
    mask = vals > 0
    p = MassField(g, weights / weights.sum(), mask, floor)
    pair = solve(p, p)
    summary = transport_distance(p, pair, q=p)
    bmap = barycentric_map(p, pair)
    assert np.all(np.isnan(summary.cbar[:8]))
    assert np.all(np.isnan(bmap.target_x[:8]))
    assert np.all(np.isfinite(summary.cbar[8:]))
    assert np.array_equal(np.isfinite(summary.target.target_x),
                          np.isfinite(bmap.target_x))
    assert not np.isfinite(summary.target.target_x[:8]).any()


def test_strict_flag_on_unconverged_pair(mass_field):
    g = GridGeometry(6, 6, 250.0)
    rng = np.random.default_rng(4)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    pair = sinkhorn(p, q, KernelSpec(1e-3, "dense"), tol=1e-12, max_iter=2)
    with pytest.raises(NotConvergedError):
        transport_distance(p, pair, q=q)
    with pytest.raises(NotConvergedError):
        barycentric_map(p, pair)
    summary = transport_distance(p, pair, q=q, strict=False)
    assert np.isfinite(summary.w_eps)


def test_transport_distance_forms_its_moments_through_one_operator(monkeypatch):
    # the x, y and |x|^2 moments share one kernel operator, and the map it
    # returns is the one barycentric_map forms, bit for bit, NaNs included
    g = GridGeometry(12, 10, 250.0)
    vals = np.random.default_rng(5).uniform(0.1, 1.0, g.n)
    vals[:12] = 0.0   # a dark first row: low-mass NaNs
    weights = vals + 1e-6 * vals.sum()
    p = MassField(g, weights / weights.sum(), vals > 0, 1e-6)
    q = MassField(g, np.roll(p.mass, 1), np.roll(p.mask, 1), 1e-6)
    pair = solve(p, q)
    built = []
    make = fields._make_operator
    monkeypatch.setattr(fields, "_make_operator",
                        lambda *args: built.append(args) or make(*args))
    summary = transport_distance(p, pair, q=q)
    assert len(built) == 1
    bmap = barycentric_map(p, pair)
    assert np.isnan(bmap.target_x).any() and np.isnan(bmap.target_y).any()
    assert np.array_equal(summary.target.target_x, bmap.target_x, equal_nan=True)
    assert np.array_equal(summary.target.target_y, bmap.target_y, equal_nan=True)


@pytest.mark.parametrize("width, height", [(32, 64), (16, 16)])
@pytest.mark.parametrize("which", ["p", "q"])
def test_fields_refuse_mass_fields_on_another_grid(width, height, which):
    # a pair solved on 64 x 32: read on 32 x 64 (the same pixel count) it
    # gave a wrong value, and on 16 x 16 numpy's shape errors
    g = GridGeometry(64, 32, 250.0)
    rng = np.random.default_rng(6)
    p = field(g, rng.uniform(0.1, 1.0, g.n))
    q = field(g, rng.uniform(0.1, 1.0, g.n))
    pair = solve(p, q, eps=1e-1, tol=1e-9)
    other = GridGeometry(width, height, 250.0)
    moved = field(other, rng.uniform(0.1, 1.0, other.n))
    p2, q2 = (moved, q) if which == "p" else (p, moved)
    grids = f"{re.escape(str(other))}.*{re.escape(str(g))}"
    with pytest.raises(ValueError, match=grids):
        wasserstein_value(p2, q2, pair)
    with pytest.raises(ValueError, match=grids):
        transport_distance(p2, pair, q=q2)
    if which == "p":
        with pytest.raises(ValueError, match=grids):
            barycentric_map(p2, pair)
    # the grid is checked before convergence, and without strict too
    with pytest.raises(ValueError, match=grids):
        transport_distance(p2, pair, q=q2, strict=False)


def test_pair_records_its_grid_through_the_levels():
    # a coarse-to-fine solve records the finest grid, not a pooled one
    src, tgt = render_pair(make_scenario("translate", size=256), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    pair = sinkhorn(p, q, KernelSpec(1e-3, "conv"), max_iter=1)
    assert pair.coarse_iterations and pair.geometry == p.geometry


# ---------------------------------------------------------------------------
# barycentric projection

def test_center_of_mass_identity_tight_tolerance(mass_field):
    g = GridGeometry(16, 16, 250.0)
    rng = np.random.default_rng(11)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    xs, ys = g.pixel_centers()
    for mode in ("dense", "conv"):
        pair = solve(p, q, mode=mode)
        bm = barycentric_map(p, pair)
        assert float(p.mass @ bm.target_x) == pytest.approx(float(q.mass @ xs), abs=1e-9)
        assert float(p.mass @ bm.target_y) == pytest.approx(float(q.mass @ ys), abs=1e-9)


def test_identity_pair_maps_pixels_to_themselves(mass_field):
    g = GridGeometry(16, 16, 250.0)
    p = mass_field(g, np.ones(g.n))
    pair = sinkhorn(p, p, KernelSpec(1e-4, "dense"), tol=1e-9, max_iter=1000)
    bm = barycentric_map(p, pair)
    xs, ys = g.pixel_centers()
    assert np.abs(bm.target_x - xs).max() <= 1e-9
    assert np.abs(bm.target_y - ys).max() <= 1e-9
    vel = velocity(bm, DT)
    assert np.abs(vel.vx).max() <= 1e-9
    assert np.abs(vel.vy).max() <= 1e-9


def test_single_pixel_mass_velocity(mass_field):
    # one bright pixel moves 5 px right on a 32x32 grid over one day
    g = GridGeometry(32, 32, 250.0)
    src = np.full((32, 32), 1e-7)
    tgt = np.full((32, 32), 1e-7)
    src[16, 10] = 1.0
    tgt[16, 15] = 1.0
    p = mass_field(g, src)
    q = mass_field(g, tgt)
    pair = sinkhorn(p, q, KernelSpec(2e-3, "dense"), tol=1e-8, max_iter=10000)
    bm = barycentric_map(p, pair, strict=False)
    vel = velocity(bm, DT)
    vx = vel.vx.reshape(32, 32)[16, 10]
    expected = 5 * 250.0 / DT  # 0.014468 m/s
    assert vx == pytest.approx(expected, rel=0.05)
    assert abs(vel.vy.reshape(32, 32)[16, 10]) <= 0.1 * expected


def test_barycentric_conv_matches_dense(mass_field):
    g = GridGeometry(10, 10, 250.0)
    rng = np.random.default_rng(8)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    bd = barycentric_map(p, solve(p, q, mode="dense"))
    bc = barycentric_map(p, solve(p, q, mode="conv"))
    assert np.abs(bd.target_x - bc.target_x).max() <= 1e-9
    assert np.abs(bd.target_y - bc.target_y).max() <= 1e-9


def test_conv_log_domain_fields_match_linear():
    # log-domain fields come from log u and log w through log_apply; on a
    # pair both arithmetics solve, they must agree with the linear fields
    src, tgt = render_pair(make_scenario("translate", size=32), 1.0)
    p, q = normalize_to_mass(src), normalize_to_mass(tgt)
    out = []
    for log_domain in (False, True):
        pair = sinkhorn(p, q, KernelSpec(1e-2, "conv"), tol=1e-10,
                        max_iter=50000, log_domain=log_domain)
        assert pair.converged
        out.append((transport_distance(p, pair, q=q), barycentric_map(p, pair)))
    (s_lin, b_lin), (s_log, b_log) = out
    valid = np.isfinite(s_lin.target.target_x)
    assert valid.any()
    for a, b in ((s_lin.cbar, s_log.cbar), (b_lin.target_x, b_log.target_x),
                 (b_lin.target_y, b_log.target_y)):
        assert np.abs(a[valid] - b[valid]).max() <= 1e-9 * np.abs(a[valid]).max()


@pytest.mark.parametrize("dt", [0.0, -1.0, float("inf"), float("nan")])
def test_velocity_refuses_bad_dt(dt):
    g = GridGeometry(4, 4, 250.0)
    bmap = BarycentricMap(np.zeros(g.n), np.zeros(g.n), g)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        velocity(bmap, dt)


def test_fields_read_the_grid_of_a_non_square_pair():
    # 40 px wide, 30 high: a width/height mix-up in velocity or strain moves
    # the median off 4 px or breaks the stencils' reference below
    g = GridGeometry(40, 30, 250.0)
    src = np.zeros((30, 40))
    src[8:20, 10:24] = 255.0
    rs = IntensityRaster(g, src, 0.0)
    rt = IntensityRaster(g, np.roll(src, 4, axis=1), DT)
    p = normalize_to_mass(rs, mask=apply_ice_mask(rs))
    q = normalize_to_mass(rt, mask=apply_ice_mask(rt))
    summary = transport_distance(p, solve(p, q, eps=1e-3, tol=1e-9), q=q)
    assert summary.target.geometry == g
    vel = velocity(summary.target, DT)
    assert vel.geometry == g and vel.dt == DT
    floe = src.reshape(-1) > 0
    assert np.isfinite(vel.vx[floe]).all()
    assert np.median(vel.vx[floe]) * DT / 250.0 == pytest.approx(4.0, abs=1e-3)
    assert abs(np.median(vel.vy[floe])) * DT / 250.0 <= 1e-3
    st = strain(vel)
    exx = np.gradient(vel.vx.reshape(30, 40), 250.0, axis=1, edge_order=2) * DT
    assert np.array_equal(st.exx, exx.reshape(-1), equal_nan=True)


# ---------------------------------------------------------------------------
# strain

def test_uniform_velocity_strain_vanishes():
    g = GridGeometry(16, 16, 250.0)
    vel = VelocityField(np.full(g.n, 3.0), np.full(g.n, -2.0), DT, g)
    st = strain(vel)
    for comp in (st.exx, st.eyy, st.exy, st.principal):
        assert np.abs(comp).max() <= 1e-12


def test_affine_velocity_reproduces_analytic_strain():
    g = GridGeometry(16, 16, 250.0)
    xs, ys = g.pixel_centers()
    xm, ym = xs * g.norm_scale, ys * g.norm_scale
    # power-of-two rates keep the finite differences exact
    a, b, c, d = 2.0 ** -13, 2.0 ** -11, 2.0 ** -12, -(2.0 ** -14)
    vel = VelocityField(a * xm + b * ym, c * xm + d * ym, DT, g)
    st = strain(vel)
    assert np.abs(st.exx - DT * a).max() == 0.0
    assert np.abs(st.eyy - DT * d).max() == 0.0
    assert np.abs(st.exy - 0.5 * DT * (b + c)).max() == 0.0


def test_rigid_rotation_has_zero_strain():
    g = GridGeometry(16, 16, 250.0)
    xs, ys = g.pixel_centers()
    xm, ym = xs * g.norm_scale, ys * g.norm_scale
    omega = 2.0 ** -12
    vel = VelocityField(-omega * ym, omega * xm, DT, g)
    st = strain(vel)
    assert np.abs(st.exx).max() == 0.0
    assert np.abs(st.eyy).max() == 0.0
    assert np.abs(st.exy).max() == 0.0


def test_strain_is_linear_in_velocity():
    g = GridGeometry(12, 12, 250.0)
    rng = np.random.default_rng(15)
    va = VelocityField(rng.normal(0, 1, g.n), rng.normal(0, 1, g.n), DT, g)
    vb = VelocityField(rng.normal(0, 1, g.n), rng.normal(0, 1, g.n), DT, g)
    vsum = VelocityField(va.vx + vb.vx, va.vy + vb.vy, DT, g)
    sa, sb, ssum = strain(va), strain(vb), strain(vsum)
    assert np.allclose(ssum.exx, sa.exx + sb.exx, atol=1e-9)
    assert np.allclose(ssum.exy, sa.exy + sb.exy, atol=1e-9)


def test_strain_nan_propagation():
    g = GridGeometry(8, 8, 250.0)
    vx = np.zeros(g.n)
    vx[27] = np.nan
    vel = VelocityField(vx, np.zeros(g.n), DT, g)
    st = strain(vel)
    exx = st.exx.reshape(8, 8)
    exy = st.exy.reshape(8, 8)
    # stencils touching the nodata value go nodata; the pixel's own central
    # stencil reads only its neighbors, so it stays finite
    assert np.isnan(exx[3, 2]) and np.isnan(exx[3, 4])
    assert np.isfinite(exx[3, 3])
    assert np.isnan(exy[2, 3]) and np.isnan(exy[4, 3])
    assert np.isfinite(exx[0, 0])


def test_strain_validation():
    g = GridGeometry(2, 8, 250.0)
    vel = VelocityField(np.zeros(g.n), np.zeros(g.n), DT, g)
    with pytest.raises(ValueError):
        strain(vel)
    g2 = GridGeometry(8, 8, 250.0)
    for bad_dt in (0.0, -1.0):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            strain(VelocityField(np.zeros(g2.n), np.zeros(g2.n), bad_dt, g2))


# ---------------------------------------------------------------------------
# principal strain

def test_principal_pure_shear():
    g = GridGeometry(16, 16, 250.0)
    xs, ys = g.pixel_centers()
    xm, ym = xs * g.norm_scale, ys * g.norm_scale
    omega = 2.0 ** -12
    vel = VelocityField(omega * ym, omega * xm, DT, g)
    st = strain(vel)
    # eigenvalues +/- exy; the tie resolves to the tensile branch
    assert np.allclose(st.principal, st.exy)
    assert st.principal[0] > 0


def test_principal_canonical_tensors():
    def principal_of(exx, eyy, exy):
        one = np.ones(1)
        return _principal(exx * one, eyy * one, exy * one)[0]

    assert principal_of(2.0, -1.0, 0.0) == pytest.approx(2.0)
    assert principal_of(-3.0, 1.0, 0.0) == pytest.approx(-3.0)  # compressive
    assert principal_of(0.0, 0.0, 1.0) == pytest.approx(1.0)    # tie -> tensile


def test_principal_exceeds_shear_component():
    rng = np.random.default_rng(20)
    exx = rng.normal(0, 1e-3, 64)
    eyy = rng.normal(0, 1e-3, 64)
    exy = rng.normal(0, 1e-3, 64)
    out = _principal(exx, eyy, exy)
    assert np.all(np.abs(out) + 1e-15 >= np.abs(exy))


def test_principal_rotation_invariance():
    # rotating the tensor basis must not change the dominant eigenvalue
    rng = np.random.default_rng(21)
    exx, eyy, exy = rng.normal(0, 1e-3, 3)
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    t = np.array([[exx, exy], [exy, eyy]])
    r = np.array([[c, -s], [s, c]])
    tr = r @ t @ r.T
    a = _principal(np.array([exx]), np.array([eyy]), np.array([exy]))
    b = _principal(np.array([tr[0, 0]]), np.array([tr[1, 1]]), np.array([tr[0, 1]]))
    assert a[0] == pytest.approx(b[0], rel=1e-12)


def test_principal_clip():
    from otvelo import StrainField
    st = StrainField(np.array([5e-2, -5e-2]), np.zeros(2), np.zeros(2),
                     np.array([5e-2, -5e-2]))
    out = principal_strain(st, clip=1e-2)
    assert out.tolist() == [1e-2, -1e-2]
    with pytest.raises(ValueError):
        principal_strain(st, clip=0.0)


def test_principal_strain_reads_the_strain_field():
    # without a clip the result is the field's own principal array; with
    # one it is that array clipped
    g = GridGeometry(16, 12, 250.0)
    rng = np.random.default_rng(21)
    st = strain(VelocityField(rng.normal(0.0, 1e-3, g.n),
                              rng.normal(0.0, 1e-3, g.n), DT, g))
    assert principal_strain(st) is st.principal
    c = 0.5 * np.abs(st.principal).max()
    assert np.array_equal(principal_strain(st, clip=c), np.clip(st.principal, -c, c))


def test_principal_picks_the_larger_magnitude_bit_for_bit():
    # the pick of the larger-magnitude eigenvalue, made without a float
    # temporary, is |hi| >= |lo| on every value: signed zeros, NaN, inf and
    # sums that overflow included
    values = np.array([0.0, -0.0, 1e-3, -1e-3, 2.0, -2.0, 5e-324, 1e200,
                       -1e200, np.inf, -np.inf, np.nan])
    exx, eyy, exy = (v.reshape(-1) for v in np.meshgrid(values, values, values))
    with np.errstate(all="ignore"):
        mean = (exx + eyy) * 0.5
        radius = np.sqrt(((exx - eyy) * 0.5) ** 2 + exy ** 2)
        hi, lo = mean + radius, mean - radius
        ref = np.where(np.abs(hi) >= np.abs(lo), hi, lo)
        got = _principal(exx, eyy, exy)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
