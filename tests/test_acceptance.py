"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a ``criterion N: PASS`` line with the measured figure, so a
``pytest -v -rP`` run shows both the verdict and the margins. Tolerances and
seeds were frozen from oracle measurements taken before the suite was
written, so the bounds are independent of the implementation under test.
"""
import json
import resource
import time

import numpy as np
import pytest

from otvelo import (
    GridGeometry,
    IntensityRaster,
    KernelSpec,
    apply_ice_mask,
    barycentric_map,
    build_cost,
    exact_wasserstein,
    make_scenario,
    ncc_displacements,
    normalize_to_mass,
    render_pair,
    save_raster,
    sinkhorn,
    strain,
    sweep,
    transport_distance,
    velocity,
    wasserstein_value,
)
from otvelo.cli import compare_features, main
from otvelo.fields import VelocityField

DT = 86400.0


def test_criterion_01_entropic_value_approaches_exact_optimum(mass_field):
    """On 10 random 4x4-grid pairs the regularized value approaches the exact
    optimum monotonically as eps shrinks, landing within the frozen bound."""
    g = GridGeometry(4, 4, 250.0)
    cost = build_cost(g)
    rng = np.random.default_rng(20260814)
    pairs = [(mass_field(g, rng.uniform(0.1, 1.0, g.n)),
              mass_field(g, rng.uniform(0.1, 1.0, g.n))) for _ in range(10)]
    t0 = time.perf_counter()
    worst = 0.0
    for p, q in pairs:
        exact = exact_wasserstein(p, q, cost)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            pair = sinkhorn(p, q, KernelSpec(eps, "dense"), tol=1e-6,
                            max_iter=20000)
            assert pair.converged
            gaps.append(abs(exact.value - wasserstein_value(p, q, pair)))
        assert gaps[0] > gaps[1] > gaps[2]
        worst = max(worst, gaps[2])
    elapsed = time.perf_counter() - t0
    assert worst <= 3.8e-3  # frozen from the pre-build oracle run (3.494e-3)
    assert elapsed < 10.0
    print(f"criterion 1: PASS - max |W_eps - W_exact| at eps=1e-3 is "
          f"{worst:.3e} (bound 3.8e-3), {elapsed:.2f}s for 10 pairs x 3 eps")


def test_criterion_02_dense_and_convolutional_modes_agree(mass_field):
    """W_eps, the per-pixel transport cost, and the barycentric maps agree
    between kernel modes within 1e-6 relative on random 16x16 pairs."""
    g = GridGeometry(16, 16, 250.0)
    rng = np.random.default_rng(42)
    worst_w = worst_cb = worst_bm = 0.0
    for _ in range(3):
        p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
        q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
        for eps in (1e-3, 1e-2):
            pd = sinkhorn(p, q, KernelSpec(eps, "dense"), tol=1e-6, max_iter=5000)
            pc = sinkhorn(p, q, KernelSpec(eps, "conv"), tol=1e-6, max_iter=5000)
            wd = wasserstein_value(p, q, pd, strict=False)
            wc = wasserstein_value(p, q, pc, strict=False)
            worst_w = max(worst_w, abs(wd - wc) / abs(wd))
            sd = transport_distance(p, pd, q=q, strict=False)
            sc = transport_distance(p, pc, q=q, strict=False)
            scale = np.nanmax(np.abs(sd.cbar))
            worst_cb = max(worst_cb, np.nanmax(np.abs(sd.cbar - sc.cbar)) / scale)
            bd = barycentric_map(p, pd, strict=False)
            bc = barycentric_map(p, pc, strict=False)
            err = max(np.nanmax(np.abs(bd.target_x - bc.target_x)),
                      np.nanmax(np.abs(bd.target_y - bc.target_y)))
            worst_bm = max(worst_bm, err / np.nanmax(np.abs(bd.target_x)))
    assert worst_w <= 1e-6
    assert worst_cb <= 1e-6
    assert worst_bm <= 1e-6
    print(f"criterion 2: PASS - dense vs conv relative gaps: W {worst_w:.2e}, "
          f"cbar {worst_cb:.2e}, barycentric {worst_bm:.2e} (bound 1e-6)")


def test_criterion_03_stopping_rule_and_iteration_cap(mass_field):
    """Converged solves satisfy the 1e-6 marginal residual and the default
    1000-iteration cap is honored exactly when convergence is out of reach."""
    g = GridGeometry(16, 16, 250.0)
    rng = np.random.default_rng(42)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))

    fast = sinkhorn(p, q, KernelSpec(1e-2, "dense"), tol=1e-6, max_iter=1000)
    assert fast.converged
    assert fast.iterations < 1000
    assert fast.residual <= 1e-6

    slow = sinkhorn(p, q, KernelSpec(1e-3, "dense"), tol=1e-6, max_iter=1000)
    assert not slow.converged
    assert slow.iterations == 1000
    assert np.isfinite(slow.residual)
    print(f"criterion 3: PASS - converged residual {fast.residual:.2e} <= 1e-6 "
          f"in {fast.iterations} iterations; cap run stopped at exactly "
          f"{slow.iterations} iterations")


def test_criterion_04_translation_distance_curve_is_nondecreasing():
    """W_eps(t) - W_eps(0) grows with translation distance for every eps."""
    scn = make_scenario("translate", size=128)
    t0 = time.perf_counter()
    rows = sweep(scn, [1e-3, 1e-2, 1e-1, 1.0], t_steps=11)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 44
    by_eps = {}
    for r in rows:
        by_eps.setdefault(r.eps, []).append(r.w_minus_w0)
    assert len(by_eps) == 4
    for eps, vals in by_eps.items():
        assert vals[0] == 0.0
        diffs = np.diff(vals)
        assert diffs.min() >= -1e-15, f"eps={eps}: curve decreases"
    assert elapsed < 120.0
    print(f"criterion 4: PASS - all 4 curves nondecreasing over 11 t samples "
          f"at 128x128 in {elapsed:.1f}s (budget 120s)")


def test_criterion_05_sweep_curves_converge_as_eps_shrinks():
    """Neighboring small-eps curves are closer than small-vs-large curves."""
    details = []
    for kind in ("split_quad", "multi_floe", "rotate"):
        scn = make_scenario(kind, size=128)
        rows = sweep(scn, [1e-3, 1e-2, 1.0], t_steps=11)
        by_eps = {}
        for r in rows:
            by_eps.setdefault(r.eps, []).append(r.w_minus_w0)
        a = np.asarray(by_eps[1e-3])
        b = np.asarray(by_eps[1e-2])
        c = np.asarray(by_eps[1.0])
        d_ab = np.abs(a - b).max()
        d_bc = np.abs(b - c).max()
        assert d_ab < d_bc, f"{kind}: {d_ab:.3e} !< {d_bc:.3e}"
        details.append(f"{kind} {d_ab:.1e}<{d_bc:.1e}")
    print(f"criterion 5: PASS - sup|1e-3 - 1e-2| < sup|1e-2 - 1| for "
          f"{'; '.join(details)}")


def test_criterion_06_block_translation_velocity_recovery():
    """A 6 px block translation at 128x128 is recovered with median interior
    displacement error under one pixel (250 m)."""
    size, lo, hi, shift = 128, 49, 79, 6
    src = np.zeros((size, size))
    tgt = np.zeros((size, size))
    src[lo:hi, lo:hi] = 255.0
    tgt[lo:hi, lo + shift:hi + shift] = 255.0
    g = GridGeometry(size, size, 250.0)
    rs = IntensityRaster(g, src, 0.0)
    rt = IntensityRaster(g, tgt, DT)
    p = normalize_to_mass(rs, mask=apply_ice_mask(rs))
    q = normalize_to_mass(rt, mask=apply_ice_mask(rt))
    pair = sinkhorn(p, q, KernelSpec(1e-3, "conv"), tol=1e-6, max_iter=20000)
    assert pair.converged
    bm = barycentric_map(p, pair, strict=False)
    vel = velocity(bm, g, DT)
    inner = np.zeros((size, size), dtype=bool)
    inner[lo + 3:hi - 3, lo + 3:hi - 3] = True
    dx = vel.vx.reshape(size, size)[inner] * DT
    dy = vel.vy.reshape(size, size)[inner] * DT
    err = np.hypot(dx - shift * 250.0, dy)
    median = float(np.median(err))
    assert median <= 250.0
    print(f"criterion 6: PASS - median interior displacement error "
          f"{median:.1f} m (bound 250 m, max {err.max():.1f} m)")


def test_criterion_07_strain_identities():
    """Uniform, affine, and rigid-rotation velocity fields reproduce their
    analytic incremental strain (exactly, for the affine/rotation stencils)."""
    g = GridGeometry(16, 16, 250.0)
    xs, ys = g.pixel_centers()
    xm, ym = xs * g.norm_scale, ys * g.norm_scale

    uniform = strain(VelocityField(np.full(g.n, 3.0), np.full(g.n, -2.0), DT), g, DT)
    u_max = max(np.abs(uniform.exx).max(), np.abs(uniform.eyy).max(),
                np.abs(uniform.exy).max())
    assert u_max <= 1e-12

    a, b, c, d = 2.0 ** -13, 2.0 ** -11, 2.0 ** -12, -2.0 ** -14
    affine = strain(VelocityField(a * xm + b * ym, c * xm + d * ym, DT), g, DT)
    aff_err = max(np.abs(affine.exx - DT * a).max(),
                  np.abs(affine.eyy - DT * d).max(),
                  np.abs(affine.exy - 0.5 * DT * (b + c)).max())
    assert aff_err == 0.0

    om = 2.0 ** -12
    rot = strain(VelocityField(-om * ym, om * xm, DT), g, DT)
    rot_max = max(np.abs(rot.exx).max(), np.abs(rot.eyy).max(),
                  np.abs(rot.exy).max())
    assert rot_max == 0.0
    print(f"criterion 7: PASS - uniform {u_max:.1e} <= 1e-12; affine and "
          f"rotation reproduce analytic strain exactly (error 0.0)")


def test_criterion_08_barycentric_center_of_mass_identity(mass_field):
    """The p-weighted mean of barycentric targets matches the q centroid to
    1e-9 in both kernel modes on a tightly converged solve."""
    g = GridGeometry(16, 16, 250.0)
    rng = np.random.default_rng(11)
    p = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    q = mass_field(g, rng.uniform(0.1, 1.0, g.n))
    xs, ys = g.pixel_centers()
    qx, qy = float(q.mass @ xs), float(q.mass @ ys)
    worst = 0.0
    for mode in ("dense", "conv"):
        pair = sinkhorn(p, q, KernelSpec(1e-2, mode), tol=1e-12, max_iter=200000)
        assert pair.converged
        bm = barycentric_map(p, pair)
        worst = max(worst,
                    abs(float(p.mass @ bm.target_x) - qx),
                    abs(float(p.mass @ bm.target_y) - qy))
    assert worst <= 1e-9
    print(f"criterion 8: PASS - center-of-mass identity error {worst:.2e} "
          f"(bound 1e-9) in dense and conv modes")


def test_criterion_09_ncc_recovers_exact_shifts():
    """Block matching recovers an exact integer shift with correlation 1.0 on
    every interior tile, and every emitted match respects the 0.25 threshold."""
    rng = np.random.default_rng(5)
    base = rng.uniform(0.0, 255.0, (64, 64))
    g = GridGeometry(64, 64, 250.0)
    src = IntensityRaster(g, base, 0.0)
    tgt = IntensityRaster(g, np.roll(base, (-2, 3), (0, 1)), DT)
    matches = ncc_displacements(src, tgt, window=16, search_radius=5,
                                threshold=0.25)
    assert matches
    assert all(m.correlation >= 0.25 for m in matches)
    interior = [m for m in matches
                if 8 <= m.center_x <= 55 and 8 <= m.center_y <= 55]
    assert interior
    for m in interior:
        assert (m.dx, m.dy) == (3, -2)
        assert m.correlation == pytest.approx(1.0, abs=1e-9)
    print(f"criterion 9: PASS - {len(interior)} interior tiles all at "
          f"(dx,dy)=(3,-2) with correlation 1.0; {len(matches)} matches all "
          f">= 0.25 threshold")


def test_criterion_10_large_scale_solve_and_feature_comparison(tmp_path):
    """A 512x512 convolutional solve finishes within 5 minutes in O(N) memory,
    and the feature-comparison workflow validates on synthetic ground truth."""
    size, lo, hi, shift = 512, 196, 316, 24
    src = np.zeros((size, size))
    tgt = np.zeros((size, size))
    src[lo:hi, lo:hi] = 255.0
    tgt[lo:hi, lo + shift:hi + shift] = 255.0
    g = GridGeometry(size, size, 250.0)
    rs = IntensityRaster(g, src, 0.0)
    rt = IntensityRaster(g, tgt, DT)
    p = normalize_to_mass(rs, mask=apply_ice_mask(rs))
    q = normalize_to_mass(rt, mask=apply_ice_mask(rt))
    t0 = time.perf_counter()
    pair = sinkhorn(p, q, KernelSpec(1e-3, "conv"), tol=1e-6, max_iter=5000)
    elapsed = time.perf_counter() - t0
    assert pair.converged
    assert elapsed < 300.0
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    # a dense kernel at this scale would need ~550 GB; O(N) arrays stay tiny
    assert peak_bytes < 2 * 1024 ** 3

    scn = make_scenario("translate", size=128, displacement=(6.0, 0.0))
    s, t = render_pair(scn, 1.0)
    save_raster(s, tmp_path / "source.pgm")
    save_raster(t, tmp_path / "target.pgm")
    prefix = str(tmp_path / "run_")
    rc = main(["solve", str(tmp_path / "source.pgm"), str(tmp_path / "target.pgm"),
               "--out-prefix", prefix, "--eps", "1e-3", "--max-iter", "5000"])
    assert rc == 0
    feats = tmp_path / "features.csv"
    feats.write_text("src_x,src_y,tgt_x,tgt_y\n" + "\n".join(
        f"{x},{y},{x + 6},{y}"
        for x, y in ((58, 58), (64, 64), (64, 58), (58, 70), (70, 64), (60, 66))
    ) + "\n")
    report = compare_features(prefix, str(feats))
    assert report["used"] == 6
    assert report["median_abs_error_m"] <= 250.0
    print(f"criterion 10: PASS - 512x512 conv solve converged in "
          f"{pair.iterations} iterations / {elapsed:.1f}s (budget 300s), peak "
          f"RSS {peak_bytes / 1e6:.0f} MB; feature-comparison median error "
          f"{report['median_abs_error_m']:.2f} m (bound 250 m)")
