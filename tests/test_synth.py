from types import SimpleNamespace

import numpy as np
import pytest

from otvelo import (KernelSpec, SCENARIO_KINDS, make_scenario, normalize_to_mass, render,
                    render_pair, sinkhorn, sweep, sweep_to_csv)
from otvelo import synth
from otvelo.synth import SWEEP_CSV_HEADER


def test_scenario_kinds_complete():
    assert set(SCENARIO_KINDS) == {
        "translate", "split_equal", "split_unequal", "split_quad",
        "multi_floe", "rotate",
    }


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_render_is_deterministic_and_t0_reference(kind):
    scn = make_scenario(kind, size=64)
    a = render(scn, 0.0)
    b = render(scn, 0.0)
    assert np.array_equal(a.values, b.values)
    assert a.timestamp == 0.0
    assert a.values.sum() > 0
    mid = render(scn, 0.5)
    assert mid.timestamp == pytest.approx(0.5 * 86400.0)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_mass_is_nearly_conserved(kind):
    # Point-sample rasterization jitters the pixel count when fragments sit
    # at sub-pixel positions; the split scenarios move several fragments at
    # once, so they wobble a bit more than whole-floe motion.
    bound = 0.05 if kind.startswith("split") else 0.02
    scn = make_scenario(kind, size=64)
    m0 = render(scn, 0.0).values.sum()
    for t in (0.5, 1.0):
        mt = render(scn, t).values.sum()
        assert abs(mt - m0) / m0 <= bound


def test_integer_translation_is_exact_pixel_shift():
    scn = make_scenario("translate", size=64, displacement=(8.0, 0.0))
    src = render(scn, 0.0)
    tgt = render(scn, 1.0)
    assert np.array_equal(np.roll(src.values, 8, axis=1), tgt.values)


def test_split_preserves_centroid():
    scn = make_scenario("split_quad", size=128)
    src = render(scn, 0.0)
    tgt = render(scn, 1.0)

    def centroid(vals):
        ys, xs = np.mgrid[0:vals.shape[0], 0:vals.shape[1]]
        w = vals / vals.sum()
        return np.array([(xs * w).sum(), (ys * w).sum()])

    drift = np.linalg.norm(centroid(tgt.values) - centroid(src.values))
    assert drift <= 1.0  # rasterization jitter stays under a pixel


def test_split_unequal_produces_two_fragments():
    scn = make_scenario("split_unequal", size=96)
    tgt = render(scn, 1.0)
    src = render(scn, 0.0)
    # fragments separate: the moved frame differs from the start frame
    assert not np.array_equal(src.values, tgt.values)


def test_rotate_t0_is_base_frame():
    scn = make_scenario("rotate", size=64)
    src = render(scn, 0.0)
    again = render(scn, 0.0)
    assert np.array_equal(src.values, again.values)
    quarter = render(scn, 1.0)
    assert quarter.values.sum() > 0


def test_rotate_frame_is_rotated_polygon():
    # rotation moves the floe polygon like every other kind; it turns by
    # t * angle about the polygon's centroid, counterclockwise in (x, y)
    scn = make_scenario("rotate", size=64)
    base = synth._floe_polygon(scn.floe)
    pivot = synth._centroid(base)
    a = 0.5 * scn.motion["angle"]
    dx, dy = (base - pivot).T
    turned = pivot + np.column_stack([dx * np.cos(a) - dy * np.sin(a),
                                      dx * np.sin(a) + dy * np.cos(a)])
    expected = synth._rasterize([turned], 64)
    assert np.array_equal(render(scn, 0.5).values, expected)


def test_render_pair_timestamps():
    scn = make_scenario("multi_floe", size=64)
    src, tgt = render_pair(scn, 0.75)
    assert src.timestamp == 0.0
    assert tgt.timestamp == pytest.approx(0.75 * 86400.0)
    assert src.geometry == tgt.geometry


def test_render_rejects_out_of_range_t():
    scn = make_scenario("translate", size=64)
    with pytest.raises(ValueError):
        render(scn, -0.1)
    with pytest.raises(ValueError):
        render(scn, 1.5)


def test_make_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario("melt", size=64)
    with pytest.raises(ValueError):
        make_scenario("translate", size=8)
    with pytest.raises(ValueError):
        make_scenario("translate", size=64, warp=2.0)  # unknown motion key
    with pytest.raises(ValueError, match="floe shape must be"):
        make_scenario("translate", size=64, shape="square")


def test_seed_changes_polygon():
    a = render(make_scenario("translate", size=64, seed=7), 0.0)
    b = render(make_scenario("translate", size=64, seed=8), 0.0)
    assert not np.array_equal(a.values, b.values)


def test_disc_shape_supported():
    scn = make_scenario("translate", size=64, shape="disc")
    src = render(scn, 0.0)
    assert src.values.sum() > 0


# ---------------------------------------------------------------------------
# sweep

def test_sweep_rows_and_first_value_subtraction():
    scn = make_scenario("translate", size=16, displacement=(3.0, 0.0))
    rows = sweep(scn, [1e-1, 1e-2], t_steps=3)
    assert len(rows) == 6
    assert [r.eps for r in rows] == [1e-1, 1e-1, 1e-1, 1e-2, 1e-2, 1e-2]
    assert rows[0].t == 0.0 and rows[0].w_minus_w0 == 0.0
    assert rows[3].w_minus_w0 == 0.0
    # motion strictly increases the distance on a translate scenario
    assert rows[2].w_minus_w0 > rows[1].w_minus_w0 > 0.0


def test_sweep_csv_format(tmp_path):
    scn = make_scenario("translate", size=16, displacement=(3.0, 0.0))
    rows = sweep(scn, [1e-1], t_steps=3)
    path = tmp_path / "sweep.csv"
    sweep_to_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert float(cells[0]) == 1e-1
    assert float(cells[1]) == 0.0
    assert cells[4] in ("true", "false")


def test_sweep_renders_each_frame_once(monkeypatch):
    # each of the t_steps frames is rendered and normalized once, for all eps
    calls = {"render": 0, "normalize_to_mass": 0}
    for name in calls:
        original = getattr(synth, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(synth, name, counted)
    scn = make_scenario("translate", size=16, displacement=(3.0, 0.0))
    rows = sweep(scn, [1.0, 1e-1, 0.5], t_steps=4)
    assert len(rows) == 3 * 4
    assert calls == {"render": 4, "normalize_to_mass": 4}


def recording_sinkhorn(monkeypatch, cold=False):
    """Replace the ``sinkhorn`` that ``synth.sweep`` calls by one that
    records each call's keyword arguments and result; with ``cold``, it
    drops any start."""
    calls = []
    original = synth.sinkhorn

    def record(*args, **kwargs):
        if cold:
            kwargs["start"] = None
        pair = original(*args, **kwargs)
        calls.append((kwargs, pair))
        return pair

    monkeypatch.setattr(synth, "sinkhorn", record)
    return calls


def test_sweep_continuation_matches_cold_curves_in_fewer_sweeps(monkeypatch):
    scn = make_scenario("translate", size=64)
    eps = [1e-2, 1e-1, 1.0]
    rows = sweep(scn, eps)
    recording_sinkhorn(monkeypatch, cold=True)
    cold = sweep(scn, eps)
    assert all(r.converged for r in rows + cold)
    assert [(r.eps, r.t) for r in rows] == [(r.eps, r.t) for r in cold]
    for r, c in zip(rows, cold):
        assert r.w_minus_w0 == pytest.approx(c.w_minus_w0, rel=1e-6, abs=0.0)
    # 62 against 214 sweeps
    assert sum(r.iterations for r in rows) <= 0.4 * sum(c.iterations for c in cold)


def test_sweep_starts_from_two_converged_neighbours(monkeypatch):
    # at eps 1e-2 the t = 0.25 solve needs 13 sweeps, so max_iter 12 stops it
    # unconverged, and every later point of that curve starts cold; at 1e-1
    # every solve converges and points 2 on start from the extrapolation
    calls = recording_sinkhorn(monkeypatch)
    scn = make_scenario("translate", size=64)
    rows = sweep(scn, [1e-2, 1e-1], t_steps=5, max_iter=12)
    assert len(calls) == len(rows) == 10
    assert [r.converged for r in rows] == [True] + [False] * 4 + [True] * 5
    for curve in (calls[:5], calls[5:]):
        for k, (kwargs, _) in enumerate(curve):
            start = kwargs["start"]
            warm = k >= 2 and curve[k - 1][1].converged and curve[k - 2][1].converged
            assert (start is not None) == warm
            if warm:
                (_, before), (_, last) = curve[k - 2], curve[k - 1]
                assert np.array_equal(start[0], 2.0 * last.log_u - before.log_u)
                assert np.array_equal(start[1], 2.0 * last.log_w - before.log_w)
    assert [kw["start"] is None for kw, _ in calls[5:]] == [True, True, False, False, False]


def test_sweep_warm_points_start_in_their_predecessors_arithmetic(monkeypatch):
    # a stub solve finishes each point converged or not, in linear or log
    # arithmetic, as scripted; cold points (the first two, and both after
    # the unconverged t index 3) start linear whatever came before, and
    # warm points in the arithmetic their predecessor finished in
    finished = [(True, False), (True, True), (True, False), (False, True),
                (True, True), (True, True), (True, False)]
    calls = []

    def stub(p, q, kernel, **kwargs):
        converged, log_domain = finished[len(calls)]
        calls.append(kwargs)
        return SimpleNamespace(log_u=np.zeros(1), log_w=np.zeros(1),
                               iterations=1, coarse_iterations=(),
                               converged=converged, log_domain=log_domain)

    monkeypatch.setattr(synth, "sinkhorn", stub)
    monkeypatch.setattr(synth, "wasserstein_value", lambda *args, **kwargs: 0.0)
    sweep(make_scenario("translate", size=16), [1e-2], t_steps=len(finished))
    assert [kw["start"] is not None for kw in calls] == [
        False, False, True, True, False, False, True]
    assert [kw["log_domain"] for kw in calls] == [
        False, False, True, False, False, False, True]


def test_sweep_counts_the_sweeps_of_every_level():
    # a 256^2 solve at eps 1e-3 runs a 128^2 pooled level first; both points
    # of a two-step curve start cold, so each row counts what a direct
    # sinkhorn call on its pair runs, pooled level included
    scn = make_scenario("translate", size=256)
    rows = sweep(scn, [1e-3], t_steps=2)
    p = normalize_to_mass(render(scn, 0.0))
    for row in rows:
        pair = sinkhorn(p, normalize_to_mass(render(scn, row.t)),
                        KernelSpec(1e-3, "conv"))
        assert pair.coarse_iterations
        assert row.iterations == pair.iterations + sum(
            n for _, _, n in pair.coarse_iterations)


def test_sweep_validation():
    scn = make_scenario("translate", size=16)
    with pytest.raises(ValueError):
        sweep(scn, [1e-2], t_steps=1)
    with pytest.raises(ValueError):
        sweep(scn, [1e-2], mode="spectral")
