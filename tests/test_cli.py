import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otvelo
from otvelo import (
    GridGeometry,
    IntensityRaster,
    load_raster,
    make_scenario,
    read_field,
    render_pair,
    save_raster,
    write_field,
)
from otvelo import cli, otcore
from otvelo.cli import build_parser, compare_features, main
from otvelo.ncc import CSV_HEADER

FIELD_NAMES = ("cbar", "cbar_ms", "vx", "vy", "exx", "eyy", "exy", "principal")


@pytest.fixture(scope="module")
def translate_pair(tmp_path_factory):
    """32x32 translate pair (5 px shift at this size) saved as PGM + sidecar."""
    d = tmp_path_factory.mktemp("pair")
    scn = make_scenario("translate", size=32)
    src, tgt = render_pair(scn, 1.0)
    save_raster(src, d / "src.pgm")
    save_raster(tgt, d / "tgt.pgm")
    return str(d / "src.pgm"), str(d / "tgt.pgm")


@pytest.fixture(scope="module")
def solved(translate_pair, tmp_path_factory):
    """One converged solve run shared by the output-inspection tests."""
    d = tmp_path_factory.mktemp("solve")
    prefix = str(d / "run_")
    vectors = str(d / "vectors.csv")
    rc = main(["solve", *translate_pair, "--out-prefix", prefix,
               "--eps", "1e-2", "--max-iter", "5000",
               "--vectors-csv", vectors, "--thin", "4"])
    assert rc == 0
    return prefix, vectors


def test_solve_writes_all_fields_and_summary(solved):
    prefix, _ = solved
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert summary["converged"] is True
    # the entropy term can pull the regularized value negative at this eps
    assert np.isfinite(summary["w_eps"])
    assert summary["dt_s"] == pytest.approx(86400.0)
    assert (summary["width"], summary["height"]) == (32, 32)
    assert summary["mode"] == "dense"  # 1024 pixels, under the auto cutoff
    for name in FIELD_NAMES:
        data, meta = read_field(f"{prefix}{name}.f32")
        assert data.shape == (32, 32)
        assert (meta["width"], meta["height"], meta["dtype"]) == (32, 32, "f32le")
    cbar, _ = read_field(f"{prefix}cbar.f32")
    assert np.nanmin(cbar) >= 0


def test_solve_rerun_is_bit_identical(solved, translate_pair, tmp_path):
    prefix, _ = solved
    again = str(tmp_path / "again_")
    rc = main(["solve", *translate_pair, "--out-prefix", again,
               "--eps", "1e-2", "--max-iter", "5000"])
    assert rc == 0
    for name in ("cbar", "vx", "principal"):
        assert (open(f"{prefix}{name}.f32", "rb").read()
                == open(f"{again}{name}.f32", "rb").read())


def test_solve_velocity_points_along_the_shift(solved):
    prefix, _ = solved
    vx, _ = read_field(f"{prefix}vx.f32")
    vy, _ = read_field(f"{prefix}vy.f32")
    assert np.nanmedian(vx) > 0          # floe moves in +x
    assert abs(np.nanmedian(vy)) <= np.nanmedian(vx)


def test_vectors_csv_respects_thinning(solved):
    _, vectors = solved
    with open(vectors, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_px", "y_px", "vx_m_per_s", "vy_m_per_s"]
    body = rows[1:]
    assert body
    for x, y, vx, vy in body:
        assert int(x) % 4 == 0 and int(y) % 4 == 0
        assert np.isfinite(float(vx)) and np.isfinite(float(vy))


def test_solve_conv_mode_matches_dense(solved, translate_pair, tmp_path):
    prefix, _ = solved
    conv = str(tmp_path / "conv_")
    rc = main(["solve", *translate_pair, "--out-prefix", conv,
               "--eps", "1e-2", "--max-iter", "5000", "--mode", "conv"])
    assert rc == 0
    dense_summary = json.loads(open(f"{prefix}summary.json").read())
    conv_summary = json.loads(open(f"{conv}summary.json").read())
    assert conv_summary["mode"] == "conv"
    assert conv_summary["w_eps"] == pytest.approx(dense_summary["w_eps"], rel=1e-8)


def test_solve_geometry_mismatch_exits_1(translate_pair, tmp_path, capsys):
    src, _ = translate_pair
    other = IntensityRaster(GridGeometry(16, 16, 250.0),
                            np.full((16, 16), 200.0), 86400.0)
    save_raster(other, tmp_path / "small.pgm")
    rc = main(["solve", src, str(tmp_path / "small.pgm"),
               "--out-prefix", str(tmp_path / "x_")])
    assert rc == 1
    assert "geometry mismatch" in capsys.readouterr().err


def test_dense_mode_solves_sharp_pair_beyond_auto_cutoff(tmp_path, capsys):
    # 128^2 = 16384 px, above the auto cutoff: the 20 px drift outreaches the
    # 11 px conv kernel at this eps, while the exact dense kernel converges
    src, tgt = render_pair(make_scenario("translate", size=128), 1.0)
    save_raster(src, tmp_path / "a.pgm")
    save_raster(tgt, tmp_path / "b.pgm")
    # conv stops unconverged whatever the arithmetic; the advice names the
    # mode that keeps every kernel weight, which is the one that works here
    rc = main(["solve", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               "--out-prefix", str(tmp_path / "c_"), "--eps", "2e-4",
               "--max-iter", "60"])
    assert rc == 2
    assert "--mode dense" in capsys.readouterr().err
    prefix = str(tmp_path / "x_")
    rc = main(["solve", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               "--out-prefix", prefix, "--mode", "dense", "--eps", "2e-4"])
    assert rc == 0
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert summary["mode"] == "dense"
    assert summary["converged"] is True
    assert summary["iterations"] == 101


@pytest.mark.parametrize("log_domain", [False, True])
def test_solve_apply_budget(translate_pair, tmp_path, monkeypatch, log_domain):
    # the solve takes 2 applies per sweep plus one to start; the fields take
    # three coupling moments (x, y, |x|^2) and share them with the velocity
    calls = []
    for name in ("apply", "log_apply"):
        original = getattr(otcore._SeparableOperator, name)

        def counted(self, v, *args, _original=original, **kwargs):
            calls.append(1)
            return _original(self, v, *args, **kwargs)

        monkeypatch.setattr(otcore._SeparableOperator, name, counted)
    prefix = str(tmp_path / "n_")
    rc = main(["solve", *translate_pair, "--out-prefix", prefix,
               "--eps", "1e-2"] + (["--log-domain"] if log_domain else []))
    assert rc == 0
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert len(calls) == 2 * summary["iterations"] + 4


def test_summary_reports_relaxation_factor(tmp_path):
    # the 64^2 translate pair relaxes; an identity pair at eps 0.1 converges
    # within the plain warm-up and never does
    src, tgt = render_pair(make_scenario("translate", size=64), 1.0)
    save_raster(src, tmp_path / "a.pgm")
    save_raster(tgt, tmp_path / "b.pgm")
    a, b = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
    assert main(["solve", a, b, "--out-prefix", str(tmp_path / "t_")]) == 0
    assert main(["solve", a, a, "--dt", "86400", "--eps", "0.1",
                 "--out-prefix", str(tmp_path / "i_")]) == 0
    relaxed = json.loads((tmp_path / "t_summary.json").read_text())
    identity = json.loads((tmp_path / "i_summary.json").read_text())
    assert relaxed["omega"] > 1.0
    assert identity["omega"] == 1.0


@pytest.mark.parametrize("size, levels", [(256, [[128, 128]]), (128, [])])
def test_solve_reports_coarse_levels(tmp_path, capsys, size, levels):
    # a 256^2 pair at the default eps first solves its 128^2 pooled pair;
    # a 128^2 pair is solved on its own grid only
    g = GridGeometry(size, size, 250.0)
    a, b = np.zeros((size, size)), np.zeros((size, size))
    lo, hi, shift = size // 3, 2 * size // 3, size // 20
    a[lo:hi, lo:hi] = b[lo:hi, lo + shift:hi + shift] = 200.0
    save_raster(IntensityRaster(g, a, 0.0), tmp_path / "a.pgm")
    save_raster(IntensityRaster(g, b, 86400.0), tmp_path / "b.pgm")
    prefix = str(tmp_path / "c_")
    assert main(["solve", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
                 "--out-prefix", prefix]) == 0
    summary = json.loads(open(f"{prefix}summary.json").read())
    coarse = summary["coarse_iterations"]
    assert [level[:2] for level in coarse] == levels
    assert all(level[2] > 0 for level in coarse)
    printed = json.dumps(coarse, separators=(",", ":"))
    assert f" coarse_iterations={printed} " in capsys.readouterr().out


@pytest.mark.parametrize("width, height", [(2, 2), (8, 2), (2, 8)])
def test_solve_refuses_grid_under_3x3_before_solving(tmp_path, capsys,
                                                      monkeypatch, width, height):
    # strain's stencils need three pixels per axis: the size is checked on
    # loading, so no solve runs and no raster lands on disk
    calls = []
    monkeypatch.setattr(otcore, "sinkhorn", lambda *a, **k: calls.append(1))
    g = GridGeometry(width, height, 250.0)
    a = np.zeros((height, width))
    a[0, 0] = 255.0
    save_raster(IntensityRaster(g, a, 0.0), tmp_path / "a.pgm")
    save_raster(IntensityRaster(g, a[::-1, ::-1], 86400.0), tmp_path / "b.pgm")
    rc = main(["solve", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               "--out-prefix", str(tmp_path / "o_")])
    assert rc == 1
    assert "strain needs at least a 3 x 3 grid" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.json", "a.pgm", "b.json", "b.pgm"]


def test_solve_requires_forward_time(translate_pair, tmp_path, capsys):
    src, _ = translate_pair
    rc = main(["solve", src, src, "--out-prefix", str(tmp_path / "x_")])
    assert rc == 1
    assert "later than source" in capsys.readouterr().err
    # an explicit --dt rescues the degenerate pair (identity transport)
    rc = main(["solve", src, src, "--dt", "86400",
               "--out-prefix", str(tmp_path / "id_"), "--eps", "1e-2"])
    assert rc == 0


def test_solve_refuses_an_infinite_interval_before_solving(tmp_path, capsys):
    # both timestamps are finite, but their difference overflows to inf
    g = GridGeometry(16, 16, 250.0)
    a = np.zeros((16, 16))
    a[6:10, 4:8] = 255.0
    save_raster(IntensityRaster(g, a, -1.7e308), tmp_path / "a.pgm")
    save_raster(IntensityRaster(g, np.roll(a, 2, axis=1), 1.7e308), tmp_path / "b.pgm")
    rc = main(["solve", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               "--out-prefix", str(tmp_path / "o_")])
    assert rc == 1
    assert "not finite (or pass --dt)" in capsys.readouterr().err
    assert list(tmp_path.glob("o_*")) == []


@pytest.mark.parametrize("command", ["solve", "ncc"])
def test_huge_sidecar_integer_is_a_one_line_error(tmp_path, capsys, command):
    # math.isfinite raises OverflowError on a JSON integer too large for a
    # float; the sidecar check must turn it into one named error line
    g = GridGeometry(16, 16, 250.0)
    a = np.zeros((16, 16))
    a[6:10, 4:8] = 255.0
    save_raster(IntensityRaster(g, a, 0.0), tmp_path / "a.pgm")
    save_raster(IntensityRaster(g, np.roll(a, 2, axis=1), 86400.0), tmp_path / "b.pgm")
    (tmp_path / "b.json").write_text(
        '{"pixel_size_m": 250.0, "timestamp_s": 1' + "0" * 400 + "}")
    extra = {"solve": ["--out-prefix", str(tmp_path / "o_")],
             "ncc": ["--window", "8", "--out", str(tmp_path / "o_ncc.csv")]}
    rc = main([command, str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               *extra[command]])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {tmp_path / 'b.json'}: 'timestamp_s' must be finite, "
        "got an integer too large for a float"]
    assert list(tmp_path.glob("o_*")) == []


def test_solve_max_iter_cap_exits_2_with_outputs(translate_pair, tmp_path):
    prefix = str(tmp_path / "cap_")
    rc = main(["solve", *translate_pair, "--out-prefix", prefix,
               "--eps", "1e-2", "--max-iter", "2"])
    assert rc == 2
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert summary["converged"] is False
    assert summary["iterations"] == 2
    for name in FIELD_NAMES:  # partial results still land on disk
        read_field(f"{prefix}{name}.f32")


def _corner_pair(tmp_path):
    """Nearly pure mass swap between opposite corners of an 8x8 grid."""
    g = GridGeometry(8, 8, 250.0)
    a = np.zeros((8, 8))
    b = np.zeros((8, 8))
    a[0, 0] = 255.0
    b[7, 7] = 255.0
    save_raster(IntensityRaster(g, a, 0.0), tmp_path / "a.pgm")
    save_raster(IntensityRaster(g, b, 86400.0), tmp_path / "b.pgm")
    return str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")


def test_solve_overflow_switches_to_log_domain(tmp_path):
    # linear scalings overflow at this eps; the solve restarts in log
    # arithmetic and then repeats the --log-domain solve sweep for sweep
    a, b = _corner_pair(tmp_path)
    summaries = []
    for name, flags in (("auto_", []), ("log_", ["--log-domain"])):
        rc = main(["solve", a, b, "--out-prefix", str(tmp_path / name),
                   "--eps", "1e-5", "--max-iter", "5000", *flags])
        assert rc == 0
        summaries.append(json.loads((tmp_path / f"{name}summary.json").read_text()))
    auto, log = summaries
    assert auto["log_domain"] is True and log["log_domain"] is True
    assert auto["w_eps"] == log["w_eps"]
    # the 31 discarded linear sweeps still count
    assert auto["iterations"] == log["iterations"] + 31
    for name in FIELD_NAMES:
        assert (tmp_path / f"auto_{name}.f32").read_bytes() == (
            tmp_path / f"log_{name}.f32").read_bytes()


def test_solve_cut_on_restart_writes_strict_json(tmp_path):
    # --max-iter ends this solve on its switch to log arithmetic; the
    # summary reports the projected start, not the overflowed sweep
    a, b = _corner_pair(tmp_path)
    prefix = str(tmp_path / "cut_")
    rc = main(["solve", a, b, "--out-prefix", prefix,
               "--eps", "1e-5", "--max-iter", "31"])
    assert rc == 2

    def refuse(name):
        raise ValueError(f"summary.json holds {name}")

    summary = json.loads(open(f"{prefix}summary.json").read(),
                         parse_constant=refuse)
    assert summary["log_domain"] is True and summary["converged"] is False
    assert np.isfinite(summary["residual"]) and np.isfinite(summary["w_eps"])


def test_solve_log_domain_rescues_sharp_pair(tmp_path):
    a, b = _corner_pair(tmp_path)
    prefix = str(tmp_path / "log_")
    rc = main(["solve", a, b, "--out-prefix", prefix,
               "--eps", "1e-5", "--log-domain", "--max-iter", "5000"])
    assert rc == 0
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert summary["converged"] is True


def _gray_pair(tmp_path):
    """A textured 12 px block on a gray background, 3 px to the right in the
    target; the background (60) lies below the default ice threshold."""
    g = GridGeometry(32, 32, 250.0)
    block = np.random.default_rng(5).integers(130, 256, size=(12, 12))
    a = np.full((32, 32), 60.0)
    b = np.full((32, 32), 60.0)
    a[10:22, 8:20] = block
    b[10:22, 11:23] = block
    save_raster(IntensityRaster(g, a, 0.0), tmp_path / "a.pgm")
    save_raster(IntensityRaster(g, b, 86400.0), tmp_path / "b.pgm")
    return str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")


def test_solve_equalize_changes_the_mass(tmp_path):
    pair = _gray_pair(tmp_path)
    w = {}
    for tag, extra in (("plain", []),
                       ("eq", ["--equalize", "--tile", "8", "--clip-limit", "2"])):
        prefix = str(tmp_path / f"{tag}_")
        assert main(["solve", *pair, "--out-prefix", prefix, "--eps", "1e-2",
                     *extra]) == 0
        w[tag] = json.loads(open(f"{prefix}summary.json").read())["w_eps"]
    assert np.isfinite(w["eq"]) and w["eq"] != w["plain"]


def test_solve_no_mask_fills_background_pixels(tmp_path):
    pair = _gray_pair(tmp_path)
    vx = {}
    for tag, extra in (("masked", []), ("all", ["--no-mask"])):
        prefix = str(tmp_path / f"{tag}_")
        assert main(["solve", *pair, "--out-prefix", prefix, "--eps", "1e-2",
                     *extra]) == 0
        vx[tag], _ = read_field(f"{prefix}vx.f32")
    background = np.full((32, 32), True)
    background[10:22, 8:20] = False
    assert np.isnan(vx["masked"][background]).all()
    assert np.isfinite(vx["all"][background]).all()


def _solve_gray_pair(tmp_path, tag, *extra):
    """vx and the summary of a solve of ``_gray_pair`` with ``extra`` flags."""
    prefix = str(tmp_path / f"{tag}_")
    assert main(["solve", *_gray_pair(tmp_path), "--out-prefix", prefix,
                 "--eps", "1e-2", *extra]) == 0
    vx, _ = read_field(f"{prefix}vx.f32")
    return vx, json.loads(open(f"{prefix}summary.json").read())


def test_solve_mask_threshold_masks_more_pixels(tmp_path):
    # the block's values lie in 130..255: 200 leaves part of it out
    vx_default, _ = _solve_gray_pair(tmp_path, "default")
    vx_high, _ = _solve_gray_pair(tmp_path, "high", "--mask-threshold", "200")
    assert np.isnan(vx_high).sum() > np.isnan(vx_default).sum()


def test_solve_floor_moves_the_distance(tmp_path):
    _, default = _solve_gray_pair(tmp_path, "default")
    _, raised = _solve_gray_pair(tmp_path, "raised", "--floor", "1e-4")
    assert np.isfinite(raised["w_eps"]) and raised["w_eps"] != default["w_eps"]


def test_solve_principal_clip_bounds_the_raster(solved, translate_pair, tmp_path):
    prefix, _ = solved
    principal, _ = read_field(f"{prefix}principal.f32")
    clip = float(np.float32(0.5 * np.nanmax(np.abs(principal))))
    again = str(tmp_path / "clip_")
    assert main(["solve", *translate_pair, "--out-prefix", again,
                 "--eps", "1e-2", "--max-iter", "5000",
                 "--principal-clip", repr(clip)]) == 0
    clipped, _ = read_field(f"{again}principal.f32")
    assert np.nanmax(np.abs(clipped)) == clip
    unclipped = np.abs(principal) <= clip
    assert np.array_equal(clipped[unclipped], principal[unclipped])


def test_solve_reads_sidecars_at_given_paths(translate_pair, tmp_path):
    # the images are copied without their sidecars, so only the given
    # paths can supply the 2-day interval and the 500 m pixels
    images = []
    for name, path in zip("ab", translate_pair):
        image = tmp_path / f"{name}.pgm"
        image.write_bytes(open(path, "rb").read())
        images.append(str(image))
    metas = []
    (tmp_path / "meta").mkdir()
    for name, stamp in (("early", -86400.0), ("late", 86400.0)):
        meta = tmp_path / "meta" / f"{name}.json"
        meta.write_text(json.dumps({"pixel_size_m": 500.0, "timestamp_s": stamp}))
        metas.append(str(meta))
    prefix = str(tmp_path / "m_")
    assert main(["solve", *images, "--out-prefix", prefix, "--eps", "1e-2",
                 "--source-meta", metas[0], "--target-meta", metas[1]]) == 0
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert summary["dt_s"] == 2 * 86400.0
    assert summary["pixel_size_m"] == 500.0


def test_solve_thin_below_one_is_a_usage_error(translate_pair, tmp_path):
    # refused while parsing, before any image is read or output written
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["solve", *translate_pair, "--out-prefix", str(out / "t_"),
              "--vectors-csv", str(out / "v.csv"), "--thin", "0"])
    assert exc.value.code == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # refused while parsing, with the flag named, before anything is rendered
    out = ["--out-prefix", str(tmp_path / "s_")] if command == "synth" else [
        "--out", str(tmp_path / "sweep.csv")]
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", "translate", "--size", "16", *out,
              "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["300", "-1", "nan"])
def test_mask_threshold_outside_0_255_is_a_usage_error(tmp_path, capsys, value):
    # refused while parsing, before either image is read: neither exists
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
              "--out-prefix", str(tmp_path / "o_"), "--mask-threshold", value])
    assert exc.value.code == 2
    assert "argument --mask-threshold: must lie in [0, 255]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "5", "0"])
def test_ncc_threshold_outside_0_1_is_a_usage_error(tmp_path, capsys, value):
    # refused while parsing, before either image is read: neither exists
    with pytest.raises(SystemExit) as exc:
        main(["ncc", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
              "--out", str(tmp_path / "n.csv"), "--threshold", value])
    assert exc.value.code == 2
    assert "argument --threshold: must lie in (0, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "2", "-0.5"])
def test_synth_t_outside_0_1_is_a_usage_error(tmp_path, capsys, value):
    # refused while parsing, before the scene is made
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--scenario", "translate", "--size", "16",
              "--out-prefix", str(tmp_path / "s_"), "--t", value])
    assert exc.value.code == 2
    assert "argument --t: must lie in [0, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_single_t_step_is_a_usage_error(tmp_path, capsys):
    # one step has no t = 1 end; refused while parsing, before any solve
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", "translate", "--size", "16",
              "--out", str(tmp_path / "sweep.csv"), "--t-steps", "1"])
    assert exc.value.code == 2
    assert "argument --t-steps: must be at least 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_conv_unconverged_warning_names_kernel_radius(tmp_path, capsys):
    # at eps 1e-5 the conv kernel reaches 1 px, but the mass must move 7 px,
    # so no number of log-domain sweeps converges; the fields still form
    a, b = _corner_pair(tmp_path)
    prefix = str(tmp_path / "c_")
    rc = main(["solve", a, b, "--out-prefix", prefix,
               "--eps", "1e-5", "--mode", "conv", "--log-domain"])
    assert rc == 2
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert summary["converged"] is False
    for name in FIELD_NAMES:
        read_field(f"{prefix}{name}.f32")
    err = capsys.readouterr().err
    assert "1 px" in err
    assert "--eps" in err


@pytest.mark.parametrize("mode", ["dense", "conv"])
def test_max_iter_warning_gives_advice_in_every_mode(tmp_path, capsys, mode):
    # three sweeps do not converge the corner swap; the warning names the
    # residual and the flags that change the stop in both modes, and the
    # kernel's reach only in conv mode
    a, b = _corner_pair(tmp_path)
    prefix = str(tmp_path / "m_")
    rc = main(["solve", a, b, "--out-prefix", prefix, "--eps", "1e-2",
               "--mode", mode, "--max-iter", "3"])
    assert rc == 2
    summary = json.loads(open(f"{prefix}summary.json").read())
    err = capsys.readouterr().err
    assert f"residual {summary['residual']:.3e}" in err
    assert "--max-iter" in err and "--tol" in err
    assert ("conv kernel reaches" in err) == (mode == "conv")


def test_synth_cli_writes_loadable_pair(tmp_path):
    prefix = str(tmp_path / "scene_")
    rc = main(["synth", "--scenario", "rotate", "--size", "32", "--t", "0.5",
               "--out-prefix", prefix])
    assert rc == 0
    src = load_raster(f"{prefix}source.pgm")
    tgt = load_raster(f"{prefix}target.pgm")
    assert src.geometry == tgt.geometry
    assert (src.geometry.width, src.geometry.height) == (32, 32)
    assert src.timestamp == 0.0
    assert tgt.timestamp == pytest.approx(0.5 * 86400.0)
    assert not np.array_equal(src.values, tgt.values)


def test_synth_cli_seed_picks_the_scene(tmp_path):
    frames = {}
    for seed in ("3", "7"):
        prefix = str(tmp_path / f"s{seed}_")
        assert main(["synth", "--scenario", "translate", "--size", "32",
                     "--seed", seed, "--out-prefix", prefix]) == 0
        frames[seed] = [load_raster(f"{prefix}{name}.pgm").values
                        for name in ("source", "target")]
    expected = render_pair(make_scenario("translate", size=32, seed=3), 1.0)
    for got, want in zip(frames["3"], expected):
        # the PGM holds the rendered intensities rounded to 8 bits
        assert np.array_equal(got, np.clip(np.rint(want.values), 0, 255))
    assert not np.array_equal(frames["3"][0], frames["7"][0])


def test_synth_cli_pixel_size_reaches_the_sidecar(tmp_path):
    prefix = str(tmp_path / "scene_")
    assert main(["synth", "--scenario", "translate", "--size", "16",
                 "--pixel-size", "500", "--out-prefix", prefix]) == 0
    for name in ("source", "target"):
        sidecar = json.loads(Path(f"{prefix}{name}.json").read_text())
        assert sidecar["pixel_size_m"] == 500.0
        assert load_raster(f"{prefix}{name}.pgm").geometry.pixel_size == 500.0


def test_synth_cli_shape_changes_the_frame(tmp_path):
    frames = {}
    for shape in ("polygon", "disc"):
        prefix = str(tmp_path / f"{shape}_")
        assert main(["synth", "--scenario", "translate", "--size", "32",
                     "--shape", shape, "--out-prefix", prefix]) == 0
        frames[shape] = load_raster(f"{prefix}source.pgm").values
    assert frames["disc"].any()
    assert not np.array_equal(frames["disc"], frames["polygon"])


def test_module_cli_runs_main(tmp_path):
    prefix = str(tmp_path / "scene_")
    src_dir = str(Path(otvelo.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "otvelo.cli", "synth", "--scenario",
         "translate", "--size", "16", "--out-prefix", prefix],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    for name in ("source", "target"):
        assert load_raster(f"{prefix}{name}.pgm").geometry.width == 16


def test_import_does_not_load_the_exact_oracle():
    # the oracle is the tests' small-grid reference, not part of the product:
    # neither the package nor the CLI loads it, yet it still imports by name
    src_dir = str(Path(otvelo.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH"))))}
    code = ("import sys\nimport otvelo, otvelo.cli\n"
            "print('otvelo.oracle' in sys.modules)\n"
            "from otvelo.oracle import exact_wasserstein\n"
            "from otvelo.otcore import kernel_apply\n"
            "print(callable(exact_wasserstein), callable(kernel_apply))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "True True"]


def test_oracle_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "a.pgm", "b.pgm"])
    assert exc.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err


def test_sweep_cli_writes_curve_csv(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--scenario", "translate", "--size", "16",
               "--t-steps", "3", "--eps", "0.1", "1.0",
               "--max-iter", "500", "--out", out])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "t", "w_eps_minus_w0", "iterations", "converged"]
    body = rows[1:]
    assert len(body) == 2 * 3
    # the report line counts the points and the sweeps of all their solves
    sweeps = sum(int(r[3]) for r in body)
    assert capsys.readouterr().out == f"6 sweep points, {sweeps} sweeps -> {out}\n"
    by_eps = {}
    for eps, t, dw, _its, _conv in body:
        by_eps.setdefault(float(eps), []).append((float(t), float(dw)))
    for eps, pts in by_eps.items():
        assert pts[0] == (0.0, 0.0)  # first-value subtraction
        assert pts == sorted(pts)


SHARP_SWEEP = ["sweep", "--scenario", "translate", "--size", "16",
               "--eps", "1e-5", "--t-steps", "2"]


def test_sweep_stabilization_advice_names_sweep_flags(tmp_path, capsys):
    # the linear solves overflow and carry on in log arithmetic; the t = 1
    # solve still stops at max_iter, and the warning names it and sweep flags
    rc = main([*SHARP_SWEEP, "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(eps=1e-05, t=1)" in err and "t=0)" not in err
    named = set(re.findall(r"--[a-z][a-z-]*", err))
    assert "--max-iter" in named
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    usage = capsys.readouterr().out
    for flag in named:
        assert re.search(rf"{flag}\b", usage), flag


def test_sweep_log_domain_rescues_sharp_run(tmp_path, capsys):
    # the linear solves overflow and switch to log arithmetic by themselves,
    # so both rows hold a finite distance
    out = tmp_path / "s.csv"
    rc = main([*SHARP_SWEEP, "--out", str(out), "--max-iter", "20"])
    assert rc == 2  # the t = 1 solve stops at max_iter; its row is still written
    assert "(eps=1e-05, t=1)" in capsys.readouterr().err
    rows = list(csv.reader(out.open(newline="")))[1:]
    assert len(rows) == 2
    assert [float(r[1]) for r in rows] == [0.0, 1.0]
    assert all(np.isfinite(float(r[2])) for r in rows)


def test_ncc_cli_recovers_known_shift(tmp_path):
    scn = make_scenario("translate", size=64)  # 10 px shift at this size
    src, tgt = render_pair(scn, 1.0)
    save_raster(src, tmp_path / "src.pgm")
    save_raster(tgt, tmp_path / "tgt.pgm")
    out = str(tmp_path / "ncc.csv")
    rc = main(["ncc", str(tmp_path / "src.pgm"), str(tmp_path / "tgt.pgm"),
               "--window", "16", "--search-radius", "12", "--out", out])
    assert rc == 0
    text = open(out).read().splitlines()
    assert text[0] == CSV_HEADER
    confident = []
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            if float(row["correlation"]) > 0.9:
                confident.append((float(row["dx_px"]), float(row["dy_px"])))
    assert (10.0, 0.0) in confident


def test_ncc_cli_threshold_drops_weak_matches(tmp_path):
    # a random texture and the same texture 3 px to the right under added
    # noise: the windows correlate at about 0.8
    g = GridGeometry(64, 64, 250.0)
    rng = np.random.default_rng(8)
    a = rng.uniform(0.0, 255.0, (64, 64))
    b = np.clip(np.roll(a, 3, axis=1) + rng.normal(0.0, 60.0, a.shape), 0.0, 255.0)
    save_raster(IntensityRaster(g, a, 0.0), tmp_path / "a.pgm")
    save_raster(IntensityRaster(g, b, 86400.0), tmp_path / "b.pgm")
    counts = {}
    for threshold in ("0.25", "0.99"):
        out = tmp_path / f"ncc_{threshold}.csv"
        assert main(["ncc", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
                     "--window", "16", "--search-radius", "6",
                     "--threshold", threshold, "--out", str(out)]) == 0
        counts[threshold] = len(out.read_text().splitlines()) - 1
    assert counts["0.25"] > counts["0.99"]


def test_compare_features_reports_errors_and_exclusions(solved, tmp_path, capsys):
    prefix, _ = solved
    vx, _ = read_field(f"{prefix}vx.f32")
    valid = np.argwhere(np.isfinite(vx))
    nans = np.argwhere(~np.isfinite(vx))
    assert len(valid) >= 2 and len(nans) >= 1
    rows = ["src_x,src_y,tgt_x,tgt_y"]
    for iy, ix in (valid[0], valid[len(valid) // 2]):
        rows.append(f"{ix},{iy},{ix + 5},{iy}")  # true motion: +5 px in x
    iy, ix = nans[0]
    rows.append(f"{ix},{iy},{ix + 5},{iy}")
    feats = tmp_path / "features.csv"
    feats.write_text("\n".join(rows) + "\n")
    out = tmp_path / "report.json"
    rc = main(["compare-features", "--bundle", prefix,
               "--features", str(feats), "--out", str(out)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    report = json.loads(out.read_text())
    assert report == printed
    assert report["count"] == 3
    assert report["used"] == 2
    assert report["excluded"] == [2]
    assert report["median_defined"] is True
    assert report["median_abs_error_m"] >= 0
    assert len(report["features"]) == 2
    for entry in report["features"]:
        assert entry["manual_dx_m"] == pytest.approx(5 * 250.0)


def test_compare_features_skips_blank_lines(solved, tmp_path):
    prefix, _ = solved
    rows = ["src_x,src_y,tgt_x,tgt_y", "14,16,19,16", "16,16,21,16"]
    reports = []
    for lines in (rows, [rows[0], "", rows[1], "  ", rows[2], ""]):
        feats = tmp_path / "features.csv"
        feats.write_text("\n".join(lines) + "\n")
        reports.append(compare_features(prefix, str(feats)))
    assert reports[0]["count"] == 2
    assert reports[1] == reports[0]


def test_compare_features_out_of_grid_exits_1(solved, tmp_path, capsys):
    prefix, _ = solved
    feats = tmp_path / "features.csv"
    feats.write_text("src_x,src_y,tgt_x,tgt_y\n1000,3,1005,3\n")
    rc = main(["compare-features", "--bundle", prefix, "--features", str(feats)])
    assert rc == 1
    assert "outside the grid" in capsys.readouterr().err


def test_compare_features_empty_is_well_defined(solved, tmp_path, capsys):
    prefix, _ = solved
    feats = tmp_path / "features.csv"
    feats.write_text("src_x,src_y,tgt_x,tgt_y\n")
    rc = main(["compare-features", "--bundle", prefix, "--features", str(feats)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 0
    assert report["median_defined"] is False
    assert report["median_abs_error_m"] is None


@pytest.mark.parametrize("body, line", [
    ("1,2,3\n4,5,6\n7,8,9\n10,11,12\n", 1),  # three values per row
    ("src_x,src_y,tgt_x,tgt_y\n1,2,6,2\n5,6,oops,8\n", 3),
    ("src_x,src_y,tgt_x,tgt_y\nsrc_x,src_y,tgt_x,tgt_y\n", 2),
], ids=["three_values", "non_numeric", "second_header"])
def test_compare_features_rejects_malformed_rows(solved, tmp_path, capsys,
                                                 body, line):
    prefix, _ = solved
    feats = tmp_path / "features.csv"
    feats.write_text(body)
    rc = main(["compare-features", "--bundle", prefix, "--features", str(feats)])
    assert rc == 1
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "nan,3,8,3", "3,nan,8,3", "3,3,nan,3", "3,3,8,inf", "-inf,3,8,3",
], ids=["nan_src_x", "nan_src_y", "nan_tgt_x", "inf_tgt_y", "-inf_src_x"])
def test_compare_features_refuses_non_finite_values(solved, tmp_path, capsys,
                                                    row):
    # a non-finite source is not "outside the grid", and a non-finite target
    # would make the median NaN, which strict JSON cannot hold
    prefix, _ = solved
    feats = tmp_path / "features.csv"
    feats.write_text(f"src_x,src_y,tgt_x,tgt_y\n4,4,9,4\n{row}\n")
    rc = main(["compare-features", "--bundle", prefix, "--features", str(feats)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{feats}, line 3: expected four finite numbers" in err
    assert "outside the grid" not in err


def test_compare_features_scores_ncc_too(solved, translate_pair, tmp_path):
    prefix, _ = solved
    out = str(tmp_path / "ncc.csv")
    rc = main(["ncc", *translate_pair, "--window", "8", "--search-radius", "6",
               "--out", out])
    assert rc == 0
    vx, _ = read_field(f"{prefix}vx.f32")
    iy, ix = np.argwhere(np.isfinite(vx))[0]
    feats = tmp_path / "features.csv"
    feats.write_text(f"src_x,src_y,tgt_x,tgt_y\n{ix},{iy},{ix + 5},{iy}\n")
    report = compare_features(prefix, str(feats), out)
    assert report["ncc"]["used"] == 1
    assert report["ncc"]["median_defined"] is True
    assert report["ncc"]["median_abs_error_m"] >= 0


def test_compare_features_leaves_numpy_ma_unimported(solved, translate_pair,
                                                     tmp_path):
    # np.median imports numpy.ma on first use, about 10 ms of a fresh
    # process; the report's medians must still equal np.median's
    prefix, _ = solved
    out = str(tmp_path / "ncc.csv")
    assert main(["ncc", *translate_pair, "--window", "8", "--search-radius", "6",
                 "--out", out]) == 0
    vx, _ = read_field(f"{prefix}vx.f32")
    rows = ["src_x,src_y,tgt_x,tgt_y"]
    for iy, ix in np.argwhere(np.isfinite(vx))[::7][:4]:
        rows.append(f"{ix},{iy},{ix + 5},{iy}")
    feats = tmp_path / "features.csv"
    feats.write_text("\n".join(rows) + "\n")
    report_path = tmp_path / "report.json"
    argv = ["compare-features", "--bundle", prefix, "--features", str(feats),
            "--ncc-csv", out, "--out", str(report_path)]
    src_dir = str(Path(otvelo.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH"))))}
    code = ("import sys\nfrom otvelo.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(rc, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
    report = json.loads(report_path.read_text())
    assert report["used"] == 4
    errors = [entry["abs_error_m"] for entry in report["features"]]
    assert report["median_abs_error_m"] == float(np.median(errors))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10])
def test_median_is_numpys(size):
    values = np.random.default_rng(size).uniform(0.0, 1e4, size)
    assert cli._median(values) == float(np.median(values))


def test_compare_features_header_only_ncc_csv(solved, tmp_path):
    # an ncc run with no accepted window leaves only the header: every
    # feature is excluded from the ncc score
    prefix, _ = solved
    feats = tmp_path / "features.csv"
    feats.write_text("src_x,src_y,tgt_x,tgt_y\n8,8,13,8\n9,9,14,9\n")
    empty = tmp_path / "ncc.csv"
    empty.write_text(CSV_HEADER + "\n")
    report = compare_features(prefix, str(feats), str(empty))
    assert report["ncc"] == {"used": 0, "excluded": [0, 1],
                             "median_defined": False,
                             "median_abs_error_m": None}


@pytest.mark.parametrize("header, body, where", [
    ("a,b,c", "1,2,3", ":"),
    (CSV_HEADER, "8.0,8.0,x,0,0,0,0.95", ", line 2:"),
], ids=["foreign_header", "non_numeric_cell"])
def test_compare_features_rejects_malformed_ncc_csv(solved, tmp_path, capsys,
                                                    header, body, where):
    prefix, _ = solved
    feats = tmp_path / "features.csv"
    feats.write_text("src_x,src_y,tgt_x,tgt_y\n8,8,13,8\n")
    bad = tmp_path / "bad_ncc.csv"
    bad.write_text(f"{header}\n{body}\n")
    rc = main(["compare-features", "--bundle", prefix, "--features", str(feats),
               "--ncc-csv", str(bad)])
    assert rc == 1
    assert f"{bad}{where}" in capsys.readouterr().err


def _summary_edit(**changes):
    def edit(summary, prefix):
        for key, value in changes.items():
            if value is None:
                del summary[key]
            else:
                summary[key] = value
        return json.dumps(summary)
    return edit


def _small_vy(summary, prefix):
    write_field(f"{prefix}vy.f32", np.zeros(16 * 16), GridGeometry(16, 16, 250.0))
    return json.dumps(summary)


@pytest.mark.parametrize("edit, message", [
    (lambda summary, prefix: "[1, 2]", "summary.json: expected a JSON object"),
    (lambda summary, prefix: "not json", "summary.json: invalid JSON"),
    (_summary_edit(dt_s=None), "summary.json: missing or non-numeric 'dt_s'"),
    (_summary_edit(dt_s="x"), "summary.json: missing or non-numeric 'dt_s'"),
    (_summary_edit(dt_s=True), "summary.json: missing or non-numeric 'dt_s'"),
    (_summary_edit(dt_s=-5), "summary.json: 'dt_s' must be positive and finite"),
    (_summary_edit(pixel_size_m=float("nan")),
     "summary.json: 'pixel_size_m' must be positive and finite"),
    (_small_vy, "vy.f32 holds a 16x16 grid, but"),
], ids=["list", "not_json", "no_dt", "string_dt", "bool_dt", "negative_dt",
        "nan_pixel_size", "small_vy"])
def test_compare_features_checks_the_bundle(solved, tmp_path, capsys, edit, message):
    # a copy of a real bundle with one change; each exits 1 naming the file
    source, _ = solved
    prefix = str(tmp_path / "run_")
    for name in ("summary.json", "vx.f32", "vx.json", "vy.f32", "vy.json"):
        Path(f"{prefix}{name}").write_bytes(Path(f"{source}{name}").read_bytes())
    summary = json.loads(Path(f"{prefix}summary.json").read_text())
    Path(f"{prefix}summary.json").write_text(edit(summary, prefix))
    feats = tmp_path / "features.csv"
    feats.write_text("src_x,src_y,tgt_x,tgt_y\n8,8,13,8\n")
    rc = main(["compare-features", "--bundle", prefix, "--features", str(feats)])
    assert rc == 1
    assert f"{prefix}{message}" in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing positionals and --out-prefix
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--scenario", "bogus", "--out-prefix", "x_"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "missing.pgm", "missing.pgm", "--out-prefix", "x_", "--max-iter", "0"],
    ["solve", "missing.pgm", "missing.pgm", "--out-prefix", "x_", "--tile", "-8"],
    ["sweep", "--scenario", "translate", "--out", "s.csv", "--t-steps", "0"],
    ["sweep", "--scenario", "translate", "--out", "s.csv", "--size", "0"],
    ["ncc", "missing.pgm", "missing.pgm", "--out", "n.csv", "--window", "0"],
    ["ncc", "missing.pgm", "missing.pgm", "--out", "n.csv", "--stride", "0"],
    ["ncc", "missing.pgm", "missing.pgm", "--out", "n.csv", "--search-radius", "0"],
], ids=["max_iter", "tile", "t_steps", "size", "window", "stride", "search_radius"])
def test_count_flags_are_refused_while_parsing(argv):
    # a count below 1 is a usage error before any image is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_parser_rejects_nonpositive_numbers():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "a", "b", "--out-prefix", "x_", "--eps", "0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "a", "b", "--out-prefix", "x_", "--dt", "-1"])
    # --tol inf would stop every solve after one sweep as "converged"
    for option in ("--tol", "--eps", "--dt"):
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "a", "b", "--out-prefix", "x_", option, "inf"])
