import csv
import json

import numpy as np
import pytest

from otvelo import (
    GridGeometry,
    IntensityRaster,
    load_raster,
    make_scenario,
    read_field,
    render_pair,
    save_raster,
)
from otvelo import otcore
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
    # linear conv overflows; the advice names both rescues, and the one that
    # keeps every kernel weight is the one that works here
    rc = main(["solve", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               "--out-prefix", str(tmp_path / "c_"), "--eps", "2e-4"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "--log-domain" in err and "--mode dense" in err
    prefix = str(tmp_path / "x_")
    rc = main(["solve", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               "--out-prefix", prefix, "--mode", "dense", "--eps", "2e-4"])
    assert rc == 0
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert summary["mode"] == "dense"
    assert summary["converged"] is True


@pytest.mark.parametrize("log_domain", [False, True])
def test_solve_apply_budget(translate_pair, tmp_path, monkeypatch, log_domain):
    # the solve takes 2 applies per sweep plus one to start; the fields take
    # three coupling moments (x, y, |x|^2) and share them with the velocity
    calls = []
    for name in ("apply", "log_apply"):
        original = getattr(otcore._SeparableOperator, name)

        def counted(self, v, _original=original):
            calls.append(1)
            return _original(self, v)

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


def test_solve_requires_forward_time(translate_pair, tmp_path, capsys):
    src, _ = translate_pair
    rc = main(["solve", src, src, "--out-prefix", str(tmp_path / "x_")])
    assert rc == 1
    assert "later than source" in capsys.readouterr().err
    # an explicit --dt rescues the degenerate pair (identity transport)
    rc = main(["solve", src, src, "--dt", "86400",
               "--out-prefix", str(tmp_path / "id_"), "--eps", "1e-2"])
    assert rc == 0


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


def test_solve_stabilization_failure_exits_3(tmp_path, capsys):
    a, b = _corner_pair(tmp_path)
    rc = main(["solve", a, b, "--out-prefix", str(tmp_path / "x_"),
               "--eps", "1e-5"])
    assert rc == 3
    # points at the log-domain rescue, by its CLI flag
    assert "--log-domain" in capsys.readouterr().err


def test_solve_log_domain_rescues_sharp_pair(tmp_path):
    a, b = _corner_pair(tmp_path)
    prefix = str(tmp_path / "log_")
    rc = main(["solve", a, b, "--out-prefix", prefix,
               "--eps", "1e-5", "--log-domain", "--max-iter", "5000"])
    assert rc == 0
    summary = json.loads(open(f"{prefix}summary.json").read())
    assert summary["converged"] is True


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


def test_oracle_cli_reports_exact_value(tmp_path, capsys):
    g = GridGeometry(8, 8, 250.0)
    a = np.zeros((8, 8))
    b = np.zeros((8, 8))
    a[3:5, 2:4] = 200.0
    b[3:5, 3:5] = 200.0  # one-pixel shift to the right
    save_raster(IntensityRaster(g, a, 0.0), tmp_path / "a.pgm")
    save_raster(IntensityRaster(g, b, 86400.0), tmp_path / "b.pgm")
    rc = main(["oracle", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] > 0
    assert report["iterations"] >= 1


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


def test_sweep_cli_writes_curve_csv(tmp_path):
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
    by_eps = {}
    for eps, t, dw, _its, _conv in body:
        by_eps.setdefault(float(eps), []).append((float(t), float(dw)))
    for eps, pts in by_eps.items():
        assert pts[0] == (0.0, 0.0)  # first-value subtraction
        assert pts == sorted(pts)


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


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing positionals and --out-prefix
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--scenario", "bogus", "--out-prefix", "x_"])
    assert exc.value.code == 2


def test_parser_rejects_nonpositive_numbers():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "a", "b", "--out-prefix", "x_", "--eps", "0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "a", "b", "--out-prefix", "x_", "--dt", "-1"])
