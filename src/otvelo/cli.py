"""Command-line entry points.

Subcommands: solve (full transport pipeline on an image pair), ncc (block
matching baseline), synth (render a synthetic pair), sweep (distance-vs-
motion curves), oracle (exact small-instance distance), compare-features
(error report against manually tracked points).

``solve`` exit codes: 0 converged, 2 stopped at max_iter (outputs are still
written and flagged in the summary), 3 numeric stabilization failure,
1 anything else (bad inputs, geometry mismatch) with a message on stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import fields, ncc, oracle, otcore, raster, synth


def _positive_float(text: str) -> float:
    val = float(text)
    if not val > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otvelo",
        description="Dense ice drift and deformation from image pairs by "
                    "entropy-regularized optimal transport.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_args(sp):
        sp.add_argument("source", help="source PGM image")
        sp.add_argument("target", help="target PGM image")
        sp.add_argument("--source-meta", help="sidecar JSON (default: source with .json)")
        sp.add_argument("--target-meta", help="sidecar JSON (default: target with .json)")
        sp.add_argument("--dt", type=_positive_float,
                        help="override the sidecar timestamp difference, seconds")

    sp = sub.add_parser("solve", help="run the transport pipeline on an image pair")
    add_pair_args(sp)
    sp.add_argument("--out-prefix", required=True, help="prefix for output files")
    sp.add_argument("--eps", type=_positive_float, default=otcore.DEFAULT_EPS,
                    help="regularization strength in normalized units^2")
    sp.add_argument("--tol", type=_positive_float, default=otcore.DEFAULT_TOL)
    sp.add_argument("--max-iter", type=int, default=otcore.DEFAULT_MAX_ITER)
    sp.add_argument("--mode", choices=("auto", "dense", "conv"), default="auto")
    sp.add_argument("--log-domain", action="store_true",
                    help="log-space iterations for very sharp mass contrasts")
    sp.add_argument("--mask-threshold", type=float, default=raster.DEFAULT_MASK_THRESHOLD)
    sp.add_argument("--no-mask", action="store_true",
                    help="treat every pixel as ice in derived outputs")
    sp.add_argument("--floor", type=_positive_float, default=raster.DEFAULT_FLOOR)
    sp.add_argument("--equalize", action="store_true",
                    help="adaptive histogram equalization before transport")
    sp.add_argument("--tile", type=int, default=raster.DEFAULT_TILE)
    sp.add_argument("--clip-limit", type=_positive_float, default=raster.DEFAULT_CLIP_LIMIT)
    sp.add_argument("--principal-clip", type=_positive_float,
                    help="clip the principal strain raster to +/- this bound")
    sp.add_argument("--vectors-csv", help="also write thinned velocity vectors")
    sp.add_argument("--thin", type=int, default=1,
                    help="keep every k-th pixel in --vectors-csv")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("ncc", help="block-matching displacement baseline")
    add_pair_args(sp)
    sp.add_argument("--out", required=True, help="output CSV")
    sp.add_argument("--window", type=int, default=ncc.DEFAULT_WINDOW)
    sp.add_argument("--search-radius", type=int)
    sp.add_argument("--threshold", type=float, default=ncc.DEFAULT_THRESHOLD)
    sp.add_argument("--stride", type=int)
    sp.set_defaults(func=cmd_ncc)

    sp = sub.add_parser("synth", help="render a synthetic scene pair")
    sp.add_argument("--scenario", required=True, choices=synth.SCENARIO_KINDS)
    sp.add_argument("--out-prefix", required=True)
    sp.add_argument("--size", type=int, default=128)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--pixel-size", type=_positive_float, default=250.0)
    sp.add_argument("--shape", choices=("polygon", "disc"), default="polygon")
    sp.add_argument("--seed", type=int, default=7)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("sweep", help="W_eps(t) - W_eps(0) curves for a scenario")
    sp.add_argument("--scenario", required=True, choices=synth.SCENARIO_KINDS)
    sp.add_argument("--out", required=True, help="output CSV")
    sp.add_argument("--eps", type=_positive_float, nargs="+",
                    default=[1e-3, 1e-2, 1e-1, 1.0])
    sp.add_argument("--t-steps", type=int, default=11)
    sp.add_argument("--size", type=int, default=128)
    sp.add_argument("--shape", choices=("polygon", "disc"), default="polygon")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--tol", type=_positive_float, default=otcore.DEFAULT_TOL)
    sp.add_argument("--max-iter", type=int, default=otcore.DEFAULT_MAX_ITER)
    sp.add_argument("--mode", choices=("auto", "dense", "conv"), default="auto")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("oracle", help="exact transport distance (small grids)")
    add_pair_args(sp)
    sp.add_argument("--floor", type=_positive_float, default=raster.DEFAULT_FLOOR)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("compare-features",
                        help="error report against manually tracked features")
    sp.add_argument("--bundle", required=True,
                    help="output prefix of a previous solve run")
    sp.add_argument("--features", required=True,
                    help="CSV with columns src_x,src_y,tgt_x,tgt_y in pixels")
    sp.add_argument("--ncc-csv", help="optional ncc output to score the same way")
    sp.add_argument("--out", help="write the JSON report here as well")
    sp.set_defaults(func=cmd_compare_features)
    return parser


def _load_pair(args) -> tuple[raster.IntensityRaster, raster.IntensityRaster, float]:
    src = raster.load_raster(args.source, args.source_meta)
    tgt = raster.load_raster(args.target, args.target_meta)
    if src.geometry != tgt.geometry:
        raise ValueError(
            f"geometry mismatch: source {src.geometry.width}x{src.geometry.height}"
            f"@{src.geometry.pixel_size} vs target {tgt.geometry.width}x"
            f"{tgt.geometry.height}@{tgt.geometry.pixel_size}")
    dt = args.dt if args.dt is not None else tgt.timestamp - src.timestamp
    if not dt > 0:
        raise ValueError("target must be later than source (or pass --dt)")
    return src, tgt, dt


def cmd_solve(args) -> int:
    src, tgt, dt = _load_pair(args)
    g = src.geometry
    if args.no_mask:
        mask_src = np.ones(g.n, dtype=bool)
        mask_tgt = np.ones(g.n, dtype=bool)
    else:
        mask_src = raster.apply_ice_mask(src, args.mask_threshold)
        mask_tgt = raster.apply_ice_mask(tgt, args.mask_threshold)
    if args.equalize:
        src = raster.equalize_contrast(src, args.tile, args.clip_limit, mask_src)
        tgt = raster.equalize_contrast(tgt, args.tile, args.clip_limit, mask_tgt)
    p = raster.normalize_to_mass(src, args.floor, mask_src)
    q = raster.normalize_to_mass(tgt, args.floor, mask_tgt)
    mode = otcore.resolve_mode(args.mode, g.n)
    kernel = otcore.KernelSpec(args.eps, mode)
    pair = otcore.sinkhorn(p, q, kernel, tol=args.tol, max_iter=args.max_iter,
                           log_domain=args.log_domain)

    summary = fields.transport_distance(p, pair, q=q, strict=False)
    bmap = summary.target
    vel = fields.velocity(bmap, g, dt)
    st = fields.strain(vel, g, dt)
    principal = (st.principal if args.principal_clip is None
                 else fields.principal_strain(st, clip=args.principal_clip))

    prefix = args.out_prefix
    for name, data in (("cbar", summary.cbar),
                       ("cbar_ms", fields.transport_speed(summary, g, dt)),
                       ("vx", vel.vx), ("vy", vel.vy),
                       ("exx", st.exx), ("eyy", st.eyy), ("exy", st.exy),
                       ("principal", principal)):
        raster.write_field(f"{prefix}{name}.f32", data, g)
    report = {
        "w_eps": summary.w_eps,
        "iterations": pair.iterations,
        "residual": pair.residual,
        "converged": pair.converged,
        "omega": pair.omega,
        "eps": args.eps,
        "mode": mode,
        "dt_s": dt,
        "width": g.width,
        "height": g.height,
        "pixel_size_m": g.pixel_size,
    }
    Path(f"{prefix}summary.json").write_text(json.dumps(report, indent=2) + "\n")

    if args.vectors_csv:
        if args.thin < 1:
            raise ValueError("--thin must be >= 1")
        keep = np.zeros((g.height, g.width), dtype=bool)
        keep[::args.thin, ::args.thin] = True
        keep = keep.reshape(-1) & bmap.valid & np.isfinite(vel.vx)
        idx = np.flatnonzero(keep)
        lines = ["x_px,y_px,vx_m_per_s,vy_m_per_s"]
        for i in idx:
            lines.append(f"{i % g.width},{i // g.width},"
                         f"{vel.vx[i]:.9g},{vel.vy[i]:.9g}")
        Path(args.vectors_csv).write_text("\n".join(lines) + "\n")

    print(f"W_eps={summary.w_eps:.9g} iterations={pair.iterations} "
          f"residual={pair.residual:.3e} converged={pair.converged}")
    if not pair.converged:
        advice = ""
        if mode == "conv":
            radius = otcore.required_truncation_radius(args.eps, g)
            advice = (f"; the conv kernel reaches {radius} px, so ice moving "
                      "farther needs a larger --eps, or --mode dense, which "
                      "keeps every kernel weight")
        print(f"warning: stopped at max_iter before reaching tol{advice}",
              file=sys.stderr)
        return 2
    return 0


def cmd_ncc(args) -> int:
    src, tgt, dt = _load_pair(args)
    matches = ncc.ncc_displacements(src, tgt, window=args.window,
                                    search_radius=args.search_radius,
                                    threshold=args.threshold, stride=args.stride)
    ncc.matches_to_csv(matches, args.out, src.geometry.pixel_size, dt)
    print(f"{len(matches)} window matches -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    scn = synth.make_scenario(args.scenario, size=args.size,
                              pixel_size=args.pixel_size, shape=args.shape,
                              seed=args.seed)
    source, target = synth.render_pair(scn, args.t)
    raster.save_raster(source, f"{args.out_prefix}source.pgm")
    raster.save_raster(target, f"{args.out_prefix}target.pgm")
    print(f"wrote {args.out_prefix}source.pgm and {args.out_prefix}target.pgm")
    return 0


def cmd_sweep(args) -> int:
    scn = synth.make_scenario(args.scenario, size=args.size, shape=args.shape,
                              seed=args.seed)
    rows = synth.sweep(scn, args.eps, t_steps=args.t_steps, tol=args.tol,
                       max_iter=args.max_iter, mode=args.mode)
    synth.sweep_to_csv(rows, args.out)
    print(f"{len(rows)} sweep points -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    src, tgt, _ = _load_pair(args)
    p = raster.normalize_to_mass(src, args.floor)
    q = raster.normalize_to_mass(tgt, args.floor)
    plan = oracle.exact_wasserstein(p, q, otcore.build_cost(src.geometry))
    print(json.dumps({"value": plan.value, "iterations": plan.iterations}))
    return 0


def _read_features(path: str) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record or not record[0].strip():
                continue
            try:
                rows.append([float(c) for c in record[:4]])
            except ValueError:
                continue  # header line
    return np.asarray(rows, dtype=float).reshape(-1, 4)


def cmd_compare_features(args) -> int:
    report = compare_features(args.bundle, args.features, args.ncc_csv)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def compare_features(bundle: str, features_path: str,
                     ncc_csv: str | None = None) -> dict:
    """Median absolute displacement error of the transport (and optionally
    NCC) estimates against manually tracked source/target pixel pairs."""
    summary = json.loads(Path(f"{bundle}summary.json").read_text())
    vx, _ = raster.read_field(f"{bundle}vx.f32")
    vy, _ = raster.read_field(f"{bundle}vy.f32")
    dt = float(summary["dt_s"])
    pixel_size = float(summary["pixel_size_m"])
    height, width = vx.shape
    feats = _read_features(features_path)

    entries = []
    excluded = []
    errors = []
    for idx, (sx, sy, tx, ty) in enumerate(feats):
        ix, iy = int(round(sx)), int(round(sy))
        if not (0 <= ix < width and 0 <= iy < height):
            raise ValueError(f"feature {idx} at ({sx}, {sy}) lies outside the grid")
        manual = ((tx - sx) * pixel_size, (ty - sy) * pixel_size)
        pred = (vx[iy, ix] * dt, vy[iy, ix] * dt)
        if not (np.isfinite(pred[0]) and np.isfinite(pred[1])):
            excluded.append(idx)
            continue
        err = float(np.hypot(manual[0] - pred[0], manual[1] - pred[1]))
        errors.append(err)
        entries.append({
            "index": idx,
            "manual_dx_m": manual[0], "manual_dy_m": manual[1],
            "ot_dx_m": pred[0], "ot_dy_m": pred[1],
            "abs_error_m": err,
        })
    report = {
        "count": int(len(feats)),
        "used": len(errors),
        "excluded": excluded,
        "median_defined": bool(errors),
        "median_abs_error_m": float(np.median(errors)) if errors else None,
        "features": entries,
    }
    if ncc_csv is not None:
        report["ncc"] = _score_ncc(ncc_csv, feats, pixel_size)
    return report


def _score_ncc(ncc_csv: str, feats: np.ndarray, pixel_size: float) -> dict:
    centers = []
    shifts = []
    with open(ncc_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            centers.append((float(row["window_center_x"]),
                            float(row["window_center_y"])))
            shifts.append((float(row["dx_px"]), float(row["dy_px"])))
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    shifts = np.asarray(shifts, dtype=float).reshape(-1, 2)
    errors = []
    excluded = []
    for idx, (sx, sy, tx, ty) in enumerate(feats):
        if len(centers) == 0:
            excluded.append(idx)
            continue
        near = int(np.argmin((centers[:, 0] - sx) ** 2 + (centers[:, 1] - sy) ** 2))
        manual = ((tx - sx) * pixel_size, (ty - sy) * pixel_size)
        pred = (shifts[near, 0] * pixel_size, shifts[near, 1] * pixel_size)
        errors.append(float(np.hypot(manual[0] - pred[0], manual[1] - pred[1])))
    return {
        "used": len(errors),
        "excluded": excluded,
        "median_defined": bool(errors),
        "median_abs_error_m": float(np.median(errors)) if errors else None,
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except otcore.StabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
