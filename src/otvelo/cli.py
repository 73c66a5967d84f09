"""Command-line entry points.

Subcommands: solve (full transport pipeline on an image pair), ncc (block
matching baseline), synth (render a synthetic pair), sweep (distance-vs-
motion curves), compare-features (error report against manually tracked
points).

``solve`` and ``sweep`` exit codes: 0 converged, 2 stopped at max_iter
(outputs are still written and flagged in the summary or the CSV), 1 anything
else (bad inputs, geometry mismatch); errors go to stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import fields, ncc, otcore, raster, synth


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert(text)``, refused with ``requirement``
    unless ``ok`` holds, and with the kind of number needed if unparsable."""
    def parse(text: str):
        try:
            val = convert(text)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}") from None
        if not ok(val):
            raise argparse.ArgumentTypeError(requirement)
        return val
    return parse


# every comparison is false for nan, so each float check refuses it
_positive_float = _checked(float, lambda v: 0 < v < np.inf, "must be positive and finite")
_positive_int = _checked(int, lambda v: v > 0, "must be positive and finite")
_seed = _checked(int, lambda v: v >= 0, "must be a non-negative integer")
_mask_threshold = _checked(float, lambda v: 0 <= v <= 255, "must lie in [0, 255]")
_correlation_threshold = _checked(float, lambda v: 0 < v <= 1, "must lie in (0, 1]")
_interval_fraction = _checked(float, lambda v: 0 <= v <= 1, "must lie in [0, 1]")
_t_steps = _checked(int, lambda v: v >= 2, "must be at least 2")


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

    def add_solver_args(sp):
        sp.add_argument("--tol", type=_positive_float, default=otcore.DEFAULT_TOL,
                        help="stop once the L1 marginal error is at most this "
                             "(default %(default)g); strain maps want 1e-8, "
                             "since at 1e-6 exy can move by a few per cent "
                             "of its maximum")
        sp.add_argument("--max-iter", type=_positive_int,
                        default=otcore.DEFAULT_MAX_ITER)
        sp.add_argument("--mode", choices=("auto", "dense", "conv"), default="auto",
                        help="dense keeps every kernel weight, conv drops those "
                             "beyond r px (below 1e-16 of the centre), auto "
                             f"picks dense up to {otcore.DENSE_MAX_PIXELS} px")

    def add_scenario_args(sp):
        sp.add_argument("--scenario", required=True, choices=synth.SCENARIO_KINDS)
        sp.add_argument("--size", type=_positive_int, default=128)
        sp.add_argument("--shape", choices=("polygon", "disc"), default="polygon")
        sp.add_argument("--seed", type=_seed, default=7)

    sp = sub.add_parser("solve", help="run the transport pipeline on an image pair")
    add_pair_args(sp)
    sp.add_argument("--out-prefix", required=True, help="prefix for output files")
    sp.add_argument("--eps", type=_positive_float, default=otcore.DEFAULT_EPS,
                    help="regularization strength in normalized units^2")
    add_solver_args(sp)
    sp.add_argument("--log-domain", action="store_true",
                    help="start in log-space iterations; a linear solve "
                         "that overflows switches to them by itself")
    sp.add_argument("--mask-threshold", type=_mask_threshold,
                    default=raster.DEFAULT_MASK_THRESHOLD)
    sp.add_argument("--no-mask", action="store_true",
                    help="treat every pixel as ice in derived outputs")
    sp.add_argument("--floor", type=_positive_float, default=raster.DEFAULT_FLOOR)
    sp.add_argument("--equalize", action="store_true",
                    help="adaptive histogram equalization before transport")
    sp.add_argument("--tile", type=_positive_int, default=raster.DEFAULT_TILE)
    sp.add_argument("--clip-limit", type=_positive_float, default=raster.DEFAULT_CLIP_LIMIT)
    sp.add_argument("--principal-clip", type=_positive_float,
                    help="clip the principal strain raster to +/- this bound")
    sp.add_argument("--vectors-csv", help="also write thinned velocity vectors")
    sp.add_argument("--thin", type=_positive_int, default=1,
                    help="keep every k-th pixel in --vectors-csv")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("ncc", help="block-matching displacement baseline")
    add_pair_args(sp)
    sp.add_argument("--out", required=True, help="output CSV")
    sp.add_argument("--window", type=_positive_int, default=ncc.DEFAULT_WINDOW)
    sp.add_argument("--search-radius", type=_positive_int)
    sp.add_argument("--threshold", type=_correlation_threshold,
                    default=ncc.DEFAULT_THRESHOLD)
    sp.add_argument("--stride", type=_positive_int)
    sp.set_defaults(func=cmd_ncc)

    sp = sub.add_parser("synth", help="render a synthetic scene pair")
    add_scenario_args(sp)
    sp.add_argument("--out-prefix", required=True)
    sp.add_argument("--t", type=_interval_fraction, default=1.0)
    sp.add_argument("--pixel-size", type=_positive_float, default=250.0)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("sweep", help="W_eps(t) - W_eps(0) curves for a scenario")
    add_scenario_args(sp)
    sp.add_argument("--out", required=True, help="output CSV")
    sp.add_argument("--eps", type=_positive_float, nargs="+",
                    default=[1e-3, 1e-2, 1e-1, 1.0])
    sp.add_argument("--t-steps", type=_t_steps, default=11)
    add_solver_args(sp)
    sp.set_defaults(func=cmd_sweep)

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


def _load_pair(args) -> tuple[raster.IntensityRaster, raster.IntensityRaster]:
    src = raster.load_raster(args.source, args.source_meta)
    tgt = raster.load_raster(args.target, args.target_meta)
    if src.geometry != tgt.geometry:
        raise ValueError(
            f"geometry mismatch: source {src.geometry.width}x{src.geometry.height}"
            f"@{src.geometry.pixel_size} vs target {tgt.geometry.width}x"
            f"{tgt.geometry.height}@{tgt.geometry.pixel_size}")
    return src, tgt


def _time_step(args, src: raster.IntensityRaster, tgt: raster.IntensityRaster) -> float:
    dt = args.dt if args.dt is not None else tgt.timestamp - src.timestamp
    if not dt > 0:
        raise ValueError("target must be later than source (or pass --dt)")
    if not np.isfinite(dt):
        raise ValueError(f"the sidecar timestamps are {dt} s apart, which is "
                         "not finite (or pass --dt)")
    return dt


def cmd_solve(args) -> int:
    src, tgt = _load_pair(args)
    dt = _time_step(args, src, tgt)
    g = src.geometry
    if g.width < 3 or g.height < 3:
        raise ValueError("strain needs at least a 3 x 3 grid")

    def to_mass(image):
        # --no-mask: every pixel counts as ice
        mask = None if args.no_mask else raster.apply_ice_mask(image, args.mask_threshold)
        if args.equalize:
            image = raster.equalize_contrast(image, args.tile, args.clip_limit, mask)
        return raster.normalize_to_mass(image, args.floor, mask)

    # each full-grid array is dropped once no later stage reads it, and each
    # raster is written as soon as it exists
    masses = [to_mass(src), to_mass(tgt)]
    del src, tgt
    mode = otcore.resolve_mode(args.mode, g.n)
    kernel = otcore.KernelSpec(args.eps, mode)
    pair = otcore.sinkhorn(*masses, kernel, tol=args.tol, max_iter=args.max_iter,
                           log_domain=args.log_domain)
    # the call takes the last reference to q, which transport_distance
    # drops once it has W_eps, before it forms the moments
    summary = fields.transport_distance(masses[0], pair, q=masses.pop(),
                                        strict=False)
    del masses
    report = {
        "w_eps": summary.w_eps,
        "iterations": pair.iterations,
        "coarse_iterations": [list(level) for level in pair.coarse_iterations],
        "residual": pair.residual,
        "converged": pair.converged,
        "omega": pair.omega,
        "log_domain": pair.log_domain,
        "eps": args.eps,
        "mode": mode,
        "dt_s": dt,
        "width": g.width,
        "height": g.height,
        "pixel_size_m": g.pixel_size,
    }
    del pair

    def write(name, data):
        raster.write_field(f"{args.out_prefix}{name}.f32", data, g)

    write("cbar", summary.cbar)
    write("cbar_ms", fields.transport_speed(summary, dt))
    bmap = summary.target
    del summary
    vel = fields.velocity(bmap, dt)
    del bmap
    write("vx", vel.vx)
    write("vy", vel.vy)
    st = fields.strain(vel)
    write("exx", st.exx)
    write("eyy", st.eyy)
    write("exy", st.exy)
    write("principal", fields.principal_strain(st, clip=args.principal_clip))
    Path(f"{args.out_prefix}summary.json").write_text(
        json.dumps(report, indent=2) + "\n")

    if args.vectors_csv:
        keep = np.zeros((g.height, g.width), dtype=bool)
        keep[::args.thin, ::args.thin] = True
        keep = keep.reshape(-1) & np.isfinite(vel.vx)
        lines = ["x_px,y_px,vx_m_per_s,vy_m_per_s"] + [
            f"{i % g.width},{i // g.width},{vel.vx[i]:.9g},{vel.vy[i]:.9g}"
            for i in np.flatnonzero(keep)]
        Path(args.vectors_csv).write_text("\n".join(lines) + "\n")

    coarse = json.dumps(report["coarse_iterations"], separators=(",", ":"))
    print(f"W_eps={report['w_eps']:.9g} iterations={report['iterations']} "
          f"coarse_iterations={coarse} "
          f"residual={report['residual']:.3e} converged={report['converged']}")
    if not report["converged"]:
        advice = ""
        if mode == "conv":
            radius = otcore.required_truncation_radius(args.eps, g)
            advice = (f"; the conv kernel reaches {radius} px, so ice moving "
                      "farther needs a larger --eps, or --mode dense, which "
                      "keeps every kernel weight")
        print(f"warning: stopped at max_iter ({args.max_iter} sweeps) with "
              f"residual {report['residual']:.3e} above tol {args.tol:g}; "
              f"raise --max-iter, or --tol if that residual is good "
              f"enough{advice}", file=sys.stderr)
        return 2
    return 0


def cmd_ncc(args) -> int:
    src, tgt = _load_pair(args)
    dt = _time_step(args, src, tgt)
    matches = ncc.ncc_displacements(src, tgt, window=args.window,
                                    search_radius=args.search_radius,
                                    threshold=args.threshold, stride=args.stride)
    ncc.matches_to_csv(matches, args.out, src.geometry.pixel_size, dt)
    print(f"{len(matches)} window matches -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    scn = synth.make_scenario(args.scenario, size=args.size, pixel_size=args.pixel_size,
                              shape=args.shape, seed=args.seed)
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
    print(f"{len(rows)} sweep points, {sum(r.iterations for r in rows)} sweeps "
          f"-> {args.out}")
    stopped = [f"(eps={r.eps:g}, t={r.t:g})" for r in rows if not r.converged]
    if stopped:
        print(f"warning: stopped at max_iter before reaching tol at "
              f"{', '.join(stopped)}; raise --max-iter or --eps", file=sys.stderr)
        return 2
    return 0


def _read_features(path: str) -> np.ndarray:
    """Rows of four finite numbers src_x,src_y,tgt_x,tgt_y; only the first
    line may be a header."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for record in reader:
            if not record or not record[0].strip():
                continue
            try:
                values = [float(c) for c in record[:4]]
            except ValueError:
                if reader.line_num == 1:
                    continue  # header line
                values = []
            if len(values) < 4 or not np.isfinite(values).all():
                raise ValueError(
                    f"{path}, line {reader.line_num}: expected four finite "
                    f"numbers src_x,src_y,tgt_x,tgt_y, got {','.join(record)!r}")
            rows.append(values)
    return np.asarray(rows, dtype=float).reshape(-1, 4)


def _score(manual: np.ndarray, pred: np.ndarray) -> tuple[dict, np.ndarray]:
    """Summary and used features' errors of predicted against manual (k, 2)
    displacements in metres; a non-finite prediction excludes its feature."""
    used = np.isfinite(pred).all(axis=1)
    errors = np.hypot(*(manual - pred)[used].T)
    return {
        "used": int(used.sum()),
        "excluded": np.flatnonzero(~used).tolist(),
        "median_defined": bool(errors.size),
        "median_abs_error_m": _median(errors) if errors.size else None,
    }, errors


def _median(values: np.ndarray) -> float:
    """np.median without its first-use import of numpy.ma (about 10 ms)."""
    k = values.size // 2
    part = np.partition(values, [k - 1, k])
    return float(part[k] if values.size % 2 else (part[k - 1] + part[k]) / 2)


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
    summary_path = Path(f"{bundle}summary.json")
    summary = raster._read_sidecar(summary_path,
                                   ("dt_s", "pixel_size_m", "width", "height"))
    for key in ("dt_s", "pixel_size_m"):
        if not (summary[key] > 0 and np.isfinite(summary[key])):
            raise ValueError(f"{summary_path}: '{key}' must be positive and "
                             f"finite, got {summary[key]}")
    dt, pixel_size = float(summary["dt_s"]), float(summary["pixel_size_m"])
    width, height = summary["width"], summary["height"]
    vx, _ = raster.read_field(f"{bundle}vx.f32")
    vy, _ = raster.read_field(f"{bundle}vy.f32")
    for name, data in (("vx", vx), ("vy", vy)):
        if data.shape != (height, width):
            raise ValueError(f"{bundle}{name}.f32 holds a {data.shape[1]}x"
                             f"{data.shape[0]} grid, but {summary_path} "
                             f"gives {width}x{height}")
    feats = _read_features(features_path)
    cols, rows = np.rint(feats[:, 0]), np.rint(feats[:, 1])
    inside = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    if not inside.all():
        idx = int(np.argmin(inside))
        raise ValueError(f"feature {idx} at ({feats[idx, 0]}, {feats[idx, 1]}) "
                         "lies outside the grid")
    cols, rows = cols.astype(int), rows.astype(int)
    manual = (feats[:, 2:4] - feats[:, 0:2]) * pixel_size
    pred = np.column_stack([vx[rows, cols], vy[rows, cols]]) * dt
    scores, errors = _score(manual, pred)
    used = np.flatnonzero(np.isfinite(pred).all(axis=1))
    entries = [{
        "index": int(idx),
        "manual_dx_m": float(manual[idx, 0]), "manual_dy_m": float(manual[idx, 1]),
        "ot_dx_m": float(pred[idx, 0]), "ot_dy_m": float(pred[idx, 1]),
        "abs_error_m": float(err),
    } for idx, err in zip(used, errors)]
    report = {"count": int(len(feats)), **scores, "features": entries}
    if ncc_csv is not None:
        centers, shifts = _read_ncc(ncc_csv)
        dist = ((centers[None, :, :] - feats[:, None, 0:2]) ** 2).sum(axis=2)
        ncc_pred = (shifts[dist.argmin(axis=1)] * pixel_size if len(centers)
                    else np.full_like(manual, np.nan))
        report["ncc"] = _score(manual, ncc_pred)[0]
    return report


def _read_ncc(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Window centers and pixel shifts, (k, 2) arrays, from an ``ncc`` CSV."""
    columns = ("window_center_x", "window_center_y", "dx_px", "dy_px")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ncc.CSV_HEADER.split(","):
            raise ValueError(f"{path}: not an ncc output CSV; its first line "
                             f"must be {ncc.CSV_HEADER}")
        for row in reader:
            try:
                rows.append([float(row[c]) for c in columns])
            except (TypeError, ValueError):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"numbers in {', '.join(columns)}") from None
    data = np.asarray(rows, dtype=float).reshape(-1, 4)
    return data[:, 0:2], data[:, 2:4]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
