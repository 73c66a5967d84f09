"""The four benchmark workloads: seeded inputs, the CLI calls that make up one
operation, and the correctness check of that operation's outputs.

The seed varies only inputs that leave the transport problem unchanged: the
pixel size and timestamps in the sidecars, the tracked feature points, and
the order of the epsilon list.  The transport problem itself must stay fixed
because the u-change stopping rule makes sweep counts jump under any change
of the mass fields (the eight mirror images of the 128 px pair take from
5787 sweeps to the 8000-sweep cap), which would swamp the timing bounds.

Reference values were recorded at the commit that added this benchmark.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SECONDS_PER_DAY = 86400.0
FIELDS = ("cbar", "cbar_ms", "vx", "vy", "exx", "eyy", "exy", "principal")
SUMMARY_KEYS = ("w_eps", "iterations", "residual", "converged", "eps", "mode",
                "dt_s", "width", "height", "pixel_size_m")
NODATA_F32 = float(np.float32(-3.4e38))
# A changed stopping rule moves W_eps by ~1e-7 relative; a wrong result by far more.
W_EPS_RTOL = 1e-4
FEATURE_COUNT = 10
SWEEP_T_STEPS = 11


@dataclass(frozen=True)
class Case:
    """Seeded inputs of one workload, written under ``workdir``."""

    workdir: Path
    source: Path
    target: Path
    pixel_size: float
    dt: float
    drift_px: tuple[float, float]
    floe: np.ndarray          # flat bool: pixels of the source floe
    eps_order: tuple[float, ...] = ()
    features: Path | None = None

    @property
    def size(self) -> int:
        return math.isqrt(self.floe.size)


@dataclass(frozen=True)
class Check:
    """Outcome of checking one operation: problems found plus accuracy figures."""

    problems: tuple[str, ...]
    accuracy: dict

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# scenes

def _block_scene():
    """The criterion-10 pair: a 120 px block shifted 24 px in a 512 px scene."""
    size, lo, hi, shift = 512, 196, 316, 24
    src = np.zeros((size, size))
    tgt = np.zeros((size, size))
    src[lo:hi, lo:hi] = 255.0
    tgt[lo:hi, lo + shift:hi + shift] = 255.0
    return src, tgt, (float(shift), 0.0)


def _translate_scene(size: int):
    """Synthetic ``translate`` scenario (default polygon seed, t = 0 and 1)."""
    from otvelo import synth
    scn = synth.make_scenario("translate", size=size)
    src, tgt = synth.render_pair(scn, 1.0)
    dx, dy = scn.motion["displacement"]
    return src.values, tgt.values, (float(dx), float(dy))


def _write_pair(workdir: Path, src: np.ndarray, tgt: np.ndarray,
                rng: np.random.Generator) -> tuple[Path, Path, float, float]:
    from otvelo.raster import GridGeometry, IntensityRaster, save_raster
    pixel_size = float(rng.uniform(100.0, 400.0))
    t0 = float(rng.uniform(0.0, 1e9))
    t1 = t0 + float(rng.uniform(0.5, 2.0)) * SECONDS_PER_DAY
    g = GridGeometry(src.shape[1], src.shape[0], pixel_size)
    source, target = workdir / "source.pgm", workdir / "target.pgm"
    save_raster(IntensityRaster(g, src, t0), source)
    save_raster(IntensityRaster(g, tgt, t1), target)
    return source, target, pixel_size, t1 - t0


def _write_features(path: Path, floe: np.ndarray, drift: tuple[float, float],
                    rng: np.random.Generator) -> None:
    """Tracked points inside the floe, two pixels clear of its edge."""
    core = floe.copy()
    for axis in (0, 1):
        for step in (-2, -1, 1, 2):
            core &= np.roll(floe, step, axis=axis)
    ys, xs = np.nonzero(core)
    pick = rng.choice(len(xs), size=FEATURE_COUNT, replace=False)
    lines = ["src_x,src_y,tgt_x,tgt_y"]
    for i in pick:
        x, y = int(xs[i]), int(ys[i])
        lines.append(f"{x},{y},{x + drift[0]:g},{y + drift[1]:g}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# output checks

def _read_f32(path: Path, n: int) -> np.ndarray:
    data = np.fromfile(path, dtype="<f4").astype(np.float64)
    if data.size != n:
        raise ValueError(f"{path.name} holds {data.size} values, expected {n}")
    data[data == NODATA_F32] = np.nan
    return data


def check_solve(case: Case, prefix: Path, w_ref: float,
                disp_bound: float) -> Check:
    """Exit-code-independent checks of one ``solve`` bundle."""
    problems = []
    n = case.floe.size
    for name in FIELDS:
        for path, size in ((Path(f"{prefix}{name}.f32"), 4 * n),
                           (Path(f"{prefix}{name}.json"), None)):
            if not path.is_file():
                problems.append(f"missing {path.name}")
            elif size is not None and path.stat().st_size != size:
                problems.append(f"{path.name} is {path.stat().st_size} bytes, expected {size}")
    summary_path = Path(f"{prefix}summary.json")
    try:
        summary = json.loads(summary_path.read_text())
    except (OSError, ValueError) as exc:
        return Check(tuple(problems) + (f"summary.json unreadable: {exc}",), {})
    missing = [k for k in SUMMARY_KEYS if k not in summary]
    if missing:
        return Check(tuple(problems) + (f"summary.json lacks {missing}",), {})
    w = float(summary["w_eps"])
    if not math.isfinite(w) or abs(w - w_ref) > W_EPS_RTOL * abs(w_ref):
        problems.append(f"W_eps {w!r} outside {W_EPS_RTOL:g} of recorded {w_ref!r}")
    if summary["converged"] is not True:
        problems.append("summary says not converged")
    if not math.isclose(summary["dt_s"], case.dt, rel_tol=1e-9):
        problems.append(f"dt_s {summary['dt_s']} != input {case.dt}")
    if not math.isclose(summary["pixel_size_m"], case.pixel_size, rel_tol=1e-12):
        problems.append(f"pixel_size_m {summary['pixel_size_m']} != input {case.pixel_size}")
    if problems:
        return Check(tuple(problems), {})
    try:
        vx = _read_f32(Path(f"{prefix}vx.f32"), n)[case.floe]
        vy = _read_f32(Path(f"{prefix}vy.f32"), n)[case.floe]
    except (OSError, ValueError) as exc:
        return Check((str(exc),), {})
    if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vy))):
        return Check(("velocity missing on floe pixels",), {})
    to_px = case.dt / case.pixel_size
    err = np.hypot(vx * to_px - case.drift_px[0], vy * to_px - case.drift_px[1])
    disp_err = float(np.median(err))
    if not disp_err <= disp_bound:
        problems.append(f"disp_err_px {disp_err:.4g} above bound {disp_bound}")
    return Check(tuple(problems), {"disp_err_px": disp_err})


def check_compare(case: Case, out: Path, ncc_bound: float) -> Check:
    """NCC matches against the known drift, and the compare-features report
    against the same scores recomputed here from the solve and NCC outputs.

    The report's medians get no ground-truth bound of their own: over ten
    sampled points they depend on how near the floe edge the points fall
    (seed 307 gives 0.27 px), and ``disp_err_px`` already bounds the field."""
    problems = []
    try:
        with open(out / "ncc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = json.loads((out / "compare.json").read_text())
        vx = _read_f32(out / "ot_vx.f32", case.floe.size).reshape(case.size, -1)
        vy = _read_f32(out / "ot_vy.f32", case.floe.size).reshape(case.size, -1)
    except (OSError, ValueError) as exc:
        return Check((f"ncc/compare output unreadable: {exc}",), {})
    if not rows:
        return Check(("ncc found no matches",), {})
    centers = np.array([(float(r["window_center_x"]), float(r["window_center_y"]))
                        for r in rows])
    shifts = np.array([(float(r["dx_px"]), float(r["dy_px"])) for r in rows])
    ncc_err = float(np.median(np.hypot(*(shifts - case.drift_px).T)))
    if not ncc_err <= ncc_bound:
        problems.append(f"ncc_err_px {ncc_err:.4g} above bound {ncc_bound}")

    feats = np.loadtxt(case.features, delimiter=",", skiprows=1, ndmin=2)
    manual = (feats[:, 2:4] - feats[:, 0:2]) * case.pixel_size
    ix, iy = feats[:, 0].astype(int), feats[:, 1].astype(int)
    ot_pred = np.column_stack([vx[iy, ix], vy[iy, ix]]) * case.dt
    near = np.argmin(((centers[None, :, :] - feats[:, None, 0:2]) ** 2).sum(-1), axis=1)
    ncc_pred = shifts[near] * case.pixel_size
    expected = {"transport": float(np.median(np.hypot(*(manual - ot_pred).T))),
                "ncc": float(np.median(np.hypot(*(manual - ncc_pred).T)))}
    if report.get("count") != FEATURE_COUNT or report.get("used") != FEATURE_COUNT:
        problems.append(f"compare-features used {report.get('used')} of {FEATURE_COUNT} features")
    for label, part in (("transport", report), ("ncc", report.get("ncc") or {})):
        got = part.get("median_abs_error_m")
        if got is None or not math.isclose(got, expected[label], rel_tol=1e-6, abs_tol=1e-6):
            problems.append(f"{label} feature error {got} m, recomputed {expected[label]} m")
    return Check(tuple(problems), {"ncc_err_px": ncc_err, "ncc_matches": len(rows)})


def check_sweep(case: Case, csv_path: Path, dw_ref: dict[float, float],
                curve_bound: float) -> Check:
    """Curve shape, convergence, and W_eps(1) - W_eps(0) against the record."""
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        pts = [(float(r["eps"]), float(r["t"]), float(r["w_eps_minus_w0"]),
                r["converged"]) for r in rows]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Check((f"sweep CSV unreadable: {exc}",), {})
    problems = []
    if sorted({p[0] for p in pts}) != sorted(dw_ref) or len(pts) != SWEEP_T_STEPS * len(dw_ref):
        return Check((f"sweep CSV has {len(pts)} rows for eps {sorted({p[0] for p in pts})}",), {})
    if any(p[3] != "true" for p in pts):
        problems.append("a sweep solve did not converge")
    d2 = (case.drift_px[0] ** 2 + case.drift_px[1] ** 2) / case.size ** 2
    curve_err = max(abs(dw - (t * t) * d2) for _, t, dw, _ in pts) / d2
    if not (math.isfinite(curve_err) and curve_err <= curve_bound):
        problems.append(f"curve_err {curve_err:.4g} above bound {curve_bound}")
    for eps, t, dw, _ in pts:
        if t == 0.0 and dw != 0.0:
            problems.append(f"eps {eps:g} curve does not start at 0")
        if t == 1.0 and abs(dw - dw_ref[eps]) > W_EPS_RTOL * abs(dw_ref[eps]):
            problems.append(f"eps {eps:g}: W(1)-W(0) {dw!r} outside {W_EPS_RTOL:g} "
                            f"of recorded {dw_ref[eps]!r}")
    return Check(tuple(problems), {"curve_err": curve_err})


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class SolveSpec:
    """The solve a workload runs, for the single-thread and kernel probes."""

    eps: float
    mode: str
    log_domain: bool
    probe_sweeps: int


class Workload:
    """One set of inputs plus the CLI calls of one operation on them."""

    name: str
    solve: SolveSpec

    def prepare(self, workdir: Path, seed: int) -> Case:
        raise NotImplementedError

    def calls(self, case: Case, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, case: Case, out: Path) -> Check:
        raise NotImplementedError

    def corrupt(self, out: Path) -> None:
        """Damage a good operation's outputs; the check must then fail."""
        raise NotImplementedError


class SolveWorkload(Workload):
    def __init__(self, name, scene, flags, solve, w_ref, disp_bound):
        self.name, self.solve = name, solve
        self._scene, self._flags = scene, tuple(flags)
        self._w_ref, self._disp_bound = w_ref, disp_bound

    def prepare(self, workdir: Path, seed: int) -> Case:
        rng = np.random.default_rng(seed)
        src, tgt, drift = self._scene()
        source, target, pixel_size, dt = _write_pair(workdir, src, tgt, rng)
        return Case(workdir, source, target, pixel_size, dt, drift,
                    (src > 0).reshape(-1))

    def calls(self, case: Case, out: Path) -> list[list[str]]:
        return [["solve", str(case.source), str(case.target),
                 "--out-prefix", f"{out}/ot_", *self._flags]]

    def check(self, case: Case, out: Path) -> Check:
        return check_solve(case, out / "ot_", self._w_ref, self._disp_bound)

    def corrupt(self, out: Path) -> None:
        path = out / "ot_vy.f32"
        path.write_bytes(path.read_bytes()[:-4])


class CompareWorkload(SolveWorkload):
    def __init__(self, *args, ncc_bound, **kwargs):
        super().__init__(*args, **kwargs)
        self._ncc_bound = ncc_bound

    def prepare(self, workdir: Path, seed: int) -> Case:
        case = super().prepare(workdir, seed)
        features = workdir / "features.csv"
        rng = np.random.default_rng([seed, 1])
        _write_features(features, case.floe.reshape(case.size, -1), case.drift_px, rng)
        return replace(case, features=features)

    def calls(self, case: Case, out: Path) -> list[list[str]]:
        return super().calls(case, out) + [
            ["ncc", str(case.source), str(case.target), "--window", "16",
             "--search-radius", "24", "--out", f"{out}/ncc.csv"],
            ["compare-features", "--bundle", f"{out}/ot_", "--features",
             str(case.features), "--ncc-csv", f"{out}/ncc.csv",
             "--out", f"{out}/compare.json"],
        ]

    def check(self, case: Case, out: Path) -> Check:
        solved = super().check(case, out)
        compared = check_compare(case, out, self._ncc_bound)
        return Check(solved.problems + compared.problems,
                     {**solved.accuracy, **compared.accuracy})

    def corrupt(self, out: Path) -> None:
        summary = out / "ot_summary.json"
        data = json.loads(summary.read_text())
        data["w_eps"] *= 1.01
        summary.write_text(json.dumps(data))


class SweepWorkload(Workload):
    def __init__(self, name, size, dw_ref, solve, curve_bound):
        self.name, self.solve = name, solve
        self._size, self._dw_ref, self._curve_bound = size, dw_ref, curve_bound

    def prepare(self, workdir: Path, seed: int) -> Case:
        rng = np.random.default_rng(seed)
        src, tgt, drift = _translate_scene(self._size)
        # the pair is only an input of the single-thread probe
        source, target, pixel_size, dt = _write_pair(workdir, src, tgt, rng)
        order = tuple(float(e) for e in rng.permutation(sorted(self._dw_ref)))
        return Case(workdir, source, target, pixel_size, dt, drift,
                    (src > 0).reshape(-1), eps_order=order)

    def calls(self, case: Case, out: Path) -> list[list[str]]:
        return [["sweep", "--scenario", "translate", "--size", str(self._size),
                 "--eps", *(f"{e:g}" for e in case.eps_order),
                 "--t-steps", str(SWEEP_T_STEPS), "--out", f"{out}/sweep.csv"]]

    def check(self, case: Case, out: Path) -> Check:
        return check_sweep(case, out / "sweep.csv", self._dw_ref, self._curve_bound)

    def corrupt(self, out: Path) -> None:
        path = out / "sweep.csv"
        lines = path.read_text().splitlines()
        last = lines[-1].split(",")
        last[2] = repr(float(last[2]) * 1.01)
        lines[-1] = ",".join(last)
        path.write_text("\n".join(lines) + "\n")


# BENCHMARK.json records why each workload exists and which layer it stresses.
WORKLOADS = {w.name: w for w in (
    SolveWorkload(
        "solve_512",
        _block_scene, ["--eps", "1e-3", "--tol", "1e-6", "--max-iter", "5000"],
        SolveSpec(1e-3, "conv", False, probe_sweeps=40),
        w_ref=-0.01390217699505033, disp_bound=1.0),
    SolveWorkload(
        "solve_log_64",
        lambda: _translate_scene(64),
        ["--eps", "1e-3", "--max-iter", "5000", "--log-domain", "--mode", "conv"],
        SolveSpec(1e-3, "conv", True, probe_sweeps=150),
        w_ref=0.01630022840964164, disp_bound=0.1),
    SweepWorkload(
        "sweep_64",
        64, {1e-2: 0.0244140482989, 1e-1: 0.0244140512709, 1.0: 0.0244140521114},
        SolveSpec(1e-2, "dense", False, probe_sweeps=20), curve_bound=1e-3),
    CompareWorkload(
        "compare_128",
        lambda: _translate_scene(128),
        ["--eps", "1e-3", "--max-iter", "8000"],
        SolveSpec(1e-3, "conv", False, probe_sweeps=2000),
        w_ref=0.013558918775754962, disp_bound=0.1,
        ncc_bound=1.0),
)}
