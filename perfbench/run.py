"""Layered benchmark of the ``otvelo`` CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from ``src/``.

``--trace 0`` runs one operation per fresh process (``op.py``) until
``--seconds`` have passed and reports the end-to-end metrics.  ``--trace 1``
runs in one process, alternating untraced and traced operations, and reports
the per-layer metrics (see ``tracing.py``) plus two probes: one public
``kernel_apply`` and, in a process with BLAS held to one thread, the time of
one sweep.  Every operation's outputs are checked against the synthetic
ground truth, and a deliberately corrupted copy of one good output must fail
that check.

Output: a readable report, an ``environment`` line, and as the last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files live in ``.bench_work/`` in the checkout and are removed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150.0
# Do not start an operation that would end the run past this many seconds.
RUN_BUDGET_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Every run holds BLAS to one thread.  On two shared cores, two-thread GEMMs
# wait on thread hand-offs and on whatever else runs on the other core:
# compare_128 operations split into a ~1.1 s and a ~1.8 s mode lasting
# seconds, and solve_512 ranged 19.6-26.7 s over five runs.  With one thread
# both stayed within 3 %.  One setting for every workload keeps their
# per-sweep times comparable.

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ACCURACY_UNITS = {"disp_err_px": "px", "ncc_err_px": "px", "curve_err": "frac",
                  "ncc_matches": "count"}


def per_layer_units() -> dict[str, str]:
    from tracing import TIMED_LAYERS
    units = {}
    for layer in TIMED_LAYERS:
        units.update({f"{layer}.s": "s", f"{layer}.calls": "count",
                      f"{layer}.errors": "count"})
    units.update({
        "raster.write_field.mb": "MB",
        "otcore.sweeps": "count",
        "otcore.sweep_ms": "ms",
        "otcore.sweep_ms_1t": "ms",
        "otcore.converged_frac": "frac",
        "otcore.kernel_apply.s": "s",
        "otcore.gflop_per_sweep": "GFLOP",
        "otcore.gflops": "GFLOP/s",
        "ncc.matches": "count",
        "cli.self_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_frac": "frac",
    })
    return units


# ---------------------------------------------------------------------------
# helpers

def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def child_op(calls: list[list[str]], workdir: Path, tag: str) -> dict:
    """Run one operation in a fresh process; returns op.py's record or a failure."""
    result = workdir / f"{tag}.result.json"
    cmd = [sys.executable, str(HERE / "op.py"), str(SRC), str(result), json.dumps(calls)]
    try:
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S:g} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"process exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    record = json.loads(result.read_text())
    result.unlink()
    if any(code != 0 for code in record["codes"]):
        record["error"] = f"exit codes {record['codes']}: {proc.stderr.strip()[-300:]}"
    return record


def in_process_op(calls: list[list[str]]) -> tuple[float, list[int]]:
    import otvelo.cli as cli
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        for argv in calls:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        wall = time.perf_counter() - t0
    return wall, codes


class Tally:
    """Attempted and failed operations plus the checker's self-test."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.accuracy: dict[str, list[float]] = {}
        self.last_good: Path | None = None
        self.selfcheck = "not run: no operation passed"
        self.selfcheck_ok = False

    def record(self, wl, case, out: Path, error: str | None) -> bool:
        self.attempted += 1
        check = None if error else wl.check(case, out)
        if error or not check.ok:
            self.failures.append(error or "; ".join(check.problems))
            shutil.rmtree(out, ignore_errors=True)
            return False
        for key, value in check.accuracy.items():
            self.accuracy.setdefault(key, []).append(value)
        if self.last_good is not None:
            shutil.rmtree(self.last_good, ignore_errors=True)
        self.last_good = out
        return True

    def run_selfcheck(self, wl, case) -> None:
        """Corrupt the last good output; the check must reject it."""
        if self.last_good is None:
            return
        wl.corrupt(self.last_good)
        check = wl.check(case, self.last_good)
        self.selfcheck_ok = not check.ok
        self.selfcheck = ("corrupted output rejected: " + "; ".join(check.problems)
                          if not check.ok else "FAILED: corrupted output passed the check")


# ---------------------------------------------------------------------------
# the two kinds of run

def run_untraced(wl, case, seconds: float, started: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    walls, all_walls, setups, rss = [], [], [], []
    while True:
        out = case.workdir / f"op{tally.attempted}"
        out.mkdir()
        record = child_op(wl.calls(case, out), case.workdir, out.name)
        if "setup_s" in record:
            setups.append(record["setup_s"])
            rss.append(record["peak_rss_mb"])
            all_walls.append(record["wall_s"])
        if tally.record(wl, case, out, record.get("error")):
            walls.append(record["wall_s"])
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or elapsed + max(all_walls, default=0.0) > RUN_BUDGET_S:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        record = child_op([], case.workdir, "setup")
        if "error" in record:
            break
        setups.append(record["setup_s"])
    tally.run_selfcheck(wl, case)
    # a run with no passing operation is reported as incorrect; its figures
    # fall back to whatever was measured so the JSON stays numeric
    metrics = {
        "wall_s": statistics.median(walls or all_walls or [0.0]),
        "setup_s": statistics.median(setups or [0.0]),
        "peak_rss_mb": statistics.median(rss or [0.0]),
    }
    tail = tail_percentile(walls)
    notes = {
        "wall_s": f"median of {len(walls)} passing ops, range "
                  f"{min(walls, default=0.0):.4f}-{max(walls, default=0.0):.4f}; " + (
            f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
            "no tail percentile (needs >= 20 samples for ten beyond the median)"),
        "setup_s": f"median of {len(setups)} imports of otvelo.cli",
        "peak_rss_mb": f"median ru_maxrss of {len(rss)} op processes",
    }
    return metrics, tally, notes


def sweep_ms_1t(wl, case) -> float:
    """Time per sweep of the workload's solve with BLAS held to one thread,
    measured apart from the operations so it stays comparable if they change."""
    spec = wl.solve
    cmd = [sys.executable, str(HERE / "sweep_probe.py"), str(SRC), str(case.source),
           str(case.target), repr(spec.eps), spec.mode, str(int(spec.log_domain)),
           str(spec.probe_sweeps)]
    proc = subprocess.run(cmd, cwd=case.workdir, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-300:])
    return float(proc.stdout.split()[-1])


def kernel_apply_s(wl, case) -> float:
    """Median of three public kernel_apply calls on the workload's grid."""
    import numpy as np
    from otvelo import otcore
    from otvelo.raster import GridGeometry
    g = GridGeometry(case.size, case.size, case.pixel_size)
    v = np.full(g.n, 1.0 / g.n)
    spec = otcore.KernelSpec(wl.solve.eps, wl.solve.mode)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        otcore.kernel_apply(v, spec, g)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(wl, case, seconds: float, started: float) -> tuple[dict, Tally, dict]:
    from tracing import Tracer, layer_totals
    tally = Tally()
    untraced, traced, layers, accounted = [], [], [], []
    while True:
        pair_started = time.perf_counter()
        for on in (False, True):
            out = case.workdir / f"op{tally.attempted}"
            out.mkdir()
            error = None
            try:
                with Tracer() if on else contextlib.nullcontext() as tracer:
                    wall, codes = in_process_op(wl.calls(case, out))
                if any(codes):
                    error = f"exit codes {codes}"
            except Exception:  # an escaped error fails this op, not the run
                error = traceback.format_exc(limit=3)
            if tally.record(wl, case, out, error):
                (traced if on else untraced).append(wall)
                if on:
                    layers.append(layer_totals(tracer.spans))
                    accounted.append(sum(s.self_s for s in tracer.spans) / wall)
        now = time.perf_counter()
        if now - started >= seconds or 2 * now - pair_started - started > RUN_BUDGET_S:
            break
    tally.run_selfcheck(wl, case)
    metrics = {key: statistics.median(op[key] for op in layers)
               for key in (layers[0] if layers else ())}
    if traced and untraced:
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                          / metrics["trace.untraced_wall_s"] - 1.0)
    metrics["otcore.kernel_apply.s"] = kernel_apply_s(wl, case)
    try:
        metrics["otcore.sweep_ms_1t"] = sweep_ms_1t(wl, case)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        tally.attempted += 1
        tally.failures.append(f"single-thread probe failed: {exc}")
    notes = {
        "trace.overhead_frac": f"{len(traced)} traced vs {len(untraced)} untraced "
                               "in-process ops",
        "otcore.gflop_per_sweep": "computed from array shapes, not measured",
        "otcore.gflops": "computed flop / measured sinkhorn time",
        "otcore.sweep_ms_1t": f"BLAS held to one thread, {wl.solve.probe_sweeps} sweeps",
        "otcore.kernel_apply.s": f"median of 3, {wl.solve.mode} eps={wl.solve.eps:g}",
    }
    if accounted:
        notes["cli.self_s"] = (f"span self times sum to {statistics.median(accounted):.4f}"
                               " of traced wall time")
    return metrics, tally, notes


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        case = wl.prepare(workdir, seed)
        runner = run_traced if trace else run_untraced
        metrics, tally, notes = runner(wl, case, seconds, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    units = per_layer_units() if trace else END_TO_END_UNITS
    failed = len(tally.failures)
    correct = failed == 0 and tally.selfcheck_ok

    print(f"== {name}  seed {seed}  trace {int(trace)}: {tally.attempted} ops, "
          f"{failed} failed, {time.perf_counter() - started:.1f} s")
    for key, unit in units.items():
        note = notes.get(key, "")
        print(f"  {key:<34} {metrics.get(key, 0.0):>14.6g} {unit:<8} {note}")
    print(f"  {'fail_frac':<34} {failed / tally.attempted:>14.6g} {'frac':<8} "
          f"{failed} of {tally.attempted} ops")
    for key, values in tally.accuracy.items():
        print(f"  {key:<34} {statistics.median(values):>14.6g} "
              f"{ACCURACY_UNITS.get(key, ''):<8} median over passing ops")
    for problem in tally.failures[:5]:
        print(f"  failure: {problem}")
    print(f"  self-check: {tally.selfcheck}")
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {key: {"value": float(metrics.get(key, 0.0)), "unit": unit}
                    for key, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload, each in its own process; one combined JSON line."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "otvelo" / "cli.py").is_file():
        print(f"error: no otvelo sources under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    # BLAS reads these when numpy loads it, which has not happened yet; op
    # processes inherit them
    os.environ.update({k: "1" for k in THREAD_VARS})
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be all or one of {', '.join(WORKLOADS)}")
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(environment(args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
