"""Milliseconds per Sinkhorn sweep, in a process started with BLAS held to one
thread (the caller sets OPENBLAS_NUM_THREADS and the like).

    python3 sweep_probe.py SRC_DIR SOURCE TARGET EPS MODE LOG_DOMAIN SWEEPS

Runs the solve with a tolerance it never reaches for SWEEPS and then
2 * SWEEPS sweeps; the difference cancels the operator build.  Prints the
figure on stdout.
"""
import sys
import time


def main() -> None:
    src_dir, source, target, eps, mode, log_domain, sweeps = sys.argv[1:8]
    sys.path.insert(0, src_dir)
    from otvelo import otcore, raster
    sweeps = int(sweeps)
    spec = otcore.KernelSpec(float(eps), mode)
    p = raster.normalize_to_mass(raster.load_raster(source))
    q = raster.normalize_to_mass(raster.load_raster(target))

    def timed(k: int) -> float:
        t0 = time.perf_counter()
        otcore.sinkhorn(p, q, spec, tol=1e-300, max_iter=k,
                        log_domain=log_domain == "1")
        return time.perf_counter() - t0

    timed(2)
    once = timed(sweeps)
    twice = timed(2 * sweeps)
    print(1e3 * (twice - once) / sweeps)


if __name__ == "__main__":
    main()
