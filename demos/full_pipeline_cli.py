"""The whole workflow through the command-line interface.

Everything the library does is reachable from the `otvelo` command. This demo
shells through the same entry points in-process: render a synthetic pair,
solve it, run the block-matching baseline, and score both against manually
tracked feature points. Outputs land in a temporary directory that is printed
(and kept) so you can poke at the rasters afterwards.

Run:  python3 demos/full_pipeline_cli.py      (about 0.15 s)
"""
import json
import tempfile
from pathlib import Path

import numpy as np

from otvelo import load_raster
from otvelo.cli import main

def run():
    out = Path(tempfile.mkdtemp(prefix="otvelo_demo_"))
    print(f"working in {out}\n")

    # 1. render a floe drifting 20 px across a 128x128 day pair
    rc = main(["synth", "--scenario", "translate", "--size", "128",
               "--out-prefix", f"{out}/pair_"])
    assert rc == 0

    # 2. dense deformation solve (exit code 0 = converged); the 20 px drift
    #    needs about 45 over-relaxed scaling sweeps at this eps (about 210
    #    plain ones)
    rc = main(["solve", f"{out}/pair_source.pgm", f"{out}/pair_target.pgm",
               "--out-prefix", f"{out}/ot_", "--eps", "1e-3",
               "--max-iter", "8000", "--vectors-csv", f"{out}/vectors.csv",
               "--thin", "4"])
    assert rc == 0

    # 3. block-matching baseline on the same pair
    rc = main(["ncc", f"{out}/pair_source.pgm", f"{out}/pair_target.pgm",
               "--window", "16", "--search-radius", "24",
               "--out", f"{out}/ncc.csv"])
    assert rc == 0

    # 4. mark a few floe-interior pixels as "manually tracked" features
    #    (+20 px in x); erode the floe mask so none sit on the blurred edge
    src = load_raster(f"{out}/pair_source.pgm")
    floe = src.values > 120
    core = floe.copy()
    for shift in (-3, 3):
        core &= np.roll(floe, shift, axis=0) & np.roll(floe, shift, axis=1)
    iy, ix = np.argwhere(core)[::190][:5].T
    lines = ["src_x,src_y,tgt_x,tgt_y"]
    lines += [f"{x},{y},{x + 20},{y}" for y, x in zip(iy, ix)]
    Path(f"{out}/features.csv").write_text("\n".join(lines) + "\n")

    rc = main(["compare-features", "--bundle", f"{out}/ot_",
               "--features", f"{out}/features.csv",
               "--ncc-csv", f"{out}/ncc.csv",
               "--out", f"{out}/report.json"])
    assert rc == 0

    report = json.loads(Path(f"{out}/report.json").read_text())
    print(f"\ntransport median error: {report['median_abs_error_m']:.1f} m "
          f"over {report['used']} features")
    print(f"NCC median error:       {report['ncc']['median_abs_error_m']:.1f} m")
    print(f"\nfiles kept in {out}")


if __name__ == "__main__":
    run()
