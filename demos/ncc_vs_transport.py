"""Block matching vs dense transport on the same displacement field.

The classical baseline slides a window around and keeps the best normalized
cross-correlation: one vector per window, integer precision, and nothing at
all where the window lacks texture. The transport solve instead assigns every
valid pixel a velocity. This demo runs both on a textured pair translated by
a known 5 px and prints what each recovers.

Run:  python3 demos/ncc_vs_transport.py      (about 0.1 s)
"""
import numpy as np

from otvelo import (
    GridGeometry, IntensityRaster, KernelSpec, barycentric_map,
    ncc_displacements, normalize_to_mass, sinkhorn, velocity,
)

SIZE, SHIFT = 64, 5
DT = 86400.0


def run():
    # textured floe on a dark background so both methods have something to grip
    rng = np.random.default_rng(13)
    base = np.zeros((SIZE, SIZE))
    base[18:46, 12:40] = rng.uniform(140.0, 255.0, (28, 28))
    g = GridGeometry(SIZE, SIZE, 250.0)
    src = IntensityRaster(g, base, 0.0)
    tgt = IntensityRaster(g, np.roll(base, SHIFT, axis=1), DT)

    matches = ncc_displacements(src, tgt, window=16, search_radius=8,
                                threshold=0.25)
    print(f"NCC: {len(matches)} windows matched (window 16, radius 8)")
    for m in matches:
        print(f"  center=({m.center_x:5.1f},{m.center_y:5.1f})  "
              f"d=({m.dx:+d},{m.dy:+d}) px  corr={m.correlation:.3f}")

    p = normalize_to_mass(src)
    q = normalize_to_mass(tgt)
    pair = sinkhorn(p, q, KernelSpec(2e-3, "dense"), tol=1e-6, max_iter=20000)
    vel = velocity(barycentric_map(p, pair, strict=False), g, DT)
    vx = vel.vx.reshape(SIZE, SIZE)
    floe = base > 0
    inner = floe.copy()
    inner[:, :3] = inner[:, -3:] = inner[:3, :] = inner[-3:, :] = False
    dx_px = vx[inner] * DT / 250.0
    print(f"\ntransport: {np.isfinite(vx).sum()} pixels carry a velocity")
    print(f"  median floe dx = {np.nanmedian(dx_px):+.2f} px (true {SHIFT:+d})")
    print(f"  5th..95th percentile: {np.nanpercentile(dx_px, 5):+.2f} .. "
          f"{np.nanpercentile(dx_px, 95):+.2f} px")
    print("\nNCC gives one integer vector per textured window; the transport "
          "map covers the floe densely.")


if __name__ == "__main__":
    run()
