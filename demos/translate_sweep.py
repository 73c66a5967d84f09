"""Distance-vs-motion curves on the synthetic translate scenario.

Renders a floe drifting 20 px across a 128x128 frame, evaluates
W_eps(t) - W_eps(0) at 11 time samples for four regularization strengths, and
prints the curves side by side. Two things to look for:

  * every curve is nondecreasing in t - more drift means more transport; and
  * subtracting the t = 0 value cancels the entropic bias for this rigid
    motion, so all four curves collapse onto a common shape (fracturing
    scenarios such as split_quad separate the eps levels; see the sweep CLI).

Run:  python3 demos/translate_sweep.py      (about 0.5 s)
"""
import numpy as np

from otvelo import make_scenario, sweep

EPS_LIST = (1e-3, 1e-2, 1e-1, 1.0)


def run():
    scn = make_scenario("translate", size=128)
    rows = sweep(scn, list(EPS_LIST), t_steps=11)

    by_eps = {}
    for r in rows:
        by_eps.setdefault(r.eps, []).append(r)

    ts = [r.t for r in by_eps[EPS_LIST[0]]]
    print("W_eps(t) - W_eps(0), translate scenario, 128x128, 20 px drift")
    print(f"{'t':>6} " + " ".join(f"{'eps=' + str(e):>12}" for e in EPS_LIST))
    for i, t in enumerate(ts):
        vals = " ".join(f"{by_eps[e][i].w_minus_w0:>12.3e}" for e in EPS_LIST)
        print(f"{t:>6.2f} {vals}")

    curves = [np.array([r.w_minus_w0 for r in by_eps[e]]) for e in EPS_LIST]
    spread = max(np.abs(c - curves[-1]).max() for c in curves)
    print(f"\nmax spread between any two curves: {spread:.2e} - for a rigid "
          f"translation the\nfirst-value subtraction cancels the entropic "
          f"bias at every eps")


if __name__ == "__main__":
    run()
