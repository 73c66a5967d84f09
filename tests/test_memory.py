"""Peak numpy memory of a solve, counted in full-grid float64 arrays.

tracemalloc sees every numpy data buffer, so these counts repeat exactly
from run to run.  The bounds are the counts measured once each kernel band
was kept as blocks of one Toeplitz tile and a Sinkhorn level ran in five
grids, plus one.  The pipeline that kept every array it made until it
returned peaked at 18.6 arrays for the CLI solve and at 11.3 (linear) and
14.3 (log) for ``sinkhorn`` on this pair; with a six-grid level, full n x n
bands and q alive through the coupling moments, at 11.8-12.1, 7.5 and
10.8.
"""
import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from otvelo import (GridGeometry, IntensityRaster, KernelSpec, equalize_contrast,
                    normalize_to_mass, save_raster, sinkhorn, transport_distance)
from otvelo.cli import main

SIZE = 256


@pytest.fixture(scope="module")
def block_pair():
    """A 256^2 block pair: a 85 px block moved 12 px, solved through one
    128^2 level at the default eps."""
    g = GridGeometry(SIZE, SIZE, 250.0)
    side = SIZE // 3
    lo = (SIZE - side) // 2
    a, b = np.zeros((SIZE, SIZE)), np.zeros((SIZE, SIZE))
    a[lo:lo + side, lo:lo + side] = 255.0
    b[lo:lo + side, lo + 12:lo + 12 + side] = 255.0
    return IntensityRaster(g, a, 0.0), IntensityRaster(g, b, 86400.0)


def _peak_arrays(run) -> float:
    """Peak traced memory of run() above what was live before, in arrays
    of SIZE^2 float64 values."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (8 * SIZE * SIZE)


def test_cli_solve_peak_memory(block_pair, tmp_path):
    # the intensity images, p, q, the scalings, the barycentric map and
    # each raster are dropped once nothing later reads them, q before the
    # coupling moments; the peak (9.0-9.3) is in transport_distance, during
    # the |x|^2 moment
    source, target = block_pair
    save_raster(source, tmp_path / "a.pgm")
    save_raster(target, tmp_path / "b.pgm")
    codes = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(["solve", str(tmp_path / "a.pgm"),
                               str(tmp_path / "b.pgm"),
                               "--out-prefix", str(tmp_path / "o_")]))

    assert _peak_arrays(run) <= 10.3
    assert codes == [0]


@pytest.mark.parametrize("log_domain, bound", [(False, 7.0), (True, 10.2)],
                         ids=["linear", "log"])
def test_sinkhorn_peak_memory(block_pair, log_domain, bound):
    # linear: u, w, xi w, xi^T u, the operator's scratch and its one tile of
    # 128 x 228 weights, plus the 128^2 scalings of the coarse level (6.0);
    # log arithmetic adds log p, log q and a kernel pass's product (9.2)
    p, q = (normalize_to_mass(r) for r in block_pair)
    pairs = []
    assert _peak_arrays(lambda: pairs.append(
        sinkhorn(p, q, KernelSpec(1e-3, "conv"), log_domain=log_domain))) <= bound
    (pair,) = pairs
    assert pair.converged and pair.coarse_iterations == ((128, 128, 73),)


def test_transport_distance_peak_memory(block_pair):
    # target_x, target_y, the |x|^2 moment, a kernel pass's product, the
    # operator's scratch grid and tile (5.7); the operator is dropped before
    # the cost map's grids are made, and kept through them it peaked at 6.6
    p, q = (normalize_to_mass(r) for r in block_pair)
    pair = sinkhorn(p, q, KernelSpec(1e-3, "conv"))
    masses = [q]
    del q
    assert _peak_arrays(lambda: transport_distance(p, pair, q=masses.pop())) <= 6.0


def test_equalize_contrast_peak_memory():
    # the (tile, bin) histograms take 4 grids at tile 8; clipped, summed and
    # scaled in place with one temporary for the excess, the peak is 9.2
    # (9.17 for a loop over the tiles), and out of place it is 13.2
    rng = np.random.default_rng(8)
    image = IntensityRaster(GridGeometry(SIZE, SIZE, 250.0),
                            rng.uniform(0.0, 255.0, (SIZE, SIZE)), 0.0)
    mask = rng.permutation(SIZE * SIZE) < SIZE * SIZE // 2
    assert _peak_arrays(lambda: equalize_contrast(image, tile=8, mask=mask)) <= 10.2
