import numpy as np
import pytest

from otvelo import GridGeometry, IntensityRaster, matches_to_csv, ncc_displacements
from otvelo.ncc import CSV_HEADER


def pair_from(base, shift_rows, shift_cols, pixel_size=250.0):
    g = GridGeometry(base.shape[1], base.shape[0], pixel_size)
    src = IntensityRaster(g, base, 0.0)
    tgt = IntensityRaster(g, np.roll(base, (shift_rows, shift_cols), (0, 1)),
                          86400.0)
    return src, tgt


def test_exact_shift_recovered_on_interior_tiles():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.0, 255.0, (64, 64))
    src, tgt = pair_from(base, -2, 3)
    matches = ncc_displacements(src, tgt, window=16, search_radius=5,
                                threshold=0.25)
    assert len(matches) > 0
    interior = [m for m in matches
                if 8 <= m.center_x <= 55 and 8 <= m.center_y <= 55]
    assert interior
    for m in interior:
        assert (m.dx, m.dy) == (3, -2)
        assert m.correlation == pytest.approx(1.0, abs=1e-9)


def test_all_matches_respect_threshold():
    rng = np.random.default_rng(6)
    base = rng.uniform(0.0, 255.0, (48, 48))
    src, tgt = pair_from(base, 1, -1)
    for threshold in (0.25, 0.9):
        matches = ncc_displacements(src, tgt, window=12, search_radius=3,
                                    threshold=threshold)
        assert all(m.correlation >= threshold for m in matches)


def test_zero_variance_windows_skipped():
    base = np.zeros((32, 32))
    base[12:20, 12:20] = 255.0  # one feature; most tiles are flat
    src, tgt = pair_from(base, 0, 2)
    matches = ncc_displacements(src, tgt, window=8, search_radius=2,
                                threshold=0.25)
    # flat tiles produce no match instead of 0/0 correlations
    for m in matches:
        assert np.isfinite(m.correlation)


@pytest.mark.filterwarnings("error")
def test_flat_target_never_matches():
    # every window of a constant 37.77 target is flat, though its one-pass
    # variance rounds to a small positive number
    rng = np.random.default_rng(8)
    g = GridGeometry(40, 40, 250.0)
    src = IntensityRaster(g, rng.uniform(0.0, 255.0, (40, 40)), 0.0)
    tgt = IntensityRaster(g, np.full((40, 40), 37.77), 86400.0)
    assert ncc_displacements(src, tgt, window=8, search_radius=3,
                             threshold=1e-12) == []


def test_affine_intensity_invariance():
    rng = np.random.default_rng(7)
    base = rng.uniform(10.0, 100.0, (40, 40))
    src, tgt = pair_from(base, 2, 1)
    plain = ncc_displacements(src, tgt, window=10, search_radius=3)

    g = src.geometry
    src2 = IntensityRaster(g, np.clip(2.0 * src.values + 10.0, 0, 255), 0.0)
    tgt2 = IntensityRaster(g, np.clip(2.0 * tgt.values + 10.0, 0, 255), 86400.0)
    scaled = ncc_displacements(src2, tgt2, window=10, search_radius=3)
    assert len(plain) == len(scaled)
    for a, b in zip(plain, scaled):
        assert (a.dx, a.dy) == (b.dx, b.dy)
        assert a.correlation == pytest.approx(b.correlation, abs=1e-9)


def test_search_radius_bounds_displacement():
    rng = np.random.default_rng(9)
    base = rng.uniform(0.0, 255.0, (40, 40))
    src, tgt = pair_from(base, 0, 6)
    matches = ncc_displacements(src, tgt, window=10, search_radius=2,
                                threshold=0.01)
    for m in matches:
        assert abs(m.dx) <= 2 and abs(m.dy) <= 2


def test_stride_defaults_to_window():
    rng = np.random.default_rng(10)
    base = rng.uniform(0.0, 255.0, (64, 64))
    src, tgt = pair_from(base, 0, 1)
    matches = ncc_displacements(src, tgt, window=16, search_radius=2)
    xs = sorted({m.center_x for m in matches})
    assert xs == [7.5, 23.5, 39.5]  # tiles at 0, 16, 32 (48 cannot shift)


def test_window_validation():
    rng = np.random.default_rng(11)
    base = rng.uniform(0.0, 255.0, (32, 32))
    src, tgt = pair_from(base, 0, 0)
    with pytest.raises(ValueError):
        ncc_displacements(src, tgt, window=4)
    with pytest.raises(ValueError):
        ncc_displacements(src, tgt, window=40)
    with pytest.raises(ValueError):
        ncc_displacements(src, tgt, window=16, threshold=0.0)
    with pytest.raises(ValueError):
        ncc_displacements(src, tgt, window=16, search_radius=0)


def test_csv_output(tmp_path):
    rng = np.random.default_rng(12)
    base = rng.uniform(0.0, 255.0, (48, 48))
    src, tgt = pair_from(base, 0, 2)
    matches = ncc_displacements(src, tgt, window=12, search_radius=3)
    path = tmp_path / "matches.csv"
    matches_to_csv(matches, path, pixel_size=250.0, dt=86400.0)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(matches) + 1
    first = lines[1].split(",")
    assert float(first[2]) == matches[0].dx
    # m/s columns are px * pixel_size / dt
    assert float(first[4]) == pytest.approx(matches[0].dx * 250.0 / 86400.0)


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_csv_refuses_bad_dt(tmp_path, dt):
    # an infinite interval would write 0 m/s for every match
    path = tmp_path / "matches.csv"
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        matches_to_csv([], path, pixel_size=250.0, dt=dt)
    assert not path.exists()


def reference_matches(src, tgt, window, search_radius, threshold, stride):
    """Brute-force ZNCC: np.corrcoef at every in-bounds shift, flat windows
    skipped, the first peak in row-major (dy, dx) order kept."""
    a_img, b_img = src.values, tgt.values
    height, width = a_img.shape
    half = (window - 1) / 2.0
    out = []
    for ty in range(0, height - window + 1, stride):
        for tx in range(0, width - window + 1, stride):
            a = a_img[ty:ty + window, tx:tx + window]
            if np.ptp(a) == 0:
                continue
            best = None
            for dy in range(-search_radius, search_radius + 1):
                for dx in range(-search_radius, search_radius + 1):
                    sy, sx = ty + dy, tx + dx
                    if not (0 <= sy <= height - window and 0 <= sx <= width - window):
                        continue
                    b = b_img[sy:sy + window, sx:sx + window]
                    if np.ptp(b) == 0:
                        continue
                    corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
                    if best is None or corr > best[0]:
                        best = (corr, dx, dy)
            if best is not None and best[0] >= threshold:
                out.append((tx + half, ty + half, best[1], best[2], best[0]))
    return out


def assert_matches_reference(src, tgt, **kwargs):
    got = ncc_displacements(src, tgt, **kwargs)
    want = reference_matches(src, tgt, **kwargs)
    assert want
    assert [(m.center_x, m.center_y, m.dx, m.dy) for m in got] == \
        [w[:4] for w in want]
    for m, w in zip(got, want):
        assert abs(m.correlation - w[4]) <= 1e-12


def noisy_pair(base, shift_rows, shift_cols, seed):
    g = GridGeometry(base.shape[1], base.shape[0], 250.0)
    moved = np.roll(base, (shift_rows, shift_cols), (0, 1))
    noise = np.random.default_rng(seed).normal(0.0, 8.0, base.shape)
    return (IntensityRaster(g, base, 0.0),
            IntensityRaster(g, np.clip(moved + noise, 0.0, 255.0), 86400.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_matches_reference_on_continuous_texture(seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 255.0, (36, 44))
    src, tgt = noisy_pair(base, 2, -3, seed)
    assert_matches_reference(src, tgt, window=10, search_radius=4,
                             threshold=0.01, stride=10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("background", [0.0, 100.1])
def test_matches_reference_on_binary_blocks(background):
    # random 0/255 blocks on a flat background: flat tiles and flat target
    # windows both occur, and must score without a 0/0; at 100.1 their
    # sums round, so a flat window's one-pass variance is not exactly 0.
    # Binary windows can tie exactly, and rounding may then pick either
    # shift; with this seed every runner-up lies well below its peak.
    rng = np.random.default_rng(32)
    base = np.full((40, 40), background)
    for y, x in ((4, 6), (20, 22), (26, 3)):
        base[y:y + 10, x:x + 12] = 255.0 * (rng.random((10, 12)) < 0.5)
    g = GridGeometry(40, 40, 250.0)
    src = IntensityRaster(g, base, 0.0)
    tgt = IntensityRaster(g, np.roll(base, (1, 3), (0, 1)), 86400.0)
    assert_matches_reference(src, tgt, window=8, search_radius=4,
                             threshold=0.25, stride=8)


@pytest.mark.filterwarnings("error")
def test_matches_reference_with_overlapping_tiles_and_clipped_edges():
    # stride < window, and a radius that clips the search of every edge tile
    rng = np.random.default_rng(41)
    base = rng.uniform(0.0, 255.0, (30, 34))
    src, tgt = noisy_pair(base, -1, 2, 41)
    assert_matches_reference(src, tgt, window=9, search_radius=7,
                             threshold=0.01, stride=4)


@pytest.mark.filterwarnings("error")
def test_matches_reference_on_a_non_square_grid_with_overlapping_tiles():
    # 120 wide, 96 high: a width/height mix-up in the window sums or the
    # search region cannot pass, and stride < window overlaps the tiles
    rng = np.random.default_rng(51)
    base = rng.uniform(0.0, 255.0, (96, 120))
    src, tgt = noisy_pair(base, 3, -4, 51)
    assert_matches_reference(src, tgt, window=24, search_radius=5,
                             threshold=0.01, stride=16)


@pytest.mark.filterwarnings("error")
def test_matches_reference_with_clipped_edges_and_a_prime_search_region():
    # an interior tile's search region is window + 2R = 23 px a side, a
    # prime transform length; every edge tile's region is clipped shorter
    rng = np.random.default_rng(52)
    base = rng.uniform(0.0, 255.0, (47, 53))
    src, tgt = noisy_pair(base, -2, 1, 52)
    assert_matches_reference(src, tgt, window=13, search_radius=5,
                             threshold=0.01, stride=7)


@pytest.mark.filterwarnings("error")
def test_matches_reference_on_textured_floes_over_a_flat_background():
    # the region around a floe is bright and mostly flat: its windows'
    # variation is small against their level, and flat windows at 100.1
    # do not sum exactly
    rng = np.random.default_rng(53)
    yy, xx = np.mgrid[0:64, 0:72]
    base = np.full((64, 72), 100.1)
    for cy, cx, r in ((18, 20, 11), (44, 50, 13)):
        disc = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        base[disc] = rng.uniform(0.0, 255.0, disc.sum())
    g = GridGeometry(72, 64, 250.0)
    src = IntensityRaster(g, base, 0.0)
    tgt = IntensityRaster(g, np.roll(base, (2, -3), (0, 1)), 86400.0)
    assert_matches_reference(src, tgt, window=12, search_radius=4,
                             threshold=0.25, stride=6)


@pytest.mark.filterwarnings("error")
def test_exact_ties_keep_the_first_shift_in_row_major_order():
    # a straight horizontal edge moved 3 px down: every dx with dy = 3 shows
    # the same window and correlates at 1.0, so the first in-bounds dx wins;
    # the FFT's rounding spreads these ties by about 1e-16, and without the
    # tie bound three of the five tiles would keep dx = -1
    base = np.full((48, 40), 37.0)
    base[21:] = 200.0
    moved = np.full((48, 40), 37.0)
    moved[24:] = 200.0
    g = GridGeometry(40, 48, 250.0)
    src, tgt = IntensityRaster(g, base, 0.0), IntensityRaster(g, moved, 86400.0)
    kwargs = dict(window=8, search_radius=6, threshold=0.25, stride=8)
    assert_matches_reference(src, tgt, **kwargs)
    matches = ncc_displacements(src, tgt, **kwargs)
    assert len(matches) == 5  # the row of tiles across the edge
    for m in matches:
        tx = int(m.center_x - 3.5)
        assert (m.dx, m.dy) == (-min(6, tx), 3)
        assert m.correlation == pytest.approx(1.0, abs=1e-12)
