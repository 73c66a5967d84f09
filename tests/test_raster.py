import json
import math

import numpy as np
import pytest

from otvelo import (
    DegenerateImageError, FormatError, GridGeometry, IntensityRaster,
    MassField, MetadataError, TruncationError,
    apply_ice_mask, equalize_contrast, load_raster, normalize_to_mass,
    read_field, save_raster, write_field,
)


def make_raster(width=6, height=4, pixel_size=250.0, seed=1, timestamp=0.0):
    rng = np.random.default_rng(seed)
    g = GridGeometry(width, height, pixel_size)
    vals = rng.integers(0, 256, size=(height, width)).astype(float)
    return IntensityRaster(g, vals, timestamp)


# ---------------------------------------------------------------------------
# geometry

def test_geometry_basics():
    g = GridGeometry(8, 4, 250.0)
    assert g.n == 32
    assert g.norm_scale == 8 * 250.0
    assert g.pitch == 1.0 / 8

    xs, ys = g.pixel_centers()
    assert xs[0] == pytest.approx(0.5 / 8)
    assert ys[0] == pytest.approx(0.5 / 8)
    # row-major: pixel 9 is column 1, row 1
    assert xs[9] == pytest.approx(1.5 / 8)
    assert ys[9] == pytest.approx(1.5 / 8)
    # the longer axis spans (0, 1)
    assert xs.max() == pytest.approx(7.5 / 8)


def test_pixel_centers_match_flat_index_formula():
    # built from one arange per axis; the values are those of the flat
    # index formula, bit for bit, on a grid wider than tall and one taller
    for g in (GridGeometry(7, 3, 250.0), GridGeometry(5, 11, 30.0)):
        idx = np.arange(g.n)
        xs, ys = g.pixel_centers()
        assert np.array_equal(xs, (idx % g.width + 0.5) * g.pitch)
        assert np.array_equal(ys, (idx // g.width + 0.5) * g.pitch)
        cx, cy = g._axis_centers()
        assert np.array_equal(np.broadcast_to(cx, (g.height, g.width)).reshape(-1), xs)
        assert np.array_equal(np.broadcast_to(cy[:, None], (g.height, g.width)).reshape(-1), ys)


@pytest.mark.parametrize("width,height,pixel", [
    (0, 4, 250.0), (4, 0, 250.0), (1, 1, 250.0), (4, 4, 0.0),
    (4, 4, -1.0), (4, 4, float("nan")),
])
def test_geometry_rejects_degenerate(width, height, pixel):
    with pytest.raises(ValueError):
        GridGeometry(width, height, pixel)


def test_geometry_allows_two_pixel_grid():
    g = GridGeometry(2, 1, 250.0)
    assert g.n == 2
    assert g.pitch == 0.5


def test_intensity_raster_validation():
    g = GridGeometry(3, 3, 250.0)
    with pytest.raises(ValueError):
        IntensityRaster(g, np.full((3, 3), 256.0), 0.0)
    with pytest.raises(ValueError):
        IntensityRaster(g, np.full((3, 3), -1.0), 0.0)
    with pytest.raises(ValueError):
        IntensityRaster(g, np.full((3, 3), np.nan), 0.0)
    with pytest.raises(ValueError):
        IntensityRaster(g, np.zeros((2, 3)), 0.0)
    with pytest.raises(ValueError, match="timestamp must be finite"):
        IntensityRaster(g, np.zeros((3, 3)), math.nan)


@pytest.mark.parametrize("mass, mask, floor, message", [
    (np.full(8, 1 / 8), np.ones(9, bool), 1e-10, "mass/mask length"),
    (np.full(9, 1 / 9), np.ones(8, bool), 1e-10, "mass/mask length"),
    (np.full(9, 1 / 9), np.ones(9, bool), 0.0, "floor must be positive"),
    (np.r_[0.0, np.full(8, 1 / 8)], np.ones(9, bool), 1e-10, "strictly positive"),
    (np.full(9, 0.1), np.ones(9, bool), 1e-10, "sum to 1"),
], ids=["short_mass", "short_mask", "zero_floor", "zero_mass", "sum_0.9"])
def test_mass_field_validation(mass, mask, floor, message):
    with pytest.raises(ValueError, match=message):
        MassField(GridGeometry(3, 3, 250.0), mass, mask, floor)


# ---------------------------------------------------------------------------
# PGM + sidecar round trip

def test_pgm_round_trip_bit_exact(tmp_path):
    r = make_raster(width=7, height=5, seed=3, timestamp=1234.5)
    path = tmp_path / "scene.pgm"
    save_raster(r, path)
    back = load_raster(path)
    assert back.geometry == r.geometry
    assert back.timestamp == 1234.5
    assert np.array_equal(back.values, r.values)


def test_pgm_reader_accepts_comments_and_whitespace(tmp_path):
    payload = bytes(range(6))
    raw = b"P5 # magic\n# full comment line\n 3\t2 # dims\n255\n" + payload
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    path.with_suffix(".json").write_text(
        json.dumps({"pixel_size_m": 100.0, "timestamp_s": 0.0}))
    r = load_raster(path)
    assert r.geometry.width == 3 and r.geometry.height == 2
    assert np.array_equal(r.flat, np.arange(6.0))


def test_pgm_truncated_payload(tmp_path):
    r = make_raster()
    path = tmp_path / "t.pgm"
    save_raster(r, path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(TruncationError):
        load_raster(path)


def test_pgm_bad_magic_and_maxval(tmp_path):
    path = tmp_path / "b.pgm"
    path.with_suffix(".json").write_text(
        json.dumps({"pixel_size_m": 100.0, "timestamp_s": 0.0}))
    path.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        load_raster(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        load_raster(path)


@pytest.mark.parametrize("raw, message, names_file", [
    (b"P5\n2 2", "unexpected end of PGM header", True),
    (b"P5\n2 2 # no line end", "unterminated comment in PGM header", True),
    (b"P5\n2 x\n255\n" + bytes(4), "non-integer PGM header field", True),
    (b"P5\n0 2\n255\n", "non-positive PGM dimensions", True),
    (b"P5\n2 2\n255", "missing separator before PGM payload", True),
])
def test_pgm_header_errors(tmp_path, raw, message, names_file):
    # each branch fails before the sidecar is read, so none is written
    path = tmp_path / "h.pgm"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=message) as exc:
        load_raster(path)
    assert (str(path) in str(exc.value)) == names_file


def test_sidecar_errors(tmp_path):
    r = make_raster()
    path = tmp_path / "m.pgm"
    save_raster(r, path)

    meta = path.with_suffix(".json")
    meta.unlink()
    with pytest.raises(MetadataError):
        load_raster(path)

    meta.write_text("{not json")
    with pytest.raises(MetadataError):
        load_raster(path)

    meta.write_text(json.dumps({"timestamp_s": 0.0}))
    with pytest.raises(MetadataError):
        load_raster(path)

    meta.write_text(json.dumps({"pixel_size_m": -5.0, "timestamp_s": 0.0}))
    with pytest.raises(MetadataError):
        load_raster(path)

    meta.write_text(json.dumps({"pixel_size_m": "wide", "timestamp_s": 0.0}))
    with pytest.raises(MetadataError):
        load_raster(path)


@pytest.mark.parametrize("key, body", [
    ("pixel_size_m", '{"pixel_size_m": 1e400, "timestamp_s": 0.0}'),
    ("timestamp_s", '{"pixel_size_m": 250.0, "timestamp_s": NaN}'),
], ids=["inf_pixel_size", "nan_timestamp"])
def test_sidecar_non_finite_value_names_the_sidecar_and_key(tmp_path, key, body):
    # JSON reads 1e400 as inf and accepts NaN
    path = tmp_path / "m.pgm"
    save_raster(make_raster(), path)
    path.with_suffix(".json").write_text(body)
    with pytest.raises(MetadataError, match=rf"m\.json: '{key}' must be finite"):
        load_raster(path)


@pytest.mark.parametrize("body, key", [
    ('{"pixel_size_m": true, "timestamp_s": 0.0}', "pixel_size_m"),
    ('{"pixel_size_m": 250.0, "timestamp_s": false}', "timestamp_s"),
], ids=["true_pixel_size", "false_timestamp"])
def test_sidecar_refuses_booleans(tmp_path, body, key):
    # JSON booleans load as Python bools, which are ints: true was a 1 m pixel
    path = tmp_path / "m.pgm"
    save_raster(make_raster(), path)
    path.with_suffix(".json").write_text(body)
    with pytest.raises(MetadataError, match=rf"m\.json: missing or non-numeric '{key}'"):
        load_raster(path)


def test_explicit_meta_path(tmp_path):
    r = make_raster(timestamp=9.0)
    path = tmp_path / "img.pgm"
    meta = tmp_path / "elsewhere.json"
    save_raster(r, path)
    path.with_suffix(".json").rename(meta)
    back = load_raster(path, meta_path=meta)
    assert back.timestamp == 9.0


# ---------------------------------------------------------------------------
# masking and normalization

def test_ice_mask_threshold_semantics():
    g = GridGeometry(4, 1, 250.0)
    r = IntensityRaster(g, np.array([[0.0, 120.0, 121.0, 255.0]]), 0.0)
    mask = apply_ice_mask(r)
    assert mask.tolist() == [False, False, True, True]
    assert apply_ice_mask(r, threshold=0.0).tolist() == [False, True, True, True]
    with pytest.raises(ValueError):
        apply_ice_mask(r, threshold=300.0)


def test_normalize_is_unit_sum_and_strictly_positive():
    rng = np.random.default_rng(8)
    for trial in range(5):
        r = make_raster(width=9, height=7, seed=trial)
        p = normalize_to_mass(r, floor=1e-10)
        assert p.mass.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(p.mass > 0)


def test_normalize_floor_semantics():
    g = GridGeometry(2, 1, 250.0)
    r = IntensityRaster(g, np.array([[0.0, 200.0]]), 0.0)
    floor = 1e-3
    p = normalize_to_mass(r, floor=floor)
    n = g.n
    # zero-intensity pixel carries exactly the floor mass
    assert p.mass[0] == pytest.approx(floor / (1 + n * floor), rel=1e-12)
    assert p.floor_mass == pytest.approx(floor / (1 + n * floor), rel=1e-12)
    # intensity ratios survive up to the shared additive background
    total = 200.0
    expected1 = (200.0 + floor * total) / (total * (1 + n * floor))
    assert p.mass[1] == pytest.approx(expected1, rel=1e-12)


def test_normalize_rejects_empty_image():
    g = GridGeometry(3, 3, 250.0)
    r = IntensityRaster(g, np.zeros((3, 3)), 0.0)
    with pytest.raises(DegenerateImageError):
        normalize_to_mass(r)
    with pytest.raises(ValueError):
        normalize_to_mass(make_raster(), floor=0.0)


def test_mask_is_carried_not_applied():
    r = make_raster(width=5, height=5, seed=2)
    mask = apply_ice_mask(r, threshold=128.0)
    p = normalize_to_mass(r, mask=mask)
    assert p.mask.shape == (25,)
    assert np.array_equal(p.mask, mask)
    # masked-out pixels still carry transportable mass
    assert np.all(p.mass[~mask] > 0)


# ---------------------------------------------------------------------------
# contrast equalization

def clahe_reference(vals, tile, clip_limit, mask):
    """Straightforward per-pixel re-implementation used as an oracle."""
    h, w = vals.shape
    nty = (h + tile - 1) // tile
    ntx = (w + tile - 1) // tile
    maps = np.zeros((nty, ntx, 256))
    cy = np.zeros(nty)
    cx = np.zeros(ntx)
    for ty in range(nty):
        y0, y1 = ty * tile, min((ty + 1) * tile, h)
        cy[ty] = (y0 + y1 - 1) / 2.0
        for tx in range(ntx):
            x0, x1 = tx * tile, min((tx + 1) * tile, w)
            cx[tx] = (x0 + x1 - 1) / 2.0
            block = vals[y0:y1, x0:x1][mask[y0:y1, x0:x1]]
            hist = np.zeros(256)
            for v in block.ravel():
                hist[min(int(v), 255)] += 1
            n = hist.sum()
            if n == 0:
                maps[ty, tx] = np.arange(256.0)
                continue
            limit = clip_limit * n / 256.0
            excess = np.maximum(hist - limit, 0.0).sum()
            hist = np.minimum(hist, limit) + excess / 256.0
            cdf = np.cumsum(hist)
            maps[ty, tx] = 255.0 * cdf / cdf[-1]
    out = vals.astype(float).copy()
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            iy = np.searchsorted(cy, y)
            iy0, iy1 = max(iy - 1, 0), min(iy, nty - 1)
            fy = 0.0 if iy1 == iy0 else np.clip((y - cy[iy0]) / (cy[iy1] - cy[iy0]), 0, 1)
            ix = np.searchsorted(cx, x)
            ix0, ix1 = max(ix - 1, 0), min(ix, ntx - 1)
            fx = 0.0 if ix1 == ix0 else np.clip((x - cx[ix0]) / (cx[ix1] - cx[ix0]), 0, 1)
            b = min(int(vals[y, x]), 255)
            v00, v01 = maps[iy0, ix0, b], maps[iy0, ix1, b]
            v10, v11 = maps[iy1, ix0, b], maps[iy1, ix1, b]
            out[y, x] = (1 - fy) * ((1 - fx) * v00 + fx * v01) \
                + fy * ((1 - fx) * v10 + fx * v11)
    return np.clip(out, 0.0, 255.0)


@pytest.mark.parametrize("height, width, tile, clip_limit, empty_tile", [
    (64, 64, 8, 2.0, False),
    (45, 37, 8, 2.0, False),   # a partial last tile along both axes
    (40, 33, 7, 2.0, False),   # an odd tile
    (48, 40, 8, 2.0, True),    # one tile maps by the identity
    (64, 64, 8, 0.5, False),   # a clip below the flat histogram
], ids=["64x64", "45x37_partial", "tile_7", "empty_tile", "clip_0.5"])
def test_equalize_matches_scalar_reference(height, width, tile, clip_limit,
                                           empty_tile):
    rng = np.random.default_rng(3)
    vals = np.clip(rng.normal(120.0, 40.0, (height, width)), 0.0, 255.0)
    r = IntensityRaster(GridGeometry(width, height, 250.0), vals, 0.0)
    mask = vals > 60.0
    if empty_tile:
        mask[tile:2 * tile, tile:2 * tile] = False
    eq = equalize_contrast(r, tile=tile, clip_limit=clip_limit,
                           mask=mask.reshape(-1))
    ref = clahe_reference(vals, tile, clip_limit, mask)
    assert np.abs(eq.values - ref).max() < 1e-9


def test_equalize_constant_image_stays_constant():
    g = GridGeometry(32, 32, 250.0)
    r = IntensityRaster(g, np.full((32, 32), 77.0), 0.0)
    eq = equalize_contrast(r, tile=8, clip_limit=2.0)
    assert np.unique(eq.values).size == 1


def test_equalize_masked_pixels_keep_raw_values():
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.0, 255.0, (16, 16))
    g = GridGeometry(16, 16, 250.0)
    r = IntensityRaster(g, vals, 0.0)
    mask = np.zeros(g.n, dtype=bool)
    mask[: g.n // 2] = True
    eq = equalize_contrast(r, tile=8, mask=mask)
    flat = eq.flat
    assert np.array_equal(flat[~mask], r.flat[~mask])
    assert not np.array_equal(flat[mask], r.flat[mask])


def test_equalize_output_stays_in_range():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 255.0, (40, 24))
    g = GridGeometry(24, 40, 250.0)
    eq = equalize_contrast(IntensityRaster(g, vals, 0.0), tile=8)
    assert eq.values.min() >= 0.0
    assert eq.values.max() <= 255.0


@pytest.mark.parametrize("height, width", [(8, 40), (40, 8)])
def test_equalize_with_one_tile_along_an_axis(height, width):
    # the axis of one tile blends nothing along it
    vals = np.random.default_rng(6).uniform(0.0, 255.0, (height, width))
    r = IntensityRaster(GridGeometry(width, height, 250.0), vals, 0.0)
    eq = equalize_contrast(r, tile=8, clip_limit=2.0)
    ref = clahe_reference(vals, 8, 2.0, np.ones((height, width), dtype=bool))
    assert np.abs(eq.values - ref).max() < 1e-9


def test_equalize_rejects_bad_tile():
    r = make_raster(width=6, height=4)
    with pytest.raises(ValueError):
        equalize_contrast(r, tile=1)
    with pytest.raises(ValueError):
        equalize_contrast(r, tile=5)  # exceeds the short axis
    with pytest.raises(ValueError):
        equalize_contrast(r, tile=4, clip_limit=0.0)
    # in range by value, but a float cannot index a tile and a bool is no size
    big = make_raster(width=16, height=16)
    for tile in (8.0, True):
        with pytest.raises(ValueError, match="tile"):
            equalize_contrast(big, tile=tile)


# ---------------------------------------------------------------------------
# float32 exchange format

def test_field_round_trip_with_nan(tmp_path):
    g = GridGeometry(5, 3, 250.0)
    rng = np.random.default_rng(6)
    vals = rng.normal(0.0, 1.0, g.n)
    vals[[2, 7]] = np.nan
    path = tmp_path / "vx.f32"
    write_field(path, vals, g)
    back, meta = read_field(path)
    assert back.shape == (3, 5)
    assert meta["dtype"] == "f32le"
    assert np.isnan(back.reshape(-1)[2]) and np.isnan(back.reshape(-1)[7])
    finite = ~np.isnan(vals)
    assert np.allclose(back.reshape(-1)[finite],
                       vals[finite].astype(np.float32), rtol=0, atol=0)


def test_field_bytes_match_float64_sentinel_formula(tmp_path):
    # the sentinel goes in after the float32 cast; the bytes are those of
    # substituting it in float64 first, infinities and overflow included
    g = GridGeometry(4, 3, 250.0)
    vals = np.array([0.1, -2.5, np.nan, 1e39, -1e39, np.inf, -np.inf, 3e-46,
                     np.nan, 7.0, -0.0, 1.0 / 3.0])
    path = tmp_path / "f.f32"
    with np.errstate(over="ignore"):
        write_field(path, vals, g)
        ref = np.where(np.isnan(vals), -3.4e38, vals).astype("<f4").tobytes()
    assert path.read_bytes() == ref


def test_field_read_errors(tmp_path):
    g = GridGeometry(4, 4, 250.0)
    path = tmp_path / "f.f32"
    write_field(path, np.zeros(16), g)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(TruncationError):
        read_field(path)
    meta = path.with_suffix(".json")
    doc = json.loads(meta.read_text())
    doc["dtype"] = "f64le"
    meta.write_text(json.dumps(doc))
    with pytest.raises(MetadataError):
        read_field(path)


@pytest.mark.parametrize("width, height, key, bad", [
    (2.7, 3.2, "width", "2.7"),
    (-2, -3, "width", "-2"),
    (0, 5, "width", "0"),
    (4, 4.0, "height", "4.0"),
], ids=["fractional", "negative", "zero_width", "float_height"])
def test_field_sidecar_refuses_bad_grid_sizes(tmp_path, width, height, key, bad):
    # 2.7 x 3.2 loaded as a 3 x 2 grid and 0 x 5 as an empty array
    path = tmp_path / "f.f32"
    path.write_bytes(np.zeros(6, dtype="<f4").tobytes() if width != 0 else b"")
    path.with_suffix(".json").write_text(json.dumps(
        {"width": width, "height": height, "dtype": "f32le", "nodata": -3.4e38}))
    with pytest.raises(MetadataError,
                       match=rf"f\.json: '{key}' must be a positive integer, got {bad}"):
        read_field(path)


@pytest.mark.parametrize(
    "nodata", [True, None, "x", [1], 10**400, math.nan, math.inf, 1e300],
    ids=["bool", "null", "string", "list", "huge_int", "nan", "inf", "beyond_float32"])
def test_field_sidecar_refuses_non_numeric_nodata(tmp_path, nodata):
    # true masked every 1.0; null, NaN and 1e300 (inf in float32) kept the
    # sentinel as a number; a list or an overflowing integer raised past the
    # CLI as a traceback
    path = tmp_path / "f.f32"
    write_field(path, np.array([1.0, np.nan, 2.0, 3.0]), GridGeometry(2, 2, 250.0))
    meta = path.with_suffix(".json")
    doc = json.loads(meta.read_text())
    doc["nodata"] = nodata
    meta.write_text(json.dumps(doc))
    with pytest.raises(MetadataError, match=r"f\.json: .*'nodata'"):
        read_field(path)


def test_field_sidecar_without_nodata_keeps_the_default(tmp_path):
    path = tmp_path / "f.f32"
    write_field(path, np.array([1.0, np.nan, 2.0, 3.0]), GridGeometry(2, 2, 250.0))
    meta = path.with_suffix(".json")
    doc = json.loads(meta.read_text())
    del doc["nodata"]
    meta.write_text(json.dumps(doc))
    back, _ = read_field(path)
    assert np.array_equal(np.isnan(back), [[False, True], [False, False]])


def test_field_sidecar_errors_name_the_sidecar(tmp_path):
    g = GridGeometry(4, 4, 250.0)
    path = tmp_path / "f.f32"
    write_field(path, np.zeros(16), g)
    meta = path.with_suffix(".json")
    doc = json.loads(meta.read_text())
    del doc["width"]
    meta.write_text(json.dumps(doc))
    with pytest.raises(MetadataError, match="f.json: missing or non-numeric 'width'"):
        read_field(path)
    meta.write_text("{not json")
    with pytest.raises(MetadataError, match="f.json: invalid JSON"):
        read_field(path)
    meta.write_text("[4, 4]")
    with pytest.raises(MetadataError, match="f.json: expected a JSON object"):
        read_field(path)
    meta.unlink()
    with pytest.raises(MetadataError, match="missing sidecar .*f.json"):
        read_field(path)
