"""Single-band raster handling: PGM I/O, ice masking, contrast equalization,
and normalization of intensities into probability mass fields.

Grid conventions used throughout the package:

* pixels are stored row-major; the flat index of pixel (ix, iy) is
  ``i = iy * width + ix``
* pixel centers live on a normalized coordinate frame in which the longer
  image axis spans [0, 1]; one normalized unit of length corresponds to
  ``norm_scale = max(width, height) * pixel_size`` meters
* derived rasters are exchanged as little-endian float32 files with a JSON
  sidecar; invalid pixels carry the sentinel ``NODATA`` on disk and NaN in
  memory
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NODATA = -3.4e38
DEFAULT_FLOOR = 1e-10
DEFAULT_MASK_THRESHOLD = 120.0
DEFAULT_TILE = 8
DEFAULT_CLIP_LIMIT = 2.0

_HIST_BINS = 256


class FormatError(ValueError):
    """A PGM header or payload could not be parsed."""


class TruncationError(FormatError):
    """A PGM header promises a different pixel count than the payload holds."""


class MetadataError(ValueError):
    """A JSON sidecar is missing, malformed, or carries invalid values."""


class DegenerateImageError(ValueError):
    """An image carries no intensity mass at all."""


@dataclass(frozen=True)
class GridGeometry:
    """Raster grid shape plus the physical size of one (square) pixel in meters."""

    width: int
    height: int
    pixel_size: float

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.width * self.height < 2:
            raise ValueError("grid must contain at least two pixels")
        if not (self.pixel_size > 0 and math.isfinite(self.pixel_size)):
            raise ValueError("pixel_size must be positive and finite")

    @property
    def n(self) -> int:
        return self.width * self.height

    @property
    def norm_scale(self) -> float:
        """Meters per normalized coordinate unit."""
        return max(self.width, self.height) * self.pixel_size

    @property
    def pitch(self) -> float:
        """Pixel pitch in normalized units; the longer axis spans [0, 1]."""
        return 1.0 / max(self.width, self.height)

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat row-major arrays of normalized pixel-center coordinates."""
        cx, cy = self._axis_centers()
        return np.tile(cx, self.height), np.repeat(cy, self.width)

    def _axis_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalized center coordinates of the columns (``width`` values)
        and of the rows (``height`` values): the x and y of
        :meth:`pixel_centers`, which broadcast against a (height, width)
        grid as ``cx`` and ``cy[:, None]``."""
        return ((np.arange(self.width) + 0.5) * self.pitch,
                (np.arange(self.height) + 0.5) * self.pitch)


@dataclass(frozen=True, eq=False)
class IntensityRaster:
    """A single-band image with acquisition metadata.

    ``values`` is a (height, width) float64 array restricted to [0, 255];
    ``timestamp`` is seconds since an arbitrary shared epoch.
    """

    geometry: GridGeometry
    values: np.ndarray
    timestamp: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.geometry.height, self.geometry.width):
            raise ValueError(
                f"values shape {vals.shape} does not match geometry "
                f"{self.geometry.height}x{self.geometry.width}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("intensities must be finite")
        if vals.min() < 0 or vals.max() > 255:
            raise ValueError("intensities must lie in [0, 255]")
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


@dataclass(frozen=True, eq=False)
class MassField:
    """A strictly positive probability mass per pixel, flat row-major.

    ``floor`` is the additive background constant handed to
    :func:`normalize_to_mass` (relative to total image intensity); the
    resulting guaranteed per-pixel mass is :attr:`floor_mass`.  ``mask`` marks
    pixels considered ice; it gates derived outputs only, never the transport
    itself.
    """

    geometry: GridGeometry
    mass: np.ndarray
    mask: np.ndarray
    floor: float

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64).reshape(-1)
        mask = np.asarray(self.mask, dtype=bool).reshape(-1)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "mask", mask)
        n = self.geometry.n
        if mass.shape != (n,) or mask.shape != (n,):
            raise ValueError("mass/mask length must equal width * height")
        if not (self.floor > 0):
            raise ValueError("floor must be positive")
        if not np.all(mass > 0):
            raise ValueError("mass must be strictly positive everywhere")
        if abs(mass.sum() - 1.0) > 1e-12:
            raise ValueError("mass must sum to 1 within 1e-12")

    @property
    def floor_mass(self) -> float:
        """Mass guaranteed at every pixel by the additive floor."""
        return self.floor / (1.0 + self.geometry.n * self.floor)


def _pool(field: MassField) -> MassField:
    """2x2 sum-pooled mass on the grid of half the sides and twice the pitch,
    whose pixel centres are the means of their four fine centres: the coarser
    level of a coarse-to-fine :func:`otvelo.otcore.sinkhorn` solve."""
    g = field.geometry
    coarse = GridGeometry(g.width // 2, g.height // 2, 2.0 * g.pixel_size)

    def pool(v):
        # (a00 + a01) + (a10 + a11) is the pairwise order of np.sum over axes
        # (1, 3), 12x faster; + on the bool mask is logical or.  Formed in
        # the first sum: a second freed temporary raised the peak RSS of a
        # 512^2 solve by 0.6 MB
        (a00, a01), (a10, a11) = v.reshape(
            coarse.height, 2, coarse.width, 2).transpose(1, 3, 0, 2)
        out = a00 + a01
        out += a10 + a11
        return out

    return MassField(coarse, pool(field.mass), pool(field.mask), field.floor)


# ---------------------------------------------------------------------------
# PGM + sidecar I/O

def _sidecar_path(path: Path) -> Path:
    """The sidecar of a data file: its path with a ``.json`` suffix."""
    return path.with_suffix(".json")


def _read_sidecar(meta_path: Path, keys: tuple[str, ...], optional=()) -> dict:
    """The sidecar's JSON object, checked to carry a number under each key
    and under each optional key it has."""
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError as exc:
        raise MetadataError(f"missing sidecar {meta_path}") from exc
    except json.JSONDecodeError as exc:
        raise MetadataError(f"{meta_path}: invalid JSON") from exc
    if not isinstance(meta, dict):
        raise MetadataError(f"{meta_path}: expected a JSON object")
    for key in (*keys, *(k for k in optional if k in meta)):
        # exact types: JSON true and false load as bools, a subclass of int
        if type(meta.get(key)) not in (int, float):
            raise MetadataError(f"{meta_path}: missing or non-numeric '{key}'")
        try:
            float(meta[key])
        except OverflowError:
            raise MetadataError(f"{meta_path}: '{key}' must be finite, got an "
                                "integer too large for a float") from None
    return meta


def _read_pgm_tokens(raw: bytes, count: int, path: Path) -> tuple[list[bytes], int]:
    # Tokenizer for the PGM header: whitespace separated, '#' starts a
    # comment running to end of line.
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(raw):
            raise FormatError(f"{path}: unexpected end of PGM header")
        c = raw[pos:pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            nl = raw.find(b"\n", pos)
            if nl < 0:
                raise FormatError(f"{path}: unterminated comment in PGM header")
            pos = nl + 1
        else:
            end = pos
            while end < len(raw) and raw[end:end + 1] not in b" \t\r\n":
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    return tokens, pos


def load_raster(path: str | Path, meta_path: str | Path | None = None) -> IntensityRaster:
    """Load an 8-bit binary PGM (P5) plus its JSON sidecar.

    The sidecar defaults to the image path with a ``.json`` suffix and must
    provide a finite ``pixel_size_m`` (> 0) and a finite ``timestamp_s``.
    """
    path = Path(path)
    raw = path.read_bytes()
    tokens, pos = _read_pgm_tokens(raw, 4, path)
    if tokens[0] != b"P5":
        raise FormatError(f"{path}: expected binary PGM magic 'P5', got {tokens[0]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer PGM header field") from exc
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive PGM dimensions")
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PGM supported (maxval 255, got {maxval})")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(raw) or raw[pos:pos + 1] not in b" \t\r\n":
        raise FormatError(f"{path}: missing separator before PGM payload")
    size = len(raw) - pos - 1
    if size != width * height:
        raise TruncationError(
            f"{path}: header promises {width * height} pixels, payload holds {size} bytes"
        )
    values = np.frombuffer(raw, dtype=np.uint8, offset=pos + 1).astype(np.float64)
    values = values.reshape(height, width)

    meta_path = _sidecar_path(path) if meta_path is None else Path(meta_path)
    meta = _read_sidecar(meta_path, ("pixel_size_m", "timestamp_s"))
    if not meta["pixel_size_m"] > 0:
        raise MetadataError(f"{meta_path}: pixel_size_m must be positive")
    for key in ("pixel_size_m", "timestamp_s"):
        if not math.isfinite(meta[key]):
            raise MetadataError(f"{meta_path}: '{key}' must be finite, got {meta[key]}")
    geometry = GridGeometry(width, height, float(meta["pixel_size_m"]))
    return IntensityRaster(geometry, values, float(meta["timestamp_s"]))


def save_raster(raster: IntensityRaster, path: str | Path) -> None:
    """Write an 8-bit binary PGM plus its JSON sidecar, the path with a
    ``.json`` suffix (inverse of load_raster)."""
    path = Path(path)
    g = raster.geometry
    data = np.clip(np.rint(raster.values), 0, 255).astype(np.uint8)
    header = f"P5\n{g.width} {g.height}\n255\n".encode("ascii")
    path.write_bytes(header + data.tobytes())
    _sidecar_path(path).write_text(json.dumps(
        {"pixel_size_m": g.pixel_size, "timestamp_s": raster.timestamp}) + "\n")


# ---------------------------------------------------------------------------
# Preprocessing

def apply_ice_mask(raster: IntensityRaster, threshold: float = DEFAULT_MASK_THRESHOLD) -> np.ndarray:
    """Flat boolean mask of pixels strictly brighter than ``threshold``."""
    if not (0 <= threshold <= 255):
        raise ValueError("mask threshold must lie in [0, 255]")
    return raster.flat > threshold


def equalize_contrast(raster: IntensityRaster, tile: int = DEFAULT_TILE,
                      clip_limit: float = DEFAULT_CLIP_LIMIT,
                      mask: np.ndarray | None = None) -> IntensityRaster:
    """Contrast-limited adaptive histogram equalization.

    Per-tile histograms (over masked-in pixels only, when ``mask`` is given)
    are clipped at ``clip_limit * n_tile / 256`` with the excess redistributed
    uniformly, turned into CDF mappings, and blended bilinearly between tile
    centers.  A tile without masked-in pixels maps by the identity.
    Masked-out pixels keep their raw values.

    Parameters
    ----------
    raster : IntensityRaster
    tile : int
        Tile side length in pixels, 2 <= tile <= min(width, height); the
        last tile along each axis takes the remainder.
    clip_limit : float
        Histogram clip factor relative to a flat histogram.
    mask : flat bool array, optional
        Pixels to equalize; defaults to all.
    """
    g = raster.geometry
    # a bool is an int, but no tile side
    if (type(tile) is bool or not isinstance(tile, (int, np.integer))
            or not 2 <= tile <= min(g.width, g.height)):
        raise ValueError("tile must be an integer in [2, min(width, height)], "
                         f"got {tile!r}")
    if not clip_limit > 0:
        raise ValueError("clip_limit must be positive")
    mask2d = (np.ones((g.height, g.width), dtype=bool) if mask is None
              else np.asarray(mask, dtype=bool).reshape(g.height, g.width))
    bins = np.clip(np.floor(raster.values).astype(np.intp), 0, _HIST_BINS - 1)

    # One count over (tile, bin) keys, weighted by the mask, gives every
    # tile's histogram as floats.  They become mappings in place, with one
    # temporary for the excess, so the peak stays near a per-tile loop's.
    n_rows, n_cols = -(-g.height // tile), -(-g.width // tile)
    keys = np.add.outer(np.arange(g.height) // tile * (n_cols * _HIST_BINS),
                        np.arange(g.width) // tile * _HIST_BINS)
    keys += bins
    mappings = np.bincount(keys.reshape(-1), weights=mask2d.reshape(-1),
                           minlength=n_rows * n_cols * _HIST_BINS
                           ).reshape(n_rows, n_cols, _HIST_BINS)
    del keys
    counts = mappings.sum(axis=2, keepdims=True)
    clip_at = clip_limit * counts / _HIST_BINS
    excess = mappings - clip_at
    spill = np.maximum(excess, 0.0, out=excess).sum(axis=2, keepdims=True) / _HIST_BINS
    del excess
    np.minimum(mappings, clip_at, out=mappings)
    mappings += spill
    np.cumsum(mappings, axis=2, out=mappings)
    mappings[counts[..., 0] == 0] = np.arange(_HIST_BINS)  # then scaled by 255 / 255
    mappings *= 255.0 / mappings[..., -1:]

    # Bilinear blend between tile-center mappings, clamped at the borders.
    def _axis_weights(extent):
        coords = np.arange(extent, dtype=np.float64)
        lo = np.arange(0, extent, tile)
        centers = (lo + np.minimum(lo + tile, extent) - 1) / 2.0
        if len(centers) == 1:
            return np.zeros(len(coords), dtype=np.intp), np.zeros(len(coords))
        i0 = np.clip(np.searchsorted(centers, coords, side="right") - 1,
                     0, len(centers) - 2)
        frac = (coords - centers[i0]) / (centers[i0 + 1] - centers[i0])
        return i0, np.clip(frac, 0.0, 1.0)

    iy0, ty = (a[:, None] for a in _axis_weights(g.height))
    ix0, tx = _axis_weights(g.width)
    iy1 = np.minimum(iy0 + 1, n_rows - 1)
    ix1 = np.minimum(ix0 + 1, n_cols - 1)

    blended = ((1 - ty) * ((1 - tx) * mappings[iy0, ix0, bins]
                           + tx * mappings[iy0, ix1, bins])
               + ty * ((1 - tx) * mappings[iy1, ix0, bins]
                       + tx * mappings[iy1, ix1, bins]))
    out = np.where(mask2d, np.clip(blended, 0.0, 255.0), raster.values)
    return IntensityRaster(g, out, raster.timestamp)


def normalize_to_mass(raster: IntensityRaster, floor: float = DEFAULT_FLOOR,
                      mask: np.ndarray | None = None) -> MassField:
    """Turn intensities into a strictly positive unit-sum mass field.

    Every pixel receives ``floor`` times the total image intensity as an
    additive background before normalization, so zero-intensity pixels stay
    transport-feasible.  The ice mask, if given, is carried through untouched;
    it does not remove mass.
    """
    if not (floor > 0 and math.isfinite(floor)):
        raise ValueError("floor must be positive and finite")
    total = raster.flat.sum()
    if total <= 0:
        raise DegenerateImageError("image carries no intensity mass")
    weights = raster.flat + floor * total
    mass = weights / weights.sum()
    if mask is None:
        mask = np.ones(raster.geometry.n, dtype=bool)
    return MassField(raster.geometry, mass, mask, floor)


# ---------------------------------------------------------------------------
# float32 raster exchange format

def write_field(path: str | Path, values: np.ndarray, geometry: GridGeometry) -> None:
    """Write a derived raster as little-endian float32, row-major, NaN -> NODATA.

    A JSON sidecar ``{"width", "height", "dtype": "f32le", "nodata"}`` lands
    next to the data file.
    """
    path = Path(path)
    data = np.asarray(values, dtype=np.float64).reshape(geometry.height, geometry.width)
    # NaN stays NaN in float32, so the sentinel goes in after the cast
    data = data.astype("<f4")
    data[np.isnan(data)] = NODATA
    with open(path, "wb") as fh:
        data.tofile(fh)
    _sidecar_path(path).write_text(json.dumps({
        "width": geometry.width,
        "height": geometry.height,
        "dtype": "f32le",
        "nodata": NODATA,
    }) + "\n")


def read_field(path: str | Path) -> tuple[np.ndarray, dict]:
    """Read a float32 raster written by :func:`write_field`; NODATA -> NaN."""
    path = Path(path)
    meta_path = _sidecar_path(path)
    meta = _read_sidecar(meta_path, ("width", "height"), ("nodata",))
    if meta.get("dtype") != "f32le":
        raise MetadataError(f"{meta_path}: unsupported dtype {meta.get('dtype')!r}")
    for key in ("width", "height"):
        if type(meta[key]) is not int or meta[key] < 1:
            raise MetadataError(f"{meta_path}: '{key}' must be a positive "
                                f"integer, got {meta[key]!r}")
    width, height = meta["width"], meta["height"]
    raw = np.frombuffer(path.read_bytes(), dtype="<f4")
    if raw.size != width * height:
        raise TruncationError(f"{path}: expected {width * height} float32 values, got {raw.size}")
    data = raw.astype(np.float64).reshape(height, width)
    # the sentinel was quantized to float32 on write; compare at that precision
    with np.errstate(over="ignore"):
        nodata = float(np.float32(meta.get("nodata", NODATA)))
    # NaN, or a value beyond float32, equals no pixel and leaves the sentinel a number
    if not math.isfinite(nodata):
        raise MetadataError(f"{meta_path}: 'nodata' must be a finite float32, "
                            f"got {meta['nodata']}")
    data[data == nodata] = np.nan
    return data, meta
