"""Dense ice-drift velocimetry from co-registered image pairs.

Intensity images become probability mass fields; an entropy-regularized
transport problem between them is solved by Sinkhorn scaling; per-pixel
transport cost, barycentric displacement, velocity, and strain follow.
A block-matching baseline and synthetic test scenes are included.
"""
from .raster import (
    GridGeometry, IntensityRaster, MassField,
    FormatError, TruncationError, MetadataError, DegenerateImageError,
    load_raster, save_raster, apply_ice_mask, equalize_contrast,
    normalize_to_mass, write_field, read_field, NODATA,
)
from .otcore import KernelSpec, ScalingPair, sinkhorn
from .fields import (
    NotConvergedError, wasserstein_value,
    TransportSummary, BarycentricMap, VelocityField, StrainField,
    transport_distance, transport_speed, barycentric_map, velocity,
    strain, principal_strain,
)
from .ncc import NccMatch, ncc_displacements, matches_to_csv
from .synth import (
    FloeSpec, Scenario, SweepPoint, SCENARIO_KINDS,
    make_scenario, render, render_pair, sweep, sweep_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "GridGeometry", "IntensityRaster", "MassField",
    "FormatError", "TruncationError", "MetadataError", "DegenerateImageError",
    "load_raster", "save_raster", "apply_ice_mask", "equalize_contrast",
    "normalize_to_mass", "write_field", "read_field", "NODATA",
    "KernelSpec", "ScalingPair", "NotConvergedError", "sinkhorn",
    "wasserstein_value",
    "TransportSummary", "BarycentricMap", "VelocityField", "StrainField",
    "transport_distance", "transport_speed", "barycentric_map", "velocity",
    "strain", "principal_strain",
    "NccMatch", "ncc_displacements", "matches_to_csv",
    "FloeSpec", "Scenario", "SweepPoint", "SCENARIO_KINDS",
    "make_scenario", "render", "render_pair", "sweep", "sweep_to_csv",
    "__version__",
]
