"""Spans around calls into each layer, recorded from outside the program.

Each public function is wrapped at the attribute its caller resolves: the
CLI calls ``otcore.sinkhorn`` through the module, while ``synth.sweep`` calls
the name it imported, so both ``otvelo.otcore.sinkhorn`` and
``otvelo.synth.sinkhorn`` are wrapped.  Spans are kept in memory; a span's
self time is its duration minus that of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, span name)
WRAPPED = (
    ("otvelo.cli", "main", "cli.main"),
    ("otvelo.cli", "compare_features", "cli.compare_features"),
    ("otvelo.raster", "load_raster", "raster.load_raster"),
    ("otvelo.raster", "normalize_to_mass", "raster.normalize_to_mass"),
    ("otvelo.synth", "normalize_to_mass", "raster.normalize_to_mass"),
    ("otvelo.raster", "write_field", "raster.write_field"),
    ("otvelo.raster", "read_field", "raster.read_field"),
    ("otvelo.otcore", "sinkhorn", "otcore.sinkhorn"),
    ("otvelo.synth", "sinkhorn", "otcore.sinkhorn"),
    ("otvelo.fields", "wasserstein_value", "otcore.wasserstein_value"),
    ("otvelo.synth", "wasserstein_value", "otcore.wasserstein_value"),
    ("otvelo.fields", "transport_distance", "fields.transport_distance"),
    ("otvelo.fields", "barycentric_map", "fields.barycentric_map"),
    ("otvelo.fields", "velocity", "fields.strain"),
    ("otvelo.fields", "strain", "fields.strain"),
    ("otvelo.fields", "principal_strain", "fields.strain"),
    ("otvelo.ncc", "ncc_displacements", "ncc.ncc_displacements"),
    ("otvelo.synth", "render", "synth.render"),
    ("otvelo.synth", "sweep", "synth.sweep"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: bool = False
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration
            span.counts = _counts(name, args, kwargs, result)
            return result
        return wrapper


def _counts(name: str, args, kwargs, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    if name == "otcore.sinkhorn":
        p, _, kernel = args[:3]
        log_domain = kwargs.get("log_domain", args[5] if len(args) > 5 else False)
        return {"sweeps": result.iterations, "converged": int(result.converged),
                "flop": sweep_flop(p.geometry, kernel, log_domain) * result.iterations}
    if name == "raster.write_field":
        return {"bytes": 4 * args[1].size}
    if name == "ncc.ncc_displacements":
        return {"matches": len(result)}
    return {}


def sweep_flop(geometry, kernel, log_domain: bool) -> float:
    """Floating-point operations of one sweep (two kernel applies), computed
    from array shapes, not measured.

    conv linear: each apply is two GEMMs, (h x h)(h x w) and (h x w)(w x w),
    2hw(h + w) flop.  dense linear: each apply is one N x N GEMV, 2N^2 flop.
    conv log: each apply runs 2r + 1 shifted ``logaddexp`` passes per axis;
    every element of a pass counts as 2 flop (the weight add and the
    logaddexp).  dense log: one log-sum-exp over N x N, 3N^2 flop.
    """
    from otvelo.otcore import required_truncation_radius
    h, w = geometry.height, geometry.width
    n = h * w
    if kernel.mode == "dense":
        per_apply = (3.0 if log_domain else 2.0) * n * n
    elif not log_domain:
        per_apply = 2.0 * h * w * (h + w)
    else:
        radius = kernel.truncation_radius or required_truncation_radius(
            kernel.epsilon, geometry)
        per_apply = 0.0
        for length, rows in ((w, h), (h, w)):
            r = min(radius, length - 1)
            per_apply += 2.0 * rows * (length * (2 * r + 1) - r * (r + 1))
    return 2.0 * per_apply


# per-layer metrics reported with seconds, calls and errors
TIMED_LAYERS = (
    "raster.load_raster", "raster.normalize_to_mass", "raster.write_field",
    "raster.read_field", "otcore.sinkhorn", "otcore.wasserstein_value",
    "fields.transport_distance", "fields.barycentric_map", "fields.strain",
    "ncc.ncc_displacements", "synth.render", "cli.compare_features",
)


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        mine = [s for s in spans if s.name == layer]
        out[f"{layer}.s"] = sum(s.duration for s in mine)
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.errors"] = sum(s.error for s in mine)
    solves = [s.counts for s in spans if s.name == "otcore.sinkhorn" and s.counts]
    sweeps = sum(c["sweeps"] for c in solves)
    flop = sum(c["flop"] for c in solves)
    solve_s = out["otcore.sinkhorn.s"]
    out["otcore.sweeps"] = sweeps
    out["otcore.sweep_ms"] = 1e3 * solve_s / sweeps if sweeps else 0.0
    out["otcore.converged_frac"] = (sum(c["converged"] for c in solves) / len(solves)
                                    if solves else 0.0)
    out["otcore.gflop_per_sweep"] = flop / sweeps / 1e9 if sweeps else 0.0
    out["otcore.gflops"] = flop / solve_s / 1e9 if solve_s else 0.0
    out["raster.write_field.mb"] = sum(s.counts.get("bytes", 0) for s in spans
                                       if s.name == "raster.write_field") / 1e6
    out["ncc.matches"] = sum(s.counts.get("matches", 0) for s in spans)
    out["cli.self_s"] = sum(s.self_s for s in spans if s.name == "cli.main")
    return out
