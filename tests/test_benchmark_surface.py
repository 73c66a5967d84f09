"""The names the benchmark's traced mode looks up must keep resolving.

``perfbench/run.py --trace 1`` wraps the functions listed in
``perfbench/tracing.py`` by module and attribute name and reads a few more
directly; a rename or deletion in ``otvelo`` would only surface there.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import otvelo
from otvelo import otcore

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve():
    for module_name, attr, _ in _load_tracing().WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (
            f"{module_name}.{attr}")


def test_probed_names_resolve():
    assert callable(otcore.kernel_apply)
    assert callable(otcore.required_truncation_radius)
    otcore.KernelSpec(1e-3, "conv").truncation_radius


def test_public_names_resolve():
    for name in otvelo.__all__:
        assert hasattr(otvelo, name), name
