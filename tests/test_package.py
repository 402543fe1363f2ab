"""The package root: an explicit, module-free public surface."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import hypergamma
from hypergamma import mpreal


def test_every_exported_name_resolves_and_none_is_a_module():
    assert len(set(hypergamma.__all__)) == len(hypergamma.__all__)
    for name in hypergamma.__all__:
        value = getattr(hypergamma, name)
        assert not isinstance(value, types.ModuleType), name


def test_benchmark_names_are_exported():
    for name in ("DEFAULT_CATALOG", "MAIN_ARGUMENT", "Precision", "Verdict", "catalog_load"):
        assert name in hypergamma.__all__


def test_removed_shims_are_gone():
    removed = {
        "real_arith", "elementary", "rational_arith", "poly_eval", "rf_eval",
        "rf_compose", "ge_mul", "ge_num_equal", "agm_K", "ge_reflect",
        "CompiledRecord",
    }
    assert not removed & set(dir(hypergamma))
    assert not removed & set(dir(hypergamma.catalog))
    assert not hasattr(hypergamma.IdentityRecord, "compiled")
    assert not hasattr(hypergamma.RatFunc, "from_fraction")


def _benchmark_spans():
    """benchmarks/spans.py, loaded by path: the tracer of the benchmark
    harness, which wraps the functions it names in the package's modules."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _benchmark_spans()
    for name in spans.SPANNED + spans.COUNTED:
        module, path = name.split(".", 1)
        assert module in spans.MODULES, name
        owner = importlib.import_module(f"hypergamma.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_traced_arguments_keep_their_positions():
    # the tracer's hooks read gamma's (x, prec) and the integrand by position
    assert list(inspect.signature(mpreal.gamma).parameters)[:2] == ["x", "prec"]
    assert next(iter(inspect.signature(mpreal.tanh_sinh_integrate).parameters)) == "f"
