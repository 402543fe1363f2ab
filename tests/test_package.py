"""The package root: an explicit, module-free public surface."""

from __future__ import annotations

import types

import hypergamma


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
