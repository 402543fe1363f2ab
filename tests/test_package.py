"""The package root: an explicit, module-free public surface."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import hypergamma
from hypergamma import hyper, mpreal


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
    assert not hasattr(mpreal, "asin")
    assert not hasattr(hyper, "_integral_with_swap")
    assert not hasattr(hypergamma.catalog, "_rule_sample_params")
    # a family lists its points: nothing is drawn
    for name in ("SAMPLERS", "_rand_fraction", "_trunc", "random", "_sample_gauss",
                 "_sample_gauss_second", "_sample_bailey", "_sample_kummer",
                 "_sample_gosper_quarter"):
        assert not hasattr(hypergamma.catalog, name), name
    # the verdicts' interval arithmetic is mpreal's IntervalGap
    for name in ("ERR_BITS", "RU", "mpf_add", "mpf_sub", "mpf_div", "mpf_cmp"):
        assert not hasattr(hypergamma.gammaexpr, name), name
    # the rules are proved, not sampled
    assert not hasattr(hypergamma.catalog, "_rule_checks")
    assert not hasattr(hypergamma.HypTerm, "evaluate")
    rule_fields = {f.name for f in dataclasses.fields(hypergamma.TransformRule)}
    assert not {"sample_params", "sample_region"} & rule_fields
    assert not [name for name in dir(hypergamma.transforms) if name.startswith("_sample_")]
    for builder in ("from_gamma", "pi_power", "from_surd"):
        assert not hasattr(hypergamma.GammaExpr, builder), builder
    # one exact term walk, and functools caches in mpreal
    assert not hasattr(hypergamma, "PochRatio") and not hasattr(hyper, "PochRatio")
    for name in ("_GAMMA_CACHE", "_GAMMA_CACHE_MAX", "_LOG_INT_CACHE", "_LOG_INT_CACHE_MAX",
                 "_PI_CACHE", "_TS_NODE_CACHE", "_gamma_cached"):
        assert not hasattr(mpreal, name), name
    # logs are cached by value in `_ln`: no log-carrying subclass
    for name in ("LogReal", "_log_int", "_carrying_log", "_log_parts"):
        assert not hasattr(mpreal, name) and not hasattr(hypergamma, name), name
    assert not hasattr(hypergamma.gammaexpr, "_log_int")
    # a record's one compiled form is its run
    record = hypergamma.IdentityRecord.from_json(
        {"id": "x", "kind": "point-evaluation",
         "lhs": {"a": "1/2", "b": "1/2", "c": "3/2", "z": "1/4"}, "rhs": {"rational": "1"}}
    )
    for field in ("lhs", "rhs", "exact_rhs", "samples", "checks"):
        assert not hasattr(record, field), field


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _benchmark_module(name: str):
    """benchmarks/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_spans():
    """benchmarks/spans.py: the tracer of the benchmark harness, which wraps
    the functions it names in the package's modules."""
    return _benchmark_module("spans")


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
    # benchmarks/worker.py calls f21_eval(p, z, prec) by position
    assert list(inspect.signature(hyper.f21_eval).parameters) == ["p", "z", "prec"]


def test_traced_runs_still_reach_the_quadrature_layers(monkeypatch):
    """A traced benchmark run exits non-zero when a layer of its workload's
    EXPECTED_LAYERS (benchmarks/run.py) makes no call.  Of the Euler-integral
    layers, catalog-100 reaches them through Gauss's sum at z = 1 and
    through `f21_integral` in the proof's first step, whose i_t is its only
    tanh-sinh integral (the substitution steps are proved exactly), and
    eval-mix through its near-one requests whose c - a - b is not an
    integer; each must still call every such layer it expects, here at 15
    digits on the records and the first seed-1 requests.

    The counted `BigReal.pow_rational` is expected by both workloads too.
    No integrand calls it (each is a `PowerIntegrand`, which sums its logs
    in integers and takes one exp), so it is reached only through scalar
    powers: in the two catalog-100 records run here only Beta's 2^-(x+y),
    and in eval-mix only Pfaff's (1 - z)^-a for z < -9/10, which the first
    seed-1 requests include."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # run.py imports evalmix
    expected = _benchmark_module("run").EXPECTED_LAYERS
    evalmix = importlib.import_module("evalmix")
    layers = ("hyper.f21_integral", "mpreal.tanh_sinh_integrate", "mpreal.BigReal.pow_rational")
    prec = hypergamma.Precision.of(15)
    records = {r.id: r for r in hypergamma.catalog_load(hypergamma.DEFAULT_CATALOG)}

    def catalog_100():
        for rid in ("gauss-summation", "gosper-proof-steps"):
            hypergamma.catalog.verify_identity(records[rid], prec)

    def eval_mix():
        for req in evalmix.requests(1, 11):
            hypergamma.f21_eval(hypergamma.HypParams(req.a, req.b, req.c), req.z, prec)

    for workload, run in (("catalog-100", catalog_100), ("eval-mix", eval_mix)):
        tracer = _benchmark_spans().Tracer()
        tracer.install(hypergamma)
        try:
            run()
        finally:
            tracer.uninstall()
        calls = tracer.layers()
        for name in set(layers) & set(expected[workload]):
            assert calls.get(f"{name}.calls"), (workload, name)
