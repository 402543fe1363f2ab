"""In-memory span recording around the library's module bindings.

The library binds its functions with ``from .x import f``, so the same
function object sits under several module names (``hyper.gamma``,
``transforms.gamma``, ...).  `Tracer.install` replaces every binding of a
traced function in every ``hypergamma`` module with one wrapper, so a call
is recorded whichever module made it.

Functions are recorded in two ways:

* a *span* (name, start, end, parent span) for each call of a layer
  boundary; a span's self time is its duration minus the part of it that
  its child spans cover;
* a *counter* (calls and total seconds, no span) for the hot inner
  operations (`BigReal.pow_rational`, integrand evaluations), whose time
  therefore stays in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# "<module>.<attribute path>" of each traced function's defining binding
SPANNED = (
    "cli.main",
    "catalog.catalog_load",
    "catalog.run_all",
    "catalog.verify_identity",
    "transforms.derive_main",
    "transforms.verify_gosper_proof",
    "transforms.verify_zj_split",
    "transforms.apply_rule",
    "exact.RatFunc.compose",
    "gammaexpr.ge_eval",
    "gammaexpr.num_equal",
    "hyper.f21_eval",
    "hyper.f21_series",
    "hyper.f21_integral",
    "hyper.f21_terminating",
    "mpreal.gamma",
    "mpreal.tanh_sinh_integrate",
)
COUNTED = ("mpreal.BigReal.pow_rational",)
MODULES = ("cli", "catalog", "transforms", "gammaexpr", "hyper", "mpreal", "exact")

# span fields
ID, NAME, START, END, PARENT, LABEL, FAILED = range(7)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the length of the union
    of its children's intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(s[ID], ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[s[ID]] = (hi - lo) - covered
    return out


class Tracer:
    """Records spans and counters for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.gamma_seen: set = set()
        self.gamma_repeats = 0
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = {
            "mpreal.gamma": self._on_gamma,
            "mpreal.tanh_sinh_integrate": self._on_quadrature,
        }.get(name)
        label_of = _record_id if name == "catalog.verify_identity" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None,
                    label_of(args) if label_of else None, False]
            spans.append(span)
            stack.append(span[ID])
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                counts[name] += 1

        return wrapper

    def _on_gamma(self, args, kwargs):
        x = args[0] if args else kwargs["x"]
        prec = args[1] if len(args) > 1 else kwargs["prec"]
        key = (getattr(x, "val", x), getattr(x, "err", None), prec.work_bits)
        if key in self.gamma_seen:
            self.gamma_repeats += 1
        else:
            self.gamma_seen.add(key)
        return args, kwargs

    def _on_quadrature(self, args, kwargs):
        f = args[0] if args else kwargs.pop("f")
        counts = self.counts

        def integrand(u, v):
            counts["mpreal.tanh_sinh_integrate.integrand_evals"] += 1
            return f(u, v)

        return (integrand,) + tuple(args[1:]), kwargs

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every binding of the traced functions in `package`'s modules."""
        modules = {
            m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
        }
        modules["__init__"] = package
        for names, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name in names:
                mod, path = name.split(".", 1)
                owner_path, _, attr = path.rpartition(".")
                owner = modules[mod]
                if owner_path:
                    owner = getattr(owner, owner_path)
                original = getattr(owner, attr)
                wrapper = make(name, original)
                if owner_path:  # a method: one class attribute
                    self._set(owner, attr, wrapper)
                    continue
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Aggregate spans and counters into per-layer figures."""
        own = self_times(self.spans)
        out: dict[str, float] = defaultdict(float)
        kids = defaultdict(set)
        for s in self.spans:
            if s[PARENT] is not None:
                kids[s[PARENT]].add(s[NAME])
        crosschecked = 0
        quad_failed = 0
        for s in self.spans:
            name = s[NAME]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += s[END] - s[START]
            out[f"{name}.self_s"] += own[s[ID]]
            if s[LABEL] is not None:
                out[f"catalog.record.{s[LABEL]}.s"] += s[END] - s[START]
            if name == "hyper.f21_eval" and {
                "hyper.f21_series", "hyper.f21_integral"
            } <= kids[s[ID]]:
                crosschecked += 1
            if name == "mpreal.tanh_sinh_integrate" and s[FAILED]:
                quad_failed += 1
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
            out[f"{name}.s"] = self.seconds[name]
        key = "mpreal.tanh_sinh_integrate.integrand_evals"
        out[key] = self.counts[key]
        if out["hyper.f21_eval.calls"]:
            out["hyper.f21_eval.crosscheck_ratio"] = (
                crosschecked / out["hyper.f21_eval.calls"]
            )
        if out["mpreal.tanh_sinh_integrate.calls"]:
            out["mpreal.tanh_sinh_integrate.fail_ratio"] = (
                quad_failed / out["mpreal.tanh_sinh_integrate.calls"]
            )
        if out["mpreal.gamma.calls"]:
            out["mpreal.gamma.repeat_ratio"] = (
                self.gamma_repeats / out["mpreal.gamma.calls"]
            )
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "label", "failed")
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


def _record_id(args):
    return getattr(args[0], "id", None)
