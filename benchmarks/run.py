"""hypergamma benchmark: one command, three workloads, every metric checked.

    python3 benchmarks/run.py --workload catalog-100 --seed 1 --seconds 30 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):

* ``catalog-100``  ``hypergamma verify --digits 100`` through ``cli.main`` on
  the bundled catalog, in a fresh process per run (cold caches, as a CLI
  user pays them); quadrature-bound.
* ``chain-1000``   ``derive_main(Precision.of(1000))``, in a fresh process per
  run; series-bound, no quadrature.
* ``eval-mix``     a closed loop with one client sending seeded ``f21_eval``
  requests at 50 digits to one warm process (see evalmix.py).

The run and every process it starts are pinned to one CPU, the highest
numbered one it may use: on a shared host, a process that moves between
CPUs of different momentary speed times less steadily.  Times are in
reference seconds, which divide out the host's momentary speed (see
speed.py); wall times are printed beside them.

Every run first measures set-up (import plus ``catalog_load``) in
SETUP_RUNS fresh processes.  A workload then measures for about
``--seconds`` (see `Run.repeat` and evalmix.py).  With ``--trace 1`` the
run makes one untraced and one traced pass, and reports per-layer figures
(see spans.py) and the tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every checked output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import evalmix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 11
RUN_DEADLINE_S = 170.0
SPANS_DIR = ROOT / ".bench_out" / "spans"
WORKLOADS = ("catalog-100", "chain-1000", "eval-mix")

END_TO_END = {
    "setup_s": "s",
    "latency_s": "s",
    "peak_rss_mb": "MB",
    "digits_margin": "digits",
}

RECORD_IDS = (
    "apagodu-zeilberger-family", "bailey-theorem", "campbell-levrie",
    "conclusion-identity", "gauss-second-theorem", "gauss-summation",
    "gosper-proof-steps", "gosper-quarter-family", "gosper-strange-series",
    "kummer-theorem", "main-derivation-chain", "main-evaluation",
    "rule-cubic", "rule-euler", "rule-quadratic-c-2b", "rule-quadratic-mean",
    "zj-split-transform", "zucker-joyce-125-128", "zucker-joyce-1323-1331",
    "zucker-joyce-2400-2401", "zucker-joyce-25-27",
)
PER_LAYER = {
    **{
        f"{layer}.{field}": unit
        for layer in (
            "hyper.f21_series", "hyper.f21_integral", "hyper.f21_eval",
            "mpreal.gamma", "mpreal.tanh_sinh_integrate", "gammaexpr.ge_eval",
        )
        for field, unit in (("calls", "count"), ("self_s", "s"))
    },
    **{
        f"{layer}.{field}": unit
        for layer in (
            "hyper.f21_terminating", "mpreal.BigReal.pow_rational",
            "exact.RatFunc.compose", "transforms.apply_rule",
        )
        for field, unit in (("calls", "count"), ("s", "s"))
    },
    "mpreal.tanh_sinh_integrate.integrand_evals": "count",
    "mpreal.tanh_sinh_integrate.fail_ratio": "ratio",
    "hyper.f21_eval.crosscheck_ratio": "ratio",
    "mpreal.gamma.repeat_ratio": "ratio",
    "gammaexpr.num_equal.calls": "count",
    "transforms.derive_main.s": "s",
    "transforms.verify_gosper_proof.s": "s",
    "transforms.verify_zj_split.s": "s",
    **{f"catalog.record.{rid}.s": "s" for rid in RECORD_IDS},
    "catalog.catalog_load.s": "s",
    "catalog.retry_ratio": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
# layers whose absence from a traced run means the tracing missed them
EXPECTED_LAYERS = {
    "catalog-100": (
        "cli.main", "catalog.run_all", "catalog.verify_identity",
        "transforms.derive_main", "transforms.verify_gosper_proof",
        "transforms.verify_zj_split", "transforms.apply_rule",
        "exact.RatFunc.compose", "gammaexpr.ge_eval", "gammaexpr.num_equal",
        "hyper.f21_eval", "hyper.f21_series", "hyper.f21_integral",
        "hyper.f21_terminating", "mpreal.gamma", "mpreal.tanh_sinh_integrate",
        "mpreal.BigReal.pow_rational",
    ),
    "chain-1000": (
        "transforms.derive_main", "transforms.apply_rule",
        "exact.RatFunc.compose", "gammaexpr.ge_eval", "gammaexpr.num_equal",
        "hyper.f21_eval", "hyper.f21_series", "mpreal.gamma",
    ),
    "eval-mix": (
        "hyper.f21_eval", "hyper.f21_series", "hyper.f21_integral",
        "hyper.f21_terminating", "mpreal.gamma", "mpreal.tanh_sinh_integrate",
        "mpreal.BigReal.pow_rational",
    ),
}
# per-layer fields that scale with the amount of work
EXTENSIVE = (".calls", ".s", ".self_s", ".integrand_evals")


class WorkerError(RuntimeError):
    pass


class Run:
    """One benchmark run: a deadline, and the worker processes it starts."""

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.deadline = perf_counter() + RUN_DEADLINE_S

    def worker(self, op: str, *extra: str) -> dict:
        """Run worker.py in a fresh interpreter and return its JSON line."""
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise WorkerError(f"{op}: run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), op, *extra],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{op}: killed at the run deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise WorkerError(f"{op}: exit {proc.returncode}: {tail[0]}")
        return json.loads(lines[-1])

    def repeat(self, op: str, *extra: str) -> list[dict]:
        """The operation in fresh processes, at least once, and again while
        one more, as long as the last, would end within --seconds."""
        out = []
        start = perf_counter()
        while True:
            begun = perf_counter()
            out.append(self.worker(op, *extra))
            now = perf_counter()
            if now - start + (now - begun) > self.seconds:
                return out


def percentiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile; the inclusive method never extrapolates
    beyond the slowest value, which matters for the few operations of the
    process workloads.  Only the median is a metric: the 90th percentile of
    four chain operations is their slowest, which follows the host's
    slowest moment in the run."""
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def spans_path(workload: str, seed: int, index: int) -> str:
    return str(SPANS_DIR / f"{workload}-seed{seed}-{index}.json")


# ---------------------------------------------------------------------------
# workloads


def measure_process_ops(run: Run, workload: str, trace: bool) -> dict:
    """catalog-100 and chain-1000: one operation per fresh process."""
    if not trace:
        ops, traced = run.repeat(workload, "--probe"), []
    else:  # one untraced and one traced operation
        ops = [run.worker(workload)]
        traced = [run.worker(workload, "--spans", spans_path(workload, run.seed, 0))]
    per_op = len(RECORD_IDS) if workload == "catalog-100" else 1
    done = ops + traced
    wrong = sum(len(o["errors"]) for o in done)
    for o in done:
        ref = f" ({o['ref_seconds']:.3f} reference s)" if "ref_seconds" in o else ""
        print(f"  op {o['seconds']:.3f} s{ref}  rss {o['peak_rss_mb']:.1f} MB"
              f"  margin {o['margin']}" + (f"  ERRORS {o['errors']}" if o["errors"] else ""))
    result = {
        "attempted": per_op * len(done),
        "failed": wrong,
        "correct": wrong == 0,
        "latencies": [o.get("ref_seconds", o["seconds"]) for o in ops],
        "wall": [o["seconds"] for o in ops],
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in ops),
        "margin": min(o["margin"] for o in done),
        "retry_ratio": statistics.median(o.get("retry_ratio", 0.0) for o in done),
    }
    if trace:
        result["layers"] = traced[0]["layers"]
        result["overhead_s"] = traced[0]["seconds"] - ops[0]["seconds"]
    return result


def evalmix_outcomes(seed: int, results: list) -> dict:
    """Check each request against the reference.  A request that raises
    fails, and so does an enclosure that misses the reference; a failed
    request counts as taking the whole latency limit, the most any request
    can take."""
    reqs = evalmix.requests(seed, len(results))
    out = {"reqs": reqs, "latencies": [], "wall": [], "margins": [], "failed": 0,
           "wrong": 0}
    for req, (latency, ref, status, val, err) in zip(reqs, results):
        if status == "ok":
            ok, digits = evalmix.check(req, val, err)
            if not ok:
                print(f"  WRONG enclosure for {req}")
                out["wrong"] += 1
            elif digits is not None:
                out["margins"].append(digits - evalmix.DIGITS)
        else:
            print(f"  FAILED {status} ({latency:.2f} s) for {req}")
            ok = False
        out["failed"] += not ok
        if not ok:
            latency = ref = evalmix.LATENCY_LIMIT_S
        out["wall"].append(latency)
        out["latencies"].append(latency if ref is None else ref)
    return out


def measure_evalmix(run: Run, trace: bool) -> dict:
    seed = str(run.seed)
    if not trace:
        untraced = run.worker(
            "eval-mix", "--seed", seed, "--seconds", str(run.seconds), "--probe"
        )
    else:  # the same requests, untraced and then traced, half the time each
        half = str(run.seconds / 2)
        untraced = run.worker("eval-mix", "--seed", seed, "--seconds", half)
        traced = run.worker(
            "eval-mix", "--seed", seed, "--seconds", half,
            "--spans", spans_path("eval-mix", run.seed, 0),
        )
    outcome = evalmix_outcomes(run.seed, untraced["results"])
    attempted = len(untraced["results"])
    report_evalmix_inputs(outcome["reqs"])
    result = {
        "attempted": attempted,
        "failed": outcome["failed"],
        "wrong": outcome["wrong"],
        "latencies": outcome["latencies"],
        "wall": outcome["wall"],
        "peak_rss_mb": untraced["peak_rss_mb"],
        # the mean, not the least: the least follows the one extreme
        # near-one request a seed happens to draw
        "margin": statistics.mean(outcome["margins"]),
    }
    if trace:
        traced_outcome = evalmix_outcomes(run.seed, traced["results"])
        result["attempted"] += len(traced["results"])
        result["failed"] += traced_outcome["failed"]
        result["wrong"] += traced_outcome["wrong"]
        n = len(traced["results"])
        result["layers"] = {  # per request
            name: value / n if name.endswith(EXTENSIVE) else value
            for name, value in traced["layers"].items()
        }
        common = min(len(outcome["latencies"]), len(traced_outcome["latencies"]))
        result["overhead_s"] = statistics.median(
            traced_outcome["latencies"][:common]
        ) - statistics.median(outcome["latencies"][:common])
    result["correct"] = result["wrong"] == 0
    return result


def report_evalmix_inputs(reqs) -> None:
    shares = {r: sum(q.region == r for q in reqs) / len(reqs) for r in evalmix.REGIONS}
    euler = sum(q.euler_gap is not None for q in reqs) / len(reqs)
    print("  eval-mix inputs: " + ", ".join(f"{r} {s:.3f}" for r, s in shares.items())
          + f"; Euler ordering {euler:.3f} of {len(reqs)} requests")


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setup: dict, result: dict) -> dict:
    return {
        "setup_s": setup["setup_ref_s"],
        "latency_s": statistics.median(result["latencies"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "digits_margin": result["margin"],
    }


def per_layer_metrics(setup: dict, result: dict) -> dict:
    layers = dict(result["layers"])
    layers["catalog.catalog_load.s"] = setup["catalog_load_s"]
    layers["catalog.retry_ratio"] = result.get("retry_ratio", 0.0)
    layers["trace.overhead_s"] = result["overhead_s"]
    return {name: layers.get(name, 0.0) for name in PER_LAYER}


def missing_layers(workload: str, layers: dict) -> list[str]:
    return [
        name for name in EXPECTED_LAYERS[workload]
        if not layers.get(f"{name}.calls")
    ]


def print_layers(layers: dict) -> None:
    selfs = {
        name[: -len(".self_s")]: value
        for name, value in layers.items()
        if name.endswith(".self_s")
    }
    print("  per-layer self time per operation:")
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        calls = layers.get(f"{name}.calls", 0)
        print(f"    {name:36s} {value:10.4f} s  {calls:10.1f} calls")
    top = max(selfs, key=selfs.get)
    print(f"  largest self time: {top} ({selfs[top]:.4f} s)")


# ---------------------------------------------------------------------------
# run


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process, and so every process it starts, to one CPU;
    returns (the number of CPUs it could use, the CPU it is pinned to)."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def print_header(args, nproc: int, cpu: int) -> None:
    import mpmath
    import mpmath.libmp

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print(f"python {platform.python_version()}  mpmath {mpmath.__version__}"
          f" ({mpmath.libmp.BACKEND} backend)  nproc {nproc} (pinned to cpu {cpu})"
          f"  commit {git_commit()}  loadavg {os.getloadavg()[0]:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hypergamma" / "__init__.py").is_file():
        print(f"benchmark: no hypergamma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print_header(args, *pin_to_one_cpu())
    run = Run(args.seed, args.seconds)
    try:
        setups = [run.worker("setup") for _ in range(SETUP_RUNS)]
        setup = {
            key: statistics.median(s[key] for s in setups)
            for key in ("setup_s", "setup_ref_s", "catalog_load_s")
        }
        print(f"  setup {setup['setup_s']:.4f} s ({setup['setup_ref_s']:.4f}"
              f" reference s), median of {SETUP_RUNS}")
        if args.workload == "eval-mix":
            result = measure_evalmix(run, bool(args.trace))
        else:
            result = measure_process_ops(run, args.workload, bool(args.trace))
    except WorkerError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    latencies = result["latencies"]
    p50, p90 = percentiles(latencies)
    beyond = sum(x > p90 for x in latencies)
    print(f"  {len(latencies)} operations, {beyond} beyond p90;"
          f" p50 {p50:.4f} s, p90 {p90:.4f} s"
          f" (wall p50 {statistics.median(result['wall']):.4f} s);"
          f" fail_ratio {result['failed']}/{result['attempted']}")
    if args.trace:
        metrics = per_layer_metrics(setup, result)
        print_layers(result["layers"])
        print(f"  tracing overhead {result['overhead_s']:.4f} s per operation")
        missing = missing_layers(args.workload, result["layers"])
        if missing:
            print(f"  no spans recorded for expected layers: {missing}")
            result["correct"] = False
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setup, result)
        units = END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
