"""One measured operation in a fresh interpreter; prints one JSON line.

    python3 benchmarks/worker.py setup
    python3 benchmarks/worker.py catalog-100 [--probe | --spans FILE]
    python3 benchmarks/worker.py chain-1000 [--probe | --spans FILE]
    python3 benchmarks/worker.py eval-mix --seed N --seconds S [--probe | --spans FILE]

``--probe`` samples the host's speed during the operation and adds its
time in reference seconds (see speed.py); set-up always does.  ``--spans``
turns tracing on and names the file the spans are written to when the
operation ends.  The library is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import evalmix
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG_DIGITS = 100
CHAIN_DIGITS = 1000


def import_library():
    if not (SRC / "hypergamma" / "__init__.py").is_file():
        raise SystemExit(f"no hypergamma package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypergamma

    if Path(hypergamma.__file__).resolve().parent != SRC / "hypergamma":
        raise SystemExit(f"imported hypergamma from {hypergamma.__file__}")
    return hypergamma


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_setup(args) -> dict:
    probe = SpeedProbe()
    probe.start()
    start = perf_counter()
    hg = import_library()
    imported = perf_counter()
    records = hg.catalog_load(hg.DEFAULT_CATALOG)
    end = perf_counter()
    probe.stop()
    return {
        "ok": len(records) > 0,
        "setup_s": end - start,
        "setup_ref_s": probe.ref_seconds(start, end),
        "catalog_load_s": end - imported,
    }


def op_catalog(args, hg, probe) -> dict:
    from hypergamma import cli

    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out):
        code = cli.main(["verify", "--digits", str(CATALOG_DIGITS), "--report", "json"])
    end = perf_counter()
    errors = []
    if code != 0:
        errors.append(f"verify exit code {code}")
    entries = json.loads(out.getvalue())["entries"]
    pins = {
        r["id"]: r.get("digits") or CATALOG_DIGITS
        for r in json.loads(Path(hg.DEFAULT_CATALOG).read_text())["records"]
    }
    if sorted(e["id"] for e in entries) != sorted(pins):
        errors.append("report does not list every catalog record")
    errors += [f"{e['id']}: {e['verdict']}" for e in entries if e["verdict"] != "pass"]
    margins = [
        e["digits"] - e["precision_digits"]
        for e in entries
        if isinstance(e["digits"], int)
    ]
    retried = sum(e["precision_digits"] > pins.get(e["id"], 0) for e in entries)
    return {
        "ok": not errors,
        "errors": errors,
        **timing(probe, start, end),
        "margin": min(margins),
        "retry_ratio": retried / len(entries),
    }


def op_chain(args, hg, probe) -> dict:
    from hypergamma import transforms

    prec = hg.Precision.of(CHAIN_DIGITS)
    start = perf_counter()
    trace = transforms.derive_main(prec)
    end = perf_counter()
    errors = []
    if trace.verdict is not hg.Verdict.EQUAL:
        errors.append(f"verdict {trace.verdict.value}")
    if trace.final_argument != hg.MAIN_ARGUMENT:
        errors.append(f"final argument {trace.final_argument}")
    if trace.agreement_digits is None:
        errors.append("no agreement digits reported")
    return {
        "ok": not errors,
        "errors": errors,
        **timing(probe, start, end),
        "margin": (trace.agreement_digits or 0) - CHAIN_DIGITS,
    }


def timing(probe, start: float, end: float) -> dict:
    """Wall seconds of (start, end), and its reference seconds when a probe
    ran; the probe's own samples are part of the wall time."""
    out = {"seconds": end - start}
    if probe is not None:
        out["ref_seconds"] = probe.ref_seconds(start, end)
    return out


def _mpf(t) -> list:
    sign, man, exp, bc = t
    return [int(sign), int(man), int(exp), int(bc)]


class LatencyLimit(BaseException):
    """A request ran past LATENCY_LIMIT_S; a BaseException so that no
    handler in the library swallows it."""


def _over_limit(signum, frame):
    raise LatencyLimit


def _limited(call, req) -> list:
    """[start, end, status, val, err] of one request under LATENCY_LIMIT_S."""
    t0 = perf_counter()
    try:
        # an alarm that fires at any point up to the disarming call lands
        # inside the outer try
        signal.setitimer(signal.ITIMER_REAL, evalmix.LATENCY_LIMIT_S)
        try:
            value = call(req)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status, val, err = "ok", _mpf(value.val), _mpf(value.err)
    except (Exception, LatencyLimit) as e:  # every failure is recorded by type
        status, val, err = type(e).__name__, None, None
    return [t0, perf_counter(), status, val, err]


def _evalmix_call(hg, req):
    from hypergamma import hyper

    p = hyper.HypParams(req.a, req.b, req.c)
    return hyper.f21_eval(p, req.z, hg.Precision.of(evalmix.DIGITS))


def warm_up_evalmix(args, hg) -> None:
    """One pattern cycle of requests from another seed, untimed."""
    signal.signal(signal.SIGALRM, _over_limit)
    for req in evalmix.requests(evalmix.warmup_seed(args.seed), len(evalmix.PATTERN)):
        _limited(lambda r: _evalmix_call(hg, r), req)


def op_evalmix(args, hg, probe) -> dict:
    timed = []
    stream = evalmix.stream(args.seed)
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        timed.append(_limited(lambda r: _evalmix_call(hg, r), next(stream)))
    # [latency, reference latency or None, status, val, err]
    results = [
        [t1 - t0, probe.ref_seconds(t0, t1) if probe else None, *rest]
        for t0, t1, *rest in timed
    ]
    return {"ok": True, "results": results}


OPS = {"catalog-100": op_catalog, "chain-1000": op_chain, "eval-mix": op_evalmix}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("op", choices=("setup", *OPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.op == "setup":
        out = op_setup(args)
    else:
        hg = import_library()
        if args.op == "eval-mix":
            warm_up_evalmix(args, hg)
        tracer = probe = None
        if args.spans:
            import spans

            tracer = spans.Tracer()
            tracer.install(hg)
        if args.probe:
            probe = SpeedProbe()
            probe.start()
        out = OPS[args.op](args, hg, probe)
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layers()
            tracer.write(Path(args.spans))
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
