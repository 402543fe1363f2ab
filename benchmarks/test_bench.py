"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import evalmix  # noqa: E402
import run  # noqa: E402
from spans import self_times  # noqa: E402
from speed import PROBE_REF_S, ref_seconds  # noqa: E402


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert evalmix.requests(7, 200) == evalmix.requests(7, 200)
    assert evalmix.requests(7, 200) != evalmix.requests(8, 200)
    assert evalmix.requests(7, 50) == evalmix.requests(7, 200)[:50]
    assert evalmix.requests(evalmix.warmup_seed(7), 50) != evalmix.requests(7, 50)


def test_inputs_have_the_documented_shares_and_ranges():
    reqs = evalmix.requests(3, 1100)
    counts = {region: sum(r.region == region for r in reqs) for region in evalmix.REGIONS}
    assert counts == {"inner": 400, "terminating": 100, "near-one": 300, "negative": 300}
    assert sum(r.euler_gap is not None for r in reqs if not r.terminating) == 900
    for r in reqs:
        # every request has a route: series, exact sum, or a converging integral
        assert abs(r.z) <= evalmix.Fraction(9, 10) or r.terminating or (
            r.euler_gap is not None and r.euler_gap >= evalmix.MIN_EULER_GAP
        )
        if r.region == "inner" and r.euler_gap is not None:
            assert r.euler_gap >= evalmix.MIN_EULER_GAP
        for x in (r.a, r.b, r.c):
            assert abs(x) <= 3 and x.denominator <= 12
        assert (r.region == "terminating") == r.terminating
        if r.region == "inner":
            assert abs(r.z) <= evalmix.Fraction(9, 10)
        if r.region == "near-one":
            assert evalmix.Fraction(9, 10) < r.z <= 1 - evalmix.Fraction(1, 1000)
        if r.region == "negative":
            assert r.z <= evalmix.Fraction(-11, 10)


def _declared():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def test_emitted_metric_names_equal_the_declared_ones():
    end_to_end, per_layer, workloads = _declared()
    assert workloads == list(run.WORKLOADS)
    assert run.END_TO_END == end_to_end
    assert run.PER_LAYER == per_layer
    setup = {"setup_s": 0.2, "setup_ref_s": 0.21, "catalog_load_s": 0.01}
    result = {
        "latencies": [1.0, 2.0, 3.0],
        "peak_rss_mb": 30.0,
        "margin": 7,
        "overhead_s": 0.1,
        "layers": {"hyper.f21_series.calls": 3, "hyper.f21_series.self_s": 0.5},
    }
    assert set(run.end_to_end_metrics(setup, result)) == set(end_to_end)
    assert set(run.per_layer_metrics(setup, result)) == set(per_layer)


def test_record_ids_match_the_bundled_catalog():
    data = json.loads(
        (HERE.parent / "src" / "hypergamma" / "data" / "identities.json").read_text()
    )
    assert sorted(r["id"] for r in data["records"]) == sorted(run.RECORD_IDS)


def test_self_time_subtracts_the_union_of_child_intervals():
    # id, name, start, end, parent, label, failed
    spans = [
        [0, "root", 0.0, 10.0, None, None, False],
        [1, "a", 1.0, 4.0, 0, None, False],
        [2, "b", 3.0, 6.0, 0, None, False],  # overlaps a: union is 1..6
        [3, "c", 2.0, 3.0, 1, None, False],
        [4, "d", 8.0, 12.0, 0, None, False],  # clipped to the parent's end
        [5, "leaf", 5.0, 5.5, 2, None, False],
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - 5.0 - 2.0
    assert own[1] == 3.0 - 1.0
    assert own[2] == 3.0 - 0.5
    assert own[3] == 1.0
    assert own[4] == 4.0
    assert own[5] == 0.5


def test_percentiles_of_one_and_many_values():
    assert run.percentiles([2.5]) == (2.5, 2.5)
    p50, p90 = run.percentiles([float(i) for i in range(1, 101)])
    assert p50 == 50.5 and 90 < p90 < 91


def test_reference_seconds_divide_out_the_probe_speed():
    # probe samples end at 1, 2 and 3 s; the last two lie inside (1.5, 3.5)
    ends, durations = [1.0, 2.0, 3.0], [0.01, 2 * PROBE_REF_S, 2 * PROBE_REF_S]
    inside = 2.0 - 4 * PROBE_REF_S  # wall time less the probe's own samples
    assert abs(ref_seconds(ends, durations, 1.5, 3.5) - inside / 2) < 1e-12
    # no sample inside: the latest one before it gives the speed
    assert abs(ref_seconds(ends, durations, 1.2, 1.7) - 0.5 * PROBE_REF_S / 0.01) < 1e-12
