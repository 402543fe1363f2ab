"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from helpers import points
from hypergamma.catalog import (
    CANARY_CATALOG,
    DEFAULT_CATALOG,
    catalog_load,
    record_precision,
    run_all,
    verify_identity,
)
from hypergamma.exact import (
    PoleError,
    DegenerateCompositionError,
    Poly,
    RatFunc,
)
from hypergamma.gammaexpr import Verdict, achieved_digits, num_equal
from hypergamma.hyper import (
    SERIES_THRESHOLD,
    HypParams,
    f21_integral,
    f21_series,
    pochhammer,
)
from hypergamma.mpreal import BigReal, Precision, gamma, pi_value, sin_pi_times, sqrt
from hypergamma.transforms import (
    MAIN_ARGUMENT,
    MAIN_PARAMS,
    CUBIC,
    QUADRATIC_C_2B,
    QUADRATIC_MEAN,
    HypTerm,
    apply_rule,
    derive_main,
    twelfth_degree_map,
    verify_gosper_proof,
)

RESULTS: dict[int, bool] = {}

RECORDS = {r.id: r for r in catalog_load(DEFAULT_CATALOG)}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    RESULTS[number] = True
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def record_passes(record_id: str) -> "ReportEntry":
    record = RECORDS[record_id]
    entry = verify_identity(record, record_precision(record, 100))
    assert entry.verdict == "pass", f"{record_id}: {entry.verdict} {entry.detail}"
    return entry


def test_criterion_01_main_evaluation_chain():
    with criterion(1, "derive-chain at 150 digits: params, exact argument, "
                      ">= 140-digit three-way agreement, under 120 s"):
        start = time.perf_counter()
        trace = derive_main(Precision.of(150))
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"
        assert trace.steps[-1][1].params == HypParams(F(7, 48), F(31, 48), F(9, 8))
        assert trace.final_argument == F(29884728384, 34239431521)
        assert trace.verdict is Verdict.EQUAL
        prec = Precision.of(150)
        assert num_equal(trace.constant_value, trace.series_value, prec) is Verdict.EQUAL
        assert num_equal(trace.constant_value, trace.printed_value, prec) is Verdict.EQUAL
        assert num_equal(trace.series_value, trace.printed_value, prec) is Verdict.EQUAL
        assert trace.agreement_digits >= 140, trace.agreement_digits
        assert achieved_digits(trace.constant_value, trace.printed_value) >= 140


def test_criterion_02_exact_chain_zero_tolerance():
    with criterion(2, "composed Q1*Q2*C map equals the printed degree-12 "
                      "rational function; value at 1/4 exact"):
        seed = HypTerm((), HypParams(F(1, 2), F(5, 8), F(5, 4)), RatFunc.x())
        t1 = apply_rule(QUADRATIC_C_2B, seed)
        t1 = HypTerm(t1.prefactor, t1.params.swapped(), t1.argument)
        t3 = apply_rule(CUBIC, apply_rule(QUADRATIC_MEAN, t1))
        assert t3.argument == twelfth_degree_map()
        assert t3.argument(F(1, 4)) == F(172872, 185039) ** 2
        assert t3.argument(F(1, 4)) == MAIN_ARGUMENT
        assert t3.params == MAIN_PARAMS


def test_criterion_03_gosper_formula_sweep_and_proof():
    with criterion(3, "25-point parameter sweep of the 2F1(1/4) formula at "
                      "100 digits; all five proof steps at b in {5/8,3/4,7/10} "
                      "at 60 digits"):
        entry = record_passes("gosper-quarter-family")
        assert entry.digits >= 100
        for b in (F(5, 8), F(3, 4), F(7, 10)):
            verdicts = verify_gosper_proof(b, Precision.of(60))
            assert len(verdicts) == 5
            assert all(v is Verdict.EQUAL for v in verdicts.values()), (b, verdicts)


def test_criterion_04_zucker_joyce_at_100_digits():
    with criterion(4, "all four Zucker-Joyce evaluations at 100 digits via "
                      "the logarithmic 1 - z connection formula, under 60 s each"):
        for rid in (
            "zucker-joyce-2400-2401",
            "zucker-joyce-25-27",
            "zucker-joyce-125-128",
            "zucker-joyce-1323-1331",
        ):
            record = RECORDS[rid]
            (_, _, z, _), = points(record)
            # beyond the direct series, with c = a + b: auto takes the log
            # connection route (A&S 15.3.10)
            assert z > SERIES_THRESHOLD
            start = time.perf_counter()
            entry = verify_identity(record, record_precision(record, 100))
            elapsed = time.perf_counter() - start
            assert entry.verdict == "pass", (rid, entry.detail)
            assert entry.digits >= 100
            assert elapsed < 60, f"{rid} took {elapsed:.1f}s"


def test_criterion_05_campbell_levrie_at_100_digits():
    with criterion(5, "2F1(1/2,2/3;1/6;1/4) = (4/3) 2^(1/3) at 100 digits"):
        entry = record_passes("campbell-levrie")
        assert entry.digits >= 100


def test_criterion_06_classical_theorems():
    with criterion(6, "Gauss (Beta-integral form), Gauss-II, Bailey, Kummer "
                      "on 30 random tuples each at 80 digits"):
        for rid in (
            "gauss-summation",
            "gauss-second-theorem",
            "bailey-theorem",
            "kummer-theorem",
        ):
            entry = record_passes(rid)
            assert entry.digits >= 80, (rid, entry.digits)


def test_criterion_07_terminating_and_strange():
    with criterion(7, "Apagodu-Zeilberger family exact for n = 0..30; "
                      "Gosper's strange series on the 5x5 grid at 80 digits"):
        entry = record_passes("apagodu-zeilberger-family")
        assert entry.digits == "exact"
        entry = record_passes("gosper-strange-series")
        assert entry.digits >= 80


def test_criterion_08_concluding_identity():
    with criterion(8, "concluding elementary-minus-Gamma-cube identity at "
                      "100 digits"):
        entry = record_passes("conclusion-identity")
        assert entry.precision_digits == 100
        assert entry.digits >= 100, entry.digits


def test_criterion_09_property_suites():
    with criterion(9, "reflection x200 and multiplication x200, series-vs-"
                      "integral x50, compose homomorphism x500, Pochhammer "
                      "recurrence n<=50 x20, canary fails"):
        prec = Precision.of(50)
        pi = pi_value(prec)
        rng = random.Random(20260808)

        for _ in range(200):
            x = F(rng.randint(1, 399), 400)
            lhs = gamma(x, prec) * gamma(1 - x, prec) * sin_pi_times(x, prec)
            d = lhs - pi
            assert not d.definitely_positive() and not d.definitely_negative(), x

        two = BigReal.from_int(2, prec.work_bits)
        three = BigReal.from_int(3, prec.work_bits)
        for _ in range(100):
            x = F(rng.randint(1, 60), rng.randint(2, 24))
            lhs = gamma(x, prec) * gamma(x + F(1, 2), prec)
            rhs = two.pow_rational(1 - 2 * x) * sqrt(pi) * gamma(2 * x, prec)
            d = lhs - rhs
            assert not d.definitely_positive() and not d.definitely_negative(), x
        for _ in range(100):
            x = F(rng.randint(1, 60), rng.randint(2, 24))
            lhs = gamma(x, prec) * gamma(x + F(1, 3), prec) * gamma(x + F(2, 3), prec)
            rhs = 2 * pi * three.pow_rational(F(1, 2) - 3 * x) * gamma(3 * x, prec)
            d = lhs - rhs
            assert not d.definitely_positive() and not d.definitely_negative(), x

        p40 = Precision.of(40)
        done = 0
        while done < 50:
            b = F(rng.randint(1, 16), 8)
            c = b + F(rng.randint(1, 16), 8)
            a = F(rng.randint(-12, 12), 8)
            z = F(rng.randint(-9, 9), 10)
            if z == 0:
                continue
            p = HypParams(a, b, c)
            s = f21_series(p, z, p40)
            i = f21_integral(p, z, p40)
            assert num_equal(s, i, p40) is not Verdict.DISTINCT, (p, z)
            done += 1

        done = 0
        while done < 500:
            try:
                f = RatFunc(
                    Poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]),
                    Poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]),
                )
                g = RatFunc(
                    Poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]),
                    Poly([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]),
                )
                x = F(rng.randint(-30, 30), rng.randint(1, 12))
                want = f(g(x))
                got = f.compose(g)(x)
            except (PoleError, DegenerateCompositionError):
                continue
            assert got == want
            done += 1

        for _ in range(20):
            x = F(rng.randint(-80, 80), rng.randint(1, 12))
            for n in range(51):
                assert pochhammer(x, n + 1) == pochhammer(x, n) * (x + n)

        canary = catalog_load(CANARY_CATALOG)[0]
        entry = verify_identity(canary, record_precision(canary, 100))
        assert entry.verdict == "fail"
        assert entry.interval_lhs and entry.interval_rhs


def test_criterion_10_full_catalog_and_summary():
    with criterion(10, "headline results reproduced at full fidelity: the "
                       "whole default catalog passes (no scaled-down runs)"):
        report = run_all(DEFAULT_CATALOG, digits=100)
        assert report.exit_code == 0, report.to_text()
        assert report.counts["pass"] == len(report.entries) >= 13
        missing = [n for n in range(1, 10) if not RESULTS.get(n)]
        assert not missing, f"criteria incomplete: {missing}"
