"""Randomized enclosure stress: composite BigReal computations must always
contain the value computed independently by mpmath at much higher precision.

This is the load-bearing guarantee of the whole package (a verification
verdict is only as good as the bounds), so it gets hammered here with
random expression trees over the full operation set.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import mpmath
from mpmath import mp

from helpers import as_mpf, mpf_of_fraction

from hypergamma.mpreal import (
    BigReal,
    MPRealError,
    Precision,
    beta,
    cos_pi_times,
    exp,
    gamma,
    log,
    sin_pi_times,
    sqrt,
    tanh_sinh_integrate,
)

PREC = Precision.of(35)
BITS = PREC.work_bits


def setup_module():
    mp.dps = 160


def _leaf(rng: random.Random):
    q = F(rng.randint(-400, 400), rng.randint(1, 60))
    return BigReal.from_fraction(q, BITS), mpf_of_fraction(q)


def _build(rng: random.Random, depth: int):
    """Random expression tree; returns (BigReal, oracle mpf) or None when a
    domain constraint blocks the chosen op (the caller just retries)."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    op = rng.choice(
        ("add", "sub", "mul", "div", "sqrt", "exp", "log", "pow",
         "sinpi", "cospi", "gamma")
    )
    left = _build(rng, depth - 1)
    if left is None:
        return None
    x, ox = left
    if op in ("add", "sub", "mul", "div"):
        right = _build(rng, depth - 1)
        if right is None:
            return None
        y, oy = right
        if op == "add":
            return x + y, ox + oy
        if op == "sub":
            return x - y, ox - oy
        if op == "mul":
            return x * y, ox * oy
        if abs(oy) < mpmath.mpf("1e-6"):
            return None
        try:
            return x / y, ox / oy
        except MPRealError:
            return None
    if op == "sqrt":
        if ox <= mpmath.mpf("1e-6"):
            return None
        try:
            return sqrt(x), mp.sqrt(ox)
        except MPRealError:
            return None
    if op == "exp":
        if abs(ox) > 40:
            return None
        return exp(x), mp.exp(ox)
    if op == "log":
        if ox <= mpmath.mpf("1e-6"):
            return None
        try:
            return log(x), mp.log(ox)
        except MPRealError:
            return None
    if op == "pow":
        r = F(rng.randint(-9, 9), rng.randint(1, 6))
        if ox <= mpmath.mpf("1e-6") or abs(ox) > mpmath.mpf("1e6"):
            return None
        try:
            return x.pow_rational(r), ox ** mpf_of_fraction(r)
        except MPRealError:
            return None
    if op == "sinpi":
        if abs(ox) > 1000:
            return None
        return sin_pi_times(x, PREC), mp.sinpi(ox)
    if op == "cospi":
        if abs(ox) > 1000:
            return None
        return cos_pi_times(x, PREC), mp.cospi(ox)
    if op == "gamma":
        if ox < mpmath.mpf("0.05") or ox > 80:
            return None
        # Gamma takes exact rational arguments: the nearest rational with a
        # small denominator stands in for x (no draw from rng, so the rest of
        # the sweep is unchanged)
        q = F(float(x)).limit_denominator(64)
        return gamma(q, PREC), mp.gamma(mpf_of_fraction(q))
    return None  # pragma: no cover


def test_random_composite_enclosures():
    rng = random.Random(481216)
    built = 0
    interesting = 0
    while built < 1000:
        out = _build(rng, rng.randint(1, 5))
        if out is None:
            continue
        val, oracle = out
        built += 1
        if not val.is_exact:
            interesting += 1
        d = abs(as_mpf(val.val) - oracle)
        e = as_mpf(val.err)
        assert d <= e, (
            f"enclosure violated after {built} trees: value {as_mpf(val.val)}, "
            f"oracle {oracle}, |diff| {d} > err {e}"
        )
    assert interesting > 500  # the sweep actually exercises inexact paths


def test_rational_fraction_conversion_enclosures():
    rng = random.Random(77)
    for _ in range(500):
        q = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        x = BigReal.from_fraction(q, 120)
        d = abs(as_mpf(x.val) - mpf_of_fraction(q))
        assert d <= as_mpf(x.err)


def test_spec_beta_pair_quadrature_cross_check():
    # B(5/6 - 5/8, 2*(5/8) - 1) = B(5/24, 1/4), via its series and via quadrature
    prec = Precision.of(40)
    via_series = beta(F(5, 24), F(1, 4), prec)

    def integrand(u, v):
        return u.pow_rational(F(5, 24) - 1) * v.pow_rational(F(1, 4) - 1)

    via_quad = tanh_sinh_integrate(integrand, prec)
    diff = via_series - via_quad
    assert not diff.definitely_positive() and not diff.definitely_negative()
    assert via_series.to_decimal(12).startswith("8.2500727092")
