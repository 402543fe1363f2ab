"""Shared test helpers: oracle comparisons against mpmath's high level, and
an independent elliptic-integral oracle for the series engine."""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_shift, mpf_sub

from hypergamma.hyper import HyperError
from hypergamma.mpreal import (
    ERR_BITS,
    RU,
    BigReal,
    MPRealError,
    Precision,
    pi_value,
    sqrt,
)


def points(record) -> tuple:
    """A point or family record's points, as its run checks them: (sample
    text, HypParams, z, rhs value) with every template evaluated."""
    return record.run.args[0]


def rhs_enclosure(record, prec: Precision) -> BigReal:
    """The rhs enclosure of a one-point record at `prec`."""
    (_, _, _, rhs), = points(record)
    return record.run.args[1](rhs, prec)


def as_mpf(x):
    """Raw mpf tuple -> mpmath.mpf (no rounding)."""
    return mp.make_mpf(x)


def mpf_of_fraction(q: Fraction):
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def assert_encloses(x: BigReal, oracle, label: str = ""):
    """The BigReal interval [val-err, val+err] must contain the oracle value."""
    with mp.workdps(mp.dps + 30):
        d = abs(as_mpf(x.val) - oracle)
        e = as_mpf(x.err)
        assert d <= e, f"{label}: |{as_mpf(x.val)} - {oracle}| = {d} > err {e}"


def assert_close_digits(x: BigReal, oracle, digits: int, label: str = ""):
    """Agreement to the stated number of decimal digits (relative)."""
    with mp.workdps(mp.dps + 30):
        d = abs(as_mpf(x.val) - oracle)
        scale = max(1, abs(oracle))
        assert d <= scale * mpmath.mpf(10) ** (-digits), (
            f"{label}: disagreement {d} exceeds 10^-{digits}"
        )


def overlap(x: BigReal, y: BigReal) -> bool:
    """Whether two BigReal intervals intersect."""
    with mp.workdps(mp.dps + 30):
        d = abs(as_mpf(x.val) - as_mpf(y.val))
        return d <= as_mpf(x.err) + as_mpf(y.err)


def agm_K(k, prec: Precision) -> BigReal:
    """Complete elliptic integral K(k) = (pi/2) / AGM(1, sqrt(1-k^2)), by the
    quadratically convergent arithmetic-geometric mean.

    The modulus convention: K(k) integrates (1 - k^2 sin^2 t)^(-1/2).
    """
    wb = prec.work_bits + 16
    kB = BigReal.lift(k, wb)
    if kB.definitely_negative():
        raise HyperError("agm_K requires 0 <= k < 1")
    one_minus = 1 - kB * kB
    if not one_minus.definitely_positive():
        raise HyperError("agm_K requires k < 1")
    a = BigReal.from_int(1, wb)
    g = sqrt(one_minus)
    last_gap = None
    for _ in range(256):
        gap = a - g
        gap_val = mpf_abs(gap.val)
        if mpf_cmp(gap_val, mpf_shift(mpf_abs(a.val), -wb + 8)) <= 0:
            last_gap = mpf_add(gap_val, gap.err, ERR_BITS, RU)
            break
        a, g = (a + g) / 2, sqrt(a * g)
    if last_gap is None:
        raise MPRealError("AGM iteration failed to converge")
    out = pi_value(Precision(prec.target_digits, wb)) / (a + a)
    # |a - g| bounds the distance of a from the enclosed AGM limit, so the
    # induced K error is at most |K| * gap / a_low
    k_hi = mpf_add(mpf_abs(out.val), out.err, ERR_BITS, RU)
    a_lo = mpf_sub(mpf_abs(a.val), a.err, ERR_BITS, "d")
    if mpf_cmp(a_lo, fzero) <= 0:
        raise MPRealError("AGM lower bound collapsed")
    resid = mpf_div(mpf_mul(k_hi, last_gap, ERR_BITS, RU), a_lo, ERR_BITS, RU)
    return BigReal(out.val, mpf_add(out.err, resid, ERR_BITS, RU), prec.work_bits)
