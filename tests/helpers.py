"""Shared test helpers: oracle comparisons against mpmath's high level, an
independent elliptic-integral oracle for the series engine, and a
term-by-term reference copy of the series kernel."""

from __future__ import annotations

import math
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


def _reference_differences(pairs, const: int) -> tuple[int, int, int, int]:
    f = []
    for n in range(4):
        value = const
        for num, den in pairs:
            value *= num + den * n
        f.append(value)
    return f[0], f[1] - f[0], f[2] - 2 * f[1] + f[0], f[3] - 3 * f[2] + 3 * f[1] - f[0]


def _reference_harmonic(terms, n: int) -> tuple[int, int]:
    dens = [q * n + p for p, q, _ in terms]
    den = math.prod(dens)
    num = sum(s * (den // d) for (_, _, s), d in zip(terms, dens))
    return (-num, -den) if den < 0 else (num, den)


def reference_scaled_sum(upper, lower, u, v, D, wb, pwb, term_cap, companion=()):
    """`mpreal._scaled_sum` as it was written term by term, one step of the
    forward-difference tables and one `abs`-based bound per term, with the
    tail test every 32 terms: the oracle that the chunked kernel must equal
    bit for bit, (S, err) pairs and None alike."""
    up = [(a.numerator, a.denominator) for a in upper]
    lo = [(b.numerator, b.denominator) for b in lower]
    ad = math.prod(den for _, den in up)
    bd = math.prod(den for _, den in lo)
    P, P1, P2, P3 = _reference_differences(up, bd)
    Q, Q1, Q2, Q3 = _reference_differences(lo + [(1, 1)], ad)
    abs_u_D = abs(u) + D
    shifts = [(al.numerator, al.denominator, sigma * al.denominator) for sigma, al in companion]
    bounds = [(-abs(p), q, q) for p, q, _ in shifts]
    paired = bool(shifts)
    n0 = 2 * max(
        [-(-abs(num) // den) for num, den in up + lo + [s[:2] for s in shifts]] + [1]
    ) + 8
    rescales = u > 0 and not paired and all(num > 0 for num, _ in up + lo)
    T = S = 1 << wb
    E = E_sum = 0
    G = EG = EG_sum = G_sum = 0
    n = scale = 0
    while True:
        if P == 0:
            return [(S, E_sum + 1), (G_sum, EG_sum + 1)] if paired else [(S, E_sum + 1)]
        if Q > 0:
            Pr, Qr = P, Q * v
        else:
            Pr, Qr = -P, -Q * v
        aPr = abs(Pr)
        PD = aPr * D
        if paired:
            Nd, Dd = _reference_harmonic(shifts, n)
            X = G * Dd + Nd * T
            EX = EG * Dd + abs(Nd) * E
            QX = Qr * Dd
            EG = -(-(abs(X) * PD + EX * (aPr * abs_u_D)) // QX) + 1
            G = X * (Pr * u) // QX
            G_sum += G
            EG_sum += EG
        E = -(-(abs(T) * PD + E * (aPr * abs_u_D)) // Qr) + 1
        T = T * (Pr * u) // Qr
        S += T
        E_sum += E
        n += 1
        P += P1
        P1 += P2
        P2 += P3
        Q += Q1
        Q1 += Q2
        Q2 += Q3
        if n % 32 == 0:
            if rescales and T >> (wb + 64):
                sh = T.bit_length() - wb - 1
                T >>= sh
                S >>= sh
                E = (E >> sh) + 2
                E_sum = (E_sum >> sh) + 2
                scale += sh
            if n >= n0:
                rn = abs_u_D * bd * math.prod(n * den + abs(num) for num, den in up)
                rd = v * n * ad * math.prod(n * den - abs(num) for num, den in lo)
                if rd > rn:
                    tail = -(-(abs(T) + E) * rn // (rd - rn))
                    if tail << pwb <= abs(S) or tail <= E_sum:
                        if not paired:
                            return [(S << scale, (E_sum + 1 + tail) << scale)]
                        dn, dd = _reference_harmonic(bounds, n)
                        gap = rd - rn
                        g_tail = -(
                            -((abs(G) + EG) * rn * gap * dd + (abs(T) + E) * rn * rd * dn)
                            // (gap * gap * dd)
                        )
                        if g_tail << pwb <= abs(G_sum) or g_tail <= EG_sum:
                            return [(S, E_sum + 1 + tail), (G_sum, EG_sum + 1 + g_tail)]
        if n == term_cap:
            return None
