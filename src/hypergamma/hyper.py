"""Evaluation of Gauss 2F1 series with rational parameters.

Four evaluation routes; `f21_eval` takes exactly one of them per input:

* `f21_terminating` - exact rational finite sum when an upper parameter is a
  nonpositive integer, the sum of `hyper_terms`;
* `f21_series` - direct summation for |z| < 1 by `mpreal.fixed_point_sum`,
  the series kernel that Gamma and Beta also use, which returns the
  enclosure: a rigorous rounding and tail bound, and the radius of a
  BigReal z;
* `f21_log_connection` - for 9/10 < z < 1 with c - a - b an integer and
  a, b of denominator at most `LOG_CONNECTION_MAX_DENOMINATOR`, the
  logarithmic 1 - z connection formula (A&S 15.3.10-11), a pair of series
  in 1 - z summed by the same kernel with its harmonic companion, so the
  bound is rigorous too;
* `f21_integral` - the Gamma-prefactored Euler integral of
  t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) over (0,1), in the order of a and b
  that has one: at z = 1 the Beta series of `mpreal.beta`, and for the
  other rational z too close to 1 for the series or below -9 that the log
  connection formula does not take, tanh-sinh quadrature, whose error
  bound is an estimate (see `tanh_sinh_integrate`), not a proof.  The
  integrand is data (`euler_integrand`, an `mpreal.PowerIntegrand`):
  1 - z t is the exact polynomial (1 - z) + z (1 - t) in 1 - t, which does
  not cancel near z = 1.

For z < -9/10, `f21_eval` takes Pfaff's transform
(1-z)^(-a) 2F1(a, c-b; c; z/(z-1)): by `f21_series` for -9 <= z, and by
`f21_log_connection` below -9 when the transformed parameters fit it,
which needs a - b an integer.  `check_domain`,
which `f21_eval` calls first, is the one test of whether an input has a
value; ``hypergamma eval --strategy series|integral`` calls it and then
`f21_series` or `f21_integral` alone.

`hyper_terms` is the one exact term walk: the terms
prod (u)_k / prod (l)_k z^k up to an index, as one running product in
integers, after one pole check (`check_lower_poles`) that the catalog
shares.  `f21_terminating`, the finite part of `f21_log_connection` and
the catalog's exact Pochhammer products all take it; `pochhammer` is
`mpreal._pochhammer`'s balanced product.

The series and the integral are compared with each other by
``hypergamma quadcheck --expr euler`` and by the test suite, not at run
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Union

from .exact import is_nonpositive_integer, rational_str
from .mpreal import (
    BigReal,
    PowerIntegrand,
    Precision,
    _pochhammer,
    beta,
    cos_pi_times,
    fixed_point_sum,
    gamma,
    log,
    pi_value,
    sin_pi_times,
    tanh_sinh_integrate,
)

RealArg = Union[Fraction, int, BigReal]

SERIES_THRESHOLD = Fraction(9, 10)
# Gauss's digamma theorem takes ceil(q/2) - 1 log-sines at denominator q:
# at q = 1000, about 0.3 s at 100 digits on one Intel Xeon core, below
# the 0.6-0.8 s of the tanh-sinh route that larger denominators keep
LOG_CONNECTION_MAX_DENOMINATOR = 1000
DEFAULT_TERM_CAP = 10**7


class HyperError(ArithmeticError):
    """Base class for 2F1 evaluation failures."""


class ParamsError(HyperError):
    """An input outside the domain of 2F1 (see `check_domain`): a lower
    parameter pole not excused by earlier termination, or a non-terminating
    series at z > 1, or at z = 1 with c - a - b <= 0."""


class SeriesTermCapError(HyperError):
    """Series did not meet its tail bound within the term cap."""


class NoFeasibleStrategyError(HyperError):
    """`f21_integral` found no Euler-integral parameter ordering: neither
    (a, b; c) nor (b, a; c) has c > b > 0, or at z = 1, b off the poles.
    `f21_eval` meets it on an input in the domain that has no other route:
    9/10 < z < 1 or z < -9 where `f21_log_connection` does not apply."""


@dataclass(frozen=True)
class HypParams:
    """Parameters (a, b; c) of a Gauss 2F1 series."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if type(getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Fraction(getattr(self, name)))

    @cached_property
    def terminating_degree(self) -> int | None:
        """Smallest n with an upper parameter equal to -n, if any."""
        degrees = [
            -int(x) for x in (self.a, self.b) if is_nonpositive_integer(x)
        ]
        if not degrees:
            return None
        return min(degrees)

    def validate(self) -> None:
        n = self.terminating_degree
        if is_nonpositive_integer(self.c):
            if n is None or n >= -int(self.c) + 1:
                raise ParamsError(
                    f"lower parameter {rational_str(self.c)} is a nonpositive "
                    "integer and the series does not terminate before the pole"
                )

    def swapped(self) -> "HypParams":
        return HypParams(self.b, self.a, self.c)


def check_domain(p: HypParams, z: Fraction) -> None:
    """Raise ParamsError unless 2F1(a, b; c; z) has a value at the rational
    z: a lower-parameter pole must be excused by earlier termination
    (`HypParams.validate`), and a series that does not terminate needs
    z < 1, or z = 1 with c - a - b > 0 (Gauss)."""
    p.validate()
    if z < 1 or p.terminating_degree is not None:
        return
    if z > 1:
        raise ParamsError(f"z = {rational_str(Fraction(z))} > 1 and the series does not terminate")
    if p.c - p.a - p.b <= 0:
        raise ParamsError(f"z = 1 and c - a - b = {rational_str(p.c - p.a - p.b)} <= 0")


def check_lower_poles(lower: Iterable[Fraction], n: int) -> None:
    """Raise ParamsError if a lower entry l hits a pole within (l)_n, that
    is, if l is an integer with -n < l <= 0."""
    for l in lower:
        if l.denominator == 1 and -n < l <= 0:
            raise ParamsError(f"lower entry {rational_str(l)} hits a pole within (x)_{n}")


def hyper_terms(
    upper: Iterable[Fraction], lower: Iterable[Fraction], z: Fraction, n: int
) -> Iterator[tuple[int, int]]:
    """The terms t_0 ... t_n, t_k = prod (u)_k / prod (l)_k z^k, as integer
    pairs (num, den) with t_k = num/den, by one running product in
    integers: u + k = (p + qk)/q for u = p/q.  The pairs are not reduced,
    and each den divides the next.  `check_lower_poles` runs before the
    first term."""
    upper, lower, z = [Fraction(u) for u in upper], [Fraction(l) for l in lower], Fraction(z)
    check_lower_poles(lower, n)
    ups = [(u.numerator, u.denominator) for u in upper]
    lows = [(l.numerator, l.denominator) for l in lower]
    top = z.numerator * math.prod(q for _, q in lows)
    bottom = z.denominator * math.prod(q for _, q in ups)
    num = den = 1
    yield num, den
    for k in range(n):
        num *= top
        den *= bottom
        for p, q in ups:
            num *= p + q * k
        for p, q in lows:
            den *= p + q * k
        yield num, den


def _walk_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of `hyper_terms`' terms, in integers over the last den."""
    total, d = 0, 1
    for num, den in terms:
        total, d = total * (den // d) + num, den
    return Fraction(total, d)


def pochhammer(x: Fraction, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1, as the
    balanced integer product of `mpreal._pochhammer`."""
    if n < 0:
        raise ValueError("pochhammer index must be nonnegative")
    return Fraction(*_pochhammer(Fraction(x), n))


def f21_series(
    p: HypParams,
    z: RealArg,
    prec: Precision,
    term_cap: int = DEFAULT_TERM_CAP,
) -> BigReal:
    """The 2F1 series at a rational or BigReal z, |z| < 1 unless it
    terminates, summed by `fixed_point_sum` to a radius of at most
    2^-work_bits max(1, |value|) (unless the radius of z dominates).
    Raises SeriesTermCapError when term_cap terms pass first, which
    signals an argument too close to 1.
    """
    p.validate()
    out = fixed_point_sum((p.a, p.b), (p.c,), z, prec.work_bits, term_cap)
    if out is None:
        raise SeriesTermCapError(
            f"series tail bound not reached within {term_cap} terms (argument too close to 1?)"
        )
    return out


def f21_terminating(p: HypParams, z: Fraction) -> Fraction:
    """Exact rational value of a terminating 2F1 (nonpositive-integer upper
    parameter): the sum of `hyper_terms` up to the degree."""
    n_term = p.terminating_degree
    if n_term is None:
        raise HyperError("f21_terminating requires a nonpositive-integer upper parameter")
    return _walk_sum(hyper_terms((p.a, p.b), (p.c, 1), z, n_term))


def euler_integrand(p: HypParams, z: Fraction) -> PowerIntegrand:
    """t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) for rational z < 1, with 1 - z t
    written as (1 - z) + z (1 - t), exactly, which does not cancel."""
    z = Fraction(z)
    return PowerIntegrand(p.b - 1, p.c - p.b - 1, (("v", (1 - z, z), -p.a),))


def f21_integral(p: HypParams, z: Fraction, prec: Precision) -> BigReal:
    """Euler-integral evaluation: Gamma(c)/(Gamma(b)Gamma(c-b)) times the
    integral of t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) on (0,1), for rational
    z <= 1, in the first of the orderings p, `p.swapped()` that has one
    (NoFeasibleStrategyError when neither has).

    For z < 1 that needs c > b > 0, and the integral is taken by tanh-sinh
    quadrature, whose error bound is an estimate.  At z = 1 (requires
    c-a-b > 0) the integral is B(b, c-a-b), summed by the positive-term
    series of `mpreal.beta`: no Gamma quotient is formed for it, so the
    Gamma route stays independent of Gauss's theorem.  There b off the
    poles suffices: the value is 0 if c-a or c-b is a nonpositive integer
    (DLMF 15.8.1: (1-z)^(c-a-b) times a terminating 2F1), and otherwise so
    is every argument.
    """
    z = Fraction(z)
    for q in (p, p.swapped()):
        if q.c > q.b > 0 or (z == 1 and not is_nonpositive_integer(q.b)):
            break
    else:
        raise NoFeasibleStrategyError("no Euler-integral parameter ordering with c > b > 0")
    a, b, c = q.a, q.b, q.c
    qprec = prec.boosted(16)
    if z > 1:
        raise HyperError("Euler integral requires z <= 1")
    if z < 1:
        integral = tanh_sinh_integrate(euler_integrand(q, z), qprec)
    elif not c - a - b > 0:
        raise HyperError("z = 1 requires c - a - b > 0")
    elif is_nonpositive_integer(c - a) or is_nonpositive_integer(c - b):
        return BigReal.from_int(0, prec.work_bits)
    else:
        integral = beta(b, c - a - b, qprec)
    pref = gamma(c, qprec) / (gamma(b, qprec) * gamma(c - b, qprec))
    out = pref * integral
    return BigReal(out.val, out.err, prec.work_bits)


def _psi_plus_euler(x: Fraction, prec: Precision) -> BigReal:
    """psi(x) + Euler's gamma for rational x off the poles.  x is shifted
    exactly to y in (0, 1] by psi(x + 1) = psi(x) + 1/x; then, for
    y = p/q < 1, Gauss's digamma theorem (DLMF 5.4.19):
    psi(y) + gamma = -ln(2q) - (pi/2) cot(pi y)
    + 2 sum_{k=1}^{ceil(q/2)-1} cos(2 pi k y) ln sin(pi k/q), and 0 at y = 1."""
    m = math.ceil(x) - 1
    y = x - m
    shift = sum((1 / (y + j) for j in range(m)), Fraction(0)) - sum(
        (1 / (x + j) for j in range(-m)), Fraction(0)
    )
    out = BigReal.from_fraction(shift, prec.work_bits)
    if y == 1:
        return out
    q = y.denominator
    out -= log(BigReal.from_int(2 * q, prec.work_bits))
    out -= pi_value(prec) * cos_pi_times(y, prec) / (2 * sin_pi_times(y, prec))
    for k in range(1, (q + 1) // 2):
        out += 2 * cos_pi_times(2 * k * y, prec) * log(sin_pi_times(Fraction(k, q), prec))
    return out


def f21_log_connection(p: HypParams, z: Fraction, prec: Precision) -> BigReal:
    """2F1 at rational 0 < z < 1 when m = c - a - b is an integer, by the
    logarithmic 1 - z connection formulas (A&S 15.3.10-11, DLMF 15.8.10);
    `f21_eval` takes it for 9/10 < z < 1 when a and b have denominators at
    most LOG_CONNECTION_MAX_DENOMINATOR, as the cost of `_psi_plus_euler`
    grows with them.  With w = 1 - z and m >= 0,

    2F1 = Gamma(c)/(Gamma(a) Gamma(b)) [(m-1)! / ((a)_m (b)_m)
          sum_{n<m} (a)_n (b)_n / (n! (1-m)_n) w^n
          + (-w)^m / m! sum_n t_n (h_n - ln w)],

    t_n = (a+m)_n (b+m)_n / (n! (m+1)_n) w^n and h_n = psi(n+1) + psi(n+m+1)
    - psi(a+n+m) - psi(b+n+m).  h_n - h_0 is a running harmonic sum, the
    companion of `fixed_point_sum`; h_0 comes from `_psi_plus_euler`, whose
    Euler gammas cancel.  m < 0 takes Euler's transform (DLMF 15.8.1)
    (1-z)^m 2F1(c-a, c-b; c; z) first, exact when c - a or c - b is a
    nonpositive integer.  Works at 16 more bits, as `f21_integral` does.
    """
    w = Fraction(1) - z
    m = p.c - p.a - p.b
    if m.denominator != 1 or not 0 < w < 1:
        raise HyperError("log connection needs c - a - b integer and 0 < z < 1")
    m = int(m)
    scale = Fraction(1)
    if m < 0:
        scale, p, m = w**m, HypParams(p.c - p.a, p.c - p.b, p.c), -m
    if p.terminating_degree is not None:
        return BigReal.from_fraction(scale * f21_terminating(p, z), prec.work_bits)
    a, b, c = p.a, p.b, p.c
    qprec = prec.boosted(16)
    bits = qprec.work_bits
    companion = ((1, Fraction(1)), (1, Fraction(m + 1)), (-1, a + m), (-1, b + m))
    t_sum, g_sum = fixed_point_sum(
        (a + m, b + m), (Fraction(m + 1),), w, bits, None, companion
    )
    harmonic = sum((Fraction(1, j) for j in range(1, m + 1)), Fraction(0))
    h0 = harmonic - _psi_plus_euler(a + m, qprec) - _psi_plus_euler(b + m, qprec)
    logs = g_sum + (h0 - log(BigReal.from_fraction(w, bits))) * t_sum
    finite = Fraction(0)
    if m:
        finite = _walk_sum(hyper_terms((a, b), (1 - m, 1), w, m - 1)) * math.factorial(m - 1)
        finite /= pochhammer(a, m) * pochhammer(b, m)
    out = finite + logs * ((-w) ** m / math.factorial(m))
    out = out * (gamma(c, qprec) / (gamma(a, qprec) * gamma(b, qprec))) * scale
    return BigReal(out.val, out.err, prec.work_bits)


def _log_connection_fits(p: HypParams) -> bool:
    """Whether `f21_eval` gives p to `f21_log_connection`: c - a - b an
    integer, and a and b, whose denominators are those of its digamma
    arguments, of denominator at most LOG_CONNECTION_MAX_DENOMINATOR."""
    return (p.c - p.a - p.b).denominator == 1 and max(
        p.a.denominator, p.b.denominator
    ) <= LOG_CONNECTION_MAX_DENOMINATOR


def f21_eval(p: HypParams, z: Fraction, prec: Precision) -> BigReal:
    """2F1 at a rational z by exactly one route per input.

    `check_domain` runs first: an input with no value raises ParamsError.
    Then the exact terminating sum when an upper parameter is a
    nonpositive integer; otherwise the direct series for |z| <= 9/10, the
    series of Pfaff's transform for -9 <= z < -9/10, `f21_log_connection`
    for 9/10 < z < 1 with c - a - b an integer and, after Pfaff's
    transform, for z < -9 with a - b an integer, in both when the
    denominators of the parameters it sums are at most
    LOG_CONNECTION_MAX_DENOMINATOR; and otherwise `f21_integral`, which
    picks the parameter ordering: the Beta series at z = 1, and tanh-sinh
    for the rest of 9/10 < z < 1 and z < -9.  No second route is run: the
    series-versus-integral comparison is ``hypergamma quadcheck --expr
    euler``.
    """
    check_domain(p, z)
    z = Fraction(z)
    if p.terminating_degree is not None:
        return BigReal.from_fraction(f21_terminating(p, z), prec.work_bits)
    if abs(z) <= SERIES_THRESHOLD:
        return f21_series(p, z, prec)
    q = HypParams(p.a, p.c - p.b, p.c)
    if z < 0 and (z >= -9 or _log_connection_fits(q)):
        # DLMF 15.8.1: (1-z)^(-a) 2F1(a, c-b; c; w) with w = z/(z-1), at 16
        # more bits, as in f21_integral, to absorb the rounding of the
        # prefactor: for -9 <= z, w is in (9/19, 9/10] and the series sums
        # it; below -9, w is in (9/10, 1) and its c - a - b = b - a is an
        # integer
        qprec = prec.boosted(16)
        w = z / (z - 1)
        inner = f21_series(q, w, qprec) if z >= -9 else f21_log_connection(q, w, qprec)
        base = BigReal.from_fraction(1 - z, qprec.work_bits)
        out = base.pow_rational(-p.a) * inner
        return BigReal(out.val, out.err, prec.work_bits)
    if 0 < z < 1 and _log_connection_fits(p):
        return f21_log_connection(p, z, prec)
    return f21_integral(p, z, prec)
