"""Evaluation of Gauss 2F1 series with rational parameters.

Three evaluation routes, selected by `f21_eval`:

* `f21_terminating` - exact rational finite sum when an upper parameter is a
  nonpositive integer;
* `f21_series` - direct summation for |z| < 1 with a rigorous geometric
  tail bound folded into the error bound;
* `f21_integral` - Gamma-prefactored tanh-sinh quadrature of the classical
  weighted integral of t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) over (0,1), for
  arguments too close to 1 for the series (and for z <= -1, where the
  integrand is smooth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath.libmp import (
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_mul,
    mpf_shift,
)

from .exact import is_nonpositive_integer, rational_str
from .mpreal import (
    ERR_BITS,
    RU,
    BigReal,
    MPRealError,
    Precision,
    gamma,
    tanh_sinh_integrate,
)

RealArg = Union[Fraction, int, BigReal]

SERIES_THRESHOLD = Fraction(9, 10)
DEFAULT_TERM_CAP = 10**7


class HyperError(ArithmeticError):
    """Base class for 2F1 evaluation failures."""


class ParamsError(HyperError):
    """Lower parameter pole not excused by earlier termination."""


class SeriesTermCapError(HyperError):
    """Series did not meet its tail bound within the term cap."""


class NoFeasibleStrategyError(HyperError):
    """No evaluation route applies (z >= 1 non-terminating, or no valid
    Euler-integral parameter ordering near z = 1)."""


class InternalInconsistencyError(HyperError):
    """Two independent evaluation routes disagreed beyond their bounds."""


@dataclass(frozen=True)
class HypParams:
    """Parameters (a, b; c) of a Gauss 2F1 series."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))

    @property
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


@dataclass(frozen=True)
class PochRatio:
    """Finite product of Pochhammer symbols, upper over lower."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(Fraction(u) for u in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(l) for l in self.lower))

    def value(self, n: int) -> Fraction:
        for l in self.lower:
            if l.denominator == 1 and -n < l <= 0:
                raise ParamsError(
                    f"lower entry {rational_str(l)} hits a pole within (x)_{n}"
                )
        num = Fraction(1)
        for u in self.upper:
            num *= pochhammer(u, n)
        den = Fraction(1)
        for l in self.lower:
            den *= pochhammer(l, n)
        return num / den


def pochhammer(x: Fraction, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer index must be nonnegative")
    x = Fraction(x)
    acc = Fraction(1)
    for k in range(n):
        acc *= x + k
    return acc


def _abs_fraction_bound(z: RealArg) -> Fraction:
    if isinstance(z, BigReal):
        return abs(z.abs_upper_fraction())
    return abs(Fraction(z))


def f21_series(
    p: HypParams,
    z: RealArg,
    prec: Precision,
    term_cap: int = DEFAULT_TERM_CAP,
) -> BigReal:
    """Partial sum of the 2F1 series with a geometric tail bound.

    Terminates when the tail bound drops below 2^(-work_bits) of the partial
    sum (or the series terminates exactly); raises SeriesTermCapError when
    the cap is hit first, which signals an argument too close to 1.
    """
    p.validate()
    zb = _abs_fraction_bound(z)
    n_term = p.terminating_degree
    if n_term is None and zb >= 1:
        raise HyperError("series argument must satisfy |z| < 1")
    if isinstance(z, BigReal) and z.val == fzero and z.err == fzero:
        z = Fraction(0)
    if not isinstance(z, BigReal) and Fraction(z) == 0:
        return BigReal.from_int(1, prec.work_bits)

    if n_term is not None:
        n_est = n_term + 2
    else:
        n_est = int((prec.target_digits + 15) * math.log(10) / -math.log(zb)) + 16
    wb = prec.work_bits + max(16, n_est.bit_length() + 6)
    zB = BigReal.lift(z, wb) if not isinstance(z, BigReal) else z
    a, b, c = p.a, p.b, p.c

    total = BigReal.from_int(1, wb)
    term = BigReal.from_int(1, wb)
    n0 = 2 * math.ceil(max(abs(a), abs(b), abs(c), 1)) + 8
    n = 0
    while True:
        fnum = (a + n) * (b + n)
        if fnum == 0:
            break  # terminating series: sum is complete and exact
        fden = (c + n) * (1 + n)
        term = term * BigReal.from_fraction(fnum / fden, wb) * zB
        total = total + term
        n += 1
        if n >= n0:
            ratio_bound = zb * (1 + abs(a) / n) * (1 + abs(b) / n) / (1 - abs(c) / n)
            if 0 < ratio_bound < 1:
                geo = ratio_bound / (1 - ratio_bound)
                geo_up = from_rational(geo.numerator, geo.denominator, ERR_BITS, RU)
                t_hi = mpf_add(mpf_abs(term.val), term.err, ERR_BITS, RU)
                tail = mpf_mul(t_hi, geo_up, ERR_BITS, RU)
                floor_val = mpf_shift(mpf_abs(total.val), -prec.work_bits)
                if mpf_cmp(tail, floor_val) <= 0:
                    total = BigReal(
                        total.val, mpf_add(total.err, tail, ERR_BITS, RU), wb
                    )
                    break
        if n > term_cap:
            raise SeriesTermCapError(
                f"series tail bound not reached within {term_cap} terms "
                f"(argument {rational_str(Fraction(zb))} too close to 1?)"
            )
    return BigReal(total.val, total.err, prec.work_bits)


def f21_terminating(p: HypParams, z: Fraction) -> Fraction:
    """Exact rational value of a terminating 2F1 (nonpositive-integer upper
    parameter)."""
    n_term = p.terminating_degree
    if n_term is None:
        raise HyperError("f21_terminating requires a nonpositive-integer upper parameter")
    z = Fraction(z)
    a, b, c = p.a, p.b, p.c
    total = Fraction(1)
    term = Fraction(1)
    for k in range(n_term):
        fnum = (a + k) * (b + k)
        if fnum == 0:
            break
        fden = (c + k) * (1 + k)
        if fden == 0:
            raise ParamsError(
                f"lower parameter pole at index {k} inside the terminating sum"
            )
        term = term * fnum / fden * z
        total += term
    return total


def f21_integral(p: HypParams, z: RealArg, prec: Precision) -> BigReal:
    """Euler-integral evaluation: Gamma(c)/(Gamma(b)Gamma(c-b)) times the
    tanh-sinh integral of t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) on (0,1).

    Requires c > b > 0 and real z < 1; at z = 1 (requires c-a-b > 0) the
    integrand degenerates to the Beta form t^(b-1) (1-t)^(c-a-b-1), which is
    still evaluated by quadrature so the Gamma route stays independent.
    """
    a, b, c = p.a, p.b, p.c
    if not (c > b > 0):
        raise HyperError("Euler integral requires c > b > 0")
    at_one = not isinstance(z, BigReal) and Fraction(z) == 1
    if at_one:
        if not c - a - b > 0:
            raise HyperError("z = 1 requires c - a - b > 0")
    else:
        zhi = (
            Fraction(z)
            if not isinstance(z, BigReal)
            else z.abs_upper_fraction() * (1 if not z.definitely_negative() else -1)
        )
        if not zhi < 1:
            raise HyperError("Euler integral requires z < 1")

    qprec = prec.boosted(16)
    if at_one:
        exp_left, exp_right = b - 1, c - a - b - 1

        def integrand(u: BigReal, v: BigReal) -> BigReal:
            return u.pow_rational(exp_left) * v.pow_rational(exp_right)

    else:
        zB = BigReal.lift(z, qprec.work_bits)
        one_minus_z = 1 - zB
        exp_left, exp_right = b - 1, c - b - 1

        def integrand(u: BigReal, v: BigReal) -> BigReal:
            # 1 - z t  ==  (1 - z) + z (1 - t), stable against cancellation
            lin = one_minus_z + zB * v
            out = u.pow_rational(exp_left) * v.pow_rational(exp_right)
            return out * lin.pow_rational(-a)

    integral = tanh_sinh_integrate(integrand, Fraction(0), Fraction(1), qprec)
    pref = gamma(c, qprec) / (gamma(b, qprec) * gamma(c - b, qprec))
    out = pref * integral
    return BigReal(out.val, out.err, prec.work_bits)


def _integral_with_swap(p: HypParams, z: RealArg, prec: Precision) -> BigReal:
    for q in (p, p.swapped()):
        if q.c > q.b > 0:
            return f21_integral(q, z, prec)
    raise NoFeasibleStrategyError(
        "no Euler-integral parameter ordering with c > b > 0"
    )


def f21_eval(
    p: HypParams,
    z: Fraction,
    prec: Precision,
    strategy: str = "auto",
    cross_check: bool | None = None,
) -> BigReal:
    """Strategy dispatcher for rational arguments.

    auto: exact terminating sum when available; direct series for
    |z| <= 9/10; otherwise the Euler integral (trying both parameter
    orderings) for z < 1, and the Beta-form integral at z = 1.  When both
    routes are feasible and the precision budget is modest, the two are
    cross-checked against each other.
    """
    p.validate()
    z = Fraction(z)
    if strategy not in ("auto", "series", "integral"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if strategy == "series":
        return f21_series(p, z, prec)
    if strategy == "integral":
        return _integral_with_swap(p, z, prec)

    if p.terminating_degree is not None:
        return BigReal.from_fraction(f21_terminating(p, z), prec.work_bits)

    series_ok = abs(z) <= SERIES_THRESHOLD
    if z >= 1 and not (z == 1 and p.c - p.a - p.b > 0):
        raise NoFeasibleStrategyError(
            f"z = {rational_str(z)} >= 1 with non-terminating parameters"
        )
    if series_ok:
        out = f21_series(p, z, prec)
        do_check = cross_check
        if do_check is None:
            do_check = prec.target_digits <= 60
        if do_check:
            try:
                other = _integral_with_swap(p, z, prec)
            except (HyperError, MPRealError):
                return out
            diff = out - other
            if diff.definitely_positive() or diff.definitely_negative():
                raise InternalInconsistencyError(
                    "series and Euler-integral evaluations disagree: "
                    f"{out.to_decimal(24)} vs {other.to_decimal(24)}"
                )
            return out if mpf_cmp(out.err, other.err) <= 0 else other
        return out
    return _integral_with_swap(p, z, prec)

