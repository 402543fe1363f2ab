"""Arbitrary-precision reals with tracked error bounds, Gamma/Beta, and
tanh-sinh quadrature.

A `BigReal` carries a floating value at some working bit precision together
with a bound on its absolute error; every operation propagates the bound
conservatively (first-order interval style, with all bound arithmetic done
in round-away-from-zero mode so bounds are never understated).  The true
mathematical value always lies in [value - err, value + err].

Numbers are raw mpf tuples from mpmath's libmp layer, whose primitives take
an explicit bit precision and rounding mode per call.  There is therefore
no global precision state anywhere in this module: `Precision` objects are
plain values, and everything is safe to use concurrently.

Gamma is computed by exact-rational argument shifting (so pole detection is
exact) followed by the Stirling series with the classical first-omitted-term
remainder bound, valid for real positive arguments; arguments below 1/2 go
through the reflection formula.  The quadrature is standard tanh-sinh with
per-level node caching; integrands receive the distances to both endpoints
at full relative precision so endpoint-singular factors can be evaluated
without cancellation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    from_str,
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_asin,
    mpf_bernoulli,
    mpf_cmp,
    mpf_cosh_sinh,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    mpf_sin_pi,
    mpf_sqrt,
    mpf_sub,
    to_float,
    to_str,
)

RN = "n"  # round to nearest
RU = "u"  # round away from zero (upper bounds for nonnegative quantities)
RD = "d"  # round toward zero (lower bounds for nonnegative quantities)

ERR_BITS = 32
BITS_PER_DIGIT = 3.3220

Real = Union["BigReal", Fraction, int]


class MPRealError(ArithmeticError):
    """Base class for numeric-domain failures."""


class DomainError(MPRealError):
    """Argument outside a function's certified domain."""


class PossibleZeroDivisionError(MPRealError):
    """Divisor interval contains zero."""


class GammaPoleError(MPRealError):
    """Gamma evaluated at zero or a negative integer."""


class QuadratureError(MPRealError):
    """tanh-sinh refinement did not converge within the level cap."""


@dataclass(frozen=True)
class Precision:
    """Requested decimal digits plus the derived working bit precision."""

    target_digits: int
    work_bits: int

    @classmethod
    def of(cls, target_digits: int, expected_terms: int = 4096) -> "Precision":
        if target_digits < 1:
            raise ValueError("target_digits must be positive")
        bits = (
            math.ceil(target_digits * BITS_PER_DIGIT)
            + 64
            + math.ceil(math.log2(max(2, expected_terms)))
        )
        return cls(target_digits, bits)

    def boosted(self, extra_bits: int) -> "Precision":
        return Precision(self.target_digits, self.work_bits + extra_bits)


# ---------------------------------------------------------------------------
# error-bound arithmetic (mpf tuples, always rounded away from zero)


def _eadd(*errs):
    acc = fzero
    for e in errs:
        if e is not fzero:
            acc = mpf_add(acc, e, ERR_BITS, RU)
    return acc


def _emul(a, b):
    return mpf_mul(a, b, ERR_BITS, RU)


def _ulp(val, bits, k: int = 2):
    """Upper bound |val| * 2^(k-bits) on accumulated representation error."""
    if val == fzero:
        return fzero
    return mpf_pos(mpf_shift(mpf_abs(val), k - bits), ERR_BITS, RU)


def _abs_hi(val, err):
    return mpf_add(mpf_abs(val), err, ERR_BITS, RU)


def _abs_lo(val, err):
    """Lower bound on |true value|; may come out negative."""
    return mpf_sub(mpf_abs(val), err, ERR_BITS, RD)


def _pow2(k: int):
    return from_man_exp(1, k)


class BigReal:
    """Floating value + absolute error bound at a working bit precision.

    Treat instances as immutable.  Mixed arithmetic with int and Fraction
    lifts the exact operand losslessly.
    """

    __slots__ = ("val", "err", "bits")

    def __init__(self, val, err, bits: int):
        self.val = val
        self.err = err
        self.bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, bits: int) -> "BigReal":
        return cls(from_int(n), fzero, bits)

    @classmethod
    def from_fraction(cls, q: Fraction, bits: int) -> "BigReal":
        q = Fraction(q)
        val = from_rational(q.numerator, q.denominator, bits, RN)
        den = q.denominator
        exact = den & (den - 1) == 0 and abs(q.numerator).bit_length() <= bits
        return cls(val, fzero if exact else _ulp(val, bits, 1), bits)

    @classmethod
    def lift(cls, x: Real, bits: int) -> "BigReal":
        if isinstance(x, BigReal):
            return x
        if isinstance(x, int):
            return cls.from_int(x, bits)
        if isinstance(x, Fraction):
            return cls.from_fraction(x, bits)
        raise TypeError(f"cannot lift {type(x).__name__} to BigReal")

    # -- predicates and bounds ----------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.err == fzero

    def definitely_positive(self) -> bool:
        return mpf_cmp(self.val, self.err) > 0

    def definitely_negative(self) -> bool:
        return mpf_cmp(mpf_neg(self.val), self.err) > 0

    # -- arithmetic ----------------------------------------------------------

    def _binbits(self, other: "BigReal") -> int:
        return max(self.bits, other.bits)

    def __add__(self, other: Real) -> "BigReal":
        o = BigReal.lift(other, self.bits)
        bits = self._binbits(o)
        val = mpf_add(self.val, o.val, bits, RN)
        return BigReal(val, _eadd(self.err, o.err, _ulp(val, bits)), bits)

    __radd__ = __add__

    def __neg__(self) -> "BigReal":
        return BigReal(mpf_neg(self.val), self.err, self.bits)

    def __sub__(self, other: Real) -> "BigReal":
        return self + (-BigReal.lift(other, self.bits))

    def __rsub__(self, other: Real) -> "BigReal":
        return BigReal.lift(other, self.bits) - self

    def __mul__(self, other: Real) -> "BigReal":
        o = BigReal.lift(other, self.bits)
        bits = self._binbits(o)
        val = mpf_mul(self.val, o.val, bits, RN)
        err = _eadd(
            _emul(mpf_abs(self.val), o.err),
            _emul(mpf_abs(o.val), self.err),
            _emul(self.err, o.err),
            _ulp(val, bits),
        )
        return BigReal(val, err, bits)

    __rmul__ = __mul__

    def __truediv__(self, other: Real) -> "BigReal":
        o = BigReal.lift(other, self.bits)
        bits = self._binbits(o)
        lo = _abs_lo(o.val, o.err)
        if mpf_cmp(lo, fzero) <= 0:
            raise PossibleZeroDivisionError("divisor interval contains zero")
        val = mpf_div(self.val, o.val, bits, RN)
        err = _eadd(
            mpf_div(_eadd(self.err, _emul(mpf_abs(val), o.err)), lo, ERR_BITS, RU),
            _ulp(val, bits),
        )
        return BigReal(val, err, bits)

    def __rtruediv__(self, other: Real) -> "BigReal":
        return BigReal.lift(other, self.bits) / self

    def __abs__(self) -> "BigReal":
        return BigReal(mpf_abs(self.val), self.err, self.bits)

    def pow_int(self, n: int) -> "BigReal":
        if n == 0:
            return BigReal(fone, fzero, self.bits)
        val = mpf_pow_int(self.val, n, self.bits, RN)
        if n > 0:
            hi = _abs_hi(self.val, self.err)
            dmag = mpf_mul_int(mpf_pow_int(hi, n - 1, ERR_BITS, RU), n, ERR_BITS, RU)
            err = _eadd(_emul(dmag, self.err), _ulp(val, self.bits, 4))
        else:
            lo = _abs_lo(self.val, self.err)
            if mpf_cmp(lo, fzero) <= 0:
                raise PossibleZeroDivisionError("negative power of possible zero")
            m = -n
            dmag = mpf_mul_int(
                mpf_div(fone, mpf_pow_int(lo, m + 1, ERR_BITS, RD), ERR_BITS, RU),
                m,
                ERR_BITS,
                RU,
            )
            err = _eadd(_emul(dmag, self.err), _ulp(val, self.bits, 4))
        return BigReal(val, err, self.bits)

    def pow_rational(self, r) -> "BigReal":
        """self ** (p/q).  Fractional exponents require a certainly-positive
        base (real principal powers only); exponent 0 gives exactly 1."""
        r = Fraction(r)
        if r == 0:
            return BigReal(fone, fzero, self.bits)
        if r.denominator == 1:
            return self.pow_int(r.numerator)
        if r == Fraction(1, 2):
            return sqrt(self)
        if not self.definitely_positive():
            raise DomainError("fractional power of a base not certainly positive")
        bits = self.bits
        wb = bits + 8
        lo = _abs_lo(self.val, self.err)
        L = mpf_log(self.val, wb, RN)
        t = mpf_div(mpf_mul_int(L, r.numerator, wb, RN), from_int(r.denominator), wb, RN)
        val = mpf_exp(t, bits, RN)
        rel_in = mpf_div(
            _emul(from_rational(abs(r.numerator), r.denominator, ERR_BITS, RU), self.err),
            lo,
            ERR_BITS,
            RU,
        )
        rel_round = _emul(_eadd(mpf_abs(t), from_int(2)), _pow2(-bits - 2))
        err = _eadd(_emul(_abs_hi(val, fzero), _eadd(rel_in, rel_round)), _ulp(val, bits, 3))
        return BigReal(val, err, bits)

    # -- formatting -----------------------------------------------------------

    def to_decimal(self, dps: int | None = None) -> str:
        dps = dps or max(6, int(self.bits / BITS_PER_DIGIT) - 2)
        if self.err == fzero:
            return f"{to_str(self.val, dps)} ± 0"
        return f"{to_str(self.val, dps)} ± {to_str(self.err, 3)}"

    @classmethod
    def parse(cls, text: str, bits: int) -> "BigReal":
        parts = text.split("±")
        val = from_str(parts[0].strip(), bits, RN)
        if len(parts) == 1:
            return cls(val, _ulp(val, bits, 1), bits)
        err_text = parts[1].strip()
        err = fzero if err_text == "0" else mpf_abs(from_str(err_text, ERR_BITS, RU))
        return cls(val, err, bits)

    def __float__(self) -> float:
        return to_float(self.val)

    def __repr__(self) -> str:
        return f"BigReal({self.to_decimal(min(20, max(6, self.bits // 4)))})"


# ---------------------------------------------------------------------------
# elementary functions


def pi_value(prec: Precision) -> BigReal:
    bits = prec.work_bits
    val = mpf_pi(bits + 8, RN)
    return BigReal(val, _ulp(val, bits, -4), bits)


def sqrt(x: Real, prec: Precision | None = None) -> BigReal:
    bits = prec.work_bits if prec else x.bits
    x = BigReal.lift(x, bits)
    if x.val == fzero and x.err == fzero:
        return BigReal(fzero, fzero, bits)
    if not x.definitely_positive():
        raise DomainError("sqrt of a value not certainly nonnegative")
    val = mpf_sqrt(x.val, bits, RN)
    lo_root = mpf_sqrt(_abs_lo(x.val, x.err), ERR_BITS, RD)
    err = _eadd(
        mpf_div(x.err, mpf_shift(lo_root, 1), ERR_BITS, RU), _ulp(val, bits)
    )
    return BigReal(val, err, bits)


def exp(x: Real, prec: Precision | None = None) -> BigReal:
    bits = prec.work_bits if prec else x.bits
    x = BigReal.lift(x, bits)
    val = mpf_exp(x.val, bits, RN)
    if x.err == fzero:
        growth = fzero
    else:
        growth = mpf_sub(mpf_exp(x.err, ERR_BITS, RU), fone, ERR_BITS, RU)
    err = _eadd(_emul(_abs_hi(val, fzero), growth), _ulp(val, bits, 3))
    return BigReal(val, err, bits)


def log(x: Real, prec: Precision | None = None) -> BigReal:
    bits = prec.work_bits if prec else x.bits
    x = BigReal.lift(x, bits)
    lo = _abs_lo(x.val, x.err)
    if not x.definitely_positive():
        raise DomainError("log of a value not certainly positive")
    val = mpf_log(x.val, bits, RN)
    err = _eadd(
        mpf_div(x.err, lo, ERR_BITS, RU),
        _emul(_eadd(mpf_abs(val), fone), _pow2(-bits + 2)),
    )
    return BigReal(val, err, bits)


def asin(x: Real, prec: Precision | None = None) -> BigReal:
    bits = prec.work_bits if prec else x.bits
    x = BigReal.lift(x, bits)
    hi = _abs_hi(x.val, x.err)
    if mpf_cmp(hi, fone) > 0:
        if mpf_cmp(mpf_abs(x.val), fone) == 0 and x.err == fzero:
            hi = fone
        else:
            raise DomainError("asin argument not certainly within [-1, 1]")
    val = mpf_asin(x.val, bits, RN)
    if mpf_cmp(hi, fone) == 0:
        if x.err != fzero:
            raise DomainError("asin derivative unbounded at |x| = 1")
        deriv_term = fzero
    else:
        one_minus = mpf_sub(fone, mpf_mul(hi, hi, ERR_BITS, RU), ERR_BITS, RD)
        if mpf_cmp(one_minus, fzero) <= 0:
            raise DomainError("asin derivative unbounded near |x| = 1")
        deriv_term = mpf_div(x.err, mpf_sqrt(one_minus, ERR_BITS, RD), ERR_BITS, RU)
    err = _eadd(deriv_term, _emul(_eadd(mpf_abs(val), fone), _pow2(-bits + 2)))
    return BigReal(val, err, bits)


def _sin_pi_reduced(frac: Fraction, bits: int):
    """sin(pi*x) for exact rational x via exact mod-2 reduction."""
    n = math.floor(frac)
    r = frac - n  # in [0, 1)
    sign = -1 if n % 2 else 1
    if r > Fraction(1, 2):
        r = 1 - r
    arg = from_rational(r.numerator, r.denominator, bits + 8, RN)
    val = mpf_sin_pi(arg, bits, RN)
    return (mpf_neg(val) if sign < 0 else val)


def sin_pi_times(x: Real, prec: Precision) -> BigReal:
    """sin(pi*x); argument reduction is exact when x is rational."""
    bits = prec.work_bits
    if isinstance(x, (int, Fraction)):
        val = _sin_pi_reduced(Fraction(x), bits)
        return BigReal(val, _emul(_eadd(mpf_abs(val), fone), _pow2(-bits + 3)), bits)
    val = mpf_sin_pi(x.val, bits, RN)
    err = _eadd(
        _emul(x.err, from_int(4)),
        _emul(_eadd(mpf_abs(val), fone), _pow2(-bits + 3)),
    )
    return BigReal(val, err, bits)


def cos_pi_times(x: Real, prec: Precision) -> BigReal:
    """cos(pi*x) = sin(pi*(x + 1/2)), reduced exactly for rational x."""
    if isinstance(x, (int, Fraction)):
        return sin_pi_times(Fraction(x) + Fraction(1, 2), prec)
    half = BigReal(from_man_exp(1, -1), fzero, x.bits)
    return sin_pi_times(x + half, prec)


# ---------------------------------------------------------------------------
# Gamma and Beta

_LN2PI_HALF: dict[int, tuple] = {}
_STIRLING_COEFFS: dict[int, tuple] = {}
_STIRLING_LOCK = threading.Lock()
_GAMMA_CACHE: dict[tuple, tuple] = {}
_GAMMA_CACHE_MAX = 20000


def _half_ln_2pi(bits: int):
    v = _LN2PI_HALF.get(bits)
    if v is None:
        two_pi = mpf_shift(mpf_pi(bits + 8, RN), 1)
        v = mpf_shift(mpf_log(two_pi, bits + 4, RN), -1)
        _LN2PI_HALF[bits] = v
    return v


def _stirling_coeff(n: int, bits: int):
    coeffs = _STIRLING_COEFFS.get(bits, ())
    if len(coeffs) < n:
        # lock: concurrent extension would interleave appends, and mpmath's
        # internal Bernoulli cache is not thread-safe either
        with _STIRLING_LOCK:
            grown = list(_STIRLING_COEFFS.get(bits, ()))
            while len(grown) < n:
                k = len(grown) + 1
                b = mpf_bernoulli(2 * k, bits + 8, RN)
                grown.append(mpf_div(b, from_int(2 * k * (2 * k - 1)), bits + 4, RN))
            coeffs = tuple(grown)
            _STIRLING_COEFFS[bits] = coeffs
    return coeffs[n - 1]


def _min_stirling_z(bits: int) -> int:
    # e^(-2 pi z) below 2^-(bits+48) makes the smallest Stirling term
    # clear the stopping threshold before the series turns.
    return int((bits + 48) * 0.110318) + 4


def _lngamma_stirling(w, bits: int):
    """ln Gamma(w) for an mpf w >= _min_stirling_z(bits); returns (val, err)."""
    L = mpf_log(w, bits, RN)
    acc = mpf_mul(mpf_sub(w, from_man_exp(1, -1), bits, RN), L, bits, RN)
    acc = mpf_sub(acc, w, bits, RN)
    acc = mpf_add(acc, _half_ln_2pi(bits), bits, RN)
    inv2 = mpf_div(fone, mpf_mul(w, w, bits, RN), bits, RN)
    t = mpf_div(fone, w, bits, RN)
    thresh = mpf_shift(mpf_abs(acc), -(bits + 8))
    n = 1
    while True:
        term = mpf_mul(_stirling_coeff(n, bits), t, bits, RN)
        acc = mpf_add(acc, term, bits, RN)
        if mpf_cmp(mpf_abs(term), thresh) <= 0:
            remainder = mpf_abs(term)
            break
        t = mpf_mul(t, inv2, bits, RN)
        n += 1
        if n > 8 * _min_stirling_z(bits):
            raise MPRealError("Stirling series failed to reach threshold")
    mag = _eadd(mpf_abs(acc), mpf_abs(mpf_mul(w, L, ERR_BITS, RU)))
    rounding = _emul(_emul(from_int(4 * n + 32), mag), _pow2(-bits))
    return acc, _eadd(remainder, rounding)


def _gamma_positive_rational(x: Fraction, bits: int) -> BigReal:
    """Gamma at rational x >= 1/2 via exact shift + Stirling."""
    z0 = _min_stirling_z(bits)
    m = max(0, math.ceil(z0 - x))
    w_rat = x + m
    w = from_rational(w_rat.numerator, w_rat.denominator, bits, RN)
    ln_val, ln_err = _lngamma_stirling(w, bits)
    # representation error of w feeds through psi(w) < ln(w) + 1
    ln_err = _eadd(ln_err, _emul(_ulp(w, bits, 1), _eadd(mpf_abs(mpf_log(w, ERR_BITS, RU)), fone)))
    g = mpf_exp(ln_val, bits, RN)
    err = _eadd(_emul(mpf_abs(g), ln_err), _ulp(g, bits, 3))
    big = BigReal(g, err, bits)
    if m == 0:
        return big
    shift = Fraction(1)
    for k in range(m):
        shift *= x + k
    return big / BigReal.from_fraction(shift, bits)


def gamma(x: Union[Fraction, int], prec: Precision) -> BigReal:
    """Gamma(x); x must not be zero or a negative integer.

    Rational arguments are shifted with exact rational arithmetic before the
    asymptotic series, so poles are detected exactly.  The returned bound
    satisfies err <= 2^(-work_bits+8) * |Gamma(x)|.
    """
    wb = prec.work_bits + 32
    x = Fraction(x)
    if x.denominator == 1 and x <= 0:
        raise GammaPoleError(f"gamma pole at {x}")
    key = (x.numerator, x.denominator, wb)
    hit = _GAMMA_CACHE.get(key)
    if hit is not None:
        return BigReal(hit[0], hit[1], prec.work_bits)
    if x >= Fraction(1, 2):
        out = _gamma_positive_rational(x, wb)
    else:
        # reflection: Gamma(x) = pi / (sin(pi x) * Gamma(1 - x))
        inner = Precision(prec.target_digits, wb)
        s = sin_pi_times(x, inner)
        g1 = _gamma_positive_rational(1 - x, wb)
        out = pi_value(inner) / (s * g1)
    if len(_GAMMA_CACHE) > _GAMMA_CACHE_MAX:
        _GAMMA_CACHE.clear()
    _GAMMA_CACHE[key] = (out.val, out.err)
    return BigReal(out.val, out.err, prec.work_bits)


def beta(x: Fraction, y: Fraction, prec: Precision) -> BigReal:
    """Euler Beta via the Gamma relation B(x,y) = G(x)G(y)/G(x+y)."""
    x, y = Fraction(x), Fraction(y)
    for arg in (x, y, x + y):
        if arg.denominator == 1 and arg <= 0:
            raise GammaPoleError(f"beta pole: gamma argument {arg}")
    return gamma(x, prec) * gamma(y, prec) / gamma(x + y, prec)


# ---------------------------------------------------------------------------
# tanh-sinh quadrature

_TS_NODE_CACHE: dict[tuple, list] = {}

Integrand = Callable[[BigReal, BigReal], BigReal]


def _ts_nodes(bits: int, level: int) -> list:
    """Positive-t nodes (x, 1-x, weight) for the given refinement level.

    Abscissa x = 1/(1 + e^(-2u)) with u = (pi/2) sinh(t); the complement is
    returned at full relative precision so integrands can resolve endpoint
    singularities.  Weight is pi*cosh(t)*x*(1-x) (the step h is applied by
    the caller).  Level 0 uses t = j; level k >= 1 the odd multiples of
    2^-k.
    """
    key = (bits, level)
    nodes = _TS_NODE_CACHE.get(key)
    if nodes is not None:
        return nodes
    wb = bits + 16
    pi_half = mpf_shift(mpf_pi(wb, RN), -1)
    pi_full = mpf_pi(wb, RN)
    u_max = 8.0 * (bits + 96) * math.log(2)
    nodes = []
    j = 1
    step = 1 if level == 0 else 2
    while True:
        t = from_man_exp(j, -level)
        ch, sh = mpf_cosh_sinh(t, wb, RN)
        u = mpf_mul(pi_half, sh, wb, RN)
        if to_float(u) > u_max:
            break
        e = mpf_exp(mpf_neg(mpf_shift(u, 1)), wb, RN)
        denom = mpf_add(fone, e, wb, RN)
        x = mpf_div(fone, denom, wb, RN)
        cx = mpf_div(e, denom, wb, RN)
        w = mpf_mul(mpf_mul(pi_full, ch, wb, RN), mpf_mul(x, cx, wb, RN), wb, RN)
        nodes.append((x, cx, w))
        j += step
    _TS_NODE_CACHE[key] = nodes
    return nodes


def tanh_sinh_integrate(
    f: Integrand,
    a: Fraction,
    b: Fraction,
    prec: Precision,
    level_cap: int = 12,
) -> BigReal:
    """Integrate f over (a, b) by tanh-sinh refinement.

    The integrand is called as f(t - a, b - t) with both distances as
    BigReals at full relative precision (endpoint-singular factors of
    exponent > -1 are handled).  The returned error bound is the successive
    level difference times a safety factor plus the propagated integrand
    bounds; failure to converge within the level cap raises QuadratureError.
    """
    a, b = Fraction(a), Fraction(b)
    if not b > a:
        raise DomainError("tanh_sinh_integrate requires b > a")
    wb = prec.work_bits + 16
    scale = BigReal.from_fraction(b - a, wb)

    node_rel = _pow2(-wb + 6)

    def call(x, cx):
        u = scale * BigReal(x, _emul(mpf_abs(x), node_rel), wb)
        v = scale * BigReal(cx, _emul(mpf_abs(cx), node_rel), wb)
        return f(u, v)

    half = from_man_exp(1, -1)
    fe_total = fzero
    # center node t=0: x = cx = 1/2, weight pi/4
    w0 = mpf_shift(mpf_pi(wb, RN), -2)
    g0 = call(half, half)
    total = mpf_mul(w0, g0.val, wb, RN)
    fe_total = _eadd(fe_total, _emul(w0, g0.err))
    prev = None
    diff = None
    for level in range(level_cap + 1):
        h_shift = -level
        new_sum = fzero
        tiny_streak = 0
        for x, cx, w in _ts_nodes(prec.work_bits, level):
            g_right = call(x, cx)
            g_left = call(cx, x)
            contrib = mpf_mul(w, mpf_add(g_right.val, g_left.val, wb, RN), wb, RN)
            new_sum = mpf_add(new_sum, contrib, wb, RN)
            fe_total = _eadd(fe_total, _emul(w, _eadd(g_right.err, g_left.err)))
            mag = mpf_abs(contrib)
            floor_mag = mpf_shift(mpf_add(fone, mpf_abs(new_sum), ERR_BITS, RU), -(wb + 8))
            if mpf_cmp(mag, floor_mag) <= 0:
                tiny_streak += 1
                if tiny_streak >= 6:
                    break
            else:
                tiny_streak = 0
        if level == 0:
            total = mpf_add(total, new_sum, wb, RN)
            cur = total
        else:
            cur = mpf_add(mpf_shift(prev, -1), mpf_shift(new_sum, h_shift), wb, RN)
        if prev is not None and level >= 2:
            diff = mpf_abs(mpf_sub(cur, prev, ERR_BITS, RU))
            tol = _emul(
                _eadd(fone, mpf_abs(cur)),
                from_str(f"1e-{prec.target_digits + 5}", ERR_BITS, RU),
            )
            if mpf_cmp(diff, tol) <= 0:
                err = _eadd(
                    _emul(from_int(10), diff),
                    fe_total,
                    _emul(_eadd(fone, mpf_abs(cur)), _pow2(-wb + 12)),
                )
                out = BigReal(cur, err, wb) * scale
                return BigReal(out.val, out.err, prec.work_bits)
        prev = cur
    raise QuadratureError(
        f"tanh-sinh did not converge by level {level_cap}"
        + (f" (last refinement difference {to_str(diff, 3)})" if diff else "")
    )
