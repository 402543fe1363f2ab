"""Arbitrary-precision reals with tracked error bounds, the fixed-point
hypergeometric series kernel, Gamma and Beta on it, and tanh-sinh
quadrature.

A `BigReal` carries a floating value at some working bit precision together
with a bound on its absolute error; every operation propagates the bound
conservatively (first-order interval style, with all bound arithmetic done
in round-away-from-zero mode so bounds are never understated).  The true
mathematical value always lies in [value - err, value + err].

Numbers are raw mpf tuples from mpmath's libmp layer, whose primitives take
an explicit bit precision and rounding mode per call.  There is therefore
no global precision state anywhere in this module: `Precision` objects are
plain values, and everything is safe to use concurrently.

`fixed_point_sum` is the one series kernel of the package: it sums a pFq
series with rational parameters in Python integers, with an integer ulp
bound and a geometric tail bound, and returns the enclosure as a BigReal;
`hyper.f21_series`, `gamma` and `beta` call it once per series.  Its term
ratio is built once per series, z folded in and equal parameters
cancelled, and stepped in C by `itertools`; the terms run in chunks of up
to 32, with the rescale and the tail test between chunks.  A series of
positive terms keeps only wb bits below its largest term, as it cannot
cancel.  Gamma is computed by an exact-rational Pochhammer reduction of
the argument to (0, 1] (so pole detection is exact) followed by the
incomplete-gamma series 1F1(1; y+1; M) plus the asymptotic sum of the
upper incomplete gamma Gamma(y, M), whose remainder is at most its first
neglected term, or, for 1/2 < y < 1, by reflection from Gamma(1 - y).
Beta is the sum of two incomplete-Beta series at 1/2, with positive
terms, and no Gamma.  The quadrature is standard tanh-sinh over (0, 1),
the one interval of every integral in the package, with per-level node
caching; each cached node holds x and 1 - x, handed to the integrand at
full relative precision, so endpoint-singular factors are evaluated
without cancellation.  The node loop sums, bounds and tests its terms in
Python integers.

Every integrand of the package is a `PowerIntegrand`, the data
u^a v^b prod P(x)^c with exact rational exponents and polynomials P
certainly positive on [0, 1]: each P is evaluated by Horner on the
integers of x's mantissa with a relative bound, and the sum of r ln base
and its bound are taken in integers, so an evaluation costs one log per
polynomial and one exp.  `power_product` is the same integer sum for
BigReal bases, each ln from `_log_fixed`, and the same exp (`_exp_sum`).
It is also the one fractional power: `BigReal.pow_rational` keeps
exponent 0, the integers (`pow_int`) and 1/2 (`sqrt`), and hands every
other exponent to it.

Logs are cached by value: `_ln` keeps ln of val ± err per (val, err,
bits), so pi, the integers of `ge_eval`, Gamma's ln M and the quadrature
nodes, met again at one precision, take no second `mpf_log`, and
`_poly_log` keeps ln P(x) per polynomial, x and bits, so integrands that
share a factor take it once per node.  `log` itself is uncached, so that
one-off logs leave those entries alone.

Every cache of the module is a `functools` cache on the function that
fills it: Gamma on (0, 1] (`_gamma_unit`) and the two logs, bounded, and
pi and the quadrature nodes, one entry per precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable, NamedTuple, Union

from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    from_str,
    fone,
    fzero,
    mpf_abs,
    mpf_add,
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
    def of(cls, target_digits: int) -> "Precision":
        if target_digits < 1:
            raise ValueError("target_digits must be positive")
        return cls(target_digits, math.ceil(target_digits * BITS_PER_DIGIT) + 76)

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


class IntervalGap(NamedTuple):
    """Two enclosures x and y side by side: |x.val - y.val| and x.err +
    y.err, each rounded up at ERR_BITS, and the scale max(1, |x.val|).
    This is the only interval arithmetic of the verdicts."""

    dist: tuple
    radius: tuple
    scale: tuple

    @classmethod
    def of(cls, x: BigReal, y: BigReal) -> IntervalGap:
        dist = mpf_abs(mpf_sub(x.val, y.val, ERR_BITS, RU))
        radius = mpf_add(x.err, y.err, ERR_BITS, RU)
        scale = mpf_abs(x.val) if mpf_cmp(mpf_abs(x.val), fone) > 0 else fone
        return cls(dist, radius, scale)

    def disjoint(self) -> bool:
        return mpf_cmp(self.dist, self.radius) > 0

    def radius_within(self, digits: int) -> bool:
        """The summed radius is at most scale / 10^digits, rounded up."""
        power = BigReal.from_fraction(Fraction(10) ** digits, ERR_BITS).val
        return mpf_cmp(self.radius, mpf_div(self.scale, power, ERR_BITS, RU)) <= 0

    def log2_bound(self) -> int | None:
        """An upper bound on log2((dist + radius) / scale); None if that is 0."""
        total = mpf_add(self.dist, self.radius, ERR_BITS, RU)
        if total == fzero:
            return None
        _, man, exp, bc = mpf_div(total, self.scale, ERR_BITS, RU)
        return exp + bc if man else None


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
        return cls.from_ratio(q.numerator, q.denominator, bits)

    @classmethod
    def from_ratio(cls, num: int, den: int, bits: int) -> "BigReal":
        """num/den for coprime integers with den > 0, rounded once at bits:
        `from_fraction` without the gcd, for the large exact products of
        `gamma`'s shift.  A long num is divided only to a quotient of
        bits + 3 bits or more and a sticky bit for the rest, which rounds
        as the whole quotient does."""
        sh = abs(num).bit_length() - den.bit_length() - bits - 4
        if sh > 0:
            quot, rem = divmod(abs(num), den << sh)
            man = 2 * quot + (rem > 0)
            val = from_man_exp(man if num > 0 else -man, sh - 1, bits, RN)
        else:
            val = from_rational(num, den, bits, RN)
        exact = den & (den - 1) == 0 and abs(num).bit_length() <= bits
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
        """self ** (p/q): exactly 1 at exponent 0, `pow_int` at an integer,
        `sqrt` at 1/2, and otherwise `power_product`, which needs a
        certainly positive base (real principal powers only)."""
        r = Fraction(r)
        if r == 0:
            return BigReal(fone, fzero, self.bits)
        if r.denominator == 1:
            return self.pow_int(r.numerator)
        if r == Fraction(1, 2):
            return sqrt(self)
        return power_product((self, r))

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
    """pi at work_bits (`_pi`)."""
    return _pi(prec.work_bits)


@cache
def _pi(bits: int) -> BigReal:
    """pi at bits, rounded at bits + 8, cached per precision."""
    val = mpf_pi(bits + 8, RN)
    return BigReal(val, _ulp(val, bits, -4), bits)


def sqrt(x: BigReal) -> BigReal:
    bits = x.bits
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


def exp(x: BigReal) -> BigReal:
    bits = x.bits
    val = mpf_exp(x.val, bits, RN)
    # e^eps - 1 <= eps e^eps; e^eps - 1 rounded at ERR_BITS would floor at 2^-31
    growth = _emul(x.err, mpf_exp(x.err, ERR_BITS, RU))
    err = _eadd(_emul(_abs_hi(val, fzero), growth), _ulp(val, bits, 3))
    return BigReal(val, err, bits)


@lru_cache(maxsize=4096)
def _ln(val, err, bits: int):
    """ln of val ± err as (value, bound), the value rounded at `bits`, for
    mpfs with val > err; cached per (val, err, bits).  The bound is err/lo,
    the mean value theorem on the interval, plus the value's rounding,
    (|ln| + 1) 2^(2-bits)."""
    if mpf_cmp(val, err) <= 0:
        raise DomainError("log of a value not certainly positive")
    ln = mpf_log(val, bits, RN)
    rounding = _emul(_eadd(mpf_abs(ln), fone), _pow2(-bits + 2))
    if err == fzero:
        return ln, rounding
    return ln, _eadd(mpf_div(err, _abs_lo(val, err), ERR_BITS, RU), rounding)


def log(x: BigReal) -> BigReal:
    """ln x at x's bits, uncached: a one-off log leaves `_ln`'s cache to the
    bases that recur."""
    return BigReal(*_ln.__wrapped__(x.val, x.err, x.bits), x.bits)


def _fixed(v, fb: int) -> int:
    """The mpf v cut to fb fraction bits, an integer within 1 of v 2^fb."""
    sign, man, exp, _ = v
    fixed = man << (exp + fb) if exp + fb >= 0 else man >> -(exp + fb)
    return -fixed if sign else fixed


def _exp_sum(total: int, bound: int, den: int, fb: int, bits: int) -> BigReal:
    """exp(S) at `bits` for S = sum r ln base, the one exp of `power_product`
    and `PowerIntegrand`: total = sum p L over the common denominator den
    of the r, p = r den and L each ln base cut to fb fraction bits, and
    bound = sum |p| (B + 1), B the bound of L in units of 2^-fb and 1 for
    its cut.  With 1 more for the floor division by den,
    eps = ceil((bound + den) / den) 2^-fb bounds |S - floor(total / den) 2^-fb|.
    The value carries eps as eps e^eps (e^eps - 1 <= eps e^eps), plus
    2^(3-bits) for its rounding."""
    val = mpf_exp(from_man_exp(total // den, -fb), bits, RN)
    eps = from_man_exp(-(-(bound + den) // den), -fb)
    growth = mpf_add(_emul(eps, mpf_exp(eps, ERR_BITS, RU)), _pow2(3 - bits), ERR_BITS, RU)
    return BigReal(val, _emul(val, growth), bits)


def power_product(*factors: tuple[BigReal, Real]) -> BigReal:
    """prod base^r over the (base, r) pairs, for certainly positive BigReal
    bases and rational r, as exp(sum r ln base): one exp, and one log for
    each base not met before at its value, radius and bits (`_ln`).

    Each ln base comes from `_log_fixed` at fb = bits + 8 fraction bits,
    bounded as by `log` (err/lo plus rounding).  Over the common
    denominator d of the r the sum and its bound are integers, as in
    `PowerIntegrand`, and `_exp_sum` takes the one exp."""
    bits = max((base.bits for base, _ in factors), default=0)
    factors = [(base, r) for base, r in factors if r]
    if not factors:
        return BigReal(fone, fzero, bits)
    fb = bits + 8
    den = math.lcm(*(r.denominator for _, r in factors))
    total = bound = 0
    for base, r in factors:
        L, B = _log_fixed(base, fb)
        p = r.numerator * (den // r.denominator)
        total += p * L
        bound += abs(p) * (B + 1)
    return _exp_sum(total, bound, den, fb, bits)


def _log_fixed(x: BigReal, fb: int) -> tuple[int, int]:
    """ln x for a certainly positive x as integers (L, B): L the value of
    `_ln` at fb bits cut to fb fraction bits, B its bound rounded up to a
    whole number of 2^-fb."""
    ln, (_, m, e, _) = _ln(x.val, x.err, fb)
    B = m << (e + fb) if e + fb >= 0 else -(-m >> -(e + fb))
    return _fixed(ln, fb), B


def _horner(coeffs: tuple[int, ...], den: int, dsum: int, val, err, p: int):
    """P(y) = sum C_k y^k / den, for the integers C_n, ..., C_0 in `coeffs`
    (highest first) and dsum = sum k |C_k|, at every y in the interval
    x = val ± err of mpfs, as integers (Y, e, E): Y 2^e is within E 2^e of
    each P(y).

    Horner runs on x's mantissa in integers: each step Y <- Y man + C_k is
    exact, then cut to p bits, which costs at most one ulp of that step,
    2^e_k <= 2^(1-p) of its value; the k-th step's ulp reaches the end
    multiplied by |x|^k < 2^(k xh).  A shorter result is widened to p bits
    before the bounds are added.  x's radius r adds r sum k |C_k| h^(k-1),
    the mean value theorem with h = max(1, |x| + r).  A den other than 1
    is one floor division of Y (1 ulp) and a ceiling one of E."""
    sign, man, exp, bc = val
    if sign:
        man = -man
    xh = max(0, exp + bc)  # |x| < 2^xh
    Y, e = coeffs[0], 0
    ulps = []
    k = len(coeffs) - 1
    for c in coeffs[1:]:
        k -= 1
        a = e + exp
        if a < 0:
            Y, e = Y * man + (c << -a), a
        else:
            Y, e = (Y * man << a) + c, 0
        cut = Y.bit_length() - p
        if cut > 0:
            Y >>= cut
            e += cut
            ulps.append(e + k * xh)
    short = p - Y.bit_length()
    if short > 0:  # an exact value of few bits: give the bounds room
        Y <<= short
        e -= short
    E = sum(1 << (u - e) if u > e else 1 for u in ulps)
    _, rm, re, _ = err
    if rm:
        n = len(coeffs) - 1
        d = rm * dsum
        if n > 1:
            # h^(n-1) bounds every |y|^(k-1) once h = |x| + r is above 1
            lo = min(exp, re)
            h = (abs(man) << (exp - lo)) + (rm << (re - lo))
            if (h > 1 << -lo) if lo < 0 else h << lo > 1:
                d *= h ** (n - 1)
                re += lo * (n - 1)
        E += d << (re - e) if re >= e else -(-d >> (e - re))
    if den != 1:
        s = den.bit_length()
        Y, E, e = (Y << s) // den, -(-(E << s) // den) + 1, e - s
    return Y, e, E


@lru_cache(maxsize=1024)
def _poly_log(coeffs: tuple[int, ...], den: int, dsum: int, val, err, fb: int):
    """ln P(x) at x = val ± err for `_horner`'s P as integers (L, B) in
    units of 2^-fb: L cut from one `mpf_log` at fb bits, B log's rounding,
    (|ln| + 1) 2^(2-fb), plus E/(Y - E) for Horner's enclosure at fb + 8
    bits; cached per polynomial, x and fb."""
    Y, e, E = _horner(coeffs, den, dsum, val, err, fb + 8)
    if Y <= E:
        raise DomainError("polynomial factor not certainly positive")
    L = _fixed(mpf_log(from_man_exp(Y, e), fb, RN), fb)
    return L, 4 * ((abs(L) >> fb) + 3) - (-(E << fb) // (Y - E))


def _bernstein_positive(coeffs: tuple[Fraction, ...]) -> bool:
    """Whether every Bernstein coefficient on [0, 1] of sum c_k x^k (lowest
    first) is positive, which makes the polynomial positive on [0, 1]."""
    n = len(coeffs) - 1
    return all(
        sum(Fraction(math.comb(j, k), math.comb(n, k)) * c for k, c in enumerate(coeffs[: j + 1])) > 0
        for j in range(n + 1)
    )


@dataclass(frozen=True)
class PowerIntegrand:
    """The integrand u^u_exp v^v_exp prod P(x)^r of an integral over (0, 1),
    as data, called as f(u, v) with v = 1 - u.  Each factor (x, coeffs, r)
    is a polynomial P(x) = sum coeffs[k] x^k in x = "u" or "v" with exact
    rational coefficients (lowest first) and a rational exponent r; every
    Bernstein coefficient of P on [0, 1] must be positive, which makes P
    certainly positive there (DomainError otherwise).

    A call takes ln u and ln v as `_log_fixed` gives them, each ln P from
    `_poly_log` (`_horner` at fb + 8 bits and one `mpf_log`, bounded by
    log's rounding plus E/(Y - E) for Horner's enclosure), and sums r ln
    and its bound in integers for `_exp_sum`, as `power_product` does: one
    log per polynomial and one exp.  Both logs are cached by value, so at
    the quadrature's nodes integrands that share a factor (the proof's i_t
    at each b) take each log once per node."""

    u_exp: Fraction
    v_exp: Fraction
    factors: tuple[tuple[str, tuple[Fraction, ...], Fraction], ...] = ()
    # (is_v, p) per power of u or v, and (is_v, C, den, dsum, p) per
    # polynomial, with p = r times the common denominator `_den`
    _logs: tuple = field(init=False, repr=False, compare=False)
    _polys: tuple = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        powers = [(False, Fraction(self.u_exp)), (True, Fraction(self.v_exp))]
        polys = []
        for var, coeffs, r in self.factors:
            if var not in ("u", "v"):
                raise ValueError(f"factor variable must be 'u' or 'v', not {var!r}")
            coeffs = [Fraction(c) for c in coeffs]
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs or not _bernstein_positive(coeffs):
                raise DomainError(f"factor {coeffs} is not certainly positive on [0, 1]")
            polys.append((var == "v", coeffs, Fraction(r)))
        den = math.lcm(*(r.denominator for _, r in powers), *(r.denominator for *_, r in polys))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_logs", tuple((is_v, int(r * den)) for is_v, r in powers if r))
        plan = []
        for is_v, coeffs, r in polys:
            if r:
                cden = math.lcm(*(c.denominator for c in coeffs))
                ints = tuple(int(c * cden) for c in reversed(coeffs))
                dsum = sum(k * abs(int(c * cden)) for k, c in enumerate(coeffs))
                plan.append((is_v, ints, cden, dsum, int(r * den)))
        object.__setattr__(self, "_polys", tuple(plan))

    def __call__(self, u: BigReal, v: BigReal) -> BigReal:
        bits = max(u.bits, v.bits)
        fb = bits + 8
        total = bound = 0
        for is_v, p in self._logs:
            L, B = _log_fixed(v if is_v else u, fb)
            total += p * L
            bound += abs(p) * (B + 1)
        for is_v, coeffs, cden, dsum, p in self._polys:
            x = v if is_v else u
            L, B = _poly_log(coeffs, cden, dsum, x.val, x.err, fb)
            total += p * L
            bound += abs(p) * (B + 1)
        return _exp_sum(total, bound, self._den, fb, bits)


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
# fixed-point hypergeometric series


def _values(pairs, const: int):
    """const * prod(num + den n) over the (num, den) pairs at n = 0, 1, ...,
    stepped in C from its forward differences at 0: for degree d, `count`
    runs the (d-1)-th and each `accumulate` adds one into the one below."""
    d = len(pairs) if const else 0
    f = []
    for n in range(d + 1):
        value = const
        for num, den in pairs:
            value *= num + den * n
        f.append(value)
    for k in range(1, d + 1):  # f[i] becomes the i-th difference at 0
        for i in range(d, k - 1, -1):
            f[i] -= f[i - 1]
    values = itertools.count(*f[d - 1 :]) if d else itertools.repeat(const)
    for start in reversed(f[: d - 1]):
        values = itertools.accumulate(values, initial=start)
    return values


def _center_radius(z: Real) -> tuple[int, int, int]:
    """Integers (u, v, D) with z in [(u - D)/v, (u + D)/v] and v > 0, exact
    in both cases: a rational z is u/v with D = 0; a BigReal z has dyadic
    value and error, written over the common denominator v = 2^k."""
    if not isinstance(z, BigReal):
        z = Fraction(z)
        return z.numerator, z.denominator, 0
    sign, man, exp, _ = z.val
    _, eman, eexp, _ = z.err
    k = max(0, -exp, -eexp)
    center = man << (exp + k)
    return -center if sign else center, 1 << k, eman << (eexp + k)


def fixed_point_sum(
    upper, lower, z: Real, bits: int, term_cap: int | None = None, companion=()
) -> BigReal | tuple[BigReal, BigReal] | None:
    """The series pFq(upper; lower; z) = sum_n t_n, t_n = prod (a)_n /
    prod (b)_n z^n / n!, for rational parameters, p <= q + 1 <= 3, at a
    rational or BigReal z, as a BigReal at `bits` with radius at most
    2^-bits max(1, |value|) unless z's radius dominates; None if term_cap
    terms pass before the tail bound is met.  A non-terminating series with
    p = q + 1 raises DomainError unless |z| < 1 on all of z's interval.

    `companion`, pairs (sigma, alpha) with sigma = +-1 and rational alpha
    not a nonpositive integer, adds the series sum_n g_n t_n with
    g_n = sum_{k<n} delta_k and delta_k = sum sigma / (k + alpha): the
    harmonic part of a logarithmic connection formula.  The result is then
    the pair (sum t_n, sum g_n t_n), each to the same radius rule.

    `_scaled_sum` sums at wb = bits + guard, guard = bits.bit_length() + 10
    bits for the rounding of O(bits) terms.  A sum that misses the radius
    target (one that cancels, or one of very many terms) is summed once
    more, wb raised by the missed bits plus the guard, if its rounding
    dominates: if z's relative radius D/|u| is at most 2^-wb, one rounding
    of the first term.
    """
    if not len(upper) <= len(lower) + 1 <= 3:
        raise ValueError("fixed_point_sum needs p <= q + 1 <= 3 parameters")
    if companion and any(al.denominator == 1 and al <= 0 for _, al in companion):
        raise ValueError("companion shift must not be a nonpositive integer")
    u, v, D = _center_radius(z)
    terminates = any(a.denominator == 1 and a <= 0 for a in upper)
    if len(upper) == len(lower) + 1 and not terminates and abs(u) + D >= v:
        raise DomainError("series argument must satisfy |z| < 1")
    if u == 0 and D == 0:
        one = BigReal.from_int(1, bits)
        return (one, BigReal.from_int(0, bits)) if companion else one
    guard = bits.bit_length() + 10
    wb = bits + guard
    for attempt in range(2):
        out = _scaled_sum(upper, lower, u, v, D, wb, bits, term_cap, companion)
        if out is None:
            return None
        # how often err exceeds its target 2^-bits max(2^wb, |S| - err), as
        # |S| - err bounds |2^wb value| from below (S is noise if err > |S|)
        miss = max((err << bits) // max(abs(S) - err, 1 << wb) for S, err in out)
        if attempt or not miss or D << wb > abs(u):
            break
        wb += miss.bit_length() + guard
    sums = tuple(
        BigReal(from_man_exp(S, -wb), from_man_exp(err, -wb, ERR_BITS, RU), bits)
        for S, err in out
    )
    return sums if companion else sums[0]


def _harmonic(terms, n: int) -> tuple[int, int]:
    """(N, D) with D > 0 and N/D = sum s / (q n + p) over (p, q, s) in terms."""
    dens = [q * n + p for p, q, _ in terms]
    den = math.prod(dens)
    num = sum(s * (den // d) for (_, _, s), d in zip(terms, dens))
    return (-num, -den) if den < 0 else (num, den)


def _scaled_sum(
    upper, lower, u: int, v: int, D: int, wb: int, pwb: int, term_cap: int | None,
    companion=(),
) -> list[tuple[int, int]] | None:
    """The pFq series at z in [(u - D)/v, (u + D)/v], v > 0, in integers
    scaled by 2^wb: [(S, err)] with |S - 2^wb F| <= err, and with a
    companion also (G, err_G), the same for its sum; None if term_cap terms
    pass before the tail bound is met.

    The terms are T <- floor(T P / Q) and S <- S + T, with P/Q the term
    ratio in integers, u folded into P and v into Q, stepped in C by
    `_values`; an upper parameter equal to a lower one or to n!'s 1, and
    the gcd of their constants, cancel from both (no bit moves).  Each
    floor division costs at most 1 ulp, so an integer bound E on the error
    of T, in ulps, propagates as E <- ceil(E |P / Q|) + 1, or with a radius
    D > 0 as E <- ceil((|T| D + E (|u| + D)) |P / Q| / |u|) + 1 (a z
    centred on 0 folds 1 for u and starts from T = 0, E = 2^wb).  Each
    ceiling is -(m x P // Q), m = -sign(P/Q).  The error is the sum of the
    E plus 1 ulp, plus a geometric tail bound on the true terms from
    (|T| + E).  The companion term g_n t_n steps the same way, before T
    does, as floor(X P / (Q Dd)) with X = g_n t_n Dd + Nd t_n and delta_n =
    Nd/Dd, Dd > 0; its own ulp bound propagates like E, with Dd EG + |Nd| E
    as the error of X.

    The terms run in chunks that end at each multiple of 32, at each n
    where P/Q changes sign, at term_cap and where the series ends.  A
    series of positive terms (u > 0, every parameter > 0, no companion)
    cannot cancel, so it needs no bits below 2^-wb of its largest term: at
    a multiple of 32, a T above 2^(wb+64) is cut to wb + 1 bits: T and S
    shift right by sh, each E and E_sum becomes (E >> sh) + 2 (1 ulp for
    the ceiling, 1 for the floor of the shift), and all later integers are
    in units of 2^scale, scale the sum of the shifts; S and its error
    shift back left by scale on return.

    The tail is tested there too once the ratio bound
    rho = ((|u| + D)/v) prod(n + |a|) / (n prod(n - |b|)), which decreases
    in n past max|param|, is below 1; the sum stops when the tail bound is
    below 2^(-pwb) of the partial sum (or below the rounding bound already
    accrued), or when the series ends.  Past n, |delta_k| <= Dn =
    sum 1/(n - |alpha|), so |g_{n+j}| <= |g_n| + j Dn and the companion's
    tail is at most rho/(1 - rho) |g_n t_n| + rho/(1 - rho)^2 Dn |t_n|.
    """
    up = [(a.numerator, a.denominator) for a in upper]
    lo = [(b.numerator, b.denominator) for b in lower]
    ad = math.prod(den for _, den in up)
    bd = math.prod(den for _, den in lo)
    tops, bottoms = [], lo + [(1, 1)]
    for a in up:  # a nonpositive integer, which ends the series, stays
        if a[0] > 0 and a in bottoms:
            bottoms.remove(a)
        else:
            tops.append(a)
    uf = u if u or not D else 1
    g = math.gcd(uf * bd, v * ad)  # with the dens of the cancelled pairs
    terms = zip(_values(tops, uf * bd // g), _values(bottoms, v * ad // g))
    aU, uD = abs(uf) or 1, abs(u) + D
    stop = min((-num for num, den in up if den == 1 and num <= 0), default=math.inf)
    cap = term_cap if (term_cap or 0) > 0 else math.inf
    # where a negative factor of P or Q turns positive, P/Q changes sign
    flips = sorted((-(num // den) for num, den in tops + bottoms if num < 0), reverse=True)
    m = (-1) ** (1 + (uf < 0) + len(flips))  # -sign(P/Q) at n = 0
    flips.insert(0, math.inf)
    # companion: delta_n = sum sigma q / (q n + p) over alpha = p/q, and
    # |delta_k| <= sum q / (q n - |p|) for every k >= n > max|alpha|
    shifts = [(al.numerator, al.denominator, sigma * al.denominator) for sigma, al in companion]
    bounds = [(-abs(p), q, q) for p, q, _ in shifts]
    paired = bool(shifts)
    wide = paired or D
    n0 = 2 * max(
        [-(-abs(num) // den) for num, den in up + lo + [s[:2] for s in shifts]] + [1]
    ) + 8
    rescales = u > 0 and not paired and all(num > 0 for num, _ in up + lo)
    T = S = 1 << wb
    E = E_sum = 0
    if uf != u:  # every term past the first is 0: (|T| + E) D |P / Q| either way
        T, E = 0, S
    G = EG = EG_sum = G_sum = 0
    n = j = scale = 0
    while n != stop:
        while n == flips[-1]:
            flips.pop()
            m = -m
        end = min((n | 31) + 1, stop, cap, flips[-1])
        for P, Q in itertools.islice(terms, end - n):
            if wide:
                if paired:
                    Nd, Dd = _harmonic(shifts, j)
                    j += 1
                    X = G * Dd + Nd * T
                    EX = EG * Dd + abs(Nd) * E
                    QX = Q * Dd
                    EG = -(m * (abs(X) * D + EX * uD) * P // (aU * QX)) + 1
                    G = X * P // QX
                    G_sum += G
                    EG_sum += EG
                E = -(m * (abs(T) * D + E * uD) * P // (aU * Q)) + 1
            else:
                E = -(m * E * P // Q) + 1
            T = T * P // Q
            S += T
            E_sum += E
        n = end
        if n % 32 == 0:
            if rescales and T >> (wb + 64):
                # floor both shifts: 1 ulp each, and 1 more for E's ceiling
                sh = T.bit_length() - wb - 1
                T >>= sh
                S >>= sh
                E = (E >> sh) + 2
                E_sum = (E_sum >> sh) + 2
                scale += sh
            if n >= n0:
                rn = uD * bd * math.prod(n * den + abs(num) for num, den in up)
                rd = v * n * ad * math.prod(n * den - abs(num) for num, den in lo)
                if rd > rn:
                    tail = -(-(abs(T) + E) * rn // (rd - rn))
                    # below the target, or below the rounding already made
                    if tail << pwb <= abs(S) or tail <= E_sum:
                        if not paired:
                            return [(S << scale, (E_sum + 1 + tail) << scale)]
                        dn, dd = _harmonic(bounds, n)
                        gap = rd - rn
                        g_tail = -(
                            -((abs(G) + EG) * rn * gap * dd + (abs(T) + E) * rn * rd * dn)
                            // (gap * gap * dd)
                        )
                        if g_tail << pwb <= abs(G_sum) or g_tail <= EG_sum:
                            return [(S, E_sum + 1 + tail), (G_sum, EG_sum + 1 + g_tail)]
        if n == cap:
            return None
    # an upper parameter -n ends the series: the sum is complete
    return [(S, E_sum + 1), (G_sum, EG_sum + 1)] if paired else [(S, E_sum + 1)]


# ---------------------------------------------------------------------------
# Gamma and Beta

def _gamma_tail(y: Fraction, M: int, fb: int) -> tuple[int, int]:
    """Integers (S, R) with |Gamma(y, M) M^-y e^M - S 2^-fb| <= R 2^-fb, for
    rational 0 < y <= 1 and an integer M >= 1.

    n integrations by parts give Gamma(y, M) = M^(y-1) e^-M
    sum_{k<n} u_k M^-k + u_n Gamma(y-n, M), u_k = (y-1)(y-2)...(y-k), and
    0 < Gamma(y-n, M) <= M^(y-n-1) e^-M once y - n - 1 < 0 (DLMF
    8.11.2-3): the remainder is at most the first neglected term.  The
    terms a_k = u_k M^(-k-1) are summed at fb fraction bits up to n, the
    first k with k - y >= M, which is M + 1; each T is the one before
    times (y - k)/M <= 0, floored, and U bounds |a_k| 2^fb from above by
    the same steps rounded up.  The summed terms alternate in sign and do
    not grow (|y - k| < M), so each floor's error, carried on through the
    later terms, adds up to less than one ulp of the sum: R is n ulps plus
    U at k = n."""
    p, q = y.numerator, y.denominator
    den = q * M
    T, U = (1 << fb) // M, -(-(1 << fb) // M)
    S, f = 0, p
    for _ in range(M + 1):
        S += T
        f -= q  # q (y - k)
        T = T * f // den
        U = -(U * f // den)
    return S, M + 1 + U


@lru_cache(maxsize=20000)
def _gamma_unit(y: Fraction, wb: int) -> BigReal:
    """Gamma(y) for rational 0 < y <= 1 at wb bits, cached per (y, wb).

    For 1/2 < y < 1 it is pi / (sin(pi y) Gamma(1 - y)) (DLMF 5.5.3), with
    Gamma(1 - y) from the cache at the same wb and the sine taken
    ceil(log2(1/(2(1 - y)))) bits higher, as sin(pi y) >= 2(1 - y), so
    that its absolute radius is relative; which y reflect depends on y
    alone.  Otherwise Gamma(y) = gamma(y, M) + Gamma(y, M) =
    M^y e^-M (1F1(1; y+1; M) / y + A) with M about (wb + 24) / (2 log2 e),
    so that e^-M is about 2^-(wb+24)/2: gamma(y, M) = M^y e^-M / y
    1F1(1; y+1; M) (DLMF 8.7.1) is a series of positive terms, summed
    rescaled by `fixed_point_sum`, and A = Gamma(y, M) M^-y e^M < 1/M is
    the asymptotic sum of `_gamma_tail` with its proven remainder, which
    needs only wb/2 + 40 fraction bits beside 1F1 / y, about e^M M^-y.
    Against the incomplete-gamma series alone, at M about twice as large,
    the 1F1 takes two thirds of the terms.  ln M comes from `_ln` at
    wb + 8 bits, so every cold Gamma at one precision shares it."""
    if y < 1 < 2 * y:
        r = 1 - y
        extra = (r.denominator // (2 * r.numerator)).bit_length()  # 2^extra > 1/(2r)
        s = sin_pi_times(y, Precision(0, wb + extra))
        s = BigReal(s.val, s.err, wb)
        return _pi(wb) / (s * _gamma_unit(r, wb))
    M = -(-(wb + 24) * 10000 // 28854)  # 2 log2 e = 2.8854 to five digits
    fb = wb // 2 + 40
    S, R = _gamma_tail(y, M, fb)
    tail = BigReal(from_man_exp(S, -fb), from_man_exp(R, -fb, ERR_BITS, RU), wb)
    pref = exp(BigReal(*_ln(from_int(M), fzero, wb + 8), wb) * y - M)
    return pref * (fixed_point_sum((1,), (y + 1,), M, wb) / y + tail)


def _pochhammer(x: Fraction, m: int) -> tuple[int, int]:
    """(x)_m = x (x+1) ... (x+m-1) for x = p/q as (num, den) =
    (prod (p + jq), q^m), coprime as gcd(p + jq, q) = 1; the product is
    taken as a balanced tree of integer products, with no gcd."""
    p, q = x.numerator, x.denominator
    vals = [p + j * q for j in range(m)] or [1]
    while len(vals) > 1:
        vals = [a * b for a, b in zip(vals[::2], vals[1::2])] + vals[len(vals) & ~1 :]
    return vals[0], q**m


def gamma(x: Union[Fraction, int], prec: Precision) -> BigReal:
    """Gamma(x); x must not be zero or a negative integer.

    x is reduced to y in (0, 1] with exact rational arithmetic, so poles
    are detected exactly: Gamma(x) = (y)_m Gamma(y) for x > 1 and
    Gamma(y) / (x)_m for x <= 0, with m = |x - y|, each Pochhammer
    symbol one exact integer quotient (`_pochhammer`) rounded once.
    Gamma(y) is `_gamma_unit` at wb = work_bits + 32, cached per (y, wb):
    reflection onto (0, 1/2] for 1/2 < y < 1, and otherwise the 1F1 series
    of gamma(y, M) on `fixed_point_sum` plus an asymptotic sum for
    Gamma(y, M) with a proven remainder, M about wb / 2.9.  The returned
    bound satisfies err <= 2^(-work_bits+8) * |Gamma(x)|.
    """
    wb = prec.work_bits + 32
    x = Fraction(x)
    if x.denominator == 1 and x <= 0:
        raise GammaPoleError(f"gamma pole at {x}")
    m = math.ceil(x) - 1
    y = x - m
    g = _gamma_unit(y, wb)
    if m > 0:
        g = g * BigReal.from_ratio(*_pochhammer(y, m), g.bits)
    elif m < 0:
        g = g / BigReal.from_ratio(*_pochhammer(x, -m), g.bits)
    return BigReal(g.val, g.err, prec.work_bits)


def beta(x: Fraction, y: Fraction, prec: Precision) -> BigReal:
    """Euler Beta B(x, y) = B_{1/2}(x, y) + B_{1/2}(y, x) (DLMF 8.17.4),
    with 2^(p+q) B_{1/2}(p, q) = 2F1(p+q, 1; p+1; 1/2) / p for p, q > 0
    (DLMF 8.17.8), a series of positive terms; no Gamma is formed.

    A nonpositive x is first shifted up exactly, as in `gamma`:
    B(x, y) = B(x+m, y) (x+y)_m / (x)_m, and likewise y.  The returned
    bound satisfies err <= 2^(-work_bits+8) * |B(x, y)| for x, y > 0.
    """
    x, y = Fraction(x), Fraction(y)
    for arg in (x, y, x + y):
        if arg.denominator == 1 and arg <= 0:
            raise GammaPoleError(f"beta pole: gamma argument {arg}")
    num = den = 1
    for _ in range(2):  # shift x up, then (swapped) y
        m = max(0, 1 - math.ceil(x))
        (sn, sd), (xn, xd) = _pochhammer(x + y, m), _pochhammer(x, m)
        num, den = num * sn * xd, den * sd * xn
        x, y = y, x + m
    ratio = Fraction(num, den)
    wb = prec.work_bits + 32
    half = Fraction(1, 2)
    halves = (
        fixed_point_sum((x + y, 1), (x + 1,), half, wb) / x
        + fixed_point_sum((x + y, 1), (y + 1,), half, wb) / y
    )
    out = halves * BigReal.from_int(2, wb).pow_rational(-(x + y)) * ratio
    return BigReal(out.val, out.err, prec.work_bits)


# ---------------------------------------------------------------------------
# tanh-sinh quadrature

Integrand = Callable[[BigReal, BigReal], BigReal]


def _node_arg(x, wb: int) -> BigReal:
    """The node x, rounded at wb bits, as the integrand receives it: a
    BigReal of relative radius 2^(6-wb)."""
    return BigReal(x, _emul(x, _pow2(6 - wb)), wb)


@cache
def _ts_nodes(bits: int, level: int) -> list[tuple[BigReal, BigReal, tuple]]:
    """Positive-t nodes (x, 1-x, weight) for the given refinement level,
    x and 1 - x as `_node_arg` hands them to the integrand.

    Abscissa x = 1/(1 + e^(-2u)) with u = (pi/2) sinh(t); the complement is
    returned at full relative precision so integrands can resolve endpoint
    singularities.  Weight is pi*cosh(t)*x*(1-x) (the step h is applied by
    the caller).  Level 0 uses t = j; level k >= 1 the odd multiples of
    2^-k.  The nodes are rounded at wb = bits + 16 bits.
    """
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
        nodes.append((_node_arg(x, wb), _node_arg(cx, wb), w))
        j += step
    return nodes


def _weighted(w, a, b, fb: int, up: bool = False) -> int:
    """w (a + b) 2^fb for mpfs w >= 0, a and b, in integers: the floor, or
    with `up` the ceiling."""
    _, wm, we, _ = w
    sa, ma, ea, _ = a
    sb, mb, eb, _ = b
    e = min(ea, eb)
    q = wm * (((-ma if sa else ma) << (ea - e)) + ((-mb if sb else mb) << (eb - e)))
    e += we + fb
    if e >= 0:
        return q << e
    return -(-q >> -e) if up else q >> -e


def tanh_sinh_integrate(f: Integrand, prec: Precision, level_cap: int = 12) -> BigReal:
    """Integrate f over (0, 1) by tanh-sinh refinement.

    The integrand is called as f(t, 1 - t) with both from the node cache at
    full relative precision (endpoint-singular factors of exponent > -1
    are handled), so a `PowerIntegrand` finds their logs in `_ln`'s cache
    after the first integral at those bits; any callable of (u, v) that
    returns a BigReal will do.

    The node loop reads each value's and each bound's mantissa and sums in
    Python integers at fb = wb + 16 fraction bits: the weighted values
    floored, their bounds rounded up (fe_total, summed over every level
    without the step h), and the tiny-node test exact.  The level sums are
    integers A with estimate A 2^(-fb-level), so halving the step rounds
    nothing.  The returned error bound is 10 times the successive level
    difference, plus fe_total, plus (1 + |cur|) 2^(12-wb), which holds
    the floors (fewer than 2^5 2^(-fb) in all) and the rounding of the
    estimate to wb bits; failure to converge within the level cap raises
    QuadratureError.
    """
    wb = prec.work_bits + 16
    fb = wb + 16
    one = 1 << fb
    # center node t=0: x = cx = 1/2, weight pi/4
    half = _node_arg(from_man_exp(1, -1), wb)
    w0 = mpf_shift(mpf_pi(wb, RN), -2)
    g0 = f(half, half)
    A = _weighted(w0, g0.val, fzero, fb)
    fe_total = _weighted(w0, g0.err, fzero, fb, True)
    A_prev = None
    diff = None
    for level in range(level_cap + 1):
        new_sum = 0
        tiny_streak = 0
        for x, cx, w in _ts_nodes(prec.work_bits, level):
            g_right = f(x, cx)
            g_left = f(cx, x)
            contrib = _weighted(w, g_right.val, g_left.val, fb)
            new_sum += contrib
            fe_total += _weighted(w, g_right.err, g_left.err, fb, True)
            # |contrib| <= (1 + |new_sum|) 2^-(wb+8)
            if abs(contrib) << (wb + 8) <= one + abs(new_sum):
                tiny_streak += 1
                if tiny_streak >= 6:
                    break
            else:
                tiny_streak = 0
        A += new_sum
        if level >= 2:
            cur = from_man_exp(A, -fb - level, wb, RN)
            diff = from_man_exp(abs(A - 2 * A_prev), -fb - level, ERR_BITS, RU)
            tol = _emul(
                _eadd(fone, mpf_abs(cur)),
                from_str(f"1e-{prec.target_digits + 5}", ERR_BITS, RU),
            )
            if mpf_cmp(diff, tol) <= 0:
                err = _eadd(
                    _emul(from_int(10), diff),
                    from_man_exp(fe_total, -fb, ERR_BITS, RU),
                    _emul(_eadd(fone, mpf_abs(cur)), _pow2(-wb + 12)),
                )
                return BigReal(cur, err, prec.work_bits)
        A_prev = A
    raise QuadratureError(
        f"tanh-sinh did not converge by level {level_cap}"
        + (f" (last refinement difference {to_str(diff, 3)})" if diff else "")
    )
