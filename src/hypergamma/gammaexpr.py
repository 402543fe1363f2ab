"""Symbolic constants built from rational powers of rationals, powers of pi,
integer powers of Gamma at rational arguments, and quadratic surds.

These expressions are the closed-form side of every identity in the catalog.
Equality is decided numerically at a requested precision via `num_equal`
(equal-within-bounds / distinct / inconclusive); no symbolic normalization
of Gamma products is attempted beyond factor merging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exact import rational_str
from .mpreal import (
    BigReal,
    IntervalGap,
    Precision,
    gamma,
    pi_value,
    power_product,
    sqrt,
)

# rational bases are split over the primes below this; a larger cofactor
# stays whole
TRIAL_DIVISION_BOUND = 1000


class Verdict(str, enum.Enum):
    EQUAL = "equal-within-bounds"
    DISTINCT = "distinct"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def worst(cls, verdicts: Iterable["Verdict"]) -> "Verdict":
        """DISTINCT over INCONCLUSIVE over EQUAL; no verdicts at all is EQUAL."""
        return max(verdicts, key=_SEVERITY.__getitem__, default=cls.EQUAL)


_SEVERITY = {Verdict.EQUAL: 0, Verdict.INCONCLUSIVE: 1, Verdict.DISTINCT: 2}


class GammaExprError(ValueError):
    """Malformed Gamma-product expression."""


def _surd_is_positive(p: Fraction, q: Fraction, d: Fraction) -> bool:
    if q == 0:
        return p > 0
    if q > 0:
        return p > 0 or q * q * d > p * p
    return p > 0 and p * p > q * q * d


def check_positive(rational_factors, gamma_factors, surd_factors) -> None:
    """Raise GammaExprError unless, in factors shaped as GammaExpr holds
    them (the exponents are not read), every rational base and Gamma
    argument is positive and every surd p + q sqrt(d) has d > 0 and is
    positive."""
    for base, _ in rational_factors:
        if base <= 0:
            raise GammaExprError(f"rational base {base} must be positive")
    for arg, _ in gamma_factors:
        if arg <= 0:
            raise GammaExprError(f"gamma argument {arg} must be positive")
    for p, q, d, _ in surd_factors:
        if d <= 0:
            raise GammaExprError(f"surd radicand {d} must be positive")
        if not _surd_is_positive(p, q, d):
            raise GammaExprError(f"surd {p} + {q} sqrt({d}) must be positive")


@dataclass(frozen=True)
class GammaExpr:
    """Product of rational^rational, pi^rational, Gamma(rational)^int, and
    (p + q sqrt(d))^int factors; the represented value is always positive."""

    rational_factors: tuple[tuple[Fraction, Fraction], ...] = ()
    pi_exponent: Fraction = Fraction(0)
    gamma_factors: tuple[tuple[Fraction, int], ...] = ()
    surd_factors: tuple[tuple[Fraction, Fraction, Fraction, int], ...] = ()

    def __post_init__(self):
        check_positive(self.rational_factors, self.gamma_factors, self.surd_factors)
        rats: dict[Fraction, Fraction] = {}
        for base, e in self.rational_factors:
            base, e = Fraction(base), Fraction(e)
            if base == 1 or e == 0:
                continue
            rats[base] = rats.get(base, Fraction(0)) + e
        gammas: dict[Fraction, int] = {}
        for arg, e in self.gamma_factors:
            arg, e = Fraction(arg), int(e)
            if e == 0:
                continue
            gammas[arg] = gammas.get(arg, 0) + e
        surds: dict[tuple[Fraction, Fraction, Fraction], int] = {}
        for p, q, d, e in self.surd_factors:
            p, q, d, e = Fraction(p), Fraction(q), Fraction(d), int(e)
            if e == 0:
                continue
            key = (p, q, d)
            surds[key] = surds.get(key, 0) + e
        object.__setattr__(
            self,
            "rational_factors",
            tuple(sorted((b, e) for b, e in rats.items() if e != 0)),
        )
        object.__setattr__(self, "pi_exponent", Fraction(self.pi_exponent))
        object.__setattr__(
            self,
            "gamma_factors",
            tuple(sorted((a, e) for a, e in gammas.items() if e != 0)),
        )
        object.__setattr__(
            self,
            "surd_factors",
            tuple(sorted((k[0], k[1], k[2], e) for k, e in surds.items() if e != 0)),
        )

    # -- builders -----------------------------------------------------------

    @classmethod
    def one(cls) -> "GammaExpr":
        return cls()

    @classmethod
    def from_rational(cls, q, exponent=1) -> "GammaExpr":
        q, exponent = Fraction(q), Fraction(exponent)
        if q <= 0:
            raise GammaExprError("rational factor must be positive")
        return cls(rational_factors=((q, exponent),))

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "GammaExpr") -> "GammaExpr":
        return GammaExpr(
            self.rational_factors + other.rational_factors,
            self.pi_exponent + other.pi_exponent,
            self.gamma_factors + other.gamma_factors,
            self.surd_factors + other.surd_factors,
        )

    def inverse(self) -> "GammaExpr":
        return GammaExpr(
            tuple((b, -e) for b, e in self.rational_factors),
            -self.pi_exponent,
            tuple((a, -e) for a, e in self.gamma_factors),
            tuple((p, q, d, -e) for p, q, d, e in self.surd_factors),
        )

    def __repr__(self) -> str:
        parts = []
        for b, e in self.rational_factors:
            parts.append(f"({rational_str(b)})^({rational_str(e)})")
        if self.pi_exponent:
            parts.append(f"pi^({rational_str(self.pi_exponent)})")
        for a, e in self.gamma_factors:
            parts.append(f"G({rational_str(a)})^{e}")
        for p, q, d, e in self.surd_factors:
            parts.append(
                f"({rational_str(p)}+{rational_str(q)}*sqrt({rational_str(d)}))^{e}"
            )
        return "GammaExpr(" + (" * ".join(parts) if parts else "1") + ")"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {}
        if self.rational_factors:
            out["rat"] = [
                [rational_str(b), rational_str(e)] for b, e in self.rational_factors
            ]
        if self.pi_exponent:
            out["pi"] = rational_str(self.pi_exponent)
        if self.gamma_factors:
            out["gamma"] = [[rational_str(a), e] for a, e in self.gamma_factors]
        if self.surd_factors:
            out["surd"] = [
                [rational_str(p), rational_str(q), rational_str(d), e]
                for p, q, d, e in self.surd_factors
            ]
        return out


def _integer_powers(rational_factors) -> dict[int, Fraction]:
    """prod base^e over the rational factors as prod n^r over integers
    n > 1: the primes below TRIAL_DIVISION_BOUND, found by trial division
    of each numerator and denominator, and the cofactors left above it."""
    out: dict[int, Fraction] = {}
    for base, e in rational_factors:
        for n, r in ((base.numerator, e), (base.denominator, -e)):
            d = 2
            while d < TRIAL_DIVISION_BOUND and d * d <= n:
                while n % d == 0:
                    n //= d
                    out[d] = out.get(d, 0) + r
                d += 1 if d == 2 else 2
            if n > 1:
                out[n] = out.get(n, 0) + r
    return out


def ge_eval(e: GammaExpr, prec: Precision) -> BigReal:
    """Numeric value with propagated error bounds.

    The rational factors, written over their primes with the exponents
    summed per prime, and the power of pi are raised together by one
    `power_product`: one exp, with each integer's log from `_ln`'s
    cache, taken once per integer and precision.  Each Gamma factor is an
    integer power of `gamma`, and each surd an integer power of
    p + q sqrt(d)."""
    bits = prec.work_bits
    powers = [(BigReal.from_int(n, bits), r) for n, r in _integer_powers(e.rational_factors).items()]
    if e.pi_exponent:
        powers.append((pi_value(prec), e.pi_exponent))
    acc = power_product(*powers) if powers else BigReal.from_int(1, bits)
    for arg, expo in e.gamma_factors:
        acc = acc * gamma(arg, prec).pow_int(expo)
    for p, q, d, expo in e.surd_factors:
        root = sqrt(BigReal.from_fraction(d, bits))
        acc = acc * (BigReal.from_fraction(p, bits) + root * q).pow_int(expo)
    return acc


def num_equal(x: BigReal, y: BigReal, prec: Precision) -> Verdict:
    """Interval comparison with the catalog's verification tolerance.

    equal-within-bounds: |x - y| within the summed bounds AND the summed
    bounds are at most 10^(10 - target_digits) * max(1, |x|); distinct:
    the intervals are disjoint; otherwise inconclusive (raise precision).
    """
    gap = IntervalGap.of(x, y)
    if gap.disjoint():
        return Verdict.DISTINCT
    if gap.radius_within(max(1, prec.target_digits - 10)):
        return Verdict.EQUAL
    return Verdict.INCONCLUSIVE


def achieved_digits(x: BigReal, y: BigReal) -> int | None:
    """Decimal digits to which two enclosures provably agree (None: exact)."""
    mag2 = IntervalGap.of(x, y).log2_bound()
    return None if mag2 is None else max(0, int(-mag2 * 0.3010299956639812))
