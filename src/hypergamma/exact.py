"""Exact rational, polynomial, and rational-function arithmetic.

All symbolic manipulation in the package (series parameters, transform
argument maps, prefactor bases) runs on the three types defined here.
Every value is immutable and every operation is pure, so values can be
shared freely between threads.

`Rational` is `fractions.Fraction`, which already guarantees the canonical
form this package relies on: gcd(|num|, den) = 1, den > 0, and zero stored
as 0/1.  Rationals serialize as "p/q" strings, polynomials as coefficient
arrays (ascending degree) of such strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Rational = Fraction

RationalLike = Union[Rational, int, str]


class ExactError(ValueError):
    """Base class for errors raised by exact arithmetic."""


class PoleError(ExactError):
    """Evaluation at a pole (zero denominator)."""


class DegenerateCompositionError(ExactError):
    """Composition produced an identically zero denominator."""


def rational(value: RationalLike, den: int | None = None) -> Rational:
    """Coerce ints, "p/q" strings, or Fractions to a canonical Rational."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, str):
        return Fraction(value.strip())
    return Fraction(value)


def rational_str(q: Rational) -> str:
    """Canonical "p/q" form ("p" when the denominator is 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_nonpositive_integer(q: Rational) -> bool:
    return q.denominator == 1 and q.numerator <= 0


class Poly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored ascending by degree with trailing zeros
    stripped; the zero polynomial is the empty tuple (degree -1).
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Rational, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c: RationalLike) -> "Poly":
        return cls((rational(c),))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Rational:
        if self.is_zero:
            raise ExactError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c: RationalLike) -> "Poly":
        c = rational(c)
        if c == 0:
            return Poly.zero()
        return Poly(tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ExactError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: RationalLike) -> Rational:
        """Exact Horner evaluation."""
        x = rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise PoleError("polynomial division by zero polynomial")
        if self.degree < other.degree:
            return Poly.zero(), self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quot = [Fraction(0)] * (dq + 1)
        dlead = other.leading
        for k in range(dq, -1, -1):
            c = rem[other.degree + k] / dlead
            quot[k] = c
            if c != 0:
                for i, b in enumerate(other.coeffs):
                    rem[i + k] -= c * b
        return Poly(quot), Poly(rem[: other.degree])

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def primitive_scale(self) -> tuple[Rational, "Poly"]:
        """Return (t, t*self) where t is the unique nonzero rational making
        the result an integer polynomial with coprime coefficients and
        positive leading coefficient."""
        if self.is_zero:
            return Fraction(1), self
        den = 1
        for c in self.coeffs:
            den = lcm(den, c.denominator)
        num = 0
        for c in self.coeffs:
            num = gcd(num, abs(c.numerator * (den // c.denominator)))
        t = Fraction(den, num)
        if self.leading < 0:
            t = -t
        return t, self.scale(t)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(rational_str(c))
            elif i == 1:
                parts.append(f"{rational_str(c)}*z")
            else:
                parts.append(f"{rational_str(c)}*z^{i}")
        return "Poly(" + " + ".join(parts) + ")"

    def to_json(self) -> list[str]:
        return [rational_str(c) for c in self.coeffs]


def poly_from_pairs(*pairs: tuple[int, RationalLike]) -> Poly:
    """Build a polynomial from (degree, coefficient) pairs."""
    if not pairs:
        return Poly.zero()
    n = max(d for d, _ in pairs)
    out = [Fraction(0)] * (n + 1)
    for d, c in pairs:
        out[d] += rational(c)
    return Poly(out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm (gcd(0,0) = 0)."""
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


class RatFunc:
    """Reduced rational function num/den over the rationals.

    Canonical form: gcd(num, den) = 1 and den is an integer polynomial with
    coprime coefficients and positive leading coefficient, so equal rational
    functions are structurally equal.
    """

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num: Poly, den: Poly = Poly((1,))):
        if den.is_zero:
            raise PoleError("rational function with zero denominator")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
        t, den = den.primitive_scale()
        num = num.scale(t)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(Poly.x())

    @classmethod
    def constant(cls, c: RationalLike) -> "RatFunc":
        return cls(Poly.constant(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, x: RationalLike) -> Rational:
        x = rational(x)
        d = self.den(x)
        if d == 0:
            raise PoleError(f"pole of rational function at {rational_str(x)}")
        return self.num(x) / d

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """Exact reduced composition self(inner(z))."""
        n = max(self.num.degree, self.den.degree, 0)
        # self(p/q) = sum a_k p^k q^(n-k) / sum b_k p^k q^(n-k)
        p_pows = [Poly.one()]
        q_pows = [Poly.one()]
        for _ in range(n):
            p_pows.append(p_pows[-1] * inner.num)
            q_pows.append(q_pows[-1] * inner.den)

        def lift(poly: Poly) -> Poly:
            acc = Poly.zero()
            for k, c in enumerate(poly.coeffs):
                if c != 0:
                    acc = acc + (p_pows[k] * q_pows[n - k]).scale(c)
            return acc

        den = lift(self.den)
        if den.is_zero:
            raise DegenerateCompositionError(
                "composition produced an identically zero denominator"
            )
        return RatFunc(lift(self.num), den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}
