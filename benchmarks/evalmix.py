"""Seeded request stream for the eval-mix workload, and its reference check.

Each request is one ``f21_eval`` call at the CLI default of 50 digits.
Parameters are rationals with denominators 2..12 and magnitude <= 3.  The
requests cycle through a fixed pattern of eleven slots, so every run has
the same share of each input kind whatever its length:

* ``inner``        4 slots: |z| <= 9/10; series, plus the automatic
  series-versus-integral cross-check when an Euler ordering exists
  (c > b > 0 or c > a > 0): three slots with one, one without
* ``terminating``  1 slot: an upper parameter is -1, -2 or -3; z in [-4, 4]
* ``near-one``     3 slots: 9/10 < z <= 1 - 10^-3, Euler ordering
* ``negative``     3 slots: -8 <= z <= -11/10, Euler ordering

Every request has an evaluation route in the library, and no operation
fails:

* ``near-one`` and ``negative`` requests without an Euler ordering raise
  ``NoFeasibleStrategyError`` (the series route ends at |z| = 9/10), so
  they are not drawn;
* an Euler ordering whose integrand has an endpoint exponent within
  MIN_EULER_GAP of -1 is not drawn either: the tanh-sinh integral does
  not converge there (c - b = 1/36 ran past 3 s at 50 digits, while every
  request with a gap of 1/24 or more took under a second).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

DIGITS = 50
# the least endpoint gap (b, or c - b) of an Euler-integral route drawn
MIN_EULER_GAP = Fraction(1, 24)
# a request still running after this long is stopped and counted as failed,
# so that a stuck integral cannot hold the single client for the whole run
LATENCY_LIMIT_S = 5.0
REFERENCE_EXTRA_DIGITS = 30
REGIONS = ("inner", "terminating", "near-one", "negative")
# (region, True: an Euler-integral ordering is required, False: excluded,
# None: parameters drawn freely)
PATTERN = (
    ("inner", True),
    ("near-one", True),
    ("negative", True),
    ("terminating", None),
    ("inner", True),
    ("near-one", True),
    ("negative", True),
    ("inner", False),
    ("inner", True),
    ("near-one", True),
    ("negative", True),
)


@dataclass(frozen=True)
class Request:
    a: Fraction
    b: Fraction
    c: Fraction
    z: Fraction
    region: str

    @property
    def terminating(self) -> bool:
        return any(x.denominator == 1 and x <= 0 for x in (self.a, self.b))

    @property
    def euler_gap(self) -> Fraction | None:
        """The least endpoint gap, min(b, c - b), of the Euler integral that
        ``f21_eval`` would take (it tries (a, b) and then (b, a)); None
        without an Euler ordering."""
        for b in (self.b, self.a):
            if self.c > b > 0:
                return min(b, self.c - b)
        return None


def _param(rng: random.Random) -> Fraction:
    """Rational with denominator 2..12 and magnitude <= 3, not a pole."""
    while True:
        den = rng.randint(2, 12)
        x = Fraction(rng.randint(-3 * den, 3 * den), den)
        if not (x.denominator == 1 and x <= 0):
            return x


def _z(rng: random.Random, region: str) -> Fraction:
    if region == "inner":
        q = rng.randint(1, 10)
        return Fraction(rng.randint(-9 * q, 9 * q), 10 * q)
    if region == "near-one":
        return 1 - Fraction(rng.randint(1, 99), 1000)
    if region == "negative":
        return -Fraction(rng.randint(11, 80), 10)
    return Fraction(rng.randint(-40, 40), 10)


def stream(seed: int) -> Iterator[Request]:
    """The endless request stream for `seed`."""
    rng = random.Random(f"eval-mix:{seed}")
    for region, routable in itertools.cycle(PATTERN):
        while True:
            a, b, c = _param(rng), _param(rng), _param(rng)
            if region == "terminating":
                a = Fraction(-rng.randint(1, 3))
                if rng.random() < 0.5:
                    a, b = b, a
            req = Request(a, b, c, _z(rng, region), region)
            gap = req.euler_gap
            if routable is None or (
                routable == (gap is not None) and (gap is None or gap >= MIN_EULER_GAP)
            ):
                break
        yield req


def requests(seed: int, count: int) -> list[Request]:
    """The first `count` requests of the stream for `seed`."""
    return list(itertools.islice(stream(seed), count))


def warmup_seed(seed: int) -> int:
    """A seed whose stream shares no prefix with `seed`'s."""
    return -1 - seed


def mpf_fraction(t) -> Fraction:
    """Exact value of an mpf tuple (sign, man, exp, bc)."""
    sign, man, exp, _ = t
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def reference(req: Request) -> Fraction:
    """The exact finite sum for a terminating request (mpmath cannot reach
    a relative accuracy when that sum is 0); otherwise mpmath's 2F1 at
    DIGITS + REFERENCE_EXTRA_DIGITS digits."""
    if req.terminating:
        total = term = Fraction(1)
        k = 0
        while term:
            term *= (req.a + k) * (req.b + k) / ((req.c + k) * (k + 1)) * req.z
            total += term
            k += 1
        return total

    import mpmath

    with mpmath.workdps(DIGITS + REFERENCE_EXTRA_DIGITS):
        q = lambda x: mpmath.mpf(x.numerator) / x.denominator  # noqa: E731
        value = mpmath.hyp2f1(q(req.a), q(req.b), q(req.c), q(req.z))
        return mpf_fraction(value._mpf_)


def check(req: Request, val, err) -> tuple[bool, float | None]:
    """Whether the enclosure (val, err) contains the reference, and the
    decimal digits the enclosure certifies (None when it is exact)."""
    ref = reference(req)
    mid, rad = mpf_fraction(val), mpf_fraction(err)
    # the reference itself is good to about DIGITS + REFERENCE_EXTRA_DIGITS
    slack = abs(ref) / Fraction(10) ** (DIGITS + REFERENCE_EXTRA_DIGITS - 3)
    ok = abs(mid - ref) <= rad + slack
    if rad == 0:
        return ok, None
    scale = max(abs(mid), Fraction(1))
    return ok, _log10(scale) - _log10(rad)


def _log10(x: Fraction) -> float:
    return math.log10(x.numerator) - math.log10(x.denominator)
