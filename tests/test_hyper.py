"""2F1 evaluation routes, classical oracles, and dispatcher behavior."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from helpers import agm_K, as_mpf, assert_encloses, mpf_of_fraction, overlap

from hypergamma.hyper import (
    HypParams,
    NoFeasibleStrategyError,
    ParamsError,
    Precision,
    SeriesTermCapError,
    check_domain,
    f21_eval,
    f21_integral,
    f21_log_connection,
    f21_series,
    f21_terminating,
    hyper_terms,
    pochhammer,
)
import hypergamma.hyper as hyper
from hypergamma.exact import is_nonpositive_integer
from hypergamma.gammaexpr import achieved_digits, ge_eval
from hypergamma.mpreal import BigReal, _pochhammer, gamma, pi_value, sqrt
from hypergamma.transforms import MAIN_ARGUMENT, MAIN_PARAMS, MAIN_RHS

P30 = Precision.of(30)
P50 = Precision.of(50)

AZ_UPPER = (F(9, 8), F(11, 8), F(13, 8), F(15, 8))
AZ_LOWER = (F(6, 5), F(9, 5), F(13, 10), F(17, 10))


def az_ratio(n: int) -> F:
    """The Apagodu-Zeilberger Pochhammer ratio at n, the walk's last term."""
    *_, last = hyper_terms(AZ_UPPER, AZ_LOWER, 1, n)
    return F(*last)


def setup_module():
    mp.dps = 80


def oracle_f21(p: HypParams, z) -> "mp.mpf":
    zz = mpf_of_fraction(z) if isinstance(z, (F, int)) else z
    return mp.hyp2f1(
        mpf_of_fraction(p.a), mpf_of_fraction(p.b), mpf_of_fraction(p.c), zz
    )


class TestPochhammer:
    def test_empty_product(self):
        for x in (F(0), F(-3, 2), F(17, 2)):
            assert pochhammer(x, 0) == 1

    def test_factorial(self):
        assert pochhammer(F(1), 5) == 120

    def test_half(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)

    def test_recurrence_exhaustive(self):
        rng = random.Random(23)
        xs = [F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(20)]
        for x in xs:
            for n in range(50):
                assert pochhammer(x, n + 1) == pochhammer(x, n) * (x + n)



RATIONALS = st.one_of(st.integers(-6, 3).map(F), st.fractions(-6, 6, max_denominator=12))


def poch(x: F, k: int) -> F:
    return F(*_pochhammer(x, k))


class TestHyperTerms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        upper=st.lists(RATIONALS, max_size=3),
        lower=st.lists(RATIONALS, max_size=3),
        z=RATIONALS,
        n=st.integers(0, 12),
    )
    def test_terms_are_the_pochhammer_products(self, upper, lower, z, n):
        """Each term is prod (u)_k / prod (l)_k z^k, each den divides the
        next, and ParamsError comes exactly when some (l)_n is 0."""
        if any(poch(l, n) == 0 for l in lower):
            with pytest.raises(ParamsError):
                next(hyper_terms(upper, lower, z, n))
            return
        terms = list(hyper_terms(upper, lower, z, n))
        assert len(terms) == n + 1
        for k, (num, den) in enumerate(terms):
            want = math.prod((poch(u, k) for u in upper), start=F(1)) * z**k
            assert F(num, den) == want / math.prod((poch(l, k) for l in lower), start=F(1)), k
        assert all(den % prev == 0 for (_, prev), (_, den) in zip(terms, terms[1:]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(j=st.integers(0, 20), upper=st.lists(RATIONALS, max_size=2), z=RATIONALS)
    def test_pole_boundary(self, j, upper, z):
        """A lower -j reaches its pole at the term j + 1: n = j passes and
        n = j + 1 raises."""
        assert len(list(hyper_terms(upper, [F(-j)], z, j))) == j + 1
        with pytest.raises(ParamsError):
            list(hyper_terms(upper, [F(-j)], z, j + 1))

    def test_pole_within_the_walk(self):
        with pytest.raises(ParamsError):
            next(hyper_terms([F(1, 2)], [F(-2)], 1, 4))
        assert [F(*t) for t in hyper_terms([F(1, 2)], [F(-2)], 1, 1)] == [1, F(1, 2) / F(-2)]

    def test_az_terms_are_the_products(self):
        for n, (num, den) in enumerate(hyper_terms(AZ_UPPER, AZ_LOWER, 1, 30)):
            want = math.prod((pochhammer(u, n) for u in AZ_UPPER), start=F(1))
            want /= math.prod((pochhammer(l, n) for l in AZ_LOWER), start=F(1))
            assert F(num, den) == want, n


class TestSeries:
    def test_z_zero(self):
        out = f21_series(HypParams(F(1, 3), F(4, 5), F(7, 2)), F(0), P50)
        assert float(out) == 1.0 and out.is_exact

    def test_arcsin_value(self):
        # 2F1(1/2,1/2;3/2;1/4) = pi/3
        out = f21_series(HypParams(F(1, 2), F(1, 2), F(3, 2)), F(1, 4), P50)
        assert_encloses(out * 3, mp.pi, "series pi/3")
        assert out.to_decimal(25).startswith("1.047197551196597746")

    def test_elliptic_value(self):
        # 2F1(1/2,1/2;1;1/4) = (2/pi) K(1/2)
        out = f21_series(HypParams(F(1, 2), F(1, 2), F(1)), F(1, 4), P50)
        k = agm_K(F(1, 2), P50)
        d = out * pi_value(P50) - k * 2
        assert not d.definitely_positive() and not d.definitely_negative()

    def test_oracle_random_params(self):
        rng = random.Random(6)
        for _ in range(25):
            p = HypParams(
                F(rng.randint(-9, 9), rng.randint(1, 8)),
                F(rng.randint(-9, 9), rng.randint(1, 8)),
                F(rng.randint(1, 9), rng.randint(1, 8)),
            )
            z = F(rng.randint(-8, 8), 10)
            out = f21_series(p, z, P30)
            assert_encloses(out, oracle_f21(p, z), f"series {p} {z}")

    def test_arcsin_oracle_sweep(self):
        rng = random.Random(9)
        for _ in range(20):
            z = F(rng.randint(1, 99), 100)
            s = f21_series(HypParams(F(1, 2), F(1, 2), F(3, 2)), z, P30)
            rz = mp.sqrt(mp.mpf(z.numerator) / z.denominator)
            assert_encloses(s, mp.asin(rz) / rz, f"arcsin {z}")

    def test_elliptic_oracle_sweep(self):
        rng = random.Random(10)
        for _ in range(20):
            z = F(rng.randint(1, 89), 100)
            s = f21_series(HypParams(F(1, 2), F(1, 2), F(1)), z, P30)
            k = agm_K(sqrt(BigReal.from_fraction(z, P30.work_bits)), P30)
            d = s * pi_value(P30) - 2 * k
            assert not d.definitely_positive() and not d.definitely_negative()

    def test_bigreal_argument(self):
        z = sqrt(BigReal.from_fraction(F(1, 2), P30.work_bits)) / 2  # irrational
        p = HypParams(F(1, 4), F(1, 2), F(5, 4))
        out = f21_series(p, z, P30)
        assert_encloses(out, oracle_f21(p, mp.sqrt(0.5) / 2), "series irrational z")

    def test_term_cap(self):
        p = HypParams(F(1, 2), F(1, 2), F(3, 2))
        with pytest.raises(SeriesTermCapError):
            f21_series(p, F(999999, 1000000), P30, term_cap=200)

    def test_domain(self):
        p = HypParams(F(1, 2), F(1, 2), F(3, 2))
        with pytest.raises(Exception):
            f21_series(p, F(3, 2), P30)

    def test_lower_pole_rejected(self):
        with pytest.raises(ParamsError):
            f21_series(HypParams(F(1, 2), F(1, 3), F(-2)), F(1, 4), P30)

    def test_terminating_before_pole_allowed(self):
        # a = -2 terminates at n=2 before the pole of c = -5/2... c=-5/2 is
        # not an integer; use c = -3 with a = -2: poles at n = 3 not reached
        p = HypParams(F(-2), F(1, 3), F(-3))
        out = f21_series(p, F(1, 4), P30)
        want = f21_terminating(p, F(1, 4))
        assert_encloses(out, mpf_of_fraction(want), "terminating series")


rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 8))


class TestSeriesProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a=rationals,
        b=rationals,
        c=rationals,
        z=st.builds(F, st.integers(-90, 90), st.just(100)),
        z_bits=st.sampled_from([None, 0, 512]),
        digits=st.integers(20, 200),
    )
    def test_enclosure_and_radius(self, a, b, c, z, z_bits, digits):
        """The enclosure contains mpmath's value at +60 digits, and its
        radius certifies the requested digits.  (A sum of positive terms
        can sit within 1 % of its radius from the true value, as
        2F1(1,40;1;sqrt(51/100)) does at 162 digits, so the reference must
        resolve far inside the radius.)  Upper parameters cover
        negative non-integers and nonpositive integers (terminating
        series).  With z_bits set, the argument is the irrational
        s*sqrt(|z|), a BigReal with a nonzero radius, rounded to z_bits
        more bits than the work precision: at 0 its radius limits what a
        cancelling sum can certify, so only the enclosure is checked; 512
        covers the bits any sum in this parameter range cancels (about 350
        at a = b = 40, z = -9/10)."""
        assume(not is_nonpositive_integer(c) and z != 0)
        p = HypParams(a, b, c)
        prec = Precision.of(digits)
        sign = 1 if z > 0 else -1
        with mp.workdps(digits + 60):
            if z_bits is None:
                arg, zz = z, mpf_of_fraction(z)
            else:
                root = sqrt(BigReal.from_fraction(abs(z), prec.work_bits + z_bits))
                assert not root.is_exact
                arg, zz = sign * root, sign * mp.sqrt(mpf_of_fraction(abs(z)))
            out = f21_series(p, arg, prec)
            want = oracle_f21(p, zz)
            val, err = mp.mpf(out.val), mp.mpf(out.err)
            assert abs(val - want) <= err, (p, z, z_bits, digits)
            if z_bits != 0:
                assert err <= max(1, abs(val)) * mp.mpf(10) ** -digits, (p, z, digits)

    @pytest.mark.parametrize(
        "a, b, c, z, digits, certified",
        [
            # terms near 2^350 cancel to a value near 4e-12
            (F(40), F(40), F(1, 8), F(-9, 10), 50, 60),
            (F(1), F(20), F(1, 2), F(-83, 100), 20, 44),
        ],
    )
    def test_cancelling_sum_is_summed_again(self, a, b, c, z, digits, certified):
        """A sum that cancels misses its radius target at the first width
        and is summed once more, wider; the enclosure contains mpmath's
        value at +80 digits and certifies the pinned digits."""
        p = HypParams(a, b, c)
        out = f21_series(p, z, Precision.of(digits))
        with mp.workdps(digits + 80):
            val, err = mp.mpf(out.val), mp.mpf(out.err)
            assert abs(val - oracle_f21(p, z)) <= err
            assert -mp.log10(err / max(1, abs(val))) >= certified

    def test_main_argument_digits_pin(self):
        """At 150 digits the series agrees with the closed form to 170
        digits; a faster kernel must not widen the bound."""
        prec = Precision.of(150)
        series = f21_series(MAIN_PARAMS, MAIN_ARGUMENT, prec)
        assert achieved_digits(series, ge_eval(MAIN_RHS, prec)) >= 170


class TestSeriesAgainstIntegral:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        a=st.builds(F, st.integers(-24, 24), st.integers(1, 8)),
        b=st.builds(F, st.integers(1, 72), st.integers(1, 24)),
        gap=st.builds(F, st.integers(1, 72), st.integers(1, 24)),
        z=st.builds(F, st.integers(-90, 90), st.just(100)),
        digits=st.integers(30, 60),
    )
    def test_enclosures_overlap(self, a, b, gap, z, digits):
        """The series and the Euler integral, two independent routes,
        overlap wherever both apply: c > b > 0 and |z| <= 9/10.  Endpoint
        gaps min(b, c - b) below 1/24 are not drawn; tanh-sinh does not
        converge there in reasonable time."""
        assume(min(b, gap) >= F(1, 24))
        p = HypParams(a, b, b + gap)
        prec = Precision.of(digits)
        series = f21_series(p, z, prec)
        integral = f21_integral(p, z, prec)
        assert overlap(series, integral), (p, z, digits)


class TestPfaff:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        a=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        b=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        gap=st.builds(F, st.integers(1, 72), st.integers(1, 12)),
        ordered=st.booleans(),
        z=st.builds(F, st.integers(-9000, -901), st.just(1000)),
        digits=st.integers(20, 120),
    )
    # 2F1(1, 1; 1/2; -19/20), which has no Euler ordering
    @example(a=F(1), b=F(1), gap=F(1, 2), ordered=False, z=F(-19, 20), digits=50)
    def test_enclosure_below_minus_nine_tenths(self, a, b, gap, ordered, z, digits):
        """For -9 <= z < -9/10 `auto` sums Pfaff's transform; the enclosure
        holds mpmath's value at +50 digits whether or not an Euler ordering
        exists: c = |b| + gap > |b| > 0 has one, c = min(a, b) - gap none."""
        if ordered:
            b = abs(b)
        p = HypParams(a, b, b + gap if ordered else min(a, b) - gap)
        assume(p.terminating_degree is None and not is_nonpositive_integer(p.c))
        prec = Precision.of(digits)
        got = f21_eval(p, z, prec)
        with mp.workdps(digits + 50):
            assert_encloses(got, oracle_f21(p, z), f"{p} at {z}")


class TestTerminating:
    def test_two_term_sum(self):
        got = f21_terminating(HypParams(F(-1), F(-3, 2), F(17, 2)), F(1, 5))
        assert got == F(88, 85)

    def test_zero_upper(self):
        assert f21_terminating(HypParams(F(0), F(2, 3), F(1, 5)), F(9, 10)) == 1

    def test_az_member_n2(self):
        got = f21_terminating(HypParams(F(-2), F(-5, 2), F(25, 2)), F(1, 5))
        assert got == F(16384, 15625) ** 2 * az_ratio(2)
        assert got == F(1216, 1125)

    def test_az_family_spot(self):
        for n in range(0, 9):
            p = HypParams(F(-n), F(-n) - F(1, 2), 4 * n + F(9, 2))
            assert f21_terminating(p, F(1, 5)) == F(16384, 15625) ** n * az_ratio(n)

    def test_pole_inside_sum(self):
        with pytest.raises(ParamsError):
            f21_terminating(HypParams(F(-5), F(1, 2), F(-3)), F(1, 4))


class TestIntegral:
    def test_zucker_joyce_first(self):
        out = f21_integral(
            HypParams(F(1, 8), F(3, 8), F(1, 2)), F(2400, 2401), P30
        )
        want = mp.mpf(2) / 3 * mp.sqrt(7)
        assert_encloses(out, want, "ZJ 2400/2401")
        assert out.to_decimal(10).startswith("1.763834207")

    def test_z_zero_is_one(self):
        out = f21_integral(HypParams(F(1, 3), F(2, 5), F(7, 5)), F(0), P30)
        assert_encloses(out, mp.mpf(1), "integral at 0")

    def test_gauss_beta_form_at_one(self):
        a, b, c = F(1, 3), F(2, 5), F(7, 4)
        out = f21_integral(HypParams(a, b, c), F(1), P30)
        want = (
            gamma(c, P30) * gamma(c - a - b, P30)
            / (gamma(c - a, P30) * gamma(c - b, P30))
        )
        assert overlap(out, want)

    def test_preconditions(self):
        with pytest.raises(Exception):
            f21_integral(HypParams(F(1, 2), F(2, 3), F(1, 6)), F(1, 4), P30)
        with pytest.raises(Exception):
            f21_integral(HypParams(F(1, 8), F(3, 8), F(1, 2)), F(3, 2), P30)

    def test_takes_the_ordering_that_has_an_integral(self):
        # off z = 1, (b, a; c) with only c > a > 0 is integrated as (a, b; c)
        ordered = HypParams(F(-1, 3), F(2, 5), F(7, 5))
        for z in (F(1, 4), F(19, 20)):
            want = f21_integral(ordered, z, P30)
            got = f21_integral(ordered.swapped(), z, P30)
            assert (got.val, got.err, got.bits) == (want.val, want.err, want.bits)

    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (F(1, 2), F(2, 3), F(1, 6), F(1, 4)),  # c below a and b
            (F(1, 2), F(-2, 3), F(1, 3), F(-20)),  # b negative, c below a
            (F(-1), F(-2), F(1, 2), F(1)),  # at z = 1 both on the poles
        ],
    )
    def test_no_ordering_is_no_feasible_strategy(self, a, b, c, z):
        with pytest.raises(NoFeasibleStrategyError):
            f21_integral(HypParams(a, b, c), z, P30)

    def test_negative_z_matches_series(self):
        p = HypParams(F(2, 5), F(1, 4), F(23, 20))
        z = F(-1, 2)
        a = f21_integral(p, z, P30)
        b = f21_series(p, z, P30)
        assert overlap(a, b)


class TestEval:
    def test_campbell_levrie(self):
        out = f21_eval(HypParams(F(1, 2), F(2, 3), F(1, 6)), F(1, 4), P50)
        want = mp.mpf(4) / 3 * mp.cbrt(2)
        assert_encloses(out, want, "Campbell-Levrie")
        assert out.to_decimal(17).startswith("1.679894733193164")

    def test_zj_third_entry_integral_path(self):
        out = f21_eval(HypParams(F(1, 6), F(1, 2), F(2, 3)), F(125, 128), P30)
        want = mp.mpf(4) / 3 * mp.root(2, 6)
        assert_encloses(out, want, "ZJ 125/128")

    def test_main_evaluation_params_small_digits(self):
        out = f21_eval(
            HypParams(F(7, 48), F(31, 48), F(9, 8)),
            F(29884728384, 34239431521),
            P30,
        )
        z = (mp.mpf(172872) / 185039) ** 2
        want = mp.hyp2f1(mp.mpf(7) / 48, mp.mpf(31) / 48, mp.mpf(9) / 8, z)
        assert_encloses(out, want, "main eval at 30 digits")

    def test_strategies_agree(self):
        p = HypParams(F(2, 5), F(1, 4), F(23, 20))
        z = F(1, 3)
        s = f21_series(p, z, P30)
        i = f21_integral(p, z, P30)
        a = f21_eval(p, z, P30)
        assert overlap(s, i) and overlap(a, s)

    def test_inner_argument_takes_the_series_route_only(self, monkeypatch):
        """For |z| <= 9/10 the auto route is the series alone: the result is
        the series enclosure itself, and no quadrature runs."""
        import hypergamma.hyper as hyper

        def no_quadrature(*args, **kwargs):
            raise AssertionError("tanh_sinh_integrate called on the series route")

        p = HypParams(F(2, 5), F(1, 4), F(23, 20))
        z = F(-1, 2)
        series = f21_series(p, z, P50)
        monkeypatch.setattr(hyper, "tanh_sinh_integrate", no_quadrature)
        out = f21_eval(p, z, P50)
        assert (out.val, out.err) == (series.val, series.err)

    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (F(1, 3), F(2, 5), F(7, 4), F(1)),  # Gauss: the Beta series
            (F(1, 3), F(1, 5), F(17, 15), F(-1)),  # Kummer: Pfaff
            (F(1), F(1), F(1, 2), F(-19, 20)),  # no Euler ordering
            (F(5, 2), F(-7, 3), F(-5, 4), F(-9)),
        ],
    )
    def test_auto_runs_no_quadrature_at_one_and_pfaff_range(
        self, monkeypatch, a, b, c, z
    ):
        """At z = 1 and for -9 <= z < -9/10 the auto route is a series:
        no tanh-sinh runs, and the enclosure holds mpmath's value."""
        import hypergamma.hyper as hyper

        def no_quadrature(*args, **kwargs):
            raise AssertionError("tanh_sinh_integrate called")

        monkeypatch.setattr(hyper, "tanh_sinh_integrate", no_quadrature)
        p = HypParams(a, b, c)
        assert_encloses(f21_eval(p, z, P50), oracle_f21(p, z), f"{p} at {z}")

    def test_terminating_dispatch_exact(self):
        out = f21_eval(HypParams(F(-1), F(-3, 2), F(17, 2)), F(1, 5), P30)
        assert_encloses(out, mpf_of_fraction(F(88, 85)), "AZ dispatch")

    def test_no_strategy_above_one(self):
        # z > 1 with a series that does not terminate is outside the domain
        with pytest.raises(ParamsError):
            f21_eval(HypParams(F(1, 2), F(2, 3), F(1, 6)), F(3, 2), P30)

    def test_no_strategy_near_one_without_ordering(self):
        # c < min(a, b): no Euler ordering, z too large for the series; with
        # c - a - b = -1 the log connection formula takes it
        p = HypParams(F(1, 2), F(2, 3), F(1, 6))
        assert_encloses(f21_eval(p, F(99, 100), P30), oracle_f21(p, F(99, 100)), "c-a-b = -1")
        # with c - a - b = -2/3 not an integer there is no route
        with pytest.raises(NoFeasibleStrategyError):
            f21_eval(HypParams(F(1, 2), F(1, 2), F(1, 3)), F(19, 20), P30)

    def test_kummer_via_integral_path(self):
        # auto sums Pfaff's transform at z = -1; the check is Kummer's theorem
        rng = random.Random(77)
        for _ in range(5):
            a = F(rng.randint(1, 19), 20)
            b = F(rng.randint(1, 19), 20)
            p = HypParams(a, b, 1 + a - b)
            out = f21_eval(p, F(-1), P30)
            want = (
                gamma(1 + a - b, P30) * gamma(1 + a / 2, P30)
                / (gamma(1 + a, P30) * gamma(1 + a / 2 - b, P30))
            )
            assert overlap(out, want)

    def test_gosper_strange_spot(self):
        for (a, b) in ((F(1, 3), F(2)), (F(3), F(1, 4)), (F(1, 2), F(1, 2))):
            p = HypParams(1 - a, b, b + 2)
            z = b / (a + b)
            out = f21_eval(p, z, P30)
            base = BigReal.from_fraction(a / (a + b), P30.work_bits)
            want = base.pow_rational(a) * (b + 1)
            assert overlap(out, want)


ZUCKER_JOYCE = [
    # (a, b, c, z, algebraic value): c = a + b, the logarithmic case
    (F(1, 8), F(3, 8), F(1, 2), F(2400, 2401), lambda: mp.mpf(2) / 3 * mp.sqrt(7)),
    (F(1, 6), F(1, 3), F(1, 2), F(25, 27), lambda: mp.mpf(3) / 4 * mp.sqrt(3)),
    (F(1, 6), F(1, 2), F(2, 3), F(125, 128), lambda: mp.mpf(4) / 3 * mp.root(2, 6)),
    (F(1, 12), F(5, 12), F(1, 2), F(1323, 1331), lambda: mp.mpf(3) / 4 * mp.root(11, 4)),
]


class TestLogConnection:
    """9/10 < z < 1 with c - a - b an integer: A&S 15.3.10-11 on the series
    kernel, after Euler's transform when c - a - b < 0; below -9, Pfaff's
    transform into it when a - b is an integer."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        b=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        m=st.integers(-3, 3),
        k=st.integers(4, 39),
        mantissa=st.integers(1, 2**36),
        digits=st.integers(20, 100),
    )
    @example(a=F(1, 8), b=F(3, 8), m=0, k=39, mantissa=1, digits=60)
    def test_enclosure_near_one(self, a, b, m, k, mantissa, digits):
        """For z = 1 - w, 2^-39 <= w < 1/10 (2^-39 < 10^-12), the enclosure
        holds mpmath's value at +50 digits.  w is dyadic, so that mpmath
        receives z exactly: an exact result (a sum that terminates after
        Euler's transform) has no radius to absorb a rounded z."""
        p = HypParams(a, b, a + b + m)
        assume(p.terminating_degree is None and not is_nonpositive_integer(p.c))
        z = 1 - F(mantissa % (2**k // 10) or 1, 2**k)
        got = f21_eval(p, z, Precision.of(digits))
        with mp.workdps(digits + 50):
            assert_encloses(got, oracle_f21(p, z), f"{p} at {z}")

    @pytest.mark.parametrize("a, b, c, z, value", ZUCKER_JOYCE)
    def test_zucker_joyce_agrees_with_the_integral(self, monkeypatch, a, b, c, z, value):
        p = HypParams(a, b, c)
        integral = f21_integral(p, z, P30)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("tanh_sinh_integrate called")

        monkeypatch.setattr(hyper, "tanh_sinh_integrate", no_quadrature)
        got = f21_eval(p, z, P50)
        assert overlap(got, integral)
        assert_encloses(got, value(), f"Zucker-Joyce at {z}")
        assert as_mpf(got.err) <= abs(as_mpf(got.val)) * mp.mpf(2) ** -P50.work_bits

    def test_no_euler_ordering(self):
        # c - a - b = 0, and neither c > b > 0 nor c > a > 0
        p = HypParams(F(-1, 3), F(4, 3), F(1))
        assert_encloses(f21_eval(p, F(19, 20), P50), oracle_f21(p, F(19, 20)), "m = 0")

    def test_euler_transform_to_a_terminating_sum(self):
        # c - a - b = -2 and c - a = -1: (1-z)^-2 2F1(-1, -1/2; 1/2; z), which
        # is (1-z)^-2 (1 + z)
        got = f21_log_connection(HypParams(F(3, 2), F(1), F(1, 2)), F(19, 20), P30)
        want = BigReal.from_fraction(F(20) ** 2 * F(39, 20), P30.work_bits)
        assert (got.val, got.err) == (want.val, want.err)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        a=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        shift=st.integers(-4, 4),
        c=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        z=st.builds(F, st.integers(-10**9, -91), st.just(10)),
        digits=st.integers(20, 80),
    )
    @example(a=F(1, 2), shift=1, c=F(-1, 4), z=F(-20), digits=50)
    def test_below_minus_nine_by_pfaff(self, a, shift, c, z, digits):
        """z < -9 with a - b an integer: Pfaff's w = z/(z-1) lies in
        (9/10, 1), where c - a - b = b - a; the enclosure holds mpmath's
        value at +50 digits."""
        p = HypParams(a, a + shift, c)
        assume(p.terminating_degree is None and not is_nonpositive_integer(p.c))
        got = f21_eval(p, z, Precision.of(digits))
        with mp.workdps(digits + 50):
            assert_encloses(got, oracle_f21(p, z), f"{p} at {z}")

    def test_below_minus_nine_with_integer_c_minus_a_minus_b(self, monkeypatch):
        # a - b = 1/6 is not an integer, so Pfaff's transform does not fit the
        # log connection formula, though c - a - b = 1 does: the integral,
        # with c > b > 0, takes it
        def no_log_connection(*args, **kwargs):
            raise AssertionError("f21_log_connection called")

        monkeypatch.setattr(hyper, "f21_log_connection", no_log_connection)
        p = HypParams(F(1, 2), F(1, 3), F(11, 6))
        assert_encloses(f21_eval(p, F(-20), P30), oracle_f21(p, F(-20)), f"{p} at -20")

    def test_large_denominator_keeps_the_integral(self, monkeypatch):
        # a of denominator 200002: Gauss's digamma theorem would take 10^5
        # log-sines, so the tanh-sinh route takes it, in well under a second
        def no_log_connection(*args, **kwargs):
            raise AssertionError("f21_log_connection called")

        monkeypatch.setattr(hyper, "f21_log_connection", no_log_connection)
        a = F(1, 2) + F(1, 100001)
        p = HypParams(a, F(1, 3), a + F(1, 3))
        start = time.perf_counter()
        got = f21_eval(p, F(19, 20), P30)
        assert time.perf_counter() - start < 10
        assert_encloses(got, oracle_f21(p, F(19, 20)), f"{p} at 19/20")

    def test_denominator_bound_is_inclusive(self):
        q = hyper.LOG_CONNECTION_MAX_DENOMINATOR
        assert hyper._log_connection_fits(HypParams(F(1, q), F(1, 3), F(1, q) + F(1, 3)))
        assert not hyper._log_connection_fits(
            HypParams(F(1, q + 1), F(1, 3), F(1, q + 1) + F(1, 3))
        )

    @pytest.mark.parametrize("x", [F(1, 8), F(5, 12), F(2, 3), F(29, 6), F(-7, 3), F(1, 2)])
    def test_psi_plus_euler(self, x):
        got = hyper._psi_plus_euler(x, P50)
        with mp.workdps(80):
            assert_encloses(got, mp.digamma(mpf_of_fraction(x)) + mp.euler, f"psi({x})")

    def test_psi_plus_euler_at_integers_is_harmonic(self):
        # psi(n) + gamma = H_(n-1), exactly
        for n, h in ((1, F(0)), (2, F(1)), (4, F(11, 6))):
            got, want = hyper._psi_plus_euler(F(n), P50), BigReal.from_fraction(h, P50.work_bits)
            assert (got.val, got.err) == (want.val, want.err)


class TestDomain:
    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (F(1, 2), F(1, 3), F(-1), F(1, 4)),  # lower pole
            (F(-3), F(1, 3), F(-2), F(1, 4)),  # terminates after the pole
            (F(1, 2), F(1, 3), F(1, 4), F(2)),  # on the branch cut
            (F(1, 2), F(2, 3), F(7, 6), F(1)),  # c - a - b = 0
            (F(1, 2), F(2, 3), F(1, 6), F(1)),  # c - a - b < 0
        ],
    )
    def test_outside(self, a, b, c, z):
        with pytest.raises(ParamsError):
            check_domain(HypParams(a, b, c), z)
        with pytest.raises(ParamsError):
            f21_eval(HypParams(a, b, c), z, P30)

    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (F(-2), F(1, 3), F(-3), F(1, 4)),  # terminates before the pole
            (F(-2), F(1, 3), F(1, 4), F(5)),  # a polynomial at any z
            (F(1, 2), F(1, 3), F(1, 4), F(-100)),
            (F(1, 2), F(1, 3), F(1, 4), F(99, 100)),
            (F(1, 2), F(1, 3), F(1), F(1)),
        ],
    )
    def test_inside(self, a, b, c, z):
        check_domain(HypParams(a, b, c), z)


class TestGaussAtOne:
    """At z = 1 a non-terminating series needs only c - a - b > 0: no
    Euler ordering c > b > 0 is required."""

    @pytest.mark.parametrize(
        "a, b, c, want",
        [
            (F(-1, 2), F(-1, 3), F(-1, 4), "-0.17972618045009428232"),
            (F(-5, 2), F(1, 3), F(-1, 2), "0.47909436282033158055"),
            (F(1, 3), F(-7, 4), F(-1, 3), "1.0928203230275509174"),
        ],
    )
    def test_no_euler_ordering(self, a, b, c, want):
        p = HypParams(a, b, c)
        got = f21_eval(p, F(1), P30)
        assert got.to_decimal(20).startswith(want[:21])
        with mp.workdps(80):
            assert_encloses(got, oracle_f21(p, F(1)), f"{p} at 1")

    def test_exact_zero(self):
        # c - b = -1: 1/Gamma(c-b) = 0 in Gauss's sum
        p = HypParams(F(-3, 2), F(5, 4), F(1, 4))
        got, zero = f21_eval(p, F(1), P30), BigReal.from_int(0, P30.work_bits)
        assert (got.val, got.err) == (zero.val, zero.err)
        assert oracle_f21(p, F(1)) == 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        a=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        b=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        gap=st.builds(F, st.integers(1, 72), st.integers(1, 12)),
        digits=st.integers(20, 80),
    )
    def test_enclosure_at_one(self, a, b, gap, digits):
        """For every non-terminating input with c - a - b > 0 the enclosure
        at z = 1 holds mpmath's value at +50 digits."""
        p = HypParams(a, b, a + b + gap)
        assume(p.terminating_degree is None and not is_nonpositive_integer(p.c))
        got = f21_eval(p, F(1), Precision.of(digits))
        with mp.workdps(digits + 50):
            assert_encloses(got, oracle_f21(p, F(1)), f"{p} at 1")

    def test_large_parameters_are_quick(self):
        """Gauss's sum at a = 100000, c = a + 1/2 takes Gamma(c) and
        Gamma(c - 1/3): each shift (y)_m is one exact product of 10^5
        factors, formed as a balanced tree and rounded once."""
        a = F(100000)
        p = HypParams(a, F(1, 3), a + F(1, 2))
        start = time.perf_counter()
        got = f21_eval(p, F(1), Precision.of(20))
        assert time.perf_counter() - start < 3
        with mp.workdps(70):
            assert_encloses(got, oracle_f21(p, F(1)), f"{p} at 1")


class TestAgmK:
    def test_k_zero(self):
        out = agm_K(F(0), P50)
        assert_encloses(out * 2, mp.pi, "K(0)")

    def test_k_half(self):
        out = agm_K(F(1, 2), P50)
        assert out.to_decimal(16).startswith("1.685750354812596")
        assert_encloses(out, mp.ellipk(mp.mpf(1) / 4), "K(1/2)")

    def test_lemniscatic(self):
        # K(sqrt(1/2)) = Gamma(1/4)^2 / (4 sqrt(pi))
        k = sqrt(BigReal.from_fraction(F(1, 2), P50.work_bits))
        out = agm_K(k, P50)
        g = gamma(F(1, 4), P50)
        want = g * g / (4 * sqrt(pi_value(P50)))
        assert overlap(out, want)

    def test_domain(self):
        with pytest.raises(Exception):
            agm_K(F(3, 2), P30)
