"""Error-bounded reals: arithmetic, elementary functions, Gamma, quadrature."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import fone, from_int, from_man_exp, from_rational, fzero, mpf_mul

from helpers import as_mpf, assert_encloses, mpf_of_fraction, reference_scaled_sum

from hypergamma import mpreal
from hypergamma.hyper import HypParams, euler_integrand, f21_log_connection, f21_series
from hypergamma.mpreal import (
    BITS_PER_DIGIT,
    BigReal,
    DomainError,
    GammaPoleError,
    PossibleZeroDivisionError,
    PowerIntegrand,
    Precision,
    QuadratureError,
    beta,
    cos_pi_times,
    exp,
    fixed_point_sum,
    gamma,
    log,
    pi_value,
    power_product,
    sin_pi_times,
    sqrt,
    tanh_sinh_integrate,
)
from hypergamma.transforms import proof_integrands

P50 = Precision.of(50)
P100 = Precision.of(100)


def setup_module():
    mp.dps = 140


class TestPrecision:
    def test_work_bits_floor(self):
        for d in (10, 50, 100, 150):
            p = Precision.of(d)
            assert p.work_bits >= int(d * 3.3219) + 64

    def test_boost(self):
        assert P50.boosted(32).work_bits == P50.work_bits + 32


class TestArithmetic:
    def test_exact_integers(self):
        x = BigReal.from_int(7, 128)
        assert x.is_exact
        assert float(x) == 7.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        num=st.one_of(st.integers(-(2**64), 2**64), st.integers(-(2**3000), 2**3000)),
        den=st.one_of(st.integers(1, 2**40), st.builds(lambda k: 2**k, st.integers(0, 200))),
        bits=st.integers(2, 300),
    )
    @example(num=5 * 2**600, den=1, bits=2)  # a tie, rounded to even
    @example(num=5 * 2**600 + 1, den=1, bits=2)  # just past it: only the sticky bit says so
    @example(num=-(5 * 2**600 + 1), den=3, bits=2)
    def test_from_ratio_rounds_as_mpmath(self, num, den, bits):
        """The quotient of a long numerator is divided only to bits + 3 bits
        and a sticky bit, and must round exactly as mpmath's correctly
        rounded quotient does."""
        q = F(num, den)
        got = BigReal.from_ratio(q.numerator, q.denominator, bits)
        assert got.val == from_rational(q.numerator, q.denominator, bits, "n")
        dyadic = q.denominator & (q.denominator - 1) == 0
        assert got.is_exact == (dyadic and abs(q.numerator).bit_length() <= bits)

    def test_interval_encloses_fraction_ops(self):
        rng = random.Random(11)
        bits = 160
        for _ in range(200):
            a = F(rng.randint(-99, 99), rng.randint(1, 40))
            b = F(rng.randint(-99, 99), rng.randint(1, 40))
            x, y = BigReal.from_fraction(a, bits), BigReal.from_fraction(b, bits)
            assert_encloses(x + y, mpf_of_fraction(a + b), "add")
            assert_encloses(x - y, mpf_of_fraction(a - b), "sub")
            assert_encloses(x * y, mpf_of_fraction(a * b), "mul")
            if b != 0:
                assert_encloses(x / y, mpf_of_fraction(a / b), "div")

    def test_division_by_possible_zero(self):
        x = BigReal.from_int(1, 128)
        tiny = BigReal.from_fraction(F(1, 10**30), 64)
        wide = BigReal(tiny.val, BigReal.from_int(1, 64).val, 64)
        with pytest.raises(PossibleZeroDivisionError):
            x / wide

    def test_pow_rational_zero_exponent_is_exact_one(self):
        x = BigReal.from_fraction(F(22, 7), 128)
        r = x.pow_rational(F(0))
        assert r.is_exact and float(r) == 1.0

    def test_cbrt_of_two(self):
        x = BigReal.from_int(2, P50.work_bits).pow_rational(F(1, 3))
        assert x.to_decimal(16).startswith("1.259921049894873")
        cube = x.pow_rational(F(3))
        assert_encloses(cube, mp.mpf(2), "cube of cbrt")

    def test_one_plus_sqrt2(self):
        s = sqrt(BigReal.from_int(2, P50.work_bits))
        assert (s + 1).to_decimal(10).startswith("2.414213562")

    def test_negative_fractional_power_rejected(self):
        x = BigReal.from_int(-2, 128)
        with pytest.raises(DomainError):
            x.pow_rational(F(1, 2))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        center=st.builds(F, st.integers(1, 10**6), st.integers(1, 10**4)),
        rel=st.builds(F, st.integers(0, 2**20), st.just(2**24)),
        r=st.builds(F, st.integers(-2001, 2001), st.integers(1, 12)),
        bits=st.integers(60, 400),
    )
    # the mean-value bound's case: a first-order bound gave 1.0 +- 1.0
    @example(center=F(1), rel=F(1, 1000), r=F(-2001, 2), bits=200)
    @example(center=F(1), rel=F(1, 16), r=F(11, 2), bits=100)
    def test_pow_rational_encloses_the_image_of_a_wide_input(self, center, rel, r, bits):
        """x^r of an input with relative radius up to 2^-4 holds the image
        of the whole input interval, taken by mpmath's interval arithmetic
        at 100 more bits (x^r is monotone, so the image is the hull of the
        endpoint powers)."""
        c = BigReal.from_fraction(center, bits)
        rad = center * rel
        x = BigReal(c.val, from_rational(rad.numerator, rad.denominator, 32, "u"), bits)
        got = x.pow_rational(r)
        saved, iv.prec = iv.prec, bits + 100
        try:
            ends = iv.mpf(as_mpf(x.val)) + iv.mpf([-as_mpf(x.err), as_mpf(x.err)])
            want = ends ** (iv.mpf(r.numerator) / r.denominator)
            got_iv = iv.mpf(as_mpf(got.val)) + iv.mpf([-as_mpf(got.err), as_mpf(got.err)])
            assert want in got_iv, (center, rel, r, bits)
        finally:
            iv.prec = saved

    def test_real_arith_surface(self):
        bits = Precision.of(30).work_bits
        out = BigReal.lift(F(2400, 2401), bits) + F(1, 2401)
        assert_encloses(out, mp.mpf(1), "surface add")
        out = BigReal.lift(F(2), bits).pow_rational(F(1, 3))
        assert_encloses(out, mp.cbrt(2), "surface pow")

    def test_decimal_round_trip(self):
        x = gamma(F(1, 8), Precision.of(40))
        text = x.to_decimal(45)
        back = BigReal.parse(text, x.bits)
        assert abs(float(x) - float(back)) < 1e-12
        assert "±" in text


class TestElementary:
    def test_cos_pi_times_five_eighths(self):
        v = cos_pi_times(F(5, 8), P50)
        assert v.to_decimal(17).startswith("-0.3826834323650897")
        assert_encloses(v, mp.cospi(mp.mpf(5) / 8), "cospi(5/8)")

    def test_sqrt_seven(self):
        v = sqrt(BigReal.from_int(7, P50.work_bits))
        assert v.to_decimal(20).startswith("2.6457513110645905905")
        assert_encloses(v * v, mp.mpf(7), "sqrt(7)^2")

    def test_sin_pi_exact_reduction_large_rational(self):
        # sin(pi * (2k + 7/3)) = sin(pi/3)... reduction must be exact
        x = F(7, 3) + 2 * 10**12
        v = sin_pi_times(x, P50)
        assert_encloses(v, mp.sinpi(mp.mpf(7) / 3), "sinpi big arg")

    def test_log_exp_inverse(self):
        x = BigReal.from_fraction(F(17, 5), P50.work_bits)
        assert_encloses(exp(log(x)), mpf_of_fraction(F(17, 5)), "exp(log(x))")

    def test_exp_of_inexact_argument_keeps_precision(self):
        # the growth term e^eps - 1 must not floor at the 32-bit error precision
        for prec in (P50, Precision.of(300)):
            y = exp(log(BigReal.from_fraction(F(17, 5), prec.work_bits)))
            rel = as_mpf(y.err) / abs(as_mpf(y.val))
            assert rel <= mp.mpf(2) ** (-prec.work_bits + 8), (prec, rel)

    def test_elementary_dispatch_and_domains(self):
        assert_encloses(sqrt(BigReal.from_fraction(F(1, 4), P50.work_bits)), mp.mpf(1) / 2, "sqrt")
        with pytest.raises(DomainError):
            log(BigReal.from_int(-1, P50.work_bits))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        center=st.builds(F, st.integers(1, 10**9), st.integers(1, 10**6)),
        rel=st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 2**20), st.just(2**40))),
        bits=st.sampled_from((40, 120, 400, 1200)),
    )
    @example(center=F(1), rel=F(1, 2**20), bits=40)
    @example(center=F(1, 10**6), rel=F(1, 2**20), bits=400)
    def test_log_encloses_the_interval_log(self, center, rel, bits):
        """`log` of a BigReal of relative radius up to 2^-20 holds the log
        of its interval, taken by mpmath's interval arithmetic at 100 more
        bits."""
        c = BigReal.from_fraction(center, bits)
        rad = center * rel
        x = BigReal(c.val, from_rational(rad.numerator, rad.denominator, 32, "u"), bits)
        got = log(x)
        saved, iv.prec = iv.prec, bits + 100
        try:
            assert iv.log(_iv_of(x)) in _iv_of(got), (center, rel, bits)
        finally:
            iv.prec = saved


class TestGamma:
    def test_gamma_one(self):
        assert_encloses(gamma(F(1), P50), mp.mpf(1), "gamma(1)")

    def test_gamma_half_squares_to_pi(self):
        g = gamma(F(1, 2), P100)
        assert g.to_decimal(16).startswith("1.772453850905516")
        assert_encloses(g * g, mp.pi, "gamma(1/2)^2")

    def test_gamma_five_halves(self):
        g = gamma(F(5, 2), P50)
        assert g.to_decimal(16).startswith("1.329340388179137")
        assert_encloses(g, mp.gamma(mp.mpf(5) / 2), "gamma(5/2)")

    def test_poles(self):
        for x in (F(0), F(-1), F(-7)):
            with pytest.raises(GammaPoleError):
                gamma(x, P50)

    def test_recurrence_exact_shift(self):
        # gamma(x+1) = x gamma(x) across the shift threshold
        for x in (F(1, 8), F(5, 8), F(13, 24), F(7, 3)):
            lhs = gamma(x + 1, P50)
            rhs = gamma(x, P50) * BigReal.from_fraction(x, P50.work_bits)
            d = lhs - rhs
            assert not d.definitely_positive() and not d.definitely_negative()

    def test_against_oracle_various(self):
        rng = random.Random(3)
        args = [F(1, 8), F(5, 8), F(1, 48), F(47, 48), F(9, 8), F(-5, 2), F(-1, 3)]
        args += [F(rng.randint(1, 200), rng.randint(1, 48)) for _ in range(20)]
        for x in args:
            g = gamma(x, P100)
            assert_encloses(g, mp.gamma(mpf_of_fraction(x)), f"gamma({x})")

    def test_error_bound_contract(self):
        # err <= 2^(-work_bits + 8) * |gamma|
        for x in (F(1, 8), F(31, 48), F(9, 8), F(61, 2)):
            g = gamma(x, P100)
            rel = as_mpf(g.err) / abs(as_mpf(g.val))
            assert rel <= mp.mpf(2) ** (-P100.work_bits + 8)

    def test_monotone_precision(self):
        lo = gamma(F(1, 8), Precision.of(30))
        hi = gamma(F(1, 8), Precision.of(120))
        with mp.workdps(200):
            assert abs(as_mpf(hi.val) - as_mpf(lo.val)) <= as_mpf(lo.err)

    def test_concurrent_use_from_cold_caches(self):
        # unusual digit count so the Gamma cache for this working precision
        # starts cold and is filled from 8 threads at once
        from concurrent.futures import ThreadPoolExecutor

        prec = Precision(73, 317)
        args = [F(k, 48) for k in range(1, 33)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda x: gamma(x, prec), args))
        for x, got in zip(args, results):
            assert_encloses(got, mp.gamma(mpf_of_fraction(x)), f"threaded gamma({x})")


@st.composite
def _unit_argument(draw):
    q = draw(st.integers(1, 2000))
    return F(draw(st.integers(1, q)), q)


def _assert_gamma_contract(x: F, work_bits: int):
    """Gamma(x) at work_bits holds mpmath's value at +50 digits, and its
    relative radius meets the 2^(-work_bits+8) contract."""
    prec = Precision(max(1, int(work_bits / BITS_PER_DIGIT)), work_bits)
    g = gamma(x, prec)
    with mp.workdps(prec.target_digits + 50):
        want = mp.gamma(mpf_of_fraction(x))
        val, err = as_mpf(g.val), as_mpf(g.err)
        assert abs(val - want) <= err, (x, work_bits)
        assert err <= abs(val) * mp.mpf(2) ** (-work_bits + 8), (x, work_bits)


class TestGammaProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.integers(-400, 400),
        q=st.integers(1, 64),
        digits=st.one_of(st.integers(20, 300), st.just(1000)),
    )
    def test_enclosure_and_radius_at_rationals(self, p, q, digits):
        """Gamma(p/q) holds mpmath's value at +50 digits, and its relative
        radius meets the 2^(-work_bits+8) contract.  A few draws run at 1000
        digits, where the incomplete-gamma series is longest."""
        x = F(p, q)
        assume(not (x.denominator == 1 and x <= 0))
        prec = Precision.of(digits)
        with mp.workdps(digits + 50):
            g = gamma(x, prec)
            want = mp.gamma(mp.mpf(x.numerator) / x.denominator)
            val, err = as_mpf(g.val), as_mpf(g.err)
            assert abs(val - want) <= err, (x, digits)
            assert err <= abs(val) * mp.mpf(2) ** (-prec.work_bits + 8), (x, digits)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        y=_unit_argument(),
        shift=st.sampled_from((0, 0, 0, 1, 7, -1, -3)),
        work_bits=st.one_of(st.integers(40, 1200), st.just(4000)),
    )
    def test_unit_arguments_against_mpmath(self, y, shift, work_bits):
        """Gamma(p/q + shift) for p/q in (0, 1] with q <= 2000, reflected
        (p/q > 1/2) or summed, at 40 to 4000 work bits, holds mpmath's
        value at +50 digits and meets the 2^(-work_bits+8) contract."""
        x = y + shift
        assume(not (x.denominator == 1 and x <= 0))
        _assert_gamma_contract(x, work_bits)

    @pytest.mark.parametrize("q", [3, 4, 10, 101, 999, 1000, 1999, 2000, 2**40])
    def test_one_minus_one_over_q(self, q):
        """y = 1 - 1/q reflects through sin(pi y) = sin(pi / q), which is
        small: the sine is taken with enough more bits that Gamma(y) still
        holds mpmath's value and meets the contract.  At q = 2^40 the
        contract fails without those bits."""
        for work_bits in (40, 300, 1000):
            _assert_gamma_contract(1 - F(1, q), work_bits)

    def test_reflected_values_against_mpmath(self):
        """Every y = p/q in (1/2, 1) for q <= 24 at 50 and 100 digits,
        computed from Gamma(1 - y) and sin(pi y), holds mpmath's value."""
        args = sorted({F(p, q) for q in range(3, 25) for p in range(q // 2 + 1, q)})
        for prec in (P50, P100):
            for y in args:
                assert_encloses(gamma(y, prec), mp.gamma(mpf_of_fraction(y)), f"gamma({y})")

    def test_tail_bound_needs_both_of_its_terms(self):
        """`_gamma_tail` at low precision (fb = 0 to 40 fraction bits, M up
        to 40), where its n = M + 1 floors and its first neglected term U
        are each a few ulps: (S, R) holds Gamma(y, M) M^-y e^M (mpmath at
        60 digits) everywhere, and on this grid R - U alone and U alone
        would each fail, so neither term is slack."""
        short_floors = short_remainder = 0
        with mp.workdps(60):
            for y in (F(1, 2), F(1, 3), F(2, 7), F(1, 1000), F(499, 1000), F(1)):
                yv = mpf_of_fraction(y)
                for M in (1, 2, 5, 13, 40):
                    exact = mp.gammainc(yv, M) * mp.power(M, -yv) * mp.exp(M)
                    for fb in range(0, 41):
                        S, R = mpreal._gamma_tail(y, M, fb)
                        err = abs(S - exact * 2**fb)
                        assert err <= R, (y, M, fb)
                        short_remainder += err > M + 1
                        short_floors += err > R - (M + 1)
        assert short_floors and short_remainder

    def test_reflection_200_samples(self):
        """Gamma(x) Gamma(1 - x) sin(pi x) = pi at 200 x = k/200.  Since
        Gamma reflects every 1/2 < x < 1 through this same identity, the
        check is circular there, and holds only the other half to it; the
        reflected values are checked against mpmath above."""
        rng = random.Random(42)
        pi = pi_value(P50)
        for _ in range(200):
            x = F(rng.randint(1, 199), 200)
            if x == F(1, 2):
                x = F(1, 3)
            lhs = gamma(x, P50) * gamma(1 - x, P50) * sin_pi_times(x, P50)
            diff = lhs - pi
            assert not diff.definitely_positive() and not diff.definitely_negative()

    def test_duplication_and_triplication(self):
        rng = random.Random(7)
        two = BigReal.from_int(2, P50.work_bits)
        pi = pi_value(P50)
        for _ in range(20):
            x = F(rng.randint(1, 60), rng.randint(2, 24))
            # k=2: gamma(x) gamma(x+1/2) = 2^(1-2x) sqrt(pi) gamma(2x)
            lhs = gamma(x, P50) * gamma(x + F(1, 2), P50)
            rhs = two.pow_rational(1 - 2 * x) * sqrt(pi) * gamma(2 * x, P50)
            d = lhs - rhs
            assert not d.definitely_positive() and not d.definitely_negative()
            # k=3: gamma(x) gamma(x+1/3) gamma(x+2/3) = 2 pi 3^(1/2-3x) gamma(3x)
            lhs = gamma(x, P50) * gamma(x + F(1, 3), P50) * gamma(x + F(2, 3), P50)
            three = BigReal.from_int(3, P50.work_bits)
            rhs = 2 * pi * three.pow_rational(F(1, 2) - 3 * x) * gamma(3 * x, P50)
            d = lhs - rhs
            assert not d.definitely_positive() and not d.definitely_negative()


class TestBeta:
    def test_beta_ones(self):
        assert_encloses(beta(F(1), F(1), P50), mp.mpf(1), "beta(1,1)")

    def test_beta_halves_is_pi(self):
        assert_encloses(beta(F(1, 2), F(1, 2), P100), mp.pi, "beta(1/2,1/2)")

    def test_beta_proof_step_values(self):
        b = beta(F(5, 24), F(1, 4), P50)
        assert_encloses(b, mp.beta(mp.mpf(5) / 24, mp.mpf(1) / 4), "beta(5/24,1/4)")

    def test_beta_pole(self):
        with pytest.raises(GammaPoleError):
            beta(F(0), F(1, 2), P50)

    def test_calls_no_gamma(self, monkeypatch):
        import hypergamma.mpreal as mpreal

        def no_gamma(*args, **kwargs):
            raise AssertionError("beta called gamma")

        monkeypatch.setattr(mpreal, "gamma", no_gamma)
        beta(F(-7, 3), F(5, 8), P50)


@st.composite
def _beta_argument(draw):
    den = draw(st.integers(1, 48))
    return F(draw(st.integers(-8 * den + 1, 20 * den)), den)


class TestBetaProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=_beta_argument(), q=_beta_argument(), digits=st.integers(20, 300))
    # tanh-sinh does not converge on t^(-99/100) (1-t)^(-2/3)
    @example(p=F(1, 100), q=F(1, 3), digits=100)
    def test_enclosure_and_radius(self, p, q, digits):
        """B(p, q) holds mpmath's value at +50 digits for p, q in (-8, 20]
        off the poles, and for p, q > 0, where both series have positive
        terms, its relative radius meets the 2^(-work_bits+8) contract."""
        assume(not any(x.denominator == 1 and x <= 0 for x in (p, q, p + q)))
        prec = Precision.of(digits)
        got = beta(p, q, prec)
        with mp.workdps(digits + 50):
            want = mp.beta(mpf_of_fraction(p), mpf_of_fraction(q))
            val, err = as_mpf(got.val), as_mpf(got.err)
            assert abs(val - want) <= err, (p, q, digits)
            if p > 0 and q > 0:
                assert err <= abs(val) * mp.mpf(2) ** (-prec.work_bits + 8), (p, q)


def _caller_inputs():
    """The seeded inputs of the callers' digests, drawn from one stream:
    400 of f21_series, a quarter at a BigReal z, then Gamma's, then Beta's."""
    rng = random.Random(600)

    def rat(limit):
        den = rng.randint(1, 12)
        return F(rng.randint(-limit * den, limit * den), den)

    series, gammas, betas = [], [], []
    for i in range(400):
        a, b, c = rat(6), rat(6), rat(6)
        if c.denominator == 1 and c <= 0:
            c += F(1, 2)
        z = F(rng.randint(-90, 90), rng.choice((100, 97, 128)))
        prec = Precision.of(rng.randint(10, 80))
        if i % 4 == 3:
            root = sqrt(BigReal.from_fraction(abs(z), prec.work_bits + rng.choice((0, 64))))
            z = root if z > 0 else -root
        series.append((a, b, c, z, prec))
    for _ in range(120):
        x = F(rng.randint(-40, 60), rng.randint(1, 12))
        if not (x.denominator == 1 and x <= 0):
            gammas.append((x, Precision.of(rng.randint(10, 120))))
    for _ in range(80):
        x = F(rng.randint(-20, 40), rng.randint(1, 12))
        y = F(rng.randint(-20, 40), rng.randint(1, 12))
        if not any(t.denominator == 1 and t <= 0 for t in (x, y, x + y)):
            betas.append((x, y, Precision.of(rng.randint(10, 80))))
    return series, gammas, betas


def _digest(values) -> str:
    digest = hashlib.sha256()
    for x in values:
        sign, man, exp, bc = x.val
        digest.update(repr((sign, int(man), exp, bc, x.err, x.bits)).encode())
    return digest.hexdigest()


_KERNEL_PARAMS = st.one_of(
    st.sampled_from([F(1), F(2), F(1, 2), F(-1, 2), F(5, 3), F(-7, 3), F(0), F(-3)]),
    st.builds(F, st.integers(-40, 40), st.integers(1, 8)),
)


def _off_the_poles(a: F) -> bool:
    return not (a.denominator == 1 and a <= 0)


def _assert_kernel_agrees(upper, lower, u, v, D, wb, pwb, term_cap, companion):
    """`mpreal._scaled_sum` and `reference_scaled_sum` give the same result,
    or both reach a lower parameter's pole."""

    def run(kernel):
        try:
            return kernel(upper, lower, u, v, D, wb, pwb, term_cap, companion)
        except ZeroDivisionError as e:
            return type(e)

    want = run(reference_scaled_sum)
    assert run(mpreal._scaled_sum) == want, (upper, lower, u, v, D, wb, pwb, term_cap, companion)


def _exact_sum(upper, lower, z: F) -> F:
    """The sum of a pFq series that ends, in Fractions."""
    t, total, n = F(1), F(0), 0
    while t:
        total += t
        t *= math.prod(a + n for a in upper) * z / (math.prod(b + n for b in lower) * (n + 1))
        n += 1
    return total


class TestFixedPointSum:
    # 2F1(40, 40; 1/8; -9/10): terms near 2^350 cancel to about 4e-12
    UPPER, LOWER = (F(40), F(40)), (F(1, 8),)

    def sums(self, monkeypatch, z, bits):
        """The radius of the kernel's result, and how many times it summed."""
        import hypergamma.mpreal as mpreal

        calls = []
        scaled_sum = mpreal._scaled_sum

        def counted(*args):
            calls.append(args)
            return scaled_sum(*args)

        monkeypatch.setattr(mpreal, "_scaled_sum", counted)
        out = fixed_point_sum(self.UPPER, self.LOWER, z, bits)
        return as_mpf(out.err), len(calls)

    def test_cancelling_sum_is_summed_again_to_the_target(self, monkeypatch):
        err, sums = self.sums(monkeypatch, F(-9, 10), P50.work_bits)
        assert sums == 2 and err <= mp.mpf(2) ** -P50.work_bits

    def test_not_summed_again_when_the_radius_of_z_dominates(self, monkeypatch):
        # sqrt(81/100) = 9/10 with the radius of its rounding at `bits`
        for extra, want in ((0, 1), (512, 2)):
            bits = P50.work_bits + extra
            z = -sqrt(BigReal.from_fraction(F(81, 100), bits))
            assert not z.is_exact
            assert self.sums(monkeypatch, z, P50.work_bits)[1] == want, extra

    def test_zero_and_divergence(self):
        assert fixed_point_sum(self.UPPER, self.LOWER, F(0), 100).is_exact
        with pytest.raises(DomainError):
            fixed_point_sum(self.UPPER, self.LOWER, F(1), 100)
        with pytest.raises(DomainError):  # |z| < 1, but not |z| + radius
            fixed_point_sum(self.UPPER, self.LOWER, BigReal.parse("0.99 ± 0.02", 100), 100)


    def test_callers_are_bit_identical(self):
        """f21_series's (value, radius) on 400 seeded inputs, at rational
        and BigReal z.  The digest is that of the kernel before it took a
        companion series or rescaled a sum of positive terms (no term here
        grows past 2^64 of the first); a change to it is a change of every
        series caller's result."""
        series, _, _ = _caller_inputs()
        values = [f21_series(HypParams(a, b, c), z, prec) for a, b, c, z, prec in series]
        assert _digest(values) == (
            "d7452481ceb066b02875f686217830a3a56699514b3846fd1daedacdb5f525bd"
        )

    def test_gamma_is_bit_identical(self):
        """Gamma's (value, radius) on the 107 seeded inputs that follow;
        its digest is that of the half-length 1F1 sum at M, ln M from
        `_ln` at wb + 8 bits, the asymptotic tail of `_gamma_tail`, and
        reflection for 1/2 < y < 1; the Pochhammer shift does not move
        it."""
        _, gammas, _ = _caller_inputs()
        assert _digest(gamma(x, prec) for x, prec in gammas) == (
            "4eaf8a6ed333f99eb3a25283a520ac6445b00fcf71aabca3c8ed8f4f82974a82"
        )

    def test_beta_is_bit_identical(self):
        """Beta's (value, radius) on the 55 seeded inputs that follow; its
        digest is that of 2^-(x+y) raised by `power_product`, with the log
        bound summed in integers as `PowerIntegrand` sums it."""
        *_, betas = _caller_inputs()
        assert _digest(beta(x, y, prec) for x, y, prec in betas) == (
            "2e40e82c4e97e968925d2e446b92c47f254876bc37a4f108ae35db726dd65933"
        )

    def test_log_connection_is_bit_identical(self):
        """f21_log_connection's (value, radius) on 36 seeded inputs near
        z = 1 with c - a - b in -3..3, every one through the companion sum;
        its digest is that of the term-by-term kernel."""
        rng = random.Random(2201)
        values = []
        for _ in range(60):
            a = F(rng.randint(-30, 30), rng.randint(2, 9))
            b = F(rng.randint(-30, 30), rng.randint(2, 9))
            c = a + b + rng.randint(-3, 3)
            z = 1 - F(rng.randint(1, 60), rng.choice((100, 97, 128)))
            prec = Precision.of(rng.randint(10, 60))
            if a.denominator > 1 and b.denominator > 1 and not (c.denominator == 1 and c <= 0):
                values.append(f21_log_connection(HypParams(a, b, c), z, prec))
        assert len(values) == 36
        assert _digest(values) == (
            "7e3031d28374fa88b406b1226bf81f977c248bffc2b149bbe4650241fc887b4c"
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_kernel_equals_the_term_by_term_reference(self, data):
        """The chunked kernel returns what the term-by-term kernel of
        `reference_scaled_sum` returns, bit for bit, over p <= q + 1 <= 3,
        parameters of either sign with upper ones that end the series or
        equal a lower one or 1, rational and interval z (some centred on 0),
        the companion sum, and term caps of any residue mod 32."""
        p, q = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]))
        upper = data.draw(st.lists(_KERNEL_PARAMS, min_size=p, max_size=p))
        lower = data.draw(st.lists(_KERNEL_PARAMS.filter(_off_the_poles), min_size=q, max_size=q))
        if upper and lower and data.draw(st.booleans()):
            upper[0] = lower[-1]
        u = data.draw(st.integers(-300, 300)) if data.draw(st.integers(0, 7)) else 0
        D = data.draw(st.sampled_from([0, 0, 0, 1, 7, 40]))
        if p == q + 1 and not any(a.denominator == 1 and a <= 0 for a in upper):
            v = abs(u) + D + data.draw(st.integers(max(1, abs(u) // 16), 400))
        else:
            v = data.draw(st.integers(1, 400))
        wb = data.draw(st.integers(8, 160))
        pwb = data.draw(st.integers(1, wb))
        term_cap = data.draw(st.one_of(st.none(), st.integers(1, 300)))
        companion = ()
        if data.draw(st.integers(0, 3)) == 0:
            shift = st.tuples(st.sampled_from((1, -1)), _KERNEL_PARAMS.filter(_off_the_poles))
            companion = tuple(data.draw(st.lists(shift, min_size=1, max_size=4)))
        _assert_kernel_agrees(upper, lower, u, v, D, wb, pwb, term_cap, companion)

    @pytest.mark.parametrize(
        "upper, lower, u, v, D, wb, pwb, term_cap, companion",
        [
            # positive terms past 2^(wb+64): rescaled every 32 terms
            ((F(1),), (F(1, 3),), 200, 1, 0, 64, 50, None, ()),
            ((F(7, 2),), (F(1, 3),), 9, 1, 0, 40, 40, None, ()),
            # z's interval centred on 0, with and without a companion
            ((F(1, 2), F(1, 3)), (F(5, 4),), 0, 64, 3, 100, 90, None, ()),
            ((F(1, 2), F(1, 3)), (F(5, 4),), 0, 64, 3, 100, 90, None, ((1, F(1)), (-1, F(1, 2)))),
            # stopped by a cap of 200, which is not a multiple of 32
            ((F(1, 2), F(1, 3)), (F(5, 4),), 99, 100, 0, 200, 190, 200, ()),
            # upper parameters equal to the lower one and to n!'s 1
            ((F(5, 4), F(1)), (F(5, 4),), 1, 2, 0, 120, 110, None, ()),
            ((F(1), F(1, 3)), (F(1),), -5, 7, 1, 120, 110, None, ()),
            # ends at n = 5 with |z| > 1; ends at 3, where the lower pole is
            ((F(-5), F(1, 3)), (F(-7, 2),), -7, 3, 0, 100, 90, None, ()),
            ((F(-3), F(1, 2)), (F(-3),), 1, 2, 0, 100, 90, None, ()),
            # reaches its lower pole: ZeroDivisionError in both
            ((F(1, 2), F(1, 3)), (F(-2),), 1, 2, 0, 100, 90, None, ()),
            # Q < 0 for the first terms, and P/Q changing sign twice
            ((F(1, 2), F(-7, 3)), (F(-13, 4),), -3, 4, 0, 150, 140, None, ()),
            ((F(-1, 2), F(-9, 4)), (F(-11, 3), F(-1, 5)), 13, 5, 2, 150, 140, 77, ()),
        ],
    )
    def test_kernel_equals_the_reference_on_edges(
        self, upper, lower, u, v, D, wb, pwb, term_cap, companion
    ):
        _assert_kernel_agrees(upper, lower, u, v, D, wb, pwb, term_cap, companion)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_blocks_hold_the_term_by_term_bounds(self, data):
        """From BLOCK_BITS on, a rational-z sum without a companion steps in
        blocks: over p <= q + 1 <= 3, parameters of either sign, series that
        end and term caps, its interval overlaps the one of the
        term-by-term `reference_scaled_sum`, its radius is at most that
        one's plus the tail's one ulp, and a series that ends holds its
        exact sum."""
        p, q = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]))
        upper = data.draw(st.lists(_KERNEL_PARAMS, min_size=p, max_size=p))
        lower = data.draw(st.lists(_KERNEL_PARAMS.filter(_off_the_poles), min_size=q, max_size=q))
        u = data.draw(st.integers(-300, 300).filter(bool))
        ends = any(a.denominator == 1 and a <= 0 for a in upper)
        if p == q + 1 and not ends:
            v = abs(u) + data.draw(st.integers(max(1, abs(u) // 16), 400))
        else:
            v = data.draw(st.integers(1, 400))
        wb = data.draw(st.integers(mpreal.BLOCK_BITS, mpreal.BLOCK_BITS + 400))
        pwb = data.draw(st.integers(1, wb))
        term_cap = data.draw(st.one_of(st.none(), st.integers(1, 300)))
        case = (upper, lower, u, v, 0, wb, pwb, term_cap)
        want, got = reference_scaled_sum(*case), mpreal._scaled_sum(*case)
        if want is None or got is None:
            return
        [(S, err)], [(S0, err0)] = got, want
        assert abs(S - S0) <= err + err0, case
        assert err <= err0 + 1, case
        if ends:
            exact = _exact_sum(upper, lower, F(u, v))
            assert abs(S - exact * 2**wb) <= err, case

    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (F(7, 48), F(31, 48), F(9, 8), F(-9, 10)),
            (F(-7, 3), F(5, 2), F(-13, 4), F(-9, 10)),
            (F(1, 3), F(-40, 7), F(3, 8), F(1, 2)),
            (F(-60), F(1, 3), F(5, 6), F(-3, 4)),
        ],
    )
    def test_blocks_at_1000_digits_hold_mpmath(self, a, b, c, z):
        """f21_series at 1000 digits, where every series steps in blocks,
        holds mpmath's 2F1 at +60 digits to its 2^-bits radius."""
        prec = Precision.of(1000)
        got = f21_series(HypParams(a, b, c), z, prec)
        with mp.workdps(1060):
            want = mp.hyp2f1(*(mpf_of_fraction(x) for x in (a, b, c, z)))
            assert_encloses(got, want, f"2F1({a}, {b}; {c}; {z})")
            assert as_mpf(got.err) <= mp.mpf(2) ** -prec.work_bits * max(1, abs(want))

    @pytest.mark.parametrize("x", [F(1, 4), F(3, 4), F(9, 4), F(-7, 4), F(1, 2), F(-5, 2)])
    def test_gamma_blocks_at_1000_digits_hold_mpmath(self, x):
        """Gamma at 1000 digits (its 1F1 at about 3450 bits steps in blocks)
        holds, at +60 digits, mpmath's closed forms: Gamma(1/4)^2 =
        (2 pi)^(3/2) / agm(1, sqrt 2), Gamma(3/4) = pi sqrt(2) / Gamma(1/4),
        Gamma(1/2) = sqrt(pi), and the recurrence; mpmath's own gamma at
        1060 digits first builds a table that takes seconds."""
        with mp.workdps(1060):
            quarter = mp.sqrt((2 * mp.pi) ** 1.5 / mp.agm(1, mp.sqrt(2)))
            base = {F(1, 4): quarter, F(3, 4): mp.pi * mp.sqrt(2) / quarter, F(1, 2): mp.sqrt(mp.pi)}
            y = x - math.floor(x) or F(1)
            want = base[y]
            for k in range(math.floor(x)):  # Gamma(y + k + 1) = (y + k) Gamma(y + k)
                want *= mpf_of_fraction(y + k)
            for k in range(1, 1 - math.floor(x)):  # Gamma(y - k) = Gamma(y - k + 1) / (y - k)
                want /= mpf_of_fraction(y - k)
            got = gamma(x, Precision.of(1000))
            assert_encloses(got, want, f"Gamma({x})")
            assert as_mpf(got.err) <= abs(want) * mp.mpf(2) ** (-Precision.of(1000).work_bits + 8)

    @pytest.mark.parametrize(
        "upper, lower, u, v",
        [
            ((F(7, 48), F(31, 48)), (F(9, 8),), 29884728384, 34239431521),
            ((F(1),), (F(9, 8),), 700, 1),
            ((F(-1, 2), F(-9, 4)), (F(-11, 3), F(-1, 5)), 13, 5),
        ],
    )
    def test_steps_term_by_term_below_block_bits(self, upper, lower, u, v):
        """One bit below BLOCK_BITS every sum is the term-by-term one, bit
        for bit; at BLOCK_BITS these long sums are not."""
        wb = mpreal.BLOCK_BITS
        _assert_kernel_agrees(upper, lower, u, v, 0, wb - 1, wb - 21, None, ())
        args = (upper, lower, u, v, 0, wb, wb - 20, None)
        assert mpreal._scaled_sum(*args) != reference_scaled_sum(*args)

    def test_blocks_reach_a_lower_pole(self):
        """A block that holds Q = 0, at n = 40 here, raises as the
        term-by-term sum does."""
        args = ((F(1, 2), F(1, 3)), (F(-40),), 1, 2, 0, mpreal.BLOCK_BITS, 1000, None)
        for kernel in (mpreal._scaled_sum, reference_scaled_sum):
            with pytest.raises(ZeroDivisionError):
                kernel(*args)

    def test_block_sums_are_bit_identical(self):
        """f21_series's (value, radius) at 310 to 426 digits, every sum in
        blocks, on the 45 rational inputs among the first 60 of the
        digests' seeded series, and Gamma at 1000 digits; a change to it is a change of every sum from
        BLOCK_BITS on."""
        series, gammas, _ = _caller_inputs()
        values = [
            f21_series(HypParams(a, b, c), z, Precision.of(310 + 2 * i))
            for i, (a, b, c, z, _) in enumerate(series[:60])
            if not isinstance(z, BigReal)
        ]
        values += [gamma(x, Precision.of(1000)) for x, _ in gammas[:4]]
        assert _digest(values) == (
            "426da811d36b49a38fbc0ee5f64553994a11c62dc7682ead0a073340ede20d47"
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        a=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        b=st.builds(F, st.integers(-72, 72), st.integers(1, 12)),
        m=st.integers(0, 3),
        w=st.builds(F, st.integers(1, 1000), st.just(10**4)),
        digits=st.integers(20, 120),
    )
    def test_companion_sum(self, a, b, m, w, digits):
        """The two sums of the logarithmic connection formula, sum t_n and
        sum g_n t_n with t_n the terms of 2F1(a+m, b+m; m+1; w) and g_n the
        harmonic sum of delta_k = 1/(k+1) + 1/(k+m+1) - 1/(k+a+m) -
        1/(k+b+m), each hold a direct mpmath sum at +50 digits."""
        companion = ((1, F(1)), (1, F(m + 1)), (-1, a + m), (-1, b + m))
        assume(not any(x.denominator == 1 and x <= 0 for _, x in companion))
        bits = Precision.of(digits).work_bits
        got = fixed_point_sum((a + m, b + m), (F(m + 1),), w, bits, None, companion)
        with mp.workdps(digits + 50):
            wants = companion_reference((a + m, b + m), (F(m + 1),), w, companion, digits + 60)
            for out, want in zip(got, wants):
                assert_encloses(out, want, f"companion of ({a}, {b}, {m}) at {w}")
                assert as_mpf(out.err) <= mp.mpf(2) ** -bits * max(1, abs(want))

    @pytest.mark.parametrize(
        "a, b, m, w",
        [(F(1, 8), F(3, 8), 0, F(1, 10)), (F(-5, 2), F(7, 3), 2, F(1, 20)), (F(9, 2), F(6), 1, F(3, 40))],
    )
    def test_companion_tail_bound_holds_an_early_stop(self, a, b, m, w):
        """Summed in 400-bit integers but stopped at a 2^-8 tail target, the
        radii are the two tail bounds, far above the rounding: each must
        still hold the sum it dropped."""
        import hypergamma.mpreal as mpreal

        companion = ((1, F(1)), (1, F(m + 1)), (-1, a + m), (-1, b + m))
        out = mpreal._scaled_sum(
            (a + m, b + m), (F(m + 1),), w.numerator, w.denominator, 0, 400, 8, None, companion
        )
        with mp.workdps(140):
            wants = companion_reference((a + m, b + m), (F(m + 1),), w, companion, 130)
            for (S, err), want in zip(out, wants):
                assert abs(mp.mpf(S) / mp.mpf(2) ** 400 - want) <= mp.mpf(err) / mp.mpf(2) ** 400

    @pytest.mark.parametrize(
        "a, w, beta, pwb",
        [(F(1, 2), F(95, 100), F(1, 5), 4), (F(1), F(95, 100), F(9, 50), 8), (F(3, 4), F(49, 50), F(4, 25), 8)],
    )
    def test_companion_tail_bound_holds_its_drift(self, a, w, beta, pwb):
        """delta_k = 2/(k+1) - 1/(k+beta) makes g_n ~ ln n + gamma - 1/beta
        cross zero near the stop, while past it g grows by about 1/n a term
        and rho is near 1: the companion's tail is then the
        rho/(1-rho)^2 D_n |t_n| drift term, which the sum at a 2^-pwb target
        must carry to hold the sum it dropped."""
        import hypergamma.mpreal as mpreal

        companion = ((1, F(1)), (1, F(1)), (-1, beta))
        out = mpreal._scaled_sum(
            (a, a), (F(1),), w.numerator, w.denominator, 0, 400, pwb, None, companion
        )
        with mp.workdps(140):
            wants = companion_reference((a, a), (F(1),), w, companion, 130)
            for (S, err), want in zip(out, wants):
                assert abs(mp.mpf(S) / mp.mpf(2) ** 400 - want) <= mp.mpf(err) / mp.mpf(2) ** 400

    def test_companion_shift_off_the_poles(self):
        with pytest.raises(ValueError):
            fixed_point_sum((F(1, 2),), (F(3, 2),), F(1, 2), 100, None, ((1, F(-2)),))


def _fraction(x) -> F:
    """A raw mpf tuple as the exact rational it is."""
    sign, man, exp, _ = x
    q = man * F(2) ** exp
    return -q if sign else q


def _peak_log2(upper, lower, z) -> float:
    """log2 of the largest term of a series of positive terms, in floats."""
    logt = peak = 0.0
    n = 0
    while True:
        ratio = math.prod(a + n for a in upper) / math.prod(b + n for b in lower) * z / (n + 1)
        if ratio < 1 and n > max(upper):
            return peak
        logt += math.log2(ratio)
        peak = max(peak, logt)
        n += 1


class TestLogInt:
    """The log of an exact integer, as `ge_eval` and Gamma's ln M take it,
    from `_ln`."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 10**6), bits=st.integers(64, 4000))
    def test_encloses_ln_n(self, n, bits):
        """ln of the exact n is within its bound of mpmath's ln n at +50
        digits."""
        ln, bound = mpreal._ln(from_int(n), fzero, bits)
        with mp.workprec(bits + 180):
            assert abs(as_mpf(ln) - mp.log(n)) <= as_mpf(bound), (n, bits)

    def test_cache_stays_bounded(self):
        cached = mpreal._ln
        cap = cached.cache_info().maxsize
        assert cap is not None
        for n in range(2, cap + 12):
            cached(from_int(n), fzero, 64)
        assert cached.cache_info().currsize <= cap
        assert cached(from_int(7), fzero, 64) is cached(from_int(7), fzero, 64)
        assert cached(from_int(7), fzero, 65) is not cached(from_int(7), fzero, 64)


class TestPositiveTerms:
    """A series of positive terms is summed in integers cut to wb bits
    below its largest term; each shift of the scale adds 2 ulps to each
    error bound, which must still hold."""

    @pytest.mark.parametrize("a", [40, 1000])
    @pytest.mark.parametrize("digits", [50, 1000])
    def test_exact_value(self, a, digits):
        """2F1(a, 1; 2; 1/2) = 2 (2^(a-1) - 1) / (a - 1): at a = 1000 the
        terms pass 2^990 and the sum is rescaled, at a = 40 they stay below
        2^36 and it is not."""
        prec = Precision.of(digits)
        got = f21_series(HypParams(F(a), F(1), F(2)), F(1, 2), prec)
        want = F(2 * (2 ** (a - 1) - 1), a - 1)
        err = _fraction(got.err)
        assert abs(_fraction(got.val) - want) <= err, (a, digits)
        assert err <= want / 2**prec.work_bits, (a, digits)

    @pytest.mark.parametrize("y", [F(1, 8), F(5, 8), F(1, 3)])
    def test_gamma_series_at_1000_digits(self, y):
        """1F1(1; y+1; N) at N = (wb + 8) / 1.4426 for 1000 digits, whose
        terms pass 2^3000 before they fall, against a direct mpmath sum at
        +50 digits."""
        wb = Precision.of(1000).work_bits + 32
        N = -(-(wb + 8) * 10000 // 14426)
        got = fixed_point_sum((1,), (y + 1,), N, wb)
        with mp.workdps(1050):
            t, total, n = mp.mpf(1), mp.mpf(0), 0
            while n < 2 * N or t > total * mp.mpf(10) ** -1060:
                total += t
                t = t * N / (y + 1 + n)
                n += 1
            assert_encloses(got, total, f"1F1(1; {y}+1; {N})")
            assert as_mpf(got.err) <= total * mp.mpf(2) ** -wb

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]),
        tops=st.lists(st.builds(F, st.integers(1, 4000), st.integers(1, 12)), min_size=3, max_size=3),
        bottoms=st.lists(st.builds(F, st.integers(1, 120), st.integers(1, 12)), min_size=2, max_size=2),
        k=st.integers(1, 95),
        digits=st.integers(20, 150),
    )
    def test_growing_terms_against_mpmath(self, shape, tops, bottoms, k, digits):
        """pFq with positive parameters whose terms grow past 2^70, at
        z = k/100 for p = q + 1 and z = 5k otherwise, holds mpmath's value
        at +50 digits, to a radius within 2^-bits of it."""
        upper, lower = tops[: shape[0]], bottoms[: shape[1]]
        z = F(k, 100) if shape[0] == shape[1] + 1 else F(5 * k)
        assume(_peak_log2(upper, lower, float(z)) > 70)
        bits = Precision.of(digits).work_bits
        got = fixed_point_sum(upper, lower, z, bits)
        with mp.workdps(digits + 50):
            want = mp.hyper([mpf_of_fraction(a) for a in upper], [mpf_of_fraction(b) for b in lower], mpf_of_fraction(z))
            assert_encloses(got, want, f"{upper}; {lower}; {z}")
            assert as_mpf(got.err) <= want * mp.mpf(2) ** -bits


def companion_reference(upper, lower, w, companion, digits):
    """sum t_n and sum g_n t_n for the terms t_n of pFq(upper; lower; w) and
    g_n = sum_{k<n} sum sigma/(k + alpha) over the companion, summed
    directly in mpmath until a term falls below 10^-digits."""
    A, B = [mpf_of_fraction(x) for x in upper], [mpf_of_fraction(x) for x in lower]
    W = mpf_of_fraction(w)
    shifts = [(sigma, mpf_of_fraction(alpha)) for sigma, alpha in companion]
    t, g, sums, n = mp.mpf(1), mp.mpf(0), [mp.mpf(0), mp.mpf(0)], 0
    while n < 60 or abs(t) * (1 + abs(g)) > mp.mpf(10) ** -digits:
        sums[0] += t
        sums[1] += g * t
        g += sum(sigma / (n + alpha) for sigma, alpha in shifts)
        t *= mp.fprod(x + n for x in A) / ((n + 1) * mp.fprod(x + n for x in B)) * W
        n += 1
    return sums


class TestTanhSinh:
    def test_inverse_sqrt_integral(self):
        prec = Precision.of(40)

        def f(u, v):
            return u.pow_rational(F(-1, 2))

        got = tanh_sinh_integrate(f, prec)
        assert_encloses(got, mp.mpf(2), "int t^-1/2")

    def test_symmetric_quarter_singularities(self):
        prec = Precision.of(40)

        def f(u, v):
            return u.pow_rational(F(-1, 4)) * v.pow_rational(F(-1, 4))

        got = tanh_sinh_integrate(f, prec)
        want = mp.beta(mp.mpf(3) / 4, mp.mpf(3) / 4)
        assert_encloses(got, want, "beta(3/4,3/4) integral")

    def test_quadrature_vs_gamma_50_pairs(self):
        prec = Precision.of(30)
        rng = random.Random(13)
        for _ in range(50):
            x = F(rng.randint(1, 40), rng.randint(8, 24))
            y = F(rng.randint(1, 40), rng.randint(8, 24))

            def f(u, v, x=x, y=y):
                return u.pow_rational(x - 1) * v.pow_rational(y - 1)

            got = tanh_sinh_integrate(f, prec)
            want = beta(x, y, prec)
            d = got - want
            assert not d.definitely_positive() and not d.definitely_negative()

    def test_nonconvergent_raises(self):
        prec = Precision.of(30)

        def f(u, v):
            return u.pow_rational(F(-9, 8))  # exponent < -1: divergent

        with pytest.raises((QuadratureError, OverflowError)):
            tanh_sinh_integrate(f, prec, level_cap=8)

    def test_the_integrand_bounds_reach_the_result(self):
        """f = 1 +- 2^-40 at every node: 1 - 2^-40 and 1 + 2^-40 are each the
        integral of a function inside every value f returns, so the result
        must hold both."""
        prec = Precision.of(30)
        one = BigReal(fone, from_rational(1, 2**40, 32, "u"), prec.work_bits)
        got = tanh_sinh_integrate(lambda u, v: one, prec)
        for want in (1 - F(1, 2**40), 1 + F(1, 2**40)):
            assert_encloses(got, mpf_of_fraction(want), str(want))

    def test_monotone_precision(self):
        def f(u, v):
            return u.pow_rational(F(-1, 2)) * v.pow_rational(F(-1, 3))

        lo = tanh_sinh_integrate(f, Precision.of(25))
        hi = tanh_sinh_integrate(f, Precision.of(60))
        with mp.workdps(100):
            assert abs(as_mpf(hi.val) - as_mpf(lo.val)) <= as_mpf(lo.err)


def _node_base(nbits, level, k, complement, rel) -> BigReal:
    """The value of the k-th node from the tail of `_ts_nodes(nbits,
    level)`, x or 1 - x, at the quadrature's bits, with a relative radius
    `rel`."""
    node = mpreal._ts_nodes(nbits, level)
    val = node[-1 - k % len(node)][1 if complement else 0].val
    err = mpf_mul(val, from_rational(rel.numerator, rel.denominator, 32, "u"), 32, "u")
    return BigReal(val, err, nbits + 16)


def _iv_of(x: BigReal):
    return iv.mpf(as_mpf(x.val)) + iv.mpf([-as_mpf(x.err), as_mpf(x.err)])


factor_draws = st.tuples(
    st.booleans(),  # a node base or a plain rational one
    st.builds(F, st.integers(1, 10**6), st.integers(1, 10**4)),
    st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 2**20), st.just(2**24))),
    st.integers(0, 2),  # node level
    st.integers(0, 63),  # node index from the tail
    st.booleans(),  # 1 - x rather than x
    st.builds(F, st.integers(-2001, 2001), st.integers(1, 12)),
)


class TestPowerProduct:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        draws=st.lists(factor_draws, min_size=1, max_size=4),
        nbits=st.sampled_from((44, 120, 280, 400)),
    )
    # a node 1 - x near 2^-7936, exact, at a large exponent: the log's
    # rounding is all of its bound
    @example(draws=[(True, F(1), F(0), 0, 0, True, F(-2001, 2))], nbits=400)
    @example(draws=[(False, F(1), F(1, 1000), 0, 0, False, F(-2001, 2))], nbits=200)
    def test_encloses_the_image_of_its_inputs(self, draws, nbits):
        """prod base^r over 1-4 factors, bases with relative radius up to
        2^-4, and node bases down to 2^-6000 and below, holds the image of
        the input intervals taken by mpmath's interval arithmetic at 100
        more bits."""
        wb = nbits + 16
        factors = []
        for is_node, center, rel, level, k, complement, r in draws:
            if is_node:
                base = _node_base(nbits, level, k, complement, rel)
            else:
                c = BigReal.from_fraction(center, wb)
                rad = center * rel
                base = BigReal(c.val, from_rational(rad.numerator, rad.denominator, 32, "u"), wb)
            factors.append((base, r))
        got = power_product(*factors)
        saved, iv.prec = iv.prec, wb + 100
        try:
            want = iv.mpf(1)
            for base, r in factors:
                want *= _iv_of(base) ** (iv.mpf(r.numerator) / r.denominator)
            assert want in _iv_of(got), (draws, nbits)
        finally:
            iv.prec = saved

    def test_no_factor_is_an_exact_one(self):
        x = BigReal.from_fraction(F(22, 7), 128)
        for out in (power_product(), power_product((x, 0), (x, F(0)))):
            assert out.is_exact and float(out) == 1.0

    def test_a_base_not_certainly_positive_is_rejected(self):
        wide = BigReal(BigReal.from_int(1, 64).val, BigReal.from_int(2, 64).val, 64)
        for base in (BigReal.from_int(-2, 128), wide):
            with pytest.raises(DomainError):
                power_product((base, F(1, 3)))

    def test_a_base_met_again_takes_no_second_log(self, monkeypatch):
        """Bases met again at one precision, as new objects of the same
        value and radius (two node values, pi, an integer), take their log
        from `_ln`'s cache: no second `mpf_log`."""
        prec = Precision(0, 136)

        def bases():
            return (
                _node_base(120, 1, 3, True, F(0)),
                _node_base(120, 2, 5, False, F(1, 2**30)),
                pi_value(prec),
                BigReal.from_int(10**6 + 3, 136),
            )

        first = power_product(*zip(bases(), (F(-7, 3), F(5, 8), F(1, 2), F(-1, 5))))

        def no_log(*args):
            raise AssertionError("mpf_log called for a base met before")

        monkeypatch.setattr(mpreal, "mpf_log", no_log)
        x, y = bases()[:2]
        again = power_product(*zip(bases(), (F(-7, 3), F(5, 8), F(1, 2), F(-1, 5))))
        assert (again.val, again.err) == (first.val, first.err)
        with mp.workdps(80):
            want = as_mpf(x.val) ** (mp.mpf(-7) / 3) * as_mpf(y.val) ** (mp.mpf(5) / 8)
            want *= mp.sqrt(mp.pi) / mp.mpf(10**6 + 3) ** (mp.mpf(1) / 5)
            assert_encloses(again, want, "bases met again")

    def test_equal_values_of_different_radius_get_their_own_bounds(self):
        """Two bases of one value, one exact and one of relative radius
        2^-30, in both orders through a cold cache: the wide one's bound
        holds its radius, so a cache keyed by value alone fails here."""
        bits = 200
        val = BigReal.from_fraction(F(22, 7), bits).val
        exact = BigReal(val, fzero, bits)
        wide = BigReal(val, mpf_mul(val, from_man_exp(1, -30), 32, "u"), bits)
        for first in (exact, wide):
            mpreal._ln.cache_clear()
            power_product((first, F(1, 3)))
            narrow, broad = (power_product((x, F(1, 3))) for x in (exact, wide))
            assert as_mpf(broad.err) > as_mpf(narrow.err) * 2**100, first is wide
            with mp.workprec(bits + 100):
                for end in (-1, 1):
                    want = (as_mpf(val) * (1 + end * mp.mpf(2) ** -30)) ** (mp.mpf(1) / 3)
                    assert_encloses(broad, want, str(end))

    def test_node_logs_hold_their_bound(self):
        """At every node x and 1 - x, ln from `_ln` at lb = bits + 24 bits,
        the bits an integrand asks for, holds the log of both ends of the
        node's interval (relative radius 2^(6-wb))."""
        for nbits in (44, 280):
            lb = nbits + 24
            for level in range(3):
                for x, cx, _ in mpreal._ts_nodes(nbits, level):
                    for node in (x, cx):
                        ln, bound = mpreal._ln(node.val, node.err, lb)
                        with mp.workprec(lb + 100):
                            for end in (-1, 1):
                                y = as_mpf(node.val) + end * as_mpf(node.err)
                                assert abs(as_mpf(ln) - mp.log(y)) <= as_mpf(bound)


# the polynomial factors of the package: the three proof steps', and
# Euler's (1 - z) + z v near z = 1 and below -9
POLY_SHAPES = (
    ("u", (1, F(-1, 4))),
    ("u", (1, 1, 1)),
    ("v", (3, -3, 1)),
    *(("v", (1 - z, z)) for z in (1 - F(1, 10**3), 1 - F(1, 10**12), F(-(10**8)))),
)

exponents = st.builds(F, st.integers(-2001, 2001), st.integers(1, 12))


class TestPowerIntegrand:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        node=st.booleans(),  # a cached node pair, or plain wide bases
        nbits=st.sampled_from((44, 120, 280, 400)),
        level=st.integers(0, 2),
        k=st.integers(0, 63),  # node index from the tail
        swap=st.booleans(),  # (1 - x, x) rather than (x, 1 - x)
        center=st.integers(1, 2**20 - 1),  # plain u = center / 2^20
        rels=st.tuples(*[st.builds(F, st.integers(0, 2**20), st.just(2**24))] * 2),
        powers=st.tuples(exponents, exponents),
        factors=st.lists(st.tuples(st.sampled_from(POLY_SHAPES), exponents), max_size=2),
    )
    # the far node pair at 400 bits, x = 1 - 2^-7936 rounded to 1: h = |x| + r
    # is above 1 for the quadratic factor
    @example(
        node=True, nbits=400, level=0, k=0, swap=False, center=1, rels=(F(0), F(0)),
        powers=(F(-2001, 12), F(2001, 12)), factors=[(POLY_SHAPES[1], F(2001, 2))],
    )
    def test_encloses_the_image_of_its_inputs(
        self, node, nbits, level, k, swap, center, rels, powers, factors
    ):
        """u^a v^b prod P^r over 0-2 of the package's polynomial factors,
        at node pairs down to 2^-7936 or at plain bases of relative radius
        up to 2^-4, holds the image of the input intervals taken by
        mpmath's interval arithmetic at 100 more bits."""
        wb = nbits + 16
        if node:
            nodes = mpreal._ts_nodes(nbits, level)
            u, v, _ = nodes[-1 - k % len(nodes)]
        else:
            u, v = (
                BigReal(
                    BigReal.from_fraction(c, wb).val,
                    from_rational((c * rel).numerator, (c * rel).denominator, 32, "u"),
                    wb,
                )
                for c, rel in zip((F(center, 2**20), 1 - F(center, 2**20)), rels)
            )
        if swap:
            u, v = v, u
        f = PowerIntegrand(*powers, tuple((var, coeffs, r) for (var, coeffs), r in factors))
        saved, iv.prec = iv.prec, wb + 100
        try:
            U, V = _iv_of(u), _iv_of(v)
            want = U ** (iv.mpf(powers[0].numerator) / powers[0].denominator)
            want *= V ** (iv.mpf(powers[1].numerator) / powers[1].denominator)
            for (var, coeffs), r in factors:
                X = V if var == "v" else U
                P = sum(iv.mpf(c.numerator) / c.denominator * X**j for j, c in enumerate(map(F, coeffs)))
                # Euler's factor at z = -10^8 is negative for v above 1
                assume(P.a > 0)
                want *= P ** (iv.mpf(r.numerator) / r.denominator)
            assert want in _iv_of(f(u, v)), (node, nbits, level, k, swap, center, rels, powers, factors)
        finally:
            iv.prec = saved

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        coeffs=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=4),
        den=st.integers(1, 1000),
        man=st.integers(-(2**60), 2**60),
        exp=st.integers(-200, 0),
        rad=st.integers(0, 2**20),
        p=st.integers(8, 64),
    )
    def test_horner_encloses_the_polynomial(self, coeffs, den, man, exp, rad, p):
        """Horner cut to p bits holds sum C_k y^k / den, exactly in
        Fractions, at the center and both ends of x's interval."""
        x = BigReal(from_man_exp(man, exp), from_man_exp(rad, exp - 24), 64)
        dsum = sum(k * abs(c) for k, c in enumerate(reversed(coeffs)))
        Y, e, E = mpreal._horner(tuple(coeffs), den, dsum, x.val, x.err, p)
        got, radius = F(Y) * F(2) ** e, F(E) * F(2) ** e
        center, r = F(man) * F(2) ** exp, F(rad) * F(2) ** (exp - 24)
        for y in (center - r, center, center + r):
            want = sum(c * y**k for k, c in enumerate(reversed(coeffs))) / den
            assert abs(got - want) <= radius, (coeffs, den, man, exp, rad, p)

    def test_sums_its_logs_as_power_product_does(self):
        """u^a v^b at a cached node pair is `power_product` of the pair, in
        value and radius: one integer sum of the logs and their bounds."""
        nodes = mpreal._ts_nodes(Precision.of(30).work_bits, 1)
        powers = ((F(-1, 2), F(1, 3)), (F(0), F(7, 4)), (F(3, 2), F(-5, 6)))
        powers += ((F(-2001, 12), F(2)), (F(-19, 24), F(-3, 4)))
        for a, b in powers:
            f = PowerIntegrand(a, b)
            for x, cx, _ in (nodes[0], nodes[len(nodes) // 2], nodes[-1]):
                got, want = f(x, cx), power_product((x, a), (cx, b))
                assert (got.val, got.err) == (want.val, want.err), (a, b, x)

    def test_a_shared_factor_is_logged_once_per_node(self):
        """Two integrands with the factor 3/4 + v/4 (the proof's i_t at two
        b) miss `_poly_log`'s cache once per node, and each value is the
        one a cold cache gives."""
        nodes = mpreal._ts_nodes(331, 1)[:8]
        poly = ("v", (F(3, 4), F(1, 4)), F(-5, 4))
        f = PowerIntegrand(F(-3, 8), F(1, 4), (poly,))
        g = PowerIntegrand(F(-1, 4), F(1, 8), (poly[:2] + (F(-3, 2),),))
        mpreal._poly_log.cache_clear()
        got = [h(x, cx) for h in (f, g) for x, cx, _ in nodes]
        assert mpreal._poly_log.cache_info().misses == len(nodes)
        want = []
        for h in (f, g):
            for x, cx, _ in nodes:
                mpreal._poly_log.cache_clear()
                mpreal._ln.cache_clear()
                want.append(h(x, cx))
        assert [(v.val, v.err) for v in got] == [(v.val, v.err) for v in want]

    def test_a_factor_not_certainly_positive_is_rejected(self):
        # a root inside, a zero at an end, a double root, a negative constant
        for coeffs in ((1, -2), (0, 1), (F(1, 2), -2, 2), (-1,)):
            with pytest.raises(DomainError):
                PowerIntegrand(F(0), F(0), (("u", coeffs, F(1, 3)),))
        # positive on [0, 1], not on the interval it is called at
        f = PowerIntegrand(F(0), F(0), (("v", (1 + 10**8, -(10**8)), F(1, 3)),))
        with pytest.raises(DomainError):
            f(BigReal.from_fraction(F(1, 2), 64), BigReal.from_fraction(F(3, 2), 64))


# b on (1/2, 5/6), where the proof steps' integrals converge: the catalog's
# three and one close to each end
PROOF_B = (F(5, 8), F(3, 4), F(7, 10), F(51, 100), F(41, 50))


class TestIntegrandShapes:
    """Each integrand shape of the package through `tanh_sinh_integrate`,
    against its closed form at 50 more digits."""

    prec = Precision.of(30)

    @staticmethod
    def _mp(q):
        return mp.mpf(q.numerator) / q.denominator

    @pytest.mark.parametrize("b", PROOF_B, ids=str)
    def test_proof_steps(self, b):
        # i_t = 4^(5/2-3b) i_u, i_u = i_cyc = (B(5/6-b, 2b-1) - B(7/6-b, 2b-1))/3
        with mp.workdps(self.prec.target_digits + 50):
            third = (
                mp.beta(self._mp(F(5, 6) - b), self._mp(2 * b - 1))
                - mp.beta(self._mp(F(7, 6) - b), self._mp(2 * b - 1))
            ) / 3
            wants = (mp.mpf(4) ** self._mp(F(5, 2) - 3 * b) * third, third, third)
            for f, want in zip(proof_integrands(b), wants):
                assert_encloses(tanh_sinh_integrate(f, self.prec), want, str(b))

    @pytest.mark.parametrize("b", PROOF_B, ids=str)
    def test_beta(self, b):
        # B(5/2-3b, b), the first proof step's integral at z = 0 and the
        # shape of quadcheck's; the cube substitution's Betas have an
        # exponent below -0.97 at the ends, where tanh-sinh does not converge
        x, y = F(5, 2) - 3 * b, b

        def f(u, v):
            return power_product((u, x - 1), (v, y - 1))

        with mp.workdps(self.prec.target_digits + 50):
            want = mp.beta(self._mp(x), self._mp(y))
            assert_encloses(tanh_sinh_integrate(f, self.prec), want, str(b))

    @pytest.mark.parametrize("b", PROOF_B, ids=str)
    def test_euler(self, b):
        # the first proof step's integral, 2F1(2-2b, 5/2-3b; 5/2-2b; z), at
        # its z = 1/4 and where f21_integral takes it: near 1 and below -9
        p = HypParams(2 - 2 * b, F(5, 2) - 3 * b, F(5, 2) - 2 * b)
        for z in (F(1, 4), F(19, 20), F(-30)):
            f = euler_integrand(p, z)
            with mp.workdps(self.prec.target_digits + 50):
                a_, b_, c_ = (self._mp(q) for q in (p.a, p.b, p.c))
                want = mp.beta(b_, c_ - b_) * mp.hyp2f1(a_, b_, c_, self._mp(z))
                assert_encloses(
                    tanh_sinh_integrate(f, self.prec), want, f"{b} {z}"
                )
