"""Gamma-product expressions: evaluation, rewriting, equality verdicts."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from helpers import as_mpf, assert_encloses

from hypergamma.catalog import CatalogError, _compile_gamma_expr
from hypergamma.gammaexpr import (
    GammaExpr,
    GammaExprError,
    Verdict,
    achieved_digits,
    ge_eval,
    num_equal,
)
from hypergamma import mpreal
from hypergamma.mpreal import BigReal, Precision

P40 = Precision.of(40)
P60 = Precision.of(60)

# 185039^(7/24) Gamma(1/8)^3 Gamma(5/8) / (672 (1+sqrt 2) 3^(1/8) pi^2)
MAIN_RHS = GammaExpr(
    rational_factors=((F(185039), F(7, 24)), (F(672), F(-1)), (F(3), F(-1, 8))),
    pi_exponent=F(-2),
    gamma_factors=((F(1, 8), 3), (F(5, 8), 1)),
    surd_factors=((F(1), F(1), F(2), -1),),
)


def setup_module():
    mp.dps = 90


def rand_expr(rng: random.Random) -> GammaExpr:
    rats = tuple(
        (F(rng.randint(1, 9)), F(rng.randint(-3, 3), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2))
    )
    gammas = tuple(
        (F(rng.randint(1, 15), rng.randint(1, 8)), rng.randint(-2, 2))
        for _ in range(rng.randint(0, 2))
    )
    return GammaExpr(
        rational_factors=rats,
        pi_exponent=F(rng.randint(-2, 2), rng.randint(1, 2)),
        gamma_factors=gammas,
    )


class TestEval:
    def test_gamma_half_squared_over_pi(self):
        e = GammaExpr(gamma_factors=((F(1, 2), 2),), pi_exponent=F(-1))
        assert_encloses(ge_eval(e, P40), mp.mpf(1), "G(1/2)^2/pi")

    def test_gosper_rhs_at_half_is_pi_third(self):
        # 2 sqrt(pi)/3 * Gamma(3/2) / Gamma(1)^2
        e = GammaExpr(
            rational_factors=((F(2), F(1)), (F(3), F(-1))),
            pi_exponent=F(1, 2),
            gamma_factors=((F(3, 2), 1), (F(1), -2)),
        )
        assert_encloses(ge_eval(e, P40), mp.pi / 3, "pi/3 expression")

    def test_main_rhs_matches_series_value(self):
        z = (mp.mpf(172872) / 185039) ** 2
        want = mp.hyp2f1(mp.mpf(7) / 48, mp.mpf(31) / 48, mp.mpf(9) / 8, z)
        assert_encloses(ge_eval(MAIN_RHS, P60), want, "main RHS")

    def test_surd_value(self):
        e = GammaExpr(surd_factors=((F(1), F(1), F(2), -1),))
        assert_encloses(ge_eval(e, P40), 1 / (1 + mp.sqrt(2)), "1/(1+sqrt2)")

    def test_pi_log_is_taken_once_per_precision(self, monkeypatch):
        """A second evaluation at the same precision takes no log of pi, and
        gives the same bits."""
        prec = Precision.of(73)
        first = ge_eval(MAIN_RHS, prec)
        pi = mpreal.mpf_pi(prec.work_bits + 8, "n")
        logs = []
        real_log = mpreal.mpf_log

        def logged(x, *args):
            logs.append(x)
            return real_log(x, *args)

        monkeypatch.setattr(mpreal, "mpf_log", logged)
        second = ge_eval(MAIN_RHS, prec)
        assert pi not in logs
        assert (second.val, second.err) == (first.val, first.err)

    def test_invalid_expressions(self):
        with pytest.raises(GammaExprError):
            GammaExpr(gamma_factors=((F(0), 1),))
        with pytest.raises(GammaExprError):
            GammaExpr(rational_factors=((F(-2), F(1)),))
        with pytest.raises(GammaExprError):
            GammaExpr(surd_factors=((F(1), F(-2), F(2), 1),))  # 1 - 2 sqrt(2) < 0


class TestMul:
    def test_identity_element(self):
        e = MAIN_RHS
        assert e * GammaExpr.one() == e

    def test_gamma_exponent_merge(self):
        x = GammaExpr(gamma_factors=((F(1, 8), 1),))
        y = GammaExpr(gamma_factors=((F(1, 8), 2),))
        assert x * y == GammaExpr(gamma_factors=((F(1, 8), 3),))

    def test_inverse_cancels(self):
        assert MAIN_RHS * MAIN_RHS.inverse() == GammaExpr.one()

    def test_eval_homomorphism_sampled(self):
        rng = random.Random(31)
        for _ in range(25):
            x, y = rand_expr(rng), rand_expr(rng)
            lhs = ge_eval(x * y, P40)
            rhs = ge_eval(x, P40) * ge_eval(y, P40)
            d = lhs - rhs
            assert not d.definitely_positive() and not d.definitely_negative()


class TestReflect:
    def test_reflection_pairs_numeric(self):
        # Gamma(x) Gamma(1-x) = pi / sin(pi x), with sin(pi x) = k sqrt(d)
        for x, k, d in (
            (F(1, 2), F(1), 1),
            (F(1, 3), F(1, 2), 3),
            (F(1, 4), F(1, 2), 2),
            (F(5, 6), F(1, 2), 1),
        ):
            lhs = GammaExpr(gamma_factors=((x, 1), (1 - x, 1)))
            rhs = GammaExpr(
                rational_factors=((k, -1), (F(d), F(-1, 2))), pi_exponent=1
            )
            assert num_equal(ge_eval(lhs, P40), ge_eval(rhs, P40), P40) is Verdict.EQUAL

    def test_gauss_multiplication_numeric_sweep(self):
        rng = random.Random(12)
        for _ in range(20):
            x = F(rng.randint(1, 40), rng.randint(2, 12))
            lhs = (
                GammaExpr(gamma_factors=((x, 1),))
                * GammaExpr(gamma_factors=((x + F(1, 2), 1),))
                * GammaExpr(rational_factors=((F(2), 2 * x - 1),), pi_exponent=F(-1, 2))
            )
            rhs = GammaExpr(gamma_factors=((2 * x, 1),))
            assert num_equal(ge_eval(lhs, P40), ge_eval(rhs, P40), P40) is Verdict.EQUAL


class TestNumEqual:
    def test_equal_case(self):
        x = GammaExpr(gamma_factors=((F(1, 2), 2),))
        y = GammaExpr(pi_exponent=F(1))
        assert num_equal(ge_eval(x, P60), ge_eval(y, P60), P60) is Verdict.EQUAL

    def test_distinct_case(self):
        x = GammaExpr(rational_factors=((F(2, 3), F(1)), (F(7), F(1, 2))))
        y = GammaExpr(rational_factors=((F(3, 4), F(1)), (F(3), F(1, 2))))
        assert num_equal(ge_eval(x, P60), ge_eval(y, P60), P60) is Verdict.DISTINCT

    def test_inconclusive_when_bounds_too_loose(self):
        bits = P60.work_bits
        x = BigReal.from_int(1, bits)
        fuzzy = BigReal(x.val, BigReal.from_fraction(F(1, 10**20), bits).val, bits)
        assert num_equal(fuzzy, x, P60) is Verdict.INCONCLUSIVE

    def test_achieved_digits(self):
        x = ge_eval(MAIN_RHS, P60)
        y = ge_eval(MAIN_RHS, P60)
        d = achieved_digits(x, y)
        assert d is not None and d >= 60

    def test_tiny_perturbation_detected(self):
        x = ge_eval(MAIN_RHS, P60)
        y = ge_eval(MAIN_RHS * GammaExpr.from_rational(F(10**20 + 1, 10**20)), P60)
        assert num_equal(x, y, P60) is Verdict.DISTINCT

    # exact balls at 400 bits, whose gaps and radii sit on the 32-bit
    # rounding of the verdicts' interval arithmetic
    @staticmethod
    def ball(val: F, err: F) -> BigReal:
        return BigReal(BigReal.from_fraction(val, 400).val, BigReal.from_fraction(err, 400).val, 400)

    def test_either_radius_closes_the_gap(self):
        # [1, 1] and [1, 1 + 2^-199] touch: not distinct, in either order
        x, y = self.ball(F(1), F(0)), self.ball(1 + F(1, 2**200), F(1, 2**200))
        assert num_equal(x, y, P60) is Verdict.EQUAL
        assert num_equal(y, x, P60) is Verdict.EQUAL

    def test_the_gap_is_rounded_up(self):
        # the gap 2^-100 + 2^-200 rounds at 32 bits to 2^-100 (1 + 2^-31),
        # above the radius 2^-100; rounded down it would meet it
        x, y = self.ball(F(1), F(0)), self.ball(1 + F(1, 2**100) + F(1, 2**200), F(1, 2**100))
        assert num_equal(x, y, P60) is Verdict.DISTINCT

    def test_the_radius_is_rounded_up(self):
        # the radius 2^-100 + 2^-200 equals the gap: rounded down it would
        # fall below the gap's upward rounding
        x, y = self.ball(F(1), F(1, 2**100)), self.ball(1 + F(1, 2**100) + F(1, 2**200), F(1, 2**200))
        assert num_equal(x, y, P60) is Verdict.INCONCLUSIVE

    def test_achieved_digits_counts_the_gap_and_the_radii(self):
        # 2^-100 < 10^-30: 29 digits, whether it is the gap or a radius
        one = self.ball(F(1), F(0))
        for y in (self.ball(1 + F(1, 2**100), F(0)), self.ball(F(1), F(1, 2**100))):
            assert achieved_digits(one, y) == achieved_digits(y, one) == 29


class TestJson:
    def test_round_trip(self):
        # the catalog's gamma_expr compiler is the one reader of this shape
        data = MAIN_RHS.to_json()
        (factors,) = _compile_gamma_expr(data, set(), ({},), "main")
        assert GammaExpr(*factors) == MAIN_RHS

    def test_spec_shape(self):
        data = MAIN_RHS.to_json()
        assert data["pi"] == "-2"
        assert ["1/8", 3] in data["gamma"]
        assert ["1", "1", "2", -1] in data["surd"]

    def test_unknown_fields_rejected(self):
        with pytest.raises(CatalogError, match=r"unknown gamma_expr fields \['bogus'\]"):
            _compile_gamma_expr({"rat": [], "bogus": 1}, set(), ({},), "x")


verdict_lists = st.lists(st.sampled_from(list(Verdict)))


class TestWorst:
    @given(verdict_lists, st.randoms(use_true_random=False))
    def test_order_does_not_matter(self, verdicts, rnd):
        shuffled = list(verdicts)
        rnd.shuffle(shuffled)
        assert Verdict.worst(shuffled) is Verdict.worst(verdicts)
        assert Verdict.worst(iter(verdicts)) is Verdict.worst(verdicts)

    @given(verdict_lists)
    def test_distinct_dominates(self, verdicts):
        assert Verdict.worst(verdicts + [Verdict.DISTINCT]) is Verdict.DISTINCT

    @given(verdict_lists)
    def test_severity_order(self, verdicts):
        worst = Verdict.worst(verdicts)
        if Verdict.DISTINCT in verdicts:
            assert worst is Verdict.DISTINCT
        elif Verdict.INCONCLUSIVE in verdicts:
            assert worst is Verdict.INCONCLUSIVE
        else:
            assert worst is Verdict.EQUAL

    def test_empty_is_equal(self):
        assert Verdict.worst([]) is Verdict.EQUAL
        assert Verdict.worst(iter(())) is Verdict.EQUAL
