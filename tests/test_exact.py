"""Exact arithmetic: frozen values, canonical forms, and property sweeps."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from hypergamma.exact import (
    DegenerateCompositionError,
    PoleError,
    Poly,
    RatFunc,
    poly_from_pairs,
    poly_gcd,
    rational,
    rational_str,
)

QUARTIC = poly_from_pairs((4, 1), (3, -136), (2, 152), (1, -32), (0, 16))
QUAD_BASE = poly_from_pairs((2, 1), (1, 4), (0, -4))  # z^2 + 4z - 4

# Transform argument maps used by the degree-12 composition chain.
ARG_Q1 = RatFunc(poly_from_pairs((2, 1)), poly_from_pairs((2, 1), (1, -4), (0, 4)))
ARG_Q2 = RatFunc(
    poly_from_pairs((2, 4), (1, -4)), poly_from_pairs((2, 4), (1, -4), (0, 1))
)
ARG_CUBIC = RatFunc(
    poly_from_pairs((3, -27), (2, 54), (1, -27)),
    poly_from_pairs((2, 81), (1, -18), (0, 1)),
)


def twelfth_degree_printed() -> RatFunc:
    num = (
        poly_from_pairs((1, 1), (0, -2)) ** 8
        * poly_from_pairs((1, 1), (0, -1))
        * poly_from_pairs((2, 1))
    ).scale(-432)
    den = QUAD_BASE**2 * QUARTIC**2
    return RatFunc(num, den)


def rand_fraction(rng: random.Random, max_num: int = 60, max_den: int = 30) -> F:
    return F(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_poly(rng: random.Random, max_deg: int = 3) -> Poly:
    return Poly([rand_fraction(rng, 9, 5) for _ in range(rng.randint(0, max_deg + 1))])


class TestRational:
    def test_mul(self):
        assert F(1, 4) * F(1, 4) == F(1, 16)

    def test_add_telescopes_to_unity(self):
        assert F(2400, 2401) + F(1, 2401) == 1

    def test_squared_main_argument(self):
        sq = F(172872, 185039) * F(172872, 185039)
        assert sq == F(29884728384, 34239431521)
        assert sq == F(172872, 185039) ** 2

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 2) / F(0)

    def test_parse_and_str_round_trip(self):
        assert rational("-7/48") == F(-7, 48)
        assert rational_str(F(-7, 48)) == "-7/48"
        assert rational_str(F(6, 3)) == "2"

    def test_field_axioms_sampled(self):
        rng = random.Random(1803)
        for _ in range(1000):
            a, b, c = (rand_fraction(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a


class TestPoly:
    def test_eval_quartic_at_quarter(self):
        assert QUARTIC(F(1, 4)) == F(3937, 256)

    def test_eval_quadratic_at_quarter(self):
        assert QUAD_BASE(F(1, 4)) == F(-47, 16)

    def test_eval_constant(self):
        one = Poly.one()
        for x in (F(0), F(1, 3), F(-7, 2)):
            assert one(x) == 1

    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((0, 0)).is_zero
        assert Poly((0,)).degree == -1

    def test_arith_and_pow(self):
        z = Poly.x()
        p = (z - Poly.constant(2)) ** 2
        assert p == poly_from_pairs((2, 1), (1, -4), (0, 4))
        assert (p * Poly.zero()).is_zero

    def test_divmod_and_gcd(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = rand_poly(rng, 4), rand_poly(rng, 3)
            if b.is_zero:
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree
        g = poly_gcd(QUAD_BASE * QUARTIC, QUAD_BASE)
        assert g == QUAD_BASE.monic()

    def test_json_round_trip(self):
        data = QUARTIC.to_json()
        assert data == ["16", "-32", "152", "-136", "1"]
        assert Poly(data) == QUARTIC


class TestRatFunc:
    def test_identity_composition(self):
        assert ARG_Q1.compose(RatFunc.x()) == ARG_Q1

    def test_q2_after_q1_argument(self):
        # 4w(w-1)/(2w-1)^2 at w = z^2/(2-z)^2 equals 16 z^2 (z-1) / (4-4z-z^2)^2
        got = ARG_Q2.compose(ARG_Q1)
        num = (poly_from_pairs((2, 1)) * poly_from_pairs((1, 1), (0, -1))).scale(16)
        den = QUAD_BASE**2
        assert got == RatFunc(num, den)

    def test_full_chain_matches_printed_map_structurally(self):
        chain = ARG_CUBIC.compose(ARG_Q2.compose(ARG_Q1))
        assert chain == twelfth_degree_printed()
        assert chain.num.degree == 11
        assert chain.den.degree == 12

    def test_full_chain_value_at_quarter(self):
        chain = ARG_CUBIC.compose(ARG_Q2.compose(ARG_Q1))
        assert chain(F(1, 4)) == F(29884728384, 34239431521)

    def test_printed_map_value_at_quarter(self):
        assert twelfth_degree_printed()(F(1, 4)) == F(172872, 185039) ** 2

    def test_q1_argument_at_quarter(self):
        assert ARG_Q1(F(1, 4)) == F(1, 49)

    def test_identity_at_zero(self):
        assert RatFunc.x()(F(0)) == 0

    def test_pole_detection(self):
        f = RatFunc(Poly.one(), poly_from_pairs((1, 1), (0, -1)))
        with pytest.raises(PoleError):
            f(F(1))

    def test_degenerate_composition(self):
        # outer = 1/w composed with the zero function
        outer = RatFunc(Poly.one(), Poly.x())
        with pytest.raises(DegenerateCompositionError):
            outer.compose(RatFunc.constant(0))

    def test_canonical_renormalization_is_noop(self):
        rng = random.Random(99)
        for _ in range(100):
            num, den = rand_poly(rng), rand_poly(rng)
            if den.is_zero:
                continue
            f = RatFunc(num, den)
            again = RatFunc(f.num, f.den)
            assert again.num == f.num and again.den == f.den
            # scaling both parts by any nonzero rational reduces back
            s = rand_fraction(rng, 7, 5)
            if s == 0:
                continue
            assert RatFunc(f.num.scale(s), f.den.scale(s)) == f

    def test_compose_homomorphism_sampled(self):
        rng = random.Random(20260808)
        checked = 0
        while checked < 500:
            try:
                f = RatFunc(rand_poly(rng, 2), rand_poly(rng, 2))
                g = RatFunc(rand_poly(rng, 2), rand_poly(rng, 2))
                x = rand_fraction(rng, 12, 8)
                gx = g(x)
                want = f(gx)
                comp = f.compose(g)
                got = comp(x)
            except (PoleError, DegenerateCompositionError):
                continue
            assert got == want
            checked += 1

    def test_composition_degree_bound(self):
        rng = random.Random(5)
        for _ in range(60):
            try:
                f = RatFunc(rand_poly(rng, 3), rand_poly(rng, 3))
                g = RatFunc(rand_poly(rng, 3), rand_poly(rng, 3))
                comp = f.compose(g)
            except (PoleError, DegenerateCompositionError):
                continue
            d_out = max(f.num.degree, f.den.degree, 0)
            d_in = max(g.num.degree, g.den.degree, 0)
            assert max(comp.num.degree, comp.den.degree) <= d_out * d_in + d_in

    def test_json_round_trip(self):
        f = twelfth_degree_printed()
        data = f.to_json()
        assert data == {
            "num": [
                "0", "0", "110592", "-552960", "1216512", "-1548288", "1257984",
                "-677376", "241920", "-55296", "7344", "-432",
            ],
            "den": [
                "4096", "-24576", "129024", "-419840", "999168", "-1747968", "1773824",
                "-696576", "-140304", "106784", "16632", "-264", "1",
            ],
        }
        assert RatFunc(Poly(data["num"]), Poly(data["den"])) == f
