"""Transform rules, Gosper-formula proof steps, the degree-12 chain, the
splitting transform, and the concluding identity."""

from __future__ import annotations

import dataclasses
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from helpers import assert_encloses, overlap, points, rhs_enclosure

from hypergamma import transforms
from hypergamma.catalog import DEFAULT_CATALOG, IdentityRecord, catalog_load, verify_identity
from hypergamma.exact import Poly, RatFunc, poly_from_pairs
from hypergamma.gammaexpr import Verdict, ge_eval, num_equal
from hypergamma.hyper import HypParams, euler_integrand, f21_eval, f21_terminating
from hypergamma.integrals import Unproven, integrals_agree, substituted
from hypergamma.mpreal import BigReal, PowerIntegrand, Precision, _bernstein_positive, beta, tanh_sinh_integrate
from hypergamma.transforms import (
    CUBE_MAP,
    CUBIC,
    EULER,
    MAIN_ARGUMENT,
    MAIN_PARAMS,
    MAIN_RHS,
    PROOF_STEPS,
    QUADRATIC_C_2B,
    QUADRATIC_MEAN,
    RULES,
    SUBSTITUTION_MAP,
    DerivationError,
    HypTerm,
    TransformError,
    apply_rule,
    derive_main,
    gosper_lhs_params,
    gosper_rhs,
    proof_integrands,
    prove_rule,
    prove_substitution_steps,
    twelfth_degree_map,
    verify_gosper_proof,
    verify_zj_split,
    _row,
)

P30 = Precision.of(30)
P40 = Precision.of(40)

SEED_TERM = HypTerm((), HypParams(F(1, 2), F(5, 8), F(5, 4)), RatFunc.x())


def setup_module():
    mp.dps = 80


class TestApplyRule:
    def test_first_quadratic_on_seed(self):
        t = apply_rule(QUADRATIC_C_2B, SEED_TERM)
        assert t.params == HypParams(F(3, 8), F(7, 8), F(9, 8))
        assert t.argument == RatFunc(
            poly_from_pairs((2, 1)), poly_from_pairs((2, 1), (1, -4), (0, 4))
        )
        bases = {base: e for base, e in t.prefactor}
        assert bases[poly_from_pairs((0, 1), (1, -1))] == F(1, 8)
        assert bases[poly_from_pairs((0, 1), (1, F(-1, 2)))] == F(-3, 4)

    def test_second_quadratic_prefactor_and_argument(self):
        t1 = apply_rule(QUADRATIC_C_2B, SEED_TERM)
        t1 = HypTerm(t1.prefactor, t1.params.swapped(), t1.argument)
        t = apply_rule(QUADRATIC_MEAN, t1)
        assert t.params == HypParams(F(7, 16), F(15, 16), F(9, 8))
        want_arg = RatFunc(
            (poly_from_pairs((2, 1)) * poly_from_pairs((1, 1), (0, -1))).scale(16),
            poly_from_pairs((2, 1), (1, 4), (0, -4)) ** 2,
        )
        assert t.argument == want_arg
        bases = {base: e for base, e in t.prefactor}
        # gains (4-4z-z^2)^(-7/8) and ((2-z)^2)^(7/8)
        assert bases[poly_from_pairs((0, 4), (1, -4), (2, -1))] == F(-7, 8)
        assert bases[poly_from_pairs((2, 1), (1, -4), (0, 4))] == F(7, 8)

    def test_euler_transform_parameter_map(self):
        b = F(5, 8)
        term = HypTerm((), gosper_lhs_params(b), RatFunc.x())
        t = apply_rule(EULER, term)
        assert t.params == HypParams(2 - 2 * b, F(5, 2) - 3 * b, F(5, 2) - 2 * b)
        assert t.prefactor[0][1] == 2 - 3 * b

    def test_constraint_violation(self):
        with pytest.raises(TransformError):
            apply_rule(QUADRATIC_C_2B, HypTerm((), HypParams(F(1, 2), F(5, 8), F(9, 8)), RatFunc.x()))

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_sampled_params_satisfy_the_rule(self, name):
        rule, rng = RULES[name], random.Random(name)
        for _ in range(50):
            assert rule.applies_to(SAMPLERS[name](rng))

    def test_rule_soundness_sampled(self):
        # the numeric check, independent of the proof: both sides at sampled
        # parameters and w in the proved region
        rng = random.Random(1209)
        for rule in RULES.values():
            lo, hi = rule.region
            for _ in range(20):
                w = lo + (hi - lo) * F(rng.randint(1, 79), 80)
                if w == 0:
                    continue
                p = SAMPLERS[rule.name](rng)
                out = apply_rule(rule, HypTerm((), p, RatFunc.x()))
                rhs = ge_eval(out.prefactor_value(w), P30) * f21_eval(out.params, out.argument(w), P30)
                assert overlap(f21_eval(p, w, P30), rhs), f"{rule.name} at {p} w={w}"


# parameters at which each rule applies, for the numeric check
def _sample_euler(rng):
    a, b = (F(rng.randint(-8, 8), 4) for _ in range(2))
    return HypParams(a, b, F(rng.randint(1, 12), 4))


def _sample_c_2b(rng):
    b = F(rng.randint(1, 12), 8)
    return HypParams(F(rng.randint(-8, 8), 8), b, 2 * b)


def _sample_mean(rng):
    a, b = F(rng.randint(1, 10), 8), F(rng.randint(1, 10), 8)
    return HypParams(a, b, (a + b + 1) / 2)


def _sample_cubic(rng):
    a = F(rng.randint(1, 12), 16)
    return HypParams(a, a + F(1, 2), (4 * a + 5) / 6)


SAMPLERS = {
    "euler": _sample_euler,
    "quadratic-c-2b": _sample_c_2b,
    "quadratic-mean": _sample_mean,
    "cubic": _sample_cubic,
}


def _shifted(row, by=F(1, 48)):
    return (*row[:3], row[3] + by)


def _wrong_rules(rule):
    """Each way a rule's data can be wrong that its proof must reject."""
    (base, e_row), *rest = rule.prefactor_map
    wrong = {
        f"parameter row {i}": dataclasses.replace(
            rule, param_map=tuple(_shifted(r) if j == i else r for j, r in enumerate(rule.param_map))
        )
        for i in range(3)
    }
    wrong["exponent row"] = dataclasses.replace(rule, prefactor_map=((base, _shifted(e_row)), *rest))
    num, den = rule.arg_map.num, rule.arg_map.den
    wrong["argument map"] = dataclasses.replace(rule, arg_map=RatFunc(num.scale(F(49, 48)), den))
    return wrong


# the first point past each rule's region where phi reaches 1, a base 0 or
# phi a pole, as (region, what the proof names)
BROKEN_REGIONS = {
    "euler": ((F(-3, 4), F(1)), "Poly(1 + -1*z)"),
    "quadratic-c-2b": ((F(-1, 2), F(1)), "Poly(1 + -1*z)"),
    "quadratic-mean": ((F(-1, 10), F(1, 2)), "Poly(1 + -2*z)"),
    "cubic": ((F(-1, 3), F(1, 60)), "1 - phi"),
}


class TestRuleProof:
    """`prove_rule` proves every rule exactly, on its grid and its region,
    and rejects each way a rule can be wrong."""

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_every_rule_is_proved(self, name):
        assert prove_rule(RULES[name]) is None
        assert len(transforms._parameter_grid(RULES[name])) == {
            "euler": 27, "quadratic-c-2b": 9, "quadratic-mean": 9, "cubic": 3
        }[name]

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_the_grid_meets_the_constraints(self, name):
        grid = transforms._parameter_grid(RULES[name])
        assert len(set(grid)) == len(grid)
        assert all(RULES[name].applies_to(p) for p in grid)

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_a_wrong_row_or_map_is_rejected(self, name):
        for what, wrong in _wrong_rules(RULES[name]).items():
            failure = prove_rule(wrong)
            # the failure names the coefficient, the grid point and w
            assert failure and re.fullmatch(
                rf"rule {name}: [AB] = -?\d+(/\d+)? at \(a, b, c\) = \([-\d/, ]+\), w = \d+", failure
            ), (what, failure)

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_a_base_not_one_at_zero_is_rejected(self, name):
        # a constant factor leaves B'/B, so A and B, as they are
        rule = RULES[name]
        (base, e_row), *rest = rule.prefactor_map
        wrong = dataclasses.replace(rule, prefactor_map=((base.scale(F(49, 48)), e_row), *rest))
        assert prove_rule(wrong) == f"rule {name}: phi(0) = 0, every B_i(0) = 1 and lo < 0 < hi do not all hold"

    def test_phi_not_zero_at_zero_is_rejected(self):
        # phi = w + 1/48: the values at 0, not the residual, reject it
        wrong = dataclasses.replace(EULER, arg_map=RatFunc(Poly((F(1, 48), 1))))
        assert prove_rule(wrong) == "rule euler: phi(0) = 0, every B_i(0) = 1 and lo < 0 < hi do not all hold"

    def test_a_region_past_one_is_rejected(self):
        # the identity, F = F, has no base; its left side ends at w = 1
        identity = dataclasses.replace(EULER, param_map=(_row(1), _row(0, 1), _row(0, 0, 1)), prefactor_map=())
        assert prove_rule(identity) is None
        wrong = dataclasses.replace(identity, region=(F(-1, 2), F(1)))
        assert prove_rule(wrong) == "rule euler: 1 - w is not certainly positive on [-1/2, 1]"

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_a_region_reaching_a_singularity_is_rejected(self, name):
        region, what = BROKEN_REGIONS[name]
        failure = prove_rule(dataclasses.replace(RULES[name], region=region))
        lo, hi = region
        assert failure == f"rule {name}: {what} is not certainly positive on [{lo}, {hi}]"

    def test_a_region_without_zero_is_rejected(self):
        wrong = dataclasses.replace(EULER, region=(F(1, 10), F(1, 2)))
        assert prove_rule(wrong) == "rule euler: phi(0) = 0, every B_i(0) = 1 and lo < 0 < hi do not all hold"

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_the_degree_bound_covers_the_numerators(self, name):
        # A D and B D by Poly arithmetic, at the grid point where the proof
        # rejects a wrong rule, have degree at most the proof's N, and over D
        # they give the value it reports
        rule = _wrong_rules(RULES[name])["exponent row"]
        coefficient, value, *abc, at = re.fullmatch(
            r"rule \S+: ([AB]) = (\S+) at \(a, b, c\) = \((\S+), (\S+), (\S+)\), w = (\d+)",
            prove_rule(rule),
        ).groups()
        p = HypParams(*map(F, abc))
        q, w = rule.new_params(p), Poly.x()
        bases = [b for b, _ in rule.prefactor_map]
        Q = Poly.one()
        for b in bases:
            Q = Q * b
        L = Poly.zero()
        for b, row in rule.prefactor_map:
            e = transforms._affine(row, p)
            L = L + (b.derivative() * Q.divmod(b)[0]).scale(e)
        n, d = rule.arg_map.num, rule.arg_map.den
        W = n.derivative() * d - n * d.derivative()
        ww, lin = w - w * w, Poly((p.c, -(p.a + p.b + 1)))
        num_d = d * d * d * n * (d - n)
        num_a = (
            ww * (L.derivative() * Q - L * Q.derivative() + L * L) * num_d
            + (ww * W * W * Q * Q * d).scale(q.a * q.b)
            + lin * L * Q * num_d
            - (Q * Q * num_d).scale(p.a * p.b)
        )
        num_b = (
            ww * (L * W * Q * d * n * (d - n)).scale(2)
            + ww * (W.derivative() * d - (W * d.derivative()).scale(2)) * Q * Q * n * (d - n)
            - ww * W * W * (d.scale(q.c) - n.scale(q.a + q.b + 1)) * Q * Q
            + lin * W * Q * Q * d * n * (d - n)
        )
        N = transforms._degree_bound(rule)
        assert num_a.degree <= N and num_b.degree <= N, (num_a.degree, num_b.degree, N)
        at, D = int(at), Q * Q * num_d
        assert F(value) == {"A": num_a, "B": num_b}[coefficient](at) / D(at) != 0

    def test_each_region_holds_the_chain_on_a_quarter(self):
        # the chain applies each rule at an argument of z; on [0, 1/4] that
        # argument stays inside the rule's region, exactly: lo d < n < hi d
        # with d > 0, by Bernstein coefficients on [0, 1/4]
        quarter = RatFunc(Poly((0, F(1, 4))))
        term = SEED_TERM
        for rule in (QUADRATIC_C_2B, QUADRATIC_MEAN, CUBIC):
            if rule is QUADRATIC_MEAN:
                term = HypTerm(term.prefactor, term.params.swapped(), term.argument)
            arg = term.argument.compose(quarter)  # z = u/4, u in [0, 1]
            lo, hi = rule.region
            for f in (arg.den, arg.num - arg.den.scale(lo), arg.den.scale(hi) - arg.num):
                assert _bernstein_positive(f.coeffs), (rule.name, f)
            term = apply_rule(rule, term)

    def test_a_wrong_cubic_exponent_fails_the_chains_final_check(self, monkeypatch):
        (base, e_row), = CUBIC.prefactor_map
        wrong = dataclasses.replace(CUBIC, prefactor_map=((base, _shifted(e_row)),))
        monkeypatch.setattr(transforms, "CUBIC", wrong)
        with pytest.raises(DerivationError, match="derived constant distinct"):
            derive_main(P40)


class TestChain:
    def test_composed_map_structural_equality(self):
        t1 = apply_rule(QUADRATIC_C_2B, SEED_TERM)
        t1 = HypTerm(t1.prefactor, t1.params.swapped(), t1.argument)
        t = apply_rule(CUBIC, apply_rule(QUADRATIC_MEAN, t1))
        assert t.argument == twelfth_degree_map()

    def test_exact_argument_at_quarter(self):
        assert twelfth_degree_map()(F(1, 4)) == MAIN_ARGUMENT
        assert MAIN_ARGUMENT == F(172872, 185039) ** 2

    def test_derive_main_at_1000_digits_takes_9_logs(self, monkeypatch):
        """With cold Gamma and log caches, the 1000-digit chain takes 9
        logarithms: one per integer N of the Gamma series and per prime of
        the rational bases at a precision, and one per pi power.
        Raising each rational base and pi power by its own log took 25."""
        import hypergamma.mpreal as mpreal

        mpreal._gamma_unit.cache_clear()
        mpreal._ln.cache_clear()
        calls = []
        mpf_log = mpreal.mpf_log

        def counted(*args):
            calls.append(args)
            return mpf_log(*args)

        monkeypatch.setattr(mpreal, "mpf_log", counted)
        derive_main(Precision.of(1000))
        assert len(calls) <= 9

    def test_derive_main_small(self):
        trace = derive_main(P40)
        assert trace.verdict is Verdict.EQUAL
        assert [name for name, _ in trace.steps] == [
            "quadratic-c-2b",
            "quadratic-mean",
            "cubic",
        ]
        assert trace.steps[-1][1].params == MAIN_PARAMS
        assert trace.final_argument == MAIN_ARGUMENT
        assert trace.agreement_digits and trace.agreement_digits >= 35

    def test_trace_json(self):
        trace = derive_main(P30)
        data = trace.to_json()
        assert data["final_argument"] == "29884728384/34239431521"
        assert len(data["steps"]) == 3
        assert data["verdict"] == "equal-within-bounds"

    def test_main_rhs_value(self):
        z = (mp.mpf(172872) / 185039) ** 2
        want = mp.hyp2f1(mp.mpf(7) / 48, mp.mpf(31) / 48, mp.mpf(9) / 8, z)
        assert_encloses(ge_eval(MAIN_RHS, P40), want, "printed RHS")


class TestGosperFormula:
    def test_rhs_at_half_is_pi_third(self):
        assert_encloses(ge_eval(gosper_rhs(F(1, 2)), P40), mp.pi / 3, "b=1/2")

    def test_rhs_at_five_eighths(self):
        want = (
            mp.mpf(2) ** (mp.mpf(5) / 4)
            * mp.sqrt(mp.pi)
            / 3
            * mp.gamma(mp.mpf(5) / 4)
            / mp.gamma(mp.mpf(7) / 8) ** 2
        )
        assert_encloses(ge_eval(gosper_rhs(F(5, 8)), P40), want, "b=5/8")

    def test_b_zero_both_sides_one(self):
        assert f21_terminating(gosper_lhs_params(F(0)), F(1, 4)) == 1
        assert_encloses(ge_eval(gosper_rhs(F(0)), P40), mp.mpf(1), "b=0")

    def test_poles_rejected(self):
        for b in (F(5, 4), F(3, 2), F(5, 2)):
            with pytest.raises(TransformError):
                gosper_rhs(b)

    def test_sweep_spot(self):
        for b in (F(5, 8), F(-3, 2), F(1, 3), F(-1), F(7, 10), F(19, 24)):
            lhs = f21_eval(gosper_lhs_params(b), F(1, 4), P40)
            rhs = ge_eval(gosper_rhs(b), P40)
            assert num_equal(lhs, rhs, P40) is Verdict.EQUAL, f"b={b}"


class TestGosperProof:
    def test_all_steps_at_five_eighths(self):
        verdicts = verify_gosper_proof(F(5, 8), P30)
        assert tuple(verdicts) == PROOF_STEPS
        assert all(v is Verdict.EQUAL for v in verdicts.values()), verdicts

    def test_range_enforced(self):
        for b in (F(1, 4), F(1, 2), F(5, 6), F(9, 10)):
            with pytest.raises(TransformError):
                verify_gosper_proof(b, P30)

    def test_step_one_integrates_i_t(self):
        # the Euler transform has c > b > 0 across the range, so
        # f21_integral takes its parameters unswapped, and its integrand is
        # the i_t of step 2
        for b in PROOF_RANGE:
            p = EULER.new_params(gosper_lhs_params(b))
            assert p.c > p.b > 0, b
            assert proof_integrands(b)[0] == euler_integrand(p, F(1, 4)), b

    def test_a_wrong_euler_prefactor_is_distinct(self, monkeypatch):
        (base, (ca, cb, cc, k)), = EULER.prefactor_map
        wrong = dataclasses.replace(EULER, prefactor_map=((base, (ca, cb, cc, k + F(1, 48))),))
        monkeypatch.setattr(transforms, "EULER", wrong)
        assert verify_gosper_proof(F(5, 8), P30)[PROOF_STEPS[0]] is Verdict.DISTINCT

    @pytest.mark.parametrize("b", (F(5, 8), F(7, 10)), ids=str)
    def test_quadrature_agrees_with_the_exact_steps(self, b):
        # the tanh-sinh values of i_u and i_cyc, which the exact steps no
        # longer compute, match i_t / 4^(5/2-3b) and the Beta difference / 3
        prec = Precision.of(20)
        q = prec.boosted(16)
        i_t, i_u, i_cyc = (tanh_sinh_integrate(f, q) for f in proof_integrands(b))
        four = BigReal.from_fraction(F(4), q.work_bits).pow_rational(F(5, 2) - 3 * b)
        delta = beta(F(5, 6) - b, 2 * b - 1, q) - beta(F(7, 6) - b, 2 * b - 1, q)
        assert num_equal(i_u, i_t / four, prec) is Verdict.EQUAL
        assert num_equal(i_cyc, delta / 3, prec) is Verdict.EQUAL


# every b in (1/2, 5/6) with denominator at most 48
PROOF_RANGE = sorted({F(n, d) for d in range(1, 49) for n in range(d) if F(1, 2) < F(n, d) < F(5, 6)})


def _step2(b, f_u=None, const=None, t_map=SUBSTITUTION_MAP):
    """Step 2 with one of its parts replaced."""
    f_t, default_u, _ = proof_integrands(b)
    const = F(5, 2) - 3 * b if const is None else const
    rhs = ((Poly.constant(4), const),) + substituted(f_u or default_u)
    return integrals_agree(substituted(f_t, t_map), (1, rhs))


class TestExactProofSteps:
    """The exact checker of steps 2-4 proves the true steps and rejects each
    way a step can be wrong: its integrands, its map or a side condition."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(PROOF_RANGE))
    def test_steps_are_proved_across_the_range(self, b):
        verdicts = prove_substitution_steps(b)
        assert tuple(verdicts) == PROOF_STEPS[1:4]
        assert all(v is Verdict.EQUAL for v in verdicts.values()), (b, verdicts)

    def test_a_wrong_exponent_is_distinct(self):
        b = F(5, 8)
        f_u = proof_integrands(b)[1]
        for du, dv in ((F(1, 48), 0), (0, F(-1, 48)), (1, 0)):
            wrong = PowerIntegrand(f_u.u_exp + du, f_u.v_exp + dv, f_u.factors)
            assert _step2(b, f_u=wrong) is Verdict.DISTINCT, (du, dv)

    def test_a_wrong_constant_is_distinct(self):
        b = F(5, 8)
        assert _step2(b) is Verdict.EQUAL
        for const in (F(3, 2) - 3 * b, F(5, 2) - 3 * b + F(1, 48)):
            assert _step2(b, const=const) is Verdict.DISTINCT, const

    def test_a_wrong_map_is_distinct(self):
        # t = 2u/(1+u) is monotone onto (0, 1), but its integrand is another
        t_map = RatFunc(poly_from_pairs((1, 2)), poly_from_pairs((0, 1), (1, 1)))
        assert _step2(F(5, 8), t_map=t_map) is Verdict.DISTINCT

    def test_a_non_monotone_map_is_rejected(self):
        f_t = proof_integrands(F(5, 8))[0]
        # 4u(1-u) takes both ends to 0
        with pytest.raises(Unproven, match="onto itself"):
            substituted(f_t, RatFunc(poly_from_pairs((1, 4), (2, -4))))
        # u(3u-2) has the right ends, but its slope 6u - 2 changes sign
        bent = RatFunc(poly_from_pairs((1, -2), (2, 3)))
        with pytest.raises(Unproven, match="not certainly positive"):
            integrals_agree(substituted(f_t, bent), (1, substituted(f_t, bent)))

    def test_a_map_onto_part_of_the_interval_is_rejected(self):
        # t = u/2: int_0^1 t^a dt = 2^(-a-1) int_0^1 u^a du is false, though
        # the integrands agree once pulled back
        half = RatFunc(poly_from_pairs((1, F(1, 2))))
        f = PowerIntegrand(F(1, 3), 0)
        with pytest.raises(Unproven, match="onto itself"):
            substituted(f, half)

    def test_a_decreasing_map_is_proved(self):
        # x = 1 - u swaps the ends: B(p, q) = B(q, p)
        flip = RatFunc(poly_from_pairs((0, 1), (1, -1)))
        lhs = substituted(PowerIntegrand(F(-1, 3), F(2, 5)), flip)
        assert integrals_agree(lhs, (1, substituted(PowerIntegrand(F(2, 5), F(-1, 3))))) is Verdict.EQUAL
        assert integrals_agree(lhs, (1, substituted(PowerIntegrand(F(-1, 3), F(2, 5))))) is Verdict.DISTINCT

    @pytest.mark.parametrize(
        "factor", (poly_from_pairs((0, 1), (1, -2)), poly_from_pairs((0, -2), (1, 1))), ids=("1-2u", "u-2")
    )
    def test_a_factor_not_positive_on_the_interval_is_rejected(self, factor):
        # the same factor on both sides: the integrands agree, but
        # (1-2u)^(1/2) changes sign inside (0, 1) and (u-2)^(1/2) is negative
        f_u = substituted(proof_integrands(F(5, 8))[1])
        extra = ((factor, F(1, 2)),)
        with pytest.raises(Unproven, match="not certainly positive"):
            integrals_agree(f_u + extra, (1, f_u + extra))

    @pytest.mark.parametrize(
        "b, rejected",
        ((F(1, 2), {"cube-substitution"}), (F(5, 6), set(PROOF_STEPS[1:4]))),
        ids=("b=1/2", "b=5/6"),
    )
    def test_the_ends_of_the_range_fail_the_exponent_test(self, b, rejected):
        # at b = 1/2 only the Betas diverge, (1 - v)^-1; at b = 5/6 so does
        # every u^(3/2-3b) = u^-1.  The integrands still agree at both ends,
        # so only the exponent test rejects them.
        verdicts = prove_substitution_steps(b)
        assert {s for s, v in verdicts.items() if v is not Verdict.EQUAL} == rejected
        assert all(v is Verdict.DISTINCT for s, v in verdicts.items() if s in rejected)
        f_t, f_u, f_cyc = proof_integrands(b)
        third = ((Poly.constant(3), F(-1)),)
        betas = [
            (s, third + substituted(PowerIntegrand(x - 1, 2 * b - 2), CUBE_MAP))
            for s, x in ((1, F(5, 6) - b), (-1, F(7, 6) - b))
        ]
        with pytest.raises(Unproven, match="endpoint exponent"):
            integrals_agree(substituted(f_cyc), *betas)


class TestSplit:
    def test_quarter_point(self):
        assert verify_zj_split(F(1, 4), F(1, 4), F(1, 4), P30) is Verdict.EQUAL

    def test_asymmetric_point(self):
        assert verify_zj_split(F(1, 8), F(3, 8), F(1, 2), P30) is Verdict.EQUAL

    def test_tiny_argument(self):
        assert verify_zj_split(F(1, 4), F(1, 4), F(1, 10**6), P30) is Verdict.EQUAL

    def test_domain(self):
        with pytest.raises(TransformError):
            verify_zj_split(F(1, 4), F(1, 4), F(3, 2), P30)


class TestConclusion:
    """The concluding identity 2F1(1/2,3/2;13/6;-1/3) =
    7/(2^(2/3) sqrt 3) - 7 G(1/6)^3/(2^(14/3) 3^(3/2) pi^(3/2)), as the
    catalog's conclusion-identity record encodes it."""

    RECORD = next(r for r in catalog_load(DEFAULT_CATALOG) if r.id == "conclusion-identity")
    JSON = next(
        r for r in json.loads(DEFAULT_CATALOG.read_text())["records"]
        if r["id"] == "conclusion-identity"
    )

    def variant(self, terms) -> IdentityRecord:
        return IdentityRecord.from_json(
            {"id": "conclusion-variant", "kind": "point-evaluation",
             "lhs": self.JSON["lhs"], "rhs": {"gamma_expr_sum": terms}}
        )

    def test_identity_holds(self):
        entry = verify_identity(self.RECORD, P40)
        assert entry.verdict == "pass"
        assert entry.precision_digits == 40  # no doubled-precision retry
        assert entry.digits >= 40

    def test_lhs_value(self):
        (_, p, z, _), = points(self.RECORD)
        assert (p, z) == (HypParams(F(1, 2), F(3, 2), F(13, 6)), F(-1, 3))
        lhs = f21_eval(p, z, P40)
        assert lhs.to_decimal(20).startswith("0.9031416027010812323")
        assert_encloses(
            lhs,
            mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(3) / 2, mp.mpf(13) / 6, mp.mpf(-1) / 3),
            "conclusion lhs",
        )

    def test_first_term_value(self):
        first = self.JSON["rhs"]["gamma_expr_sum"][0]
        assert first["sign"] == 1
        value = rhs_enclosure(self.variant([first]), P40)
        # 7/(2^(2/3) sqrt 3); the analogous 6-numerator value is 2.182247271...
        assert value.to_decimal(12).startswith("2.5459551506")

    def test_smaller_first_term_variant_is_distinct(self):
        # lowering the leading numerator from 7 to 6 must be detected
        first, second = self.JSON["rhs"]["gamma_expr_sum"]
        assert first["expr"]["rat"][0] == ["7", "1"]
        rat = [["6", "1"]] + first["expr"]["rat"][1:]
        perturbed = {"sign": 1, "expr": dict(first["expr"], rat=rat)}
        entry = verify_identity(self.variant([perturbed, second]), P40)
        assert entry.verdict == "fail"
        assert entry.precision_digits == 40  # no doubled-precision retry
        assert entry.interval_lhs and entry.interval_rhs
