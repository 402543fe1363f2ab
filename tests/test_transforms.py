"""Transform rules, Gosper-formula proof steps, the degree-12 chain, the
splitting transform, and the concluding identity."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

import pytest
from mpmath import mp

from helpers import assert_encloses, overlap, points, rhs_enclosure

from hypergamma.catalog import DEFAULT_CATALOG, IdentityRecord, catalog_load, verify_identity
from hypergamma.exact import Poly, RatFunc, poly_from_pairs
from hypergamma.gammaexpr import Verdict, ge_eval, num_equal
from hypergamma.hyper import HypParams, f21_eval, f21_terminating
from hypergamma.mpreal import Precision
from hypergamma.transforms import (
    CUBIC,
    EULER,
    MAIN_ARGUMENT,
    MAIN_PARAMS,
    MAIN_RHS,
    PROOF_STEPS,
    QUADRATIC_C_2B,
    QUADRATIC_MEAN,
    RULES,
    DerivationError,
    HypTerm,
    TransformError,
    apply_rule,
    derive_main,
    gosper_lhs_params,
    gosper_rhs,
    twelfth_degree_map,
    verify_gosper_proof,
    verify_zj_split,
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
            assert rule.applies_to(rule.sample_params(rng))

    def test_rule_soundness_sampled(self):
        rng = random.Random(1209)
        for rule in RULES.values():
            lo, hi = rule.sample_region
            for _ in range(20):
                w = lo + (hi - lo) * F(rng.randint(1, 79), 80)
                if w == 0:
                    continue
                p = rule.sample_params(rng)
                term = HypTerm((), p, RatFunc.x())
                out = apply_rule(rule, term)
                lhs = f21_eval(p, w, P30)
                rhs = out.evaluate(w, P30)
                assert overlap(lhs, rhs), f"{rule.name} at {p} w={w}"


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
        """With cold Gamma and integer-log caches, the 1000-digit chain
        takes 9 logarithms: one per integer N of the Gamma series and per
        prime of the rational bases at a precision, and one per pi power.
        Raising each rational base and pi power by its own log took 25."""
        import hypergamma.mpreal as mpreal

        monkeypatch.setattr(mpreal, "_GAMMA_CACHE", {})
        monkeypatch.setattr(mpreal, "_LOG_INT_CACHE", {})
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
