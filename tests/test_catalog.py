"""Catalog loading/validation, verification dispatch, report semantics."""

from __future__ import annotations

import ast
import json
from fractions import Fraction as F

import pytest

from helpers import points
from hypergamma.catalog import (
    CANARY_CATALOG,
    DEFAULT_CATALOG,
    EXIT_CODE,
    MAX_DIGITS,
    CatalogError,
    IdentityRecord,
    ReportEntry,
    VerificationReport,
    catalog_load,
    expr_eval,
    record_precision,
    run_all,
    verify_identity,
)
from hypergamma.gammaexpr import Verdict
from hypergamma.mpreal import Precision


def write_catalog(tmp_path, records, version=1):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema_version": version, "records": records}))
    return path


POINT_RECORD = {
    "id": "cl",
    "kind": "point-evaluation",
    "source": "Campbell & Levrie (2024)",
    "digits": 40,
    "lhs": {"a": "1/2", "b": "2/3", "c": "1/6", "z": "1/4"},
    "rhs": {"gamma_expr": {"rat": [["4/3", "1"], ["2", "1/3"]]}},
}


class TestExprEval:
    def test_affine(self):
        assert expr_eval("5/2-2*b", {"b": F(5, 8)}) == F(5, 4)

    def test_rational_function(self):
        assert expr_eval("b/(a+b)", {"a": F(1, 3), "b": F(2)}) == F(6, 7)

    def test_unary_minus(self):
        assert expr_eval("-n-1/2", {"n": F(3)}) == F(-7, 2)

    def test_unknown_variable(self):
        with pytest.raises(CatalogError):
            expr_eval("a+q", {"a": F(1)})

    def test_power_rejected(self):
        with pytest.raises(CatalogError):
            expr_eval("2**3", {})


class TestLoad:
    def test_default_catalog(self):
        records = catalog_load(DEFAULT_CATALOG)
        assert len(records) >= 13
        ids = [r.id for r in records]
        assert len(ids) == len(set(ids))
        assert "main-evaluation" in ids
        main = next(r for r in records if r.id == "main-evaluation")
        assert main.digits == 150

    def test_duplicate_id_names_both(self, tmp_path):
        path = write_catalog(tmp_path, [POINT_RECORD, POINT_RECORD])
        with pytest.raises(CatalogError, match="duplicate id 'cl'.*#0 and #1"):
            catalog_load(path)

    def test_unknown_field_rejected(self, tmp_path):
        bad = dict(POINT_RECORD, wibble=1)
        path = write_catalog(tmp_path, [bad])
        with pytest.raises(CatalogError, match="wibble"):
            catalog_load(path)

    def test_unknown_kind_rejected(self, tmp_path):
        bad = dict(POINT_RECORD, kind="wishful-thinking")
        path = write_catalog(tmp_path, [bad])
        with pytest.raises(CatalogError, match="unknown kind"):
            catalog_load(path)

    def test_gamma_pole_rejected_at_load(self, tmp_path):
        bad = dict(POINT_RECORD, rhs={"gamma_expr": {"gamma": [["0", 1]]}})
        path = write_catalog(tmp_path, [bad])
        with pytest.raises(CatalogError):
            catalog_load(path)

    def test_bad_expression_rejected(self, tmp_path):
        bad = dict(POINT_RECORD, lhs={"a": "1/2", "b": "2/3", "c": "1/6", "z": "1/4 +"})
        path = write_catalog(tmp_path, [bad])
        with pytest.raises(CatalogError):
            catalog_load(path)

    def test_template_names_checked(self, tmp_path):
        bad = dict(POINT_RECORD, rhs={"gamma_expr": {"rat": [["q", "1"]]}})
        path = write_catalog(tmp_path, [bad])
        with pytest.raises(CatalogError, match="unknown names"):
            catalog_load(path)

    def test_schema_version_enforced(self, tmp_path):
        path = write_catalog(tmp_path, [POINT_RECORD], version=99)
        with pytest.raises(CatalogError, match="schema_version"):
            catalog_load(path)

    def test_invalid_json_line_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n "records": [}')
        with pytest.raises(CatalogError, match="line 2"):
            catalog_load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="not found"):
            catalog_load(tmp_path / "nope.json")


def count_walks(monkeypatch) -> list[int]:
    """The index n of each `hyper_terms` walk the catalog takes from now on."""
    import hypergamma.catalog as catalog

    calls, walk = [], catalog.hyper_terms

    def counted(upper, lower, z, n):
        calls.append(n)
        return walk(upper, lower, z, n)

    monkeypatch.setattr(catalog, "hyper_terms", counted)
    return calls


class TestFamilies:
    def test_grid_expansion_counts(self):
        records = {r.id: r for r in catalog_load(DEFAULT_CATALOG)}
        assert len(points(records["apagodu-zeilberger-family"])) == 31
        assert len(points(records["gosper-strange-series"])) == 25

    def test_gauss_points_meet_the_theorem_constraints(self):
        # gauss-summation's lhs is 2F1(a, b; c; 1) over the listed a, b, c
        records = {r.id: r for r in catalog_load(DEFAULT_CATALOG)}
        family = points(records["gauss-summation"])
        assert len(family) == 30
        for _, p, z, _ in family:
            assert z == 1
            assert p.c > p.b > 0
            assert p.c - p.a - p.b > F(1, 10)

    @pytest.mark.parametrize(
        "rid", ["gosper-quarter-family", "apagodu-zeilberger-family", "linear"]
    )
    def test_verifying_evaluates_no_template(self, monkeypatch, rid):
        # every template is evaluated at every sample when the record is
        # made: a Gamma expression, an exact product and a rational rhs
        import hypergamma.catalog as catalog

        calls = []
        compile_template = catalog._template

        def counted(*args):
            template = compile_template(*args)

            def fn(env):
                calls.append(env)
                return template(env)

            return fn

        monkeypatch.setattr(catalog, "_template", counted)
        # 2F1(-1, n; n+1; 1/4) = 1 - n/(4(n+1))
        linear = dict(
            FAMILY_RECORD,
            id="linear",
            lhs={"a": "-1", "b": "n", "c": "n+1", "z": "1/4"},
            rhs={"rational": "1-n/(4*(n+1))"},
        )
        records = [*catalog_load(DEFAULT_CATALOG), IdentityRecord.from_json(linear)]
        record = next(r for r in records if r.id == rid)
        loaded = len(calls)
        assert loaded
        entry = verify_identity(record, Precision.of(20))
        assert entry.verdict == "pass"
        assert len(calls) == loaded, "a template was evaluated at verify time"

    def test_exact_products_step_one_running_product(self, monkeypatch):
        # apagodu-zeilberger-family's Pochhammer ratios at n = 0..30 are
        # one walk of 30 steps at verify, not a product per sample
        calls = count_walks(monkeypatch)
        record = next(
            r for r in catalog_load(DEFAULT_CATALOG) if r.id == "apagodu-zeilberger-family"
        )
        assert calls == []
        assert verify_identity(record, Precision.of(20)).verdict == "pass"
        assert calls == [30]

    def test_exact_product_points_unsorted_and_repeated(self, tmp_path, monkeypatch):
        # the Apagodu-Zeilberger family at unsorted, repeated points: each
        # passes, from one walk to the largest index
        az = next(
            r for r in json.loads(DEFAULT_CATALOG.read_text())["records"]
            if r["id"] == "apagodu-zeilberger-family"
        )
        indices = [12, 0, 30, 5, 12, 1]
        az = dict(az, parameters={"vars": ["n"], "points": [{"n": str(n)} for n in indices]})
        calls = count_walks(monkeypatch)
        (record,) = catalog_load(write_catalog(tmp_path, [az]))
        assert verify_identity(record, Precision.of(20)).verdict == "pass"
        assert calls == [30]

    @pytest.mark.parametrize("n, code", [(2, 0), (3, 3)])
    def test_exact_product_pole_boundary(self, tmp_path, capsys, n, code):
        # 2F1(-2, 1/2; -2; 1) = (-5/2)_n / (-2)_n at n = 2, = 15/8; at n = 3
        # (-2)_3 = 0, a load error naming the sample
        from hypergamma.cli import main

        record = {
            "id": "boundary",
            "kind": "parametric-family",
            "lhs": {"a": "-2", "b": "1/2", "c": "-2", "z": "1"},
            "rhs": {"exact_product": {"poch_ratio": {"upper": ["-5/2"], "lower": ["-2"], "n": "n"}}},
            "parameters": {"vars": ["n"], "points": [{"n": str(n)}]},
        }
        path = write_catalog(tmp_path, [record])
        assert main(["verify", "--catalog", str(path)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (
                "catalog error: record 'boundary' at n=3: lower entry -2 hits a pole within (x)_3\n"
            )

    def test_gosper_points_range(self):
        # gosper-quarter-family's lhs is 2F1(1/2, b; 5/2-2b; 1/4) over the listed b
        records = {r.id: r for r in catalog_load(DEFAULT_CATALOG)}
        family = points(records["gosper-quarter-family"])
        assert len(family) == 25
        assert all(F(-2) < p.b < F(5, 6) for _, p, _, _ in family)
        assert all(p.b.denominator <= 24 for _, p, _, _ in family)
        assert all(at == f"b={p.b}" for at, p, _, _ in family)


class TestVerify:
    def test_point_record_passes(self, tmp_path):
        path = write_catalog(tmp_path, [POINT_RECORD])
        record = catalog_load(path)[0]
        entry = verify_identity(record, Precision.of(40))
        assert entry.verdict == "pass"
        assert isinstance(entry.digits, int) and entry.digits >= 40

    def test_canary_fails_with_intervals(self):
        record = catalog_load(CANARY_CATALOG)[0]
        entry = verify_identity(record, record_precision(record, 100))
        assert entry.verdict == "fail"
        assert entry.interval_lhs and entry.interval_rhs
        assert "±" in entry.interval_lhs

    def test_hand_built_record_verifies(self):
        record = IdentityRecord.from_json(
            {"id": "cl", "kind": "point-evaluation",
             "lhs": POINT_RECORD["lhs"], "rhs": POINT_RECORD["rhs"]}
        )
        assert verify_identity(record, Precision.of(30)).verdict == "pass"

    def test_hand_built_bad_template_fails(self):
        # a record built in code is checked as catalog_load checks it
        with pytest.raises(CatalogError) as e:
            IdentityRecord.from_json(
                {"id": "x", "kind": "point-evaluation",
                 "lhs": dict(POINT_RECORD["lhs"], z="q"), "rhs": POINT_RECORD["rhs"]}
            )
        assert str(e.value) == "record 'x' lhs.z: unknown names ['q'] in 'q'"

    def test_unregistered_chain_fails(self):
        with pytest.raises(CatalogError) as e:
            IdentityRecord.from_json({"id": "x", "kind": "proof-chain", "chain": "warp-drive"})
        assert str(e.value) == "record 'x': unknown proof chain 'warp-drive'"

    def test_unregistered_rule_fails(self):
        with pytest.raises(CatalogError) as e:
            IdentityRecord.from_json(
                {"id": "x", "kind": "transform-rule", "rule": "landen"}
            )
        assert str(e.value) == "record 'x': unknown transform rule 'landen'"

    def test_precision_monotonicity(self, tmp_path):
        path = write_catalog(tmp_path, [POINT_RECORD])
        record = catalog_load(path)[0]
        for digits in (40, 25, 12):
            assert verify_identity(record, Precision.of(digits)).verdict == "pass"


class TestRunAll:
    def test_empty_catalog(self, tmp_path):
        # a catalog that verifies nothing must not exit 0
        path = write_catalog(tmp_path, [])
        with pytest.raises(CatalogError, match="records must be a nonempty list"):
            run_all(path, digits=30)

    def test_exit_codes_and_only(self, tmp_path):
        path = write_catalog(tmp_path, [POINT_RECORD])
        report = run_all(path, digits=30, only="cl")
        assert report.exit_code == 0
        with pytest.raises(CatalogError):
            run_all(path, digits=30, only="missing")

    def test_unknown_chain_rejects_the_catalog(self, tmp_path, capsys):
        from hypergamma.cli import main

        records = [
            POINT_RECORD,
            {"id": "odd", "kind": "proof-chain", "chain": "unknown-chain"},
        ]
        path = write_catalog(tmp_path, records)
        with pytest.raises(CatalogError, match="record 'odd': unknown proof chain"):
            run_all(path, digits=30)
        assert main(["verify", "--catalog", str(path)]) == 3
        assert capsys.readouterr().err == (
            "catalog error: record 'odd': unknown proof chain 'unknown-chain'\n"
        )

    def test_entries_sorted_by_id(self):
        records = catalog_load(DEFAULT_CATALOG)
        subset = [r for r in records if r.id.startswith(("zucker", "campbell"))]
        report = run_all(subset[::-1], digits=40)
        assert [e.id for e in report.entries] == sorted(r.id for r in subset)
        assert all(e.verdict == "pass" for e in report.entries)

    def test_loaded_catalog_is_not_parsed_again(self, monkeypatch):
        # every template is compiled by catalog_load; verifying only calls
        # the compiled closures
        wanted = ("apagodu-zeilberger-family", "campbell-levrie", "conclusion-identity")
        records = [r for r in catalog_load(DEFAULT_CATALOG) if r.id in wanted]
        assert len(records) == 3

        def no_parse(*args, **kwargs):
            raise AssertionError("ast.parse called after catalog_load")

        monkeypatch.setattr(ast, "parse", no_parse)
        report = run_all(records, digits=30)
        assert report.counts["pass"] == 3

    def test_fail_sets_exit_code(self):
        report = run_all(CANARY_CATALOG, digits=60)
        assert report.counts["fail"] == 1
        assert report.exit_code == 1
        assert "canary" in report.to_text()

    def test_json_report_shape(self, tmp_path):
        path = write_catalog(tmp_path, [POINT_RECORD])
        data = run_all(path, digits=30).to_json()
        assert data["counts"]["pass"] == 1
        assert data["entries"][0]["id"] == "cl"
        assert "exit_code" in data


@pytest.mark.parametrize(
    "verdict, code",
    [(Verdict.EQUAL, 0), (Verdict.DISTINCT, 1), (Verdict.INCONCLUSIVE, 2)],
)
def test_exit_code_map(verdict, code):
    assert EXIT_CODE[verdict] == code


@pytest.mark.parametrize(
    "verdicts, code",
    [
        ((), 0),
        (("pass",), 0),
        (("pass", "pass"), 0),
        (("pass", "inconclusive"), 2),
        (("inconclusive", "pass"), 2),
        (("fail", "pass"), 1),
        (("inconclusive", "fail", "pass"), 1),
    ],
)
def test_report_exit_code(verdicts, code):
    entries = tuple(
        ReportEntry(str(i), verdict, None, 0.0, 30) for i, verdict in enumerate(verdicts)
    )
    assert VerificationReport(entries).exit_code == code


FAMILY_RECORD = {
    "id": "f",
    "kind": "parametric-family",
    "lhs": {"a": "-n", "b": "1/2", "c": "3/2", "z": "1/4"},
    "rhs": {"rational": "1"},
    "parameters": {"vars": ["n"], "grid": {"n": {"from": 0, "to": 2}}},
}
RULE_RECORD = {"id": "r", "kind": "transform-rule", "rule": "euler"}
SPLIT_RECORD = {
    "id": "s",
    "kind": "transform-rule",
    "rule": "zj-split",
    "points": [{"a": "1/4", "b": "1/4", "z": "1/4"}],
}
BAD_INPUTS = {
    "empty-grid": dict(
        FAMILY_RECORD,
        parameters={"vars": ["n"], "grid": {"n": {"from": 3, "to": 1}}},
    ),
    # the family sampler and its count and seed, gone: this row and the
    # sampler-* rows below are unknown fields now
    "zero-sample-count": dict(
        FAMILY_RECORD,
        lhs={"a": "a", "b": "b", "c": "c", "z": "1"},
        parameters={"vars": ["a", "b", "c"], "sampler": "gauss", "count": 0},
    ),
    "split-point-not-rational": dict(
        SPLIT_RECORD, points=[{"a": "1/8", "b": "x", "z": "1/4"}]
    ),
    "gamma-exponent-not-integer": dict(
        POINT_RECORD, rhs={"gamma_expr": {"gamma": [["1/8", "x"]]}}
    ),
    "surd-exponent-not-integer": dict(
        POINT_RECORD, rhs={"gamma_expr": {"surd": [["1", "2", "2", "1/2"]]}}
    ),
    # the knobs of the sampled rule check, gone: unknown fields now
    "rule-samples-negative": dict(RULE_RECORD, samples=-3),
    "rule-samples-zero": dict(RULE_RECORD, samples=0),
    "rule-samples-not-integer": dict(RULE_RECORD, samples="x"),
    "split-points-empty": dict(SPLIT_RECORD, points=[]),
    "split-points-missing": {k: v for k, v in SPLIT_RECORD.items() if k != "points"},
    "rat-entry-too-short": dict(POINT_RECORD, rhs={"gamma_expr": {"rat": [["2"]]}}),
    "gamma-entry-too-long": dict(
        POINT_RECORD, rhs={"gamma_expr": {"gamma": [["1/8", 1, 1]]}}
    ),
    "surd-entry-not-a-list": dict(POINT_RECORD, rhs={"gamma_expr": {"surd": ["1/2"]}}),
    "gamma-expr-not-an-object": dict(POINT_RECORD, rhs={"gamma_expr": [["2", "1"]]}),
    "chain-b-not-a-list": {"id": "g", "kind": "proof-chain", "chain": "gosper-proof", "b": 5},
    "chain-b-empty": {"id": "g", "kind": "proof-chain", "chain": "gosper-proof", "b": []},
    # the proof's integrals converge only for 1/2 < b < 5/6
    "chain-b-at-one-half": {"id": "g", "kind": "proof-chain", "chain": "gosper-proof", "b": ["1/2"]},
    "chain-b-out-of-range": {
        "id": "g", "kind": "proof-chain", "chain": "gosper-proof", "b": ["5/8", "5/6", "9/10"],
    },
    "rule-unknown": dict(RULE_RECORD, rule="eulr"),
    "chain-unknown": {"id": "g", "kind": "proof-chain", "chain": "gosper-prof"},
    "point-exact-exponent-not-integer": dict(
        POINT_RECORD, rhs={"exact_product": {"pow_base": "2", "pow_exp": "1/2"}}
    ),
    "rule-samples-bool": dict(RULE_RECORD, samples=True),
    "rule-seed-not-integer": dict(RULE_RECORD, seed=[1, 2]),
    "sampler-count-bool": dict(
        FAMILY_RECORD,
        lhs={"a": "a", "b": "b", "c": "c", "z": "1"},
        parameters={"vars": ["a", "b", "c"], "sampler": "gauss", "count": True},
    ),
    "sampler-seed-not-integer": dict(
        FAMILY_RECORD,
        lhs={"a": "a", "b": "b", "c": "c", "z": "1"},
        parameters={"vars": ["a", "b", "c"], "sampler": "gauss", "seed": {"x": 1}},
    ),
    "grid-end-bool": dict(
        FAMILY_RECORD,
        parameters={"vars": ["n"], "grid": {"n": {"from": 0, "to": True}}},
    ),
    "gamma-exponent-bool": dict(POINT_RECORD, rhs={"gamma_expr": {"gamma": [["1/8", True]]}}),
    "surd-exponent-bool": dict(
        POINT_RECORD, rhs={"gamma_expr": {"surd": [["1", "2", "2", False]]}}
    ),
    "digits-bool": dict(POINT_RECORD, digits=True),
    "digits-above-max": dict(POINT_RECORD, digits=MAX_DIGITS + 1),
    "sum-term-sign-bool": dict(
        POINT_RECORD, rhs={"gamma_expr_sum": [{"sign": True, "expr": {"rat": [["2", "1"]]}}]}
    ),
    "sum-term-not-an-object": dict(POINT_RECORD, rhs={"gamma_expr_sum": [5]}),
    "sum-empty": dict(POINT_RECORD, rhs={"gamma_expr_sum": []}),
    "exact-product-not-an-object": dict(POINT_RECORD, rhs={"exact_product": 5}),
    "poch-ratio-upper-not-a-list": dict(
        POINT_RECORD,
        rhs={"exact_product": {"poch_ratio": {"upper": 5, "lower": [], "n": "1"}}},
    ),
    "grid-exact-exponent-not-integer": dict(
        FAMILY_RECORD, rhs={"exact_product": {"pow_base": "2", "pow_exp": "n/2"}}
    ),
    "grid-exact-poch-index-negative": dict(
        FAMILY_RECORD,
        rhs={"exact_product": {"poch_ratio": {"upper": ["1"], "lower": ["3/2"], "n": "n-1"}}},
    ),
    "point-exact-poch-pole": dict(
        POINT_RECORD,
        rhs={"exact_product": {"poch_ratio": {"upper": ["1"], "lower": ["-1"], "n": "3"}}},
    ),
    "point-exact-zero-to-negative-power": dict(
        POINT_RECORD, rhs={"exact_product": {"pow_base": "0", "pow_exp": "-1"}}
    ),
    "vars-not-a-list": dict(
        FAMILY_RECORD, parameters={"vars": 5, "grid": {"n": {"from": 0, "to": 2}}}
    ),
    "sampler-not-a-name": dict(
        FAMILY_RECORD,
        lhs={"a": "a", "b": "b", "c": "c", "z": "1"},
        parameters={"vars": ["a", "b", "c"], "sampler": ["gauss"]},
    ),
    # a JSON float would be read at its binary value (0.1 = 3602879701896397/2^55)
    "chain-b-float": {"id": "g", "kind": "proof-chain", "chain": "gosper-proof", "b": [0.1]},
    "grid-value-float": dict(
        FAMILY_RECORD, parameters={"vars": ["n"], "grid": {"n": [0, 0.5]}}
    ),
    "split-point-float": dict(SPLIT_RECORD, points=[{"a": "1/4", "b": 0.25, "z": "1/4"}]),
    "poch-ratio-entry-float": dict(
        POINT_RECORD,
        rhs={"exact_product": {"poch_ratio": {"upper": [0.5], "lower": ["3/2"], "n": "1"}}},
    ),
    # fields the record's strategy would ignore
    "main-derivation-b": {
        "id": "g", "kind": "proof-chain", "chain": "main-derivation", "b": ["5/8"],
    },
    "sampled-rule-points": dict(RULE_RECORD, points=SPLIT_RECORD["points"]),
    "split-samples": dict(SPLIT_RECORD, samples=5),
    "split-seed": dict(SPLIT_RECORD, seed=1),
    # an lhs with no value at some sample
    "lhs-lower-pole": dict(POINT_RECORD, lhs={"a": "1/2", "b": "2/3", "c": "-1", "z": "1/4"}),
    "lhs-z-above-one": dict(POINT_RECORD, lhs={"a": "1/2", "b": "2/3", "c": "1/6", "z": "2"}),
    "lhs-z-one-divergent": dict(
        POINT_RECORD, lhs={"a": "1/2", "b": "2/3", "c": "1/6", "z": "1"}
    ),
    "grid-lhs-lower-pole": dict(
        FAMILY_RECORD, lhs={"a": "1/2", "b": "1/2", "c": "1-n", "z": "1/4"}
    ),
    # a family closed form with no value at some sample
    "grid-gamma-argument-zero": dict(FAMILY_RECORD, rhs={"gamma_expr": {"gamma": [["n", 1]]}}),
    "grid-rational-base-zero": dict(FAMILY_RECORD, rhs={"gamma_expr": {"rat": [["n", "1"]]}}),
    "grid-surd-radicand-zero": dict(
        FAMILY_RECORD, rhs={"gamma_expr": {"surd": [["1", "1", "n", 1]]}}
    ),
    "grid-surd-negative": dict(
        FAMILY_RECORD, rhs={"gamma_expr": {"surd": [["1-n", "-1", "2", 1]]}}
    ),
    # a template with no value at some sample, in each template kind
    "grid-rat-exponent-no-value": dict(
        FAMILY_RECORD, rhs={"gamma_expr": {"rat": [["2", "n/(n-1)"]]}}
    ),
    "grid-pi-exponent-no-value": dict(FAMILY_RECORD, rhs={"gamma_expr": {"pi": "n/(n-1)"}}),
    "grid-rational-no-value": dict(FAMILY_RECORD, rhs={"rational": "1-n/(n-1)"}),
    # an exact rhs needs an lhs that terminates
    "exact-rhs-lhs-not-terminating": dict(
        POINT_RECORD,
        lhs={"a": "1/2", "b": "1/2", "c": "3/2", "z": "1/4"},
        rhs={"exact_product": {"pow_base": "2"}},
    ),
    "sampler-vars-mismatch": dict(
        FAMILY_RECORD,
        lhs={"a": "a", "b": "b", "c": "a+b+1", "z": "1/2"},
        parameters={"vars": ["a", "b"], "sampler": "gauss"},
    ),
    # a family's listed points
    "points-not-a-list": dict(FAMILY_RECORD, parameters={"vars": ["n"], "points": {"n": "1"}}),
    "points-empty": dict(FAMILY_RECORD, parameters={"vars": ["n"], "points": []}),
    "point-not-an-object": dict(FAMILY_RECORD, parameters={"vars": ["n"], "points": [["1"]]}),
    "point-keys-differ-from-vars": dict(
        FAMILY_RECORD, parameters={"vars": ["n"], "points": [{"n": "1"}, {"n": "2", "m": "1"}]}
    ),
    "point-value-float": dict(FAMILY_RECORD, parameters={"vars": ["n"], "points": [{"n": 0.5}]}),
    "point-value-not-rational": dict(
        FAMILY_RECORD, parameters={"vars": ["n"], "points": [{"n": "1/0"}]}
    ),
    "grid-and-points": dict(
        FAMILY_RECORD,
        parameters={"vars": ["n"], "grid": {"n": [1]}, "points": [{"n": "1"}]},
    ),
    "split-point-missing-key": dict(SPLIT_RECORD, points=[{"a": "1/4", "b": "1/4"}]),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_catalog_input_exits_3(tmp_path, capsys, name):
    from hypergamma.cli import main

    path = write_catalog(tmp_path, [BAD_INPUTS[name]])
    assert main(["verify", "--catalog", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"catalog error: record {BAD_INPUTS[name]['id']!r}"), err


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_record_built_in_code_raises_the_load_error(tmp_path, name):
    # one constructor: a record built in code fails as catalog_load fails
    with pytest.raises(CatalogError) as loaded:
        catalog_load(write_catalog(tmp_path, [BAD_INPUTS[name]]))
    with pytest.raises(CatalogError) as built:
        IdentityRecord.from_json(BAD_INPUTS[name])
    assert str(built.value) == str(loaded.value)


@pytest.mark.parametrize(
    "name, text",
    [
        ("grid-rat-exponent-no-value", "n/(n-1)"),
        ("grid-pi-exponent-no-value", "n/(n-1)"),
        ("grid-rational-no-value", "1-n/(n-1)"),
    ],
)
def test_template_fault_stops_the_run_before_any_record_is_verified(
    tmp_path, capsys, name, text
):
    # every template is evaluated at load, so a fault at any sample is a
    # catalog error naming the sample, and no report is printed
    from hypergamma.cli import main

    path = write_catalog(tmp_path, [POINT_RECORD, BAD_INPUTS[name]])
    assert main(["verify", "--catalog", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"catalog error: record 'f' at n=1: division by zero in {text!r}\n"


@pytest.mark.parametrize("record", [5, {"kind": "proof-chain"}], ids=["not-an-object", "no-id"])
def test_record_without_an_id_is_named_by_its_index(tmp_path, record):
    with pytest.raises(CatalogError, match=r"^record #1: "):
        catalog_load(write_catalog(tmp_path, [POINT_RECORD, record]))


def test_unreadable_catalog_exits_3(tmp_path, capsys):
    from hypergamma.cli import main

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"schema_version": 1, "records": [], "x": "Erd\xe9lyi"}')
    for path in (tmp_path, latin1):
        assert main(["verify", "--catalog", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("catalog error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"schema_version": 1, "records": []}',
        '{"schema_version": 1}',
        '{"schema_version": 1, "records": {}}',
    ],
    ids=["empty", "missing", "not-a-list"],
)
def test_catalog_without_records_exits_3(tmp_path, capsys, text):
    from hypergamma.cli import main

    path = tmp_path / "catalog.json"
    path.write_text(text)
    assert main(["verify", "--catalog", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"catalog error: {path}: records must be a nonempty list\n"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"rule": "zj-split"}, "zj-split needs a nonempty list of points"),
        ({"rule": "zj-split", "points": []}, "zj-split needs a nonempty list of points"),
    ],
    ids=["fields0", "fields1"],
)
def test_record_built_in_code_that_checks_nothing_fails(fields, message):
    # a record built in code is compiled when it is made, with the checks
    # of catalog_load, and a record that would check nothing is not made
    with pytest.raises(CatalogError) as e:
        IdentityRecord.from_json({"id": "n", "kind": "transform-rule", **fields})
    assert str(e.value) == f"record 'n': {message}"


def test_retry_reports_the_time_of_both_attempts(monkeypatch):
    import hypergamma.catalog as catalog

    attempts = []

    def fake_verify_once(record, prec):
        attempts.append(prec.target_digits)
        if len(attempts) == 1:
            return ReportEntry(record.id, "inconclusive", None, 1.5, prec.target_digits)
        return ReportEntry(record.id, "pass", 45, 2.25, prec.target_digits)

    monkeypatch.setattr(catalog, "_verify_once", fake_verify_once)
    record = IdentityRecord.from_json({"id": "x", "kind": "proof-chain", "chain": "gosper-proof"})
    entry = verify_identity(record, Precision.of(30))
    assert attempts == [30, 60]
    assert (entry.verdict, entry.digits, entry.precision_digits) == ("pass", 45, 60)
    assert entry.seconds == 3.75


# Chu-Vandermonde: 2F1(-3, 1/2; 3/2; 1) = (1)_3 / (3/2)_3 = 16/35
EXACT_POINT_RECORD = {
    "id": "cv",
    "kind": "point-evaluation",
    "lhs": {"a": "-3", "b": "1/2", "c": "3/2", "z": "1"},
    "rhs": {"exact_product": {"poch_ratio": {"upper": ["1"], "lower": ["3/2"], "n": "3"}}},
}


def test_point_record_with_exact_product_is_verified_exactly(tmp_path):
    record = catalog_load(write_catalog(tmp_path, [EXACT_POINT_RECORD]))[0]
    entry = verify_identity(record, Precision.of(30))
    assert (entry.verdict, entry.digits) == ("pass", "exact")

    doubled = dict(EXACT_POINT_RECORD["rhs"]["exact_product"], pow_base="2", pow_exp="1")
    path = write_catalog(tmp_path, [dict(EXACT_POINT_RECORD, rhs={"exact_product": doubled})])
    entry = verify_identity(catalog_load(path)[0], Precision.of(30))
    assert entry.verdict == "fail"
    assert entry.detail == "exact mismatch: 16/35 != 32/35"


def test_a_failed_exact_point_record_certifies_no_digits(tmp_path, capsys):
    # (1)_3 / (3/2)_3 times 2 is 32/35, not the sum 16/35
    from hypergamma.cli import main

    doubled = dict(EXACT_POINT_RECORD["rhs"]["exact_product"], pow_base="2", pow_exp="1")
    path = write_catalog(tmp_path, [dict(EXACT_POINT_RECORD, rhs={"exact_product": doubled})])
    entry = verify_identity(catalog_load(path)[0], Precision.of(30))
    assert (entry.verdict, entry.digits) == ("fail", None)
    assert main(["verify", "--catalog", str(path), "--report", "json"]) == 1
    (reported,) = json.loads(capsys.readouterr().out)["entries"]
    assert (reported["verdict"], reported["digits"]) == ("fail", None)


@pytest.mark.parametrize(
    "points, message",
    [
        ([{"a": "1/4", "b": "1/4"}], "0 needs exactly a, b, z"),
        ([{"a": "1/4", "b": "1/4", "z": "1/4"}, 5], "1 needs exactly a, b, z"),
    ],
    ids=["missing-key", "not-an-object"],
)
def test_split_points_are_read_by_the_shared_reader(tmp_path, capsys, points, message):
    # zj-split's points are read as a family's are, with the same messages
    from hypergamma.cli import main

    path = write_catalog(tmp_path, [dict(SPLIT_RECORD, points=points)])
    assert main(["verify", "--catalog", str(path)]) == 3
    assert capsys.readouterr().err == f"catalog error: record 's': zj-split point {message}\n"


def test_family_points_keep_the_order_of_vars(tmp_path):
    # a point's keys may come in any order; its sample, and so its text in
    # a report, follows vars
    family = dict(
        FAMILY_RECORD,
        lhs={"a": "-n", "b": "m", "c": "m+1", "z": "1/4"},
        rhs={"rational": "1-n*m/(4*(m+1))"},
        parameters={"vars": ["n", "m"], "points": [{"m": "1/2", "n": "1"}, {"n": 0, "m": "3"}]},
    )
    record = catalog_load(write_catalog(tmp_path, [family]))[0]
    assert [at for at, _, _, _ in points(record)] == ["n=1, m=1/2", "n=0, m=3"]
    assert verify_identity(record, Precision.of(20)).verdict == "pass"


@pytest.mark.parametrize(
    "knobs", [{"sampler": "gauss"}, {"count": 30}, {"seed": 1803}],
    ids=["sampler", "count", "seed"],
)
def test_family_with_the_sampler_knobs_exits_3(tmp_path, capsys, knobs):
    # a family lists its points: sampler, count and seed are unknown fields
    from hypergamma.cli import main

    parameters = dict(FAMILY_RECORD["parameters"], **knobs)
    path = write_catalog(tmp_path, [dict(FAMILY_RECORD, parameters=parameters)])
    assert main(["verify", "--catalog", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"catalog error: record 'f': unknown parameters fields {sorted(knobs)}\n"


def test_family_and_split_records_compile_at_load(tmp_path):
    family, split = catalog_load(write_catalog(tmp_path, [FAMILY_RECORD, SPLIT_RECORD]))
    assert [(at, p.a, z, rhs) for at, p, z, rhs in points(family)] == [
        ("n=0", 0, F(1, 4), 1), ("n=1", -1, F(1, 4), 1), ("n=2", -2, F(1, 4), 1)
    ]
    assert split.run.args == (((F(1, 4), F(1, 4), F(1, 4)),),)


@pytest.mark.parametrize("fields", [{"samples": 20}, {"seed": 101}, {"samples": 20, "seed": 101}])
def test_rule_record_with_the_sampling_knobs_exits_3(tmp_path, capsys, fields):
    # a rule is proved, not sampled: samples and seed are unknown fields
    from hypergamma.cli import main

    path = write_catalog(tmp_path, [dict(RULE_RECORD, **fields)])
    assert main(["verify", "--catalog", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"catalog error: record 'r': unknown fields {sorted(fields)}\n"


def test_rule_records_are_proved_exactly_with_no_evaluation(monkeypatch):
    import hypergamma.catalog as catalog
    import hypergamma.hyper as hyper
    import hypergamma.transforms as transforms

    calls, f21_eval = [], hyper.f21_eval

    def counted(*args):
        calls.append(args)
        return f21_eval(*args)

    for module in (catalog, hyper, transforms):
        monkeypatch.setattr(module, "f21_eval", counted)
    records = [r for r in catalog_load(DEFAULT_CATALOG) if r.id.startswith("rule-")]
    assert len(records) == 4
    for record in records:
        entry = verify_identity(record, Precision.of(100))
        assert (entry.verdict, entry.digits, entry.detail) == ("pass", "exact", ""), record.id
    assert calls == []


def test_a_wrong_rule_fails_naming_the_coefficient_and_the_point(monkeypatch):
    import dataclasses

    from hypergamma.transforms import CUBIC, RULES

    (base, (ca, cb, cc, k)), = CUBIC.prefactor_map
    wrong = dataclasses.replace(CUBIC, prefactor_map=((base, (ca, cb, cc, k + F(1, 48))),))
    monkeypatch.setitem(RULES, "cubic", wrong)
    record = IdentityRecord.from_json({"id": "c", "kind": "transform-rule", "rule": "cubic"})
    entry = verify_identity(record, Precision.of(30))
    assert (entry.verdict, entry.digits, entry.precision_digits) == ("fail", None, 30)
    assert entry.detail.startswith("rule cubic: A = ")
    assert " at (a, b, c) = (" in entry.detail and ", w = " in entry.detail
