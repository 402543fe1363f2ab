"""Persistent identity catalog, verification runner, and report generation.

Catalog files are JSON with a schema version and a list of records.  Each
record's `kind` selects exactly one verification strategy:

* ``point-evaluation``: fixed parameters and argument; the series/integral
  value is compared against a Gamma-product expression (or a signed sum of
  them, or an exact rational).
* ``parametric-family``: the lhs parameters, argument, and rhs expression
  are templates over named variables; samples come from an explicit grid or
  an explicit list of points.  Exact rhs kinds compare as rationals.
* ``transform-rule``: the exact proof of a named rewrite rule, or the
  fixed-point checks of the series splitting transform.
* ``proof-chain``: the derivation chain of the headline evaluation, or the
  per-step proof verification of the 2F1(1/4) closed form.

Template expressions ("5/2-2*b", "b/(a+b)", ...) are exact rational
expressions; only +, -, *, / and named variables are allowed.  A record
is compiled when `IdentityRecord.from_json` makes it, for `catalog_load`
or for other code, into its `run`, and that is its validation: the rule or
chain it names, or every template evaluated once at every sample into
the concrete points the run checks.  At each sample the lhs must have a
value (and terminate if the rhs is exact), any exact product must be
defined, and the Gamma arguments, bases and surds of any Gamma expression
must be positive.  A fault raises the same CatalogError either way;
verifying evaluates no template.

Verdicts per record are pass / fail / inconclusive; an inconclusive
comparison is retried once at doubled precision.  A fail entry
records both computed intervals.  Reports order records by id regardless of
execution order, and the exit-code contract is: 0 all pass, 1 any fail,
2 any inconclusive, 3 usage/parse errors.
"""

from __future__ import annotations

import ast
import json
import operator
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .exact import rational, rational_str
from .gammaexpr import (
    GammaExpr,
    GammaExprError,
    Verdict,
    achieved_digits,
    check_positive,
    ge_eval,
    num_equal,
)
from .hyper import (
    HyperError,
    HypParams,
    check_domain,
    check_lower_poles,
    f21_eval,
    f21_terminating,
    hyper_terms,
)
from .mpreal import BigReal, MPRealError, Precision
from .transforms import (
    PROOF_B_RANGE,
    RULES,
    DerivationError,
    TransformError,
    TransformRule,
    derive_main,
    prove_rule,
    verify_gosper_proof,
    verify_zj_split,
)

SCHEMA_VERSION = 1
DEFAULT_DIGITS = 100
# the most digits a run may ask for, by --digits or a record's pin: 100
# times the largest documented run (derive_main at 1000 digits); far above
# it the series kernel's fixed-point shifts overflow
MAX_DIGITS = 100_000
DEFAULT_CATALOG = Path(__file__).parent / "data" / "identities.json"
CANARY_CATALOG = Path(__file__).parent / "data" / "canary.json"

KINDS = ("point-evaluation", "parametric-family", "transform-rule", "proof-chain")

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 3

# the exit code of a run whose worst verdict is the key
EXIT_CODE = {
    Verdict.EQUAL: EXIT_PASS,
    Verdict.DISTINCT: EXIT_FAIL,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class CatalogError(ValueError):
    """Catalog parse or validation failure (exit code 3 territory)."""


# ---------------------------------------------------------------------------
# exact expression templates

Env = dict[str, Fraction]
Template = Callable[[Env], Fraction]

# One comparison made while verifying a record: its verdict, the digits to
# which the two sides provably agree (None: exact, or not measured), the
# detail to report if it is distinct, and the two enclosures (None when the
# comparison yields only a verdict).
Check = tuple[Verdict, "int | None", str, "BigReal | None", "BigReal | None"]
Checks = Callable[[Precision], Iterator[Check]]

# The rhs at a precision from its value at a sample: an enclosure, or an
# exact rational.
RhsValue = Callable[[object, Precision], "BigReal | Fraction"]

_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}


def _compile_expr(text, where: str = "") -> tuple[Template, frozenset[str]]:
    """Parse an exact rational expression (+, -, *, /, integer literals and
    variables) once into a closure over its variables, together with the
    variable names it reads.  Its errors at parse begin with `where`; those
    at evaluation do not, as `_check_samples` names the record and the
    sample."""
    text, where = str(text), f"{where}: " if where else ""
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError as e:
        raise CatalogError(f"{where}bad expression {text!r}: {e}") from None
    names: set[str] = set()

    def build(n: ast.AST) -> tuple[Template, bool]:
        """The closure of node n, and whether n reads no variable."""
        if isinstance(n, ast.Constant) and type(n.value) is int:
            value = Fraction(n.value)
            return (lambda env: value), True
        if isinstance(n, ast.Name):
            names.add(n.id)
            return operator.itemgetter(n.id), False
        if isinstance(n, ast.BinOp) and type(n.op) in _BINARY:
            op, (left, lc), (right, rc) = _BINARY[type(n.op)], build(n.left), build(n.right)
            fn, constant = (lambda env: op(left(env), right(env))), lc and rc
        elif isinstance(n, ast.UnaryOp) and type(n.op) in _UNARY:
            op, (inner, constant) = _UNARY[type(n.op)], build(n.operand)
            fn = lambda env: op(inner(env))
        else:
            raise CatalogError(f"{where}{ast.unparse(n)!r} is not allowed in {text!r}")
        if not constant:
            return fn, False
        value = fn({})  # a constant subexpression is evaluated once, here
        return (lambda env: value), True

    try:
        fn, _ = build(tree)
    except ZeroDivisionError:
        raise CatalogError(f"{where}division by zero in {text!r}") from None

    def evaluate(env: Env) -> Fraction:
        try:
            return fn(env)
        except KeyError as e:
            raise CatalogError(f"unknown variable {e.args[0]!r} in {text!r}") from None
        except ZeroDivisionError:
            raise CatalogError(f"division by zero in {text!r}") from None

    return evaluate, frozenset(names)


def expr_eval(text: str, env: Env | None = None) -> Fraction:
    """Evaluate an exact rational expression with +, -, *, / and variables."""
    return _compile_expr(text)[0](env or {})


def _template(text, variables: set[str], where: str) -> Template:
    fn, names = _compile_expr(text, where)
    bad = names - variables
    if bad:
        raise CatalogError(f"{where}: unknown names {sorted(bad)} in {text!r}")
    return fn


def _rational(value, where: str) -> Fraction:
    if isinstance(value, bool):  # rational(True) would be 1
        raise CatalogError(f"{where}: {value!r} is not a number")
    if isinstance(value, float):  # rational(0.1) would be its binary value
        raise CatalogError(f"{where}: float {value!r} is not exact; write it as \"p/q\"")
    try:
        return rational(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise CatalogError(f"{where}: {value!r} is not a rational") from None


def _integer(value, where: str) -> int:
    q = _rational(value, where)
    if q.denominator != 1:
        raise CatalogError(f"{where}: {value!r} is not an integer")
    return int(q)


def _sample_text(env: Env) -> str:
    # str of a Fraction is rational_str's "p/q", or "p" for an integer
    return ", ".join(f"{k}={v}" for k, v in env.items())


def _check_samples(fn: Callable[[Env], object], samples: Sequence[Env], where: str) -> list:
    """fn at every sample, in order: a HyperError, GammaExprError or
    CatalogError at any sample is a catalog error naming the record and
    the sample."""
    values = []
    for env in samples:
        try:
            values.append(fn(env))
        except (HyperError, GammaExprError, CatalogError) as e:
            at = _sample_text(env)
            raise CatalogError(f"{where}{' at ' + at if at else ''}: {e}") from None
    return values


def _compile_lhs(
    lhs, variables: set[str], samples: Sequence[Env], exact: bool, where: str
) -> list[tuple[HypParams, Fraction]]:
    """The lhs parameters and argument at every sample, where the series
    must have a value, and terminate if the rhs is exact."""
    if not isinstance(lhs, dict) or set(lhs) != {"a", "b", "c", "z"}:
        raise CatalogError(f"{where}: lhs must define a, b, c, z")
    a, b, c, z = (_template(lhs[k], variables, f"{where} lhs.{k}") for k in "abcz")

    def params(env: Env) -> tuple[HypParams, Fraction]:
        p, arg = HypParams(a(env), b(env), c(env)), z(env)
        check_domain(p, arg)
        if exact and p.terminating_degree is None:
            raise HyperError("an exact rhs needs a terminating lhs")
        return p, arg

    return _check_samples(params, samples, f"{where} lhs")


def _compile_gamma_expr(data, variables: set[str], samples: Sequence[Env], where: str) -> list:
    """The factors of a Gamma expression at every sample, as GammaExpr's
    fields take them, checked as GammaExpr checks them."""
    if not isinstance(data, dict):
        raise CatalogError(f"{where}: gamma_expr must be an object")
    unknown = set(data) - {"rat", "pi", "gamma", "surd"}
    if unknown:
        raise CatalogError(f"{where}: unknown gamma_expr fields {sorted(unknown)}")

    def t(text) -> Template:
        return _template(text, variables, where)

    def entries(field: str, width: int) -> list:
        value = data.get(field, [])
        if not isinstance(value, list) or not all(
            isinstance(e, list) and len(e) == width for e in value
        ):
            raise CatalogError(f"{where}: {field} must be a list of {width}-element lists")
        return value

    rats = [(t(b), t(e)) for b, e in entries("rat", 2)]
    pi = t(data.get("pi", "0"))
    gammas = [(t(a), _integer(e, where)) for a, e in entries("gamma", 2)]
    surds = [(t(p), t(q), t(d), _integer(e, where)) for p, q, d, e in entries("surd", 4)]

    def factors(env: Env) -> tuple:
        rat = [(b(env), e(env)) for b, e in rats]
        gamma = [(a(env), e) for a, e in gammas]
        surd = [(p(env), q(env), d(env), e) for p, q, d, e in surds]
        check_positive(rat, gamma, surd)
        return rat, pi(env), gamma, surd

    return _check_samples(factors, samples, where)


def _gamma_sum(terms, prec: Precision) -> BigReal:
    """The sum of the (sign, factors) Gamma-expression `terms`, begun at the
    first, as one begun at 0 would add an ulp to the radius."""
    pieces = [ge_eval(GammaExpr(*factors), prec) for _, factors in terms]
    first, *rest = (x if sign > 0 else -x for (sign, _), x in zip(terms, pieces))
    return sum(rest, first)


def _compile_exact_product(
    value, variables: set[str], samples: Sequence[Env], where: str
) -> tuple[list, Callable]:
    """The (base, exponent, Pochhammer index) of an exact product at every
    sample, defined at each, and the product of such factors."""
    if not isinstance(value, dict):
        raise CatalogError(f"{where}: exact_product must be an object")
    unknown = set(value) - {"pow_base", "pow_exp", "poch_ratio"}
    if unknown:
        raise CatalogError(f"{where}: unknown exact_product fields {sorted(unknown)}")
    base = _template(value.get("pow_base", "1"), variables, where)
    expo = _template(value.get("pow_exp", "0"), variables, where)
    pr = value.get("poch_ratio")
    if pr is not None:
        if not isinstance(pr, dict) or set(pr) != {"upper", "lower", "n"} or not all(
            isinstance(pr[k], list) for k in ("upper", "lower")
        ):
            raise CatalogError(f"{where}: poch_ratio needs upper and lower lists and n")
        upper = [_rational(u, where) for u in pr["upper"]]
        lower = [_rational(l, where) for l in pr["lower"]]
        index = _template(pr["n"], variables, where)

    def factors(env: Env) -> tuple[Fraction, int, int]:
        b, e = base(env), expo(env)
        if e.denominator != 1:
            raise CatalogError("exact_product exponent must be an integer")
        if b == 0 and e < 0:
            raise CatalogError("exact_product divides by zero")
        if pr is None:
            return b, int(e), 0
        n = index(env)
        if n.denominator != 1 or n < 0:
            raise CatalogError("poch_ratio index must be a nonnegative integer")
        check_lower_poles(lower, int(n))
        return b, int(e), int(n)

    points = _check_samples(factors, samples, where)

    @cache
    def ratios() -> dict[int, Fraction]:  # one walk to the largest index, at first use
        wanted = {n for _, _, n in points}
        walk = enumerate(hyper_terms(upper, lower, 1, max(wanted)))
        return {n: Fraction(*t) for n, t in walk if n in wanted}

    def product(at: tuple[Fraction, int, int], prec: Precision) -> Fraction:
        b, e, n = at
        return b**e if pr is None else b**e * ratios()[n]

    return points, product


_RHS_KINDS = {"gamma_expr", "gamma_expr_sum", "rational", "exact_product"}


def _compile_rhs(
    rhs, variables: set[str], samples: Sequence[Env], where: str
) -> tuple[list, RhsValue, bool]:
    """The rhs as a value at every sample, the function that gives such a
    value at a precision, and whether that is an exact rational."""
    if not isinstance(rhs, dict) or len(rhs) != 1:
        raise CatalogError(f"{where}: rhs must have exactly one of {sorted(_RHS_KINDS)}")
    (key, value), = rhs.items()
    if key == "rational":
        values = _check_samples(_template(value, variables, where), samples, where)
        return values, lambda q, prec: BigReal.from_fraction(q, prec.work_bits), False
    if key == "exact_product":
        return *_compile_exact_product(value, variables, samples, where), True
    if key == "gamma_expr":
        terms = [(1, value, where)]
    elif key == "gamma_expr_sum":
        if not isinstance(value, list) or not value:
            raise CatalogError(f"{where}: gamma_expr_sum must be a nonempty list of terms")
        terms = []
        for i, term in enumerate(value):
            if not isinstance(term, dict) or set(term) != {"sign", "expr"}:
                raise CatalogError(f"{where}: sum term {i} needs sign and expr")
            if term["sign"] not in (1, -1) or isinstance(term["sign"], bool):
                raise CatalogError(f"{where}: sum term sign must be 1 or -1")
            terms.append((term["sign"], term["expr"], f"{where} term {i}"))
    else:
        raise CatalogError(f"{where}: unknown rhs kind {key!r}")
    # one column of (sign, factors) per term, one row per sample
    columns = [
        [(sign, factors) for factors in _compile_gamma_expr(expr, variables, samples, at)]
        for sign, expr, at in terms
    ]
    return list(zip(*columns)), _gamma_sum, False


# ---------------------------------------------------------------------------
# records


_COMMON_FIELDS = {"id", "kind", "source", "digits"}
_KIND_FIELDS = {
    "point-evaluation": {"lhs", "rhs"},
    "parametric-family": {"lhs", "rhs", "parameters"},
    "transform-rule": {"rule", "points"},
    "proof-chain": {"chain", "b"},
}


@dataclass(frozen=True)
class IdentityRecord:
    """A catalog record, compiled when `from_json` makes it into its `run`,
    which yields its checks at a precision.  A point or family record's run
    holds its points, every template evaluated at every sample; `exact`
    marks one whose rhs is an exact rational, compared exactly."""

    id: str
    kind: str
    run: Checks
    source: str = ""
    digits: int | None = None
    exact: bool = False

    @classmethod
    def from_json(cls, data, where: str = "record") -> IdentityRecord:
        """Compile one record's JSON object; a fault raises CatalogError
        naming the record by its id, or by `where` if it has none."""
        if not isinstance(data, dict):
            raise CatalogError(f"{where}: not an object")
        rid = data.get("id")
        if not isinstance(rid, str) or not rid:
            raise CatalogError(f"{where}: missing string id")
        where = f"record {rid!r}"
        kind = data.get("kind")
        if kind not in KINDS:
            raise CatalogError(f"{where}: unknown kind {kind!r}")
        unknown = set(data) - _COMMON_FIELDS - _KIND_FIELDS[kind]
        if unknown:
            raise CatalogError(f"{where}: unknown fields {sorted(unknown)}")
        digits = data.get("digits")
        if digits is not None and (type(digits) is not int or not 1 <= digits <= MAX_DIGITS):
            raise CatalogError(f"{where}: digits must be an integer from 1 to {MAX_DIGITS}")

        record = partial(cls, rid, kind, source=data.get("source", ""), digits=digits)
        if kind == "transform-rule":
            return record(_compile_rule(data, where), exact=data["rule"] in RULES)
        if kind == "proof-chain":
            return record(_compile_chain(data, where))
        variables, samples = _compile_samples(data, where)
        rhs, value, exact = _compile_rhs(data.get("rhs"), variables, samples, where)
        lhs = _compile_lhs(data.get("lhs"), variables, samples, exact, where)
        points = tuple(
            (_sample_text(env), p, z, r) for env, (p, z), r in zip(samples, lhs, rhs)
        )
        return record(partial(_sample_checks, points, value), exact=exact)


def catalog_load(path: str | Path) -> list[IdentityRecord]:
    """Load and validate a catalog file; raises CatalogError with the
    offending record named."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CatalogError(f"catalog file not found: {path}") from None
    except OSError as e:
        raise CatalogError(f"cannot read catalog {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise CatalogError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise CatalogError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise CatalogError(f"{path}: top level must be an object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise CatalogError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, "
            f"got {data.get('schema_version')!r}"
        )
    unknown = set(data) - {"schema_version", "records"}
    if unknown:
        raise CatalogError(f"{path}: unknown top-level fields {sorted(unknown)}")
    if not isinstance(data.get("records"), list) or not data["records"]:
        raise CatalogError(f"{path}: records must be a nonempty list")
    records = [IdentityRecord.from_json(r, f"record #{i}") for i, r in enumerate(data["records"])]
    seen: dict[str, int] = {}
    for i, r in enumerate(records):
        if r.id in seen:
            raise CatalogError(
                f"duplicate id {r.id!r} (records #{seen[r.id]} and #{i})"
            )
        seen[r.id] = i
    return records


# ---------------------------------------------------------------------------
# samples


def _grid_values(spec, where: str) -> list[Fraction]:
    if isinstance(spec, dict):
        if set(spec) != {"from", "to"}:
            raise CatalogError(f"{where}: grid range needs from/to")
        lo, hi = _integer(spec["from"], where), _integer(spec["to"], where)
        if lo > hi:
            raise CatalogError(f"{where}: grid range from {lo} to {hi} is empty")
        return [Fraction(n) for n in range(lo, hi + 1)]
    if not isinstance(spec, list) or not spec:
        raise CatalogError(f"{where}: grid values must be a nonempty list")
    return [_rational(v, where) for v in spec]


def _points(value, names: Sequence[str], where: str, owner: str) -> list[Env]:
    """The listed points of a family or of zj-split: a nonempty list of
    objects whose keys are exactly `names`, each read, in that order, into
    exact rationals."""
    if not isinstance(value, list) or not value:
        raise CatalogError(f"{where}: {owner} needs a nonempty list of points")
    envs = []
    for i, point in enumerate(value):
        if not isinstance(point, dict) or set(point) != set(names):
            raise CatalogError(f"{where}: {owner} point {i} needs exactly {', '.join(names)}")
        envs.append({k: _rational(point[k], f"{where} point {i}") for k in names})
    return envs


def _compile_samples(data: dict, where: str) -> tuple[set[str], tuple[Env, ...]]:
    """The variables of a point or family record and its samples, all made
    here: one empty sample for a point record, else the grid's cross
    product or the listed points, each with its variables in `vars` order."""
    if data["kind"] != "parametric-family":
        return set(), ({},)
    params = data.get("parameters")
    if not isinstance(params, dict):
        raise CatalogError(f"{where}: parametric-family needs parameters")
    unknown = set(params) - {"vars", "grid", "points"}
    if unknown:
        raise CatalogError(f"{where}: unknown parameters fields {sorted(unknown)}")
    names = params.get("vars")
    if not (isinstance(names, list) and names and all(isinstance(v, str) for v in names)):
        raise CatalogError(f"{where}: parameters.vars must be a nonempty list of names")
    variables = set(names)
    if ("grid" in params) == ("points" in params):
        raise CatalogError(f"{where}: need exactly one of grid or points")
    if "points" in params:
        return variables, tuple(_points(params["points"], names, where, "parametric-family"))
    grid = params["grid"]
    if not isinstance(grid, dict) or set(grid) != variables:
        raise CatalogError(f"{where}: grid keys must match vars")
    envs: list[Env] = [{}]
    for var in names:
        values = _grid_values(grid[var], f"{where} grid.{var}")
        envs = [dict(e, **{var: v}) for e in envs for v in values]
    return variables, tuple(envs)


# ---------------------------------------------------------------------------
# verification

_ENTRY_VERDICT = {
    Verdict.EQUAL: "pass",
    Verdict.DISTINCT: "fail",
    Verdict.INCONCLUSIVE: "inconclusive",
}


@dataclass(frozen=True)
class ReportEntry:
    id: str
    verdict: str  # pass | fail | inconclusive
    digits: int | str | None
    seconds: float
    precision_digits: int
    detail: str = ""
    interval_lhs: str = ""
    interval_rhs: str = ""

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "verdict": self.verdict,
            "digits": self.digits,
            "seconds": round(self.seconds, 3),
            "precision_digits": self.precision_digits,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.interval_lhs:
            out["interval_lhs"] = self.interval_lhs
            out["interval_rhs"] = self.interval_rhs
        return out


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[ReportEntry, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "inconclusive": 0}
        for e in self.entries:
            out[e.verdict] += 1
        return out

    @property
    def exit_code(self) -> int:
        verdict_of = {name: v for v, name in _ENTRY_VERDICT.items()}
        return EXIT_CODE[Verdict.worst(verdict_of[e.verdict] for e in self.entries)]

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            digits = "exact" if e.digits == "exact" else (
                f"{e.digits} digits" if e.digits is not None else "-"
            )
            lines.append(
                f"{e.verdict.upper():12s} {e.id:32s} {digits:>12s} "
                f"({e.precision_digits}-digit run, {e.seconds:.2f}s)"
                + (f"  {e.detail}" if e.verdict != "pass" and e.detail else "")
            )
        c = self.counts
        lines.append(
            f"total: {len(self.entries)}  pass: {c['pass']}  fail: {c['fail']}  "
            f"inconclusive: {c['inconclusive']}"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "counts": self.counts,
            "exit_code": self.exit_code,
        }


def _fold(checks: Iterable[Check]) -> Check:
    """The verdict of a record: the first distinct check ends the record and
    is reported; otherwise the worst verdict, and inconclusive if no check
    ran.  Digits are the fewest any check agreed to."""
    verdicts: list[Verdict] = []
    digits: list[int] = []
    for verdict, d, detail, lhs, rhs in checks:
        if d is not None:
            digits.append(d)
        if verdict is Verdict.DISTINCT:
            return verdict, min(digits, default=None), detail, lhs, rhs
        verdicts.append(verdict)
    if not verdicts:
        return Verdict.INCONCLUSIVE, None, "no check ran", None, None
    return Verdict.worst(verdicts), min(digits, default=None), "", None, None


def _sample_checks(points: Sequence[tuple], value: RhsValue, prec: Precision) -> Iterator[Check]:
    """The series against the rhs at each point, its sample's text, lhs
    parameters and argument, and rhs value (a rational, an exact product's
    factors, or the signed factors of each Gamma-expression term): the
    terminating sum against an exact rational, else enclosures at `prec`."""
    for at, p, z, rhs in points:
        want = value(rhs, prec)
        if isinstance(want, Fraction):
            got = f21_terminating(p, z)
            if got == want:
                yield Verdict.EQUAL, None, "", None, None
            else:
                detail = f"exact mismatch at {at}" if at else "exact mismatch"
                detail += f": {rational_str(got)} != {rational_str(want)}"
                yield Verdict.DISTINCT, None, detail, None, None
            continue
        lhs_val = f21_eval(p, z, prec)
        yield (
            num_equal(lhs_val, want, prec),
            achieved_digits(lhs_val, want),
            f"distinct at {at}" if at else "intervals disjoint",
            lhs_val,
            want,
        )


def _split_checks(
    points: Sequence[tuple[Fraction, Fraction, Fraction]], prec: Precision
) -> Iterator[Check]:
    for a, b, z in points:
        at = f"a={rational_str(a)}, b={rational_str(b)}, z={rational_str(z)}"
        yield verify_zj_split(a, b, z, prec), None, f"split distinct at {at}", None, None


def _rule_proof(rule: TransformRule, prec: Precision) -> Iterator[Check]:
    failure = prove_rule(rule)
    yield Verdict.DISTINCT if failure else Verdict.EQUAL, None, failure or "", None, None


def _compile_rule(data: dict, where: str) -> Checks:
    name, points = data.get("rule"), data.get("points")
    if name == "zj-split":
        envs = _points(points, ("a", "b", "z"), where, "zj-split")
        return partial(_split_checks, tuple(tuple(env.values()) for env in envs))
    if not isinstance(name, str) or name not in RULES:
        raise CatalogError(f"{where}: unknown transform rule {name!r}")
    if points is not None:
        raise CatalogError(f"{where}: rule {name!r} is proved exactly; points are unused")
    return partial(_rule_proof, RULES[name])


def _main_derivation_checks(prec: Precision) -> Iterator[Check]:
    trace = derive_main(prec)
    yield trace.verdict, trace.agreement_digits, "", None, None


def _gosper_proof_checks(b_values: Sequence[Fraction], prec: Precision) -> Iterator[Check]:
    for b in b_values:
        for step, verdict in verify_gosper_proof(b, prec).items():
            detail = f"step {step} distinct at b={rational_str(b)}"
            yield verdict, None, detail, None, None


def _compile_chain(data: dict, where: str) -> Checks:
    chain, b = data.get("chain"), data.get("b")
    if chain == "main-derivation":
        if b is not None:
            raise CatalogError(f"{where}: main-derivation takes no b")
        return _main_derivation_checks
    if chain == "gosper-proof":
        if b is None:
            return partial(_gosper_proof_checks, (Fraction(5, 8),))
        if not isinstance(b, list) or not b:
            raise CatalogError(f"{where}: b must be a nonempty list of rationals")
        b = tuple(_rational(x, f"{where} b") for x in b)
        for x in b:
            if not PROOF_B_RANGE[0] < x < PROOF_B_RANGE[1]:
                raise CatalogError(
                    f"{where}: b = {rational_str(x)} is outside (1/2, 5/6), "
                    "where the proof's integrals converge"
                )
        return partial(_gosper_proof_checks, b)
    raise CatalogError(f"{where}: unknown proof chain {chain!r}")


def _verify_once(record: IdentityRecord, prec: Precision) -> ReportEntry:
    start = time.perf_counter()
    try:
        verdict, digits, detail, lhs, rhs = _fold(record.run(prec))
    except (HyperError, MPRealError, TransformError, DerivationError) as e:
        return ReportEntry(
            record.id, "fail", None, time.perf_counter() - start,
            prec.target_digits, detail=f"{type(e).__name__}: {e}",
        )
    if record.exact:  # a failed exact check certifies no digits
        digits = "exact" if verdict == Verdict.EQUAL else None
    return ReportEntry(
        record.id,
        _ENTRY_VERDICT[verdict],
        digits,
        time.perf_counter() - start,
        prec.target_digits,
        detail=detail,
        interval_lhs=lhs.to_decimal() if lhs is not None else "",
        interval_rhs=rhs.to_decimal() if rhs is not None else "",
    )


def verify_identity(record: IdentityRecord, prec: Precision) -> ReportEntry:
    """Verify one record; an inconclusive result is retried once at doubled
    precision before being reported, with the time of both attempts."""
    entry = _verify_once(record, prec)
    if entry.verdict != "inconclusive":
        return entry
    retry = _verify_once(record, Precision.of(2 * prec.target_digits))
    detail = retry.detail
    if retry.verdict == "inconclusive":
        detail = (detail + " (after doubled-precision retry)").strip()
    return replace(retry, seconds=entry.seconds + retry.seconds, detail=detail)


def record_precision(record: IdentityRecord, default_digits: int) -> Precision:
    """Per-record pins override the run default."""
    return Precision.of(record.digits if record.digits else default_digits)


def run_all(
    catalog: str | Path | Sequence[IdentityRecord],
    digits: int = DEFAULT_DIGITS,
    only: str | None = None,
) -> VerificationReport:
    """Verify a catalog and return a deterministic, id-ordered report."""
    if isinstance(catalog, (str, Path)):
        records = catalog_load(catalog)
    else:
        records = list(catalog)
    if only is not None:
        records = [r for r in records if r.id == only]
        if not records:
            raise CatalogError(f"no record with id {only!r}")
    entries = sorted(
        (verify_identity(r, record_precision(r, digits)) for r in records),
        key=lambda e: e.id,
    )
    return VerificationReport(tuple(entries))
