"""2F1 transformation rules as exact rewrites, Gosper's 2F1(1/4) formula
with machine-checkable proof steps, and the quadratic-quadratic-cubic chain
that produces the degree-12 evaluation at argument (172872/185039)^2.

A `HypTerm` is prefactor(z) * 2F1(a,b;c; argument(z)) with the prefactor
kept as a factored list of (polynomial base, rational exponent) pairs and
the argument as an exact rational function.  A `TransformRule` rewrites a
term whose parameters satisfy an exact linear constraint: parameters map
affinely, the argument map composes exactly, and rule prefactor bases
(polynomials in the old argument) are composed and split into polynomial
factors of the new variable.  Everything symbolic is exact, and so is each
rule's proof (`prove_rule`); numerics enter only in the verification routines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import Poly, RatFunc, poly_from_pairs, rational_str
from .gammaexpr import GammaExpr, Verdict, achieved_digits, ge_eval, num_equal
from .hyper import HypParams, euler_integrand, f21_eval, f21_integral, f21_series
from .mpreal import BigReal, PowerIntegrand, Precision, _bernstein_positive, beta, cos_pi_times, gamma, pi_value


class TransformError(ValueError):
    """Rule constraint violation or malformed term."""


class DerivationError(ArithmeticError):
    """Internal mismatch while reproducing the chain evaluation."""


Affine = tuple[Fraction, Fraction, Fraction, Fraction]  # ca*a + cb*b + cc*c + k


def _affine(row: Affine, p: HypParams) -> Fraction:
    ca, cb, cc, k = row
    return ca * p.a + cb * p.b + cc * p.c + k


@dataclass(frozen=True)
class HypTerm:
    """prefactor(z) * 2F1(params; argument(z)) with exact symbolic parts."""

    prefactor: tuple[tuple[Poly, Fraction], ...]
    params: HypParams
    argument: RatFunc

    def prefactor_value(self, z: Fraction) -> GammaExpr:
        """Exact prefactor value at z as a product of rational powers.

        Every base must evaluate strictly positive (real principal powers
        only); a nonpositive base raises TransformError.
        """
        z = Fraction(z)
        out = GammaExpr.one()
        for base, expo in self.prefactor:
            v = base(z)
            if v <= 0:
                raise TransformError(
                    f"prefactor base {base!r} is {rational_str(v)} <= 0 at "
                    f"z = {rational_str(z)}"
                )
            out = out * GammaExpr.from_rational(v, expo)
        return out

    def to_json(self) -> dict:
        return {
            "prefactor": [
                {"base": base.to_json(), "exponent": rational_str(expo)}
                for base, expo in self.prefactor
            ],
            "params": {
                "a": rational_str(self.params.a),
                "b": rational_str(self.params.b),
                "c": rational_str(self.params.c),
            },
            "argument": self.argument.to_json(),
        }


@dataclass(frozen=True)
class TransformRule:
    """A 2F1 rewrite: constraint on (a,b,c), affine parameter map, exact
    argument map in the old argument w, prefactor bases in w with
    parameter-dependent exponents, and the region [lo, hi] it is proved on."""

    name: str
    constraints: tuple[Affine, ...]
    param_map: tuple[Affine, Affine, Affine]
    arg_map: RatFunc
    prefactor_map: tuple[tuple[Poly, Affine], ...]
    region: tuple[Fraction, Fraction]

    def applies_to(self, p: HypParams) -> bool:
        return all(_affine(row, p) == 0 for row in self.constraints)

    def new_params(self, p: HypParams) -> HypParams:
        return HypParams(*(_affine(row, p) for row in self.param_map))


def apply_rule(rule: TransformRule, term: HypTerm) -> HypTerm:
    """Rewrite a term by one rule application; exact, no numerics.

    The rule's argument map composes with the term's argument; each rule
    prefactor base B(w) becomes B(argument(z)), split into a numerator
    polynomial factor and a denominator polynomial factor of z.
    """
    if not rule.applies_to(term.params):
        raise TransformError(
            f"rule {rule.name} constraint violated at params "
            f"({rational_str(term.params.a)}, {rational_str(term.params.b)}; "
            f"{rational_str(term.params.c)})"
        )
    new_arg = rule.arg_map.compose(term.argument)
    prefactor = list(term.prefactor)
    for base, exp_row in rule.prefactor_map:
        expo = _affine(exp_row, term.params)
        if expo == 0:
            continue
        composed = RatFunc(base).compose(term.argument)
        if composed.num.is_zero:
            raise TransformError(
                f"rule {rule.name} prefactor base {base!r} vanishes identically "
                "after composition"
            )
        if composed.num != Poly.one():
            prefactor.append((composed.num, expo))
        if composed.den != Poly.one():
            prefactor.append((composed.den, -expo))
    return HypTerm(tuple(prefactor), rule.new_params(term.params), new_arg)


def _row(ca=0, cb=0, cc=0, k=0) -> Affine:
    return (Fraction(ca), Fraction(cb), Fraction(cc), Fraction(k))


# Euler's transform: 2F1(a,b;c;w) = (1-w)^(c-a-b) 2F1(c-a, c-b; c; w)
EULER = TransformRule(
    name="euler",
    constraints=(),
    param_map=(_row(-1, 0, 1), _row(0, -1, 1), _row(0, 0, 1)),
    arg_map=RatFunc.x(),
    prefactor_map=((poly_from_pairs((0, 1), (1, -1)), _row(-1, -1, 1)),),
    region=(Fraction(-3, 4), Fraction(3, 4)),
)


# Quadratic transform at c = 2b:
# 2F1(a,b;2b;w) = (1-w)^(b-a) (1-w/2)^(a-2b)
#                 * 2F1(b-a/2, b+(1-a)/2; b+1/2; w^2/(2-w)^2)
QUADRATIC_C_2B = TransformRule(
    name="quadratic-c-2b",
    constraints=(_row(0, -2, 1),),
    param_map=(
        _row(Fraction(-1, 2), 1, 0),
        _row(Fraction(-1, 2), 1, 0, Fraction(1, 2)),
        _row(0, 1, 0, Fraction(1, 2)),
    ),
    arg_map=RatFunc(
        poly_from_pairs((2, 1)), poly_from_pairs((2, 1), (1, -4), (0, 4))
    ),
    prefactor_map=(
        (poly_from_pairs((0, 1), (1, -1)), _row(-1, 1)),
        (poly_from_pairs((0, 1), (1, Fraction(-1, 2))), _row(1, -2)),
    ),
    region=(Fraction(-1, 2), Fraction(3, 5)),
)


# Quadratic transform at c = (a+b+1)/2:
# 2F1(a,b;(a+b+1)/2;w) = (1-2w)^(-a)
#                        * 2F1(a/2, (a+1)/2; (a+b+1)/2; 4w(w-1)/(2w-1)^2)
QUADRATIC_MEAN = TransformRule(
    name="quadratic-mean",
    constraints=(_row(Fraction(-1, 2), Fraction(-1, 2), 1, Fraction(-1, 2)),),
    param_map=(
        _row(Fraction(1, 2)),
        _row(Fraction(1, 2), 0, 0, Fraction(1, 2)),
        _row(0, 0, 1),
    ),
    arg_map=RatFunc(
        poly_from_pairs((2, 4), (1, -4)), poly_from_pairs((2, 4), (1, -4), (0, 1))
    ),
    prefactor_map=((poly_from_pairs((0, 1), (1, -2)), _row(-1)),),
    region=(Fraction(-1, 10), Fraction(1, 10)),
)


# Cubic transform at b = a + 1/2, c = (4a+5)/6:
# 2F1(a,a+1/2;(4a+5)/6;w) = (1-9w)^(-2a/3)
#                           * 2F1(a/3, a/3+1/2; (4a+5)/6; -27w(1-w)^2/(1-9w)^2)
CUBIC = TransformRule(
    name="cubic",
    constraints=(
        _row(-1, 1, 0, Fraction(-1, 2)),
        _row(Fraction(-2, 3), 0, 1, Fraction(-5, 6)),
    ),
    param_map=(
        _row(Fraction(1, 3)),
        _row(Fraction(1, 3), 0, 0, Fraction(1, 2)),
        _row(0, 0, 1),
    ),
    arg_map=RatFunc(
        poly_from_pairs((3, -27), (2, 54), (1, -27)),
        poly_from_pairs((2, 81), (1, -18), (0, 1)),
    ),
    prefactor_map=((poly_from_pairs((0, 1), (1, -9)), _row(Fraction(-2, 3))),),
    region=(Fraction(-1, 10), Fraction(1, 60)),
)

RULES: dict[str, TransformRule] = {
    r.name: r for r in (EULER, QUADRATIC_C_2B, QUADRATIC_MEAN, CUBIC)
}


def _parameter_grid(rule: TransformRule) -> list[HypParams]:
    """The (a, b, c) that meet the rule's constraints, with the k free
    parameters of their Gauss-Jordan elimination on {0, 1, 2}^k."""
    pivots: dict[int, list[Fraction]] = {}
    for row in rule.constraints:
        for j, r in pivots.items():
            row = [x - row[j] * y for x, y in zip(row, r)]
        j = next((j for j in range(3) if row[j]), None)
        if j is not None:
            row = [x / row[j] for x in row]
            pivots = {i: [x - r[j] * y for x, y in zip(r, row)] for i, r in pivots.items()} | {j: row}
    free, grid = [j for j in range(3) if j not in pivots], []
    for t in itertools.product(map(Fraction, range(3)), repeat=len(free)):
        v = dict(zip(free, t))
        v.update({j: -r[3] - sum(r[i] * v[i] for i in free) for j, r in pivots.items()})
        grid.append(HypParams(v[0], v[1], v[2]))
    return grid


def _degree_bound(rule: TransformRule) -> int:
    """N of `prove_rule`."""
    n, d = rule.arg_map.num.degree, rule.arg_map.den.degree
    return 2 * sum(base.degree for base, _ in rule.prefactor_map) + 3 * d + 2 * n + max(n, d)


def prove_rule(rule: TransformRule) -> str | None:
    """Prove a rule for every parameter that meets its constraints and every
    w in its region, exactly, by the hypergeometric equation (DLMF
    15.10.1): None when proved, else the first condition that fails.

    For F(a,b;c;w) = P G(phi), G = F(a',b';c';.), P = prod B_i^e_i and
    l = P'/P, the equation of (a, b, c) on P G(phi), with G'' from G's, is
    P (A G + B G'):  A = w(1-w)(l' + l^2) + (c - (a+b+1)w) l - ab + g a'b',
    B = w(1-w)(2 l phi' + phi'') + (c - (a+b+1)w) phi' - g (c' - (a'+b'+1) phi),
    g = w(1-w) phi'^2 / (phi (1-phi)).  A = B = 0, phi(0) = 0 and B_i(0) = 1
    make P G(phi) the solution analytic at 0 with value 1, F(a,b;c;.), for
    c and c' not nonpositive integers; it stays F on the region [lo, hi],
    lo < 0 < hi, where every B_i, 1 - w, phi = n/d's denominator and 1 - phi
    have positive Bernstein coefficients, so that both sides are analytic.

    Over D = Q^2 d^3 n (d-n), Q = prod B_i, a term p/s of A or B has s | D,
    and deg p - deg s is 0 for the terms in l and ab, deg n - deg d for
    phi' and phi'', deg n - deg(d-n) for g a'b', and that plus
    max(deg n, deg d) - deg d for g c', as l = L/Q with deg L < deg Q,
    phi' = W/d^2 with deg W < deg n + deg d, and g = w(1-w) W^2 /
    (d^2 n (d-n)): each is at most deg n + max(deg n, deg d) - deg(d-n).
    So A D and B D have degree at most N = 2 deg Q + 3 deg d + 2 deg n +
    max(deg n, deg d), and are 0 if 0 at N + 1 integers off D's zeros.  In
    each of the k free parameters, in which e_i, a', b', c' are affine, A
    has degree 2 and B 1 at most: they are 0 if 0 on a 3^k grid."""
    name, (lo, hi) = f"rule {rule.name}", rule.region
    n, d = rule.arg_map.num, rule.arg_map.den
    bases = [base for base, _ in rule.prefactor_map]
    if n(0) != 0 or d(0) == 0 or any(base(0) != 1 for base in bases) or not lo < 0 < hi:
        return f"{name}: phi(0) = 0, every B_i(0) = 1 and lo < 0 < hi do not all hold"
    n, d = (n, d) if d(0) > 0 else (-n, -d)
    positive = (*((repr(b), b) for b in bases), ("1 - w", Poly((1, -1))), ("phi's denominator", d), ("1 - phi", d - n))
    for what, f in positive:
        if not _bernstein_positive(RatFunc(f).compose(RatFunc(Poly((lo, hi - lo)))).num.coeffs):
            return f"{name}: {what} is not certainly positive on [{rational_str(lo)}, {rational_str(hi)}]"
    grid = [(p, rule.new_params(p), [_affine(e, p) for _, e in rule.prefactor_map]) for p in _parameter_grid(rule)]
    jets = [(f, f.derivative(), f.derivative().derivative()) for f in (*bases, n, d)]
    off_d = (w for w in itertools.count(1) if all(f(w) for f in (*bases, n, d, d - n)))
    for w in itertools.islice(off_d, _degree_bound(rule) + 1):
        *at_bases, (n0, n1, n2), (d0, d1, d2) = [[f(w) for f in jet] for jet in jets]
        slopes = [(v1 / v, v2 / v - (v1 / v) ** 2) for v, v1, v2 in at_bases]  # l and l' per e_i
        phi = n0 / d0
        phi1 = (n1 - phi * d1) / d0
        phi2 = (n2 - 2 * phi1 * d1 - phi * d2) / d0
        ww = w - w * w
        g = ww * phi1**2 / (phi - phi * phi)
        for p, q, es in grid:
            ell = sum(e * s for e, (s, _) in zip(es, slopes))
            dell = sum(e * ds for e, (_, ds) in zip(es, slopes))
            lin = p.c - (p.a + p.b + 1) * w
            A = ww * (dell + ell * ell) + lin * ell - p.a * p.b + g * q.a * q.b
            B = ww * (2 * ell * phi1 + phi2) + lin * phi1 - g * (q.c - (q.a + q.b + 1) * phi)
            if A or B:
                at = ", ".join(map(rational_str, (p.a, p.b, p.c)))
                return f"{name}: {'A' if A else 'B'} = {rational_str(A or B)} at (a, b, c) = ({at}), w = {w}"
    return None


# ---------------------------------------------------------------------------
# Gosper's 2F1(1/4) formula


def gosper_lhs_params(b: Fraction) -> HypParams:
    """Left side of Gosper's formula: 2F1(1/2, b; 5/2-2b; 1/4)."""
    b = Fraction(b)
    return HypParams(Fraction(1, 2), b, Fraction(5, 2) - 2 * b)


def gosper_rhs(b: Fraction) -> GammaExpr:
    """Right side of Gosper's formula:
    2^(2b) sqrt(pi)/3 * Gamma(5/2-2b) / Gamma(3/2-b)^2."""
    b = Fraction(b)
    for arg in (Fraction(5, 2) - 2 * b, Fraction(3, 2) - b):
        if arg.denominator == 1 and arg <= 0:
            raise TransformError(f"gamma pole at {rational_str(arg)} in closed form")
    return GammaExpr(
        rational_factors=((Fraction(2), 2 * b), (Fraction(3), Fraction(-1))),
        pi_exponent=Fraction(1, 2),
        gamma_factors=((Fraction(5, 2) - 2 * b, 1), (Fraction(3, 2) - b, -2)),
    )


PROOF_STEPS = (
    "euler-transform-integral",
    "substitution",
    "cyclotomic",
    "cube-substitution",
    "reflection-closed-form",
)
# the b where every integral of the proof converges: 2b-1 > 0, 3/2-3b > -1
PROOF_B_RANGE = (Fraction(1, 2), Fraction(5, 6))
# "exact": an identity of integrands proved in exact arithmetic;
# "numeric": two enclosures compared by `num_equal`;
# "estimated": the same, with one side's bound a tanh-sinh estimate
PROOF_METHODS = dict(zip(PROOF_STEPS, ("estimated", "exact", "exact", "exact", "numeric")))


def proof_integrands(b: Fraction) -> tuple[PowerIntegrand, PowerIntegrand, PowerIntegrand]:
    """The integrands of the proof steps' three integrals over (0, 1), in
    u = t and v = 1 - t, each as its step states it:
    t^(3/2-3b) (1-t)^(b-1) (1-t/4)^(2b-2), the `euler_integrand` of the
    Euler transform of the lhs at z = 1/4, whose 1-t/4 is 3/4 + v/4; then
    u^(3/2-3b) (1-u)^(2b-1) (1+u+u^2)^(2b-2), then
    u^(3/2-3b) (1-u) (1-u^3)^(2b-2), whose 1-u^3 is written v (3 - 3v + v^2)
    so that it does not cancel near u = 1."""
    e_left, e_poly = Fraction(3, 2) - 3 * b, 2 * b - 2
    return (
        euler_integrand(EULER.new_params(gosper_lhs_params(b)), Fraction(1, 4)),
        PowerIntegrand(e_left, e_poly + 1, (("u", (1, 1, 1), e_poly),)),
        PowerIntegrand(e_left, e_poly + 1, (("v", (3, -3, 1), e_poly),)),
    )


# The proof's substitutions: t = 4u/(1+u)^2 (step 2) and v = u^3 (step 4)
SUBSTITUTION_MAP = RatFunc(poly_from_pairs((1, 4)), poly_from_pairs((0, 1), (1, 2), (2, 1)))
CUBE_MAP = RatFunc(poly_from_pairs((3, 1)))


def prove_substitution_steps(b: Fraction) -> dict[str, Verdict]:
    """Steps 2-4 of the proof at b, each proved exactly as an identity of
    integrands over (0, 1) by `integrals.integrals_agree`:
      substitution: i_t's integrand at t = 4u/(1+u)^2, times dt/du, is
          4^(5/2-3b) times i_u's;
      cyclotomic: i_cyc's 3 - 3v + v^2 at v = 1 - u is i_u's 1 + u + u^2;
      cube-substitution: the integrands of B(5/6-b, 2b-1) and
          B(7/6-b, 2b-1), each at v = u^3 times dv/du, differ by 3 times
          i_cyc's.
    A step is EQUAL when proved, and DISTINCT when its integrands differ or
    a side condition fails: a factor not certainly positive on (0, 1), a
    map not monotone from (0, 1) onto (0, 1), or an exponent of u or 1 - u
    at most -1 (so some integral diverges, as at b = 1/2 and b = 5/6).
    The polynomial work is cached, so a second b costs exponent arithmetic."""
    # imported here, so that only a process that proves a step compiles it
    from .integrals import Unproven, integrals_agree, substituted

    b = Fraction(b)
    f_t, f_u, f_cyc = proof_integrands(b)
    four = ((Poly.constant(4), Fraction(5, 2) - 3 * b),)
    third = ((Poly.constant(3), Fraction(-1)),)
    betas = [
        (sign, third + substituted(PowerIntegrand(x - 1, 2 * b - 2), CUBE_MAP))
        for sign, x in ((1, Fraction(5, 6) - b), (-1, Fraction(7, 6) - b))
    ]
    steps = {
        PROOF_STEPS[1]: (substituted(f_t, SUBSTITUTION_MAP), (1, four + substituted(f_u))),
        PROOF_STEPS[2]: (substituted(f_u), (1, substituted(f_cyc))),
        PROOF_STEPS[3]: (substituted(f_cyc), *betas),
    }
    verdicts = {}
    for step, (lhs, *rhs) in steps.items():
        try:
            verdicts[step] = integrals_agree(lhs, *rhs)
        except Unproven:
            verdicts[step] = Verdict.DISTINCT
    return verdicts


def verify_gosper_proof(b: Fraction, prec: Precision) -> dict[str, Verdict]:
    """Verify each step in the proof of Gosper's formula at a given rational
    b, returning a per-step verdict in the order of PROOF_STEPS.

    Steps (PROOF_METHODS names how each is checked):
      euler-transform-integral (estimated): the series
          2F1(1/2,b;5/2-2b;1/4) against its `EULER` rewrite
          (3/4)^(2-3b) 2F1(2-2b,5/2-3b;5/2-2b;1/4), whose 2F1 (c > b > 0)
          `f21_integral` takes as G(5/2-2b)/(G(5/2-3b)G(b)) * i_t, with the
          tanh-sinh value of i_t = int t^(3/2-3b)(1-t)^(b-1)(1-t/4)^(2b-2);
      substitution (exact): t = 4u/(1+u)^2 turns i_t into
          4^(5/2-3b) int u^(3/2-3b)(1-u)^(2b-1)(1+u+u^2)^(2b-2);
      cyclotomic (exact): (1-u)(1+u+u^2) = 1-u^3 rewrites the integrand as
          (u^(3/2-3b) - u^(5/2-3b))(1-u^3)^(2b-2);
      cube-substitution (exact): v = u^3 reduces it to
          (B(5/6-b, 2b-1) - B(7/6-b, 2b-1))/3;
      reflection-closed-form (numeric): that difference, from the Beta
          series, equals -G(2b-1) G(5/6-b) G(7/6-b) cos(pi b) / pi.
    The exact steps are `prove_substitution_steps`; they integrate nothing.

    Requires b in (1/2, 5/6) so every integral converges absolutely.
    """
    b = Fraction(b)
    if not PROOF_B_RANGE[0] < b < PROOF_B_RANGE[1]:
        raise TransformError(
            "proof-step verification requires 1/2 < b < 5/6 "
            "(2b-1 > 0 and 3/2-3b > -1)"
        )
    qprec = prec.boosted(16)
    verdicts: dict[str, Verdict] = {}

    quarter, lhs = Fraction(1, 4), gosper_lhs_params(b)
    term = apply_rule(EULER, HypTerm((), lhs, RatFunc.x()))
    euler = ge_eval(term.prefactor_value(quarter), qprec) * f21_integral(term.params, quarter, prec)
    verdicts[PROOF_STEPS[0]] = num_equal(f21_series(lhs, quarter, qprec), euler, prec)
    verdicts.update(prove_substitution_steps(b))

    delta = beta(Fraction(5, 6) - b, 2 * b - 1, qprec) - beta(
        Fraction(7, 6) - b, 2 * b - 1, qprec
    )
    closed = -(
        gamma(2 * b - 1, qprec)
        * gamma(Fraction(5, 6) - b, qprec)
        * gamma(Fraction(7, 6) - b, qprec)
        * cos_pi_times(b, qprec)
    ) / pi_value(qprec)
    verdicts[PROOF_STEPS[4]] = num_equal(delta, closed, prec)
    return verdicts


# ---------------------------------------------------------------------------
# The degree-12 chain and the headline evaluation

MAIN_PARAMS = HypParams(Fraction(7, 48), Fraction(31, 48), Fraction(9, 8))
MAIN_ARGUMENT = Fraction(29884728384, 34239431521)  # == (172872/185039)^2

# 185039^(7/24) Gamma(1/8)^3 Gamma(5/8) / (672 (1+sqrt2) 3^(1/8) pi^2)
MAIN_RHS = GammaExpr(
    rational_factors=(
        (Fraction(185039), Fraction(7, 24)),
        (Fraction(672), Fraction(-1)),
        (Fraction(3), Fraction(-1, 8)),
    ),
    pi_exponent=Fraction(-2),
    gamma_factors=((Fraction(1, 8), 3), (Fraction(5, 8), 1)),
    surd_factors=((Fraction(1), Fraction(1), Fraction(2), -1),),
)


def twelfth_degree_map() -> RatFunc:
    """-432 (z-2)^8 (z-1) z^2 / [(z^2+4z-4)^2 (z^4-136z^3+152z^2-32z+16)^2]."""
    num = (
        poly_from_pairs((1, 1), (0, -2)) ** 8
        * poly_from_pairs((1, 1), (0, -1))
        * poly_from_pairs((2, 1))
    ).scale(-432)
    den = (
        poly_from_pairs((2, 1), (1, 4), (0, -4)) ** 2
        * poly_from_pairs((4, 1), (3, -136), (2, 152), (1, -32), (0, 16)) ** 2
    )
    return RatFunc(num, den)


@dataclass(frozen=True)
class DerivationTrace:
    """Ordered rule applications from the seed term, the exact evaluation
    point data, and the derived closed-form constant."""

    seed: str
    steps: tuple[tuple[str, HypTerm], ...]
    eval_point: Fraction
    final_argument: Fraction
    final_constant: GammaExpr
    series_value: BigReal
    constant_value: BigReal
    printed_value: BigReal
    verdict: Verdict
    agreement_digits: int | None

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "steps": [
                {"rule": name, "term": term.to_json()} for name, term in self.steps
            ],
            "eval_point": rational_str(self.eval_point),
            "final_argument": rational_str(self.final_argument),
            "final_constant": self.final_constant.to_json(),
            "series_value": self.series_value.to_decimal(),
            "constant_value": self.constant_value.to_decimal(),
            "printed_value": self.printed_value.to_decimal(),
            "verdict": self.verdict.value,
            "agreement_digits": self.agreement_digits,
        }


def derive_main(prec: Precision) -> DerivationTrace:
    """Re-derive the headline evaluation by the quadratic-quadratic-cubic
    chain seeded with Gosper's formula at b = 5/8, and verify it.

    The chain 2F1(1/2,5/8;5/4;z) -> ... -> 2F1(7/48,31/48;9/8; A(z)) is
    composed exactly; at z = 1/4 the argument must equal (172872/185039)^2
    as an exact rational, the derived constant (Gosper closed form divided
    by the accumulated prefactor) must agree numerically with both the
    series at that argument and the printed Gamma-product form.  Any
    internal mismatch raises DerivationError.  No intermediate term is
    evaluated: `prove_rule` proves the rules where the chain applies them.
    """
    z = Fraction(1, 4)
    term = HypTerm((), HypParams(Fraction(1, 2), Fraction(5, 8), Fraction(5, 4)), RatFunc.x())
    steps = []
    for rule in (QUADRATIC_C_2B, QUADRATIC_MEAN, CUBIC):
        if rule is QUADRATIC_MEAN:
            # 2F1 is symmetric in its upper parameters; the chain takes the
            # larger one (7/8) as the "a" of the second quadratic rule
            term = HypTerm(term.prefactor, term.params.swapped(), term.argument)
        term = apply_rule(rule, term)
        steps.append((rule.name, term))

    if term.params != MAIN_PARAMS:
        raise DerivationError(f"chain produced parameters {term.params}")
    if term.argument != twelfth_degree_map():
        raise DerivationError("chain argument map differs from the degree-12 form")
    arg_val = term.argument(z)
    if arg_val != MAIN_ARGUMENT:
        raise DerivationError(
            f"argument at z=1/4 is {rational_str(arg_val)}, "
            f"expected {rational_str(MAIN_ARGUMENT)}"
        )

    series_value = f21_eval(MAIN_PARAMS, MAIN_ARGUMENT, prec)  # |z| <= 9/10: the direct series
    prefactor = term.prefactor_value(z)
    # 2F1(main; A(1/4)) = gosper_rhs(5/8) / prefactor(1/4)
    constant = gosper_rhs(Fraction(5, 8)) * prefactor.inverse()
    constant_value = ge_eval(constant, prec)
    printed_value = ge_eval(MAIN_RHS, prec)

    verdict = Verdict.worst((
        num_equal(constant_value, series_value, prec),
        num_equal(constant_value, printed_value, prec),
        num_equal(series_value, printed_value, prec),
    ))
    if verdict is Verdict.DISTINCT:
        raise DerivationError("derived constant distinct from a reference value")

    return DerivationTrace(
        seed="gosper-quarter at b=5/8: 2F1(1/2,5/8;5/4;1/4)",
        steps=tuple(steps),
        eval_point=z,
        final_argument=arg_val,
        final_constant=constant,
        series_value=series_value,
        constant_value=constant_value,
        printed_value=printed_value,
        verdict=verdict,
        agreement_digits=achieved_digits(series_value, printed_value),
    )


# ---------------------------------------------------------------------------
# splitting transform


def verify_zj_split(a: Fraction, b: Fraction, z: Fraction, prec: Precision) -> Verdict:
    """Check the Gamma-prefactored split of 2F1(a,b;1/2;z) into the two
    series at arguments (1 -+ sqrt(z))/2."""
    a, b, z = Fraction(a), Fraction(b), Fraction(z)
    if not 0 < z < 1:
        raise TransformError("split check requires 0 < z < 1")
    qprec = prec.boosted(8)
    wb = qprec.work_bits
    pref = (
        2
        * gamma(Fraction(1, 2), qprec)
        * gamma(a + b + Fraction(1, 2), qprec)
        / (gamma(a + Fraction(1, 2), qprec) * gamma(b + Fraction(1, 2), qprec))
    )
    lhs = pref * f21_series(HypParams(a, b, Fraction(1, 2)), z, qprec)
    root = (BigReal.from_fraction(z, wb)).pow_rational(Fraction(1, 2))
    p2 = HypParams(2 * a, 2 * b, a + b + Fraction(1, 2))
    half = Fraction(1, 2)
    minus = (1 - root) * half
    plus = (1 + root) * half
    rhs = f21_series(p2, minus, qprec) + f21_series(p2, plus, qprec)
    return num_equal(lhs, rhs, prec)
