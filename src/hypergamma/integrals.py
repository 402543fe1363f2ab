"""Exact identities between integrals over (0, 1) of power products of
polynomials with rational exponents, as a change of variables or an
algebraic rewrite of the integrand states them.

An integrand is `Factors`, prod P(u)^e with exact polynomials P; a
`PowerIntegrand` becomes one by `substituted`, at x = phi(u) for a
rational map phi and times |phi'(u)|.  `integrals_agree` proves that one
integral equals a signed sum of others from the identity of their
integrands, with every side condition that makes the integrals equal
checked exactly: each factor certainly positive on (0, 1), each map
monotone from (0, 1) onto (0, 1), and each exponent of u and 1 - u above
-1, so that every integral converges.  A side condition that fails raises
`Unproven`.  The polynomial work depends only on the polynomials, not on
the exponents, and is cached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

from .exact import PoleError, Poly, RatFunc, poly_from_pairs, poly_gcd
from .gammaexpr import Verdict, _integer_powers
from .mpreal import PowerIntegrand, _bernstein_positive

_X = RatFunc.x()
_U, _V = Poly.x(), poly_from_pairs((0, 1), (1, -1))  # u and 1 - u
_HALF = Fraction(1, 2)

# prod P(u)^e over (0, 1); a constant is a P of degree 0
Factors = tuple[tuple[Poly, Fraction], ...]


class Unproven(ArithmeticError):
    """A side condition of an identity that does not hold."""


@cache
def _composed(p: Poly, phi: RatFunc, flip: bool) -> tuple[Poly, Poly]:
    """p(phi(u)), or p(1 - phi(u)) when flip, as num / den with den(1/2) > 0."""
    r = RatFunc(p).compose(RatFunc(_V).compose(phi) if flip else phi)
    return (r.num, r.den) if r.den(_HALF) > 0 else (-r.num, -r.den)


@cache
def _jacobian(phi: RatFunc) -> Factors:
    """|phi'| as factors, for a phi that takes 0 and 1 to 0 and 1 or to 1
    and 0.  `_factorised` then shows each factor positive on (0, 1), so phi'
    keeps one sign there and phi is monotone from (0, 1) onto (0, 1)."""
    try:
        ends = (phi(0), phi(1))
    except PoleError:
        ends = None
    if ends not in ((0, 1), (1, 0)):
        raise Unproven(f"{phi!r} does not map (0, 1) onto itself")
    n, d = phi.num, phi.den
    slope = n.derivative() * d - n * d.derivative()
    return (
        (slope if ends == (0, 1) else -slope, Fraction(1)),
        (d if d(_HALF) > 0 else -d, Fraction(-2)),
    )


def substituted(f: PowerIntegrand, phi: RatFunc = _X) -> Factors:
    """f's integrand at x = phi(u), times |phi'(u)|, as factors in u."""
    out = []
    for var, coeffs, r in (("u", (0, 1), f.u_exp), ("v", (0, 1), f.v_exp), *f.factors):
        num, den = _composed(Poly(coeffs), phi, var == "v")
        out += ((num, r), (den, -r))
    return (*out, *_jacobian(phi))


@cache
def _factorised(polys: tuple[Poly, ...]) -> tuple[tuple[Poly, ...], tuple[tuple[Fraction, tuple[int, ...]], ...]]:
    """A basis u, 1 - u, Q_1, ... of pairwise coprime polynomials, and each
    of polys as c u^k (1-u)^m prod Q_j^(n_j): one row (c, (k, m, n_1, ...))
    each.  Every Q_j, signed positive at 1/2, must have only positive
    Bernstein coefficients on [0, 1], and every c must be positive, so that
    each polynomial is certainly positive on (0, 1) (Unproven otherwise)."""
    cores = []
    for p in polys:
        if p.is_zero:
            raise Unproven("a factor vanishes identically")
        k = next(i for i, c in enumerate(p.coeffs) if c)
        p, m = Poly(p.coeffs[k:]), 0
        while p(1) == 0:
            p, m = p.divmod(_V)[0], m + 1
        cores.append((p, k, m))
    basis, todo = [], [p for p, _, _ in cores if p.degree > 0]
    while todo:  # split any two with a common factor into g, p/g and q/g
        p = todo.pop()
        for i, q in enumerate(basis):
            g = poly_gcd(p, q)
            if g.degree > 0:
                del basis[i]
                todo += [r for r in (g, p.divmod(g)[0], q.divmod(g)[0]) if r.degree > 0]
                break
        else:
            basis.append(p)
    basis = [q.primitive_scale()[1] for q in basis]
    basis = [q if q(_HALF) > 0 else -q for q in basis]
    if not all(_bernstein_positive(q.coeffs) for q in basis):
        raise Unproven("a factor is not certainly positive on (0, 1)")
    rows = []
    for p, k, m in cores:
        mults = []
        for q in basis:
            n = 0
            while (qr := p.divmod(q))[1].is_zero:
                p, n = qr[0], n + 1
            mults.append(n)
        if p.degree != 0 or p.coeffs[0] <= 0:
            raise Unproven("a factor is not certainly positive on (0, 1)")
        rows.append((p.coeffs[0], (k, m, *mults)))
    return (_U, _V, *basis), tuple(rows)


def integrals_agree(lhs: Factors, *rhs: tuple[int, Factors]) -> Verdict:
    """Whether int_0^1 lhs equals the sum of sign * int_0^1 term over the
    (sign, term) of rhs, proved from the same identity of the integrands.

    Each integrand is reduced over one coprime basis (`_factorised`), and
    its exponents of u and 1 - u must be above -1, so that every integral
    converges.  Each term over lhs must be a rational function: a rational
    constant (the prime exponents of `_integer_powers`, all integers) times
    integer powers of the basis.  The identity then holds on (0, 1) exactly
    when the terms over their common factor sum to the zero polynomial."""
    terms = ((-1, lhs), *rhs)
    basis, rows = _factorised(tuple(p for _, t in terms for p, _ in t))
    rows = iter(rows)
    forms = []
    for sign, t in terms:
        consts, expo = [], [0] * len(basis)
        for (_, e), (c, ks) in zip(t, rows):
            consts.append((c, e))
            expo = [x + e * k if k else x for x, k in zip(expo, ks)]
        if expo[0] <= -1 or expo[1] <= -1:
            raise Unproven("an endpoint exponent is at most -1: the integral diverges")
        forms.append((sign, consts, expo))
    _, c0, x0 = forms[0]
    total = []
    for sign, consts, expo in forms:
        ratio = _integer_powers(consts + [(c, -e) for c, e in c0])
        shift = [x - y for x, y in zip(expo, x0)]
        if any(k.denominator != 1 for k in (*ratio.values(), *shift)):
            return Verdict.DISTINCT
        total.append((sign * prod(Fraction(n) ** int(k) for n, k in ratio.items()), shift))
    low = [min(col) for col in zip(*(shift for _, shift in total))]
    acc = Poly.zero()
    for r, shift in total:
        acc = acc + prod((q ** int(k - lo) for q, k, lo in zip(basis, shift, low)), start=Poly.constant(r))
    return Verdict.EQUAL if acc.is_zero else Verdict.DISTINCT
