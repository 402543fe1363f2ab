"""Machine verification of the integral proof of Gosper's 2F1(1/4) formula.

The substitution steps (t = 4u/(1+u)^2, 1 - u^3 = (1 - u)(1 + u + u^2) and
v = u^3) are proved exactly, as identities between power products of
polynomials, with their side conditions: positive factors, monotone maps
onto (0, 1) and convergent integrals.  The first step (the series against
the Euler integral of its Euler transform) rests on the tanh-sinh estimate
of that integral, so it is reported as estimated; the last (the Beta
difference against its Gamma closed form) is compared numerically.  Each
runs at several values of the free parameter b inside the
absolute-convergence range (1/2, 5/6).
"""

from fractions import Fraction as F

from hypergamma import Precision, f21_eval, ge_eval, gosper_rhs, num_equal
from hypergamma.transforms import PROOF_METHODS, gosper_lhs_params, verify_gosper_proof

prec = Precision.of(60)

for b in (F(5, 8), F(3, 4), F(7, 10)):
    print(f"b = {b}:")
    for step, verdict in verify_gosper_proof(b, prec).items():
        print(f"  {step:28s} {verdict.value:20s} {PROOF_METHODS[step]}")

print()
print("The end identity holds well beyond the proof's integral range, for")
print("every b where the series converges and the parameters avoid poles:")
for b in (F(-3, 2), F(-1), F(1, 3), F(1, 2), F(19, 24)):
    lhs = f21_eval(gosper_lhs_params(b), F(1, 4), prec)
    rhs = ge_eval(gosper_rhs(b), prec)
    print(f"  b = {str(b):>5s}: {num_equal(lhs, rhs, prec).value}  "
          f"value = {lhs.to_decimal(30)}")
