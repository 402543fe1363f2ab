"""Evaluating 2F1 series with rational parameters, three different ways.

The dispatcher picks the route: exact finite sums for terminating series,
direct summation for |z| <= 9/10, and for arguments close to 1 (where the
series would need astronomically many terms for the same accuracy) a
series in 1 - z: the logarithmic connection formula when c - a - b is an
integer, and otherwise the Euler-integral quadrature.
"""

from fractions import Fraction as F

from hypergamma import HypParams, Precision, f21_eval, f21_terminating

prec = Precision.of(60)

print("A terminating series is summed exactly (no rounding at all):")
p = HypParams(F(-2), F(-5, 2), F(25, 2))
print(f"  2F1(-2, -5/2; 25/2 | 1/5) = {f21_terminating(p, F(1, 5))}")

print()
print("Small arguments go through the series with a rigorous tail bound:")
p = HypParams(F(1, 2), F(2, 3), F(1, 6))
v = f21_eval(p, F(1, 4), prec)
print(f"  2F1(1/2, 2/3; 1/6 | 1/4)  = {v.to_decimal(50)}")
print("  closed form (4/3) 2^(1/3) = 1.6798947331931642196896141430376378007603...")

print()
print("Arguments near 1 with c = a + b take the logarithmic connection")
print("formula, a series in 1 - z; the most extreme algebraic evaluation in")
print("the catalog has argument 2400/2401:")
p = HypParams(F(1, 8), F(3, 8), F(1, 2))
v = f21_eval(p, F(2400, 2401), prec)
print(f"  2F1(1/8, 3/8; 1/2 | 2400/2401) = {v.to_decimal(50)}")
print("  closed form (2/3) sqrt(7)      = 1.763834207376393727001077169092840283806...")

print()
print("And the headline series, whose argument (172872/185039)^2 = 0.8728...")
print("still converges fast enough for direct summation:")
p = HypParams(F(7, 48), F(31, 48), F(9, 8))
v = f21_eval(p, F(29884728384, 34239431521), prec)
print(f"  value  = {v.to_decimal(50)}")
print("  equals 185039^(7/24) G(1/8)^3 G(5/8) / (672 (1+sqrt2) 3^(1/8) pi^2)")
