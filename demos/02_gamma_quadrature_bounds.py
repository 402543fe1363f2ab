"""Error-bounded arithmetic: Gamma, Beta, and tanh-sinh quadrature.

Every BigReal carries [value - err, value + err]; two independent routes
to the same quantity must land inside each other's intervals.  Here the
Beta function is computed once as two positive-term series (no Gamma) and
once by integrating its defining integral, whose endpoint singularities
the tanh-sinh nodes absorb.
"""

from fractions import Fraction as F

from hypergamma import (
    PowerIntegrand,
    Precision,
    beta,
    gamma,
    num_equal,
    pi_value,
    tanh_sinh_integrate,
)

prec = Precision.of(60)

print("Gamma at rational arguments (the shift to (0, 1] is an exact rational")
print("Pochhammer product, so poles are detected exactly; the incomplete-gamma")
print("series is summed in fixed point and the dropped Gamma(y, N) is bounded")
print("by N^(y-1) e^(-N)):")
for x in (F(1, 2), F(1, 8), F(5, 8), F(-5, 2)):
    print(f"  Gamma({str(x):>4s}) = {gamma(x, prec).to_decimal(40)}")

print()
print("The reflection pair Gamma(1/8) Gamma(7/8) sin(pi/8) against pi:")
from hypergamma.mpreal import sin_pi_times

lhs = gamma(F(1, 8), prec) * gamma(F(7, 8), prec) * sin_pi_times(F(1, 8), prec)
print(f"  product = {lhs.to_decimal(40)}")
print(f"  pi      = {pi_value(prec).to_decimal(40)}")
print(f"  verdict: {num_equal(lhs, pi_value(prec), prec).value}")

print()
print("Beta(5/24, 1/4) via series, and via quadrature of t^(-19/24)(1-t)^(-3/4):")
b_series = beta(F(5, 24), F(1, 4), prec)
# the integrand as data: u and v carry their logarithms from the node cache,
# so each node costs one exp
b_quad = tanh_sinh_integrate(PowerIntegrand(F(5, 24) - 1, F(1, 4) - 1), prec)
print(f"  series route:     {b_series.to_decimal(45)}")
print(f"  quadrature route: {b_quad.to_decimal(45)}")
print(f"  verdict: {num_equal(b_series, b_quad, prec).value}")
