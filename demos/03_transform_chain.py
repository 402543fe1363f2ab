"""The degree-12 transform chain behind the headline evaluation.

Starting from 2F1(1/2, 5/8; 5/4 | z), one quadratic transform (at c = 2b),
a second quadratic (at c = (a+b+1)/2, applied with the upper parameters
reordered), and a cubic transform compose to an exact rational argument
map of degree 12.  At z = 1/4 the argument becomes (172872/185039)^2
exactly, and Gosper's closed form at b = 5/8 divided by the accumulated
prefactor yields the Gamma-product constant.
"""

from fractions import Fraction as F

from hypergamma import Precision, derive_main, rational_str

trace = derive_main(Precision.of(150))

print("chain steps:")
for name, term in trace.steps:
    p = term.params
    print(
        f"  {name:18s} -> 2F1({rational_str(p.a)}, {rational_str(p.b)}; "
        f"{rational_str(p.c)}) with argument map of degree "
        f"{max(term.argument.num.degree, term.argument.den.degree)}"
    )

final = trace.steps[-1][1]
print()
print(f"argument at z = 1/4 (exact): {rational_str(trace.final_argument)}")
print(f"  which is (172872/185039)^2: {trace.final_argument == F(172872, 185039) ** 2}")
print()
print("three independent values of the final series:")
print(f"  chain constant:   {trace.constant_value.to_decimal(60)}")
print(f"  direct series:    {trace.series_value.to_decimal(60)}")
print(f"  printed form:     {trace.printed_value.to_decimal(60)}")
print(f"verdict: {trace.verdict.value} ({trace.agreement_digits} digits agreement)")
print()
print("derived constant as a Gamma-product expression:")
print(f"  {trace.final_constant!r}")
