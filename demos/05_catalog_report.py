"""Running the bundled identity catalog, and proving the harness can say no.

The default catalog covers the classical summation theorems (at the
rational parameter points it lists), the exact terminating family, the strange
series grid, the algebraic evaluations, the transform rules, and both
proof chains.  The canary catalog perturbs a closed form by one part in
10^20: it must FAIL, or the harness would only ever confirm.
"""

from hypergamma import CANARY_CATALOG, DEFAULT_CATALOG, run_all

print("default catalog at each record's pinned precision:")
report = run_all(DEFAULT_CATALOG, digits=100)
print(report.to_text())
print(f"exit code: {report.exit_code}")

print()
print("canary catalog (closed form scaled by 1 + 1e-20):")
report = run_all(CANARY_CATALOG, digits=100)
print(report.to_text())
for entry in report.entries:
    if entry.verdict == "fail":
        print(f"  lhs interval: {entry.interval_lhs}")
        print(f"  rhs interval: {entry.interval_rhs}")
print(f"exit code: {report.exit_code} (nonzero, as it must be)")
