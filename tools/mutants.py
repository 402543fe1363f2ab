"""Opt-in mutation runner: does the test suite catch a deliberate fault?

Each row of ROWS names a source file, an exact snippet that must occur in
it once, the replacement that makes the fault, and the tests to run.  For
each row the runner copies ``src`` and ``tests``, and the ``demos`` and
``benchmarks`` that some tests read, into a fresh temporary directory,
applies the replacement there (the working tree is never touched), runs
the tests with pytest and prints one line:

* ``caught``   - the tests failed, as they should;
* ``uncaught`` - the tests passed; a row may give the reason this is
  expected (``why``), and the line then shows it;
* ``error``    - pytest could not run the tests (exit code 2 or more).

Tests still running after TIMEOUT_S count as ``caught``: a fault that
makes a loop run on fails the suite as surely as one that fails an
assertion, and the line says that they timed out.

Run it from anywhere, on every row or on those whose name contains a text:

    python3 tools/mutants.py
    python3 tools/mutants.py cubic

The exit code is 2 if a snippet no longer occurs exactly once (the table
has drifted from the code) or a row's tests cannot run, 1 if a row is
uncaught with no stated reason, and 0 otherwise.  Not part of the Tier-1
suite: it runs the tests once per row and takes minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120


@dataclass(frozen=True)
class Row:
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    why: str = ""  # why an uncaught row is expected to be uncaught


RULE_PROOF = ("tests/test_transforms.py::TestRuleProof",)
GAMMA = ("tests/test_mpreal.py",)
KERNEL = ("tests/test_mpreal.py::TestFixedPointSum",)
VERDICTS = ("tests/test_gammaexpr.py::TestNumEqual",)
WALK = ("tests/test_hyper.py::TestHyperTerms", "tests/test_hyper.py::TestTerminating",
        "tests/test_catalog.py::TestFamilies")
TRANSFORMS, MPREAL = "src/hypergamma/transforms.py", "src/hypergamma/mpreal.py"
HYPER = "src/hypergamma/hyper.py"

ROWS = (
    # the rules' data, which `prove_rule` must reject
    Row("euler exponent row off by 1/48", TRANSFORMS,
        "_row(-1, -1, 1)),),", "_row(-1, -1, 1, Fraction(1, 48))),),", RULE_PROOF),
    Row("quadratic-c-2b c' row off by 1/48", TRANSFORMS,
        "_row(0, 1, 0, Fraction(1, 2)),", "_row(0, 1, 0, Fraction(25, 48)),", RULE_PROOF),
    Row("quadratic-mean argument numerator times 49/48", TRANSFORMS,
        "poly_from_pairs((2, 4), (1, -4)), poly_from_pairs(",
        "poly_from_pairs((2, 4), (1, -4)).scale(Fraction(49, 48)), poly_from_pairs(", RULE_PROOF),
    Row("cubic a' row off by 1/48", TRANSFORMS,
        "        _row(Fraction(1, 3)),\n", "        _row(Fraction(1, 3), 0, 0, Fraction(1, 48)),\n", RULE_PROOF),
    Row("cubic base 2 - 18w, not 1 at 0", TRANSFORMS,
        "poly_from_pairs((0, 1), (1, -9))", "poly_from_pairs((0, 2), (1, -18))", RULE_PROOF),
    Row("cubic region to -1/3, where phi = 1", TRANSFORMS,
        "region=(Fraction(-1, 10), Fraction(1, 60)),", "region=(Fraction(-1, 3), Fraction(1, 60)),",
        RULE_PROOF),
    Row("euler region to 1, where 1 - w = 0", TRANSFORMS,
        "region=(Fraction(-3, 4), Fraction(3, 4)),", "region=(Fraction(-3, 4), Fraction(1)),", RULE_PROOF),
    # the proof itself
    Row("grid of 2 values per parameter", TRANSFORMS,
        "itertools.product(map(Fraction, range(3))", "itertools.product(map(Fraction, range(2))", RULE_PROOF),
    Row("N one smaller", TRANSFORMS,
        "+ 3 * d + 2 * n + max(n, d)", "+ 3 * d + 2 * n + max(n, d) - 1", RULE_PROOF),
    Row("B not checked", TRANSFORMS, "            if A or B:\n", "            if A:\n", RULE_PROOF),
    Row("1 - phi not checked", TRANSFORMS, ', ("1 - phi", d - n))', ")", RULE_PROOF),
    Row("1 - w not checked", TRANSFORMS, '("1 - w", Poly((1, -1))), ', "", RULE_PROOF),
    Row("phi(0) not checked", TRANSFORMS, "if n(0) != 0 or d(0) == 0 or", "if d(0) == 0 or", RULE_PROOF),
    Row("base at 0 not checked", TRANSFORMS,
        " or any(base(0) != 1 for base in bases)", "", RULE_PROOF),
    # the cold Gamma of _gamma_tail and _gamma_unit
    Row("_gamma_tail: remainder U dropped", MPREAL, "return S, M + 1 + U", "return S, M + 1", GAMMA),
    Row("_gamma_tail: n per-floor ulps dropped", MPREAL, "return S, M + 1 + U", "return S, U", GAMMA),
    Row("_gamma_tail: U rounded down", MPREAL, "U = -(U * f // den)", "U = U * -f // den", GAMMA,
        why="the true remainder is about half the first neglected term, so the slack covers one "
        "ulp of U"),
    Row("_gamma_tail: tail radius 0", MPREAL,
        "from_man_exp(R, -fb, ERR_BITS, RU), wb)", "fzero, wb)", GAMMA,
        why="the tail's radius is about 2^-52 of the bracket's other radius terms, below the "
        "32-bit rounding of the summed bound"),
    Row("_gamma_unit: M one step too small", MPREAL,
        "M = -(-(wb + 24) * 10000 // 28854)", "M = -(-(wb + 24) * 10000 // 28854) - 1", GAMMA),
    Row("_gamma_unit: sine's bound dropped", MPREAL,
        "s = BigReal(s.val, s.err, wb)", "s = BigReal(s.val, fzero, wb)", GAMMA),
    Row("_gamma_unit: sine without its extra bits", MPREAL,
        "sin_pi_times(y, Precision(0, wb + extra))", "sin_pi_times(y, Precision(0, wb))", GAMMA),
    # the cached logs, _ln and the two callers that key it
    Row("_ln: err/lo term dropped", MPREAL,
        "return ln, _eadd(mpf_div(err, _abs_lo(val, err), ERR_BITS, RU), rounding)",
        "return ln, rounding", GAMMA),
    # caught only by the Gamma, Beta and log-connection digests: the halved
    # term still covers an mpf_log within 1 ulp, so no enclosure test fails
    Row("_ln: rounding term halved", MPREAL,
        "rounding = _emul(_eadd(mpf_abs(ln), fone), _pow2(-bits + 2))",
        "rounding = _emul(_eadd(mpf_abs(ln), fone), _pow2(-bits + 1))", GAMMA),
    Row("_ln: cache keyed without err", MPREAL,
        "@lru_cache(maxsize=4096)\ndef _ln(val, err, bits: int):",
        "def _by_value(f):\n    seen = {}\n\n    def g(val, err, bits):\n"
        "        return seen.setdefault((val, bits), f(val, err, bits))\n\n"
        "    g.cache_clear, g.__wrapped__ = seen.clear, f\n    return g\n\n\n"
        "@_by_value\ndef _ln(val, err, bits: int):",
        ("tests/test_mpreal.py::TestPowerProduct::test_equal_values_of_different_radius_get_their_own_bounds",)),
    Row("_log_fixed: fzero passed for err", MPREAL,
        "_ln(x.val, x.err, fb)", "_ln(x.val, fzero, fb)", GAMMA),
    Row("PowerIntegrand: fzero passed for a factor's err", MPREAL,
        "_poly_log(coeffs, cden, dsum, x.val, x.err, fb)",
        "_poly_log(coeffs, cden, dsum, x.val, fzero, fb)", GAMMA),
    # the series kernel, _scaled_sum
    Row("_scaled_sum: +1 of the E step dropped", MPREAL,
        "E = -(m * E * P // Q) + 1", "E = -(m * E * P // Q)", KERNEL),
    Row("_scaled_sum: E step's ceiling a floor", MPREAL,
        "E = -(m * E * P // Q) + 1", "E = (-m * E * P // Q) + 1", KERNEL),
    Row("_scaled_sum: cancellation on numerators only", MPREAL,
        "if a[0] > 0 and a in bottoms:\n            bottoms.remove(a)",
        "if a[0] > 0 and a[0] in dict(bottoms):\n            bottoms.remove((a[0], dict(bottoms)[a[0]]))",
        KERNEL),
    Row("_scaled_sum: |u| dropped from the D > 0 step", MPREAL,
        "E * uD) * P // (aU * Q)) + 1", "E * uD) * P // Q) + 1", KERNEL),
    # caught only by the block digest: ceil(E |N| / qq) is at least 1 and
    # covers the block's floor of S unless E |N| / qq is an integer
    Row("_scaled_sum: block's +1 on E_sum dropped", MPREAL,
        "E_sum += -(-E * abs(N) // qq) + 1", "E_sum += -(-E * abs(N) // qq)", KERNEL),
    Row("_scaled_sum: block's E_sum with |pp| for |N|", MPREAL,
        "E_sum += -(-E * abs(N) // qq) + 1", "E_sum += -(-E * abs(pp) // qq) + 1", KERNEL),
    # IntervalGap, the verdicts' interval arithmetic
    Row("IntervalGap: y's radius dropped", MPREAL,
        "radius = mpf_add(x.err, y.err, ERR_BITS, RU)", "radius = x.err", VERDICTS),
    Row("IntervalGap: radius rounded down", MPREAL,
        "radius = mpf_add(x.err, y.err, ERR_BITS, RU)", "radius = mpf_add(x.err, y.err, ERR_BITS, RD)",
        VERDICTS),
    Row("IntervalGap: gap rounded down", MPREAL,
        "mpf_sub(x.val, y.val, ERR_BITS, RU)", "mpf_sub(x.val, y.val, ERR_BITS, RD)", VERDICTS),
    Row("IntervalGap: touching intervals disjoint", MPREAL,
        "mpf_cmp(self.dist, self.radius) > 0", "mpf_cmp(self.dist, self.radius) >= 0", VERDICTS),
    Row("IntervalGap: radius dropped from log2_bound", MPREAL,
        "total = mpf_add(self.dist, self.radius, ERR_BITS, RU)", "total = self.dist", VERDICTS),
    Row("IntervalGap: tolerance rounded down", MPREAL,
        "mpf_div(self.scale, power, ERR_BITS, RU)", "mpf_div(self.scale, power, ERR_BITS, RD)",
        VERDICTS,
        why="10^-digits max(1, |x|) is the precision asked of an equal verdict, not a bound: "
        "rounded down it moves the equal/inconclusive line by 2^-31 of itself"),
    # hyper_terms, the one exact term walk
    Row("hyper_terms: pole test widened to -n <= l", HYPER,
        "and -n < l <= 0:", "and -n <= l <= 0:", WALK),
    Row("hyper_terms: pole test narrowed to l < 0", HYPER,
        "and -n < l <= 0:", "and -n < l < 0:", WALK),
    Row("hyper_terms: z dropped from the step", HYPER,
        "top = z.numerator * math.prod(q for _, q in lows)\n    bottom = z.denominator * ",
        "top = math.prod(q for _, q in lows)\n    bottom = ", WALK),
    Row("hyper_terms: upper and lower denominators swapped", HYPER,
        "math.prod(q for _, q in lows)\n    bottom = z.denominator * math.prod(q for _, q in ups)",
        "math.prod(q for _, q in ups)\n    bottom = z.denominator * math.prod(q for _, q in lows)",
        WALK),
)


def run(row: Row) -> tuple[str, float | None]:
    """The row's verdict and the seconds its tests took, None if they timed out."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests", "demos", "benchmarks"):
            shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
        path = root / row.file
        path.write_text(path.read_text().replace(row.snippet, row.replacement))
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *row.tests]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "caught", None
        seconds = time.perf_counter() - start
    return {0: "uncaught", 1: "caught"}.get(done.returncode, "error"), seconds


def main(argv: list[str]) -> int:
    rows = [row for row in ROWS if not argv or any(text in row.name for text in argv)]
    for row in rows:  # every snippet is checked before anything runs
        count = (ROOT / row.file).read_text().count(row.snippet)
        if count != 1:
            print(f"drifted: {row.name}: the snippet occurs {count} times in {row.file}")
            return 2
    worst = 0
    for row in rows:
        verdict, seconds = run(row)
        took = f"{seconds:6.1f} s" if seconds is not None else f">{TIMEOUT_S} s (timed out)"
        line = f"{verdict:9s} {row.name:48s} {took}  {' '.join(row.tests)}"
        if verdict == "uncaught" and row.why:
            line += f"\n          expected: {row.why}"
        print(line, flush=True)
        if verdict == "error":
            worst = 2
        elif verdict == "uncaught" and not row.why:
            worst = max(worst, 1)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
