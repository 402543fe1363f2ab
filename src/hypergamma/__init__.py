"""hypergamma: arbitrary-precision Gauss 2F1 evaluation with rational
parameters, exact 2F1 transformation chains, and numeric verification of
Gamma-product closed forms against an identity catalog."""

from .exact import Poly, RatFunc, Rational, rational, rational_str
from .gammaexpr import (
    GammaExpr,
    Verdict,
    achieved_digits,
    ge_eval,
    num_equal,
)
from .hyper import (
    HypParams,
    f21_eval,
    f21_integral,
    f21_series,
    f21_terminating,
    pochhammer,
)
from .mpreal import (
    BigReal,
    PowerIntegrand,
    Precision,
    beta,
    gamma,
    pi_value,
    power_product,
    tanh_sinh_integrate,
)
from .transforms import (
    CUBIC,
    EULER,
    MAIN_ARGUMENT,
    MAIN_PARAMS,
    MAIN_RHS,
    QUADRATIC_C_2B,
    QUADRATIC_MEAN,
    RULES,
    DerivationTrace,
    HypTerm,
    TransformRule,
    apply_rule,
    derive_main,
    gosper_rhs,
    twelfth_degree_map,
    verify_gosper_proof,
    verify_zj_split,
)
from .catalog import (
    CANARY_CATALOG,
    DEFAULT_CATALOG,
    IdentityRecord,
    VerificationReport,
    catalog_load,
    run_all,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    # exact
    "Poly", "RatFunc", "Rational", "rational", "rational_str",
    # gammaexpr
    "GammaExpr", "Verdict", "achieved_digits", "ge_eval", "num_equal",
    # hyper
    "HypParams", "f21_eval", "f21_integral", "f21_series", "f21_terminating",
    "pochhammer",
    # mpreal
    "BigReal", "PowerIntegrand", "Precision", "beta", "gamma", "pi_value",
    "power_product", "tanh_sinh_integrate",
    # transforms
    "CUBIC", "EULER", "MAIN_ARGUMENT", "MAIN_PARAMS", "MAIN_RHS", "QUADRATIC_C_2B",
    "QUADRATIC_MEAN", "RULES", "DerivationTrace", "HypTerm", "TransformRule",
    "apply_rule", "derive_main", "gosper_rhs", "twelfth_degree_map",
    "verify_gosper_proof", "verify_zj_split",
    # catalog
    "CANARY_CATALOG", "DEFAULT_CATALOG", "IdentityRecord", "VerificationReport",
    "catalog_load", "run_all", "verify_identity",
]
