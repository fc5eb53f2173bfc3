"""Frobenius roots, generalized test ideals, and F-jumping coefficients
of principal ideals in F_p[x_1..x_n], with exact arithmetic throughout."""

from .chains import (
    ChainTrace,
    NilComparison,
    TotalOrderViolation,
    bijection_check,
    chain,
    nil_compare,
    psi,
)
from .digits import (
    BasePExpansion,
    CanonicalForm,
    OrbitReport,
    canonicalize,
    expand,
    frac_mod,
    multiplicative_order,
    orbit,
    reconstruct,
)
from .frobenius import (
    FrobeniusDecomposition,
    frobenius_decompose,
    frobenius_root_ideal,
    frobenius_root_poly,
    verify_star,
)
from .grammar import (
    ExponentOverflowError,
    ParseError,
    UnknownVariableError,
    format_poly,
    infer_variables,
    parse_poly,
)
from .ideals import BudgetExceededError, Ideal, normal_form, reduced_groebner
from .ring import Monomial, Polynomial, RingContext, grevlex_key
from .testideals import (
    Jump,
    JumpReport,
    ceil_mul,
    check_scaling_law,
    enumerate_jumps,
    is_jumping,
    nu,
    phi_step,
    tau,
    tau_dyadic,
    tau_left_limit,
)
from .verify import (
    Corpus,
    CorpusEntry,
    VerificationReport,
    default_corpus,
    load_corpus,
    run_suite,
)

__version__ = "0.1.0"
