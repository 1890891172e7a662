"""Exact hyperdifferential computer algebra on the ring K[E,g,h] over F_q(T)."""

from .algebra import (
    FieldConfig,
    InconsistentSystem,
    PolyT,
    RatT,
    binom_mod_p,
    bracket,
    d_coeff,
    linear_solve,
)
from .hyperd import DerivationEngine, OrderOutOfRange, depth_drop
from .qmring import (
    DepthPoly,
    GradingSignature,
    NotIsobaric,
    QmPoly,
    associated_polynomial,
    d1,
    grading,
    modular_basis,
    qm_basis,
)
from .tseries import (
    TSeries,
    alpha,
    carlitz,
    evaluate,
    expand_E,
    expand_g,
    expand_h,
    hyper_derive,
    nu_infinity,
    t_sub,
)
from .verify import (
    IdealId,
    StabilityReport,
    check_hyperstable,
    diagram_inclusions,
    h_power_quotients,
    member,
    munu_congruence,
    weight_divisibility_check,
)

__version__ = "0.1.0"
