"""Exact colored Jones polynomials of zero-volume links.

Links built from the unknot by cabling, framing twists and connected sums
are evaluated by an explicit cabling expansion over exact integer Laurent
polynomials in A = q^(1/4).  Two symmetric-function oracles and a
Kauffman-bracket state sum certify the combinatorial coefficients and the
color-2 values, and the asymptotics module demonstrates the decay of the
normalized invariant at A = exp(i*pi/2N).
"""

from .asympt import (
    DepthExceeded,
    DivergentLimit,
    GrowthRecord,
    InsufficientData,
    ModerationReport,
    VanishingInvariant,
    eval_normalized_at_root,
    growth_table,
    lhospital_limit,
    moderation_check,
    vanishing_order,
)
from .bracket import (
    MonomialMatch,
    PlanarDiagram,
    TooManyCrossings,
    braid_closure_diagram,
    equal_up_to_monomial,
    jones_from_bracket,
    kauffman_bracket,
    torus_closure_diagram,
)
from .jones import (
    DeferredRatio,
    colored_jones,
    normalized_jones,
)
from .laurent import (
    ComputationError,
    LaurentPoly,
    NotDivisible,
    RootOfUnityPoint,
    divide_by_quantum_integer,
    quantum_integer,
)
from .linkexpr import (
    BadCableParams,
    BadComponentIndex,
    Cable,
    ColorArityMismatch,
    ConnSum,
    ExprSyntaxError,
    ExpressionTooDeep,
    LinkExpr,
    NonPositiveColor,
    Twist,
    Unknot,
    component_count,
    mirror_expr,
    parse,
    to_text,
    validate_colors,
)
from .symfun import (
    NotContained,
    TwoRowPartition,
    chain_trace,
    h_product_character_expansion,
    skew_schur_at_roots,
    verify_coefficients,
)
from .trinomial import CoeffTable, coefficient, trinomial_table

__version__ = "0.1.0"
