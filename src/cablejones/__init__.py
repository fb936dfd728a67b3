"""Exact colored Jones polynomials of zero-volume links.

Links built from the unknot by cabling, framing twists and connected sums
are evaluated by an explicit cabling expansion over exact integer Laurent
polynomials in A = q^(1/4).  Two symmetric-function oracles and a
Kauffman bracket, summed by a Temperley-Lieb transfer over braid words,
certify the combinatorial coefficients and the values of torus knots and of
cables of the trefoil at colors 2 and 3, and the asymptotics module
demonstrates the decay of the normalized invariant at A = exp(i*pi/2N).

The bracket takes a braid word and a strand count,
``kauffman_bracket(word, strands)``; ``cable_word`` builds the word of a
chain of cables over the unknot, and more than ``bracket.MAX_STRANDS``
strands raise ``TooManyStrands``.

No error reports a vanishing invariant: at A = 1 the invariant is the
product of the colors, so it is never zero, and the error class that growth
tables once raised for a zero invariant has been removed from the API.
"""

from .asympt import (
    DepthExceeded,
    DivergentLimit,
    GrowthRecord,
    InsufficientData,
    ModerationReport,
    eval_normalized_at_root,
    growth_table,
    lhospital_limit,
    moderation_check,
    vanishing_order,
)
from .bracket import (
    MonomialMatch,
    TooManyStrands,
    cable_word,
    equal_up_to_monomial,
    jones_from_bracket,
    kauffman_bracket,
    parallel_word,
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
