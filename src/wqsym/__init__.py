"""Exact computations with packed words and quasi-shuffle algebras.

The monomial basis of the packed-word algebra carries three products (outer
``*``, internal ``@``, bullet ``&``) and a coproduct; truncated series in the
completion provide Adams operations and quasi-Eulerian idempotents; tensor
spaces over a free commutative algebra without unit, and quasi-symmetric
functions over compositions, carry the right action that ties everything
together.  All coefficients are exact rationals, ``int`` or ``Fraction``, so
every identity check in the test battery is an exact equality.
:class:`ParamPoly`, a polynomial in named parameters, is exported as the
value type of the coefficients that ``wqsym expand sigma_t`` prints; no
element takes one as a coefficient.
"""

from .algebra import (
    TensorSquare,
    WQSymElement,
    crucial_factorization_check,
    embed_sym_hat,
    embed_sym_hat_closed,
    embed_sym_standard,
    ribbon_hat,
    ribbon_standard,
)
from .errors import BasisMismatch, CapExceeded, ExpressionError, NotInvertible
from .params import ParamPoly
from .qshuffle import (
    AElement,
    QSElement,
    QSTensor,
    adams_on_indecomposables_check,
    apply_generator_map,
    car_coproduct_compatibility_check,
    concat,
    convolution_of_operators,
    e1_kills_products_check,
    elements_act_equally,
    naturality_check,
    tensor,
)
from .qsym import (
    QSymElement,
    WeightReport,
    commutative_image,
    e1_projection_check,
    lyndon_generator_report,
    qsym_adams,
    qsym_adams_oracle,
    sigma_hat_series,
)
from .series import (
    TruncatedSeries,
    adams,
    eulerian_e1_closed_form,
    eulerian_idempotent,
    identity_series,
    log_identity,
    unipotence_check,
)
from .words import (
    FUBINI,
    compositions,
    descents,
    enumerate_packed_words,
    evaluation,
    is_lyndon,
    is_packed,
    lyndon_compositions,
    pack,
    quasi_shuffle_words,
    reverse,
    shifted_concat,
)

__version__ = "0.1.0"
