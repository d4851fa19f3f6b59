"""twindual: reflection representations of the twin group, partial Brauer
diagram algebras, and desk-scale certification of their duality."""

from .scalars import (
    QContext,
    AdmissibilityReport,
    excluded_q,
    is_q_admissible,
    q_factorial,
    q_int,
)
from .linalg import Matrix, commutator, kron, kron_power, nullspace, rank, span_dimension
from .hecke import RepContext
from .diagrams import AlgebraElement, PartialDiagram, compose, enumerate_diagrams, generator, multiply
from .tensor_action import TensorContext, diagram_matrix
from .duality import (
    DualityReport,
    InadmissibleParameterError,
    brauer_duality_check,
    commutant_dimension,
    center_dimension,
    lambda_count,
    schur_weyl_check,
)

__version__ = "0.1.0"

__all__ = [
    "QContext",
    "AdmissibilityReport",
    "excluded_q",
    "is_q_admissible",
    "q_factorial",
    "q_int",
    "Matrix",
    "commutator",
    "kron",
    "kron_power",
    "nullspace",
    "rank",
    "span_dimension",
    "RepContext",
    "AlgebraElement",
    "PartialDiagram",
    "compose",
    "enumerate_diagrams",
    "generator",
    "multiply",
    "TensorContext",
    "diagram_matrix",
    "DualityReport",
    "InadmissibleParameterError",
    "brauer_duality_check",
    "commutant_dimension",
    "center_dimension",
    "lambda_count",
    "schur_weyl_check",
    "__version__",
]
