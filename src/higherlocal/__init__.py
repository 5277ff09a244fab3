"""Exact computer algebra for flat connections on iterated Laurent series fields.

The package computes, over towers k((t1))...((tn)) with exact rational
coefficients: truncated series arithmetic with certified precision windows,
exact valuation-aware linear algebra, flat connections and their functorial
operations, cyclic vectors and Newton polygons, windowed Tate-style operator
indices, de Rham cohomology dimensions, cube multicomplex checks and graded
epsilon-line degrees, together with a CLI for file-driven computations.
"""

from .connection import (
    Connection,
    FlatnessReport,
    KummerCover,
    induct,
    kummer_pullback,
    rank1_from_form,
    regular_representation,
)
from .derham import (
    BinaryMultiComplex,
    CohomologyReport,
    FormTuple,
    MultiComplexReport,
    build_multicomplex,
    check_multicomplex,
    cohomology_dims,
    standard_forms,
)
from .dmodule import (
    NewtonPolygon,
    ScalarOperator,
    connection_irregularity,
    find_cyclic_vector,
    newton_polygon,
    to_scalar_operator,
    wronskian,
)
from .epsilon import (
    EpsilonReport,
    SignConvention,
    consistent_signs,
    epsilon_degree,
    verify_duality,
    verify_induction,
)
from .linalg import (
    SeriesMatrix,
    inverse,
    rank_kernel_det,
    solve,
)
from .series import (
    OneForm,
    TowerElement,
    TowerField,
    exterior_derivative,
    residue,
    set_working_precision,
    working_precision,
)
from .specfile import SpecFile, parse_specfile
from .tate import (
    DirectionalProfile,
    IndexReport,
    MatrixDiffOp,
    operator_index,
)

__all__ = [
    "BinaryMultiComplex",
    "CohomologyReport",
    "Connection",
    "DirectionalProfile",
    "EpsilonReport",
    "FlatnessReport",
    "FormTuple",
    "IndexReport",
    "KummerCover",
    "MatrixDiffOp",
    "MultiComplexReport",
    "NewtonPolygon",
    "OneForm",
    "ScalarOperator",
    "SeriesMatrix",
    "SignConvention",
    "SpecFile",
    "TowerElement",
    "TowerField",
    "build_multicomplex",
    "check_multicomplex",
    "cohomology_dims",
    "connection_irregularity",
    "consistent_signs",
    "epsilon_degree",
    "exterior_derivative",
    "find_cyclic_vector",
    "induct",
    "inverse",
    "kummer_pullback",
    "newton_polygon",
    "operator_index",
    "parse_specfile",
    "rank1_from_form",
    "rank_kernel_det",
    "regular_representation",
    "residue",
    "set_working_precision",
    "solve",
    "standard_forms",
    "to_scalar_operator",
    "verify_duality",
    "verify_induction",
    "working_precision",
    "wronskian",
]
