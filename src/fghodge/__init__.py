"""Exact computation of irregular Hodge numbers for rigid connections on the
punctured line attached to simple complex Lie types, plus the Jordan-type,
exponent, minuscule-Betti and symbolic-integrability machinery around them.
"""

from .character import Character, irrep_character, weyl_dimension
from .chevalley import (
    PrincipalTriple,
    RepMatrices,
    StructureConstants,
    adjoint_rep,
    classical_std_rep,
    jordan_type,
    principal_triple,
    structure_constants,
)
from .connection import (
    LaurentMatrix,
    integrability_residual,
    rmodule_pair,
)
from .errors import (
    ConfigurationError,
    FghodgeError,
    IntegrityError,
    ResourceLimitError,
    UnsupportedRepresentationError,
    UsageError,
)
from .grading import (
    HodgeTable,
    JordanPartition,
    distinct_blocks,
    exponents,
    functoriality_check,
    hodge_from_partition,
    hodge_numbers,
    partition_from_grading,
    principal_grading,
    rho_grading,
)
from .kkp import (
    BettiTable,
    MinusculeCase,
    kkp_check,
    minuscule_case,
    minuscule_nodes,
    weight_graph_betti,
)
from .rootdatum import RootDatum, SimpleType, build_root_datum, pair, weyl_orbit

__version__ = "0.1.0"

__all__ = [
    "Character",
    "irrep_character",
    "weyl_dimension",
    "PrincipalTriple",
    "RepMatrices",
    "StructureConstants",
    "adjoint_rep",
    "classical_std_rep",
    "jordan_type",
    "principal_triple",
    "structure_constants",
    "LaurentMatrix",
    "integrability_residual",
    "rmodule_pair",
    "ConfigurationError",
    "FghodgeError",
    "IntegrityError",
    "ResourceLimitError",
    "UnsupportedRepresentationError",
    "UsageError",
    "HodgeTable",
    "JordanPartition",
    "distinct_blocks",
    "exponents",
    "functoriality_check",
    "hodge_from_partition",
    "hodge_numbers",
    "partition_from_grading",
    "principal_grading",
    "rho_grading",
    "BettiTable",
    "MinusculeCase",
    "kkp_check",
    "minuscule_case",
    "minuscule_nodes",
    "weight_graph_betti",
    "RootDatum",
    "SimpleType",
    "build_root_datum",
    "pair",
    "weyl_orbit",
]
