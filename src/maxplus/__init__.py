"""Exact max-plus linear algebra and CSR expansions of matrix powers."""

from .tropical import (
    EPSILON,
    DimensionMismatchError,
    PositiveCircuitError,
    TropicalMatrix,
    TropicalScalar,
    as_value,
    kleene_star,
    matrix_mul,
    matrix_power,
)
from .digraph import (
    CircuitRecord,
    CriticalGraph,
    CyclicityClasses,
    build_graph,
    critical_graph,
    cyclicity_classes,
    karp_max_cycle_mean,
    principal_eigenvectors,
)
from .charpoly import (
    ChiEvaluation,
    Mmcs,
    MultiCircuit,
    characteristic_roots,
    chi_eval,
)
from .partition import NodePartition, partition_nodes
from .visualize import (
    GroupVisualization,
    InvariantViolationError,
    VisualizationResult,
    visualize_all,
)
from .csr import (
    CsrExpansion,
    CsrTerm,
    build_s,
    compute_cr_pair,
    expand,
    reduce_term,
)

__version__ = "0.1.0"

__all__ = [
    "EPSILON", "DimensionMismatchError", "PositiveCircuitError", "TropicalMatrix",
    "TropicalScalar", "as_value", "kleene_star", "matrix_mul", "matrix_power",
    "CircuitRecord", "CriticalGraph", "CyclicityClasses", "build_graph", "critical_graph",
    "cyclicity_classes", "karp_max_cycle_mean", "principal_eigenvectors",
    "ChiEvaluation", "Mmcs", "MultiCircuit", "characteristic_roots", "chi_eval",
    "NodePartition", "partition_nodes",
    "GroupVisualization", "InvariantViolationError", "VisualizationResult", "visualize_all",
    "CsrExpansion", "CsrTerm", "build_s", "compute_cr_pair", "expand", "reduce_term",
]
