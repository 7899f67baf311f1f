"""Long-range nonstabilizerness detection for translation-invariant MPS.

Decides, from a single site tensor, whether a state family carries
nonstabilizerness that no shallow local circuit can remove: the tensor is
decomposed into weighted normal blocks, whose coarse-graining fixed point
(Schmidt weights of its entangled pairs) is read in closed form from the
blocks' transfer fixed points, as is the subleading transfer modulus that
fixes each block's flow toward it; the resulting weight spectrum is fed
to an entropy criterion (sufficient for long-range magic) and a
weight-ratio criterion (necessary for exact short-range magic).  ``rg_fixed_point``
builds the fixed-point tensors in closed form as well; the iterated RG
flow (``rg_step``) is the tests' oracle for both.  Exact stabilizer and
dense engines verify the supporting facts on small instances.
"""

from .canonical import (
    CanonicalBlock,
    CanonicalForm,
    GaugeRelation,
    canonical_decompose,
    gauge_equivalent,
    local_orthogonal,
)
from .circuits import BrickworkCircuit, apply_brickwork, haar_gate, random_brickwork
from .criteria import (
    EXACT_SRN_EXCLUDED,
    INCONCLUSIVE,
    LRN_CERTIFIED,
    Verdict,
    ghz_classify,
    lrn_entropy_check,
    shannon_entropy,
    srn_ratio_check,
    typicality_log_ratio,
)
from .causal import BoundaryChannel, CausalConeReduction, apply_reduction, causal_cone_reduce
from .dense import (
    DenseState,
    apply_local_gate,
    binary_entropy,
    fannes_check,
    flatness_check,
    materialize_fixed_point,
    materialize_mps,
    mutual_information,
    partial_transpose,
    reduced_density,
    subsystem_entropy,
    trace_distance_mixed,
    trace_distance_pure,
    von_neumann_entropy,
)
from .exact import ExactWeight, best_rational, squared_ratio
from .experiments import (
    InvarianceReport,
    fixed_point_sweep,
    invariance_sweep,
)
from .partition import Partition, build_partition
from .rg import FixedPointBlock, FixedPointState, RgStep, rg_fixed_point, rg_step
from .spectral import (
    NormalityWitness,
    SpectralData,
    correlation_length,
    is_normal,
    spectral,
    transfer_spectral,
)
from .stabilizer import PauliString, StabilizerTableau, random_clifford_circuit
from .tensor import MpsTensor, block_tensor, mixed_transfer_matrix, transfer_matrix
from .weights import WeightSpectrum, evaluate_weights

__version__ = "0.1.0"

__all__ = [
    "BoundaryChannel",
    "BrickworkCircuit",
    "CanonicalBlock",
    "CanonicalForm",
    "CausalConeReduction",
    "DenseState",
    "EXACT_SRN_EXCLUDED",
    "ExactWeight",
    "FixedPointBlock",
    "FixedPointState",
    "GaugeRelation",
    "INCONCLUSIVE",
    "InvarianceReport",
    "LRN_CERTIFIED",
    "MpsTensor",
    "NormalityWitness",
    "Partition",
    "PauliString",
    "RgStep",
    "SpectralData",
    "StabilizerTableau",
    "Verdict",
    "WeightSpectrum",
    "apply_brickwork",
    "apply_local_gate",
    "apply_reduction",
    "best_rational",
    "binary_entropy",
    "block_tensor",
    "build_partition",
    "canonical_decompose",
    "causal_cone_reduce",
    "correlation_length",
    "evaluate_weights",
    "fannes_check",
    "fixed_point_sweep",
    "flatness_check",
    "gauge_equivalent",
    "ghz_classify",
    "haar_gate",
    "invariance_sweep",
    "is_normal",
    "local_orthogonal",
    "lrn_entropy_check",
    "materialize_fixed_point",
    "materialize_mps",
    "mixed_transfer_matrix",
    "mutual_information",
    "partial_transpose",
    "random_brickwork",
    "random_clifford_circuit",
    "reduced_density",
    "rg_fixed_point",
    "rg_step",
    "shannon_entropy",
    "spectral",
    "squared_ratio",
    "srn_ratio_check",
    "subsystem_entropy",
    "trace_distance_mixed",
    "trace_distance_pure",
    "transfer_matrix",
    "transfer_spectral",
    "typicality_log_ratio",
    "von_neumann_entropy",
]
