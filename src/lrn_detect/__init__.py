"""Long-range nonstabilizerness detection for translation-invariant MPS.

Decides, from a single site tensor, whether a state family carries
nonstabilizerness that no shallow local circuit can remove: the tensor is
decomposed into weighted normal blocks, whose coarse-graining fixed point
(Schmidt weights of its entangled pairs) is read in closed form from the
blocks' transfer fixed points, as is the subleading transfer modulus that
fixes each block's flow toward it; the resulting weight spectrum is fed
to an entropy criterion (sufficient for long-range magic) and a
weight-ratio criterion (necessary for exact short-range magic).  ``rg_fixed_point``
builds the fixed-point tensors in closed form as well.  Exact stabilizer and
dense engines verify the supporting facts on small instances.  The package
holds what its pipelines run; the tests keep their independent oracles,
such as the iterated RG flow, to themselves.

The exports load lazily (PEP 562): ``_EXPORTS`` maps each module to the
names it exports, and the first use of a name imports its module.  So a
process loads only the engines it runs: ``import lrn_detect`` loads no
submodule, and ``lrn_detect.cli`` loads the RG, dense, circuit,
causal-cone and tableau engines only when ``verify`` or ``stab`` runs.
The ``verify`` suites, with their invariance sweep and its tolerance, live
in ``lrn_detect.verify`` and are not exported here.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names it exports from the package.
_EXPORTS = {
    "canonical": (
        "CanonicalBlock", "CanonicalForm", "GaugeRelation", "canonical_decompose",
    ),
    "causal": ("BoundaryChannel", "CausalConeReduction", "causal_cone_reduce"),
    "circuits": ("BrickworkCircuit", "apply_brickwork", "random_brickwork"),
    "criteria": (
        "EXACT_SRN_EXCLUDED", "INCONCLUSIVE", "LRN_CERTIFIED", "Verdict", "ghz_classify",
        "lrn_entropy_check", "shannon_entropy", "srn_ratio_check", "typicality_log_ratio",
    ),
    "dense": (
        "DenseState", "flatness_check", "materialize_fixed_point", "mutual_information",
        "partial_transpose", "reduced_density",
    ),
    "exact": ("ExactWeight", "best_rational", "squared_ratio"),
    "partition": ("Partition", "build_partition"),
    "rg": ("FixedPointBlock", "FixedPointState", "rg_fixed_point"),
    "spectral": ("NormalityWitness", "SpectralData", "is_normal", "transfer_spectral"),
    "stabilizer": ("PauliString", "StabilizerTableau", "random_clifford_circuit"),
    "tensor": ("MpsTensor", "block_tensor", "mixed_transfer_matrix", "transfer_matrix"),
    "weights": ("WeightSpectrum", "evaluate_weights"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module behind an exported name on first use, then keep the name."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
