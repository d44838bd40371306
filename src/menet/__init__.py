"""Conditional-separability graphs for n-qubit pure states.

The package extracts an undirected graph over qubits (edges = conditional
entanglement given all other qubits) together with per-node amplitude-ratio
potentials, reconstructs states from such models, answers exact
probabilistic queries (linear-time on chains), and classifies 3-qubit
states by topology.
"""

import importlib
import sys
import types

# Each submodule -> the public names it defines. A submodule is imported the
# first time one of its names is looked up (PEP 562), so a command pays only
# for the modules it runs.
_EXPORTS = {
    "errors": (
        "AllBasesRejected", "DegenerateState", "EnumerationBoundExceeded",
        "FileFormatError", "InconsistentGraph", "InvalidPartition", "InvalidQuery",
        "InvalidUnitary", "MenError", "MissingBinding", "NotAChain", "NotAPrefix",
        "NotSeparable", "WrongArity", "ZeroAmplitudeWarning", "ZeroEvidenceProbability",
        "ZeroProbabilityOutcome", "ZeroReferenceAmplitude",
    ),
    "state": (
        "DEFAULT_TOL", "Assignment", "LocalBasisChange", "ProductStateSample",
        "PureState", "ToleranceConfig", "apply_local_basis_change", "assignment_of",
        "basis_state", "fidelity_up_to_phase", "haar_qubit_unitary", "index_of",
        "load_state", "measure_qubit", "random_nonzero_state", "random_product_state",
        "random_state", "rotation", "save_state", "tensor_product",
    ),
    "separability": (
        "SeparabilityVerdict", "a_independent", "conditionally_separable",
        "default_reference", "extract_factors", "factor_round_trip_fidelity",
        "is_separable",
    ),
    "network": (
        "GraphoidReport", "MenGraph", "MenModel", "PerfectMapReport", "QFunctionTable",
        "build_graph", "check_graphoid_axioms", "export_dot", "extract_men",
        "load_model", "measure_and_update", "node_separation", "normalization_modulus",
        "q_value", "random_model", "reconstruct_state", "save_model", "verify_perfect_map",
    ),
    "inference": (
        "BenchReport", "BenchRow", "MleResult", "QueryResult", "bench_chains",
        "chain_marginal_ratio", "chain_prefix_marginal_ratio",
        "conditional_probability", "marginal_probability", "marginal_ratio",
        "mle_brute_force", "mle_chain", "probability_of", "random_chain_model",
    ),
    "classify": (
        "ClassTag", "InvarianceReport", "TopologyCensus", "TripartiteClass",
        "canonical_state", "class_invariance_check", "classify", "topology_census",
        "topology_shape",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    # the public names are __all__; imports and loaded submodules stay out
    return sorted(set(__all__) | {name for name in globals() if name.startswith("_")})


class _Package(types.ModuleType):
    """The package module; binds each submodule's names as the submodule loads.

    The import system sets a submodule that has just loaded as an attribute
    of its package. Binding the submodule's public names at that moment
    gives them the objects it defined, read as plain attributes from then
    on, as eager imports would. `classify` is both a submodule and a public
    function: the function keeps the name, whichever is imported first.
    """

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and value.__name__ == f"{self.__name__}.{name}":
            for export in _EXPORTS.get(name, ()):
                super().__setattr__(export, getattr(value, export))
            if name in _HOME:
                return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
