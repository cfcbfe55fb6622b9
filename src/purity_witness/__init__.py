"""Purity and concurrence certification from two-step temporal correlations.

Exported names are imported from their submodule on first access (PEP 562),
so ``import purity_witness`` and the closed-form command-line paths start
without numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("quantum", "BinaryMeasurement BlochState DensityMatrix Effect "
         "bloch_to_density density_to_bloch partial_trace purity "
         "wootters_concurrence"),
        ("sequence", "CorrelationTable LinearFunctional ProtocolPair b1 b1_weights "
         "correlations evaluate_functional qudit_maxmixed_protocol "
         "qutrit_value4_protocol theorem2_protocol"),
        ("witness", "ConcurrenceBound PurityBound b1_max_constrained b1_max_initial "
         "bloch_length_from_purity concurrence_bounds_from_state "
         "concurrence_upper_from_b1 multipartite_concurrence_upper "
         "postmeasurement_purity_bound purity_lower_bound robustness_penalty"),
        ("optimizer", "OptimizationReport maximize_b1_qubit "
         "maximize_b1_qudit_maxmixed maximize_linear_functional "
         "monotonicity_sweep"),
        ("counts", "CountsRecord estimate_b1 ingest_counts"),
        ("certificate", "WitnessCertificate certify"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
