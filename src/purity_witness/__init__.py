"""Purity and concurrence certification from two-step temporal correlations."""

__version__ = "0.1.0"

from .quantum import (  # noqa: F401
    BinaryMeasurement,
    BlochState,
    DensityMatrix,
    Effect,
    bloch_length_from_purity,
    bloch_to_density,
    density_to_bloch,
    partial_trace,
    purity,
    random_density,
    wootters_concurrence,
)
from .sequence import (  # noqa: F401
    CorrelationTable,
    LinearFunctional,
    ProtocolPair,
    b1,
    b1_weights,
    correlations,
    evaluate_functional,
    qudit_maxmixed_protocol,
    qutrit_value4_protocol,
    theorem2_protocol,
)
from .witness import (  # noqa: F401
    ConcurrenceBound,
    PurityBound,
    b1_max_constrained,
    b1_max_initial,
    concurrence_bounds_from_state,
    concurrence_upper_from_b1,
    multipartite_concurrence_upper,
    postmeasurement_purity_bound,
    purity_lower_bound,
    robustness_penalty,
)
from .optimizer import (  # noqa: F401
    OptimizationReport,
    QubitEffectParams,
    maximize_b1_qubit,
    maximize_b1_qudit_maxmixed,
    maximize_linear_functional,
    monotonicity_sweep,
    optimal_states_for_effects,
)
from .counts import CountsRecord, estimate_b1, ingest_counts  # noqa: F401
from .certificate import WitnessCertificate, certify  # noqa: F401
