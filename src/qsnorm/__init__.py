"""Randomized estimation of normalized traces and Schatten 2-norms of
quantum operations, fidelity-based similarity testing, and sample-based
circuit learning, all on a dense statevector simulator.

The estimators need only one classical random angle per sample and one
clean ancilla qubit per interference test, with sample complexity
independent of system size.
"""

from .hadamard import (
    hadamard_shot_budget,
    measurement_budget_mixed,
    mixed_quadratic_form,
)
from .learn import (
    Ansatz,
    LearnConfig,
    LearnResult,
    ParamSlot,
    ansatz_from_dict,
    ansatz_to_dict,
    finite_diff_gradient,
    learn_circuit,
    loss,
)
from .qsim import (
    Circuit,
    CircuitFormatError,
    DenseUnitary,
    GateOp,
    MixedOperation,
    StateVector,
    adjoint,
    apply_circuit,
    circuit_from_dict,
    circuit_matrix,
    circuit_to_dict,
    exact_normalized_trace,
    exact_schatten2,
    haar_random_unitary,
    mixed_operation_from_dict,
    mixed_operation_matrix,
    mixed_operation_to_dict,
    zero_state,
)
from .sampler import (
    SampleBudget,
    classical_schatten2_estimate,
    classical_trace_estimate,
    derive_seed,
    derived_rng,
    exactness_grid,
    frequency_ladder,
    sample_budget_schatten2,
    sample_budget_trace,
    sample_thetas,
    sqrt_error_propagation_holds,
)
from .schatten import (
    SchattenEstimate,
    difference_mixture,
    estimate_difference_norm,
    quantum_schatten2_estimate,
    sampling_circuit,
    schatten2_estimate_from_thetas,
)
from .similarity import (
    SimilarityVerdict,
    TauEstimate,
    decide_similarity,
    estimate_tau,
    fidelity,
    haar_fidelities,
    haar_random_state,
    monte_carlo_similarity,
    rotation_perturbed_pair,
    similarity_bound_mixed,
    similarity_bound_unitary,
    similarity_slack,
)

__version__ = "0.1.0"
