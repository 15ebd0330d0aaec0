"""Full-state tomography toolkit for two exchange-coupled spin qubits.

The package builds a complete 15-projector measurement quorum out of
mutually unbiased two-qubit bases, realizes each quorum state as a short
gate circuit over the native double-dot operations (exchange pulses,
local z rotations, a magnetic-field-gradient pulse and one resonant
spin flip), simulates projective charge readout with finite statistics
and imperfections, and reconstructs the density matrix by linear
inversion or maximum likelihood, with predicted error covariances.

Layout
------
qmath        Pauli/tau operator bases, states, fidelities, RNG streams
gates        native gate set and circuits
quorum       quorum construction, P matrix, structural witnesses
dotmodel     six-level two-electron charge/spin model and sweeps
measure      shot sampling, readout degradation, exact averaging over
             Gaussian gate-angle noise
reconstruct  linear inversion, covariance prediction, maximum likelihood
_kernels     the likelihood-ascent loop behind the maximum likelihood
cli          command line front end (``spintomo ...``)
"""

__version__ = "0.4.0"

from . import _kernels, dotmodel, gates, measure, qmath, quorum, reconstruct
from .dotmodel import DotParams, exchange_J, min_singlet_gap, spectrum_sweep
from .gates import Circuit, Gate, GateKind, evolve_projector
from .measure import (
    MeasurementPlan,
    NoiseModel,
    ShotRecord,
    average_projector,
    born_probabilities,
    degrade_projector,
    plan_shots,
    simulate_counts,
)
from .qmath import (
    DensityMatrix,
    PureState,
    pauli_assemble,
    pauli_expand,
    random_density,
    state_fidelity,
    tau_expand,
    trace_distance,
)
from .quorum import (
    Projector,
    Quorum,
    james_quorum,
    mub_preparations,
    mub_quorum,
    pmatrix,
)
from .reconstruct import (
    ReconstructionResult,
    covariance_bound,
    covariance_predict,
    linear_reconstruct,
    mle_from_frequencies,
    mle_reconstruct,
)

__all__ = [
    "__version__",
    "qmath", "gates", "quorum", "dotmodel", "measure", "reconstruct", "_kernels",
    "DensityMatrix", "PureState", "pauli_assemble", "pauli_expand",
    "random_density", "state_fidelity", "tau_expand", "trace_distance",
    "Circuit", "Gate", "GateKind", "evolve_projector",
    "Projector", "Quorum", "james_quorum", "mub_preparations", "mub_quorum",
    "pmatrix",
    "DotParams", "exchange_J", "min_singlet_gap", "spectrum_sweep",
    "MeasurementPlan", "NoiseModel", "ShotRecord", "average_projector",
    "born_probabilities", "degrade_projector", "plan_shots", "simulate_counts",
    "ReconstructionResult", "covariance_bound", "covariance_predict",
    "linear_reconstruct", "mle_from_frequencies", "mle_reconstruct",
]
