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
gates        native gate set, circuits, and the one pass that runs
             circuits on readouts (exact, or averaged over Gaussian
             gate-angle noise)
quorum       quorum construction (the 15 operators as one validated
             (15, 4, 4) stack), P matrix, structural witnesses
dotmodel     six-level two-electron charge/spin model, tracked level sweeps
measure      shot counts (one sampler for a run and a study) and readout
             degradation, both on operator stacks
reconstruct  one entry point for linear inversion and maximum likelihood,
             covariance prediction
_kernels     the binomial likelihood and its ascent loop
cli          command line front end (``spintomo ...``)
"""

__version__ = "0.7.1"

from . import dotmodel, gates, measure, qmath, quorum, reconstruct
from .dotmodel import DotParams, spectrum_sweep
from .gates import Circuit, Gate, GateKind, NoiseModel
from .measure import (
    average_projector,
    born_probabilities,
    degrade_readout,
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
    covariance_predict,
    linear_from_frequencies,
    mle_from_frequencies,
)

__all__ = [
    "__version__",
    "qmath", "gates", "quorum", "dotmodel", "measure", "reconstruct",
    "DensityMatrix", "PureState", "pauli_assemble", "pauli_expand",
    "random_density", "state_fidelity", "tau_expand", "trace_distance",
    "Circuit", "Gate", "GateKind", "NoiseModel",
    "Projector", "Quorum", "james_quorum", "mub_preparations", "mub_quorum",
    "pmatrix",
    "DotParams", "spectrum_sweep",
    "average_projector", "born_probabilities", "degrade_readout",
    "plan_shots", "simulate_counts",
    "ReconstructionResult", "covariance_predict",
    "linear_from_frequencies", "mle_from_frequencies",
]
