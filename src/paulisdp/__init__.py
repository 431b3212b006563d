"""Semidefinite programming over Pauli-string ansatz subspaces.

The pipeline: pick a seed state and a set of Pauli strings, measure the
overlap matrices the reduced program needs (simulated here, exactly or
with shot noise), then solve a small Hermitian SDP classically.  Solver
frontends follow the estimator convention: configure in ``__init__``,
``fit`` the problem instance, read trailing-underscore results.
"""

from .ansatz import AnsatzSet, OverlapSet, build_overlaps, krylov_ansatz, x_string_ansatz
from .base import BaseSolver
from .models import (
    DiscriminationInstance,
    Graph,
    XorGame,
    build_model,
    chsh_graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    heisenberg_hamiltonian,
    ising_hamiltonian,
    ising_split,
    magnetization,
    random_pauli_operator,
    spin_flip_parity,
)
from .pauli import PauliString, PauliSum
from .sdp import (
    MatrixConstraint,
    SdpConstraint,
    SdpProblem,
    SdpSolution,
    SolveStatus,
    generalized_min_eig,
    gram_basis,
    solve,
)
from .solvers import (
    ExcitedStatesSolver,
    GroundStateSolver,
    LargestEigenvalueSolver,
    LovaszThetaSolver,
    RankOneReducer,
    SymmetrySectorSolver,
    UnambiguousDiscriminator,
    XorGameSolver,
    energy_sweep,
    two_state_discrimination_instance,
)
from .states import (
    DenseState,
    HardwareEfficientCircuit,
    PlusState,
    ProductState,
    QuantumAnnealingState,
    ZeroState,
    prepare,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzSet",
    "BaseSolver",
    "DenseState",
    "DiscriminationInstance",
    "ExcitedStatesSolver",
    "Graph",
    "GroundStateSolver",
    "HardwareEfficientCircuit",
    "LargestEigenvalueSolver",
    "LovaszThetaSolver",
    "MatrixConstraint",
    "OverlapSet",
    "PauliString",
    "PauliSum",
    "PlusState",
    "ProductState",
    "QuantumAnnealingState",
    "RankOneReducer",
    "SdpConstraint",
    "SdpProblem",
    "SdpSolution",
    "SolveStatus",
    "SymmetrySectorSolver",
    "UnambiguousDiscriminator",
    "XorGame",
    "XorGameSolver",
    "ZeroState",
    "build_model",
    "build_overlaps",
    "chsh_graph",
    "circulant_graph",
    "complete_graph",
    "cycle_graph",
    "energy_sweep",
    "generalized_min_eig",
    "gram_basis",
    "heisenberg_hamiltonian",
    "ising_hamiltonian",
    "ising_split",
    "krylov_ansatz",
    "magnetization",
    "prepare",
    "random_pauli_operator",
    "solve",
    "spin_flip_parity",
    "two_state_discrimination_instance",
    "x_string_ansatz",
]
