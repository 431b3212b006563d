"""Solver frontends: estimator-style classes over the reduced-SDP pipeline.

Every solver follows the same contract: hyperparameters in ``__init__``,
``fit(problem)`` runs build-overlaps -> Gram projection -> SDP and stores
trailing-underscore results, returning ``self``.  A solver never raises on
an infeasible program -- infeasibility is a legitimate outcome surfaced in
``status_`` -- but it does raise on malformed inputs.
"""

from __future__ import annotations

import math

import numpy as np

from . import models
from .ansatz import AnsatzSet, OverlapSet, build_overlaps, krylov_ansatz, x_string_ansatz
from .base import BaseSolver
from .pauli import PauliString, PauliSum, basis_state_projector, hermitian_elementary
from .sdp import (
    BLOCK,
    SdpConstraint,
    SdpProblem,
    SolveStatus,
    eigen_solution,
    generalized_min_eig,
    gram_basis,
    normalized_program,
    solve,
)
from .states import (
    HardwareEfficientCircuit,
    PlusState,
    QuantumAnnealingState,
    StateSpec,
    ZeroState,
)
from .validation import check_hermitian_operator, check_positive_int, check_probability


def resolve_seed_state(
    seed_state,
    hamiltonian: PauliSum | None = None,
    layers: int = 4,
    anneal_time: float = 0.3,
    circuit_seed: int = 0,
) -> StateSpec:
    """Turn a shorthand name into a state spec.

    ``"annealing"`` derives its diagonal/X split from the Hamiltonian, so it
    only applies to models of that form (the Ising chain qualifies).
    """
    if isinstance(
        seed_state, (ZeroState, PlusState, HardwareEfficientCircuit, QuantumAnnealingState)
    ):
        return seed_state
    if seed_state == "zero":
        return ZeroState()
    if seed_state == "plus":
        return PlusState()
    if seed_state == "random":
        return HardwareEfficientCircuit(layers=layers, seed=circuit_seed)
    if seed_state == "annealing":
        if hamiltonian is None:
            raise ValueError("the annealing seed needs the Hamiltonian to split")
        hz, hx = models.diagonal_x_split(hamiltonian)
        return QuantumAnnealingState(layers=layers, total_time=anneal_time, hz=hz, hx=hx)
    raise ValueError(f"unknown seed state {seed_state!r}")


def _shots_kwargs(mode: str, shots: int, sample_seed: int) -> dict:
    if mode == "exact":
        return {}
    if mode == "shots":
        return {"shots": check_positive_int(shots, "shots"), "sample_seed": sample_seed}
    raise ValueError(f"mode must be 'exact' or 'shots', got {mode!r}")


def _measure(
    solver,
    hamiltonian: PauliSum,
    constraints: dict[str, PauliSum] | None = None,
    ansatz: AnsatzSet | None = None,
):
    """Seed state, Krylov strings, ``n_states`` prefix and overlaps, from a solver's settings.

    A given ``ansatz`` is measured as it is.
    """
    check_hermitian_operator(hamiltonian, "hamiltonian")
    if ansatz is None:
        seed = resolve_seed_state(
            solver.seed_state,
            hamiltonian,
            layers=solver.layers,
            anneal_time=solver.anneal_time,
            circuit_seed=solver.circuit_seed,
        )
        ansatz = krylov_ansatz(hamiltonian, seed, solver.krylov_order)
        if solver.n_states is not None:
            ansatz = ansatz.take(check_positive_int(solver.n_states, "n_states"))
    overlaps = build_overlaps(
        ansatz,
        objective=hamiltonian,
        constraints=constraints,
        dense_cap=solver.dense_cap,
        **_shots_kwargs(solver.mode, solver.shots, solver.sample_seed),
    )
    return ansatz, overlaps


def gram_cut(overlaps: OverlapSet, rank_tol: float | None = None) -> float | None:
    """Gram eigenvalue cut for measured overlaps.

    An explicit ``rank_tol`` wins.  In shots mode each Gram entry carries
    noise of order shots^(-1/2), so the M x M noise matrix has spectral norm
    of order sqrt(M/shots); the default cut 2 sqrt(M/shots) drops those
    directions (Epperly, Lin and Nakatsukasa, arXiv 2110.07492).  Exact mode
    returns None, leaving ``gram_basis``'s 1e-8 * lambda_max.
    """
    if rank_tol is None and overlaps.shots is not None:
        return 2.0 * math.sqrt(overlaps.n_states / overlaps.shots)
    return rank_tol


def _fit_normalized(solver, hamiltonian: PauliSum, sense: str) -> float:
    """Measure and solve the normalized program; sets the solver's fitted attributes."""
    solver.ansatz_, solver.overlaps_ = _measure(solver, hamiltonian)
    value, solver.beta_, solver.status_, solver.solution_, basis = solve_normalized(
        solver.overlaps_,
        sense=sense,
        method=solver.method,
        rank_tol=solver.rank_tol,
        tol_feas=solver.tol_feas,
        tol_gap=solver.tol_gap,
        max_iter=solver.max_iter,
    )
    solver.rank_ = basis.rank
    return value


def solve_normalized(
    overlaps: OverlapSet,
    sense: str = "min",
    method: str = "eig",
    rank_tol: float | None = None,
    tol_feas: float = 1e-8,
    tol_gap: float = 1e-8,
    max_iter: int = 200,
    extra_constraint_ops: dict[str, tuple[float, str]] | None = None,
):
    """Solve min/max Tr(beta D) with Tr(beta E) = 1 in the whitened basis.

    ``extra_constraint_ops`` maps names of overlap constraint matrices to
    (rhs, relation) pairs; such programs run the interior-point method.
    Otherwise ``method="eig"`` solves by one eigendecomposition, certified
    by ``eigen_solution``, and ``method="sdp"`` is the interior-point
    cross-check.  Returns (value, beta, status, solution, basis), beta in
    ansatz coordinates and solution an ``SdpSolution`` on either path.
    """
    if method not in ("sdp", "eig"):
        raise ValueError(f"method must be 'sdp' or 'eig', got {method!r}")
    rank_tol = gram_cut(overlaps, rank_tol)
    basis = gram_basis(overlaps.gram, rank_tol)
    d_tilde = basis.operator(overlaps.objective)
    if method == "eig" and not extra_constraint_ops:
        sign = 1.0 if sense == "min" else -1.0
        value, alpha = generalized_min_eig(
            sign * overlaps.objective, overlaps.gram, rank_tol
        )
        value *= sign
        beta = np.outer(alpha, alpha.conj())
        # whitened coordinates of alpha: T^H alpha with T = V diag(w^1/2)
        vec = np.sqrt(basis.eigenvalues) * (basis.raw_vectors.conj().T @ alpha)
        solution = eigen_solution(d_tilde, sense, vec, value, tol_feas, tol_gap)
        return value, beta, solution.status, solution, basis
    extra = []
    for name, (rhs, relation) in (extra_constraint_ops or {}).items():
        extra.append(
            SdpConstraint({BLOCK: basis.operator(overlaps.constraints[name])}, rhs, relation)
        )
    problem = normalized_program(d_tilde, sense, extra)
    solution = solve(problem, tol_feas=tol_feas, tol_gap=tol_gap, max_iter=max_iter)
    beta = None
    value = solution.objective_value
    if solution.blocks:
        beta = basis.lift_state(solution.blocks[BLOCK])
    return value, beta, solution.status, solution, basis


class GroundStateSolver(BaseSolver):
    """Lowest-energy estimate of a Hamiltonian over a Krylov ansatz set.

    fit(hamiltonian) sets ``energy_``, ``beta_`` (ansatz-coordinate
    coefficient matrix of the optimizing mixed state), ``status_``,
    ``ansatz_``, ``overlaps_``, ``rank_`` and ``solution_``, the certified
    ``SdpSolution`` of the whitened program.  The default ``method="eig"``
    solves it with one eigendecomposition; ``method="sdp"`` runs the
    interior-point method as a cross-check.
    """

    def __init__(
        self,
        seed_state="plus",
        krylov_order: int = 2,
        n_states: int | None = None,
        layers: int = 4,
        anneal_time: float = 0.3,
        circuit_seed: int = 0,
        mode: str = "exact",
        shots: int = 1024,
        sample_seed: int = 0,
        rank_tol: float | None = None,
        tol_feas: float = 1e-8,
        tol_gap: float = 1e-8,
        max_iter: int = 200,
        dense_cap: int = 14,
        method: str = "eig",
    ):
        self.seed_state = seed_state
        self.krylov_order = krylov_order
        self.n_states = n_states
        self.layers = layers
        self.anneal_time = anneal_time
        self.circuit_seed = circuit_seed
        self.mode = mode
        self.shots = shots
        self.sample_seed = sample_seed
        self.rank_tol = rank_tol
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.max_iter = max_iter
        self.dense_cap = dense_cap
        self.method = method

    def fit(self, hamiltonian: PauliSum) -> "GroundStateSolver":
        self.energy_ = _fit_normalized(self, hamiltonian, "min")
        return self


class LargestEigenvalueSolver(BaseSolver):
    """Largest-eigenvalue estimate: the normalized program with max sense.

    With a product seed (zero/plus) this runs at qubit counts far beyond the
    dense cap; fit(operator) sets ``eigenvalue_``, ``beta_``, ``status_`` and
    ``solution_`` (an ``SdpSolution`` on either ``method``, as for
    ``GroundStateSolver``).
    """

    def __init__(
        self,
        seed_state="zero",
        krylov_order: int = 2,
        n_states: int | None = None,
        layers: int = 4,
        anneal_time: float = 0.3,
        circuit_seed: int = 0,
        mode: str = "exact",
        shots: int = 1024,
        sample_seed: int = 0,
        rank_tol: float | None = None,
        tol_feas: float = 1e-8,
        tol_gap: float = 1e-8,
        max_iter: int = 200,
        dense_cap: int = 14,
        method: str = "eig",
    ):
        self.seed_state = seed_state
        self.krylov_order = krylov_order
        self.n_states = n_states
        self.layers = layers
        self.anneal_time = anneal_time
        self.circuit_seed = circuit_seed
        self.mode = mode
        self.shots = shots
        self.sample_seed = sample_seed
        self.rank_tol = rank_tol
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.max_iter = max_iter
        self.dense_cap = dense_cap
        self.method = method

    def fit(self, operator: PauliSum) -> "LargestEigenvalueSolver":
        self.eigenvalue_ = _fit_normalized(self, operator, "max")
        return self


class ExcitedStatesSolver(BaseSolver):
    """Ground state plus the next ``n_excited`` states by iterated deflation.

    Each level is the normalized program with the added constraints that
    the new coefficient matrix has zero overlap Tr(beta E beta_prev E) with
    every state already found.  Between PSD matrices that confines level k
    to the complement of the k lowest eigenvectors of the whitened
    objective, where its optimum is the k-th eigenpair, so one
    eigendecomposition gives every level and ``eigen_solution`` certifies
    each on its deflated program.  A level beyond the Gram rank is
    ``INFEASIBLE``.  fit(hamiltonian) sets ``energies_``, ``betas_``,
    ``statuses_`` and ``orthogonality_residuals_``.
    """

    def __init__(
        self,
        n_excited: int = 3,
        seed_state="plus",
        krylov_order: int = 2,
        n_states: int | None = None,
        layers: int = 4,
        anneal_time: float = 0.3,
        circuit_seed: int = 0,
        mode: str = "exact",
        shots: int = 1024,
        sample_seed: int = 0,
        rank_tol: float | None = None,
        tol_feas: float = 1e-8,
        tol_gap: float = 1e-8,
        dense_cap: int = 14,
    ):
        self.n_excited = n_excited
        self.seed_state = seed_state
        self.krylov_order = krylov_order
        self.n_states = n_states
        self.layers = layers
        self.anneal_time = anneal_time
        self.circuit_seed = circuit_seed
        self.mode = mode
        self.shots = shots
        self.sample_seed = sample_seed
        self.rank_tol = rank_tol
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.dense_cap = dense_cap

    def fit(self, hamiltonian: PauliSum) -> "ExcitedStatesSolver":
        ansatz, overlaps = _measure(self, hamiltonian)
        if self.n_excited > len(ansatz) - 1:
            raise ValueError(
                f"n_excited={self.n_excited} exceeds ansatz size minus one ({len(ansatz) - 1})"
            )
        basis = gram_basis(overlaps.gram, gram_cut(overlaps, self.rank_tol))
        d_tilde = basis.operator(overlaps.objective)
        r = basis.rank

        evals, evecs = np.linalg.eigh(d_tilde)
        energies: list[float] = []
        betas_tilde: list[np.ndarray] = []
        statuses: list[SolveStatus] = []
        for level in range(self.n_excited + 1):
            if level >= r:
                statuses.append(SolveStatus.INFEASIBLE)
                break
            q = evecs[:, level:]  # complement of the levels already found
            sol = eigen_solution(
                q.conj().T @ d_tilde @ q, "min", q.conj().T @ evecs[:, level], evals[level],
                self.tol_feas, self.tol_gap,
            )
            statuses.append(sol.status)
            if not sol.is_optimal:
                break
            vec = evecs[:, level]
            betas_tilde.append(np.outer(vec, vec.conj()))
            energies.append(sol.objective_value)

        self.ansatz_ = ansatz
        self.overlaps_ = overlaps
        self.rank_ = r
        self.energies_ = energies
        self.betas_ = [basis.lift_state(bt) for bt in betas_tilde]
        self.statuses_ = statuses
        e = overlaps.gram
        residuals = []
        for i in range(len(self.betas_)):
            for j in range(i):
                residuals.append(
                    abs(np.trace(self.betas_[i] @ e @ self.betas_[j] @ e))
                )
        self.orthogonality_residuals_ = np.array(residuals)
        return self


class SymmetrySectorSolver(BaseSolver):
    """Lowest energy within a symmetry sector: <S> and <S^2> pinned.

    ``symmetry`` is a PauliSum commuting with the Hamiltonian, or one of the
    shorthands "parity" (product of X, for ZZ+X chains) and "magnetization"
    (sum of Z).  Infeasibility at small ansatz size is a legitimate outcome
    reported in ``status_``/``feasible_``, with ``energy_`` NaN.
    """

    def __init__(
        self,
        symmetry="magnetization",
        sector_value: float = 0.0,
        seed_state="random",
        krylov_order: int = 2,
        n_states: int | None = None,
        layers: int = 4,
        anneal_time: float = 0.3,
        circuit_seed: int = 0,
        mode: str = "exact",
        shots: int = 1024,
        sample_seed: int = 0,
        rank_tol: float | None = None,
        tol_feas: float = 1e-8,
        tol_gap: float = 1e-8,
        max_iter: int = 200,
        dense_cap: int = 14,
    ):
        self.symmetry = symmetry
        self.sector_value = sector_value
        self.seed_state = seed_state
        self.krylov_order = krylov_order
        self.n_states = n_states
        self.layers = layers
        self.anneal_time = anneal_time
        self.circuit_seed = circuit_seed
        self.mode = mode
        self.shots = shots
        self.sample_seed = sample_seed
        self.rank_tol = rank_tol
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.max_iter = max_iter
        self.dense_cap = dense_cap

    def _resolve_symmetry(self, hamiltonian: PauliSum) -> PauliSum:
        if isinstance(self.symmetry, PauliSum):
            return self.symmetry
        if self.symmetry == "parity":
            return models.spin_flip_parity(hamiltonian.n_qubits)
        if self.symmetry == "magnetization":
            return models.magnetization(hamiltonian.n_qubits)
        raise ValueError(f"unknown symmetry {self.symmetry!r}")

    def fit(self, hamiltonian: PauliSum) -> "SymmetrySectorSolver":
        check_hermitian_operator(hamiltonian, "hamiltonian")
        symmetry = check_hermitian_operator(self._resolve_symmetry(hamiltonian), "symmetry")
        if not symmetry.commutes_with(hamiltonian):
            raise ValueError("symmetry operator does not commute with the Hamiltonian")
        ansatz, overlaps = _measure(
            self, hamiltonian, {"symmetry": symmetry, "symmetry_sq": symmetry * symmetry}
        )
        s_k = float(self.sector_value)
        basis = gram_basis(overlaps.gram, gram_cut(overlaps, self.rank_tol))
        self.ansatz_ = ansatz
        self.overlaps_ = overlaps
        self.rank_ = basis.rank
        self.solution_ = None

        # Deflate constraints pinned at an eigenvalue extreme of their
        # matrix: Tr(beta W) = lambda_max(W) with Tr(beta) = 1 forces beta
        # onto the top eigenspace (and likewise at the bottom).  Those
        # constraints have no interior -- parity sectors and the edges of
        # the particle-number ladder always hit this -- so substituting the
        # eigenspace keeps the path-following well posed.  A pinned value
        # outside the spectrum is infeasibility, detected right here.
        subspace = np.eye(basis.rank, dtype=complex)
        pending = [
            (basis.operator(overlaps.constraints["symmetry"]), s_k),
            (basis.operator(overlaps.constraints["symmetry_sq"]), s_k**2),
        ]
        equalities = []
        infeasible = False
        for w, c in pending:
            w_sub = subspace.conj().T @ w @ subspace
            w_sub = (w_sub + w_sub.conj().T) / 2.0
            evals, evecs = np.linalg.eigh(w_sub)
            scale = max(1.0, float(np.max(np.abs(evals))))
            tol = 1e-8 * scale
            if c > evals[-1] + tol or c < evals[0] - tol:
                infeasible = True
                break
            if c >= evals[-1] - tol:
                keep = evals >= evals[-1] - tol
                subspace = subspace @ evecs[:, keep]
            elif c <= evals[0] + tol:
                keep = evals <= evals[0] + tol
                subspace = subspace @ evecs[:, keep]
            else:
                equalities.append((w, c))

        if infeasible:
            self.status_ = SolveStatus.INFEASIBLE
            self.feasible_ = False
            self.energy_ = math.nan
            self.beta_ = None
            return self

        d_sub = subspace.conj().T @ basis.operator(overlaps.objective) @ subspace
        d_sub = (d_sub + d_sub.conj().T) / 2.0
        extra = []
        for w, c in equalities:
            w_sub = subspace.conj().T @ w @ subspace
            extra.append(SdpConstraint({BLOCK: (w_sub + w_sub.conj().T) / 2.0}, c))
        problem = normalized_program(d_sub, "min", extra)
        sol = solve(problem, tol_feas=self.tol_feas, tol_gap=self.tol_gap,
                    max_iter=self.max_iter)
        self.solution_ = sol
        self.status_ = sol.status
        self.feasible_ = sol.status is not SolveStatus.INFEASIBLE
        if sol.status is SolveStatus.OPTIMAL:
            self.energy_ = sol.objective_value
            beta_sub = subspace @ sol.blocks[BLOCK] @ subspace.conj().T
            self.beta_ = basis.lift_state((beta_sub + beta_sub.conj().T) / 2.0)
        else:
            self.energy_ = math.nan
            self.beta_ = None
        return self


class UnambiguousDiscriminator(BaseSolver):
    """Optimal measurement coefficients for unambiguous state discrimination.

    fit(instance) maximizes the mean correct-identification probability
    subject to a per-state misclassification budget and the leftover effect
    staying PSD.  Sets ``q_correct_``, ``q_unknown_``, ``povms_`` (ansatz
    coefficient matrices), ``error_rates_`` and ``status_``.
    """

    def __init__(
        self,
        error_budget: float = 0.0,
        rank_tol: float | None = None,
        tol_feas: float = 1e-8,
        tol_gap: float = 1e-8,
        max_iter: int = 200,
    ):
        self.error_budget = error_budget
        self.rank_tol = rank_tol
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.max_iter = max_iter

    def fit(self, instance: "models.DiscriminationInstance") -> "UnambiguousDiscriminator":
        eps = check_probability(self.error_budget, "error_budget")
        basis = gram_basis(instance.gram, self.rank_tol)
        betas = [basis.state(b) for b in instance.betas]
        n_s = len(betas)
        r = basis.rank
        complex_data = any(np.max(np.abs(b.imag)) > 1e-14 for b in betas) or (
            np.max(np.abs(np.asarray(instance.gram).imag)) > 1e-14
        )

        # With a zero error budget the misclassification traces vanish, and
        # for PSD effects that is exactly a range condition: effect n lives
        # in the orthogonal complement of the other states.  Substituting
        # that subspace restores a strict interior for the path following.
        subspaces: list[np.ndarray | None] = []
        for n in range(n_s):
            if eps > 0.0:
                subspaces.append(np.eye(r, dtype=complex))
                continue
            others = sum(betas[k] for k in range(n_s) if k != n)
            evals, evecs = np.linalg.eigh(others)
            keep = evals <= 1e-10 * max(float(evals[-1]), 1.0)
            subspaces.append(evecs[:, keep] if np.any(keep) else None)

        povm_names = [f"povm_{k}" for k in range(n_s)]
        active = [n for n in range(n_s) if subspaces[n] is not None]
        blocks = [(povm_names[n], subspaces[n].shape[1]) for n in active]
        blocks.append(("leftover", r))
        objective = {
            povm_names[n]: subspaces[n].conj().T @ betas[n] @ subspaces[n] / n_s
            for n in active
        }

        constraints = []
        # leftover + sum_k povm_k = identity, one scalar constraint per
        # Hermitian basis element
        basis_elements = []
        for i in range(r):
            e = np.zeros((r, r), dtype=complex)
            e[i, i] = 1.0
            basis_elements.append((e, 1.0))
        for i in range(r):
            for j in range(i + 1, r):
                e = np.zeros((r, r), dtype=complex)
                e[i, j] = e[j, i] = 1.0
                basis_elements.append((e, 0.0))
                if complex_data:
                    e = np.zeros((r, r), dtype=complex)
                    e[i, j] = 1j
                    e[j, i] = -1j
                    basis_elements.append((e, 0.0))
        for e, rhs in basis_elements:
            mats = {
                povm_names[n]: subspaces[n].conj().T @ e @ subspaces[n] for n in active
            }
            mats["leftover"] = e
            constraints.append(SdpConstraint(mats, rhs))
        if eps > 0.0:
            # misclassification budget per true state
            for k in range(n_s):
                mats = {
                    povm_names[n]: subspaces[n].conj().T @ betas[k] @ subspaces[n]
                    for n in range(n_s)
                    if n != k
                }
                constraints.append(SdpConstraint(mats, eps, "<="))

        problem = SdpProblem(blocks=blocks, sense="max", objective=objective,
                             constraints=constraints)
        sol = solve(problem, tol_feas=self.tol_feas, tol_gap=self.tol_gap,
                    max_iter=self.max_iter)

        self.basis_ = basis
        self.status_ = sol.status
        self.solution_ = sol
        if sol.status is SolveStatus.INFEASIBLE or not sol.blocks:
            self.q_correct_ = math.nan
            self.q_unknown_ = math.nan
            self.povms_ = None
            self.error_rates_ = None
            return self
        gammas = []
        for n in range(n_s):
            if subspaces[n] is None:
                gammas.append(np.zeros((r, r), dtype=complex))
            else:
                g = sol.blocks[povm_names[n]]
                gammas.append(subspaces[n] @ g @ subspaces[n].conj().T)
        leftover = sol.blocks["leftover"]
        self.q_correct_ = sol.objective_value
        self.q_unknown_ = float(
            np.mean([np.trace(leftover @ b).real for b in betas])
        )
        self.error_rates_ = np.array(
            [
                sum(np.trace(betas[k] @ gammas[n]).real for n in range(n_s) if n != k)
                for k in range(n_s)
            ]
        )
        self.povms_ = [basis.lift_state(g) for g in gammas]
        return self


def two_state_discrimination_instance(
    angle: float,
    n_qubits: int = 6,
    n_strings: int = 12,
    layers: int = 4,
    seed: int = 0,
    error_budget: float = 0.0,
) -> "models.DiscriminationInstance":
    """Two hybrid pure states at a prescribed angle in a random ansatz space.

    The states are built from one random-circuit seed expanded by random
    Pauli strings; their coefficient vectors are Gram-orthonormalized and
    interpolated so that arccos(sqrt(Tr(rho1 rho2))) equals ``angle``.
    """
    rng = np.random.default_rng(seed)
    strings = [np.zeros(n_qubits, dtype=np.uint8)]
    seen = {strings[0].tobytes()}
    while len(strings) < n_strings:
        codes = rng.integers(0, 4, size=n_qubits).astype(np.uint8)
        if codes.tobytes() not in seen:
            seen.add(codes.tobytes())
            strings.append(codes)
    ansatz = AnsatzSet(
        seed=HardwareEfficientCircuit(layers=layers, seed=seed),
        strings=tuple(PauliString(c) for c in strings),
        orders=tuple([0] + [1] * (n_strings - 1)),
    )
    overlaps = build_overlaps(ansatz)
    e = overlaps.gram

    def e_norm(v):
        return math.sqrt(max(float((v.conj() @ e @ v).real), 1e-300))

    v1 = rng.normal(size=n_strings)
    u1 = v1 / e_norm(v1)
    v2 = rng.normal(size=n_strings)
    v2 = v2 - (u1.conj() @ e @ v2) * u1
    u2 = v2 / e_norm(v2)
    w = math.cos(angle) * u1 + math.sin(angle) * u2
    w = w / e_norm(w)
    betas = (np.outer(u1, u1.conj()), np.outer(w, w.conj()))
    return models.DiscriminationInstance(gram=e, betas=betas, error_budget=error_budget)


class LovaszThetaSolver(BaseSolver):
    """Lovasz theta of a graph, at graph dimension or over an X-string ansatz.

    Ansatz mode embeds the vertices in the first computational-basis
    coordinates of ceil(log2 n) qubits (real seed states only) and imposes
    the edge and padding-isolation constraints through measured overlap
    matrices.  fit(graph) sets ``theta_`` and ``status_``.
    """

    def __init__(
        self,
        mode: str = "direct",
        seed_state="zero",
        n_states: int | None = None,
        layers: int = 4,
        circuit_seed: int = 0,
        rank_tol: float | None = None,
        tol_feas: float = 1e-9,
        tol_gap: float = 1e-9,
        max_iter: int = 200,
    ):
        self.mode = mode
        self.seed_state = seed_state
        self.n_states = n_states
        self.layers = layers
        self.circuit_seed = circuit_seed
        self.rank_tol = rank_tol
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.max_iter = max_iter

    def fit(self, graph: "models.Graph") -> "LovaszThetaSolver":
        if self.mode == "direct":
            return self._fit_direct(graph)
        if self.mode == "ansatz":
            return self._fit_ansatz(graph)
        raise ValueError(f"mode must be 'direct' or 'ansatz', got {self.mode!r}")

    def _fit_direct(self, graph: "models.Graph") -> "LovaszThetaSolver":
        n = graph.n_vertices
        if n > 32:
            raise ValueError("direct mode capped at 32 vertices")
        constraints = [SdpConstraint({"x": np.eye(n)}, 1.0)]
        for i, j in graph.edges:
            a = np.zeros((n, n))
            a[i, j] = a[j, i] = 1.0
            constraints.append(SdpConstraint({"x": a}, 0.0))
        problem = SdpProblem(
            blocks=[("x", n)],
            sense="max",
            objective={"x": np.ones((n, n))},
            constraints=constraints,
        )
        sol = solve(problem, tol_feas=self.tol_feas, tol_gap=self.tol_gap,
                    max_iter=self.max_iter)
        self.status_ = sol.status
        self.solution_ = sol
        self.theta_ = sol.objective_value if sol.is_optimal else math.nan
        return self

    def _fit_ansatz(self, graph: "models.Graph") -> "LovaszThetaSolver":
        n = graph.n_vertices
        n_qubits = max(1, math.ceil(math.log2(n)))
        dim = 1 << n_qubits
        seed = resolve_seed_state(
            self.seed_state, layers=self.layers, circuit_seed=self.circuit_seed
        )
        if not isinstance(seed, (ZeroState, HardwareEfficientCircuit)):
            raise ValueError(
                "ansatz mode needs a real-valued seed: zero state or y-rotation circuit"
            )
        ansatz = x_string_ansatz(n_qubits, seed)
        if self.n_states is not None:
            ansatz = ansatz.take(check_positive_int(self.n_states, "n_states"))

        all_ones = PauliSum(n_qubits)
        for i in range(n):
            for j in range(n):
                all_ones = all_ones + basis_state_projector(n_qubits, i, j)

        constraint_ops: dict[str, PauliSum] = {}
        pairs = list(graph.edges) + [(i, j) for i in range(n) for j in range(n, dim)]
        for i, j in pairs:
            constraint_ops[f"re_{i}_{j}"] = hermitian_elementary(n_qubits, i, j)
            constraint_ops[f"im_{i}_{j}"] = hermitian_elementary(n_qubits, i, j, imaginary=True)

        overlaps = build_overlaps(ansatz, objective=all_ones, constraints=constraint_ops)
        value, beta, status, solution, basis = solve_normalized(
            overlaps,
            sense="max",
            rank_tol=self.rank_tol,
            tol_feas=self.tol_feas,
            tol_gap=self.tol_gap,
            max_iter=self.max_iter,
            extra_constraint_ops={name: (0.0, "=") for name in constraint_ops},
        )
        self.ansatz_ = ansatz
        self.overlaps_ = overlaps
        self.status_ = status
        self.solution_ = solution
        self.beta_ = beta
        self.theta_ = value if status is SolveStatus.OPTIMAL else math.nan
        return self


class XorGameSolver(BaseSolver):
    """Quantum bias and value of a two-player XOR game.

    fit(game) sets ``bias_`` and ``value_`` = 0.5 + 0.5 * bias_, solving
    either at full matrix dimension or over the X-string ansatz with the
    unit-diagonal constraints expressed as measured overlaps.
    """

    def __init__(
        self,
        mode: str = "direct",
        seed_state="zero",
        n_states: int | None = None,
        layers: int = 4,
        circuit_seed: int = 0,
        rank_tol: float | None = None,
        tol_feas: float = 1e-9,
        tol_gap: float = 1e-9,
        max_iter: int = 200,
    ):
        self.mode = mode
        self.seed_state = seed_state
        self.n_states = n_states
        self.layers = layers
        self.circuit_seed = circuit_seed
        self.rank_tol = rank_tol
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.max_iter = max_iter

    def fit(self, game: "models.XorGame") -> "XorGameSolver":
        h = game.h_matrix()
        if self.mode == "direct":
            n = h.shape[0]
            constraints = []
            for i in range(n):
                a = np.zeros((n, n))
                a[i, i] = 1.0
                constraints.append(SdpConstraint({"z": a}, 1.0))
            problem = SdpProblem(
                blocks=[("z", n)], sense="max", objective={"z": h}, constraints=constraints
            )
            sol = solve(problem, tol_feas=self.tol_feas, tol_gap=self.tol_gap,
                        max_iter=self.max_iter)
            self.status_ = sol.status
            self.solution_ = sol
            self.bias_ = sol.objective_value if sol.is_optimal else math.nan
        elif self.mode == "ansatz":
            self._fit_ansatz(game, h)
        else:
            raise ValueError(f"mode must be 'direct' or 'ansatz', got {self.mode!r}")
        self.value_ = 0.5 + 0.5 * self.bias_
        return self

    def _fit_ansatz(self, game: "models.XorGame", h: np.ndarray) -> None:
        n = h.shape[0]
        n_qubits = max(1, math.ceil(math.log2(n)))
        dim = 1 << n_qubits
        seed = resolve_seed_state(
            self.seed_state, layers=self.layers, circuit_seed=self.circuit_seed
        )
        if not isinstance(seed, (ZeroState, HardwareEfficientCircuit)):
            raise ValueError(
                "ansatz mode needs a real-valued seed: zero state or y-rotation circuit"
            )
        ansatz = x_string_ansatz(n_qubits, seed)
        if self.n_states is not None:
            ansatz = ansatz.take(check_positive_int(self.n_states, "n_states"))

        objective = PauliSum(n_qubits)
        for i in range(n):
            for j in range(n):
                if h[i, j] != 0.0:
                    objective = objective + h[i, j] * basis_state_projector(n_qubits, i, j)
        constraint_ops = {
            f"diag_{i}": basis_state_projector(n_qubits, i, i) for i in range(dim)
        }
        overlaps = build_overlaps(ansatz, objective=objective, constraints=constraint_ops)

        basis = gram_basis(overlaps.gram, gram_cut(overlaps, self.rank_tol))
        extra = [
            SdpConstraint({BLOCK: basis.operator(overlaps.constraints[name])}, 1.0)
            for name in constraint_ops
        ]
        problem = SdpProblem(
            blocks=[(BLOCK, basis.rank)],
            sense="max",
            objective={BLOCK: basis.operator(overlaps.objective)},
            constraints=extra,
        )
        sol = solve(problem, tol_feas=self.tol_feas, tol_gap=self.tol_gap,
                    max_iter=self.max_iter)
        self.ansatz_ = ansatz
        self.overlaps_ = overlaps
        self.status_ = sol.status
        self.solution_ = sol
        self.bias_ = sol.objective_value if sol.is_optimal else math.nan


class RankOneReducer(BaseSolver):
    """Quadratic-program data for the rank-one-restricted reduction.

    fit(objective, constraints=(), rhs=()) measures the objective and
    constraint overlap matrices.  With no constraint beyond the built-in
    normalization the program is solved exactly through the generalized
    eigenvalue shortcut (``value_``, ``alpha_``); otherwise the data is
    emitted unsolved with ``solvable_`` False, since the general
    quadratically constrained program is out of reach here.
    """

    def __init__(
        self,
        seed_state="zero",
        krylov_order: int = 2,
        n_states: int | None = None,
        layers: int = 4,
        anneal_time: float = 0.3,
        circuit_seed: int = 0,
        mode: str = "exact",
        shots: int = 1024,
        sample_seed: int = 0,
        rank_tol: float | None = None,
        dense_cap: int = 14,
    ):
        self.seed_state = seed_state
        self.krylov_order = krylov_order
        self.n_states = n_states
        self.layers = layers
        self.anneal_time = anneal_time
        self.circuit_seed = circuit_seed
        self.mode = mode
        self.shots = shots
        self.sample_seed = sample_seed
        self.rank_tol = rank_tol
        self.dense_cap = dense_cap

    def fit(self, objective: PauliSum, constraints=(), rhs=(), ansatz=None) -> "RankOneReducer":
        check_hermitian_operator(objective, "objective")
        constraints = list(constraints)
        rhs = [float(v) for v in rhs]
        if len(constraints) != len(rhs):
            raise ValueError("constraints and rhs must have the same length")
        named = {f"c{i}": op for i, op in enumerate(constraints)}
        self.ansatz_, overlaps = _measure(self, objective, named, ansatz)
        self.overlaps_ = overlaps
        self.objective_matrix_ = overlaps.objective
        self.constraint_matrices_ = [overlaps.gram] + [
            overlaps.constraints[f"c{i}"] for i in range(len(constraints))
        ]
        self.rhs_ = np.array([1.0] + rhs)
        self.solvable_ = len(constraints) == 0
        if self.solvable_:
            self.value_, self.alpha_ = generalized_min_eig(
                overlaps.objective, overlaps.gram, gram_cut(overlaps, self.rank_tol)
            )
            self.reason_ = None
        else:
            self.value_ = None
            self.alpha_ = None
            self.reason_ = (
                "general quadratically constrained programs are NP-hard; "
                "only the normalization-only case is solved exactly"
            )
        return self


def energy_sweep(
    hamiltonian: PauliSum,
    seed_state,
    krylov_order: int,
    m_values,
    sense: str = "min",
    layers: int = 4,
    anneal_time: float = 0.3,
    circuit_seed: int = 0,
    mode: str = "exact",
    shots: int = 1024,
    sample_seed: int = 0,
    rank_tol: float | None = None,
    tol_feas: float = 1e-8,
    tol_gap: float = 1e-8,
    max_iter: int = 200,
    dense_cap: int = 14,
    method: str = "eig",
):
    """Normalized-program values over an ansatz-size sweep.

    Overlaps are measured once at the largest requested size and sliced,
    which is how nested prefix sets behave on a device.  Returns a list of
    (m, value, status_name) rows ordered by m.
    """
    check_hermitian_operator(hamiltonian, "hamiltonian")
    seed = resolve_seed_state(
        seed_state, hamiltonian, layers=layers, anneal_time=anneal_time,
        circuit_seed=circuit_seed,
    )
    ansatz = krylov_ansatz(hamiltonian, seed, krylov_order)
    m_values = sorted({int(m) for m in m_values})
    if m_values[0] < 1 or m_values[-1] > len(ansatz):
        raise ValueError(f"m values must lie in 1..{len(ansatz)}")
    full = build_overlaps(
        ansatz.take(m_values[-1]),
        objective=hamiltonian,
        dense_cap=dense_cap,
        **_shots_kwargs(mode, shots, sample_seed),
    )
    rows = []
    for m in m_values:
        value, _beta, status, _sol, _basis = solve_normalized(
            full.restricted(m),
            sense=sense,
            method=method,
            rank_tol=rank_tol,
            tol_feas=tol_feas,
            tol_gap=tol_gap,
            max_iter=max_iter,
        )
        rows.append((m, value, status.value))
    return rows
