"""Solver frontends: estimator-style classes over the reduced-SDP pipeline.

Every solver follows the same contract: keyword-only hyperparameters in
``__init__`` (dataclass fields, shared through the ``_KrylovSolver`` and
``_XStringSolver`` settings bases), ``fit(problem)`` runs build-overlaps ->
Gram projection -> SDP and stores trailing-underscore results, returning
``self``.  A solver never raises on an infeasible program -- infeasibility
is a legitimate outcome surfaced in ``status_`` -- but it does raise on
malformed inputs.  A Krylov fit measures, then solves in the public
``fit_overlaps(overlaps)``, so sweeps over m or over a sector measure once.

Every Krylov fit goes through one reduced-program layer: ``_whiten`` cuts
and whitens the Gram matrix once, ``_eigen_levels`` solves and certifies
normalization-only programs with one eigendecomposition in that basis, and
``_equalities`` whitens the measured sector equalities for the sampled-sector
fallback.  X-string fits pose the ``oracle`` program through a whitened map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, oracle
from .ansatz import (AnsatzSet, OverlapSet, _stacked_words, build_overlaps, krylov_ansatz,
                     x_string_ansatz)
from .base import BaseSolver
from .pauli import PauliString, PauliSum, SettingError, dense_action
from .sdp import (
    BLOCK,
    MatrixConstraint,
    SdpConstraint,
    SdpProblem,
    SdpSolution,
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
    ProductState,
    QuantumAnnealingState,
    StateSpec,
    ZeroState,
    prepare,
)
from .validation import (check_hermitian_operator, check_positive_int, check_probability,
                         check_sample_seed)

# Solver settings: a generated keyword-only __init__ that BaseSolver's
# get_params/set_params introspect; solvers keep BaseSolver's repr and
# compare and hash by identity.
_settings = dataclass(eq=False, repr=False, kw_only=True)


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
        try:
            hz, hx = models.diagonal_x_split(hamiltonian)
        except ValueError as exc:
            raise SettingError(f"the annealing seed state cannot be built: {exc}") from None
        return QuantumAnnealingState(layers=layers, total_time=anneal_time, hz=hz, hx=hx)
    raise ValueError(f"unknown seed state {seed_state!r}")


def _shots_kwargs(mode: str, shots: int, seed: int) -> dict:
    if mode == "exact":
        return {}
    if mode == "shots":
        return dict(shots=check_positive_int(shots, "shots"), sample_seed=check_sample_seed(seed))
    raise ValueError(f"mode must be 'exact' or 'shots', got {mode!r}")


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


def _check_method(method: str) -> None:
    if method not in ("sdp", "eig"):
        raise ValueError(f"method must be 'sdp' or 'eig', got {method!r}")


def _whiten(overlaps: OverlapSet, rank_tol: float | None = None):
    """Gram basis at ``gram_cut`` and the whitened objective d~ = S^H D S."""
    basis = gram_basis(overlaps.gram, gram_cut(overlaps, rank_tol))
    return basis, basis.operator(overlaps.objective)


def _eigen_levels(d_tilde: np.ndarray, sense: str, n_levels: int, tol_feas: float,
                  tol_gap: float) -> tuple[list[SdpSolution], np.ndarray]:
    """The ``n_levels`` lowest (``sense="max"``: highest) eigenpairs, certified.

    One ``eigh``.  Level 0 is certified by ``eigen_solution`` on d~ itself,
    level k on the complement of the levels below it, where it is the
    extreme eigenpair.  Stops after the first level that fails its
    certificate, and at the rank of d~.  Returns the solutions and the
    eigenvectors in d~'s coordinates, column k for level k.
    """
    sign = 1.0 if sense == "min" else -1.0
    evals, evecs = np.linalg.eigh(sign * d_tilde)
    levels: list[SdpSolution] = []
    for k in range(min(n_levels, evals.size)):
        sub, vec = d_tilde, evecs[:, 0]
        if k:
            q = evecs[:, k:]
            sub, vec = q.conj().T @ d_tilde @ q, q.conj().T @ evecs[:, k]
        levels.append(eigen_solution(sub, sense, vec, sign * evals[k], tol_feas, tol_gap))
        if not levels[-1].is_optimal:
            break
    return levels, evecs


def _equalities(basis, overlaps: OverlapSet, rhs: dict[str, float]) -> list[SdpConstraint]:
    """Tr(beta A) = rhs for named overlap constraint matrices, whitened."""
    return [
        SdpConstraint({BLOCK: basis.operator(overlaps.constraints[name])}, value)
        for name, value in rhs.items()
    ]


def _lift(basis, solution: SdpSolution):
    """The solution's coefficient matrix in ansatz coordinates, or None."""
    return basis.lift_state(solution.blocks[BLOCK]) if solution.blocks else None


def solve_normalized(
    overlaps: OverlapSet,
    sense: str = "min",
    method: str = "eig",
    rank_tol: float | None = None,
    tol_feas: float = 1e-8,
    tol_gap: float = 1e-8,
    max_iter: int = 200,
):
    """Solve min/max Tr(beta D) with Tr(beta E) = 1 in the whitened basis.

    ``method="eig"`` takes one eigendecomposition of the objective in the
    basis ``gram_cut`` whitens, certified by ``eigen_solution``, and
    ``method="sdp"`` is the interior-point cross-check.  Returns (value,
    beta, status, solution, basis), beta in ansatz coordinates and solution
    an ``SdpSolution`` on either path.
    """
    _check_method(method)
    basis, d_tilde = _whiten(overlaps, rank_tol)
    if method == "eig":
        (solution,), vectors = _eigen_levels(d_tilde, sense, 1, tol_feas, tol_gap)
        alpha = basis.vectors @ vectors[:, 0]
        return (solution.objective_value, np.outer(alpha, alpha.conj()), solution.status,
                solution, basis)
    solution = solve(normalized_program(d_tilde, sense), tol_feas=tol_feas, tol_gap=tol_gap,
                     max_iter=max_iter)
    return solution.objective_value, _lift(basis, solution), solution.status, solution, basis


@_settings
class _KrylovSolver(BaseSolver):
    """Settings and fit of the solvers that measure a Krylov ansatz.

    Seed state, Krylov strings and their ``n_states`` prefix, exact or
    sampled overlaps, and ``rank_tol``, the Gram eigenvalue cut (see
    ``gram_cut``).  ``_measure`` reads them.  ``fit`` measures and sets
    ``ansatz_``; ``fit_overlaps(overlaps)`` solves measured overlaps, such as
    a prefix ``overlaps.restricted(m)``, and sets every other result.
    """

    seed_state: str | StateSpec = "plus"
    krylov_order: int = 2
    n_states: int | None = None
    layers: int = 4
    anneal_time: float = 0.3
    circuit_seed: int = 0
    mode: str = "exact"
    shots: int = 1024
    sample_seed: int = 0
    rank_tol: float | None = None

    def fit(self, hamiltonian: PauliSum):
        """Check the settings, measure what the solver needs, then ``fit_overlaps``."""
        check_hermitian_operator(hamiltonian, "hamiltonian")
        ansatz, overlaps = self._measure(hamiltonian, self._operators(hamiltonian))
        self.fit_overlaps(overlaps)
        self.ansatz_ = ansatz
        return self

    def _operators(self, hamiltonian: PauliSum) -> dict[str, PauliSum] | None:
        """The constraint operators to measure besides the objective."""
        return None

    def _measure(
        self,
        hamiltonian: PauliSum,
        constraints: dict[str, PauliSum] | None = None,
        ansatz: AnsatzSet | None = None,
    ) -> tuple[AnsatzSet, OverlapSet]:
        """Seed state, Krylov strings, ``n_states`` prefix and overlaps.

        A given ``ansatz`` is measured as it is.
        """
        if ansatz is None:
            seed = resolve_seed_state(
                self.seed_state,
                hamiltonian,
                layers=self.layers,
                anneal_time=self.anneal_time,
                circuit_seed=self.circuit_seed,
            )
            ansatz = krylov_ansatz(hamiltonian, seed, self.krylov_order)
            if self.n_states is not None:
                ansatz = ansatz.take(check_positive_int(self.n_states, "n_states"))
        overlaps = build_overlaps(
            ansatz,
            objective=hamiltonian,
            constraints=constraints,
            **_shots_kwargs(self.mode, self.shots, self.sample_seed),
        )
        return ansatz, overlaps


@_settings
class GroundStateSolver(_KrylovSolver):
    """Lowest-energy estimate of a Hamiltonian over a Krylov ansatz set.

    fit(hamiltonian) sets ``energy_``, ``beta_`` (ansatz-coordinate
    coefficient matrix of the optimizing mixed state), ``status_``,
    ``ansatz_``, ``overlaps_``, ``rank_`` and ``solution_``, the certified
    ``SdpSolution`` of the whitened program.  The default ``method="eig"``
    solves it with one eigendecomposition; ``method="sdp"`` runs the
    interior-point method as a cross-check.
    """

    tol_feas: float = 1e-8
    tol_gap: float = 1e-8
    max_iter: int = 200
    method: str = "eig"

    _sense = "min"
    _value_name = "energy_"

    def _operators(self, hamiltonian: PauliSum) -> None:
        _check_method(self.method)  # no constraint operators; a bad method fails unmeasured

    def fit_overlaps(self, overlaps: OverlapSet) -> "GroundStateSolver":
        value, self.beta_, self.status_, self.solution_, basis = solve_normalized(
            overlaps, sense=self._sense, method=self.method, rank_tol=self.rank_tol,
            tol_feas=self.tol_feas, tol_gap=self.tol_gap, max_iter=self.max_iter,
        )
        self.overlaps_ = overlaps
        self.rank_ = basis.rank
        setattr(self, self._value_name, value)
        return self


@_settings
class LargestEigenvalueSolver(GroundStateSolver):
    """Largest-eigenvalue estimate: the normalized program with max sense.

    With a product seed (zero/plus) this runs at qubit counts far beyond the
    dense cap; fit(operator) sets ``eigenvalue_`` in place of ``energy_``,
    and the other attributes as ``GroundStateSolver`` does.
    """

    seed_state: str | StateSpec = "zero"

    _sense = "max"
    _value_name = "eigenvalue_"


@_settings
class ExcitedStatesSolver(_KrylovSolver):
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

    n_excited: int = 3
    tol_feas: float = 1e-8
    tol_gap: float = 1e-8

    def fit_overlaps(self, overlaps: OverlapSet) -> "ExcitedStatesSolver":
        if self.n_excited < 0:
            raise ValueError(f"n_excited must be an integer >= 0, got {self.n_excited}")
        if self.n_excited > overlaps.n_states - 1:
            raise SettingError(f"n_excited={self.n_excited} exceeds ansatz size minus one "
                               f"({overlaps.n_states - 1})")
        basis, d_tilde = _whiten(overlaps, self.rank_tol)
        levels, vectors = _eigen_levels(
            d_tilde, "min", self.n_excited + 1, self.tol_feas, self.tol_gap
        )
        optimal = [sol for sol in levels if sol.is_optimal]
        statuses = [sol.status for sol in levels]
        if len(optimal) == len(levels) <= self.n_excited:  # out of levels at the Gram rank
            statuses.append(SolveStatus.INFEASIBLE)

        self.overlaps_ = overlaps
        self.rank_ = basis.rank
        self.energies_ = [sol.objective_value for sol in optimal]
        self.betas_ = [
            basis.lift_state(np.outer(vec, vec.conj())) for vec in vectors.T[: len(optimal)]
        ]
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


@_settings
class SymmetrySectorSolver(_KrylovSolver):
    """Lowest energy within a symmetry sector: beta on the kernel of (S - s)^2.

    ``symmetry`` is a PauliSum commuting with the Hamiltonian, or one of the
    shorthands "parity" (product of X, for ZZ+X chains) and "magnetization"
    (sum of Z).  The sector conditions <S> = s and <S^2> = s^2 say that
    Tr(beta (S - s)^2) = 0, and since (S - s)^2 is PSD a PSD beta meets them
    exactly on the kernel of its whitened overlap matrix; the sector minimum
    is the lowest eigenvalue of the objective there, certified by
    ``eigen_solution`` and by the pinned equalities on the measured
    overlaps.  Sampled overlaps can make that matrix indefinite; the two
    equalities then go to the interior-point method as measured.
    ``solution_`` is always an ``SdpSolution``.  An empty kernel
    (infeasibility at small ansatz size) is a legitimate outcome reported in
    ``status_``/``feasible_``, with ``energy_`` NaN; ``feasible_`` is False
    too when the kernel's minimizer misses the pinned equalities.
    """

    symmetry: str | PauliSum = "magnetization"
    sector_value: float = 0.0
    seed_state: str | StateSpec = "random"
    tol_feas: float = 1e-8
    tol_gap: float = 1e-8

    def _resolve_symmetry(self, hamiltonian: PauliSum) -> PauliSum:
        if isinstance(self.symmetry, PauliSum):
            return self.symmetry
        if self.symmetry == "parity":
            return models.spin_flip_parity(hamiltonian.n_qubits)
        if self.symmetry == "magnetization":
            return models.magnetization(hamiltonian.n_qubits)
        raise SettingError(f"unknown symmetry {self.symmetry!r}")

    def _operators(self, hamiltonian: PauliSum) -> dict[str, PauliSum]:
        symmetry = check_hermitian_operator(self._resolve_symmetry(hamiltonian), "symmetry")
        if not symmetry.commutes_with(hamiltonian):
            raise SettingError("symmetry operator does not commute with the Hamiltonian")
        return {"symmetry": symmetry, "symmetry_sq": symmetry * symmetry}

    def fit_overlaps(self, overlaps: OverlapSet) -> "SymmetrySectorSolver":
        for name in ("symmetry", "symmetry_sq"):
            if name not in overlaps.constraints:
                raise ValueError(f"sector overlaps need the {name!r} matrix")
        s_k = float(self.sector_value)
        basis, d_tilde = _whiten(overlaps, self.rank_tol)
        self.overlaps_ = overlaps
        self.rank_ = basis.rank
        self.energy_ = math.nan
        self.beta_ = None

        # Tr(beta (S - s)^2) = <S^2> - 2s<S> + s^2 vanishes for a PSD beta
        # exactly on the kernel of the whitened (S - s)^2 when that is PSD:
        # the sector is that kernel, empty when s is no reachable value.
        r_mat = overlaps.constraints["symmetry"]
        t_mat = overlaps.constraints["symmetry_sq"]
        spread = basis.operator(t_mat - 2.0 * s_k * r_mat) + s_k**2 * np.eye(basis.rank)
        evals, evecs = np.linalg.eigh(spread)
        cut = 1e-8 * max(1.0, float(np.max(np.abs(evals))))
        kernel = evecs[:, evals <= cut]
        beta = None
        if evals[0] < -cut:
            # Sampled overlaps can leave the spread indefinite, and its kernel
            # is then no feasible set: the pinned equalities go to the
            # interior-point method as measured.
            sector = _equalities(basis, overlaps, {"symmetry": s_k, "symmetry_sq": s_k**2})
            sol = solve(normalized_program(d_tilde, "min", sector),
                        tol_feas=self.tol_feas, tol_gap=self.tol_gap)
            beta = _lift(basis, sol)
            feasible = sol.status is not SolveStatus.INFEASIBLE
        elif kernel.shape[1] == 0:
            sol = SdpSolution(status=SolveStatus.INFEASIBLE)
            feasible = False
        else:
            (sol,), vectors = _eigen_levels(
                kernel.conj().T @ d_tilde @ kernel, "min", 1, self.tol_feas, self.tol_gap
            )
            vec = kernel @ vectors[:, 0]
            beta = basis.lift_state(np.outer(vec, vec.conj()))
            pinned = max(abs(np.trace(beta @ r_mat).real - s_k),
                         abs(np.trace(beta @ t_mat).real - s_k**2))
            pinned /= 1.0 + max(1.0, abs(s_k), s_k**2)
            sol.primal_residual = max(sol.primal_residual, pinned)
            feasible = pinned <= self.tol_feas
            if sol.is_optimal and not feasible:
                sol.status = SolveStatus.NUMERICAL_FAILURE
        self.solution_ = sol
        self.status_ = sol.status
        self.feasible_ = feasible
        if sol.is_optimal:
            self.energy_ = sol.objective_value
            self.beta_ = beta
        return self


@_settings
class UnambiguousDiscriminator(BaseSolver):
    """Optimal measurement coefficients for unambiguous state discrimination.

    fit(instance) maximizes the mean correct-identification probability
    subject to a per-state misclassification budget and the leftover effect
    staying PSD.  Sets ``q_correct_``, ``q_unknown_``, ``povms_`` (ansatz
    coefficient matrices), ``error_rates_`` and ``status_``.  The program is
    posed on the support of the whitened states, so ``solution_`` holds
    blocks of that dimension; ``povms_`` are lifted back.  An instance posed
    with another ``error_budget`` than the solver's raises ``SettingError``.
    """

    error_budget: float = 0.0
    rank_tol: float | None = None
    tol_feas: float = 1e-8
    tol_gap: float = 1e-8
    max_iter: int = 200

    def fit(self, instance: "models.DiscriminationInstance") -> "UnambiguousDiscriminator":
        eps = check_probability(self.error_budget, "error_budget")
        if instance.error_budget != eps:
            raise SettingError(f"the instance's error_budget {instance.error_budget} differs "
                               f"from the solver's {eps}")
        basis = gram_basis(instance.gram, self.rank_tol)
        betas = [basis.state(b) for b in instance.betas]
        n_s = len(betas)
        complex_data = any(np.max(np.abs(b.imag)) > 1e-14 for b in betas) or (
            np.max(np.abs(np.asarray(instance.gram).imag)) > 1e-14
        )
        if not complex_data:  # a real program needs no imaginary-part rows
            betas = [b.real for b in betas]

        # The objective and the budget rows read the effects only through the
        # states, so compressing every block X to Q^H X Q, with Q spanning the
        # range of sum_k beta_k, keeps the optimum (facial reduction, Borwein
        # and Wolkowicz 1981); completeness becomes identity on range(Q).
        evals, evecs = np.linalg.eigh(sum(betas))
        support = evecs[:, evals > 1e-10 * float(evals[-1])]
        betas = [support.conj().T @ b @ support for b in betas]
        r = support.shape[1]

        # With a zero error budget the misclassification traces vanish, and
        # for PSD effects that is exactly a range condition: effect n lives
        # in the orthogonal complement of the other states.  Substituting
        # that subspace restores a strict interior for the path following.
        subspaces: list[np.ndarray | None] = []
        for n in range(n_s):
            if eps > 0.0:
                subspaces.append(np.eye(r))
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

        # leftover + sum_k povm_k = identity
        maps = {povm_names[n]: subspaces[n] for n in active}
        maps["leftover"] = np.eye(r)
        completeness = MatrixConstraint(maps, np.eye(r))
        constraints = []
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
                             constraints=constraints, matrix_constraint=completeness)
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
        self.povms_ = [basis.lift_state(support @ g @ support.conj().T) for g in gammas]
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
    if n_strings > 4 ** min(n_qubits, 32):  # 4**32 strings would never fit in memory anyway
        raise ValueError(
            f"n_strings={n_strings} exceeds the {4 ** n_qubits} distinct Pauli strings "
            f"on {n_qubits} qubit(s)"
        )
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


@_settings
class _XStringSolver(BaseSolver):
    """Settings and fit of the graph and game solvers.

    ``mode="direct"`` solves the full-dimension program that ``oracle``
    builds; ``mode="ansatz"`` solves it through the map V of an X-string
    ansatz on a real seed state (``_x_string_map``).  fit sets ``status_``,
    ``solution_``, and ``ansatz_`` and ``beta_`` (ansatz-coordinate
    coefficients), which are None in direct mode or without a solution.
    """

    mode: str = "direct"
    seed_state: str | StateSpec = "zero"
    n_states: int | None = None
    layers: int = 4
    circuit_seed: int = 0
    rank_tol: float | None = None
    tol_feas: float = 1e-9
    tol_gap: float = 1e-9
    max_iter: int = 200

    def fit(self, instance):
        if self.mode not in ("direct", "ansatz"):
            raise ValueError(f"mode must be 'direct' or 'ansatz', got {self.mode!r}")
        self.ansatz_ = self.beta_ = coords = v = None
        if self.mode == "ansatz":
            self.ansatz_, coords, v = self._x_string_map(instance)
        sol = solve(self._program(instance, v), tol_feas=self.tol_feas, tol_gap=self.tol_gap,
                    max_iter=self.max_iter)
        if coords is not None and sol.blocks:
            (block,) = sol.blocks.values()
            self.beta_ = coords @ block @ coords.conj().T
        self.status_ = sol.status
        self.solution_ = sol
        self._set_value(sol.objective_value if sol.is_optimal else math.nan)
        return self

    def _x_string_map(self, instance):
        """X-string ansatz, whitened coordinates S and the map V = U S.

        The ansatz is the ``n_states`` prefix of the X strings on
        ceil(log2 n) qubits; U has its states X_a|psi> as columns and S
        whitens U^H U, so V^H A V is the whitened overlap matrix of any
        operator A.  U is read from the simulated seed's amplitudes, so
        ansatz mode is exact-mode only.
        """
        seed = resolve_seed_state(
            self.seed_state, layers=self.layers, circuit_seed=self.circuit_seed
        )
        if not isinstance(seed, (ZeroState, HardwareEfficientCircuit)):
            raise SettingError(
                "ansatz mode needs a real-valued seed: zero state or y-rotation circuit"
            )
        n = max(1, math.ceil(math.log2(self._size(instance))))
        ansatz = x_string_ansatz(n, seed)
        if self.n_states is not None:
            ansatz = ansatz.take(check_positive_int(self.n_states, "n_states"))
        state = prepare(seed, n)
        psi = (state.to_dense() if isinstance(state, ProductState) else state).amplitudes
        source, factor = dense_action(*_stacked_words(ansatz.strings, n), n)
        u = (factor * psi[source]).T
        coords = gram_basis(u.conj().T @ u, self.rank_tol).vectors
        return ansatz, coords, u @ coords


@_settings
class LovaszThetaSolver(_XStringSolver):
    """Lovasz theta of a graph, at graph dimension or over an X-string ansatz.

    Ansatz mode embeds the vertices in the first computational-basis
    coordinates of ceil(log2 n) qubits (real seed states only), keeps the
    span of the ansatz states with no padding part and zeroes the edge entries.
    fit(graph) sets ``theta_`` and the attributes of ``_XStringSolver``.
    """

    def _size(self, graph: "models.Graph") -> int:
        return graph.n_vertices

    def _x_string_map(self, graph: "models.Graph"):
        """The map cut to the span of the states with no padding part, as (n, r) vertex rows.

        J is positive semidefinite, so trace moved from padding to vertex
        coordinates raises <J, V X V^H>: an optimum leaves padding empty.
        """
        import scipy.linalg  # only the Lovasz cut needs it

        ansatz, coords, v = super()._x_string_map(graph)
        vertex = scipy.linalg.null_space(v[graph.n_vertices:])
        return ansatz, coords @ vertex, v[:graph.n_vertices] @ vertex

    def _program(self, graph: "models.Graph", v) -> SdpProblem:
        return oracle.lovasz_theta_program(graph.n_vertices, graph.edges, v)

    def _set_value(self, value: float) -> None:
        self.theta_ = value


@_settings
class XorGameSolver(_XStringSolver):
    """Quantum bias and value of a two-player XOR game.

    fit(game) sets ``bias_``, ``value_`` = 0.5 + 0.5 * bias_ and the
    attributes of ``_XStringSolver``, solving at full matrix dimension or
    over the X-string ansatz with the whole padded diagonal at one.
    """

    def _size(self, game: "models.XorGame") -> int:
        return game.h_matrix().shape[0]

    def _program(self, game: "models.XorGame", v) -> SdpProblem:
        return oracle.xor_bias_program(game.h_matrix(), v)

    def _set_value(self, value: float) -> None:
        self.bias_ = value
        self.value_ = 0.5 + 0.5 * value


@_settings
class RankOneReducer(_KrylovSolver):
    """Quadratic-program data for the rank-one-restricted reduction.

    fit(objective, constraints=(), rhs=()) measures the objective and
    constraint overlap matrices.  With no constraint beyond the built-in
    normalization the program is solved exactly through the generalized
    eigenvalue shortcut (``value_``, ``alpha_``); otherwise the data is
    emitted unsolved with ``solvable_`` False, since the general
    quadratically constrained program is out of reach here.
    """

    seed_state: str | StateSpec = "zero"

    def fit(self, objective: PauliSum, constraints=(), rhs=(), ansatz=None) -> "RankOneReducer":
        check_hermitian_operator(objective, "objective")
        constraints = list(constraints)
        rhs = [float(v) for v in rhs]
        if len(constraints) != len(rhs):
            raise ValueError("constraints and rhs must have the same length")
        named = {f"c{i}": op for i, op in enumerate(constraints)}
        self.ansatz_, overlaps = self._measure(objective, named, ansatz)
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


def energy_sweep(hamiltonian: PauliSum, seed_state, krylov_order: int, m_values=None,
                 sense: str = "min", **settings):
    """Normalized-program values over an ansatz-size sweep.

    ``settings`` are the other ``GroundStateSolver`` (``sense="max"``:
    ``LargestEigenvalueSolver``) settings, such as ``layers``, ``mode``,
    ``rank_tol`` or ``method``, with that class's defaults; an unknown name
    raises ``TypeError``.  One ``fit`` measures at the largest requested size
    (``m_values=None``: the whole ansatz, giving one row at its size) and
    ``fit_overlaps`` solves each prefix slice, which is how nested prefix
    sets behave on a device.  Returns (m, value, status_name, dual_residual)
    rows ordered by m, the dual residual being that of the solution's
    certificate.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if m_values is not None:
        m_values = sorted({int(m) for m in m_values})
        if not m_values or m_values[0] < 1:
            raise ValueError(f"m_values must be a non-empty list of positive sizes, got {m_values}")
    solver = (GroundStateSolver if sense == "min" else LargestEigenvalueSolver)(
        seed_state=seed_state, krylov_order=krylov_order,
        n_states=None if m_values is None else max(m_values), **settings
    )
    full = solver.fit(hamiltonian).overlaps_
    rows = []
    for m in m_values or [len(solver.ansatz_)]:
        solution = solver.fit_overlaps(full.restricted(m)).solution_
        rows.append((m, solution.objective_value, solution.status.value, solution.dual_residual))
    return rows
