"""The four benchmark workloads: inputs from a seed, fits, correctness gates.

A workload builds its problem instances from the benchmark seed
(``build``), lists its sets of fits (``sets``; a run cycles through them, so
every set is a few seconds of work and a run holds several), and checks
every fit against references computed apart from the timed path
(``check``).
``check`` returns the reasons a fit failed; an empty list means it passed.
Tolerances are the acceptance suite's, never looser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from paulisdp import models, oracle
from paulisdp.sdp import SolveStatus
from paulisdp.solvers import (
    GroundStateSolver,
    LargestEigenvalueSolver,
    UnambiguousDiscriminator,
    two_state_discrimination_instance,
)
from paulisdp.states import ProductState

# |value - Tr(beta D)| and |Tr(beta E) - 1| for a reported optimum, scaled
# by max(1, |value|): the acceptance suite's residual tolerance.
CONSISTENCY_TOL = 1e-7


def _consistency(value: float, beta: np.ndarray, objective: np.ndarray, gram: np.ndarray):
    """The reported value must be the objective of the reported state."""
    reasons = []
    scale = max(1.0, abs(value))
    if not np.isfinite(value):
        return [f"value {value} is not finite"]
    traced = float(np.trace(beta @ objective).real)
    norm = float(np.trace(beta @ gram).real)
    if abs(value - traced) > CONSISTENCY_TOL * scale:
        reasons.append(f"value {value!r} != Tr(beta D) {traced!r}")
    if abs(norm - 1.0) > CONSISTENCY_TOL:
        reasons.append(f"Tr(beta E) = {norm!r}, expected 1")
    return reasons


@dataclass(frozen=True)
class Fit:
    label: tuple
    run: object  # zero-argument callable returning the fitted solver


class EigMax1000:
    """Largest eigenvalue of a random 8-term operator on 1000 qubits, M = 128."""

    name = "eigmax_1000q"
    n_qubits, n_terms, n_states, krylov_order = 1000, 8, 128, 8
    n_sampled_entries = 24

    def build(self, seed: int) -> dict:
        return {"op": models.random_pauli_operator(self.n_qubits, self.n_terms, seed), "seed": seed}

    def references(self, inputs: dict) -> dict:
        return {"norm_bound": sum(abs(c) for c, _ in inputs["op"].terms())}

    def sets(self, inputs: dict) -> list[list[Fit]]:
        def run():
            return LargestEigenvalueSolver(
                seed_state="zero", krylov_order=self.krylov_order, n_states=self.n_states
            ).fit(inputs["op"])

        return [[Fit(("eigmax",), run)]]

    def check(self, fit: Fit, solver, done: dict, inputs: dict, refs: dict) -> list[str]:
        reasons = []
        if solver.status_ is not SolveStatus.OPTIMAL:
            reasons.append(f"status {solver.status_.value}")
        if not solver.solution_.dual_residual <= 1e-7:
            reasons.append(f"dual residual {solver.solution_.dual_residual:.2e} > 1e-7")
        if len(solver.ansatz_) != self.n_states:
            reasons.append(f"ansatz has {len(solver.ansatz_)} strings, expected {self.n_states}")
            return reasons
        if solver.eigenvalue_ > refs["norm_bound"] + 1e-7:
            reasons.append(f"eigenvalue {solver.eigenvalue_} above sum |c_k|")
        overlaps = solver.overlaps_
        reasons += _consistency(solver.eigenvalue_, solver.beta_, overlaps.objective, overlaps.gram)
        reasons += self._sampled_entries(solver, inputs)
        return reasons

    def _sampled_entries(self, solver, inputs: dict) -> list[str]:
        """Recompute seeded Gram and objective entries one string product at a time."""
        state = ProductState(np.tile([1.0, 0.0], (self.n_qubits, 1)))
        strings = solver.ansatz_.strings
        terms = inputs["op"].terms()
        rng = np.random.default_rng(inputs["seed"])
        pairs = rng.integers(0, len(strings), size=(self.n_sampled_entries, 2))

        def raw(a: int, b: int, op_terms) -> complex:
            if op_terms is None:
                return complex(state.expectation(strings[a] * strings[b]))
            return sum(
                c * complex(state.expectation((strings[a] * u) * strings[b])) for c, u in op_terms
            )

        reasons = []
        for a, b in pairs:
            for label, matrix, op_terms in (
                ("gram", solver.overlaps_.gram, None),
                ("objective", solver.overlaps_.objective, terms),
            ):
                expected = (raw(a, b, op_terms) + raw(b, a, op_terms).conjugate()) / 2.0
                if abs(matrix[a, b] - expected) > 1e-9:
                    reasons.append(f"{label}[{a},{b}] = {matrix[a, b]!r}, recomputed {expected!r}")
        return reasons


class NseM350:
    """Ising n=8 ground state from an annealing seed, M = 350, eig path."""

    name = "nse_m350"
    n_states = 350

    def build(self, seed: int) -> dict:
        g, h = np.random.default_rng(seed).uniform(0.9, 1.1, size=2)
        return {"op": models.ising_hamiltonian(8, float(g), float(h))}

    def references(self, inputs: dict) -> dict:
        return {"ground": float(oracle.spectrum(inputs["op"]).eigenvalues[0])}

    def sets(self, inputs: dict) -> list[list[Fit]]:
        def run():
            return GroundStateSolver(
                seed_state="annealing", layers=4, anneal_time=0.3, krylov_order=3,
                n_states=self.n_states, method="eig",
            ).fit(inputs["op"])

        return [[Fit(("nse",), run)]]

    def check(self, fit: Fit, solver, done: dict, inputs: dict, refs: dict) -> list[str]:
        reasons = []
        if solver.status_ is not SolveStatus.OPTIMAL:
            reasons.append(f"status {solver.status_.value}")
        if not abs(solver.energy_ - refs["ground"]) <= 1e-6:
            reasons.append(f"energy {solver.energy_!r} vs exact {refs['ground']!r}")
        overlaps = solver.overlaps_
        reasons += _consistency(solver.energy_, solver.beta_, overlaps.objective, overlaps.gram)
        return reasons


class DiscriminateIpm:
    """Unambiguous discrimination, n=6 with 24 strings, two angles, two budgets."""

    name = "discriminate_ipm"
    angles = (math.pi / 4, 3 * math.pi / 8)
    budgets = (0.0, 0.05)

    def build(self, seed: int) -> dict:
        return {
            phi: two_state_discrimination_instance(phi, n_qubits=6, n_strings=24, seed=seed)
            for phi in self.angles
        }

    def references(self, inputs: dict) -> dict:
        return {phi: 1.0 - math.cos(phi) for phi in self.angles}

    def sets(self, inputs: dict) -> list[list[Fit]]:
        def make(phi, eps):
            instance = replace(inputs[phi], error_budget=eps)
            return lambda: UnambiguousDiscriminator(error_budget=eps).fit(instance)

        # One set holds every fit: the budget check compares fits of one angle.
        return [[Fit((phi, eps), make(phi, eps)) for phi in self.angles for eps in self.budgets]]

    def check(self, fit: Fit, disc, done: dict, inputs: dict, refs: dict) -> list[str]:
        phi, eps = fit.label
        if disc.status_ is not SolveStatus.OPTIMAL:
            return [f"status {disc.status_.value}"]
        reasons = []
        book = disc.q_correct_ + disc.q_unknown_ + float(disc.error_rates_.mean())
        if not abs(book - 1.0) <= 1e-7:
            reasons.append(f"Q_correct + Q_unknown + mean error = {book!r}, expected 1")
        if eps == 0.0 and not abs(disc.q_correct_ - refs[phi]) <= 1e-3:
            reasons.append(f"Q_correct {disc.q_correct_!r} vs 1 - cos(phi) {refs[phi]!r}")
        if np.any(disc.error_rates_ > eps + 1e-7):
            reasons.append(f"error rates {disc.error_rates_} exceed budget {eps}")
        for (phi_done, eps_done), other in done.items():
            if phi_done == phi and eps_done < eps and disc.q_correct_ < other.q_correct_ - 1e-7:
                reasons.append(f"Q_correct fell from {other.q_correct_!r} at budget {eps_done}")
        return reasons


class ShotsIsing6:
    """Ising n=6 ground state in shots mode over five sample seeds.

    Each set is one fit at one sample seed, the sets taking the seeds in
    turn.  Gated only on consistency, not accuracy: with the default Gram
    cut the shot-mode energies undershoot the exact one, and ``shots_err``
    reports by how much.
    """

    name = "shots_ising6"
    n_sample_seeds = 5

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "op": models.ising_hamiltonian(6, 1.0, 1.0),
            "sample_seeds": [int(s) for s in rng.integers(0, 2**31, size=self.n_sample_seeds)],
        }

    def references(self, inputs: dict) -> dict:
        return {"ground": float(oracle.spectrum(inputs["op"]).eigenvalues[0])}

    def sets(self, inputs: dict) -> list[list[Fit]]:
        def make(sample_seed):
            return lambda: GroundStateSolver(
                seed_state="random", krylov_order=3, n_states=142, mode="shots",
                shots=10_000, sample_seed=sample_seed, method="eig",
            ).fit(inputs["op"])

        return [[Fit((s,), make(s))] for s in inputs["sample_seeds"]]

    def check(self, fit: Fit, solver, done: dict, inputs: dict, refs: dict) -> list[str]:
        reasons = []
        if solver.status_ is not SolveStatus.OPTIMAL:
            reasons.append(f"status {solver.status_.value}")
        overlaps = solver.overlaps_
        reasons += _consistency(solver.energy_, solver.beta_, overlaps.objective, overlaps.gram)
        return reasons

    @staticmethod
    def shots_err(energies: list[float], refs: dict) -> float:
        """RMS over the sample seeds of E_shots - E_exact."""
        return math.sqrt(np.mean([(e - refs["ground"]) ** 2 for e in energies]))


WORKLOADS = {w.name: w for w in (EigMax1000(), NseM350(), DiscriminateIpm(), ShotsIsing6())}
