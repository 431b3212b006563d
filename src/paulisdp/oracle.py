"""Brute-force references the test suite checks the pipeline against.

Everything here works at full Hilbert-space (or graph) dimension and is
deliberately independent of the ansatz/overlap machinery: this module may
import only :mod:`paulisdp.pauli` and :mod:`paulisdp.sdp`.  The Lovasz and
XOR program builders also take a map V, through which the solvers' ansatz
modes pose the same program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from .sdp import MatrixConstraint, SdpConstraint, SdpProblem, SdpSolution, solve


class EmptySectorError(ValueError):
    """No eigenstate carries the requested conserved value."""


@dataclass
class DenseSpectrum:
    """Full eigendecomposition, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]

    def reconstruction_residual(self, dense: np.ndarray) -> float:
        approx = (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T
        scale = max(np.linalg.norm(dense), 1e-300)
        return float(np.linalg.norm(dense - approx) / scale)


def spectrum(op: PauliSum, max_qubits: int = 14) -> DenseSpectrum:
    dense = op.matrix(max_qubits)
    evals, evecs = np.linalg.eigh(dense)
    return DenseSpectrum(eigenvalues=evals, eigenvectors=evecs)


def extreme_eigenvalue(op: PauliSum, sense: str = "min") -> float:
    """Lowest (``sense="min"``) or highest (``"max"``) eigenvalue of a Hermitian operator, dense."""
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    evals = np.linalg.eigvalsh(op.matrix())
    return float(evals[0] if sense == "min" else evals[-1])


def sector_minimum(
    hamiltonian: PauliSum,
    symmetry: PauliSum,
    value: float,
    tol: float = 1e-8,
    max_qubits: int = 12,
) -> float:
    """Lowest eigenvalue of H on the eigenspace of S with eigenvalue ``value``.

    S commutes with H, so that eigenspace is invariant under H and its lowest
    energy is the lowest over simultaneous eigenstates with S = ``value``.
    """
    if not symmetry.commutes_with(hamiltonian):
        raise ValueError("symmetry does not commute with the Hamiltonian")
    s_vals, s_vecs = np.linalg.eigh(symmetry.matrix(max_qubits))
    sector = s_vecs[:, np.abs(s_vals - value) <= tol]
    if sector.shape[1] == 0:
        raise EmptySectorError(f"no eigenstate with conserved value {value}")
    return float(np.linalg.eigvalsh(sector.conj().T @ hamiltonian.matrix(max_qubits) @ sector)[0])


def classical_xor_value(pi, f) -> float:
    """Exhaustive maximum of an XOR game over deterministic strategies."""
    pi = np.asarray(pi, dtype=float)
    f = np.asarray(f, dtype=int)
    n_x, n_y = pi.shape
    if n_x > 16 or n_y > 16:
        raise ValueError("exhaustive search capped at 16 questions per side")
    best = 0.0
    for a_bits in itertools.product((0, 1), repeat=n_x):
        a = np.array(a_bits)
        for b_bits in itertools.product((0, 1), repeat=n_y):
            b = np.array(b_bits)
            wins = (a[:, None] ^ b[None, :]) == f
            best = max(best, float(pi[wins].sum()))
    return best


DIRECT_THETA_MAX_VERTICES = 32


def lovasz_theta_program(n_vertices: int, edges, v: np.ndarray | None = None) -> SdpProblem:
    """Lovasz theta SDP: max <J, V X V^H>, (V X V^H)_ij = 0 on edges, Tr X = 1.

    ``v=None`` is the graph-dimension program (V = I, capped at 32 vertices);
    an (n, r) map V poses it over r vertex vectors.
    """
    n = n_vertices
    if v is None:
        if n > DIRECT_THETA_MAX_VERTICES:
            raise ValueError(f"direct theta capped at {DIRECT_THETA_MAX_VERTICES} vertices")
        v = np.eye(n)
    zeros = sorted({(min(i, j), max(i, j)) for i, j in edges})
    return SdpProblem(
        blocks=[("x", v.shape[1])],
        sense="max",
        objective={"x": v.conj().T @ np.ones((n, n)) @ v},
        constraints=[SdpConstraint({"x": np.eye(v.shape[1])}, 1.0)],
        matrix_constraint=MatrixConstraint({"x": v}, np.zeros((n, n)), zeros),
    )


def lovasz_theta_direct(n_vertices: int, edges, tol: float = 1e-9) -> float:
    """Optimal value of ``lovasz_theta_program``; raises if the solve is not optimal."""
    sol = solve(lovasz_theta_program(n_vertices, edges), tol_feas=tol, tol_gap=tol)
    if not sol.is_optimal:
        raise RuntimeError(f"direct theta solve failed: {sol.status}")
    return sol.objective_value


def xor_bias_program(h_matrix: np.ndarray, v: np.ndarray | None = None) -> SdpProblem:
    """XOR-game bias SDP: max <H, V Z V^H> with V Z V^H of unit diagonal.

    ``v=None`` is the full-dimension program (V = I); a (dim, r) map V pads
    H with zeros to dim and keeps the whole diagonal at one.
    """
    h_matrix = np.asarray(h_matrix, dtype=float)
    n = h_matrix.shape[0]
    v = np.eye(n) if v is None else v
    dim, r = v.shape
    unit_diagonal = MatrixConstraint({"z": v}, np.eye(dim), [(i, i) for i in range(dim)])
    return SdpProblem(
        blocks=[("z", r)], sense="max", objective={"z": v[:n].conj().T @ h_matrix @ v[:n]},
        constraints=[], matrix_constraint=unit_diagonal,
    )


def xor_bias_direct(h_matrix: np.ndarray, tol: float = 1e-9) -> float:
    """Optimal value of ``xor_bias_program``, capped at dimension 64; raises if not optimal."""
    if np.shape(h_matrix)[0] > 64:
        raise ValueError("direct bias SDP capped at dimension 64")
    sol = solve(xor_bias_program(h_matrix), tol_feas=tol, tol_gap=tol)
    if not sol.is_optimal:
        raise RuntimeError(f"direct bias solve failed: {sol.status}")
    return sol.objective_value


def min_eigenvalue_direct(op: PauliSum, max_qubits: int = 6) -> SdpSolution:
    """Ground-state SDP at full Hilbert dimension (same solver, no ansatz)."""
    dense = op.matrix(max_qubits)
    n = dense.shape[0]
    problem = SdpProblem(
        blocks=[("rho", n)],
        sense="min",
        objective={"rho": dense},
        constraints=[SdpConstraint({"rho": np.eye(n, dtype=complex)}, 1.0)],
    )
    return solve(problem)
