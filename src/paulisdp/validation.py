"""Input validation helpers shared by the solver frontends."""

from __future__ import annotations

import numbers

import numpy as np

from .pauli import PauliSum


def check_hermitian_operator(op, name: str = "operator") -> PauliSum:
    if not isinstance(op, PauliSum):
        raise TypeError(f"{name} must be a PauliSum, got {type(op).__name__}")
    if op.is_zero:
        raise ValueError(f"{name} is identically zero")
    if not op.is_hermitian:
        raise ValueError(f"{name} must be Hermitian (real canonical coefficients)")
    return op


def check_square_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def check_psd(a, name: str = "matrix", tol: float = 1e-8) -> np.ndarray:
    a = check_square_matrix(a, name)
    herm = (a + a.conj().T) / 2.0
    lam = float(np.linalg.eigvalsh(herm).min())
    scale = max(1.0, float(np.max(np.abs(herm))))
    if lam < -tol * scale:
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {lam:.3e})")
    return herm


def check_probability(value, name: str = "probability") -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_positive_int(value, name: str) -> int:
    """``value`` as an int; only integers (not bool) of at least 1 pass, with no rounding."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_sample_seed(seed) -> int:
    """``seed`` as an int; only integers (not bool) in [-2**63, 2**63), 8 signed bytes, pass."""
    if type(seed) is bool or not isinstance(seed, numbers.Integral) or not -2**63 <= seed < 2**63:
        raise ValueError(f"sample_seed must be an integer in [-2**63, 2**63), got {seed!r}")
    return int(seed)
