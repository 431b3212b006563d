"""Elementary matrices |i><j| as exact Pauli sums, for tests that pose programs on them."""

import numpy as np

from paulisdp.pauli import DenseLimitError, PauliString, PauliSum

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def basis_state_projector(n_qubits: int, row: int, col: int) -> PauliSum:
    """Pauli decomposition of the elementary matrix |row><col|.

    Exactly the 2^n strings whose bit-flip mask equals ``row ^ col``
    contribute, with coefficient Tr(P |row><col|) / 2^n = <col|P|row> / 2^n,
    computed directly from the sign/phase action so the expansion is exact.
    """
    if n_qubits > 16:
        raise DenseLimitError("elementary decompositions capped at 16 qubits")
    dim = 1 << n_qubits
    if not (0 <= row < dim and 0 <= col < dim):
        raise ValueError("basis indices out of range")
    x = row ^ col  # X or Y where the bit flips, I or Z elsewhere; each z mask picks Y and Z
    terms = []
    for z in range(dim):
        string = PauliString.from_words(*np.array([[x], [z]], dtype=np.uint64), n_qubits)
        # <col|P|row> = i^{n_y} (-1)^{popcount(row & z)}, with n_y = popcount(x & z)
        amp = _PHASES[(x & z).bit_count() & 3] * (-1.0 if (row & z).bit_count() & 1 else 1.0)
        terms.append((amp / dim, string))
    return PauliSum(n_qubits, terms)


def hermitian_elementary(n_qubits: int, i: int, j: int, imaginary: bool = False) -> PauliSum:
    """Hermitian elementary operator on the computational basis.

    ``|i><j| + |j><i|`` for the real part, ``i(|i><j| - |j><i|)`` for the
    imaginary part, and ``|i><i|`` when ``i == j`` (imaginary part rejected).
    """
    if i == j:
        if imaginary:
            raise ValueError("diagonal elementary operator has no imaginary part")
        return basis_state_projector(n_qubits, i, i)
    a = basis_state_projector(n_qubits, i, j)
    b = basis_state_projector(n_qubits, j, i)
    if imaginary:
        return 1j * a + (-1j) * b
    return a + b
