"""Krylov-flavored ansatz sets and the overlap matrices the reduced SDPs use.

The ansatz is a seed state |psi> expanded by M phase-free Pauli strings,
identity first.  Every overlap entry <psi_a| Op |psi_b> reduces, through
the closed Pauli algebra, to a single phase-tagged string s_a u s_b on
the seed state.  :func:`build_overlaps` forms them for blocks of entries
with one vectorized product as x/z word arrays, keys each reduced string
by one integer (its bytes above 32 qubits), and evaluates the strings not
yet seen in the call in one batch backend call: each distinct string is
measured once per call, as a device would, and no ``PauliString`` is built
for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .pauli import PauliString, PauliSum, SettingError, multiply_words, word_codes
from .states import StateSpec, prepare


@dataclass(frozen=True)
class AnsatzSet:
    """Ordered string set applied to a seed state; first entry is the identity."""

    seed: StateSpec
    strings: tuple[PauliString, ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.strings:
            raise ValueError("ansatz needs at least one string")
        if not self.strings[0].is_identity:
            raise ValueError("first ansatz string must be the identity")
        if any(s.phase_power != 0 for s in self.strings):
            raise ValueError("ansatz strings must be phase-free")
        if len({s.packed for s in self.strings}) != len(self.strings):
            raise ValueError("ansatz strings must be unique")
        if len(self.orders) != len(self.strings):
            raise ValueError("orders and strings must align")
        if any(b < a for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("strings must be ordered by ascending generation order")

    def __len__(self) -> int:
        return len(self.strings)

    @property
    def n_qubits(self) -> int:
        return self.strings[0].n_qubits

    def take(self, m: int) -> "AnsatzSet":
        """First m strings in generation order."""
        if not (1 <= m <= len(self.strings)):
            raise SettingError(f"m must be in 1..{len(self.strings)}, got {m}")
        return replace(self, strings=self.strings[:m], orders=self.orders[:m])


def _stacked_words(strings, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The strings' x and z words as two (len(strings), words per string) arrays."""
    width = -(-n_qubits // 64)
    return tuple(
        np.array([getattr(s, w) for s in strings], dtype=np.uint64).reshape(-1, width) for w in "xz"
    )


def krylov_strings(h: PauliSum, max_order: int) -> tuple[list[PauliString], list[int]]:
    """Identity plus all phase-free k-fold products of h's strings, k <= max_order.

    Strings are ordered by the smallest k at which they appear; ties within
    one order break by the packed letter encoding, so the expansion is
    deterministic.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    n = h.n_qubits
    gx, gz = _stacked_words([s for _c, s in h.terms()], n)
    seen = {PauliString.identity(n).packed}
    strings = [PauliString.identity(n)]
    orders = [0]
    level = [PauliString.identity(n)]
    for k in range(1, max_order + 1):
        lx, lz = _stacked_words(level, n)
        x, z, _exp = multiply_words(lx[:, None], lz[:, None], gx, gz)
        products = np.unique(np.concatenate([x, z], axis=-1).reshape(-1, 2 * gx.shape[1]), axis=0)
        level = [PauliString.from_words(*row.reshape(2, -1), n) for row in products]
        level.sort(key=lambda s: s.packed)
        for s in level:
            if s.packed not in seen:
                seen.add(s.packed)
                strings.append(s)
                orders.append(k)
    return strings, orders


def krylov_ansatz(h: PauliSum, seed: StateSpec, max_order: int) -> AnsatzSet:
    strings, orders = krylov_strings(h, max_order)
    return AnsatzSet(seed=seed, strings=tuple(strings), orders=tuple(orders))


def x_string_ansatz(n_qubits: int, seed: StateSpec) -> AnsatzSet:
    """All 2^n strings over {I, X}, in binary order, ordered by X-count.

    These keep real seed states real, which is what the graph and game
    reductions need.
    """
    entries = [
        PauliString.from_words(*np.array([[mask], [0]], dtype=np.uint64), n_qubits)
        for mask in range(1 << n_qubits)
    ]
    entries.sort(key=lambda s: (s.weight, s.packed))
    return AnsatzSet(
        seed=seed,
        strings=tuple(entries),
        orders=tuple(s.weight for s in entries),
    )


@dataclass
class OverlapSet:
    """Measured matrices over an M-element ansatz set.

    Index convention: ``matrix[a, b] = <psi_a| Op |psi_b>``, so the reduced
    programs read Tr(beta * matrix).  ``gram`` is always present and is
    Hermitian PSD up to tolerance in exact mode with unit diagonal.
    """

    gram: np.ndarray
    objective: np.ndarray | None
    constraints: dict[str, np.ndarray]
    shots: int | None = None
    sample_seed: int | None = None

    @property
    def n_states(self) -> int:
        return self.gram.shape[0]

    def restricted(self, m: int) -> "OverlapSet":
        """Top-left m x m corner of every matrix (nested ansatz prefix)."""
        if not (1 <= m <= self.n_states):
            raise ValueError(f"m must be in 1..{self.n_states}")
        return OverlapSet(
            gram=self.gram[:m, :m],
            objective=None if self.objective is None else self.objective[:m, :m],
            constraints={k: v[:m, :m] for k, v in self.constraints.items()},
            shots=self.shots,
            sample_seed=self.sample_seed,
        )

    def export_csv(self, directory) -> list[str]:
        """One CSV per matrix with re/im interleaved columns; returns paths."""
        import os

        os.makedirs(directory, exist_ok=True)
        named = {"gram": self.gram}
        if self.objective is not None:
            named["objective"] = self.objective
        named.update(self.constraints)
        paths = []
        for name, mat in named.items():
            path = os.path.join(directory, f"{name}.csv")
            header = ",".join(f"re_{j},im_{j}" for j in range(mat.shape[1]))
            inter = np.empty((mat.shape[0], 2 * mat.shape[1]))
            inter[:, 0::2] = mat.real
            inter[:, 1::2] = mat.imag
            np.savetxt(path, inter, delimiter=",", header=header, comments="")
            paths.append(path)
        return paths


# x words per block of reduced strings (1 MiB): temporaries stay a few MB at any width.
_BLOCK_WORDS = 1 << 17


def _string_keys(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """One sortable key per row of x and z words: x << n | z to 32 qubits, else the row's bytes."""
    if n_qubits <= 32:
        return x[:, 0] << np.uint64(n_qubits) | z[:, 0]
    return np.concatenate([x, z], axis=1).view(np.dtype((np.void, 16 * x.shape[1]))).ravel()


def build_overlaps(
    ansatz: AnsatzSet,
    objective: PauliSum | None = None,
    constraints: dict[str, PauliSum] | None = None,
    shots: int | None = None,
    sample_seed: int = 0,
) -> OverlapSet:
    """Measure the Gram matrix plus objective/constraint overlap matrices.

    Exact mode evaluates statevector expectations; shots mode estimates each
    distinct reduced Pauli string from ``shots`` parity measurements, drawn
    as one binomial count (see :mod:`paulisdp.states`) with a per-string
    seed derived from ``sample_seed``.  Matrices of Hermitian operators are
    symmetrized against their conjugate transpose.
    """
    constraints = constraints or {}
    for name, op in list(constraints.items()) + ([("objective", objective)] if objective else []):
        if not op.is_hermitian:
            raise ValueError(f"operator {name!r} must be Hermitian")
        if op.n_qubits != ansatz.n_qubits:
            raise ValueError(f"operator {name!r} acts on the wrong number of qubits")
    state = prepare(ansatz.seed, ansatz.n_qubits)
    m, n = len(ansatz), ansatz.n_qubits
    sx, sz = _stacked_words(ansatz.strings, n)
    width = sx.shape[1]
    block = max(1, _BLOCK_WORDS // (m * width))
    seed_bytes = sample_seed.to_bytes(8, "little", signed=True)
    # distinct reduced strings of this call, sorted by key, and their values
    seen_keys, seen_values = _string_keys(sx[:0], sz[:0], n), np.empty(0)

    def measure(x, z):
        if shots is None:
            return state.expectations(x, z).real
        digests = (
            hashlib.blake2b(codes.tobytes() + seed_bytes, digest_size=8).digest()
            for codes in word_codes(x, z, n)
        )
        seeds = [int.from_bytes(d, "little") for d in digests]
        return state.sampled_expectations(x, z, shots, seeds)

    def values(x, z):
        """Value of each row's string; only strings this call has not seen are measured."""
        nonlocal seen_keys, seen_values
        keys, inverse = np.unique(_string_keys(x, z, n), return_inverse=True)
        first = np.empty(keys.size, dtype=np.intp)
        first[inverse] = np.arange(inverse.size)  # a row holding each distinct key
        at = np.searchsorted(seen_keys, keys)
        new = at == seen_keys.size
        new[~new] = seen_keys[at[~new]] != keys[~new]
        vals = np.empty(keys.size)
        vals[~new] = seen_values[at[~new]]
        vals[new] = measure(x[first[new]], z[first[new]])
        seen_keys = np.insert(seen_keys, at[new], keys[new])
        seen_values = np.insert(seen_values, at[new], vals[new])
        return vals[inverse]

    def matrix_for(op: PauliSum | None) -> np.ndarray:
        out = np.zeros((m, m), dtype=complex)
        terms = [(1.0 + 0j, PauliString.identity(n))] if op is None else op.terms()
        for coeff, u in terms:
            left_x, left_z, left_exp = multiply_words(sx, sz, u.x, u.z)
            for a in range(0, m, block):
                rows = slice(a, a + block)
                x, z, exps = multiply_words(left_x[rows, None], left_z[rows, None], sx, sz)
                exps = (exps + left_exp[rows, None]) & 3
                vals = values(x.reshape(-1, width), z.reshape(-1, width)).reshape(exps.shape)
                out[rows] += coeff * (1j ** exps) * vals
        return (out + out.conj().T) / 2.0

    gram = matrix_for(None)
    obj_matrix = None if objective is None else matrix_for(objective)
    con_matrices = {name: matrix_for(op) for name, op in constraints.items()}
    return OverlapSet(
        gram=gram,
        objective=obj_matrix,
        constraints=con_matrices,
        shots=shots,
        sample_seed=sample_seed if shots is not None else None,
    )
