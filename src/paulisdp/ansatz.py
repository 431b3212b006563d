"""Krylov-flavored ansatz sets and the overlap matrices the reduced SDPs use.

The ansatz is a seed state |psi> expanded by M phase-free Pauli strings,
identity first.  An overlap entry <psi_a| u |psi_b> of an operator term u
is the string s_a u s_b = (-1)^c (s_a s_b) u on the seed state, with c the
parity of the sites where u and s_b anticommute.  :func:`build_overlaps`
forms the M^2 Gram products s_a s_b once, as x/z word arrays, and
multiplies each term only into their distinct strings.  Strings are keyed
by XORs of per-string GF(2)-linear keys (hashed and row-checked above 32
qubits); each distinct string is measured once per call, in one batch
backend call per block, and no ``PauliString`` is built for it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .pauli import (_PHASE_VALUES, PauliString, PauliSum, SettingError, multiply_words,
                    pack_code_rows, word_codes)
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
    deterministic.  Each level's new strings share its codes, packed bytes
    and word rows, decoded and packed once for the whole level.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    n = h.n_qubits
    gx, gz = _stacked_words([s for _c, s in h.terms()], n)
    gkeys = _string_keys(gx, gz, n)
    strings, orders = [PauliString.identity(n)], [0]
    seen = {strings[0].packed}
    lkeys, lx, lz = gkeys[:1] * 0, gx[:1] * 0, gz[:1] * 0  # the identity
    table = (lkeys, lx, lz)
    for k in range(1, max_order + 1):
        x, z, _exp = multiply_words(lx[:, None], lz[:, None], gx, gz)
        x, z = x.reshape(-1, gx.shape[1]), z.reshape(-1, gx.shape[1])
        keys = (lkeys[:, None] ^ gkeys).ravel()
        table, first, new, _index, clashed = _dedupe(keys, x, z, n, table)
        level = np.concatenate([first, clashed])  # every product string, clashed ones maybe twice
        lx, lz, lkeys = x[level], z[level], keys[level]
        fresh = np.concatenate([first[new], clashed])
        fx, fz = x[fresh], z[fresh]
        codes = word_codes(fx, fz, n)
        packed = pack_code_rows(codes)
        for a in (fx, fz, codes):
            a.flags.writeable = False
        flat, size = packed.tobytes(), packed.shape[1]
        keys = [flat[i * size : (i + 1) * size] for i in range(fresh.size)]
        for i in sorted(range(fresh.size), key=keys.__getitem__):
            if keys[i] not in seen:
                seen.add(keys[i])
                strings.append(PauliString._from_parts(codes[i], keys[i], fx[i], fz[i]))
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


@functools.cache
def _key_table(width: int) -> np.ndarray:
    """Per-byte XOR table of a fixed random GF(2)-linear map from 16 * width bytes to 64 bits."""
    basis = np.random.default_rng(0).integers(0, 1 << 64, size=(16 * width, 8), dtype=np.uint64)
    table = np.zeros((16 * width, 256), dtype=np.uint64)
    for bit in range(8):
        table[:, 1 << bit : 2 << bit] = table[:, : 1 << bit] ^ basis[:, bit, None]
    return table


def _string_keys(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """One key per row of x and z words, XOR-linear: x << n | z to 32 qubits, else a linear hash."""
    if n_qubits <= 32:
        return x[:, 0] << np.uint64(n_qubits) | z[:, 0]
    octets = np.concatenate([x, z], axis=1).view(np.uint8)
    return np.bitwise_xor.reduce(_key_table(x.shape[1])[np.arange(octets.shape[1]), octets], axis=1)


def _dedupe(keys, x, z, n_qubits: int, seen):
    """Group rows of x/z words by key against ``seen`` = (sorted keys, x rows, z rows[, values]).

    Returns ``seen`` with new keys inserted (values NaN), a row per distinct key, which are
    new, each row's index into ``seen`` and the rows whose words differ from their key's
    stored row: above 32 qubits a key can collide, and such a row holds another string.
    """
    keys, inverse = np.unique(keys, return_inverse=True)  # return_index would sort stably: slower
    first = np.empty(keys.size, dtype=np.intp)
    first[inverse] = np.arange(inverse.size)  # a row holding each distinct key
    at = np.searchsorted(seen[0], keys)
    new = at == seen[0].size
    new[~new] = seen[0][at[~new]] != keys[~new]
    added = (keys[new], x[first[new]], z[first[new]], np.nan)
    seen = tuple(np.insert(a, at[new], b, axis=0) for a, b in zip(seen, added))
    index = (at + np.cumsum(new) - new)[inverse]
    clashed = n_qubits > 32 and ((x != seen[1][index]) | (z != seen[2][index])).any(axis=1)
    return seen, first, new, index, np.flatnonzero(clashed)


def build_overlaps(
    ansatz: AnsatzSet,
    objective: PauliSum | None = None,
    constraints: dict[str, PauliSum] | None = None,
    shots: int | None = None,
    sample_seed: int = 0,
) -> OverlapSet:
    """Measure the Gram matrix plus objective/constraint overlap matrices.

    A Gram pass measures and tables the distinct g of s_a s_b = i^e g, a
    clashed entry on a row of its own; a term pass multiplies a term u into
    that table only, g u = i^f r, and gathers s_a u s_b = (-1)^c i^(e + f) r.

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
    string_keys = _string_keys(sx, sz, n)
    # distinct reduced strings of this call, sorted by key, and their values
    seen = (string_keys[:0], sx[:0], sz[:0], np.empty(0))

    def measure(x, z):
        if shots is None:
            return state.expectations(x, z).real
        digests = b"".join(
            hashlib.blake2b(codes.tobytes() + seed_bytes, digest_size=8).digest()
            for codes in word_codes(x, z, n)
        )
        return state.sampled_expectations(x, z, shots, np.frombuffer(digests, "<u8"))

    def measured(keys, x, z):
        # only strings this call has not seen are measured; clashed rows on their own
        nonlocal seen
        seen, first, new, index, clashed = _dedupe(keys, x, z, n, seen)
        seen[3][index[first[new]]] = measure(x[first[new]], z[first[new]])
        vals = seen[3][index]
        vals[clashed] = measure(x[clashed], z[clashed])
        return vals, clashed

    gram, e = np.zeros((m, m), dtype=complex), np.empty((m, m), dtype=np.uint8)
    keys = string_keys[:, None] ^ string_keys
    blocks = [slice(a, a + block) for a in range(0, m, block)]
    spilled = []  # clashed entries and their words: the Gram table's rows after seen's distinct g
    for rows in blocks:
        x, z, e[rows] = multiply_words(sx[rows, None], sz[rows, None], sx, sz)
        x, z = x.reshape(-1, width), z.reshape(-1, width)
        vals, clashed = measured(keys[rows].ravel(), x, z)
        gram[rows] += _PHASE_VALUES[e[rows]] * vals.reshape(-1, m)
        spilled.append((clashed + rows.start * m, x[clashed], z[clashed]))
    at, cx, cz = (np.concatenate(p) for p in zip(*spilled))
    g_index = np.searchsorted(seen[0], keys)
    g_index.flat[at] = seen[0].size + np.arange(at.size)
    gkeys, gx, gz = (np.concatenate(p) for p in zip(seen[:3], (keys.flat[at], cx, cz)))

    def matrix_for(op: PauliSum) -> np.ndarray:
        out = np.zeros((m, m), dtype=complex)
        for coeff, u in op.terms():
            f, vals = np.empty(gkeys.size, dtype=np.uint8), np.empty(gkeys.size)
            for d in range(0, gkeys.size, block * m):
                rows = slice(d, d + block * m)
                x, z, f[rows] = multiply_words(gx[rows], gz[rows], u.x, u.z)
                vals[rows] = measured(gkeys[rows] ^ _string_keys(u.x[None], u.z[None], n), x, z)[0]
            c = np.bitwise_count(u.x & sz).sum(axis=-1) + np.bitwise_count(u.z & sx).sum(axis=-1)
            for rows in blocks:
                g = g_index[rows]
                out[rows] += coeff * _PHASE_VALUES[(e[rows] + f[g] + 2 * c) & 3] * vals[g]
        return (out + out.conj().T) / 2.0

    obj_matrix = None if objective is None else matrix_for(objective)
    con_matrices = {name: matrix_for(op) for name, op in constraints.items()}
    return OverlapSet(
        gram=(gram + gram.conj().T) / 2.0,
        objective=obj_matrix,
        constraints=con_matrices,
        shots=shots,
        sample_seed=sample_seed if shots is not None else None,
    )
