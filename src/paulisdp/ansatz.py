"""Krylov-flavored ansatz sets and the overlap matrices the reduced SDPs use.

The ansatz is a seed state |psi> expanded by M phase-free Pauli strings,
identity first.  An overlap entry <psi_a| u |psi_b> of an operator term u
is the string s_a u s_b = (-1)^c (s_a s_b) u on the seed state, with c the
parity of the sites where u and s_b anticommute.  :func:`build_overlaps`
keys the M^2 Gram products s_a s_b once and multiplies each term only into
their distinct strings.  Strings are keyed by XORs of per-string GF(2)-linear
keys (hashed above 32 qubits, and row-checked unless proven one-to-one on the
span of the build's strings) in one sorted key table; each distinct string is
measured once, all in one batch backend call per build, with no ``PauliString``
built for it.  Blocks of rows bound only the memory of the word temporaries.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .pauli import (_PHASE_VALUES, PauliString, PauliSum, SettingError, _popcount,
                    multiply_words, pack_code_rows, word_codes)
from .states import StateSpec, prepare
from .validation import check_sample_seed


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
    strings, orders, check = [PauliString.identity(n)], [0], _keys_checked(gx, gz, gkeys, n)
    lkeys, lx, lz = gkeys[:1] * 0, gx[:1] * 0, gz[:1] * 0  # the identity
    seen = {lx.tobytes() + lz.tobytes()}  # x and z words of every string so far
    for k in range(1, max_order + 1):
        x, z = lx[:, None] ^ gx, lz[:, None] ^ gz  # the phase-free products' words
        x, z = x.reshape(-1, gx.shape[1]), z.reshape(-1, gx.shape[1])
        keys = (lkeys[:, None] ^ gkeys).ravel()
        (_keys, level), index = _register((keys[:0], np.arange(0)), keys, np.arange(keys.size))
        if check:  # each row whose key another string holds, too
            level = np.concatenate([level, _differs(x, z, x[level[index]], z[level[index]])])
        lx, lz, lkeys = x[level], z[level], keys[level]
        flat, size = np.concatenate([lx, lz], axis=1).tobytes(), 16 * gx.shape[1]
        words = {flat[i * size : (i + 1) * size]: i for i in range(level.size)}
        fresh = [i for row, i in words.items() if row not in seen]
        seen.update(words)
        fx, fz = lx[fresh], lz[fresh]
        codes = word_codes(fx, fz, n)
        packed = pack_code_rows(codes)
        for a in (fx, fz, codes):
            a.flags.writeable = False
        flat, size = packed.tobytes(), packed.shape[1]
        packed = [flat[i * size : (i + 1) * size] for i in range(len(fresh))]
        for i in sorted(range(len(fresh)), key=packed.__getitem__):
            strings.append(PauliString._from_parts(codes[i], packed[i], fx[i], fz[i]))
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
    ``n_measured`` counts the distinct strings the build measured, the
    method's device cost; a prefix keeps the count of the build it came from.
    """

    gram: np.ndarray
    objective: np.ndarray | None
    constraints: dict[str, np.ndarray]
    shots: int | None = None
    sample_seed: int | None = None
    n_measured: int | None = None

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
            n_measured=self.n_measured,
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


def _gf2_rank(rows, cap: int) -> int:
    """GF(2) rank of bit rows given as Python ints, counted no further than cap + 1."""
    pivots = {}  # leading bit -> the reduced row that has it
    for row in rows:
        while row and (lead := row.bit_length()) in pivots:
            row ^= pivots[lead]
        if row:
            pivots[lead] = row
            if len(pivots) > cap:
                break
    return len(pivots)


def _keys_checked(x, z, keys, n_qubits: int) -> bool:
    """Whether XOR-linear ``keys`` can collide on the span of rows x|z: iff they lose rank there."""
    rows = (int.from_bytes(row.tobytes(), "little") for row in np.concatenate([x, z], axis=1))
    return n_qubits > 32 and _gf2_rank(keys.tolist(), 64) < _gf2_rank(rows, 64)


def _register(table, keys, sources):
    """Merge keyed rows into ``table`` = (sorted distinct keys, one source per key).

    A key already in the table keeps its source; a new key takes one of its
    rows'.  Returns the merged table and each row's index into it.
    """
    held = table[0].size
    merged, inverse = np.unique(np.concatenate([table[0], keys]), return_inverse=True)
    kept = np.empty(merged.size, dtype=np.intp)
    kept[inverse[held:]] = sources
    kept[inverse[:held]] = table[1]
    return (merged, kept), inverse[held:]


def _differs(x, z, rx, rz) -> np.ndarray:
    """Rows whose words differ from the stored rows: keys not proven one-to-one can collide."""
    return np.flatnonzero(((x != rx) | (z != rz)).any(axis=-1))


def _products(left, right, chunk: int, check: bool):
    """Distinct strings among the products of a left and a right row, each given as (keys, x, z).

    Returns (sorted keys, x and z words of a string of each key, spill), a
    chunk of the grid of products keyed at a time.  ``spill`` maps the x + z
    bytes of each string whose key another holds to its row after the keys';
    with ``check`` every such product is in it.
    """
    (lk, lx, lz), (rk, rx, rz) = left, right
    table, spill, size = (lk[:0], np.arange(0)), {}, rk.size
    for lo in range(0, lk.size * size, chunk):
        grid = np.arange(lo, min(lo + chunk, lk.size * size))
        i, j = np.divmod(grid, size)
        table, index = _register(table, lk[i] ^ rk[j], grid)
        if check:
            x, z = lx[i] ^ rx[j], lz[i] ^ rz[j]
            i, j = np.divmod(table[1][index], size)
            for r in _differs(x, z, lx[i] ^ rx[j], lz[i] ^ rz[j]):
                spill.setdefault(x[r].tobytes() + z[r].tobytes(), len(spill))
    i, j = np.divmod(table[1], size)
    return table[0], lx[i] ^ rx[j], lz[i] ^ rz[j], spill


def _lookup(found, keys, xz=None) -> np.ndarray:
    """Each string's row in ``found``: its key's row, or given its words ``xz`` its spilled row.

    A string whose words differ from its key's row, and that has no spilled row yet, gets one.
    """
    table, fx, fz, spill = found
    at = np.searchsorted(table, keys)
    if xz is not None:
        for r in _differs(*xz, np.take(fx, at, axis=0), np.take(fz, at, axis=0)):
            at[r] = table.size + spill.setdefault(b"".join(w[r].tobytes() for w in xz), len(spill))
    return at


def _rows(found, n_qubits: int):
    """Keys, x and z words of every row of ``found``: its keys' strings, then its spilled ones."""
    keys, fx, fz, spill = found
    spilled = np.frombuffer(b"".join(spill), dtype=np.uint64).reshape(-1, 2, fx.shape[1])
    sx, sz = spilled[:, 0], spilled[:, 1]
    keys = np.concatenate([keys, _string_keys(sx, sz, n_qubits)])
    return keys, np.vstack([fx, sx]), np.vstack([fz, sz])


def build_overlaps(
    ansatz: AnsatzSet,
    objective: PauliSum | None = None,
    constraints: dict[str, PauliSum] | None = None,
    shots: int | None = None,
    sample_seed: int = 0,
) -> OverlapSet:
    """Measure the Gram matrix plus objective/constraint overlap matrices.

    Register: the distinct g of the Gram products s_a s_b = i^e g, then of
    each term u's products g u with them, keyed in one sorted table.
    Measure: every distinct string, in one backend call.  Assemble: each term
    multiplies into the distinct g again, g u = i^f r, and gathers
    s_a u s_b = (-1)^c i^(e + f) r.

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
    chunk, blocks = block * m, [slice(a, a + block) for a in range(0, m, block)]
    ops = [[(1.0, PauliString.identity(n))]]  # the Gram's
    ops += [op.terms() for op in ([objective] if objective is not None else [])]
    ops += [op.terms() for op in constraints.values()]
    ux, uz = _stacked_words([u for op in ops for _c, u in op], n)
    keys, ukeys = _string_keys(sx, sz, n), _string_keys(ux, uz, n)
    check = _keys_checked(np.vstack([sx, ux]), np.vstack([sz, uz]), np.append(keys, ukeys), n)

    # Register the Gram strings s_a s_b = i^e g; e = y_a + y_b - y_g + 2 |z_a & x_b|, y Y counts.
    found, y = _products((keys, sx, sz), (keys, sx, sz), chunk, check=False), _popcount(sx & sz)
    e, g_index = np.empty((m, m), dtype=np.int64), np.empty((m, m), dtype=np.intp)
    for rows in blocks:
        xz = [(w[rows, None] ^ w).reshape(-1, width) for w in (sx, sz)] if check else None
        g_index[rows] = _lookup(found, (keys[rows, None] ^ keys).ravel(), xz).reshape(-1, m)
        e[rows] = y[rows, None] + y + 2 * _popcount(sz[rows, None] & sx)
    gkeys, gx, gz = _rows(found, n)
    e = ((e - _popcount(gx & gz)[g_index]) & 3).astype(np.uint8)
    found = _products((ukeys, ux, uz), (gkeys, gx, gz), chunk, check=check)

    # Measure every distinct string in one backend call.
    _keys, mx, mz = _rows(found, n)
    if shots is None:
        values = state.expectations(mx, mz).real
    else:
        seed_bytes, digests = check_sample_seed(sample_seed).to_bytes(8, "little", signed=True), []
        for lo in range(0, len(mx), chunk):  # each string's seed: a hash of its letter codes
            codes = word_codes(mx[lo : lo + chunk], mz[lo : lo + chunk], n).tobytes()
            digests += [
                hashlib.blake2b(codes[i : i + n] + seed_bytes, digest_size=8).digest()
                for i in range(0, len(codes), n)
            ]
        values = state.sampled_expectations(mx, mz, shots, np.frombuffer(b"".join(digests), "<u8"))

    # Assemble: g u = i^f r for each Gram-table row g, gathered into s_a u s_b.
    matrices = [np.zeros((m, m), dtype=complex) for _op in ops]
    for t, (k, (coeff, u)) in enumerate((k, term) for k, op in enumerate(ops) for term in op):
        f, at = np.zeros(gkeys.size, dtype=np.uint8), np.empty(gkeys.size, dtype=np.intp)
        for lo in range(0, gkeys.size, chunk):
            rows = slice(lo, lo + chunk)
            x, z = gx[rows], gz[rows]
            if t:  # the Gram's identity multiplies nothing
                x, z, f[rows] = multiply_words(x, z, ux[t], uz[t])
            at[rows] = _lookup(found, gkeys[rows] ^ ukeys[t], (x, z) if check else None)
        vals, phases = values[at], coeff * _PHASE_VALUES  # exact: each entry keeps its bits
        c = (2 * (_popcount(u.x & sz) + _popcount(u.z & sx))).astype(np.uint8)  # only mod 4 counts
        for rows in blocks:
            g = g_index[rows]
            matrices[k][rows] += phases[(e[rows] + f[g] + c) & 3] * vals[g]
    gram, *matrices = [(a + a.conj().T) / 2.0 for a in matrices]
    return OverlapSet(
        gram=gram,
        objective=None if objective is None else matrices.pop(0),
        constraints=dict(zip(constraints, matrices)),
        shots=shots,
        sample_seed=sample_seed if shots is not None else None,
        n_measured=values.size,
    )
