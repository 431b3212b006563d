"""Ansatz seed states and Pauli expectation values, exact or shot-sampled.

Two backends realize a prepared state:

- :class:`DenseState` holds the full 2^n statevector (capped at
  ``pauli.DENSE_QUBIT_CAP`` = 14 qubits, roughly 256 KB of amplitudes);
  every string of one x mask reads its expectation from one Walsh-Hadamard
  transform of f[j] = conj(psi[j]) psi[j ^ x].
- :class:`ProductState` holds one 2-component vector per qubit and
  evaluates Pauli expectations in O(n), which is what makes the
  1000-qubit largest-eigenvalue runs possible.

Each backend evaluates a batch of phase-free strings, given as rows of x
and z words (the layout of ``PauliString.x`` and ``.z``), in one call:
``expectations(x, z)``, of which ``expectation(p)`` is the one-row case.
Rows that do not fit the state, by word count or a bit at or above n, raise.

Shot sampling measures a Hermitian string's parity ``shots`` times.  Both
backends draw the odd-parity count in one binomial draw from the exact
parity probability, which is the law of simulating every shot, so a
sampled expectation costs one exact expectation whatever the shot count.
``sampled_expectations(x, z, shots, seeds)`` draws once per string, from
its own seed in [0, 2**64); ``sampled_expectation(p, shots, seed)`` is its
one-row case.  Each count is exactly
``np.random.default_rng(seed).binomial(shots, p_odd)``, drawn from one
generator reused for the whole call: the seeds are hashed at once as
numpy's ``SeedSequence`` hashes them, and each string loads the PCG64 state
its seed gives, so no generator is built per string.

Bit convention matches :mod:`paulisdp.pauli`: qubit 0 is the most
significant bit of a basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (_PHASE_VALUES, DENSE_QUBIT_CAP, DenseLimitError, DimensionMismatchError,
                    PauliString, PauliSum, _popcount, dense_action, word_codes)
from .validation import check_positive_int

# ---------------------------------------------------------------------------
# state specifications


@dataclass(frozen=True)
class ZeroState:
    """Computational all-zeros product state |0...0>."""


@dataclass(frozen=True)
class PlusState:
    """Uniform-superposition product state |+...+>."""


@dataclass(frozen=True)
class HardwareEfficientCircuit:
    """Layers of per-qubit y rotations followed by a CNOT chain.

    Angles are either drawn uniformly from [0, 2*pi) from ``seed`` or given
    explicitly as a (layers, n_qubits) nested tuple so runs are
    bit-reproducible.
    """

    layers: int = 1
    seed: int | None = None
    angles: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.seed is None and self.angles is None:
            raise ValueError("provide either a seed or explicit angles")
        if self.angles is not None and len(self.angles) != self.layers:
            raise ValueError("angles must have one row per layer")


@dataclass(frozen=True)
class QuantumAnnealingState:
    """Discretized annealing circuit acting on |+...+>.

    For layers k = 1..p the circuit applies exp(-i (T k / p) H_z) followed
    by exp(-i T H_x).  H_z must be diagonal (I/Z letters only) and H_x a sum
    of single-site X terms; both exponentials are then exact, so the only
    approximation is the layer splitting itself.
    """

    layers: int
    total_time: float
    hz: PauliSum
    hx: PauliSum

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")


StateSpec = ZeroState | PlusState | HardwareEfficientCircuit | QuantumAnnealingState


# ---------------------------------------------------------------------------
# backends


# Amplitudes (dense) or sites (product) per chunk of a batch evaluation: temporaries stay ~1 MB.
_CHUNK = 1 << 14


def _check_rows(state, x: np.ndarray, z: np.ndarray) -> None:
    """Raise ``DimensionMismatchError`` unless x and z are rows of the state's words."""
    n = state.n_qubits
    if x.ndim != 2 or x.shape != z.shape or x.shape[1] != -(-n // 64):
        raise DimensionMismatchError(f"word rows {x.shape} and {z.shape} do not fit {n} qubits")
    if n % 64 and ((x[:, -1] | z[:, -1]) >> np.uint64(n % 64)).any():
        raise DimensionMismatchError(f"a string acts on a qubit at or above {n}")


def _expectation(state, p: PauliString) -> complex:
    """<psi|p|psi>: the one-row case of ``state.expectations``, times p's phase."""
    if p.n_qubits != state.n_qubits:
        raise DimensionMismatchError("string and state qubit counts differ")
    return p.phase * complex(state.expectations(p.x[None], p.z[None])[0])


def _hash_rounds(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR and multiplier columns of ``count`` successive rounds of numpy's SeedSequence hash."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


# numpy's SeedSequence with its pool of 4 uint32 words: 4 rounds hash the entropy into the pool
# and 12 mix it, then 8 rounds of a second hash draw the output words.
_POOL_XOR, _POOL_MUL = _hash_rounds(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MUL = _hash_rounds(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Seeds per chunk turned into Python ints at a time: temporaries stay a few tens of KB.
_SEED_CHUNK = 256


def _seed_array(seeds, count: int) -> np.ndarray:
    """``seeds`` as a uint64 array of ``count`` seeds, each an integer in [0, 2**64)."""
    if not isinstance(seeds, np.ndarray):
        seeds = np.array(seeds, dtype=object)  # Python ints keep their exact values
    if seeds.shape != (count,):
        raise ValueError(f"expected one seed per string ({count}), got shape {seeds.shape}")
    if seeds.dtype.kind == "O":
        valid = all(isinstance(s, (int, np.integer)) and 0 <= s < 1 << 64 for s in seeds)
    else:
        valid = seeds.dtype.kind == "u" or seeds.dtype.kind == "i" and seeds.min(initial=0) >= 0
    if not valid:
        raise ValueError("seeds must be integers in [0, 2**64)")
    return seeds.astype(np.uint64, copy=False)


def _hashed(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """One round of the SeedSequence hash on each row of uint32 values, with that row's constants."""
    values = (values ^ xor) * mul
    return values ^ (values >> np.uint32(16))


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each uint64 seed, one row per seed.

    numpy's algorithm on uint32 rows holding all seeds at once: each seed's
    two 32-bit words (low first) and two zeros are hashed into the pool, each
    pool word is hashed into the three others in turn, and 8 output words are
    hashed from the pool, cycled.
    """
    entropy = np.zeros((4, seeds.size), dtype=np.uint32)
    entropy[0], entropy[1] = seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)
    pool = _hashed(entropy, _POOL_XOR[:4], _POOL_MUL[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        rounds = slice(4 + 3 * src, 7 + 3 * src)
        hashed = _hashed(pool[src], _POOL_XOR[rounds], _POOL_MUL[rounds])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MUL)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8")


def _sampled_expectations(state, x: np.ndarray, z: np.ndarray, shots: int, seeds) -> np.ndarray:
    """Mean of ``shots`` parity outcomes of each phase-free string, drawn from its own seed.

    The odd-parity count of ``shots`` measurements is Binomial(shots, p_odd)
    with p_odd = (1 - <P>)/2, so one draw from the exact expectation has the
    law of simulating every shot, at no cost in shots.  The identity reads 1
    without a draw.  Each seed is an integer in [0, 2**64), and each count is
    exactly ``np.random.default_rng(seed).binomial(shots, p_odd)``, drawn from
    one reused generator: ``_seed_states`` hashes all seeds at once as
    ``SeedSequence`` does, and each string loads the state PCG64's seeding
    step gives (state 0, one step, add the seed state, one more step).
    """
    _check_rows(state, x, z)
    shots = check_positive_int(shots, "shots")
    seeds = _seed_array(seeds, len(x))
    out = np.ones(len(x))
    drawn = np.flatnonzero(x.any(axis=-1) | z.any(axis=-1))
    p_odd = np.clip((1.0 - state.expectations(x[drawn], z[drawn]).real) / 2.0, 0.0, 1.0)
    words = _seed_states(seeds[drawn])
    odd = np.empty(drawn.size)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    loaded = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for lo in range(0, drawn.size, _SEED_CHUNK):
        rows = zip(words[lo : lo + _SEED_CHUNK].tolist(), p_odd[lo : lo + _SEED_CHUNK].tolist())
        for i, ((a, b, c, d), p) in enumerate(rows, lo):
            # PCG64 seeds from (initstate, initseq) = (a << 64 | b, c << 64 | d)
            inc = (c << 65 | d << 1 | 1) & _MASK128
            pcg["state"], pcg["inc"] = (((a << 64 | b) + inc) * _PCG_MULT + inc) & _MASK128, inc
            bit_generator.state = loaded
            odd[i] = generator.binomial(shots, p)
    out[drawn] = 1.0 - 2.0 * odd / shots
    return out


def _sampled_expectation(state, p: PauliString, shots: int, seed: int) -> float:
    """One-row case of ``state.sampled_expectations`` for a Hermitian string, times its sign.

    ``seed`` must be an integer in [0, 2**64); any other seed raises
    ``ValueError``.  ``np.random.default_rng``, whose draw this reproduces,
    also takes seeds of 2**64 and above; this sampler does not.
    """
    if p.n_qubits != state.n_qubits:
        raise DimensionMismatchError("string and state qubit counts differ")
    if not p.is_hermitian:
        raise ValueError("sampled expectation requires a Hermitian string (phase +/-1)")
    sampled = state.sampled_expectations(p.x[None], p.z[None], shots, [seed])
    return float(p.phase.real) * float(sampled[0])


class ProductState:
    """Tensor product of single-qubit states; expectations in O(n)."""

    def __init__(self, factors: np.ndarray):
        factors = np.asarray(factors, dtype=complex)
        if factors.ndim != 2 or factors.shape[0] < 1 or factors.shape[1] != 2:
            raise ValueError("factors must have shape (n_qubits, 2) with n_qubits >= 1")
        if not np.isfinite(factors).all():
            raise ValueError("factors must be finite")
        norms = np.linalg.norm(factors, axis=1)
        if np.any(norms == 0):
            raise ValueError("zero single-qubit factor")
        self.factors = factors / norms[:, None]
        self.n_qubits = factors.shape[0]
        v0, v1 = self.factors[:, 0], self.factors[:, 1]
        cross = np.conj(v0) * v1
        # per-site expectation of I, X, Y, Z: table[j, code]
        self._site_values = np.stack(
            [
                np.ones(self.n_qubits),
                2.0 * cross.real,
                2.0 * cross.imag,
                np.abs(v0) ** 2 - np.abs(v1) ** 2,
            ],
            axis=1,
        )

    def expectations(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Real <P> of each phase-free string P given as rows of x and z words."""
        _check_rows(self, x, z)
        sites = np.arange(self.n_qubits)
        step = max(1, _CHUNK // self.n_qubits)
        out = np.empty(len(x))
        for lo in range(0, len(x), step):
            codes = word_codes(x[lo : lo + step], z[lo : lo + step], self.n_qubits)
            out[lo : lo + step] = np.prod(self._site_values[sites, codes], axis=1)
        return out

    expectation = _expectation
    sampled_expectations = _sampled_expectations
    sampled_expectation = _sampled_expectation

    def to_dense(self) -> "DenseState":
        if self.n_qubits > DENSE_QUBIT_CAP:
            raise DenseLimitError(f"dense backend capped at {DENSE_QUBIT_CAP} qubits")
        amps = self.factors[0]
        for j in range(1, self.n_qubits):
            amps = np.kron(amps, self.factors[j])
        return DenseState(amps)


class DenseState:
    """Full statevector backend."""

    def __init__(self, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 1 or amplitudes.size < 2 or amplitudes.size & (amplitudes.size - 1):
            raise ValueError("amplitude vector length must be a power of two, at least 2")
        if not np.isfinite(amplitudes).all():
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amplitudes)
        if norm == 0:
            raise ValueError("zero statevector")
        self.amplitudes = amplitudes / norm
        self.n_qubits = int(np.log2(amplitudes.size))

    def expectations(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """<psi|P|psi> of each phase-free string P given as rows of x and z words.

        With f[j] = conj(psi[j]) psi[j ^ x], <P> = (-i)^|x & z| sum_j (-1)^|j & z| f[j], entry z
        of f's Walsh-Hadamard transform: one per distinct x mask, in chunks of ``_CHUNK``
        amplitudes.  A string's value depends only on psi, x and z: the same bits in any batch.
        """
        _check_rows(self, x, z)
        psi = self.amplitudes
        masks, which = np.unique(x[:, 0].astype(np.intp), return_inverse=True)
        order = np.argsort(which)
        step = max(1, _CHUNK // psi.size)
        starts = np.searchsorted(which[order], np.arange(0, masks.size + step, step))
        phases = _PHASE_VALUES[-_popcount(x & z) & 3]
        bra, index = psi.conj(), np.arange(psi.size)
        out = np.empty(len(x), dtype=complex)
        for c, lo in enumerate(range(0, masks.size, step)):
            f = _walsh_hadamard(bra * psi[index ^ masks[lo : lo + step, None]])
            rows = order[starts[c] : starts[c + 1]]
            out[rows] = phases[rows] * f[which[rows] - lo, z[rows, 0]]
        return out

    expectation = _expectation
    sampled_expectations = _sampled_expectations
    sampled_expectation = _sampled_expectation


QuantumState = DenseState | ProductState


def _walsh_hadamard(f: np.ndarray) -> np.ndarray:
    """Rows of sum_j (-1)^|j & z| f[:, j] over z; ``f`` is overwritten.

    Each butterfly stage puts the sums and differences of the two halves (the top index bit) at
    the even and odd entries (the bottom bit), so after n stages every bit is back in place.
    """
    g, half = np.empty_like(f), f.shape[1] // 2
    for _ in range(half.bit_length()):
        np.add(f[:, :half], f[:, half:], out=g[:, 0::2])
        np.subtract(f[:, :half], f[:, half:], out=g[:, 1::2])
        f, g = g, f
    return f


# ---------------------------------------------------------------------------
# gates (dense backend only)


def _apply_single(psi: np.ndarray, n: int, qubit: int, u: np.ndarray) -> np.ndarray:
    tensor = np.moveaxis(psi.reshape([2] * n), qubit, 0)
    tensor = np.tensordot(u, tensor, axes=(1, 0))
    return np.moveaxis(tensor, 0, qubit).reshape(-1)

def _apply_cnot(psi: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    k = np.arange(psi.size)
    return psi[k ^ (((k >> (n - 1 - control)) & 1) << (n - 1 - target))]

def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)

def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def diagonal_values(op: PauliSum) -> np.ndarray:
    """Diagonal of a {I,Z}-only PauliSum as a length-2^n real vector."""
    n = op.n_qubits
    diag = np.zeros(1 << n, dtype=complex)
    for coeff, string in op.terms():
        if string.x.any():
            raise ValueError("operator is not diagonal in the computational basis")
        diag += coeff * dense_action(string.x[None], string.z[None], n)[1][0]
    if np.max(np.abs(diag.imag), initial=0.0) > 1e-12:
        raise ValueError("diagonal operator has complex coefficients")
    return diag.real


def _single_site_x_terms(op: PauliSum) -> np.ndarray:
    """Per-site coefficients of a sum of single-site X terms."""
    coeffs = np.zeros(op.n_qubits)
    for coeff, string in op.terms():
        sites = np.nonzero(string.codes)[0]
        if sites.size != 1 or string.codes[sites[0]] != 1:
            raise ValueError("operator is not a sum of single-site X terms")
        if abs(coeff.imag) > 1e-12:
            raise ValueError("X-term coefficients must be real")
        coeffs[sites[0]] += coeff.real
    return coeffs


# ---------------------------------------------------------------------------
# preparation


def prepare(spec: StateSpec, n_qubits: int) -> QuantumState:
    """Prepare the seed state described by ``spec`` on ``n_qubits`` qubits."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    if isinstance(spec, ZeroState):
        return ProductState(np.tile([1.0, 0.0], (n_qubits, 1)))
    if isinstance(spec, PlusState):
        return ProductState(np.tile([1.0, 1.0], (n_qubits, 1)) / np.sqrt(2.0))
    if n_qubits > DENSE_QUBIT_CAP:
        raise DenseLimitError(
            f"circuit state preparation on {n_qubits} qubits needs the dense backend "
            f"(cap {DENSE_QUBIT_CAP} qubits)"
        )
    if isinstance(spec, HardwareEfficientCircuit):
        return _prepare_hardware_efficient(spec, n_qubits)
    if isinstance(spec, QuantumAnnealingState):
        return _prepare_annealing(spec, n_qubits)
    raise TypeError(f"unknown state spec {spec!r}")


def _prepare_hardware_efficient(spec: HardwareEfficientCircuit, n: int) -> DenseState:
    if spec.angles is not None:
        angles = np.asarray(spec.angles, dtype=float)
        if angles.shape != (spec.layers, n):
            raise ValueError(f"angles must have shape ({spec.layers}, {n})")
    else:
        rng = np.random.default_rng(spec.seed)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(spec.layers, n))
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for layer in range(spec.layers):
        for j in range(n):
            psi = _apply_single(psi, n, j, _ry(angles[layer, j]))
        for j in range(n - 1):
            psi = _apply_cnot(psi, n, j, j + 1)
    return DenseState(psi)


def _prepare_annealing(spec: QuantumAnnealingState, n: int) -> DenseState:
    if spec.hz.n_qubits != n or spec.hx.n_qubits != n:
        raise DimensionMismatchError("annealing Hamiltonian parts do not match n_qubits")
    diag = diagonal_values(spec.hz)
    x_coeffs = _single_site_x_terms(spec.hx)
    psi = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=complex)
    t = spec.total_time
    p = spec.layers
    for k in range(1, p + 1):
        psi = psi * np.exp(-1j * (t * k / p) * diag)
        for j in range(n):
            if x_coeffs[j] != 0.0:
                psi = _apply_single(psi, n, j, _rx(2.0 * t * x_coeffs[j]))
    return DenseState(psi)
