"""Pauli-string and Pauli-sum algebra with exact phase tracking.

Conventions used throughout the package:

- A Pauli string on ``n`` qubits is a tensor product of single-qubit
  operators from ``{I, X, Y, Z}`` together with a unit phase from
  ``{+1, +i, -1, -i}``.  The letters are encoded as integer codes
  ``0=I, 1=X, 2=Y, 3=Z`` and the phase as an exponent of ``i`` modulo 4,
  so phases never suffer floating-point drift.
- The algebra is the symplectic (tableau) form of Aaronson and Gottesman:
  a string carries its ``x`` and ``z`` bits (X = x, Z = z, Y = both) as
  uint64 words, and a product is an XOR of words plus an i-exponent from
  four popcounts (:func:`multiply_words`), vectorized over string arrays.
- Letters are also stored packed two bits per qubit; the packed bytes are
  the hash key and the sort key that fixes every string ordering.
- Qubit 0 corresponds to the leftmost letter in a label such as ``"ZZI"``
  and to the most significant bit of a computational-basis index, and of
  the masks the words hold.  With this choice ``matrix()`` equals the
  Kronecker product of the letters taken left to right.

A :class:`PauliSum` is a complex-weighted set of phase-free strings in
canonical form: phases are folded into the coefficients, duplicates are
merged and coefficients below ``ZERO_COEFF`` are dropped.  A canonical
PauliSum is Hermitian exactly when all its coefficients are real.
"""

from __future__ import annotations

import numpy as np

LETTERS = "IXYZ"

# Absolute cutoff below which a coefficient is treated as a cancellation
# artifact (~10x double-precision epsilon).
ZERO_COEFF = 1e-15

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

DENSE_QUBIT_CAP = 14


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class DenseLimitError(ValueError):
    """Dense realization requested above the configured qubit cap."""


def pack_codes(codes: np.ndarray) -> bytes:
    """Pack letter codes (2 bits each, four per byte) into bytes."""
    n = codes.size
    pad = (-n) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quads = codes.reshape(-1, 4).astype(np.uint8)
    packed = quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    return packed.tobytes()


# x and z bit of the letters I, X, Y, Z.
_XZ_BITS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.uint8)


def _words(codes: np.ndarray) -> np.ndarray:
    """Read-only (2, words) array of x and z words, qubit 0 as the top bit."""
    padded = np.zeros((2, -(-codes.size // 64) * 64), dtype=np.uint8)
    padded[:, : codes.size] = _XZ_BITS[codes[::-1]].T
    words = np.packbits(padded, axis=-1, bitorder="little").view(np.uint64)
    words.flags.writeable = False
    return words


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def multiply_words(x1, z1, x2, z2):
    """Product of Pauli strings held as broadcastable x/z word arrays.

    The last axis holds the words of one string.  Returns the product's
    ``(x, z)`` words and the exponent of i, mod 4, that the product of the
    phase-free strings acquires; input phases are the caller's to add.
    Per qubit, with ``P(x, z) = i^(xz) X^x Z^z``, the exponent is
    ``x1 z1 + x2 z2 - x3 z3 + 2 z1 x2``.
    """
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    exp = _popcount(x1 & z1) + _popcount(x2 & z2) - _popcount(x3 & z3) + 2 * _popcount(z1 & x2)
    return x3, z3, exp & 3


class PauliString:
    """Immutable n-qubit Pauli string with an exact unit phase."""

    __slots__ = ("n_qubits", "phase_power", "codes", "packed", "x", "z", "_hash")

    def __init__(self, codes, phase_power: int = 0):
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if codes.ndim != 1 or codes.size == 0:
            raise ValueError("codes must be a non-empty 1-d array")
        if codes.max(initial=0) > 3:
            raise ValueError("letter codes must lie in 0..3")
        codes.flags.writeable = False
        self.n_qubits = codes.size
        self.phase_power = int(phase_power) & 3
        self.codes = codes
        self.packed = pack_codes(codes)
        self.x, self.z = _words(codes)
        self._hash = hash((self.n_qubits, self.phase_power, self.packed))

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(np.zeros(n_qubits, dtype=np.uint8))

    @classmethod
    def from_words(cls, x, z, n_qubits: int, phase_power: int = 0) -> "PauliString":
        """String with the given x/z words (the layout of ``.x`` and ``.z``)."""
        bits = np.unpackbits(
            np.concatenate((x, z)).view(np.uint8).reshape(2, -1), axis=-1, count=n_qubits,
            bitorder="little",
        )
        return cls(bits[0, ::-1] ^ (3 * bits[1, ::-1]), phase_power)

    @classmethod
    def from_label(cls, label: str, phase_power: int = 0) -> "PauliString":
        try:
            codes = np.array([LETTERS.index(ch) for ch in label], dtype=np.uint8)
        except ValueError:
            raise ValueError(f"invalid Pauli label {label!r}; letters must be I/X/Y/Z")
        return cls(codes, phase_power)

    @classmethod
    def single(cls, n_qubits: int, site: int, letter: str) -> "PauliString":
        """Single-site operator, identity elsewhere."""
        codes = np.zeros(n_qubits, dtype=np.uint8)
        codes[site] = LETTERS.index(letter)
        return cls(codes)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_power]

    @property
    def label(self) -> str:
        return "".join(LETTERS[c] for c in self.codes)

    @property
    def is_hermitian(self) -> bool:
        return self.phase_power in (0, 2)

    @property
    def is_identity(self) -> bool:
        return not self.codes.any()

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return int(np.count_nonzero(self.codes))

    def phase_free(self) -> "PauliString":
        if self.phase_power == 0:
            return self
        return PauliString(self.codes, 0)

    def adjoint(self) -> "PauliString":
        """Hermitian conjugate: letters unchanged, phase conjugated."""
        return PauliString(self.codes, (-self.phase_power) & 3)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise DimensionMismatchError(
                f"cannot multiply strings on {self.n_qubits} and {other.n_qubits} qubits"
            )
        x, z, exp = multiply_words(self.x, self.z, other.x, other.z)
        return PauliString.from_words(x, z, self.n_qubits, self.phase_power + other.phase_power + exp)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n_qubits == other.n_qubits
            and self.phase_power == other.phase_power
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        prefix = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase_power]
        return f"PauliString({prefix}{self.label})"

    def masks(self) -> tuple[int, int]:
        """Bit masks (x_mask, zy_mask) with qubit 0 as the most significant bit.

        ``x_mask`` marks sites that flip a basis state (X or Y); ``zy_mask``
        marks sites that contribute a (-1)^bit sign (Z or Y).
        """
        return int.from_bytes(self.x.tobytes(), "little"), int.from_bytes(self.z.tobytes(), "little")

    def matrix(self, max_qubits: int = DENSE_QUBIT_CAP) -> np.ndarray:
        """Dense 2^n x 2^n realization (oracle support at small n)."""
        n = self.n_qubits
        if n > max_qubits:
            raise DenseLimitError(f"dense realization capped at {max_qubits} qubits, got {n}")
        dim = 1 << n
        x_mask, zy_mask = self.masks()
        n_y = int(np.count_nonzero(self.codes == 2))
        cols = np.arange(dim, dtype=np.uint64)
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & np.uint64(zy_mask)) & 1)
        out = np.zeros((dim, dim), dtype=complex)
        out[cols ^ np.uint64(x_mask), cols] = self.phase * _PHASES[n_y & 3] * signs
        return out

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply the string to a dense statevector (index arithmetic, O(2^n))."""
        dim = amplitudes.size
        if dim != 1 << self.n_qubits:
            raise DimensionMismatchError("statevector length does not match qubit count")
        x_mask, zy_mask = self.masks()
        n_y = int(np.count_nonzero(self.codes == 2))
        cols = np.arange(dim, dtype=np.uint64)
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & np.uint64(zy_mask)) & 1)
        out = np.empty_like(amplitudes)
        out[cols ^ np.uint64(x_mask)] = self.phase * _PHASES[n_y & 3] * signs * amplitudes
        return out


class PauliSum:
    """Canonical complex-weighted sum of phase-free Pauli strings."""

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms=None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = int(n_qubits)
        self._terms: dict[PauliString, complex] = {}
        if terms:
            for coeff, string in terms:
                self._add_term(complex(coeff), string)
        self._drop_zeros()

    def _add_term(self, coeff: complex, string: PauliString) -> None:
        if string.n_qubits != self.n_qubits:
            raise DimensionMismatchError(
                f"term on {string.n_qubits} qubits in a {self.n_qubits}-qubit sum"
            )
        key = string.phase_free()
        self._terms[key] = self._terms.get(key, 0j) + coeff * string.phase

    def _drop_zeros(self) -> None:
        self._terms = {s: c for s, c in self._terms.items() if abs(c) >= ZERO_COEFF}

    @classmethod
    def from_terms(cls, terms) -> "PauliSum":
        terms = list(terms)
        if not terms:
            raise ValueError("cannot infer qubit count from an empty term list; use PauliSum(n)")
        return cls(terms[0][1].n_qubits, terms)

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    def terms(self) -> list[tuple[complex, PauliString]]:
        """Terms in a deterministic order (sorted by packed letter codes)."""
        return [(self._terms[s], s) for s in sorted(self._terms, key=lambda p: p.packed)]

    def coefficient(self, string: PauliString) -> complex:
        key = string.phase_free()
        return self._terms.get(key, 0j) * string.phase.conjugate() if key in self._terms else 0j

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_hermitian(self) -> bool:
        """Hermitian iff every canonical coefficient is real."""
        if not self._terms:
            return True
        scale = max(abs(c) for c in self._terms.values())
        return all(abs(c.imag) <= 1e-12 * max(scale, 1.0) for c in self._terms.values())

    def adjoint(self) -> "PauliSum":
        return PauliSum(self.n_qubits, [(c.conjugate(), s) for s, c in self._terms.items()])

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise DimensionMismatchError("cannot add sums on different qubit counts")
        out = PauliSum(self.n_qubits)
        out._terms = dict(self._terms)
        for s, c in other._terms.items():
            out._terms[s] = out._terms.get(s, 0j) + c
        out._drop_zeros()
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "PauliSum":
        scalar = complex(scalar)
        out = PauliSum(self.n_qubits)
        out._terms = {s: scalar * c for s, c in self._terms.items()}
        out._drop_zeros()
        return out

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n_qubits != other.n_qubits:
                raise DimensionMismatchError("cannot multiply sums on different qubit counts")
            terms = []
            for sa, ca in self._terms.items():
                for sb, cb in other._terms.items():
                    terms.append((ca * cb, sa * sb))
            return PauliSum(self.n_qubits, terms)
        return self.__rmul__(other)

    def commutator(self, other: "PauliSum") -> "PauliSum":
        return self * other - other * self

    def commutes_with(self, other: "PauliSum") -> bool:
        return self.commutator(other).is_zero

    def matrix(self, max_qubits: int = DENSE_QUBIT_CAP) -> np.ndarray:
        """Dense realization; Hermitian matrix iff the sum is Hermitian."""
        n = self.n_qubits
        if n > max_qubits:
            raise DenseLimitError(f"dense realization capped at {max_qubits} qubits, got {n}")
        dim = 1 << n
        out = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim, dtype=np.uint64)
        for coeff, string in self.terms():
            x_mask, zy_mask = string.masks()
            n_y = int(np.count_nonzero(string.codes == 2))
            signs = 1.0 - 2.0 * (np.bitwise_count(cols & np.uint64(zy_mask)) & 1)
            out[cols ^ np.uint64(x_mask), cols] += coeff * _PHASES[n_y & 3] * signs
        return out

    def to_text(self) -> str:
        """One term per line: ``coeff_re coeff_im LETTERS``."""
        lines = []
        for coeff, string in self.terms():
            lines.append(f"{coeff.real:.17g} {coeff.imag:.17g} {string.label}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PauliSum":
        terms = []
        n_qubits = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 're im LETTERS', got {raw!r}")
            try:
                coeff = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ValueError(f"line {lineno}: bad coefficient in {raw!r}")
            string = PauliString.from_label(parts[2])
            if n_qubits is None:
                n_qubits = string.n_qubits
            elif string.n_qubits != n_qubits:
                raise ValueError(f"line {lineno}: inconsistent qubit count")
            terms.append((coeff, string))
        if n_qubits is None:
            raise ValueError("no terms found")
        return cls(n_qubits, terms)

    def isclose(self, other: "PauliSum", tol: float = 1e-12) -> bool:
        diff = self - other
        return all(abs(c) <= tol for c in diff._terms.values())

    def __repr__(self) -> str:
        if not self._terms:
            return f"PauliSum(n={self.n_qubits}, 0)"
        parts = [f"({c:.6g})*{s.label}" for c, s in self.terms()[:4]]
        more = "" if len(self) <= 4 else f" + {len(self) - 4} more"
        return f"PauliSum(n={self.n_qubits}, {' + '.join(parts)}{more})"


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
    flip = row ^ col
    flip_bits = [(flip >> (n_qubits - 1 - j)) & 1 for j in range(n_qubits)]
    terms = []
    # Free choice per site: {I or Z} where flip bit is 0, {X or Y} where it is 1.
    for choice in range(dim):
        codes = np.zeros(n_qubits, dtype=np.uint8)
        n_y = 0
        for j in range(n_qubits):
            pick = (choice >> (n_qubits - 1 - j)) & 1
            if flip_bits[j]:
                codes[j] = 2 if pick else 1
                n_y += pick
            else:
                codes[j] = 3 if pick else 0
        string = PauliString(codes)
        _, zy_mask = string.masks()
        # P|row> = i^{n_y} * (-1)^{popcount(row & zy_mask)} |row ^ flip>
        sign_row = -1.0 if (np.bitwise_count(np.uint64(row & zy_mask)) & 1) else 1.0
        amp = _PHASES[n_y & 3] * sign_row  # <col|P|row>
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
