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
  On a statevector, rows of words act through :func:`dense_action`, shared by ``apply``, the
  dense matrices, the annealing diagonal and the X-string map; dense expectations take one
  Walsh-Hadamard transform per x mask instead (see :mod:`paulisdp.states`).
- Letters are also stored packed two bits per qubit; the packed bytes are
  the hash key and the sort key that fixes every string ordering.
- Qubit 0 corresponds to the leftmost letter in a label such as ``"ZZI"``
  and to the most significant bit of a computational-basis index, and of
  the bit masks the words hold.  With this choice ``matrix()`` equals the
  Kronecker product of the letters taken left to right.

A :class:`PauliSum` is a complex-weighted set of phase-free strings in
canonical form: phases are folded into the coefficients, duplicates are
merged and coefficients below ``ZERO_COEFF`` are dropped; a NaN or infinite
coefficient raises ``ValueError``.  A canonical
PauliSum is Hermitian exactly when all its coefficients are real.
"""

from __future__ import annotations

import cmath

import numpy as np

LETTERS = "IXYZ"

# Absolute cutoff below which a coefficient is treated as a cancellation
# artifact (~10x double-precision epsilon).
ZERO_COEFF = 1e-15

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_VALUES = np.array(_PHASES)

DENSE_QUBIT_CAP = 14


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class SettingError(ValueError):
    """A setting that the given problem cannot run with, such as a seed state it cannot prepare."""


class DenseLimitError(SettingError):
    """Dense realization requested above the configured qubit cap."""


def pack_code_rows(codes: np.ndarray) -> np.ndarray:
    """Pack rows of letter codes, shape (strings, n), 2 bits each and four per byte, into uint8 rows."""
    rows, n = codes.shape
    quads = np.zeros((rows, -(-n // 4), 4), dtype=np.uint8)
    quads.reshape(rows, 4 * quads.shape[1])[:, :n] = codes
    return quads[..., 0] | (quads[..., 1] << 2) | (quads[..., 2] << 4) | (quads[..., 3] << 6)


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


def dense_action(x: np.ndarray, z: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """How each phase-free string, given as rows of x and z words, acts on a 2^n statevector.

    Returns ``(source, factor)``, both of shape (rows, 2^n), with
    ``P|psi>[j] = factor[j] * psi[source[j]]``: the source is ``k = j ^ x``
    and the factor ``i^|x & z| (-1)^|k & z|`` (|.| a popcount; x & z marks the Y sites).
    """
    source = np.arange(1 << n_qubits, dtype=np.uint64) ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(source & z) & 1)
    return source, _PHASE_VALUES[_popcount(x & z) & 3, None] * signs


def word_codes(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """Letter codes, shape (strings, n_qubits), of strings held as rows of x and z words."""
    words = np.concatenate((x, z), axis=-1).view(np.uint8).reshape(-1, 2, 8 * x.shape[-1])
    bits = np.unpackbits(words, axis=-1, count=n_qubits, bitorder="little")[..., ::-1]
    return bits[:, 0] ^ (3 * bits[:, 1])


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
        self.packed = pack_code_rows(codes[None]).tobytes()
        self.x, self.z = _words(codes)
        self._hash = hash((self.n_qubits, self.phase_power, self.packed))

    @classmethod
    def _from_parts(cls, codes, packed: bytes, x, z) -> "PauliString":
        """Phase-free string from read-only codes, packed bytes and x/z words, none re-derived.

        The parts must be what ``__init__`` derives from ``codes``; nothing is checked.
        """
        string = object.__new__(cls)
        string.n_qubits, string.phase_power = codes.size, 0
        string.codes, string.packed, string.x, string.z = codes, packed, x, z
        string._hash = hash((string.n_qubits, 0, packed))
        return string

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(np.zeros(n_qubits, dtype=np.uint8))

    @classmethod
    def from_words(cls, x, z, n_qubits: int, phase_power: int = 0) -> "PauliString":
        """String with the given x/z words (the layout of ``.x`` and ``.z``)."""
        return cls(word_codes(x, z, n_qubits)[0], phase_power)

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

    def matrix(self, max_qubits: int = DENSE_QUBIT_CAP) -> np.ndarray:
        """Dense 2^n x 2^n realization (oracle support at small n)."""
        return PauliSum(self.n_qubits, [(1.0, self)]).matrix(max_qubits)

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply the string to a dense statevector (index arithmetic, O(2^n))."""
        if amplitudes.size != 1 << self.n_qubits:
            raise DimensionMismatchError("statevector length does not match qubit count")
        source, factor = dense_action(self.x[None], self.z[None], self.n_qubits)
        return self.phase * factor[0] * amplitudes[source[0]]


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
        for s, c in self._terms.items():
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} of {s.label} is not finite")
        self._terms = {s: c for s, c in self._terms.items() if abs(c) >= ZERO_COEFF}

    @classmethod
    def from_terms(cls, terms) -> "PauliSum":
        terms = list(terms)
        if not terms:
            raise ValueError("cannot infer qubit count from an empty term list; use PauliSum(n)")
        return cls(terms[0][1].n_qubits, terms)

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
        out = np.zeros((1 << n, 1 << n), dtype=complex)
        rows = np.arange(1 << n)
        for coeff, string in self.terms():
            source, factor = dense_action(string.x[None], string.z[None], n)
            out[rows, source[0]] += coeff * factor[0]
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
            if not cmath.isfinite(coeff):
                raise ValueError(
                    f"line {lineno}: coefficient {coeff:.12g} of {parts[2]} is not finite"
                )
            try:
                string = PauliString.from_label(parts[2])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
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

