"""Problem-instance builders: spin models, graphs, XOR games, discrimination.

Spin chains default to periodic boundaries (site N+1 identified with
site 1); pass ``periodic=False`` for open chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, PauliSum
from .validation import check_psd, check_square_matrix


def ising_hamiltonian(
    n_qubits: int, g: float = 1.0, h: float = 1.0, periodic: bool = True
) -> PauliSum:
    """Ising chain with longitudinal field g and transverse field h.

    H = -sum_n [ Z_n Z_{n+1} + g Z_n ] - h sum_n X_n
    """
    hz, hx = ising_split(n_qubits, g=g, h=h, periodic=periodic)
    return hz + hx


def ising_split(
    n_qubits: int, g: float = 1.0, h: float = 1.0, periodic: bool = True
) -> tuple[PauliSum, PauliSum]:
    """The Ising Hamiltonian split into its diagonal part and its X part."""
    if n_qubits < 2:
        raise ValueError("n_qubits must be >= 2")
    z_terms = []
    x_terms = []
    bonds = n_qubits if periodic else n_qubits - 1
    for i in range(bonds):
        codes = np.zeros(n_qubits, dtype=np.uint8)
        codes[i] = 3
        codes[(i + 1) % n_qubits] = 3
        z_terms.append((-1.0, PauliString(codes)))
    for i in range(n_qubits):
        if g != 0.0:
            z_terms.append((-g, PauliString.single(n_qubits, i, "Z")))
        if h != 0.0:
            x_terms.append((-h, PauliString.single(n_qubits, i, "X")))
    return PauliSum(n_qubits, z_terms), PauliSum(n_qubits, x_terms)


def heisenberg_hamiltonian(n_qubits: int, h: float = 1.0, periodic: bool = True) -> PauliSum:
    """Heisenberg chain: sum_n [ X_n X_{n+1} + Y_n Y_{n+1} + h Z_n Z_{n+1} ]."""
    if n_qubits < 2:
        raise ValueError("n_qubits must be >= 2")
    terms = []
    bonds = n_qubits if periodic else n_qubits - 1
    for i in range(bonds):
        j = (i + 1) % n_qubits
        for letter, coeff in (("X", 1.0), ("Y", 1.0), ("Z", h)):
            codes = np.zeros(n_qubits, dtype=np.uint8)
            codes[i] = codes[j] = "IXYZ".index(letter)
            terms.append((coeff, PauliString(codes)))
    return PauliSum(n_qubits, terms)


def random_pauli_operator(n_qubits: int, n_terms: int, seed: int) -> PauliSum:
    """Random operator: ``n_terms`` distinct uniform strings, coefficients in [-1, 1]."""
    if n_qubits < 2:
        raise ValueError("n_qubits must be >= 2")
    if n_terms > 4 ** min(n_qubits, 32):  # more terms than distinct strings would never end
        raise ValueError(f"n_terms={n_terms} exceeds the {4 ** n_qubits} distinct Pauli strings")
    rng = np.random.default_rng(seed)
    seen = set()
    terms = []
    while len(terms) < n_terms:
        codes = rng.integers(0, 4, size=n_qubits).astype(np.uint8)
        string = PauliString(codes)
        if string.packed in seen:
            continue
        seen.add(string.packed)
        terms.append((rng.uniform(-1.0, 1.0), string))
    return PauliSum(n_qubits, terms)


def spin_flip_parity(n_qubits: int) -> PauliSum:
    """Global spin-flip operator prod_n X_n (commutes with ZZ+X chains)."""
    return PauliSum.from_terms([(1.0, PauliString(np.ones(n_qubits, dtype=np.uint8)))])


def magnetization(n_qubits: int) -> PauliSum:
    """Total magnetization sum_n Z_n (conserved by the Heisenberg chain)."""
    return PauliSum.from_terms(
        [(1.0, PauliString.single(n_qubits, i, "Z")) for i in range(n_qubits)]
    )


def diagonal_x_split(op: PauliSum) -> tuple[PauliSum, PauliSum]:
    """Split into (diagonal part, single-site-X part); reject anything else.

    This is the split the exact annealing circuit needs.
    """
    diag_terms = []
    x_terms = []
    for coeff, string in op.terms():
        if not np.any((string.codes == 1) | (string.codes == 2)):
            diag_terms.append((coeff, string))
        elif string.weight == 1 and string.codes[np.nonzero(string.codes)[0][0]] == 1:
            x_terms.append((coeff, string))
        else:
            raise ValueError(
                f"term {string.label} is neither diagonal nor a single-site X; "
                "provide explicit annealing Hamiltonian parts"
            )
    return PauliSum(op.n_qubits, diag_terms), PauliSum(op.n_qubits, x_terms)


def build_model(config: dict) -> PauliSum:
    """Build a Hamiltonian/objective from a config mapping.

    Recognized kinds: ``ising`` (n, g, h, periodic), ``heisenberg`` (n, h,
    periodic), ``random_pauli`` (n, terms, seed), ``file`` (path to the
    one-term-per-line text format).
    """
    if "kind" not in config:
        raise ValueError("model config needs a 'kind' field")
    kind = config["kind"]
    params = {k: v for k, v in config.items() if k != "kind"}
    if kind == "ising":
        return ising_hamiltonian(
            int(params.pop("n")),
            g=float(params.pop("g", 1.0)),
            h=float(params.pop("h", 1.0)),
            periodic=bool(params.pop("periodic", True)),
        )
    if kind == "heisenberg":
        return heisenberg_hamiltonian(
            int(params.pop("n")),
            h=float(params.pop("h", 1.0)),
            periodic=bool(params.pop("periodic", True)),
        )
    if kind == "random_pauli":
        return random_pauli_operator(
            int(params.pop("n")), int(params.pop("terms")), int(params.pop("seed", 0))
        )
    if kind == "file":
        path = params.pop("path")
        with open(path) as fh:
            return PauliSum.from_text(fh.read())
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        normalized = []
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
                raise ValueError(f"edge ({i}, {j}) out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse 'n_vertices' on the first line then one 'i j' edge per line."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty graph file")
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line {ln!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return cls(n, tuple(edges))

    def to_text(self) -> str:
        lines = [str(self.n_vertices)]
        lines += [f"{i} {j}" for i, j in self.edges]
        return "\n".join(lines) + "\n"


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def circulant_graph(n: int, offsets: tuple[int, ...]) -> Graph:
    edges = []
    for i in range(n):
        for d in offsets:
            edges.append((i, (i + d) % n))
    return Graph(n, tuple(edges))


def chsh_graph() -> Graph:
    """Eight-vertex exclusivity graph of the CHSH scenario (circulant (1, 4))."""
    return circulant_graph(8, (1, 4))


# ---------------------------------------------------------------------------
# XOR games


@dataclass(frozen=True)
class XorGame:
    """Two-player XOR game: question distribution pi and predicate table f.

    ``pi`` has shape (n_x, n_y) with nonnegative entries summing to one;
    ``f[x, y]`` in {0, 1} says whether the answers must differ.
    """

    pi: tuple[tuple[float, ...], ...]
    f: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        f = np.asarray(self.f, dtype=int)
        if pi.ndim != 2 or pi.shape != f.shape:
            raise ValueError("pi and f must be 2-d tables of the same shape")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must be a probability distribution")
        if not np.all((f == 0) | (f == 1)):
            raise ValueError("f entries must be 0 or 1")
        object.__setattr__(self, "pi", tuple(tuple(row) for row in pi))
        object.__setattr__(self, "f", tuple(tuple(int(v) for v in row) for row in f))

    @property
    def n_x(self) -> int:
        return len(self.pi)

    @property
    def n_y(self) -> int:
        return len(self.pi[0])

    def d_matrix(self) -> np.ndarray:
        """D(x, y) = pi(x, y) * (-1)^f(x, y)."""
        pi = np.asarray(self.pi)
        f = np.asarray(self.f)
        return pi * np.where(f == 0, 1.0, -1.0)

    def h_matrix(self) -> np.ndarray:
        """Symmetric bias matrix 0.5 * [[0, D], [D^T, 0]] of size n_x + n_y."""
        d = self.d_matrix()
        h = np.zeros((self.n_x + self.n_y, self.n_x + self.n_y))
        h[: self.n_x, self.n_x :] = d
        h[self.n_x :, : self.n_x] = d.T
        return 0.5 * h

    @classmethod
    def chsh(cls) -> "XorGame":
        """Uniform questions, win iff a xor b = x and y."""
        return cls(
            pi=((0.25, 0.25), (0.25, 0.25)),
            f=((0, 0), (0, 1)),
        )

    @classmethod
    def from_config(cls, config: dict) -> "XorGame":
        if config.get("name") == "chsh":
            return cls.chsh()
        return cls(
            pi=tuple(tuple(row) for row in config["pi"]),
            f=tuple(tuple(row) for row in config["f"]),
        )


# ---------------------------------------------------------------------------
# state discrimination


@dataclass(frozen=True)
class DiscriminationInstance:
    """States to discriminate, given as ansatz coefficient matrices.

    Each beta is PSD with Tr(gram @ beta) = 1, so it represents a valid
    density matrix in the shared ansatz space described by ``gram``.
    ``error_budget`` is the per-state misclassification budget the instance
    is posed with; a discriminator fits it only at that same budget.
    """

    gram: np.ndarray
    betas: tuple[np.ndarray, ...]
    error_budget: float = 0.0

    def __post_init__(self):
        gram = check_square_matrix(np.asarray(self.gram), "gram")
        if len(self.betas) < 2:
            raise ValueError("need at least two states to discriminate")
        if self.error_budget < 0:
            raise ValueError("error budget must be nonnegative")
        for k, beta in enumerate(self.betas):
            beta = check_psd(beta, f"betas[{k}]", tol=1e-8)
            if beta.shape != gram.shape:
                raise ValueError(f"betas[{k}] shape does not match the Gram matrix")
            trace = float(np.trace(beta @ gram).real)
            if abs(trace - 1.0) > 1e-6:
                raise ValueError(f"betas[{k}] has Tr(E beta) = {trace}, expected 1")

    @property
    def n_states(self) -> int:
        return len(self.betas)
