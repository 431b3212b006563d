"""Dense multi-block Hermitian SDP solver with trace constraints.

The solver targets the small reduced problems this package produces
(block dimensions up to a few hundred): a primal-dual path-following
interior-point method with HKM directions and Mehrotra predictor-corrector
steps.  Each block keeps its own dtype: complex Hermitian when any of its
data has a nonzero imaginary part, real symmetric otherwise, with inner
products Re Tr(A^H X).  All inequality constraints share one diagonal
slack block.

Besides scalar trace constraints, a problem may carry one matrix equality
sum_b V_b X_b V_b^H = R (``MatrixConstraint``), imposed on selected entries
of the Hermitian basis.  Its rows never exist as dense matrices: the Schur
block of the family is a fixed change of basis of sum_b P_b (x) Q_b^T with
P_b = V_b X_b V_b^H and Q_b = V_b Z_b^-1 V_b^H (the structure exploitation of
Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997), assembled from
row-then-column gathers of P_b and Q_b, and its cross terms with the scalar
rows cost one congruence per row.  The interior-point method calls LAPACK's
potrf, potrs and trtrs directly (``scipy.linalg.lapack``) with the arguments
that scipy.linalg's cho_factor, cho_solve and solve_triangular pass, so its
iterates are theirs bit for bit without their per-call checks; scipy.linalg
is loaded by its first step, so the eigen path never loads it.

The returned status is certified: residuals are recomputed from the
original data after the iteration, and ``OPTIMAL`` is reported only when
primal feasibility, dual feasibility and the duality gap all meet their
tolerances.  ``INFEASIBLE`` is a *signal*, not a crash: when the main
iteration stalls on primal feasibility, an auxiliary phase solves

    min t   s.t.  <A_i, X> + t * q_i = b_i,  X >= 0,  t >= 0

(strictly feasible at X = I, t = 1) and declares the problem infeasible
when the optimal t stays above threshold.

A program whose only constraint is Tr(X) = 1 is solved by an extreme
eigenpair; ``eigen_solution`` certifies one with the same residuals.  Also
provided: the generalized-eigenvalue shortcut for the single-normalization
dual, and the Gram-basis regularizer that projects onto the numerically
independent part of an overlap Gram matrix.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .validation import check_positive_int

HERMITIAN_TOL = 1e-10
BLOCK = "state"  # the one block of a normalized program


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SdpConstraint:
    """One scalar constraint: sum_b <matrices[b], X_b>  (= | <=)  rhs."""

    matrices: dict[str, np.ndarray]
    rhs: float
    relation: str = "="

    def __post_init__(self):
        if self.relation not in ("=", "<="):
            raise ValueError("relation must be '=' or '<='")
        self.rhs = float(self.rhs)


@dataclass
class MatrixConstraint:
    """One matrix equality: sum_b maps[b] X_b maps[b]^H = rhs on selected entries.

    ``maps[b]`` is an (r, d_b) matrix and ``rhs`` an (r, r) Hermitian one.
    ``entries`` lists index pairs (i, j) with i <= j; pair (i, j) imposes the
    real part of entry (i, j) and, when a block it touches is complex and
    i < j, its imaginary part too.  ``None`` selects every entry.
    """

    maps: dict[str, np.ndarray]
    rhs: np.ndarray
    entries: np.ndarray | None = None

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs)
        r = self.rhs.shape[0]
        if self.rhs.shape != (r, r) or not _is_hermitian(self.rhs):
            raise ValueError("matrix constraint: rhs must be a square Hermitian matrix")
        if not self.maps:
            raise ValueError("matrix constraint: at least one block map is required")
        for name, v in self.maps.items():
            if np.ndim(v) != 2 or np.shape(v)[0] != r:
                raise ValueError(f"matrix constraint: block {name!r} map must have {r} rows")
        if self.entries is None:
            self.entries = np.stack(np.triu_indices(r), axis=1)
        self.entries = np.asarray(self.entries, dtype=int).reshape(-1, 2)
        i, j = self.entries.T
        if np.any(i < 0) or np.any(i > j) or np.any(j >= r):
            raise ValueError(f"matrix constraint: entries must satisfy 0 <= i <= j < {r}")
        if len(np.unique(i * r + j)) != len(i):
            raise ValueError("matrix constraint: duplicate entries")


def _is_hermitian(mat: np.ndarray) -> bool:
    scale = max(1.0, np.max(np.abs(mat), initial=0.0))
    return np.max(np.abs(mat - mat.conj().T), initial=0.0) <= HERMITIAN_TOL * scale


@dataclass
class SdpProblem:
    """Multi-block SDP: optimize sum_b <objective[b], X_b> over PSD blocks.

    The constraints are the scalar ``constraints`` plus, optionally, one
    ``matrix_constraint``; at least one of them must be given.
    """

    blocks: list[tuple[str, int]]
    sense: str
    objective: dict[str, np.ndarray]
    constraints: list[SdpConstraint]
    matrix_constraint: MatrixConstraint | None = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block is required")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not self.constraints and self.matrix_constraint is None:
            raise ValueError("at least one constraint is required")
        names = [name for name, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        dims = dict(self.blocks)
        for label, mats in [("objective", self.objective)] + [
            (f"constraint {i}", c.matrices) for i, c in enumerate(self.constraints)
        ]:
            for name, mat in mats.items():
                if name not in dims:
                    raise ValueError(f"{label} references unknown block {name!r}")
                mat = np.asarray(mat)
                if mat.shape != (dims[name], dims[name]):
                    raise ValueError(f"{label}: block {name!r} matrix has wrong shape")
                if not _is_hermitian(mat):
                    raise ValueError(f"{label}: block {name!r} matrix is not Hermitian")
        if self.matrix_constraint is not None:
            for name, v in self.matrix_constraint.maps.items():
                if name not in dims:
                    raise ValueError(f"matrix constraint references unknown block {name!r}")
                if np.shape(v)[1] != dims[name]:
                    raise ValueError(f"matrix constraint: block {name!r} map has wrong shape")


@dataclass
class SdpSolution:
    """Solver output.  Residuals are normalized by 1 + data norms.

    ``y`` holds the multipliers of the scalar constraints, in their order;
    ``y_matrix`` is the matrix constraint's multiplier as a Hermitian matrix
    Y, entering the dual slack of block b as -V_b^H Y V_b.
    """

    status: SolveStatus
    blocks: dict[str, np.ndarray] = field(default_factory=dict)
    objective_value: float = math.nan
    y: np.ndarray | None = None
    y_matrix: np.ndarray | None = None
    primal_residual: float = math.nan
    dual_residual: float = math.nan
    gap: float = math.nan
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr(a^H b)."""
    return float(np.vdot(a, b).real)


_XAZ = "pq,iqr,rs->ips"  # X_b A_ib Z_b^-1 for every row i of a block


class _DenseRows:
    """The generic row family: row i is one Hermitian matrix A_ib per block.

    ``arrays[b]`` has shape (m, d_b, d_b) in block b's dtype, zero where a
    row leaves the block out; with m = 0 it still records the block shapes,
    and the family's maps do no contraction at all.
    """

    def __init__(self, arrays):
        self.arrays = arrays
        self.m = arrays[0].shape[0]
        self.paths = None  # einsum's contraction order per block, planned by the first ``schur``

    def apply(self, xs) -> np.ndarray:
        """(A(X))_i = sum_b Re Tr(A_ib X_b)."""
        if not self.m:
            return np.zeros(0)
        return sum(np.einsum("ipq,qp->i", ab, xb).real for ab, xb in zip(self.arrays, xs))

    def adjoint(self, y) -> list[np.ndarray]:
        if not self.m:
            return [np.zeros(ab.shape[1:], ab.dtype) for ab in self.arrays]
        return [np.tensordot(y, ab, axes=(0, 0)) for ab in self.arrays]

    def schur(self, xs, z_invs):
        """M_ij = Re sum_b Tr(A_ib X_b A_jb Z_b^-1), and the X_b A_ib Z_b^-1 it used.

        einsum's ``optimize=True`` order for X_b A_ib Z_b^-1 depends only on
        the shapes, which are the family's own, so it is planned once and
        then replayed with the same contractions.
        """
        if not self.m:
            return np.zeros((0, 0)), [np.zeros(ab.shape, ab.dtype) for ab in self.arrays]
        if self.paths is None:
            self.paths = [np.einsum_path(_XAZ, xb, ab, zib, optimize=True)[0]
                          for ab, xb, zib in zip(self.arrays, xs, z_invs)]
        schur = np.zeros((self.m, self.m))
        ts = []
        for ab, xb, zib, path in zip(self.arrays, xs, z_invs, self.paths):
            t = np.einsum(_XAZ, xb, ab, zib, optimize=path)
            d2 = ab.shape[1] ** 2
            schur += (ab.reshape(self.m, d2).conj() @ t.reshape(self.m, d2).T).real
            ts.append(t)
        return schur, ts

    def row_norms(self) -> np.ndarray:
        return np.sqrt(sum(np.linalg.norm(ab.reshape(self.m, ab.shape[1] ** 2), axis=1) ** 2
                           for ab in self.arrays))

    def select(self, keep, scale) -> "_DenseRows":
        """Rows ``keep``, each divided by its entry of ``scale``."""
        return _DenseRows([ab[keep] / scale[:, None, None] for ab in self.arrays])


class _MatrixRows:
    """The rows of a ``MatrixConstraint``: coordinates of H = sum_b V_b X_b V_b^H.

    Selected entry k = (a_k, b_k) owns a real-part row, the functional of
    E = e_ab + e_ba (e_aa on the diagonal), and, for complex data and a < b,
    an imaginary-part row, the functional of E = i e_ab - i e_ba.  Row j
    reads part ``psi[j] // n`` of entry ``psi[j] % n`` (n entries), times
    ``rho[j]``: the row scale, halved on the diagonal so that both halves of
    E add up to e_aa.  ``psi`` is ascending, so real-part rows come first;
    ``select`` keeps that order.  ``maps[b]`` is V_b, or None for a block the
    equality leaves out.  No (m, d, d) array is ever formed.
    """

    def __init__(self, maps, a, b, psi, rho):
        self.maps, self.a, self.b, self.psi, self.rho = maps, a, b, psi, rho
        self.m, self.n = psi.size, a.size
        self.r = next(v.shape[0] for v in maps if v is not None)
        self.complex = any(v is not None and np.iscomplexobj(v) for v in maps)

    def coords(self, h) -> np.ndarray:
        """Row functionals Re Tr(E_j h) of (stacks of) r x r matrices h."""
        h_ab, h_ba = h[..., self.a, self.b], h[..., self.b, self.a]
        parts = np.concatenate([(h_ab + h_ba).real, (h_ab - h_ba).imag], axis=-1)
        return parts[..., self.psi] * self.rho

    def apply(self, xs) -> np.ndarray:
        """Coordinates of sum_b V_b X_b V_b^H, also for stacks of matrices per block."""
        return self.coords(sum(v @ x @ v.conj().T for v, x in zip(self.maps, xs) if v is not None))

    def dual_matrix(self, y) -> np.ndarray:
        """Y = sum_j y_j E_j as a Hermitian matrix."""
        parts = np.zeros(2 * self.n)
        parts[self.psi] = self.rho * y
        upper = parts[: self.n] + 1j * parts[self.n:] if self.complex else parts[: self.n]
        mat = np.zeros((self.r, self.r), dtype=upper.dtype)
        mat[self.a, self.b] = upper
        return mat + mat.conj().T

    def adjoint(self, y) -> list:
        mat = self.dual_matrix(y)
        return [None if v is None else v.conj().T @ mat @ v for v in self.maps]

    def schur(self, xs, z_invs) -> np.ndarray:
        """M_jl = Re Tr(E_j P E_l Q) summed over blocks, P = V X V^H, Q = V Z^-1 V^H.

        With E = c e_ab + conj(c) e_ba and Tr(e_ab P e_cd Q) = P[b,c] Q[d,a],
        each entry pair (j, l) needs three products of gathered entries,
        s0 = P[b_j,a_l] Q^T[a_j,b_l], s1 = P[b_j,b_l] Q^T[a_j,a_l] and
        s2 = P[a_j,a_l] Q^T[b_j,b_l], each summed over blocks in block order;
        s0 also appears conjugate-transposed, since P and Q are Hermitian.
        Real-part rows read Re(s0 + s0^H + s1 + s2), imaginary-part rows
        Re(s1 + s2 - s0 - s0^H), and the cross block is
        Im(s1 - s2 - s0 + s0^H); the rows in ``psi`` order are then scaled
        by ``rho``.  The r^4 matrix sum_b P_b (x) Q_b^T is never formed: as
        one complex GEMM it is faster on its own but slower inside the
        iteration at two BLAS threads.
        """
        a, b = self.a, self.b
        s0 = s1 = s2 = 0.0
        for v, x, zi in zip(self.maps, xs, z_invs):
            if v is None:
                continue
            p = v @ x @ v.conj().T
            qt = (v @ zi @ v.conj().T).T
            s0 = s0 + p.take(b, 0).take(a, 1) * qt.take(a, 0).take(b, 1)
            s1 = s1 + p.take(b, 0).take(b, 1) * qt.take(a, 0).take(a, 1)
            s2 = s2 + p.take(a, 0).take(a, 1) * qt.take(b, 0).take(b, 1)
        s0h = np.conj(s0).T
        full = (s0 + s0h + s1 + s2).real
        if self.complex:
            real_imag = (s1 - s2 - s0 + s0h).imag
            full = np.block([[full, real_imag], [real_imag.T, (s1 + s2 - s0 - s0h).real]])
        return self.rho[:, None] * full.take(self.psi, 0).take(self.psi, 1) * self.rho

    def row_norms(self) -> np.ndarray:
        """sqrt(sum_b ||V_b^H E_j V_b||^2), with ||V^H E V||^2 = Tr(E G E G), G = V V^H.

        For E = c e_ab + conj(c) e_ba that is 2 Re(c^2 G_ba^2) + 2 |c|^2 G_aa G_bb,
        with c^2 = rho^2 on real-part rows and -rho^2 on imaginary-part rows.
        """
        squares = 0.0
        for v in self.maps:
            if v is not None:
                g = v @ v.conj().T
                both = (g[self.a, self.a] * g[self.b, self.b]).real
                cross = (g[self.b, self.a] ** 2).real
                squares = squares + np.concatenate([both + cross, both - cross])
        return np.sqrt(2.0 * squares[self.psi]) * self.rho

    def select(self, keep, scale) -> "_MatrixRows":
        return _MatrixRows(self.maps, self.a, self.b, self.psi[keep], self.rho[keep] / scale)


class _Rows:
    """The equality-form constraint map: scalar rows, then the matrix rows.

    ``column``, used only by the feasibility phase, is one more 1x1 block
    (after the families' blocks) whose coefficient in row i is column[i].
    """

    def __init__(self, dense: _DenseRows, matrix: _MatrixRows | None = None, column=None):
        self.dense, self.matrix, self.column = dense, matrix, column
        self.m = dense.m + (matrix.m if matrix is not None else 0)

    def split(self, y):
        return y[: self.dense.m], y[self.dense.m:]

    def apply(self, xs) -> np.ndarray:
        out = self.dense.apply(xs)
        if self.matrix is not None:
            out = np.concatenate([out, self.matrix.apply(xs)])
        if self.column is not None:
            out = out + self.column * xs[-1][0, 0]
        return out

    def adjoint(self, y) -> list[np.ndarray]:
        y_dense, y_matrix = self.split(y)
        out = self.dense.adjoint(y_dense)
        if self.matrix is not None:
            out = [o if t is None else o + t
                   for o, t in zip(out, self.matrix.adjoint(y_matrix))]
        if self.column is not None:
            out.append(np.array([[self.column @ y]]))
        return out

    def schur(self, xs, z_invs) -> np.ndarray:
        if self.matrix is not None and self.dense.m == 0:
            schur = self.matrix.schur(xs, z_invs)
        else:
            schur, ts = self.dense.schur(xs, z_invs)
            if self.matrix is not None:
                # M_ij = Re Tr(A_j X A_i Z^-1): matrix row j read on t_i = X A_i Z^-1
                cross = self.matrix.apply(ts)
                schur = np.block([[schur, cross], [cross.T, self.matrix.schur(xs, z_invs)]])
        if self.column is not None:
            schur += (xs[-1][0, 0] * z_invs[-1][0, 0]) * np.outer(self.column, self.column)
        return schur

    def row_norms(self) -> np.ndarray:
        norms = self.dense.row_norms()
        if self.matrix is not None:
            norms = np.concatenate([norms, self.matrix.row_norms()])
        return norms

    def select(self, keep, scale=None) -> "_Rows":
        """Rows ``keep`` (a mask), divided by ``scale`` (one entry per kept row)."""
        if scale is None:
            scale = np.ones(int(np.count_nonzero(keep)))
        keep_dense, keep_matrix = self.split(keep)
        n_dense = int(np.count_nonzero(keep_dense))
        dense = self.dense.select(keep_dense, scale[:n_dense])
        matrix = None
        if self.matrix is not None:
            matrix = self.matrix.select(keep_matrix, scale[n_dense:])
        return _Rows(dense, matrix)


@functools.cache
def _lapack(name: str, dtype: np.dtype):
    """LAPACK routine ``name`` for data of ``dtype``, as scipy.linalg picks it.

    The interior-point method calls potrf, potrs and trtrs directly, with the
    arguments scipy.linalg's wrappers pass, so each step costs the LAPACK
    call and not the wrapper's checks and batching.
    """
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs((name,), dtype=dtype)[0]


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of ``a``, a's entries below: ``scipy.linalg.cho_factor(a)[0]``."""
    factor, info = _lapack("potrf", a.dtype)(a, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return factor


def _cho_solve(factor: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """A^-1 b from the Cholesky factor of A: ``scipy.linalg.cho_solve((factor, lower), b)``."""
    x, info = _lapack("potrs", np.result_type(factor, b))(factor, b, lower=lower)
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b: ``scipy.linalg.solve_triangular(chol, b, lower=True)``.

    A non-finite ``b`` raises ValueError, as its finiteness check does.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    trtrs = _lapack("trtrs", np.result_type(chol, b))
    if chol.flags.f_contiguous:
        x, info = trtrs(chol, b, lower=1)
    else:  # LAPACK reads a C-ordered L as its transpose, an upper factor
        x, info = trtrs(chol.T, b, lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"trtrs failed at diagonal {info - 1}")
    return x


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD (x Hermitian PD)."""
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return 0.0
    a = _solve_lower(chol, dx)
    w = _solve_lower(chol, a.conj().T)  # L^-1 dx L^-H
    lam_min = float(np.linalg.eigvalsh(_hermitize(w)).min())
    if lam_min >= 0.0:
        return math.inf
    return -1.0 / lam_min


class _IpmCore:
    """HKM predictor-corrector iteration on Hermitian blocks, each in its own dtype."""

    def __init__(self, c_blocks, rows, b, tol_feas, tol_gap, max_iter, converged=None):
        self.c = c_blocks  # list of (d, d), each in its block's dtype
        self.rows = rows  # _Rows
        self.b = np.asarray(b, dtype=float)
        self.m = self.b.size
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.max_iter = max_iter
        self.n_total = sum(cb.shape[0] for cb in c_blocks)
        self.norm_b = 1.0 + np.linalg.norm(self.b)
        self.norm_c = 1.0 + math.sqrt(sum(_inner(cb, cb) for cb in c_blocks))
        # optional external convergence test (certification on unscaled data)
        self.converged = converged

    def run(self):
        scale = max(1.0, float(np.max(np.abs(self.b))) if self.m else 1.0)
        z_scale = max(1.0, self.norm_c / max(1.0, math.sqrt(self.n_total)))
        xs = [scale * np.eye(cb.shape[0], dtype=cb.dtype) for cb in self.c]
        zs = [z_scale * np.eye(cb.shape[0], dtype=cb.dtype) for cb in self.c]
        y = np.zeros(self.m)

        best_rel_p = math.inf
        stall_count = 0
        status = SolveStatus.MAX_ITERATIONS
        it = 0
        tau = 0.95

        for it in range(1, self.max_iter + 1):
            iterate_scale = max(
                max(float(np.max(np.abs(xb))) for xb in xs),
                max(float(np.max(np.abs(zb))) for zb in zs),
                float(np.max(np.abs(y))) if self.m else 0.0,
            )
            if not math.isfinite(iterate_scale) or iterate_scale > 1e100:
                status = SolveStatus.NUMERICAL_FAILURE
                break
            rp = self.b - self.rows.apply(xs)
            at_y = self.rows.adjoint(y)
            rds = [cb - aty - zb for cb, aty, zb in zip(self.c, at_y, zs)]
            pobj = sum(_inner(cb, xb) for cb, xb in zip(self.c, xs))
            dobj = float(self.b @ y)
            mu = sum(_inner(xb, zb) for xb, zb in zip(xs, zs)) / self.n_total

            rel_p = np.linalg.norm(rp) / self.norm_b
            rel_d = math.sqrt(sum(_inner(rd, rd) for rd in rds)) / self.norm_c
            rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

            near = rel_p <= self.tol_feas and rel_d <= self.tol_feas and rel_gap <= self.tol_gap
            if near and (self.converged is None or self.converged(xs, y)):
                status = SolveStatus.OPTIMAL
                break

            if rel_p > self.tol_feas and rel_p > 0.9 * best_rel_p:
                stall_count += 1
            else:
                stall_count = 0
            best_rel_p = min(best_rel_p, rel_p)
            if stall_count >= 30:
                status = SolveStatus.MAX_ITERATIONS
                break

            try:
                z_chols = [np.linalg.cholesky(zb) for zb in zs]
            except np.linalg.LinAlgError:
                status = SolveStatus.NUMERICAL_FAILURE
                break
            z_invs = [
                _hermitize(_cho_solve(ch, np.eye(zb.shape[0]), lower=True))
                for zb, ch in zip(zs, z_chols)
            ]

            # Schur complement M_ij = Re sum_b Tr(A_i X A_j Z^-1); symmetric PD
            schur = self.rows.schur(xs, z_invs)
            schur = (schur + schur.T) / 2.0
            if not np.all(np.isfinite(schur)):
                status = SolveStatus.NUMERICAL_FAILURE
                break
            schur_f = None
            for jitter in (0.0, 1e-14, 1e-10, 1e-7):
                try:
                    shift = jitter * (1.0 + float(np.trace(schur)) / self.m)
                    shifted = schur + shift * np.eye(self.m) if jitter else schur
                    schur_f = _cho_factor(shifted)
                    break
                except np.linalg.LinAlgError:
                    continue
            if schur_f is None:
                status = SolveStatus.NUMERICAL_FAILURE
                break

            # schur is finite (checked above); a non-finite rhs fails in _max_step
            def solve_schur(rhs):
                dy = _cho_solve(schur_f, rhs, lower=False)
                # one step of iterative refinement keeps feasibility tight
                dy += _cho_solve(schur_f, rhs - schur @ dy, lower=False)
                return dy

            def directions(r3s):
                corr = [xb @ rdb @ zib for xb, rdb, zib in zip(xs, rds, z_invs)]
                rhs = rp - self.rows.apply(r3s) + self.rows.apply(corr)
                dy = solve_schur(rhs)
                at_dy = self.rows.adjoint(dy)
                dzs = [rdb - atdyb for rdb, atdyb in zip(rds, at_dy)]
                dxs = [
                    _hermitize(r3b - xb @ dzb @ zib)
                    for r3b, xb, dzb, zib in zip(r3s, xs, dzs, z_invs)
                ]
                return dxs, dy, dzs

            try:
                # predictor (affine scaling)
                r3_aff = [-xb for xb in xs]
                dxs_a, _dy_a, dzs_a = directions(r3_aff)
                alpha_p = min(1.0, tau * min(_max_step(xb, dxb) for xb, dxb in zip(xs, dxs_a)))
                alpha_d = min(1.0, tau * min(_max_step(zb, dzb) for zb, dzb in zip(zs, dzs_a)))
                mu_aff = sum(
                    _inner(xb + alpha_p * dxb, zb + alpha_d * dzb)
                    for xb, dxb, zb, dzb in zip(xs, dxs_a, zs, dzs_a)
                ) / self.n_total
                sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

                # corrector with Mehrotra second-order term
                r3_corr = [
                    sigma * mu * zib - xb - dxb @ dzb @ zib
                    for zib, xb, dxb, dzb in zip(z_invs, xs, dxs_a, dzs_a)
                ]
                dxs, dy, dzs = directions(r3_corr)
                alpha_p = min(1.0, tau * min(_max_step(xb, dxb) for xb, dxb in zip(xs, dxs)))
                alpha_d = min(1.0, tau * min(_max_step(zb, dzb) for zb, dzb in zip(zs, dzs)))
            except (np.linalg.LinAlgError, ValueError):
                # overflow inside the Newton system: keep the last finite
                # iterate and let the caller run the feasibility diagnosis
                status = SolveStatus.NUMERICAL_FAILURE
                break
            if alpha_p < 1e-8 and alpha_d < 1e-8:
                break

            xs = [_hermitize(xb + alpha_p * dxb) for xb, dxb in zip(xs, dxs)]
            zs = [_hermitize(zb + alpha_d * dzb) for zb, dzb in zip(zs, dzs)]
            y = y + alpha_d * dy
            tau = 0.95 + 0.049 * min(alpha_p, alpha_d)

            if not all(np.all(np.isfinite(xb)) for xb in xs) or not np.all(np.isfinite(y)):
                status = SolveStatus.NUMERICAL_FAILURE
                break

        return status, xs, y, it


def _build_data(problem: SdpProblem):
    """Normalize to min-sense equality form: objective blocks, ``_Rows``, rhs.

    A block is complex Hermitian when any of its data has a nonzero imaginary
    part, and real symmetric otherwise; the matrix constraint's blocks are all
    complex or all real, as its imaginary-part rows reach each of them.  When
    there are ``<=`` rows, a real diagonal slack block follows the problem's
    blocks; the k-th ``<=`` row holds its entry E_kk.  The matrix constraint's
    rows follow the scalar rows.
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    mc = problem.matrix_constraint
    rows = [c.matrices for c in problem.constraints]
    complex_names = {
        name
        for mats in [problem.objective, *rows, mc.maps if mc is not None else {}]
        for name, mat in mats.items()
        if np.iscomplexobj(mat) and np.any(np.imag(mat))
    }
    if mc is not None and (np.any(np.imag(mc.rhs)) or complex_names & set(mc.maps)):
        complex_names |= set(mc.maps)  # imaginary-part rows reach every block
    ineq = [i for i, c in enumerate(problem.constraints) if c.relation == "<="]
    dims = [d for _name, d in problem.blocks]
    dtypes = [complex if name in complex_names else float for name, _d in problem.blocks]
    if ineq:
        dims.append(len(ineq))
        dtypes.append(float)
    index = {name: k for k, (name, _d) in enumerate(problem.blocks)}

    def cast(name, mat):
        mat, dtype = np.asarray(mat), dtypes[index[name]]
        return _hermitize((mat if dtype is complex else mat.real).astype(dtype))

    c_blocks = [np.zeros((d, d), dtype) for d, dtype in zip(dims, dtypes)]
    for name, mat in problem.objective.items():
        c_blocks[index[name]] = sign * cast(name, mat)
    a_blocks = [np.zeros((len(rows), d, d), dtype) for d, dtype in zip(dims, dtypes)]
    for i, mats in enumerate(rows):
        for name, mat in mats.items():
            a_blocks[index[name]][i] = cast(name, mat)
    for k, i in enumerate(ineq):
        a_blocks[-1][i, k, k] = 1.0
    b = np.array([c.rhs for c in problem.constraints])
    if mc is None:
        return c_blocks, _Rows(_DenseRows(a_blocks)), b, sign

    maps = [None] * len(dims)
    for name, v in mc.maps.items():
        k = index[name]
        maps[k] = (np.asarray(v) if dtypes[k] is complex else np.real(v)).astype(dtypes[k])
    first, second = mc.entries.T
    n = first.size
    psi = np.arange(n)
    if complex_names & set(mc.maps):
        psi = np.concatenate([psi, n + np.flatnonzero(first < second)])
    rho = np.concatenate([np.where(first == second, 0.5, 1.0), np.ones(n)])[psi]
    matrix = _MatrixRows(maps, first, second, psi, rho)
    b = np.concatenate([b, matrix.coords(mc.rhs)])
    return c_blocks, _Rows(_DenseRows(a_blocks), matrix), b, sign


def _certify(c_blocks, rows, b, xs, y):
    """Residuals of a candidate solution against the (unscaled) equality-form data.

    The dual check covers the slack block, whose slack matrix is diag(-y) on
    the ``<=`` rows, so a positive inequality multiplier is a dual violation.
    """
    norm_b = 1.0 + float(np.max(np.abs(b), initial=0.0))
    rel_p = float(np.max(np.abs(rows.apply(xs) - b), initial=0.0)) / norm_b

    norm_c = 1.0 + math.sqrt(sum(_inner(cb, cb) for cb in c_blocks))
    dual_viol = max(
        max(0.0, -float(np.linalg.eigvalsh(_hermitize(cb - aty)).min()))
        for cb, aty in zip(c_blocks, rows.adjoint(y))
    )
    rel_d = dual_viol / norm_c

    pobj = sum(_inner(cb, xb) for cb, xb in zip(c_blocks, xs))
    dobj = float(b @ y)
    rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return rel_p, rel_d, rel_gap, float(pobj)


def solve(
    problem: SdpProblem,
    tol_feas: float = 1e-8,
    tol_gap: float = 1e-8,
    max_iter: int = 200,
) -> SdpSolution:
    """Solve the SDP; returns a certified status rather than raising on infeasibility.

    Raises ValueError unless ``max_iter`` is a positive integer and both
    tolerances are positive and finite: no other setting can certify anything.
    """
    check_positive_int(max_iter, "max_iter")
    for name, tol in (("tol_feas", tol_feas), ("tol_gap", tol_gap)):
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be a positive finite number, got {tol!r}")
    c_blocks, all_rows, b, sign = _build_data(problem)

    # presolve: a row below 1e-12 of the largest row norm is zero up to rounding, so it
    # is either vacuous or a contradiction (a ``<=`` row holds its slack entry)
    m_all = b.size
    row_norms = all_rows.row_norms()
    keep = row_norms > 1e-12 * row_norms.max(initial=0.0)
    if np.any(np.abs(b[~keep]) > tol_feas * (1.0 + np.abs(b[~keep]))):
        return SdpSolution(status=SolveStatus.INFEASIBLE, primal_residual=math.inf)
    if not np.any(keep):
        raise ValueError("all constraints are vacuous; the problem is unbounded or trivial")
    rows = all_rows.select(keep)
    b = b[keep]

    # row scaling: unit Frobenius norm per constraint, plus objective scaling
    con_scale = np.maximum(row_norms[keep], 1e-12)
    obj_scale = max(math.sqrt(sum(_inner(cb, cb) for cb in c_blocks)), 1.0)
    rows_scaled = all_rows.select(keep, con_scale)
    b_scaled = b / con_scale
    c_scaled = [cb / obj_scale for cb in c_blocks]

    def _certified(xs, y_scaled):
        rel_p, rel_d, rel_gap, _ = _certify(
            c_blocks, rows, b, xs, y_scaled * obj_scale / con_scale
        )
        return rel_p <= tol_feas and rel_d <= tol_feas and rel_gap <= tol_gap

    core = _IpmCore(c_scaled, rows_scaled, b_scaled, tol_feas, tol_gap, max_iter,
                    converged=_certified)
    status, xs, y_scaled, iters = core.run()
    y = y_scaled * obj_scale / con_scale

    finite = all(np.all(np.isfinite(xb)) for xb in xs) and bool(np.all(np.isfinite(y)))
    if finite:
        rel_p, rel_d, rel_gap, pobj = _certify(c_blocks, rows, b, xs, y)
    else:
        rel_p = rel_d = rel_gap = math.inf
        pobj = math.nan
    if rel_p <= tol_feas and rel_d <= tol_feas and rel_gap <= tol_gap:
        status = SolveStatus.OPTIMAL
    elif status is SolveStatus.OPTIMAL:
        status = SolveStatus.MAX_ITERATIONS

    if status in (SolveStatus.MAX_ITERATIONS, SolveStatus.NUMERICAL_FAILURE) and rel_p > tol_feas:
        feas_t = _feasibility_gap(rows_scaled, b_scaled, tol_feas, tol_gap, max_iter)
        if feas_t is not None and feas_t > max(1e3 * tol_feas, 1e-6) * (
            1.0 + float(np.max(np.abs(b_scaled)))
        ):
            return SdpSolution(
                status=SolveStatus.INFEASIBLE,
                primal_residual=rel_p,
                dual_residual=rel_d,
                gap=rel_gap,
                iterations=iters,
            )

    y_full = np.zeros(m_all)
    y_full[keep] = y
    y_scalar, y_matrix = all_rows.split(sign * y_full)
    return SdpSolution(
        status=status,
        blocks={name: xs[k] for k, (name, _d) in enumerate(problem.blocks)},
        objective_value=sign * pobj,
        y=y_scalar,
        y_matrix=None if all_rows.matrix is None else all_rows.matrix.dual_matrix(y_matrix),
        primal_residual=rel_p,
        dual_residual=rel_d,
        gap=rel_gap,
        iterations=iters,
    )


def normalized_program(
    d_tilde: np.ndarray, sense: str, extra: list[SdpConstraint] = ()
) -> SdpProblem:
    """min/max Tr(D X) with Tr(X) = 1 and ``extra`` constraints on one block."""
    r = d_tilde.shape[0]
    constraints = [SdpConstraint({BLOCK: np.eye(r, dtype=d_tilde.dtype)}, 1.0), *extra]
    return SdpProblem(
        blocks=[(BLOCK, r)], sense=sense, objective={BLOCK: d_tilde}, constraints=constraints
    )


def eigen_solution(
    d_tilde: np.ndarray,
    sense: str,
    vec: np.ndarray,
    value: float,
    tol_feas: float = 1e-8,
    tol_gap: float = 1e-8,
) -> SdpSolution:
    """Certify an eigenpair as the optimum of ``normalized_program(d_tilde, sense)``.

    Primal X = vec vec^H, dual y = value, slack +-(D - value I): exact for
    the extreme eigenpair.  Residuals come from ``_certify`` on the data
    ``solve`` uses; the status is ``OPTIMAL`` only when all three meet the
    tolerances, else ``NUMERICAL_FAILURE``.
    """
    c_blocks, rows, b, sign = _build_data(normalized_program(d_tilde, sense))
    x = np.outer(vec, np.conj(vec))
    if not np.iscomplexobj(c_blocks[0]):
        x = x.real
    y = np.array([float(value)])
    rel_p, rel_d, rel_gap, _pobj = _certify(c_blocks, rows, b, [x], sign * y)
    optimal = rel_p <= tol_feas and rel_d <= tol_feas and rel_gap <= tol_gap
    return SdpSolution(
        status=SolveStatus.OPTIMAL if optimal else SolveStatus.NUMERICAL_FAILURE,
        blocks={BLOCK: x},
        objective_value=float(value),
        y=y,
        primal_residual=rel_p,
        dual_residual=rel_d,
        gap=rel_gap,
    )


def _feasibility_gap(rows, b, tol_feas, tol_gap, max_iter):
    """Optimal value of the auxiliary min-t feasibility problem, or None."""
    eyes = [np.eye(ab.shape[1], dtype=ab.dtype) for ab in rows.dense.arrays]
    aux = _Rows(rows.dense, rows.matrix, column=b - rows.apply(eyes))
    c_blocks = [np.zeros_like(e) for e in eyes] + [np.ones((1, 1))]
    core = _IpmCore(c_blocks, aux, b, tol_feas, tol_gap, max_iter)
    status, xs, _y, _it = core.run()
    if status is SolveStatus.NUMERICAL_FAILURE:
        return None
    if np.linalg.norm(b - aux.apply(xs)) / core.norm_b > math.sqrt(tol_feas):
        return None
    return float(xs[-1][0, 0])


# ---------------------------------------------------------------------------
# generalized eigenvalue shortcut and Gram regularization


def generalized_min_eig(
    d: np.ndarray, e: np.ndarray, rank_tol: float | None = None
) -> tuple[float, np.ndarray]:
    """Smallest lambda with (d - lambda e) PSD on range(e), plus its vector.

    Solves the pencil restricted to the span of e's eigenvectors above
    ``rank_tol`` (default 1e-8 * lambda_max).  The returned vector alpha is
    normalized to alpha^H e alpha = 1; this is the exact rank-one solver for
    the single-normalization quadratic program.
    """
    basis = gram_basis(e, rank_tol)
    d_tilde = basis.operator(d)
    evals, evecs = np.linalg.eigh(d_tilde)
    alpha = basis.vectors @ evecs[:, 0]
    return float(evals[0]), alpha


@dataclass
class GramBasis:
    """Whitened basis of the numerically independent part of a Gram matrix.

    ``vectors`` has shape (M, r) with vectors^H E vectors = I, so projected
    operators live in an orthonormal effective basis and the projected Gram
    is the identity.
    """

    vectors: np.ndarray      # V diag(w^-1/2), maps whitened coords -> original
    eigenvalues: np.ndarray  # kept Gram eigenvalues, descending
    raw_vectors: np.ndarray  # orthonormal eigenvectors V of the Gram matrix

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    def operator(self, a: np.ndarray) -> np.ndarray:
        """Project an overlap matrix: S^H A S."""
        return _hermitize(self.vectors.conj().T @ a @ self.vectors)

    def state(self, beta: np.ndarray) -> np.ndarray:
        """Project a coefficient matrix: T^H beta T with T = V diag(w^1/2)."""
        t = self.raw_vectors * np.sqrt(self.eigenvalues)[None, :]
        return _hermitize(t.conj().T @ beta @ t)

    def lift_state(self, beta_tilde: np.ndarray) -> np.ndarray:
        """Map a whitened solution back to original ansatz coordinates."""
        return _hermitize(self.vectors @ beta_tilde @ self.vectors.conj().T)


def gram_basis(e: np.ndarray, rank_tol: float | None = None) -> GramBasis:
    """Eigen-cut and whiten a (possibly singular) Gram matrix."""
    e = _hermitize(np.asarray(e, dtype=complex))
    evals, evecs = np.linalg.eigh(e)
    lam_max = float(evals[-1])
    if lam_max <= 0.0:
        raise ValueError("Gram matrix is numerically zero")
    if rank_tol is None:
        rank_tol = 1e-8 * lam_max
    keep = evals > rank_tol
    if not np.any(keep):
        raise ValueError("Gram matrix is numerically zero after projection")
    w = evals[keep][::-1]
    v = evecs[:, keep][:, ::-1]
    return GramBasis(vectors=v / np.sqrt(w)[None, :], eigenvalues=w, raw_vectors=v)
