"""Dense multi-block Hermitian SDP solver with trace constraints.

The solver targets the small reduced problems this package produces
(block dimensions up to a few hundred): a primal-dual path-following
interior-point method with HKM directions and Mehrotra predictor-corrector
steps.  Each block keeps its own dtype: complex Hermitian when any of its
data has a nonzero imaginary part, real symmetric otherwise, with inner
products Re Tr(A^H X).  All inequality constraints share one diagonal
slack block, and matrix equalities are compiled by callers into scalar
trace constraints against a Hermitian basis.

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
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
class SdpProblem:
    """Multi-block SDP: optimize sum_b <objective[b], X_b> over PSD blocks."""

    blocks: list[tuple[str, int]]
    sense: str
    objective: dict[str, np.ndarray]
    constraints: list[SdpConstraint]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block is required")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not self.constraints:
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
                if np.max(np.abs(mat - mat.conj().T), initial=0.0) > HERMITIAN_TOL * max(
                    1.0, np.max(np.abs(mat), initial=0.0)
                ):
                    raise ValueError(f"{label}: block {name!r} matrix is not Hermitian")


@dataclass
class SdpSolution:
    """Solver output.  Residuals are normalized by 1 + data norms."""

    status: SolveStatus
    blocks: dict[str, np.ndarray] = field(default_factory=dict)
    objective_value: float = math.nan
    y: np.ndarray | None = None
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


def _apply_a(a_blocks, xs) -> np.ndarray:
    """(A(X))_i = sum_b Re Tr(A_ib X_b)."""
    return sum(np.einsum("ipq,qp->i", ab, xb).real for ab, xb in zip(a_blocks, xs))


def _apply_at(a_blocks, y) -> list[np.ndarray]:
    return [np.tensordot(y, ab, axes=(0, 0)) for ab in a_blocks]


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD (x Hermitian PD)."""
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return 0.0
    a = scipy.linalg.solve_triangular(chol, dx, lower=True)
    w = scipy.linalg.solve_triangular(chol, a.conj().T, lower=True)  # L^-1 dx L^-H
    lam_min = float(np.linalg.eigvalsh(_hermitize(w)).min())
    if lam_min >= 0.0:
        return math.inf
    return -1.0 / lam_min


class _IpmCore:
    """HKM predictor-corrector iteration on Hermitian blocks, each in its own dtype."""

    def __init__(self, c_blocks, a_blocks, b, tol_feas, tol_gap, max_iter, converged=None):
        self.c = c_blocks  # list of (d, d)
        self.a = a_blocks  # list of (m, d, d), real or complex
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
        xs = [scale * np.eye(ab.shape[1], dtype=ab.dtype) for ab in self.a]
        zs = [z_scale * np.eye(ab.shape[1], dtype=ab.dtype) for ab in self.a]
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
            rp = self.b - _apply_a(self.a, xs)
            at_y = _apply_at(self.a, y)
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
                _hermitize(scipy.linalg.cho_solve((ch, True), np.eye(zb.shape[0])))
                for zb, ch in zip(zs, z_chols)
            ]

            # Schur complement M_ij = Re sum_b Tr(A_i X A_j Z^-1); symmetric PD
            schur = np.zeros((self.m, self.m))
            for ab, xb, zib in zip(self.a, xs, z_invs):
                t = np.einsum("pq,iqr,rs->ips", xb, ab, zib, optimize=True)
                schur += (ab.reshape(self.m, -1).conj() @ t.reshape(self.m, -1).T).real
            schur = _hermitize(schur)
            if not np.all(np.isfinite(schur)):
                status = SolveStatus.NUMERICAL_FAILURE
                break
            schur_f = None
            for jitter in (0.0, 1e-14, 1e-10, 1e-7):
                try:
                    shift = jitter * (1.0 + float(np.trace(schur)) / self.m)
                    schur_f = scipy.linalg.cho_factor(schur + shift * np.eye(self.m))
                    break
                except np.linalg.LinAlgError:
                    continue
            if schur_f is None:
                status = SolveStatus.NUMERICAL_FAILURE
                break

            def solve_schur(rhs):
                dy = scipy.linalg.cho_solve(schur_f, rhs)
                # one step of iterative refinement keeps feasibility tight
                dy += scipy.linalg.cho_solve(schur_f, rhs - schur @ dy)
                return dy

            def directions(r3s):
                corr = [xb @ rdb @ zib for xb, rdb, zib in zip(xs, rds, z_invs)]
                rhs = rp - _apply_a(self.a, r3s) + _apply_a(self.a, corr)
                dy = solve_schur(rhs)
                at_dy = _apply_at(self.a, dy)
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
    """Normalize to min-sense equality form, one array per block.

    A block is complex Hermitian when any of its data has a nonzero imaginary
    part, and real symmetric otherwise.  When there are ``<=`` rows, a real
    diagonal slack block follows the problem's blocks; the k-th ``<=`` row
    holds its entry E_kk.
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    rows = [c.matrices for c in problem.constraints]
    complex_names = {
        name
        for mats in [problem.objective, *rows]
        for name, mat in mats.items()
        if np.iscomplexobj(mat) and np.any(np.imag(mat))
    }
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
    return c_blocks, a_blocks, b, sign


def _certify(c_blocks, a_blocks, b, xs, y):
    """Residuals of a candidate solution against the (unscaled) equality-form data.

    The dual check covers the slack block, whose slack matrix is diag(-y) on
    the ``<=`` rows, so a positive inequality multiplier is a dual violation.
    """
    norm_b = 1.0 + float(np.max(np.abs(b), initial=0.0))
    rel_p = float(np.max(np.abs(_apply_a(a_blocks, xs) - b), initial=0.0)) / norm_b

    norm_c = 1.0 + math.sqrt(sum(_inner(cb, cb) for cb in c_blocks))
    dual_viol = max(
        max(0.0, -float(np.linalg.eigvalsh(_hermitize(cb - aty)).min()))
        for cb, aty in zip(c_blocks, _apply_at(a_blocks, y))
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
    """Solve the SDP; returns a certified status rather than raising on infeasibility."""
    c_blocks, a_blocks, b, sign = _build_data(problem)

    # presolve: an identically-zero row is either vacuous or a contradiction
    # (a ``<=`` row is never zero: it holds its slack entry)
    m_all = b.size
    row_norms = np.sqrt(
        sum(np.linalg.norm(ab.reshape(m_all, -1), axis=1) ** 2 for ab in a_blocks)
    )
    keep = row_norms > 1e-14
    if np.any(np.abs(b[~keep]) > tol_feas * (1.0 + np.abs(b[~keep]))):
        return SdpSolution(status=SolveStatus.INFEASIBLE, primal_residual=math.inf)
    if not np.any(keep):
        raise ValueError("all constraints are vacuous; the problem is unbounded or trivial")
    a_blocks = [ab[keep] for ab in a_blocks]
    b = b[keep]

    # row scaling: unit Frobenius norm per constraint, plus objective scaling
    con_scale = np.maximum(row_norms[keep], 1e-12)
    obj_scale = max(math.sqrt(sum(_inner(cb, cb) for cb in c_blocks)), 1.0)
    a_scaled = [ab / con_scale[:, None, None] for ab in a_blocks]
    b_scaled = b / con_scale
    c_scaled = [cb / obj_scale for cb in c_blocks]

    def _certified(xs, y_scaled):
        rel_p, rel_d, rel_gap, _ = _certify(
            c_blocks, a_blocks, b, xs, y_scaled * obj_scale / con_scale
        )
        return rel_p <= tol_feas and rel_d <= tol_feas and rel_gap <= tol_gap

    core = _IpmCore(c_scaled, a_scaled, b_scaled, tol_feas, tol_gap, max_iter,
                    converged=_certified)
    status, xs, y_scaled, iters = core.run()
    y = y_scaled * obj_scale / con_scale

    finite = all(np.all(np.isfinite(xb)) for xb in xs) and bool(np.all(np.isfinite(y)))
    if finite:
        rel_p, rel_d, rel_gap, pobj = _certify(c_blocks, a_blocks, b, xs, y)
    else:
        rel_p = rel_d = rel_gap = math.inf
        pobj = math.nan
    if rel_p <= tol_feas and rel_d <= tol_feas and rel_gap <= tol_gap:
        status = SolveStatus.OPTIMAL
    elif status is SolveStatus.OPTIMAL:
        status = SolveStatus.MAX_ITERATIONS

    if status in (SolveStatus.MAX_ITERATIONS, SolveStatus.NUMERICAL_FAILURE) and rel_p > tol_feas:
        feas_t = _feasibility_gap(a_scaled, b_scaled, tol_feas, tol_gap, max_iter)
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
    return SdpSolution(
        status=status,
        blocks={name: xs[k] for k, (name, _d) in enumerate(problem.blocks)},
        objective_value=sign * pobj,
        y=sign * y_full,
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
    c_blocks, a_blocks, b, sign = _build_data(normalized_program(d_tilde, sense))
    x = np.outer(vec, np.conj(vec))
    if not np.iscomplexobj(a_blocks[0]):
        x = x.real
    y = np.array([float(value)])
    rel_p, rel_d, rel_gap, _pobj = _certify(c_blocks, a_blocks, b, [x], sign * y)
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


def _feasibility_gap(a_blocks, b, tol_feas, tol_gap, max_iter):
    """Optimal value of the auxiliary min-t feasibility problem, or None."""
    q = b - sum(np.trace(ab, axis1=1, axis2=2).real for ab in a_blocks)
    c_blocks = [np.zeros(ab.shape[1:]) for ab in a_blocks] + [np.ones((1, 1))]
    a_aux = [*a_blocks, q.reshape(-1, 1, 1)]
    core = _IpmCore(c_blocks, a_aux, b, tol_feas, tol_gap, max_iter)
    status, xs, _y, _it = core.run()
    if status is SolveStatus.NUMERICAL_FAILURE:
        return None
    if np.linalg.norm(b - _apply_a(a_aux, xs)) / core.norm_b > math.sqrt(tol_feas):
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
