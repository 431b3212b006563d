"""Dense multi-block Hermitian SDP solver with trace constraints.

The solver targets the small reduced problems this package produces
(block dimensions up to a few hundred): a primal-dual path-following
interior-point method with Mehrotra predictor-corrector steps, run on the
real symmetric embedding of complex Hermitian blocks.  Inequality
constraints get one-dimensional nonnegative slack blocks, and matrix
equalities are compiled by callers into scalar trace constraints against a
Hermitian basis.

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


def embed_real(h: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re, -Im], [Im, Re]] of a Hermitian matrix.

    Positive semidefiniteness is preserved both ways and every eigenvalue is
    duplicated; traces of products double, so callers rescale objectives and
    right-hand sides.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(h - h.conj().T), initial=0.0) > HERMITIAN_TOL * max(
        1.0, np.max(np.abs(h), initial=0.0)
    ):
        raise ValueError("matrix is not Hermitian")
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def _unembed(x: np.ndarray) -> np.ndarray:
    """J-average a 2d x 2d symmetric solution back to a d x d Hermitian matrix.

    Objective and constraint values carry over exactly: Tr(embed(A)/2 * X)
    equals Tr(A * unembed(X)).
    """
    d = x.shape[0] // 2
    return (x[:d, :d] + x[d:, d:]) / 2.0 + 1j * (x[d:, :d] - x[:d, d:]) / 2.0


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD (x symmetric PD)."""
    if x.shape[0] == 1:
        ratio = dx[0, 0] / x[0, 0]
        return math.inf if ratio >= 0 else -1.0 / ratio
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return 0.0
    a = scipy.linalg.solve_triangular(chol, dx, lower=True)
    w = scipy.linalg.solve_triangular(chol, a.T, lower=True)
    lam_min = float(np.linalg.eigvalsh(_sym(w)).min())
    if lam_min >= 0.0:
        return math.inf
    return -1.0 / lam_min


class _IpmCore:
    """HKM predictor-corrector iteration on stacked real symmetric blocks."""

    def __init__(self, dims, c_blocks, a_blocks, b, tol_feas, tol_gap, max_iter,
                 converged=None):
        self.dims = dims
        self.c = c_blocks  # list of (d, d)
        self.a = a_blocks  # list of (m, d, d)
        self.b = np.asarray(b, dtype=float)
        self.m = self.b.size
        self.tol_feas = tol_feas
        self.tol_gap = tol_gap
        self.max_iter = max_iter
        self.n_total = sum(dims)
        self.norm_b = 1.0 + np.linalg.norm(self.b)
        self.norm_c = 1.0 + math.sqrt(sum(np.sum(cb**2) for cb in c_blocks))
        # optional external convergence test (certification on unscaled data)
        self.converged = converged

    def _apply_a(self, xs) -> np.ndarray:
        out = np.zeros(self.m)
        for ab, xb in zip(self.a, xs):
            out += np.einsum("ipq,qp->i", ab, xb)
        return out

    def _apply_at(self, y) -> list[np.ndarray]:
        return [np.tensordot(y, ab, axes=(0, 0)) for ab in self.a]

    def run(self):
        dims = self.dims
        scale = max(1.0, float(np.max(np.abs(self.b))) if self.m else 1.0)
        xs = [scale * np.eye(d) for d in dims]
        zs = [max(1.0, self.norm_c / max(1.0, math.sqrt(self.n_total))) * np.eye(d) for d in dims]
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
            rp = self.b - self._apply_a(xs)
            at_y = self._apply_at(y)
            rds = [cb - aty - zb for cb, aty, zb in zip(self.c, at_y, zs)]
            pobj = sum(np.sum(cb * xb) for cb, xb in zip(self.c, xs))
            dobj = float(self.b @ y)
            mu = sum(np.sum(xb * zb) for xb, zb in zip(xs, zs)) / self.n_total

            rel_p = np.linalg.norm(rp) / self.norm_b
            rel_d = math.sqrt(sum(np.sum(rd**2) for rd in rds)) / self.norm_c
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
            z_invs = []
            for zb, ch in zip(zs, z_chols):
                inv = scipy.linalg.cho_solve((ch, True), np.eye(zb.shape[0]))
                z_invs.append(_sym(inv))

            # Schur complement M_ij = sum_b Tr(A_i X A_j Z^-1); symmetric PD
            schur = np.zeros((self.m, self.m))
            for ab, xb, zib in zip(self.a, xs, z_invs):
                t = np.einsum("pq,iqr,rs->ips", xb, ab, zib, optimize=True)
                schur += ab.reshape(self.m, -1) @ t.transpose(0, 2, 1).reshape(self.m, -1).T
            schur = _sym(schur)
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
                rhs = rp - self._apply_a(r3s) + self._apply_a(corr)
                dy = solve_schur(rhs)
                at_dy = self._apply_at(dy)
                dzs = [rdb - atdyb for rdb, atdyb in zip(rds, at_dy)]
                dxs = [
                    _sym(r3b - xb @ dzb @ zib)
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
                    np.sum((xb + alpha_p * dxb) * (zb + alpha_d * dzb))
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

            xs = [_sym(xb + alpha_p * dxb) for xb, dxb in zip(xs, dxs)]
            zs = [_sym(zb + alpha_d * dzb) for zb, dzb in zip(zs, dzs)]
            y = y + alpha_d * dy
            tau = 0.95 + 0.049 * min(alpha_p, alpha_d)

            if not all(np.all(np.isfinite(xb)) for xb in xs) or not np.all(np.isfinite(y)):
                status = SolveStatus.NUMERICAL_FAILURE
                break

        pobj = sum(np.sum(cb * xb) for cb, xb in zip(self.c, xs))
        return status, xs, y, float(pobj), it


def _build_real_data(problem: SdpProblem):
    """Normalize to min-sense equality form on real symmetric blocks."""
    sign = 1.0 if problem.sense == "min" else -1.0
    dims_in = dict(problem.blocks)
    is_complex = {name: False for name, _ in problem.blocks}
    for mats in [problem.objective] + [c.matrices for c in problem.constraints]:
        for name, mat in mats.items():
            if np.iscomplexobj(mat) and np.max(np.abs(np.asarray(mat).imag), initial=0.0) > 0.0:
                is_complex[name] = True

    names = [name for name, _ in problem.blocks]
    dims = []
    for name in names:
        d = dims_in[name]
        dims.append(2 * d if is_complex[name] else d)

    def realize(name, mat):
        mat = np.asarray(mat, dtype=complex)
        if is_complex[name]:
            return embed_real(mat) / 2.0
        return _sym(mat.real.astype(float))

    m_user = len(problem.constraints)
    slack_names = [f"_slack_{i}" for i, c in enumerate(problem.constraints) if c.relation == "<="]
    c_blocks = []
    for name, d in zip(names, dims):
        if name in problem.objective:
            c_blocks.append(sign * realize(name, problem.objective[name]))
        else:
            c_blocks.append(np.zeros((d, d)))

    all_names = names + slack_names
    all_dims = dims + [1] * len(slack_names)
    c_blocks += [np.zeros((1, 1)) for _ in slack_names]

    a_blocks = [np.zeros((m_user, d, d)) for d in all_dims]
    b = np.zeros(m_user)
    slack_idx = 0
    for i, con in enumerate(problem.constraints):
        b[i] = con.rhs
        for name, mat in con.matrices.items():
            k = names.index(name)
            a_blocks[k][i] = realize(name, mat)
        if con.relation == "<=":
            a_blocks[len(names) + slack_idx][i, 0, 0] = 1.0
            slack_idx += 1

    return all_names, all_dims, c_blocks, a_blocks, b, is_complex, sign


def _certify(dims, c_blocks, a_blocks, b, relations, xs, y):
    """Residuals of a candidate solution against the (unscaled) real data."""
    m = b.size
    vals = np.zeros(m)
    for ab, xb in zip(a_blocks, xs):
        vals += np.einsum("ipq,qp->i", ab, xb)
    viol = np.where(np.array(relations) == "=", np.abs(vals - b), np.maximum(vals - b, 0.0))
    norm_b = 1.0 + float(np.max(np.abs(b), initial=0.0))
    rel_p = float(np.max(viol, initial=0.0)) / norm_b

    norm_c = 1.0 + math.sqrt(sum(np.sum(cb**2) for cb in c_blocks))
    dual_viol = 0.0
    for cb, ab in zip(c_blocks, a_blocks):
        z = cb - np.tensordot(y, ab, axes=(0, 0))
        dual_viol = max(dual_viol, max(0.0, -float(np.linalg.eigvalsh(_sym(z)).min())))
    # inequality multipliers must be nonpositive in the minimized form
    for i, rel in enumerate(relations):
        if rel == "<=":
            dual_viol = max(dual_viol, max(0.0, float(y[i])))
    rel_d = dual_viol / norm_c

    pobj = sum(np.sum(cb * xb) for cb, xb in zip(c_blocks, xs))
    dobj = float(b @ y)
    rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return rel_p, rel_d, rel_gap, float(pobj), dobj


def solve(
    problem: SdpProblem,
    tol_feas: float = 1e-8,
    tol_gap: float = 1e-8,
    max_iter: int = 200,
) -> SdpSolution:
    """Solve the SDP; returns a certified status rather than raising on infeasibility."""
    names, dims, c_blocks, a_blocks, b, is_complex, sign = _build_real_data(problem)
    relations = [c.relation for c in problem.constraints]

    # presolve: an identically-zero row is either vacuous or a contradiction
    m_all = b.size
    row_norms = np.array(
        [math.sqrt(sum(float(np.sum(ab[i] ** 2)) for ab in a_blocks)) for i in range(m_all)]
    )
    zero_rows = row_norms <= 1e-14
    if np.any(zero_rows):
        violated = zero_rows & ~(
            (np.abs(b) <= tol_feas * (1.0 + np.abs(b)))
            | ((np.array(relations) == "<=") & (b >= 0.0))
        )
        if np.any(violated):
            return SdpSolution(status=SolveStatus.INFEASIBLE, primal_residual=math.inf)
    keep_rows = ~zero_rows
    kept_index = np.nonzero(keep_rows)[0]
    a_blocks = [ab[keep_rows] for ab in a_blocks]
    b = b[keep_rows]
    relations_kept = [relations[i] for i in kept_index]
    # drop slack blocks belonging to removed rows
    active = [
        k
        for k, name in enumerate(names)
        if not name.startswith("_slack_") or keep_rows[int(name.split("_")[-1])]
    ]
    names = [names[k] for k in active]
    dims = [dims[k] for k in active]
    c_blocks = [c_blocks[k] for k in active]
    a_blocks = [a_blocks[k] for k in active]
    if b.size == 0:
        raise ValueError("all constraints are vacuous; the problem is unbounded or trivial")

    # row scaling: unit Frobenius norm per constraint, plus objective scaling
    m = b.size
    con_scale = np.array(
        [
            max(math.sqrt(sum(float(np.sum(ab[i] ** 2)) for ab in a_blocks)), 1e-12)
            for i in range(m)
        ]
    )
    obj_scale = max(math.sqrt(sum(float(np.sum(cb**2)) for cb in c_blocks)), 1.0)
    a_scaled = [ab / con_scale[:, None, None] for ab in a_blocks]
    b_scaled = b / con_scale
    c_scaled = [cb / obj_scale for cb in c_blocks]

    def _certified(xs, y_scaled):
        y_u = y_scaled * obj_scale / con_scale
        rel_p, rel_d, rel_gap, _, _ = _certify(
            dims, c_blocks, a_blocks, b, relations_kept, xs, y_u
        )
        return rel_p <= tol_feas and rel_d <= tol_feas and rel_gap <= tol_gap

    core = _IpmCore(
        dims, c_scaled, a_scaled, b_scaled, tol_feas, tol_gap, max_iter, converged=_certified
    )
    status, xs, y_scaled, _pobj, iters = core.run()
    y = y_scaled * obj_scale / con_scale

    finite = all(np.all(np.isfinite(xb)) for xb in xs) and bool(np.all(np.isfinite(y)))
    if finite:
        rel_p, rel_d, rel_gap, pobj, _dobj = _certify(
            dims, c_blocks, a_blocks, b, relations_kept, xs, y
        )
    else:
        rel_p = rel_d = rel_gap = math.inf
        pobj = math.nan
    if rel_p <= tol_feas and rel_d <= tol_feas and rel_gap <= tol_gap:
        status = SolveStatus.OPTIMAL
    elif status is SolveStatus.OPTIMAL:
        status = SolveStatus.MAX_ITERATIONS

    if status in (SolveStatus.MAX_ITERATIONS, SolveStatus.NUMERICAL_FAILURE) and rel_p > tol_feas:
        feas_t = _feasibility_gap(dims, a_scaled, b_scaled, tol_feas, tol_gap, max_iter)
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

    user_blocks = {}
    for name, _dim in problem.blocks:
        k = names.index(name)
        user_blocks[name] = _unembed(xs[k]) if is_complex[name] else xs[k]

    y_full = np.zeros(m_all)
    y_full[kept_index] = y
    return SdpSolution(
        status=status,
        blocks=user_blocks,
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
    problem = normalized_program(d_tilde, sense)
    _names, dims, c_blocks, a_blocks, b, is_complex, sign = _build_real_data(problem)
    x = np.outer(vec, np.conj(vec))
    xs = [embed_real(x) if is_complex[BLOCK] else x.real]
    y = np.array([float(value)])
    rel_p, rel_d, rel_gap, _pobj, _dobj = _certify(
        dims, c_blocks, a_blocks, b, ["="], xs, sign * y
    )
    optimal = rel_p <= tol_feas and rel_d <= tol_feas and rel_gap <= tol_gap
    return SdpSolution(
        status=SolveStatus.OPTIMAL if optimal else SolveStatus.NUMERICAL_FAILURE,
        blocks={BLOCK: x if is_complex[BLOCK] else xs[0]},
        objective_value=float(value),
        y=y,
        primal_residual=rel_p,
        dual_residual=rel_d,
        gap=rel_gap,
    )


def _feasibility_gap(dims, a_blocks, b, tol_feas, tol_gap, max_iter):
    """Optimal value of the auxiliary min-t feasibility problem, or None."""
    m = b.size
    q = b - sum(np.einsum("ipq,qp->i", ab, np.eye(d)) for ab, d in zip(a_blocks, dims))
    c_blocks = [np.zeros((d, d)) for d in dims] + [np.array([[1.0]])]
    a_aux = [ab.copy() for ab in a_blocks] + [q.reshape(m, 1, 1).astype(float)]
    core = _IpmCore(list(dims) + [1], c_blocks, a_aux, b, tol_feas, tol_gap, max_iter)
    status, xs, _y, _pobj, _it = core.run()
    if status is SolveStatus.NUMERICAL_FAILURE:
        return None
    rp = b - core._apply_a(xs)
    if np.linalg.norm(rp) / core.norm_b > math.sqrt(tol_feas):
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


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


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


# ---------------------------------------------------------------------------
# debugging export


def to_sdpa_text(problem: SdpProblem) -> str:
    """Plain-text sparse block dump (SDPA-flavored) for external debugging.

    Complex blocks are written in their real embedding; the objective
    follows the minimized sense.
    """
    names, dims, c_blocks, a_blocks, b, _is_complex, _sign = _build_real_data(problem)
    lines = [
        f"* paulisdp dump: {len(b)} constraints, blocks "
        + " ".join(f"{n}:{d}" for n, d in zip(names, dims)),
        f"{len(b)} = mDIM",
        f"{len(dims)} = nBLOCK",
        " ".join(str(d) for d in dims) + " = bLOCKsTRUCT",
        " ".join(f"{v:.17g}" for v in b),
    ]

    def emit(mat_idx: int, blk: int, mat: np.ndarray):
        d = mat.shape[0]
        for r in range(d):
            for c in range(r, d):
                if abs(mat[r, c]) > 0.0:
                    lines.append(f"{mat_idx} {blk + 1} {r + 1} {c + 1} {mat[r, c]:.17g}")

    for blk, cb in enumerate(c_blocks):
        emit(0, blk, cb)
    for i in range(len(b)):
        for blk, ab in enumerate(a_blocks):
            emit(i + 1, blk, ab[i])
    return "\n".join(lines) + "\n"
