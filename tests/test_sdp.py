import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from paulisdp import sdp
from paulisdp.sdp import (
    _build_data,
    _certify,
    _feasibility_gap as feasibility_gap,
    MatrixConstraint,
    SdpConstraint,
    SdpProblem,
    SdpSolution,
    SolveStatus,
    eigen_solution,
    generalized_min_eig,
    gram_basis,
    normalized_program,
    solve,
)


def random_hermitian(rng, d, complex_=True):
    a = rng.normal(size=(d, d))
    if complex_:
        a = a + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def random_psd(rng, d, complex_=True):
    a = rng.normal(size=(d, d))
    if complex_:
        a = a + 1j * rng.normal(size=(d, d))
    return a @ a.conj().T


def random_bounded_instance(rng, dims, m, complex_=True, n_ineq=0):
    """Instance with known strictly feasible primal and dual points."""
    names = [f"b{k}" for k in range(len(dims))]
    x_feas = {n: random_psd(rng, d, complex_) + 0.5 * np.eye(d) for n, d in zip(names, dims)}
    a_list = []
    for _ in range(m):
        a_list.append({n: random_hermitian(rng, d, complex_) for n, d in zip(names, dims)})
    y0 = rng.normal(size=m)
    y0[:n_ineq] = -np.abs(y0[:n_ineq])  # keeps the instance bounded below
    c = {}
    for n, d in zip(names, dims):
        z0 = random_psd(rng, d, complex_) + 0.5 * np.eye(d)
        c[n] = sum(y0[i] * a_list[i][n] for i in range(m)) + z0
    constraints = []
    for i in range(m):
        rhs = sum(np.trace(a_list[i][n] @ x_feas[n]).real for n in names)
        if i < n_ineq:
            constraints.append(SdpConstraint(a_list[i], rhs + abs(rng.normal()), "<="))
        else:
            constraints.append(SdpConstraint(a_list[i], rhs, "="))
    problem = SdpProblem(
        blocks=list(zip(names, dims)), sense="min", objective=c, constraints=constraints
    )
    return problem


def kkt_check(problem: SdpProblem, sol: SdpSolution, tol=1e-7):
    assert sol.status is SolveStatus.OPTIMAL
    sign = 1.0 if problem.sense == "min" else -1.0
    scale = 1.0 + max(abs(c.rhs) for c in problem.constraints)
    for con in problem.constraints:
        val = sum(np.trace(con.matrices[n] @ sol.blocks[n]).real for n in con.matrices)
        if con.relation == "=":
            assert abs(val - con.rhs) <= tol * scale
        else:
            assert val <= con.rhs + tol * scale
    for name, _d in problem.blocks:
        lam = np.linalg.eigvalsh(sol.blocks[name]).min()
        assert lam >= -1e-8
    # dual slack (minimized sense): C - sum y_i A_i >= 0 approximately
    for name, d in problem.blocks:
        z = sign * problem.objective.get(name, np.zeros((d, d)))
        for i, con in enumerate(problem.constraints):
            if name in con.matrices:
                z = z - sign * sol.y[i] * con.matrices[name]
        assert np.linalg.eigvalsh((z + z.conj().T) / 2).min() >= -1e-6
    pobj = sol.objective_value
    dobj = float(np.array([c.rhs for c in problem.constraints]) @ sol.y)
    assert abs(pobj - dobj) <= tol * (1.0 + abs(pobj) + abs(dobj))


def barrier_reference(problem: SdpProblem, x_start: dict, tol=1e-9):
    """Independent log-det barrier solver (single block, equality only)."""
    (name, d) = problem.blocks[0]
    complex_ = any(np.iscomplexobj(m[name]) for m in [problem.objective]) or True
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2)
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1j / math.sqrt(2)
            e[j, i] = -1j / math.sqrt(2)
            basis.append(e)
    basis = np.array(basis)
    n_par = len(basis)

    def inner(a, b):
        return np.trace(a.conj().T @ b).real

    g = np.array(
        [[inner(con.matrices[name], e) for e in basis] for con in problem.constraints]
    )
    _u, s, vt = np.linalg.svd(g)
    null = vt[np.sum(s > 1e-10) :].T  # (n_par, n_free)
    c = problem.objective[name]
    x = x_start[name].astype(complex)

    t = 1.0
    while d / t > tol:
        for _ in range(60):
            xi = np.linalg.inv(x)
            grad_mat = t * c - xi
            grad = np.array([inner(grad_mat, e) for e in basis]) @ null
            mats = np.einsum("ab,kbc,cd->kad", xi, basis, xi)
            hess_full = np.einsum("kab,lba->kl", mats, basis).real
            hess = null.T @ hess_full @ null
            step = np.linalg.solve(hess + 1e-12 * np.eye(hess.shape[0]), -grad)
            decrement = float(-grad @ step)
            direction = np.einsum("k,kab->ab", null @ step, basis)
            alpha = 1.0
            while alpha > 1e-14:
                trial = x + alpha * direction
                if np.linalg.eigvalsh(trial).min() > 0:
                    break
                alpha *= 0.5
            x = x + alpha * direction
            if decrement < 1e-12:
                break
        t *= 10.0
    return inner(c, x)


class TestBasics:
    def test_diagonal_minimum(self):
        problem = SdpProblem(
            blocks=[("x", 2)],
            sense="min",
            objective={"x": np.diag([1.0, 2.0])},
            constraints=[SdpConstraint({"x": np.eye(2)}, 1.0)],
        )
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.objective_value - 1.0) < 1e-7
        np.testing.assert_allclose(sol.blocks["x"], np.diag([1.0, 0.0]), atol=1e-6)

    def test_max_sense(self):
        problem = SdpProblem(
            blocks=[("x", 2)],
            sense="max",
            objective={"x": np.diag([1.0, 2.0])},
            constraints=[SdpConstraint({"x": np.eye(2)}, 1.0)],
        )
        sol = solve(problem)
        assert abs(sol.objective_value - 2.0) < 1e-7

    def test_inequality_slack(self):
        # max x00 subject to x00 <= 0.25, trace = 1
        problem = SdpProblem(
            blocks=[("x", 2)],
            sense="max",
            objective={"x": np.diag([1.0, 0.0])},
            constraints=[
                SdpConstraint({"x": np.eye(2)}, 1.0),
                SdpConstraint({"x": np.diag([1.0, 0.0])}, 0.25, "<="),
            ],
        )
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.objective_value - 0.25) < 1e-6

    def test_complex_block(self):
        rng = np.random.default_rng(0)
        c = random_hermitian(rng, 3)
        problem = SdpProblem(
            blocks=[("x", 3)],
            sense="min",
            objective={"x": c},
            constraints=[SdpConstraint({"x": np.eye(3, dtype=complex)}, 1.0)],
        )
        sol = solve(problem)
        lam = np.linalg.eigvalsh(c)[0]
        assert abs(sol.objective_value - lam) < 1e-7
        x = sol.blocks["x"]
        assert abs(np.trace(x).real - 1.0) < 1e-7
        assert np.linalg.eigvalsh(x).min() > -1e-9
        assert abs(np.trace(c @ x).real - lam) < 1e-7

    def test_determinism(self):
        rng = np.random.default_rng(5)
        problem = random_bounded_instance(rng, [4], 3)
        a = solve(problem)
        b = solve(problem)
        assert a.objective_value == b.objective_value
        np.testing.assert_array_equal(a.blocks["b0"], b.blocks["b0"])
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("settings, message", [
        (dict(max_iter=0), "max_iter must be a positive integer, got 0"),
        (dict(max_iter=-1), "max_iter must be a positive integer, got -1"),
        (dict(max_iter=2.5), "max_iter must be a positive integer, got 2.5"),
        (dict(max_iter=True), "max_iter must be a positive integer, got True"),
        (dict(tol_feas=math.nan), "tol_feas must be a positive finite number, got nan"),
        (dict(tol_feas=-1.0), "tol_feas must be a positive finite number, got -1.0"),
        (dict(tol_feas=0.0), "tol_feas must be a positive finite number, got 0.0"),
        (dict(tol_gap=math.inf), "tol_gap must be a positive finite number, got inf"),
        (dict(tol_gap=math.nan), "tol_gap must be a positive finite number, got nan"),
    ])
    def test_rejects_settings_that_cannot_certify(self, settings, message):
        # max_iter=0 used to report a false INFEASIBLE, tol_feas=nan MAX_ITERATIONS
        with pytest.raises(ValueError, match=re.escape(message)):
            solve(normalized_program(np.diag([3.0, 1.0, 2.0]), "min"), **settings)

    def test_accepts_numpy_settings(self):
        program = normalized_program(np.diag([3.0, 1.0, 2.0]), "min")
        sol = solve(program, tol_feas=np.float64(1e-8), max_iter=np.int64(50))
        assert sol.is_optimal and solution_bits(sol) == solution_bits(solve(program))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            SdpProblem(
                blocks=[("x", 2)],
                sense="min",
                objective={"x": np.array([[0.0, 1.0], [0.0, 0.0]])},
                constraints=[SdpConstraint({"x": np.eye(2)}, 1.0)],
            )

    def test_infeasible_signal(self):
        # <Z> = 3 is impossible for a unit-trace PSD matrix
        problem = SdpProblem(
            blocks=[("x", 2)],
            sense="min",
            objective={"x": np.eye(2)},
            constraints=[
                SdpConstraint({"x": np.eye(2)}, 1.0),
                SdpConstraint({"x": np.diag([1.0, -1.0])}, 3.0),
            ],
        )
        sol = solve(problem)
        assert sol.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize(
        "rhs, status", [(0.0, SolveStatus.OPTIMAL), (0.5, SolveStatus.INFEASIBLE)]
    )
    def test_rounding_noise_row_is_vacuous(self, rhs, status):
        # a row of norm 2e-13 next to unit rows is zero up to rounding: dropped,
        # not scaled up to the unit constraint x00 = x11 (which would give 1.5)
        noise = 2e-13 * np.diag([1.0, -1.0]) / math.sqrt(2.0)
        problem = SdpProblem(
            blocks=[("x", 2)],
            sense="min",
            objective={"x": np.diag([1.0, 2.0])},
            constraints=[SdpConstraint({"x": np.eye(2)}, 1.0), SdpConstraint({"x": noise}, rhs)],
        )
        sol = solve(problem)
        assert sol.status is status
        if status is SolveStatus.OPTIMAL:
            assert abs(sol.objective_value - 1.0) < 1e-7

    def test_zero_imaginary_parts_give_real_blocks(self):
        rng = np.random.default_rng(1)
        problem = random_bounded_instance(rng, [3, 2], 3, complex_=False, n_ineq=1)
        as_complex = SdpProblem(
            blocks=problem.blocks,
            sense=problem.sense,
            objective={n: m.astype(complex) for n, m in problem.objective.items()},
            constraints=[
                SdpConstraint({n: m.astype(complex) for n, m in c.matrices.items()},
                              c.rhs, c.relation)
                for c in problem.constraints
            ],
        )
        real_sol, complex_sol = solve(problem), solve(as_complex)
        assert complex_sol.status is SolveStatus.OPTIMAL
        for name, _d in problem.blocks:
            assert not np.iscomplexobj(complex_sol.blocks[name])
            np.testing.assert_array_equal(complex_sol.blocks[name], real_sol.blocks[name])
        np.testing.assert_array_equal(complex_sol.y, real_sol.y)

    def test_positive_inequality_multiplier_is_a_dual_violation(self):
        # min -x00 s.t. Tr X = 1, x00 <= 0.25; Z = diag(0, 2) is PSD for
        # y = (-2, 1), so only the slack block sees the wrong-signed multiplier
        problem = SdpProblem(
            blocks=[("x", 2)],
            sense="min",
            objective={"x": np.diag([-1.0, 0.0])},
            constraints=[
                SdpConstraint({"x": np.eye(2)}, 1.0),
                SdpConstraint({"x": np.diag([1.0, 0.0])}, 0.25, "<="),
            ],
        )
        c_blocks, a_blocks, b, _sign = _build_data(problem)
        xs = [np.diag([0.25, 0.75]), np.zeros((1, 1))]
        _p, rel_d, _g, _obj = _certify(c_blocks, a_blocks, b, xs, np.array([0.0, -1.0]))
        assert rel_d == 0.0
        rel_p, rel_d, _g, _obj = _certify(c_blocks, a_blocks, b, xs, np.array([-2.0, 1.0]))
        assert rel_p == 0.0
        assert rel_d > 0.0


class TestRandomInstances:
    def test_kkt_residuals(self):
        rng = np.random.default_rng(42)
        for k in range(40):
            dims = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))]
            m = int(rng.integers(1, 5))
            n_ineq = int(rng.integers(0, min(m, 2) + 1))
            problem = random_bounded_instance(
                rng, dims, m, complex_=bool(rng.integers(0, 2)), n_ineq=n_ineq
            )
            sol = solve(problem)
            kkt_check(problem, sol)

    def test_weak_duality_on_optimal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            problem = random_bounded_instance(rng, [5], 3)
            sol = solve(problem)
            dobj = float(np.array([c.rhs for c in problem.constraints]) @ sol.y)
            assert sol.objective_value >= dobj - 1e-6

    def test_against_barrier_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            d, m = 6, 3
            x_feas = random_psd(rng, d) + 0.5 * np.eye(d)
            a_list = [random_hermitian(rng, d) for _ in range(m)]
            y0 = rng.normal(size=m)
            c = sum(y0[i] * a_list[i] for i in range(m)) + random_psd(rng, d) + 0.5 * np.eye(d)
            constraints = [
                SdpConstraint({"x": a}, float(np.trace(a @ x_feas).real)) for a in a_list
            ]
            problem = SdpProblem(
                blocks=[("x", d)], sense="min", objective={"x": c}, constraints=constraints
            )
            sol = solve(problem)
            assert sol.status is SolveStatus.OPTIMAL
            ref = barrier_reference(problem, {"x": x_feas})
            assert abs(sol.objective_value - ref) < 1e-5 * (1 + abs(ref))


def embed(h):
    """Real symmetric embedding [[Re, -Im], [Im, Re]]: the reference for complex blocks."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


class TestEmbeddedReference:
    @staticmethod
    def embedded(problem: SdpProblem) -> SdpProblem:
        """The same program on real blocks of twice the size.

        Traces of embedded products double, so every matrix is halved.
        """
        def half(mats):
            return {n: embed(np.asarray(m, dtype=complex)) / 2.0 for n, m in mats.items()}

        return SdpProblem(
            blocks=[(n, 2 * d) for n, d in problem.blocks],
            sense=problem.sense,
            objective=half(problem.objective),
            constraints=[SdpConstraint(half(c.matrices), c.rhs, c.relation)
                         for c in problem.constraints],
        )

    @pytest.mark.parametrize("n_ineq", [0, 1, 2])
    def test_native_complex_solve_matches_embedding(self, n_ineq):
        rng = np.random.default_rng(30 + n_ineq)
        for _ in range(6):
            dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3)))]
            m = int(rng.integers(max(n_ineq, 1), 5))
            problem = random_bounded_instance(rng, dims, m, complex_=True, n_ineq=n_ineq)
            reference = self.embedded(problem)
            sol, ref = solve(problem), solve(reference)
            kkt_check(problem, sol)
            kkt_check(reference, ref)
            for name, d in problem.blocks:
                assert sol.blocks[name].shape == (d, d)
                assert np.iscomplexobj(sol.blocks[name])
            pobj = sol.objective_value
            assert abs(pobj - ref.objective_value) <= 1e-7 * (1.0 + abs(pobj))


def random_matrix_instance(rng, dims, r, complex_=True, n_ineq=0, entries=None):
    """Blocks tied by sum_b V_b X_b V_b^H = R on ``entries``, plus ``n_ineq`` ``<=`` rows.

    The blocks have sizes ``dims`` and random r x d_b maps, plus a last r x r
    block whose map, objective and rows are real, so that only the matrix
    constraint can make it complex.  R comes from a positive definite point;
    the objective keeps Y0 (zero off the selected entries) strictly dual
    feasible, and the ``<=`` rows leave the last block out.
    """
    names = [f"b{k}" for k in range(len(dims))]

    def rand(*shape):
        return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0.0)

    maps = {n: rand(r, d) for n, d in zip(names, dims)}
    maps["real"] = rng.normal(size=(r, r))
    blocks = [*zip(names, dims), ("real", r)]
    x_feas = {n: random_psd(rng, d, complex_) + 0.5 * np.eye(d) for n, d in blocks}
    rhs = sum(maps[n] @ x_feas[n] @ maps[n].conj().T for n, _d in blocks)
    constraint = MatrixConstraint(maps, (rhs + rhs.conj().T) / 2.0, entries)
    y0 = np.zeros((r, r), dtype=complex if complex_ else float)
    i, j = constraint.entries.T
    y0[i, j] = rand(i.size)
    y0 = y0 + y0.conj().T
    ineq = [{n: random_hermitian(rng, d, complex_) for n, d in zip(names, dims)}
            for _ in range(n_ineq)]
    weights = -np.abs(rng.normal(size=n_ineq))
    objective = {}
    for n, d in zip(names, dims):
        c = maps[n].conj().T @ y0 @ maps[n] + random_psd(rng, d, complex_) + 0.5 * np.eye(d)
        c = c + sum(w * a[n] for w, a in zip(weights, ineq))
        objective[n] = (c + c.conj().T) / 2.0
    top = np.linalg.eigvalsh(maps["real"].T @ y0 @ maps["real"])[-1]
    objective["real"] = random_psd(rng, r, False) + (top + 0.5) * np.eye(r)
    constraints = [
        SdpConstraint(a, sum(np.trace(a[n] @ x_feas[n]).real for n in names) + abs(rng.normal()),
                      "<=")
        for a in ineq
    ]
    return SdpProblem(blocks=blocks, sense="min", objective=objective,
                      constraints=constraints, matrix_constraint=constraint)


def basis_rows(problem: SdpProblem) -> list[tuple[np.ndarray, float]]:
    """The matrix constraint as Hermitian-basis elements E and their rhs Tr(E R).

    Every selected entry's real part, then the imaginary parts off the
    diagonal when the data is complex: the solver's row order.
    """
    mc = problem.matrix_constraint
    r = mc.rhs.shape[0]
    data = [*mc.maps.values(), mc.rhs, *problem.objective.values(),
            *(m for c in problem.constraints for m in c.matrices.values())]
    complex_ = any(np.any(np.imag(m)) for m in data)
    elements = []
    for i, j in mc.entries:
        e = np.zeros((r, r), dtype=complex)
        e[i, j] = e[j, i] = 1.0
        elements.append(e)
    for i, j in mc.entries:
        if complex_ and i < j:
            e = np.zeros((r, r), dtype=complex)
            e[i, j], e[j, i] = 1j, -1j
            elements.append(e)
    return [(e, float(np.trace(e @ mc.rhs).real)) for e in elements]


def as_scalar_rows(problem: SdpProblem) -> SdpProblem:
    """The same program with the matrix constraint written as scalar rows."""
    maps = problem.matrix_constraint.maps
    rows = [SdpConstraint({n: v.conj().T @ e @ v for n, v in maps.items()}, rhs)
            for e, rhs in basis_rows(problem)]
    return SdpProblem(blocks=problem.blocks, sense=problem.sense, objective=problem.objective,
                      constraints=[*problem.constraints, *rows])


def index_grid_schur(rows, xs, z_invs) -> np.ndarray:
    """``_MatrixRows.schur`` as ``np.ix_`` gathers and complex sums, term by term.

    The assembly must reproduce these bits: the same products, the same
    order over blocks, the same association in each combination.
    """
    a, b = rows.a, rows.b
    s0 = s1 = s2 = 0.0
    for v, x, zi in zip(rows.maps, xs, z_invs):
        if v is None:
            continue
        p = v @ x @ v.conj().T
        qt = (v @ zi @ v.conj().T).T
        s0 = s0 + p[np.ix_(b, a)] * qt[np.ix_(a, b)]
        s1 = s1 + p[np.ix_(b, b)] * qt[np.ix_(a, a)]
        s2 = s2 + p[np.ix_(a, a)] * qt[np.ix_(b, b)]
    s0h = np.conj(s0).T
    full = (s0 + s0h + s1 + s2).real
    if rows.complex:
        real_imag = (s1 - s2 - s0 + s0h).imag
        imag_imag = (s1 + s2 - s0 - s0h).real
        full = np.block([[full, real_imag], [real_imag.T, imag_imag]])
    return rows.rho[:, None] * full[np.ix_(rows.psi, rows.psi)] * rows.rho[None, :]


def scalar_row_multipliers(problem: SdpProblem, sol: SdpSolution) -> np.ndarray:
    """``sol.y`` followed by the coordinates of ``sol.y_matrix`` in ``basis_rows`` order."""
    y = sol.y_matrix
    coords = [np.trace(e @ y).real / np.trace(e @ e).real for e, _rhs in basis_rows(problem)]
    return np.concatenate([sol.y, coords])


class TestMatrixConstraint:
    @pytest.mark.parametrize("n_ineq", [0, 1, 2])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_scalar_rows(self, complex_, n_ineq):
        rng = np.random.default_rng(40 + 3 * n_ineq + complex_)
        for _ in range(4):
            r = int(rng.integers(2, 5))
            # the first map is onto, so no row of the family is redundant
            dims = [r + 1] + [int(rng.integers(1, r + 2)) for _ in range(int(rng.integers(0, 3)))]
            problem = random_matrix_instance(rng, dims, r, complex_, n_ineq)
            self.check_against_scalar_rows(problem)

    def test_entry_subset(self):
        rng = np.random.default_rng(47)
        for complex_ in (False, True):
            entries = [(0, 0), (0, 2), (1, 3), (2, 2), (3, 3)]
            problem = random_matrix_instance(rng, [3, 5], 4, complex_, 1, entries)
            assert len(basis_rows(problem)) == (7 if complex_ else 5)
            self.check_against_scalar_rows(problem)

    @staticmethod
    def check_against_scalar_rows(problem):
        reference = as_scalar_rows(problem)
        sol, ref = solve(problem), solve(reference)
        assert sol.status is ref.status is SolveStatus.OPTIMAL
        kkt_check(reference, ref)
        kkt_check(reference, replace(sol, y=scalar_row_multipliers(problem, sol)))
        pobj = ref.objective_value
        assert abs(sol.objective_value - pobj) <= 1e-7 * (1.0 + abs(pobj))
        for name, _d in problem.blocks:
            assert sol.blocks[name].dtype == ref.blocks[name].dtype

    @pytest.mark.parametrize("complex_", [False, True])
    def test_schur_block_matches_dense_assembly(self, complex_):
        rng = np.random.default_rng(48)
        problem = random_matrix_instance(rng, [5, 6, 3], 6, complex_, n_ineq=2)
        _c, rows, b, _sign = _build_data(problem)
        _c, dense, b_dense, _sign = _build_data(as_scalar_rows(problem))
        assert rows.matrix is not None and dense.matrix is None
        np.testing.assert_allclose(b, b_dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rows.row_norms(), dense.row_norms(), rtol=1e-12)
        xs = [random_psd(rng, d, complex_) for d in (5, 6, 3, 6)] + [np.diag([1.0, 2.0])]
        z_invs = [random_psd(rng, d, complex_) for d in (5, 6, 3, 6)] + [np.diag([3.0, 0.5])]
        # the presolve of ``solve`` drops vacuous rows and rescales the rest
        keep = np.ones(b.size, dtype=bool)
        keep[[1, b.size - 1]] = False
        scale = rng.uniform(0.5, 2.0, size=b.size - 2)
        families = [(rows, dense), (rows.select(keep, scale), dense.select(keep, scale))]
        for got_rows, want_rows in families:
            expected = want_rows.schur(xs, z_invs)
            got = got_rows.schur(xs, z_invs)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
            np.testing.assert_allclose(got_rows.apply(xs), want_rows.apply(xs), rtol=1e-12)
            y = rng.normal(size=got_rows.m)
            for got_b, want_b in zip(got_rows.adjoint(y), want_rows.adjoint(y)):
                np.testing.assert_allclose(got_b, want_b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["complex_all_entries", "real_entry_subset", "selected",
                                      "complex_r9", "real_r9", "selected_both_parts"])
    def test_schur_block_bits_match_index_grid_formula(self, case):
        rng = np.random.default_rng(49)
        complex_ = case not in ("real_entry_subset", "real_r9")
        entries = [(0, 0), (0, 2), (1, 3), (2, 2), (3, 3)] if case == "real_entry_subset" else None
        # r = 9 gives 45 entries
        r = 9 if case in ("complex_r9", "real_r9", "selected_both_parts") else 4
        problem = random_matrix_instance(rng, [3, 5], r, complex_, 1, entries)
        c_blocks, rows, _b, _sign = _build_data(problem)
        matrix = rows.matrix
        if case == "complex_all_entries":  # no imaginary-part rows on the diagonal
            assert matrix.n == 10 and matrix.m == 16
        if r == 9:
            assert matrix.n == 45
            assert matrix.m == (81 if complex_ else 45)
        if case == "selected":
            keep = np.ones(matrix.m, dtype=bool)
            keep[4] = False
            matrix = matrix.select(keep, rng.uniform(0.5, 2.0, size=matrix.m - 1))
        if case == "selected_both_parts":
            # real-part rows and imaginary-part rows of early and late entries
            dropped = [3, 40, 50, 78]
            assert [matrix.psi[j] // matrix.n for j in dropped] == [0, 0, 1, 1]
            keep = np.ones(matrix.m, dtype=bool)
            keep[dropped] = False
            matrix = matrix.select(keep, rng.uniform(0.5, 2.0, size=matrix.m - len(dropped)))
        xs = [random_psd(rng, cb.shape[0], np.iscomplexobj(cb)) for cb in c_blocks]
        z_invs = [random_psd(rng, cb.shape[0], np.iscomplexobj(cb)) for cb in c_blocks]
        np.testing.assert_array_equal(matrix.schur(xs, z_invs),
                                      index_grid_schur(matrix, xs, z_invs))

    def test_infeasible_equality_goes_through_feasibility_phase(self, monkeypatch):
        # X = diag(1, -1) is forced and not PSD
        gaps = []

        def spy(*args):
            gaps.append(feasibility_gap(*args))
            return gaps[-1]

        monkeypatch.setattr(sdp, "_feasibility_gap", spy)
        problem = SdpProblem(
            blocks=[("x", 2)], sense="min", objective={"x": np.eye(2)}, constraints=[],
            matrix_constraint=MatrixConstraint({"x": np.eye(2)}, np.diag([1.0, -1.0])),
        )
        sol = solve(problem)
        assert sol.status is SolveStatus.INFEASIBLE
        assert len(gaps) == 1 and gaps[0] > 1e-3

    @pytest.mark.parametrize(
        "maps, rhs, entries, message",
        [
            ({"x": np.eye(2)}, np.eye(2), [(1, 0)], "entries must satisfy"),
            ({"x": np.eye(2)}, np.eye(2), [(0, 2)], "entries must satisfy"),
            ({"x": np.eye(2)}, np.eye(2), [(0, 1), (0, 1)], "duplicate entries"),
            ({"x": np.eye(3)}, np.eye(2), None, "map must have 2 rows"),
            ({"x": np.eye(2)}, np.array([[0.0, 1.0], [0.0, 0.0]]), None, "Hermitian"),
            ({"y": np.eye(2)}, np.eye(2), None, "unknown block 'y'"),
            ({"x": np.ones((2, 3))}, np.eye(2), None, "map has wrong shape"),
        ],
    )
    def test_rejects_malformed_constraint(self, maps, rhs, entries, message):
        with pytest.raises(ValueError, match=message):
            SdpProblem(blocks=[("x", 2)], sense="min", objective={"x": np.eye(2)},
                       constraints=[],
                       matrix_constraint=MatrixConstraint(maps, rhs, entries))


def same_bits(a, b) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


# The scipy.linalg calls the interior-point method made before it called LAPACK directly.
def scipy_solve_lower(chol, b):
    return scipy.linalg.solve_triangular(chol, b, lower=True)


def scipy_cho_solve(factor, b, lower):
    return scipy.linalg.cho_solve((factor, lower), b)


def scipy_cho_factor(a):
    return scipy.linalg.cho_factor(a, check_finite=False)[0]


def solution_bits(sol: SdpSolution) -> list:
    arrays = [*sol.blocks.values(), sol.y, sol.y_matrix]
    return [sol.status, sol.iterations, float(sol.objective_value).hex(),
            *(None if a is None else a.tobytes() for a in arrays)]


class TestLapackCalls:
    """The direct LAPACK calls give the bits of the scipy.linalg wrappers they replace."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_triangular_solves_match_solve_triangular(self, complex_, order):
        rng = np.random.default_rng(60 + complex_)
        for d in range(1, 25):
            chol = np.linalg.cholesky(random_psd(rng, d, complex_) + np.eye(d))
            chol = np.asarray(chol, order=order)
            dx = np.asarray(random_hermitian(rng, d, complex_), order=order)
            a = sdp._solve_lower(chol, dx)
            assert same_bits(a, scipy_solve_lower(chol, dx))
            # the second solve of _max_step reads a transposed view
            assert same_bits(sdp._solve_lower(chol, a.conj().T), scipy_solve_lower(chol, a.conj().T))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_cholesky_factor_and_solves_match_cho_factor_and_cho_solve(self, complex_, order):
        rng = np.random.default_rng(70 + complex_)
        for d in range(1, 25):
            a = np.asarray(random_psd(rng, d, complex_) + np.eye(d), order=order)
            factor = sdp._cho_factor(a)
            assert same_bits(factor, scipy_cho_factor(a))
            rhs = rng.normal(size=d)
            assert same_bits(sdp._cho_solve(factor, rhs, lower=False),
                             scipy_cho_solve(factor, rhs, lower=False))
            # Z^-1 from the lower factor numpy returns, against a real identity
            chol = np.asarray(np.linalg.cholesky(a), order=order)
            assert same_bits(sdp._cho_solve(chol, np.eye(d), lower=True),
                             scipy_cho_solve(chol, np.eye(d), lower=True))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_raises_value_error(self, bad):
        x = np.diag([2.0, 1.0])
        dx = np.array([[0.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError):
            scipy_solve_lower(np.linalg.cholesky(x), dx)
        with pytest.raises(ValueError):
            sdp._max_step(x, dx)

    def test_non_positive_definite_schur_raises_lin_alg_error(self):
        schur = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            scipy_cho_factor(schur)
        with pytest.raises(np.linalg.LinAlgError):
            sdp._cho_factor(schur)

    def test_singular_schur_reaches_the_jitter_loop(self, monkeypatch):
        # two equal rows make the Schur matrix exactly singular
        calls = []
        real = sdp._cho_factor

        def spy(a):
            calls.append([a, False])
            try:
                return real(a)
            except np.linalg.LinAlgError:
                calls[-1][1] = True
                raise

        monkeypatch.setattr(sdp, "_cho_factor", spy)
        problem = SdpProblem(
            blocks=[("x", 3)], sense="min", objective={"x": np.diag([3.0, 1.0, 2.0])},
            constraints=[SdpConstraint({"x": np.eye(3)}, 1.0)] * 2,
        )
        sol = solve(problem)
        assert sol.is_optimal and abs(sol.objective_value - 1.0) < 1e-7
        failed = [k for k, (_a, raised) in enumerate(calls) if raised]
        assert failed and failed[-1] + 1 < len(calls)
        for k in failed:  # the retry adds a positive multiple of the identity
            shift = calls[k + 1][0] - calls[k][0]
            assert np.all(np.diag(shift) > 0.0)
            assert np.count_nonzero(shift - np.diag(np.diag(shift))) == 0

    @pytest.mark.parametrize("case", ["dense_real", "dense_complex", "matrix_only",
                                      "matrix_and_rows"])
    def test_interior_point_iterates_match_scipy_wrappers(self, monkeypatch, case):
        rng = np.random.default_rng(80)
        if case.startswith("dense"):
            problem = random_bounded_instance(rng, [3, 4], 3, case == "dense_complex", n_ineq=1)
        else:
            problem = random_matrix_instance(rng, [3, 5], 4, True, int(case == "matrix_and_rows"))
        direct = solve(problem)
        monkeypatch.setattr(sdp, "_solve_lower", scipy_solve_lower)
        monkeypatch.setattr(sdp, "_cho_solve", scipy_cho_solve)
        monkeypatch.setattr(sdp, "_cho_factor", scipy_cho_factor)
        wrapped = solve(problem)
        assert direct.is_optimal and direct.iterations > 0
        assert solution_bits(direct) == solution_bits(wrapped)


class TestDenseRows:
    def test_planned_contraction_matches_einsum_optimize(self):
        rng = np.random.default_rng(90)
        for complex_ in (False, True):
            for m, d in [(1, 1), (2, 3), (5, 8), (24, 24)]:
                arrays = [np.stack([random_hermitian(rng, d, complex_) for _ in range(m)])]
                rows = sdp._DenseRows(arrays)
                for _ in range(2):  # the second call replays the first call's plan
                    xs = [random_psd(rng, d, complex_)]
                    z_invs = [random_psd(rng, d, complex_)]
                    _schur, (t,) = rows.schur(xs, z_invs)
                    want = np.einsum("pq,iqr,rs->ips", xs[0], arrays[0], z_invs[0], optimize=True)
                    assert same_bits(t, want)

    def test_empty_family_contracts_nothing(self, monkeypatch):
        rows = sdp._DenseRows([np.zeros((0, 2, 2), complex), np.zeros((0, 3, 3))])
        xs = [np.eye(2, dtype=complex), np.eye(3)]

        def boom(*_args, **_kwargs):
            raise AssertionError("contraction over an empty row family")

        monkeypatch.setattr(np, "einsum", boom)
        monkeypatch.setattr(np, "tensordot", boom)
        assert rows.apply(xs).shape == (0,)
        adjoint = rows.adjoint(np.zeros(0))
        assert [(a.shape, a.dtype) for a in adjoint] == [((2, 2), complex), ((3, 3), float)]
        assert not any(np.any(a) for a in adjoint)
        schur, ts = rows.schur(xs, xs)
        assert schur.shape == (0, 0) and [t.shape for t in ts] == [(0, 2, 2), (0, 3, 3)]


class TestGeneralizedEig:
    def test_diagonal(self):
        lam, alpha = generalized_min_eig(np.diag([1.0, 2.0]), np.eye(2))
        assert abs(lam - 1.0) < 1e-12
        np.testing.assert_allclose(np.abs(alpha), [1.0, 0.0], atol=1e-10)

    def test_rank_deficient_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = 6
            d = random_hermitian(rng, m)
            v = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
            e = v @ v.conj().T  # rank 4
            lam, alpha = generalized_min_eig(d, e)
            # oracle: eigendecompose pinv-restricted pencil on range(e)
            evals, evecs = np.linalg.eigh(e)
            keep = evals > 1e-8 * evals[-1]
            s = evecs[:, keep] / np.sqrt(evals[keep])
            ref = np.linalg.eigvalsh(s.conj().T @ d @ s)[0]
            assert abs(lam - ref) < 1e-9
            assert abs(alpha.conj() @ e @ alpha - 1.0) < 1e-9
            # (d - lam e) PSD on range(e)
            proj = evecs[:, keep]
            pencil = proj.conj().T @ (d - lam * e) @ proj
            assert np.linalg.eigvalsh((pencil + pencil.conj().T) / 2).min() > -1e-8

    def test_agreement_with_sdp_on_normalized_problems(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = 7
            d = random_hermitian(rng, m)
            v = rng.normal(size=(m, 5)) + 1j * rng.normal(size=(m, 5))
            e = v @ v.conj().T
            basis = gram_basis(e)
            d_tilde = basis.operator(d)
            problem = SdpProblem(
                blocks=[("x", basis.rank)],
                sense="min",
                objective={"x": d_tilde},
                constraints=[SdpConstraint({"x": np.eye(basis.rank, dtype=complex)}, 1.0)],
            )
            sol = solve(problem)
            lam, _alpha = generalized_min_eig(d, e)
            assert sol.status is SolveStatus.OPTIMAL
            assert abs(sol.objective_value - lam) < 1e-7

    def test_zero_gram_rejected(self):
        with pytest.raises(ValueError):
            generalized_min_eig(np.eye(2), np.zeros((2, 2)))


class TestEigenSolution:
    @staticmethod
    def extreme_pair(d_tilde, sense, which=0):
        evals, evecs = np.linalg.eigh(d_tilde)
        k = which if sense == "min" else -1 - which
        return evecs[:, k], evals[k]

    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_certified_and_equal_to_ipm(self, sense, complex_):
        rng = np.random.default_rng(21)
        d_tilde = random_hermitian(rng, 6, complex_)
        vec, value = self.extreme_pair(d_tilde, sense)
        sol = eigen_solution(d_tilde, sense, vec, value)
        ipm = solve(normalized_program(d_tilde, sense))
        assert sol.status is SolveStatus.OPTIMAL and ipm.status is SolveStatus.OPTIMAL
        assert max(sol.primal_residual, sol.dual_residual, sol.gap) <= 1e-10
        assert sol.iterations == 0
        assert abs(sol.objective_value - ipm.objective_value) <= 1e-7
        np.testing.assert_allclose(sol.y, ipm.y, atol=1e-7)
        np.testing.assert_allclose(sol.blocks["state"], ipm.blocks["state"], atol=1e-6)

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_rank_deficient_gram(self, sense):
        rng = np.random.default_rng(22)
        v = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        basis = gram_basis(v @ v.conj().T)
        assert basis.rank == 5
        d_tilde = basis.operator(random_hermitian(rng, 8))
        vec, value = self.extreme_pair(d_tilde, sense)
        sol = eigen_solution(d_tilde, sense, vec, value)
        ipm = solve(normalized_program(d_tilde, sense))
        assert sol.status is SolveStatus.OPTIMAL
        assert max(sol.primal_residual, sol.dual_residual, sol.gap) <= 1e-10
        assert abs(sol.objective_value - ipm.objective_value) <= 1e-7
        np.testing.assert_allclose(sol.y, ipm.y, atol=1e-7)

    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_second_eigenpair_fails_the_dual_check(self, sense, complex_):
        rng = np.random.default_rng(23)
        d_tilde = random_hermitian(rng, 6, complex_)
        vec, value = self.extreme_pair(d_tilde, sense, which=1)
        sol = eigen_solution(d_tilde, sense, vec, value)
        assert sol.status is SolveStatus.NUMERICAL_FAILURE
        assert sol.dual_residual > 1e-8
        assert max(sol.primal_residual, sol.gap) <= 1e-10


class TestGramBasis:
    def test_whitening(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        e = v @ v.conj().T
        basis = gram_basis(e)
        assert basis.rank == 5
        proj = basis.vectors.conj().T @ e @ basis.vectors
        np.testing.assert_allclose(proj, np.eye(5), atol=1e-9)

    def test_state_roundtrip(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        e = v @ v.conj().T  # full rank
        basis = gram_basis(e)
        beta = random_psd(rng, 6)
        beta_t = basis.state(beta)
        # Tr(beta E) = Tr(beta_t) under the state transform
        assert abs(np.trace(beta_t).real - np.trace(beta @ e).real) < 1e-8

    def test_lift_preserves_psd(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(7, 4))
        e = v @ v.T
        basis = gram_basis(e)
        beta_t = random_psd(rng, basis.rank)
        lifted = basis.lift_state(beta_t)
        assert np.linalg.eigvalsh(lifted).min() > -1e-10
