"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full suite takes a few minutes, dominated by the qubit sweeps.
"""

import math
import time

import numpy as np

from paulisdp import models, oracle
from paulisdp.ansatz import build_overlaps, krylov_ansatz, x_string_ansatz
from paulisdp.sdp import SdpConstraint, SdpProblem, SolveStatus, generalized_min_eig, gram_basis, solve
from paulisdp.solvers import (
    ExcitedStatesSolver,
    GroundStateSolver,
    LargestEigenvalueSolver,
    LovaszThetaSolver,
    SymmetrySectorSolver,
    UnambiguousDiscriminator,
    XorGameSolver,
    resolve_seed_state,
    solve_normalized,
    two_state_discrimination_instance,
)
from paulisdp.states import QuantumAnnealingState, ZeroState, prepare


def _report(number: int, description: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{tag} criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_chsh_quantum_value():
    t0 = time.time()
    expected = math.cos(math.pi / 8) ** 2  # = 0.5 + 0.5 * sqrt(2)/2
    game = models.XorGame.chsh()
    direct = XorGameSolver(mode="direct").fit(game)
    ansatz = XorGameSolver(mode="ansatz", seed_state="zero").fit(game)
    elapsed = time.time() - t0
    ok = (
        abs(direct.value_ - expected) < 1e-6
        and abs(ansatz.value_ - expected) < 1e-4
        and elapsed < 10.0
    )
    _report(
        1,
        "CHSH quantum value cos^2(pi/8) in direct and ansatz modes",
        ok,
        f"direct err {abs(direct.value_ - expected):.1e}, "
        f"ansatz err {abs(ansatz.value_ - expected):.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_chsh_classical_oracle():
    game = models.XorGame.chsh()
    value = oracle.classical_xor_value(game.pi, game.f)
    _report(2, "exhaustive classical CHSH value is exactly 0.75", value == 0.75,
            f"value {value}")


def test_criterion_03_lovasz_theta():
    t0 = time.time()
    c5 = LovaszThetaSolver(mode="direct").fit(models.cycle_graph(5))
    ok_c5 = abs(c5.theta_ - math.sqrt(5.0)) < 1e-6

    graph = models.chsh_graph()
    fig = LovaszThetaSolver(mode="direct").fit(graph)
    expected = 2.0 + math.sqrt(2.0)
    ok_fig = abs(fig.theta_ - expected) < 1e-4

    errors = []
    for m in range(1, 9):
        run = LovaszThetaSolver(mode="ansatz", seed_state="zero", n_states=m).fit(graph)
        errors.append(expected - run.theta_)
    ok_sweep = all(hi <= lo + 1e-7 for lo, hi in zip(errors, errors[1:]))
    ok_final = errors[-1] <= 1e-4
    elapsed = time.time() - t0
    ok = ok_c5 and ok_fig and ok_sweep and ok_final and elapsed < 60.0
    _report(
        3,
        "theta(C5)=sqrt5, theta(8-vertex graph)=2+sqrt2, ansatz error non-increasing",
        ok,
        f"c5 err {abs(c5.theta_ - math.sqrt(5)):.1e}, graph err "
        f"{abs(fig.theta_ - expected):.1e}, final sweep err {errors[-1]:.1e}, {elapsed:.0f}s",
    )


def test_criterion_04_nse_ground_state():
    t0 = time.time()
    n = 8
    h = models.ising_hamiltonian(n, 1.0, 1.0)
    exact = float(oracle.spectrum(h).eigenvalues[0])
    seed = resolve_seed_state("annealing", h, layers=4, anneal_time=0.3)

    # monotone error over the K<=2 sweep
    full2 = krylov_ansatz(h, seed, 2)
    overlaps = build_overlaps(full2, objective=h)
    m_grid = sorted(set(np.linspace(1, len(full2), 14, dtype=int).tolist()))
    deltas = []
    for m in m_grid:
        value, _b, status, _s, _basis = solve_normalized(overlaps.restricted(m), method="eig")
        assert status is SolveStatus.OPTIMAL
        deltas.append(value - exact)
    ok_monotone = all(hi <= lo + 1e-9 for lo, hi in zip(deltas, deltas[1:]))
    ok_variational = all(d >= -1e-8 for d in deltas)

    # at Krylov saturation (rank reaches the full Hilbert space) the exact
    # ground state is recovered; for this seed that needs third-order strings
    full3 = krylov_ansatz(h, seed, 3).take(700)
    overlaps3 = build_overlaps(full3, objective=h)
    value3, _b, status3, _s, basis3 = solve_normalized(overlaps3, method="eig")
    ok_saturated = basis3.rank == 2**n and abs(value3 - exact) <= 1e-6

    # exact-match check at small n with the full Krylov closure
    ok_small = True
    for n_small in (4, 6):
        h_small = models.ising_hamiltonian(n_small, 1.0, 1.0)
        gs = GroundStateSolver(seed_state="plus", krylov_order=3).fit(h_small)
        exact_small = float(oracle.spectrum(h_small).eigenvalues[0])
        ok_small = ok_small and abs(gs.energy_ - exact_small) < 1e-8

    elapsed = time.time() - t0
    ok = ok_monotone and ok_variational and ok_saturated and ok_small and elapsed < 300.0
    _report(
        4,
        "NSE: monotone K<=2 sweep, exact at Krylov saturation, 1e-8 match at n<=6",
        ok,
        f"sweep min dE {deltas[-1]:.2e}, saturated dE {abs(value3 - exact):.1e}, "
        f"rank {basis3.rank}, {elapsed:.0f}s",
    )


def test_criterion_05_scaling_collapse():
    t0 = time.time()
    t_grid = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
    fractions = (1.0 / 3.0, 2.0 / 3.0, 1.0)
    best_curves = {}
    for n in (4, 6, 8, 10):
        h = models.ising_hamiltonian(n, 1.0, 1.0)
        exact = float(oracle.spectrum(h).eigenvalues[0])
        hz, hx = models.ising_split(n, 1.0, 1.0)
        best = None
        for t in t_grid:
            seed = QuantumAnnealingState(layers=n // 2, total_time=t, hz=hz, hx=hx)
            state = prepare(seed, n)
            delta_qa = (
                sum((c * state.expectation(s)).real for c, s in h.terms()) - exact
            )
            full = krylov_ansatz(h, seed, 1)
            overlaps = build_overlaps(full.take(min(3 * n, len(full))), objective=h)
            curve = []
            for f in fractions:
                m = max(1, round(f * 3 * n))
                value, _b, _st, _s, _bs = solve_normalized(
                    overlaps.restricted(m), method="eig"
                )
                curve.append(delta_qa / max(value - exact, 1e-16))
            if best is None or curve[-1] > best[1][-1]:
                best = (t, curve)
        best_curves[n] = best

    ok_ratio = all(curve[-1] > 3.0 for _t, curve in best_curves.values())
    ok_collapse = True
    for i in range(len(fractions)):
        vals = np.array([best_curves[n][1][i] for n in best_curves])
        rel = np.abs(vals - vals.mean()) / vals.mean()
        ok_collapse = ok_collapse and float(rel.max()) <= 0.5
    elapsed = time.time() - t0
    ok = ok_ratio and ok_collapse and elapsed < 1800.0
    detail = ", ".join(
        f"N={n}: T={t}, ratio(M*=1)={curve[-1]:.2f}" for n, (t, curve) in best_curves.items()
    )
    _report(5, "annealing-improvement ratio > 3 at M*=1 and +-50% collapse", ok,
            detail + f", {elapsed:.0f}s")


def test_criterion_06_largest_eigenvalue():
    t0 = time.time()
    n, n_terms, n_seeds = 10, 8, 20
    m_grid = [2, 4, 8, 16, 32]
    deltas = {m: [] for m in m_grid}
    saturated = []
    for seed in range(n_seeds):
        c = models.random_pauli_operator(n, n_terms, seed=seed)
        exact = float(np.linalg.eigvalsh(c.matrix())[-1])
        full = krylov_ansatz(c, ZeroState(), 8)
        overlaps = build_overlaps(full, objective=c)
        for m in m_grid:
            value, _b, _st, _s, _bs = solve_normalized(
                overlaps.restricted(m), sense="max", method="eig"
            )
            deltas[m].append(max(exact - value, 1e-16))
        value, _b, _st, _s, _bs = solve_normalized(overlaps, sense="max", method="eig")
        saturated.append(exact - value)
    means = [float(np.mean(deltas[m])) for m in m_grid]
    ok_decreasing = all(hi < lo for lo, hi in zip(means, means[1:]))
    slope = float(np.polyfit(np.log(m_grid), np.log(means), 1)[0])
    ok_slope = -1.1 <= slope <= -0.45
    ok_saturated = max(saturated) <= 1e-6

    big = models.random_pauli_operator(1000, 8, seed=0)
    t_big = time.time()
    big_solver = LargestEigenvalueSolver(seed_state="zero", krylov_order=8).fit(big)
    big_elapsed = time.time() - t_big
    ok_big = (
        big_solver.status_ is SolveStatus.OPTIMAL
        and big_solver.solution_.dual_residual <= 1e-7
        and big_elapsed < 600.0
    )
    elapsed = time.time() - t0
    ok = ok_decreasing and ok_slope and ok_saturated and ok_big
    _report(
        6,
        "largest-eigenvalue error slope and saturation; 1000-qubit product run",
        ok,
        f"slope {slope:.2f}, saturated max dL {max(saturated):.1e}, "
        f"N=1000 dual {big_solver.solution_.dual_residual:.1e} in {big_elapsed:.0f}s, "
        f"total {elapsed:.0f}s",
    )


def test_criterion_07_excited_states():
    h = models.ising_hamiltonian(4, 1.0, 1.0)
    solver = ExcitedStatesSolver(
        n_excited=3, seed_state="random", circuit_seed=3, krylov_order=3
    ).fit(h)
    exact = oracle.spectrum(h).eigenvalues[:4]
    ok_energies = (
        len(solver.energies_) == 4
        and float(np.max(np.abs(np.array(solver.energies_) - exact))) <= 1e-7
    )
    ok_orth = float(solver.orthogonality_residuals_.max()) <= 1e-7
    _report(
        7,
        "four lowest Ising N=4 levels within 1e-7 with orthogonal states",
        ok_energies and ok_orth,
        f"max energy err {float(np.max(np.abs(np.array(solver.energies_) - exact))):.1e}, "
        f"max overlap {float(solver.orthogonality_residuals_.max()):.1e}",
    )


def test_criterion_08_symmetry_sectors():
    n = 6
    h_ti = models.ising_hamiltonian(n, g=0.0, h=1.0)
    parity = models.spin_flip_parity(n)
    ok = True
    details = []
    for sector in (1.0, -1.0):
        run = SymmetrySectorSolver(
            symmetry=parity, sector_value=sector, seed_state="random",
            circuit_seed=1, krylov_order=3, n_states=120,
        ).fit(h_ti)
        ref = oracle.sector_minimum(h_ti, parity, sector)
        ok = ok and run.status_ is SolveStatus.OPTIMAL and abs(run.energy_ - ref) <= 1e-6
        details.append(f"P={sector:+.0f} err {abs(run.energy_ - ref):.1e}")

    h_he = models.heisenberg_hamiltonian(n, h=1.0)
    mag = models.magnetization(n)
    for q in (0.0, 2.0, 4.0, 6.0):
        run = SymmetrySectorSolver(
            symmetry=mag, sector_value=q, seed_state="random",
            circuit_seed=1, krylov_order=2, n_states=120,
        ).fit(h_he)
        ref = oracle.sector_minimum(h_he, mag, q)
        ok = ok and run.status_ is SolveStatus.OPTIMAL and abs(run.energy_ - ref) <= 1e-6
        details.append(f"q={q:+.0f} err {abs(run.energy_ - ref):.1e}")

    small = SymmetrySectorSolver(
        symmetry=mag, sector_value=6.0, seed_state="random",
        circuit_seed=1, krylov_order=2, n_states=6,
    ).fit(h_he)
    ok_infeasible = small.status_ is SolveStatus.INFEASIBLE and math.isnan(small.energy_)
    details.append(f"q=6 at M=6: {small.status_.value}")
    _report(8, "sector minima within 1e-6 at full M; clean infeasible at small M",
            ok and ok_infeasible, "; ".join(details))


def test_criterion_09_discrimination():
    angles = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
    ok = True
    details = []
    for phi in angles:
        inst = two_state_discrimination_instance(angle=phi, n_qubits=5, n_strings=10, seed=2)
        disc = UnambiguousDiscriminator(error_budget=0.0).fit(inst)
        expected = 1.0 - math.cos(phi)
        book = disc.q_correct_ + disc.q_unknown_ + float(disc.error_rates_.mean())
        ok = (
            ok
            and disc.status_ is SolveStatus.OPTIMAL
            and abs(disc.q_correct_ - expected) <= 1e-3
            and abs(book - 1.0) <= 1e-7
        )
        details.append(f"phi={phi:.2f} err {abs(disc.q_correct_ - expected):.1e}")
    previous = None
    for eps in (0.0, 0.02, 0.05, 0.1):
        inst = two_state_discrimination_instance(
            angle=math.pi / 4, n_qubits=4, n_strings=8, seed=5, error_budget=eps
        )
        disc = UnambiguousDiscriminator(error_budget=eps).fit(inst)
        if previous is not None:
            ok = ok and disc.q_correct_ >= previous - 1e-7
        previous = disc.q_correct_
    _report(9, "Q_correct = 1 - cos(phi) at eps=0; bookkeeping; monotone in eps",
            ok, "; ".join(details))


def test_criterion_10_solver_suite():
    rng = np.random.default_rng(7)
    checked = 0
    worst_residual = 0.0
    worst_gap = 0.0
    for _ in range(200):
        n_blocks = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 13)) for _ in range(n_blocks)]
        m = int(rng.integers(1, 7))
        n_ineq = int(rng.integers(0, min(m, 3) + 1))
        complex_ = bool(rng.integers(0, 2))
        names = [f"b{k}" for k in range(n_blocks)]

        def rand_herm(d):
            a = rng.normal(size=(d, d))
            if complex_:
                a = a + 1j * rng.normal(size=(d, d))
            return (a + a.conj().T) / 2.0

        x_feas = {}
        for name, d in zip(names, dims):
            g = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_ else 0.0)
            x_feas[name] = g @ g.conj().T + 0.5 * np.eye(d)
        a_list = [{name: rand_herm(d) for name, d in zip(names, dims)} for _ in range(m)]
        y0 = rng.normal(size=m)
        y0[:n_ineq] = -np.abs(y0[:n_ineq])
        c = {}
        for name, d in zip(names, dims):
            g = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_ else 0.0)
            c[name] = sum(y0[i] * a_list[i][name] for i in range(m)) + g @ g.conj().T + 0.5 * np.eye(d)
        constraints = []
        for i in range(m):
            rhs = sum(np.trace(a_list[i][name] @ x_feas[name]).real for name in names)
            if i < n_ineq:
                constraints.append(SdpConstraint(a_list[i], rhs + abs(rng.normal()), "<="))
            else:
                constraints.append(SdpConstraint(a_list[i], rhs, "="))
        problem = SdpProblem(
            blocks=list(zip(names, dims)), sense="min", objective=c, constraints=constraints
        )
        sol = solve(problem)
        assert sol.status is SolveStatus.OPTIMAL, f"instance {checked} not optimal"
        worst_residual = max(worst_residual, sol.primal_residual, sol.dual_residual)
        worst_gap = max(worst_gap, sol.gap)
        checked += 1
    ok_random = checked == 200 and worst_residual <= 1e-7 and worst_gap <= 1e-7

    # generalized-eigenvalue shortcut agrees with the SDP route
    worst_agree = 0.0
    for k in range(20):
        m_dim = 7
        a = rng.normal(size=(m_dim, m_dim)) + 1j * rng.normal(size=(m_dim, m_dim))
        d_mat = (a + a.conj().T) / 2.0
        v = rng.normal(size=(m_dim, 5)) + 1j * rng.normal(size=(m_dim, 5))
        e_mat = v @ v.conj().T
        basis = gram_basis(e_mat)
        problem = SdpProblem(
            blocks=[("s", basis.rank)],
            sense="min",
            objective={"s": basis.operator(d_mat)},
            constraints=[SdpConstraint({"s": np.eye(basis.rank, dtype=complex)}, 1.0)],
        )
        sol = solve(problem)
        lam, _alpha = generalized_min_eig(d_mat, e_mat)
        worst_agree = max(worst_agree, abs(sol.objective_value - lam))
    ok_agree = worst_agree <= 1e-7
    _report(
        10,
        "200 random multi-block SDPs: KKT residuals and gap <= 1e-7; eig agreement",
        ok_random and ok_agree,
        f"worst residual {worst_residual:.1e}, worst gap {worst_gap:.1e}, "
        f"worst eig gap {worst_agree:.1e}",
    )


def test_criterion_11_shot_noise():
    h = models.ising_hamiltonian(4, 1.0, 1.0)
    ansatz = x_string_ansatz(4, ZeroState()).take(4)
    exact_overlaps = build_overlaps(ansatz, objective=h)
    v_exact, _b, _st, _s, _bs = solve_normalized(exact_overlaps, method="eig")
    rmse = {}
    for shots in (100, 1000, 10_000):
        errs = []
        for seed in range(50):
            noisy = build_overlaps(ansatz, objective=h, shots=shots, sample_seed=seed)
            v, _b, _st, _s, _bs = solve_normalized(noisy, method="eig")
            errs.append(v - v_exact)
        rmse[shots] = float(np.sqrt(np.mean(np.square(errs))))
    log_c = np.mean([math.log(r) + 0.5 * math.log(s) for s, r in rmse.items()])
    c = math.exp(log_c)
    ratios = {s: r / (c / math.sqrt(s)) for s, r in rmse.items()}
    ok = all(0.5 <= v <= 2.0 for v in ratios.values())
    _report(
        11,
        "sampled-overlap energy RMSE follows c * shots^(-1/2) within factor 2",
        ok,
        ", ".join(f"shots={s}: x{v:.2f}" for s, v in ratios.items()),
    )


def test_criterion_12_hybrid_density_matrix():
    rng = np.random.default_rng(12)
    h = models.ising_hamiltonian(4, 1.0, 1.0)
    seed = resolve_seed_state("random", h, layers=3, circuit_seed=12)
    ansatz = krylov_ansatz(h, seed, 1).take(6)
    overlaps = build_overlaps(ansatz)
    gram = overlaps.gram
    basis = gram_basis(gram)
    psi = prepare(seed, 4).amplitudes
    vectors = np.stack([s.matrix() @ psi for s in ansatz.strings], axis=1)

    ok_psd_case = True
    for _ in range(100):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        beta = a @ a.conj().T
        beta /= np.trace(beta @ gram).real
        x = vectors @ beta @ vectors.conj().T
        lam_min = float(np.linalg.eigvalsh((x + x.conj().T) / 2).min())
        trace = float(np.trace(x).real)
        ok_psd_case = ok_psd_case and lam_min >= -1e-9 and abs(trace - 1.0) <= 1e-9

    ok_indefinite_case = True
    checked = 0
    projector = basis.raw_vectors @ basis.raw_vectors.conj().T
    for _ in range(100):
        beta = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        beta = (beta + beta.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(beta)
        if evals[0] >= 0:
            continue
        v_neg = evecs[:, 0]
        if np.linalg.norm((np.eye(6) - projector) @ v_neg) > 1e-8:
            continue  # negative direction leaks outside the regularized span
        checked += 1
        x = vectors @ beta @ vectors.conj().T
        lam_min = float(np.linalg.eigvalsh((x + x.conj().T) / 2).min())
        ok_indefinite_case = ok_indefinite_case and lam_min < 0.0
    ok = ok_psd_case and ok_indefinite_case and checked >= 50
    _report(
        12,
        "hybrid density matrix PSD/trace iff coefficient matrix PSD/normalized",
        ok,
        f"{checked} indefinite cases exercised",
    )
