import math
import re

import numpy as np
import pytest

from paulisdp import models, oracle, sdp, solvers
from paulisdp.pauli import PauliString, PauliSum, SettingError
from paulisdp.sdp import SolveStatus, generalized_min_eig
from paulisdp.solvers import (
    ExcitedStatesSolver,
    GroundStateSolver,
    LargestEigenvalueSolver,
    LovaszThetaSolver,
    RankOneReducer,
    SymmetrySectorSolver,
    UnambiguousDiscriminator,
    XorGameSolver,
    energy_sweep,
    gram_cut,
    resolve_seed_state,
    solve_normalized,
    two_state_discrimination_instance,
)
from paulisdp.ansatz import OverlapSet, build_overlaps, krylov_ansatz
from paulisdp.states import HardwareEfficientCircuit, PlusState, ZeroState, prepare

from elementary import basis_state_projector, hermitian_elementary


_KRYLOV_PARAMS = dict(
    krylov_order=2, n_states=None, layers=4, anneal_time=0.3, circuit_seed=0, mode="exact",
    shots=1024, sample_seed=0, rank_tol=None,
)
_X_STRING_PARAMS = dict(
    mode="direct", seed_state="zero", n_states=None, layers=4, circuit_seed=0, rank_tol=None,
    tol_feas=1e-9, tol_gap=1e-9, max_iter=200,
)
_IPM_TOLERANCES = dict(tol_feas=1e-8, tol_gap=1e-8, max_iter=200)


class TestEstimatorApi:
    @pytest.mark.parametrize(
        "solver_class, params",
        [
            (GroundStateSolver,
             dict(seed_state="plus", **_KRYLOV_PARAMS, **_IPM_TOLERANCES, method="eig")),
            (LargestEigenvalueSolver,
             dict(seed_state="zero", **_KRYLOV_PARAMS, **_IPM_TOLERANCES, method="eig")),
            (ExcitedStatesSolver,
             dict(n_excited=3, seed_state="plus", **_KRYLOV_PARAMS, tol_feas=1e-8, tol_gap=1e-8)),
            (SymmetrySectorSolver,
             dict(symmetry="magnetization", sector_value=0.0, seed_state="random",
                  **_KRYLOV_PARAMS, tol_feas=1e-8, tol_gap=1e-8)),
            (RankOneReducer, dict(seed_state="zero", **_KRYLOV_PARAMS)),
            (LovaszThetaSolver, _X_STRING_PARAMS),
            (XorGameSolver, _X_STRING_PARAMS),
            (UnambiguousDiscriminator,
             dict(error_budget=0.0, rank_tol=None, **_IPM_TOLERANCES)),
        ],
    )
    def test_params_names_and_defaults(self, solver_class, params):
        solver = solver_class()
        assert solver.get_params() == params
        assert repr(solver).startswith(f"{solver_class.__name__}(")
        # keyword-only settings; solvers compare and hash by identity
        with pytest.raises(TypeError):
            solver_class(*params.values())
        assert solver != solver_class() and len({solver, solver_class()}) == 2

    def test_get_set_params_roundtrip(self):
        solver = GroundStateSolver(krylov_order=3, n_states=7)
        params = solver.get_params()
        assert params["krylov_order"] == 3
        assert params["n_states"] == 7
        clone = GroundStateSolver().set_params(**params)
        assert clone.get_params() == params

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            GroundStateSolver().set_params(bogus=1)

    def test_repr_shows_params(self):
        assert "krylov_order=2" in repr(GroundStateSolver())

    def test_fit_returns_self(self):
        h = models.ising_hamiltonian(3)
        solver = GroundStateSolver(seed_state="plus", krylov_order=1)
        assert solver.fit(h) is solver


class TestGroundState:
    def test_single_state_is_seed_expectation(self):
        h = models.ising_hamiltonian(4)
        solver = GroundStateSolver(seed_state="plus", krylov_order=0).fit(h)
        state = prepare(PlusState(), 4).to_dense()
        expected = sum(
            (c * state.expectation(s)).real for c, s in h.terms()
        )
        assert abs(solver.energy_ - expected) < 1e-9

    def test_full_ansatz_reaches_exact_minimum(self):
        h = models.ising_hamiltonian(4, 1.0, 1.0)
        solver = GroundStateSolver(seed_state="plus", krylov_order=2).fit(h)
        exact = oracle.spectrum(h).eigenvalues[0]
        assert abs(solver.energy_ - exact) < 1e-8

    def test_monotone_in_ansatz_size_and_variational(self):
        h = models.ising_hamiltonian(5, 1.0, 1.0)
        rows = energy_sweep(h, "plus", 2, m_values=range(1, 16, 2))
        energies = [value for _m, value, _s, _dual in rows]
        exact = oracle.spectrum(h).eigenvalues[0]
        for lo, hi in zip(energies, energies[1:]):
            assert hi <= lo + 1e-9
        for e in energies:
            assert e >= exact - 1e-8

    def test_beta_is_density_coefficient_matrix(self):
        h = models.ising_hamiltonian(3)
        solver = GroundStateSolver(seed_state="random", circuit_seed=2, krylov_order=1).fit(h)
        beta = solver.beta_
        gram = solver.overlaps_.gram
        assert np.linalg.eigvalsh(beta).min() > -1e-8
        assert abs(np.trace(beta @ gram).real - 1.0) < 1e-7
        assert abs(np.trace(beta @ solver.overlaps_.objective).real - solver.energy_) < 1e-7

    def test_sdp_and_eig_methods_agree(self):
        h = models.ising_hamiltonian(4, 1.0, 1.0)
        for seed in ("plus", "random"):
            a = GroundStateSolver(
                seed_state=seed, krylov_order=1, circuit_seed=1, method="sdp"
            ).fit(h)
            b = GroundStateSolver(
                seed_state=seed, krylov_order=1, circuit_seed=1, method="eig"
            ).fit(h)
            assert abs(a.energy_ - b.energy_) < 1e-7

    def test_annealing_seed(self):
        h = models.ising_hamiltonian(4, 1.0, 1.0)
        solver = GroundStateSolver(
            seed_state="annealing", layers=4, anneal_time=0.3, krylov_order=1
        ).fit(h)
        exact = oracle.spectrum(h).eigenvalues[0]
        seed_energy = GroundStateSolver(
            seed_state="annealing", layers=4, anneal_time=0.3, krylov_order=0
        ).fit(h).energy_
        assert exact - 1e-9 <= solver.energy_ <= seed_energy + 1e-9

    def test_rejects_non_hermitian(self):
        bad = PauliSum.from_terms([(1j, PauliString.from_label("XII"))])
        with pytest.raises(ValueError):
            GroundStateSolver().fit(bad)

    @pytest.mark.parametrize("solver_class", [GroundStateSolver, LargestEigenvalueSolver])
    def test_bad_method_fails_before_measuring(self, monkeypatch, solver_class):
        def unmeasured(*_args, **_kwargs):
            raise AssertionError("overlaps measured before the method was checked")

        monkeypatch.setattr("paulisdp.solvers.build_overlaps", unmeasured)
        h = models.ising_hamiltonian(4)
        with pytest.raises(ValueError, match="method must be"):
            solver_class(method="eigh").fit(h)
        with pytest.raises(ValueError, match="method must be"):
            energy_sweep(h, "plus", 1, [2], method="eigh")
        with pytest.raises(ValueError, match="sense must be"):
            energy_sweep(h, "plus", 1, [2], sense="maximum")

    @pytest.mark.parametrize("settings, message", [
        (dict(n_states=3.7), "n_states must be a positive integer, got 3.7"),
        (dict(n_states=True), "n_states must be a positive integer, got True"),
        (dict(n_states=0), "n_states must be a positive integer, got 0"),
        (dict(mode="shots", shots=99.9), "shots must be a positive integer, got 99.9"),
        (dict(mode="shots", shots=True), "shots must be a positive integer, got True"),
        (dict(method="sdp", max_iter=0), "max_iter must be a positive integer, got 0"),
    ])
    def test_rejects_counts_that_are_not_positive_integers(self, settings, message):
        # these used to be truncated (3.7 strings measured 3, 99.9 shots drew 99)
        with pytest.raises(ValueError, match=re.escape(message)):
            GroundStateSolver(seed_state="plus", krylov_order=2, **settings).fit(
                models.ising_hamiltonian(4))

    @pytest.mark.parametrize("sample_seed", [1.5, True, 2**63, -(2**63) - 1, 2**70, "3"])
    def test_rejects_sample_seeds_outside_eight_signed_bytes(self, sample_seed):
        # 1.5 used to raise AttributeError and 2**70 OverflowError; True drew seed 1
        message = f"sample_seed must be an integer in [-2**63, 2**63), got {sample_seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GroundStateSolver(seed_state="plus", krylov_order=2, mode="shots",
                              sample_seed=sample_seed).fit(models.ising_hamiltonian(4))

    def test_sample_seeds_at_the_range_ends_and_numpy_integers(self):
        h = models.ising_hamiltonian(4)
        settings = dict(seed_state="plus", krylov_order=2, mode="shots")
        assert (GroundStateSolver(**settings, sample_seed=np.int64(3)).fit(h).energy_
                == GroundStateSolver(**settings, sample_seed=3).fit(h).energy_)
        for sample_seed in (2**63 - 1, -(2**63)):
            fit = GroundStateSolver(**settings, sample_seed=sample_seed).fit(h)
            assert fit.overlaps_.sample_seed == sample_seed and math.isfinite(fit.energy_)

    def test_counts_accept_numpy_integers(self):
        h = models.ising_hamiltonian(4)
        settings = dict(seed_state="plus", krylov_order=2, mode="shots", sample_seed=1)
        a = GroundStateSolver(**settings, n_states=np.int64(5), shots=np.int64(300)).fit(h)
        b = GroundStateSolver(**settings, n_states=5, shots=300).fit(h)
        assert len(a.ansatz_) == 5 and a.energy_ == b.energy_

    def test_empty_sweep_is_rejected(self):
        with pytest.raises(ValueError, match="m_values must be a non-empty list"):
            energy_sweep(models.ising_hamiltonian(4), "plus", 1, [])


class TestLargestEigenvalue:
    def test_single_state_zero_seed(self):
        c = models.random_pauli_operator(5, 6, seed=0)
        solver = LargestEigenvalueSolver(seed_state="zero", krylov_order=0).fit(c)
        state = prepare(ZeroState(), 5)
        expected = sum((w * state.expectation(s)).real for w, s in c.terms())
        assert abs(solver.eigenvalue_ - expected) < 1e-10

    def test_saturated_krylov_reaches_exact(self):
        c = models.random_pauli_operator(6, 6, seed=3)
        solver = LargestEigenvalueSolver(seed_state="zero", krylov_order=6).fit(c)
        exact = oracle.spectrum(c).eigenvalues[-1]
        assert abs(solver.eigenvalue_ - exact) < 1e-7

    def test_upper_bounded_by_exact(self):
        c = models.random_pauli_operator(6, 8, seed=1)
        exact = oracle.spectrum(c).eigenvalues[-1]
        for order in (0, 1, 2):
            solver = LargestEigenvalueSolver(seed_state="zero", krylov_order=order).fit(c)
            assert solver.eigenvalue_ <= exact + 1e-8

    def test_product_backend_large_n(self):
        c = models.random_pauli_operator(64, 8, seed=7)
        solver = LargestEigenvalueSolver(
            seed_state="zero", krylov_order=2, n_states=24
        ).fit(c)
        assert solver.status_ is SolveStatus.OPTIMAL
        assert solver.solution_.dual_residual <= 1e-7

    def test_eig_default_matches_sdp_cross_check(self):
        c = models.random_pauli_operator(64, 8, seed=7)
        fits = {
            method: LargestEigenvalueSolver(
                seed_state="zero", krylov_order=2, n_states=24, **kwargs
            ).fit(c)
            for method, kwargs in (("eig", {}), ("sdp", {"method": "sdp"}))
        }
        assert fits["eig"].solution_.iterations == 0 < fits["sdp"].solution_.iterations
        for solver in fits.values():
            assert solver.status_ is SolveStatus.OPTIMAL
            assert solver.solution_.dual_residual <= 1e-7
        assert abs(fits["eig"].eigenvalue_ - fits["sdp"].eigenvalue_) <= 1e-7
        np.testing.assert_allclose(fits["eig"].solution_.y, fits["sdp"].solution_.y, atol=1e-7)


class TestExcitedStates:
    def test_count_zero_equals_ground(self):
        h = models.ising_hamiltonian(4)
        ground = GroundStateSolver(seed_state="plus", krylov_order=2).fit(h)
        ex = ExcitedStatesSolver(n_excited=0, seed_state="plus", krylov_order=2).fit(h)
        assert len(ex.energies_) == 1
        assert abs(ex.energies_[0] - ground.energy_) < 1e-9

    def test_four_lowest_levels(self):
        h = models.ising_hamiltonian(4, 1.0, 1.0)
        ex = ExcitedStatesSolver(
            n_excited=3, seed_state="random", circuit_seed=3, krylov_order=3
        ).fit(h)
        exact = oracle.spectrum(h).eigenvalues[:4]
        assert len(ex.energies_) == 4
        np.testing.assert_allclose(ex.energies_, exact, atol=1e-7)
        assert ex.orthogonality_residuals_.max() <= 1e-7

    def test_energies_non_decreasing(self):
        h = models.heisenberg_hamiltonian(4)
        ex = ExcitedStatesSolver(
            n_excited=4, seed_state="random", circuit_seed=1, krylov_order=2
        ).fit(h)
        for lo, hi in zip(ex.energies_, ex.energies_[1:]):
            assert hi >= lo - 1e-7

    def test_exhaustion_reports_infeasible(self):
        h = models.ising_hamiltonian(3)
        # rank-1 ansatz space: only the seed state itself
        ex = ExcitedStatesSolver(n_excited=1, seed_state="plus", krylov_order=0)
        with pytest.raises(ValueError):
            ex.fit(h)
        ex = ExcitedStatesSolver(n_excited=2, seed_state="plus", krylov_order=1, n_states=3)
        ex.fit(h)
        assert len(ex.statuses_) >= len(ex.energies_)

    def test_negative_level_count_is_rejected(self):
        ex = ExcitedStatesSolver(n_excited=-2, seed_state="plus", krylov_order=1)
        with pytest.raises(ValueError, match="n_excited must be an integer >= 0, got -2"):
            ex.fit(models.ising_hamiltonian(3))

    def test_levels_past_gram_rank_are_infeasible(self):
        # X_i |+> = |+>, so the X strings add no direction: Gram rank < M
        h = models.ising_hamiltonian(3)
        ex = ExcitedStatesSolver(n_excited=6, seed_state="plus", krylov_order=1, n_states=7)
        ex.fit(h)
        assert ex.rank_ < 7
        assert len(ex.energies_) == ex.rank_
        assert ex.statuses_ == [SolveStatus.OPTIMAL] * ex.rank_ + [SolveStatus.INFEASIBLE]


class TestSymmetrySector:
    def test_rejects_non_commuting(self):
        h = models.ising_hamiltonian(4, g=1.0, h=1.0)  # g term breaks X parity
        solver = SymmetrySectorSolver(symmetry="parity", sector_value=1.0)
        with pytest.raises(ValueError, match="commute"):
            solver.fit(h)

    def test_heisenberg_q0_full_matches_oracle(self):
        h = models.heisenberg_hamiltonian(4)
        mag = models.magnetization(4)
        solver = SymmetrySectorSolver(
            symmetry="magnetization", sector_value=0.0, seed_state="random",
            circuit_seed=5, krylov_order=3,
        ).fit(h)
        assert solver.status_ is SolveStatus.OPTIMAL
        assert abs(solver.energy_ - oracle.sector_minimum(h, mag, 0.0)) < 1e-6

    def test_sector_bound_above_unconstrained(self):
        h = models.ising_hamiltonian(4, g=0.0, h=1.0)
        unconstrained = GroundStateSolver(
            seed_state="random", circuit_seed=2, krylov_order=2
        ).fit(h)
        sector = SymmetrySectorSolver(
            symmetry="parity", sector_value=-1.0, seed_state="random",
            circuit_seed=2, krylov_order=2,
        ).fit(h)
        assert sector.energy_ >= unconstrained.energy_ - 1e-7

    def test_small_ansatz_infeasible_not_wrong(self):
        h = models.heisenberg_hamiltonian(4)
        solver = SymmetrySectorSolver(
            symmetry="magnetization", sector_value=4.0, seed_state="random",
            circuit_seed=1, krylov_order=0,
        ).fit(h)
        assert solver.status_ is SolveStatus.INFEASIBLE
        assert not solver.feasible_
        assert math.isnan(solver.energy_)

    def test_beta_respects_constraints(self):
        h = models.heisenberg_hamiltonian(4)
        solver = SymmetrySectorSolver(
            symmetry="magnetization", sector_value=2.0, seed_state="random",
            circuit_seed=5, krylov_order=3,
        ).fit(h)
        assert solver.status_ is SolveStatus.OPTIMAL
        r = solver.overlaps_.constraints["symmetry"]
        t = solver.overlaps_.constraints["symmetry_sq"]
        assert abs(np.trace(solver.beta_ @ r).real - 2.0) < 1e-6
        assert abs(np.trace(solver.beta_ @ t).real - 4.0) < 1e-6

    @staticmethod
    def _span_sector_minimum(solver, hamiltonian, symmetry, sector):
        """Lowest energy on the ansatz span intersected with the S = s eigenspace.

        Built from statevectors alone: no overlaps, no SDP.  The intersection
        is spanned by the principal vectors at angle zero.
        """
        psi = prepare(solver.ansatz_.seed, hamiltonian.n_qubits).amplitudes
        states = np.stack([p.apply(psi) for p in solver.ansatz_.strings], axis=1)
        u, sv, _ = np.linalg.svd(states, full_matrices=False)
        span = u[:, sv > 1e-12 * sv[0]]
        s_diag = np.diag(symmetry.matrix()).real
        eigenspace = np.eye(s_diag.size)[:, np.abs(s_diag - sector) < 1e-9]
        left, cosines, _ = np.linalg.svd(span.conj().T @ eigenspace, full_matrices=False)
        both = span @ left[:, cosines > 1 - 1e-9]
        return np.linalg.eigvalsh(both.conj().T @ hamiltonian.matrix() @ both)[0]

    @pytest.mark.parametrize(
        "sector, reference",
        [(0.0, -10.44620549201716), (2.0, -8.11774113445635), (4.0, -0.5625446708535089)],
    )
    def test_sector_minimum_on_the_ansatz_span(self, sector, reference):
        h = models.heisenberg_hamiltonian(6)
        solver = SymmetrySectorSolver(
            symmetry="magnetization", sector_value=sector, seed_state="random",
            circuit_seed=1, krylov_order=2, n_states=60,
        ).fit(h)
        expected = self._span_sector_minimum(solver, h, models.magnetization(6), sector)
        assert expected == pytest.approx(reference, abs=1e-9)
        assert solver.status_ is SolveStatus.OPTIMAL
        assert abs(solver.energy_ - expected) < 1e-8

    def test_exact_sector_fits_make_no_interior_point_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr("paulisdp.solvers.solve", lambda *a, **k: calls.append(a))
        h = models.heisenberg_hamiltonian(4)
        for sector in (0.0, 2.0, 4.0):
            solver = SymmetrySectorSolver(
                symmetry="magnetization", sector_value=sector, circuit_seed=5, krylov_order=3,
            ).fit(h)
            assert solver.solution_.status is solver.status_
        assert calls == []

    def test_sampled_sector_solves_the_measured_equalities(self, monkeypatch):
        # Sampled overlaps leave the whitened (S - s)^2 indefinite here, so
        # its kernel is no feasible set and the equalities go to the IPM.
        calls = []
        real_solve = solvers.solve
        monkeypatch.setattr(solvers, "solve", lambda *a, **k: calls.append(a) or real_solve(*a, **k))
        solver = SymmetrySectorSolver(sector_value=0.0, mode="shots", shots=10**6).fit(
            models.heisenberg_hamiltonian(4)
        )
        assert len(calls) == 1
        assert solver.status_ is SolveStatus.OPTIMAL and solver.feasible_
        assert abs(solver.energy_ - (-8.0)) < 1e-2
        r = solver.overlaps_.constraints["symmetry"]
        t = solver.overlaps_.constraints["symmetry_sq"]
        assert abs(np.trace(solver.beta_ @ r).real) <= 1e-8
        assert abs(np.trace(solver.beta_ @ t).real) <= 1e-8

    @pytest.mark.parametrize("offset", [0.0, 1e-6])
    def test_status_follows_the_pinned_residuals(self, monkeypatch, offset):
        # Shifting the measured <S> matrix by offset * Gram moves Tr(beta R)
        # by offset and leaves the s = 0 spread, and so its kernel, as it is.
        measure = SymmetrySectorSolver._measure

        def shifted(self, *args, **kwargs):
            ansatz, overlaps = measure(self, *args, **kwargs)
            overlaps.constraints["symmetry"] = overlaps.constraints["symmetry"] + offset * overlaps.gram
            return ansatz, overlaps

        monkeypatch.setattr(SymmetrySectorSolver, "_measure", shifted)
        solver = SymmetrySectorSolver(sector_value=0.0, circuit_seed=5, krylov_order=3).fit(
            models.heisenberg_hamiltonian(4)
        )
        sol = solver.solution_
        if offset == 0.0:
            assert solver.status_ is SolveStatus.OPTIMAL and solver.feasible_
            assert sol.primal_residual <= 1e-8
            r = solver.overlaps_.constraints["symmetry"]
            t = solver.overlaps_.constraints["symmetry_sq"]
            assert abs(np.trace(solver.beta_ @ r).real) <= 2e-8
            assert abs(np.trace(solver.beta_ @ t).real) <= 2e-8
        else:
            assert solver.status_ is SolveStatus.NUMERICAL_FAILURE and not solver.feasible_
            assert sol.primal_residual == pytest.approx(offset / 2.0, rel=1e-6)
            assert math.isnan(solver.energy_) and solver.beta_ is None


def _same(a, b) -> bool:
    """Bit-for-bit equality of results, None and NaN included."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b, equal_nan=True)


def _same_solution(a, b) -> bool:
    return a.status is b.status and all(
        _same(getattr(a, k), getattr(b, k))
        for k in ("objective_value", "primal_residual", "dual_residual", "gap")
    )


class TestFitOverlaps:
    """Solving a prefix slice of one measurement is a fresh fit at that size, bit for bit."""

    _SEAM_CASES = [
        (GroundStateSolver, dict(seed_state="random", krylov_order=2),
         models.ising_hamiltonian(4, 1.0, 1.0), (1, 7, 20)),
        (LargestEigenvalueSolver, dict(seed_state="zero", krylov_order=2),
         models.random_pauli_operator(5, 6, seed=0), (1, 9, 22)),
        (ExcitedStatesSolver, dict(n_excited=2, seed_state="random", krylov_order=2),
         models.heisenberg_hamiltonian(4), (3, 12, 30)),
        (SymmetrySectorSolver, dict(sector_value=0.0, circuit_seed=5, krylov_order=3),
         models.heisenberg_hamiltonian(4), (2, 18, 40)),
        (SymmetrySectorSolver, dict(symmetry="parity", sector_value=-1.0, krylov_order=2),
         models.ising_hamiltonian(4, g=0.0, h=1.0), (2, 11, 20)),
    ]

    @staticmethod
    def _results(solver) -> dict:
        if isinstance(solver, ExcitedStatesSolver):
            return {"energies_": solver.energies_, "betas_": solver.betas_,
                    "statuses_": solver.statuses_, "rank_": solver.rank_,
                    "orthogonality_residuals_": solver.orthogonality_residuals_}
        results = {"beta_": solver.beta_, "status_": solver.status_, "rank_": solver.rank_,
                   "value": solver.solution_.objective_value}
        if isinstance(solver, SymmetrySectorSolver):
            results.update(energy_=solver.energy_, feasible_=solver.feasible_)
        else:
            results[solver._value_name] = getattr(solver, solver._value_name)
        return results

    @pytest.mark.parametrize("mode", ["exact", "shots"])
    @pytest.mark.parametrize("solver_class, settings, hamiltonian, sizes", _SEAM_CASES)
    def test_prefix_slices_match_fresh_fits(self, mode, solver_class, settings, hamiltonian,
                                            sizes):
        settings = dict(settings, mode=mode, shots=10**4, sample_seed=3)
        full = solver_class(**settings, n_states=max(sizes)).fit(hamiltonian)
        ansatz, overlaps = full.ansatz_, full.overlaps_
        for m in sizes:
            fresh = solver_class(**settings, n_states=m).fit(hamiltonian)
            sliced = full.fit_overlaps(overlaps.restricted(m))
            assert sliced is full and sliced.ansatz_ is ansatz
            assert np.array_equal(sliced.overlaps_.gram, fresh.overlaps_.gram)
            want, got = self._results(fresh), self._results(sliced)
            assert want.keys() == got.keys()
            for key, value in want.items():
                if key in ("status_", "statuses_", "feasible_", "rank_"):
                    assert got[key] == value, key
                elif key in ("energies_", "betas_"):
                    assert len(got[key]) == len(value) and all(map(_same, got[key], value)), key
                else:
                    assert _same(got[key], value), key
            if not isinstance(full, ExcitedStatesSolver):
                assert _same_solution(sliced.solution_, fresh.solution_)

    def test_sector_overlaps_must_hold_the_symmetry_matrices(self):
        h = models.heisenberg_hamiltonian(4)
        plain = GroundStateSolver(seed_state="random", krylov_order=1).fit(h).overlaps_
        solver = SymmetrySectorSolver()
        with pytest.raises(ValueError, match="'symmetry' matrix"):
            solver.fit_overlaps(plain)
        half = OverlapSet(plain.gram, plain.objective, {"symmetry": plain.gram})
        with pytest.raises(ValueError, match="'symmetry_sq' matrix"):
            solver.fit_overlaps(half)


class TestReducedProgram:
    """One Gram whitening per fit, and the eigen path's outputs bit for bit."""

    @staticmethod
    def _count_whitenings(monkeypatch):
        calls = []
        for module in (sdp, solvers):
            real = module.gram_basis
            monkeypatch.setattr(
                module, "gram_basis",
                lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k),
            )
        return calls

    def test_ground_fit_whitens_once(self, monkeypatch):
        calls = self._count_whitenings(monkeypatch)
        solver = GroundStateSolver(seed_state="random", krylov_order=2).fit(
            models.ising_hamiltonian(4, 1.0, 1.0)
        )
        assert solver.status_ is SolveStatus.OPTIMAL
        assert len(calls) == 1

    def test_sampled_sector_fallback_whitens_once(self, monkeypatch):
        calls = self._count_whitenings(monkeypatch)
        solver = SymmetrySectorSolver(sector_value=0.0, mode="shots", shots=10**6).fit(
            models.heisenberg_hamiltonian(4)
        )
        assert solver.status_ is SolveStatus.OPTIMAL
        assert solver.solution_.iterations > 0  # the interior-point fallback ran
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["exact", "shots"])
    def test_eig_path_matches_generalized_min_eig_bit_for_bit(self, mode):
        solver = GroundStateSolver(
            seed_state="random", krylov_order=3, n_states=142, mode=mode, shots=10**4
        ).fit(models.ising_hamiltonian(6, 1.0, 1.0))
        overlaps = solver.overlaps_
        value, alpha = generalized_min_eig(overlaps.objective, overlaps.gram, gram_cut(overlaps))
        assert solver.energy_ == value
        assert np.array_equal(solver.beta_, np.outer(alpha, alpha.conj()))


def full_space_discrimination(instance, eps):
    """The discrimination program with every block on the whole whitened space.

    Completeness is imposed on every r x r entry, and the zero-budget range
    step is taken in the whitened space.  Returns the status, q_correct,
    q_unknown and the error rates.
    """
    basis = sdp.gram_basis(instance.gram)
    betas = [basis.state(b) for b in instance.betas]
    if all(np.max(np.abs(np.imag(m))) <= 1e-14 for m in [instance.gram, *betas]):
        betas = [b.real for b in betas]
    n_s, r = len(betas), basis.rank
    subspaces = []
    for n in range(n_s):
        evals, evecs = np.linalg.eigh(sum(betas[k] for k in range(n_s) if k != n))
        keep = evals <= 1e-10 * max(float(evals[-1]), 1.0)
        subspaces.append(np.eye(r) if eps > 0 else evecs[:, keep] if np.any(keep) else None)
    names = {n: f"povm_{n}" for n in range(n_s) if subspaces[n] is not None}

    def compress(n, beta):
        return subspaces[n].conj().T @ beta @ subspaces[n]

    maps = {name: subspaces[n] for n, name in names.items()}
    maps["leftover"] = np.eye(r)
    budgets = [sdp.SdpConstraint({name: compress(n, betas[k]) for n, name in names.items()
                                  if n != k}, eps, "<=") for k in range(n_s)] if eps > 0 else []
    problem = sdp.SdpProblem(
        blocks=[(name, subspaces[n].shape[1]) for n, name in names.items()] + [("leftover", r)],
        sense="max", objective={name: compress(n, betas[n]) / n_s for n, name in names.items()},
        constraints=budgets, matrix_constraint=sdp.MatrixConstraint(maps, np.eye(r)))
    sol = sdp.solve(problem, tol_feas=1e-8, tol_gap=1e-8)
    gammas = [subspaces[n] @ sol.blocks[name] @ subspaces[n].conj().T
              for n, name in names.items()]
    rates = [sum(np.trace(betas[k] @ g).real for n, g in zip(names, gammas) if n != k)
             for k in range(n_s)]
    q_unknown = np.mean([np.trace(sol.blocks["leftover"] @ b).real for b in betas])
    return sol.status, sol.objective_value, q_unknown, np.array(rates)


def mixed_discrimination_instance(rank, seed, error_budget=0.0):
    """Two mixed states of the given rank, complex, in a 10-string ansatz space."""
    gram = two_state_discrimination_instance(angle=0.7, n_qubits=4, n_strings=10, seed=7).gram
    rng = np.random.default_rng(seed)
    betas = []
    for _ in range(2):
        vecs = rng.normal(size=(rank, 10)) + 1j * rng.normal(size=(rank, 10))
        weights = rng.uniform(0.2, 1.0, size=rank)
        weights /= weights.sum()
        betas.append(sum(w * np.outer(v, v.conj()) / (v.conj() @ gram @ v).real
                         for w, v in zip(weights, vecs)))
    return models.DiscriminationInstance(gram=gram, betas=tuple(betas), error_budget=error_budget)


_PURE = [(seed, angle) for seed in (1, 2) for angle in (0.3, 1.2)]


class TestDiscrimination:
    def test_rejects_max_iter_below_one(self):
        # max_iter=0 used to report a false INFEASIBLE
        inst = two_state_discrimination_instance(0.8, n_qubits=4, n_strings=8, seed=1)
        with pytest.raises(ValueError, match="max_iter must be a positive integer, got 0"):
            UnambiguousDiscriminator(max_iter=0).fit(inst)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("case", [*_PURE, "mixed_rank_2", "mixed_full_rank"], ids=str)
    def test_support_program_matches_full_space(self, case, eps):
        if case == "mixed_rank_2":
            inst = mixed_discrimination_instance(2, seed=3, error_budget=eps)
        elif case == "mixed_full_rank":
            inst = mixed_discrimination_instance(10, seed=4, error_budget=eps)
        else:
            inst = two_state_discrimination_instance(angle=case[1], n_qubits=5, n_strings=12,
                                                     seed=case[0], error_budget=eps)
        disc = UnambiguousDiscriminator(error_budget=eps).fit(inst)
        status, q_correct, q_unknown, rates = full_space_discrimination(inst, eps)
        support = disc.solution_.blocks["leftover"].shape[0]
        if case == "mixed_rank_2":
            assert 2 < support < disc.basis_.rank
        elif case == "mixed_full_rank":
            assert support == disc.basis_.rank
        else:
            assert support == 2 < disc.basis_.rank
        assert disc.status_ is status is SolveStatus.OPTIMAL
        assert abs(disc.q_correct_ - q_correct) <= 1e-7
        assert abs(disc.q_unknown_ - q_unknown) <= 1e-7
        assert abs(disc.error_rates_.sum() - rates.sum()) <= 1e-7
        # on the rank-2 mixed states the 0.05 budgets are slack, and the
        # optimum does not fix how the errors split between the states
        if (case, eps) != ("mixed_rank_2", 0.05):
            np.testing.assert_allclose(disc.error_rates_, rates, rtol=0, atol=1e-7)

    def test_instance_budget_must_match_the_solvers(self):
        inst = two_state_discrimination_instance(angle=0.9, n_qubits=4, n_strings=8, seed=3,
                                                 error_budget=0.05)
        for eps in (0.0, 0.1):
            with pytest.raises(SettingError, match="error_budget 0.05 differs from the solver's"):
                UnambiguousDiscriminator(error_budget=eps).fit(inst)
        assert UnambiguousDiscriminator(error_budget=0.05).fit(inst).status_ is SolveStatus.OPTIMAL

    def test_instance_needs_enough_distinct_strings(self):
        with pytest.raises(ValueError, match="n_strings=5 exceeds the 4 distinct"):
            two_state_discrimination_instance(angle=0.5, n_qubits=1, n_strings=5)
        inst = two_state_discrimination_instance(angle=0.5, n_qubits=1, n_strings=4)
        assert inst.gram.shape == (4, 4)

    def test_orthogonal_states_fully_distinguishable(self):
        inst = two_state_discrimination_instance(angle=math.pi / 2, n_qubits=4,
                                                 n_strings=8, seed=4)
        disc = UnambiguousDiscriminator(error_budget=0.0).fit(inst)
        assert abs(disc.q_correct_ - 1.0) < 1e-6
        assert abs(disc.q_unknown_) < 1e-6

    def test_identical_states_indistinguishable(self):
        inst = two_state_discrimination_instance(angle=0.0, n_qubits=4, n_strings=8, seed=4)
        disc = UnambiguousDiscriminator(error_budget=0.0).fit(inst)
        assert disc.q_correct_ < 1e-6

    def test_pure_state_law(self):
        for phi in (math.pi / 8, math.pi / 3):
            inst = two_state_discrimination_instance(angle=phi, n_qubits=5,
                                                     n_strings=10, seed=2)
            disc = UnambiguousDiscriminator(error_budget=0.0).fit(inst)
            assert abs(disc.q_correct_ - (1.0 - math.cos(phi))) < 1e-6

    def test_probability_bookkeeping(self):
        inst = two_state_discrimination_instance(angle=0.9, n_qubits=5, n_strings=10, seed=3)
        disc = UnambiguousDiscriminator(error_budget=0.0).fit(inst)
        total = disc.q_correct_ + disc.q_unknown_ + disc.error_rates_.mean()
        assert abs(total - 1.0) < 1e-7

    def test_budget_monotonicity(self):
        values = []
        for eps in (0.0, 0.02, 0.1):
            inst = two_state_discrimination_instance(
                angle=math.pi / 4, n_qubits=4, n_strings=8, seed=5, error_budget=eps
            )
            disc = UnambiguousDiscriminator(error_budget=eps).fit(inst)
            values.append(disc.q_correct_)
        assert values == sorted(values)

    def test_povms_leftover_psd(self):
        inst = two_state_discrimination_instance(angle=1.0, n_qubits=4, n_strings=8, seed=6)
        disc = UnambiguousDiscriminator(error_budget=0.0).fit(inst)
        basis = disc.basis_
        total = sum(basis.state(p) for p in disc.povms_)
        leftover = np.eye(basis.rank) - total
        assert np.linalg.eigvalsh((leftover + leftover.conj().T) / 2).min() > -1e-7


class TestLovaszTheta:
    def test_complete_graph_is_one(self):
        for n in (3, 5, 7):
            solver = LovaszThetaSolver(mode="direct").fit(models.complete_graph(n))
            assert abs(solver.theta_ - 1.0) < 1e-7

    def test_c5_direct(self):
        solver = LovaszThetaSolver(mode="direct").fit(models.cycle_graph(5))
        assert abs(solver.theta_ - math.sqrt(5.0)) < 1e-8

    @pytest.mark.parametrize(
        "n, theta",
        [
            (5, math.sqrt(5.0)),
            (33, 33 * math.cos(math.pi / 33) / (1 + math.cos(math.pi / 33))),
            (64, 32.0),
            (100, 50.0),
        ],
        ids=["c5", "c33", "c64", "c100"],
    )
    def test_cycle_ansatz_with_padding(self, n, theta):
        # n vertices in ceil(log2 n) qubits: the fit keeps the span of the states
        # with no part on coordinates n..; past 32 vertices ansatz mode is the only mode
        solver = LovaszThetaSolver(mode="ansatz", seed_state="zero").fit(models.cycle_graph(n))
        assert solver.status_ is SolveStatus.OPTIMAL
        assert abs(solver.theta_ - theta) < 1e-6

    @pytest.mark.parametrize(
        "n, circuit_seed, n_states, theta",
        [(5, 0, 7, 0.0281287615645), (9, 2, 14, 4.01769097873)],
    )
    def test_random_seed_span_wider_than_its_split(self, n, circuit_seed, n_states, theta):
        # these spans hold states with both vertex and padding parts; the fit
        # keeps their vertex-only span and must still end optimal
        solver = LovaszThetaSolver(
            mode="ansatz", seed_state="random", circuit_seed=circuit_seed, n_states=n_states
        ).fit(models.cycle_graph(n))
        assert solver.status_ is SolveStatus.OPTIMAL
        assert abs(solver.theta_ - theta) < 1e-7

    def test_vertex_span_that_misses_the_edge_zeros_is_infeasible(self):
        # the states with no padding part admit no X with zero edge entries
        solver = LovaszThetaSolver(
            mode="ansatz", seed_state="random", circuit_seed=0, n_states=6
        ).fit(models.cycle_graph(5))
        assert solver.status_ is SolveStatus.INFEASIBLE
        assert solver.beta_ is None and math.isnan(solver.theta_)

    def test_edge_addition_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = 6
            all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(all_pairs)
            base_edges = all_pairs[:6]
            extra = all_pairs[6:8]
            small = LovaszThetaSolver(mode="direct").fit(models.Graph(n, tuple(base_edges)))
            big = LovaszThetaSolver(mode="direct").fit(
                models.Graph(n, tuple(base_edges + extra))
            )
            assert big.theta_ <= small.theta_ + 1e-6

    def test_ansatz_error_non_increasing(self):
        graph = models.chsh_graph()
        exact = 2.0 + math.sqrt(2.0)
        errors = []
        for m in range(1, 9):
            solver = LovaszThetaSolver(mode="ansatz", seed_state="zero", n_states=m).fit(graph)
            errors.append(exact - solver.theta_)
        for lo, hi in zip(errors, errors[1:]):
            assert hi <= lo + 1e-7
        assert errors[-1] < 1e-6

    def test_rejects_complex_seed(self):
        with pytest.raises(ValueError):
            LovaszThetaSolver(mode="ansatz", seed_state="plus").fit(models.cycle_graph(5))

    def test_rejects_fractional_n_states(self):
        with pytest.raises(ValueError, match="n_states must be a positive integer, got 2.5"):
            LovaszThetaSolver(mode="ansatz", n_states=2.5).fit(models.cycle_graph(5))


def _measured(ansatz, objective, pairs):
    """The Pauli-expanded overlaps a device would measure on the simulated seed.

    The objective is sum_ij objective[i, j] |i><j|; pair (i, j) names the
    constraint hermitian_elementary(q, i, j), keyed "i,j".
    """
    q = ansatz.n_qubits
    expanded = PauliSum(q)
    for (i, j), weight in np.ndenumerate(objective):
        if weight:
            expanded = expanded + weight * basis_state_projector(q, i, j)
    return build_overlaps(
        ansatz, objective=expanded,
        constraints={f"{i},{j}": hermitian_elementary(q, i, j) for i, j in pairs},
    )


def _congruence_row(v, i, j):
    """V^H (e_ij + e_ji) V, or V^H e_ii V on the diagonal."""
    e = np.zeros((v.shape[0], v.shape[0]))
    e[i, j] = e[j, i] = 1.0
    return v.conj().T @ e @ v


class TestXStringMap:
    """Ansatz mode reads V from amplitudes: its rows must be what a device measures."""

    @pytest.mark.parametrize("n_states", [5, 6, 8])
    @pytest.mark.parametrize("seed_state", ["zero", "random"])
    def test_lovasz_rows_are_measured_overlaps(self, seed_state, n_states):
        graph = models.cycle_graph(5)
        solver = LovaszThetaSolver(
            mode="ansatz", seed_state=seed_state, circuit_seed=2, n_states=n_states
        )
        ansatz, coords, v = solver._x_string_map(graph)
        program = oracle.lovasz_theta_program(5, graph.edges, v)
        pairs = [tuple(e) for e in program.matrix_constraint.entries]
        assert v.shape[0] == 5
        assert pairs == sorted((min(i, j), max(i, j)) for i, j in graph.edges)
        seed = prepare(resolve_seed_state(seed_state, circuit_seed=2), ansatz.n_qubits)
        psi = (seed.to_dense() if seed_state == "zero" else seed).amplitudes
        u = np.stack([p.apply(psi) for p in ansatz.strings], axis=1)
        assert np.max(np.abs((u @ coords)[5:])) < 1e-12
        overlaps = _measured(ansatz, np.ones((5, 5)), pairs)

        def whitened(mat):
            return coords.conj().T @ mat @ coords

        assert np.max(np.abs(whitened(overlaps.gram) - np.eye(v.shape[1]))) < 1e-12
        assert np.max(np.abs(whitened(overlaps.objective) - program.objective["x"])) < 1e-12
        for i, j in pairs:
            measured = whitened(overlaps.constraints[f"{i},{j}"])
            assert np.max(np.abs(measured - _congruence_row(v, i, j))) < 1e-12

        solver.fit(graph)
        if (seed_state, n_states) == ("random", 5):  # two vertex states: no zero-edge mix
            assert solver.status_ is SolveStatus.INFEASIBLE and solver.beta_ is None
            return
        assert solver.status_ is SolveStatus.OPTIMAL
        beta = solver.beta_
        assert abs(np.trace(beta @ overlaps.objective).real - solver.theta_) < 1e-7
        assert abs(np.trace(beta @ overlaps.gram).real - 1.0) < 1e-7
        for i, j in pairs:
            assert abs(np.trace(beta @ overlaps.constraints[f"{i},{j}"])) < 1e-7

    @pytest.mark.parametrize("seed_state", ["zero", "random"])
    def test_xor_unit_diagonal_rows_are_measured_overlaps(self, seed_state):
        game = models.XorGame.chsh()
        h = game.h_matrix()
        solver = XorGameSolver(mode="ansatz", seed_state=seed_state, circuit_seed=2)
        ansatz, coords, v = solver._x_string_map(game)
        diagonal = [(i, i) for i in range(4)]
        overlaps = _measured(ansatz, h, diagonal)

        def whitened(mat):
            return coords.conj().T @ mat @ coords

        program = oracle.xor_bias_program(h, v)
        assert np.max(np.abs(whitened(overlaps.objective) - program.objective["z"])) < 1e-12
        for i, _ in diagonal:
            measured = whitened(overlaps.constraints[f"{i},{i}"])
            assert np.max(np.abs(measured - _congruence_row(v, i, i))) < 1e-12

        solver.fit(game)
        assert solver.status_ is SolveStatus.OPTIMAL
        assert abs(np.trace(solver.beta_ @ overlaps.objective).real - solver.bias_) < 1e-7
        for i, _ in diagonal:
            assert abs(np.trace(solver.beta_ @ overlaps.constraints[f"{i},{i}"]) - 1.0) < 1e-7


class TestXorGames:
    def test_chsh_direct(self):
        solver = XorGameSolver(mode="direct").fit(models.XorGame.chsh())
        assert abs(solver.value_ - math.cos(math.pi / 8) ** 2) < 1e-7
        assert solver.ansatz_ is None and solver.beta_ is None

    def test_constant_predicate_always_wins(self):
        game = models.XorGame(pi=((0.25, 0.25), (0.25, 0.25)), f=((0, 0), (0, 0)))
        solver = XorGameSolver(mode="direct").fit(game)
        assert abs(solver.bias_ - 1.0) < 1e-7
        assert abs(solver.value_ - 1.0) < 1e-7

    def test_chsh_ansatz_full_basis(self):
        solver = XorGameSolver(mode="ansatz", seed_state="zero").fit(models.XorGame.chsh())
        assert solver.status_ is SolveStatus.OPTIMAL
        assert abs(solver.value_ - math.cos(math.pi / 8) ** 2) < 1e-7
        assert len(solver.ansatz_) == 4 and solver.beta_.shape == (4, 4)
        assert not hasattr(solver, "overlaps_")

    def test_quantum_beats_classical(self):
        game = models.XorGame.chsh()
        quantum = XorGameSolver(mode="direct").fit(game).value_
        classical = oracle.classical_xor_value(game.pi, game.f)
        assert quantum > classical + 0.1


class TestRankOneReducer:
    def test_normalization_only_matches_ground_state(self):
        h = models.ising_hamiltonian(4)
        reducer = RankOneReducer(seed_state="plus", krylov_order=2).fit(h)
        ground = GroundStateSolver(seed_state="plus", krylov_order=2).fit(h)
        assert reducer.solvable_
        assert abs(reducer.value_ - ground.energy_) < 1e-8
        gram = reducer.overlaps_.gram
        assert abs(np.vdot(reducer.alpha_, gram @ reducer.alpha_) - 1.0) < 1e-9

    def test_single_state_scalar(self):
        h = models.ising_hamiltonian(3)
        reducer = RankOneReducer(seed_state="plus", krylov_order=0).fit(h)
        assert abs(reducer.value_ - reducer.objective_matrix_[0, 0].real) < 1e-12

    def test_max_cut_reduction_declines(self):
        # triangle cut objective over 2 qubits; diagonal vertex constraints
        w_half = PauliSum(2)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            w_half = w_half + 0.5 * hermitian_elementary(2, i, j)
        diag_ops = [hermitian_elementary(2, i, i) for i in range(3)]
        from paulisdp.ansatz import x_string_ansatz

        reducer = RankOneReducer().fit(
            w_half,
            constraints=diag_ops,
            rhs=[1.0, 1.0, 1.0],
            ansatz=x_string_ansatz(2, ZeroState()),
        )
        assert not reducer.solvable_
        assert reducer.value_ is None
        assert "NP-hard" in reducer.reason_
        assert len(reducer.constraint_matrices_) == 4  # normalization + 3 vertices
        for mat in reducer.constraint_matrices_[1:]:
            np.testing.assert_allclose(mat, np.diag(np.diag(mat)), atol=1e-12)


class TestShotsMode:
    def test_energies_converge_as_shots_grow(self):
        # the default shot-aware Gram cut drops the noise directions, so the
        # energy approaches the exact one from above as shots grow
        h = models.ising_hamiltonian(6, 1.0, 1.0)
        exact = oracle.spectrum(h).eigenvalues[0]
        rms = {}
        for shots in (10**3, 10**4, 10**5):
            errors = []
            for sample_seed in range(5):
                solver = GroundStateSolver(
                    seed_state="random", krylov_order=3, n_states=142, mode="shots",
                    shots=shots, sample_seed=sample_seed,
                ).fit(h)
                assert solver.status_ is SolveStatus.OPTIMAL
                errors.append(solver.energy_ - exact)
            # stated noise bound: no undershoot beyond 10 shot-noise units
            assert min(errors) >= -10.0 / math.sqrt(shots)
            rms[shots] = math.sqrt(np.mean(np.square(errors)))
        assert rms[10**3] > rms[10**4] > rms[10**5]

    def test_default_cut_is_noise_scaled_and_explicit_cut_wins(self):
        h = models.ising_hamiltonian(4, 1.0, 1.0)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=2, seed=1), 2)
        exact = build_overlaps(ansatz, objective=h)
        noisy = build_overlaps(ansatz, objective=h, shots=2000, sample_seed=4)
        noise_cut = 2.0 * math.sqrt(len(ansatz) / 2000)
        assert gram_cut(exact) is None
        assert gram_cut(exact, 1e-3) == 1e-3
        assert gram_cut(noisy) == noise_cut
        assert gram_cut(noisy, 1e-3) == 1e-3
        evals = np.linalg.eigvalsh(noisy.gram)
        for method in ("eig", "sdp"):
            value, _beta, _st, _sol, basis = solve_normalized(noisy, method=method)
            assert basis.rank == np.count_nonzero(evals > noise_cut)
            explicit = solve_normalized(noisy, method=method, rank_tol=noise_cut)[0]
            assert value == pytest.approx(explicit, abs=1e-7)
        assert solve_normalized(noisy, rank_tol=1e-8)[4].rank == np.count_nonzero(evals > 1e-8)

    def test_every_shots_path_uses_the_noise_cut(self):
        h = models.ising_hamiltonian(4, 1.0, 1.0)
        kwargs = dict(seed_state="random", krylov_order=2, mode="shots", shots=500, sample_seed=2)
        ground = GroundStateSolver(**kwargs).fit(h)
        excited = ExcitedStatesSolver(n_excited=1, **kwargs).fit(h)
        sweep = energy_sweep(h, "random", 2, [ground.overlaps_.n_states], mode="shots",
                             shots=500, sample_seed=2)
        reducer = RankOneReducer(**kwargs).fit(h)
        noise_cut = 2.0 * math.sqrt(ground.overlaps_.n_states / 500)
        evals = np.linalg.eigvalsh(ground.overlaps_.gram)
        assert ground.rank_ == excited.rank_ == np.count_nonzero(evals > noise_cut)
        assert excited.energies_[0] == pytest.approx(ground.energy_, abs=1e-9)
        assert sweep[0][1] == pytest.approx(ground.energy_, abs=1e-9)
        assert reducer.value_ == pytest.approx(ground.energy_, abs=1e-9)
        sector = SymmetrySectorSolver(**kwargs).fit(models.heisenberg_hamiltonian(4))
        sector_evals = np.linalg.eigvalsh(sector.overlaps_.gram)
        sector_cut = 2.0 * math.sqrt(sector.overlaps_.n_states / 500)
        assert sector.rank_ == np.count_nonzero(sector_evals > sector_cut)


class TestSeedResolution:
    def test_shorthands(self):
        h = models.ising_hamiltonian(3)
        assert isinstance(resolve_seed_state("zero"), ZeroState)
        assert isinstance(resolve_seed_state("plus"), PlusState)
        spec = resolve_seed_state("annealing", h, layers=2, anneal_time=0.4)
        assert spec.layers == 2
        with pytest.raises(ValueError):
            resolve_seed_state("annealing")
        with pytest.raises(ValueError):
            resolve_seed_state("bogus")
