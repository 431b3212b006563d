import math

import numpy as np
import pytest

from paulisdp import models, oracle
from paulisdp.pauli import PauliString, PauliSum


class TestSpectrum:
    def test_single_qubit_z(self):
        s = oracle.spectrum(PauliSum.from_terms([(1.0, PauliString.from_label("Z"))]))
        np.testing.assert_allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_ising_n2_golden(self):
        # four eigenvalues of the N=2 periodic chain at unit fields; the
        # lowest one is the golden value the reduced solvers are checked
        # against elsewhere
        s = oracle.spectrum(models.ising_hamiltonian(2, 1.0, 1.0))
        assert s.eigenvalues.shape == (4,)
        assert abs(s.eigenvalues[0] - (-4.340172973252068)) < 1e-9

    def test_reconstruction(self):
        h = models.heisenberg_hamiltonian(4)
        s = oracle.spectrum(h)
        assert s.reconstruction_residual(h.matrix()) < 1e-9

    def test_heisenberg_degenerate_multiplets(self):
        s = oracle.spectrum(models.heisenberg_hamiltonian(4))
        gaps = np.diff(s.eigenvalues)
        assert np.any(gaps < 1e-10)  # degeneracies present


class TestSectorMinimum:
    def test_all_up_sector_is_one_dimensional(self):
        h = models.heisenberg_hamiltonian(4, h=1.0)
        q = models.magnetization(4)
        # |1111> has <ZZ> = 1 on each of the four bonds and no XX/YY action
        assert abs(oracle.sector_minimum(h, q, 4.0) - 4.0) < 1e-10

    def test_odd_sector_empty(self):
        h = models.heisenberg_hamiltonian(4, h=1.0)
        q = models.magnetization(4)
        with pytest.raises(oracle.EmptySectorError):
            oracle.sector_minimum(h, q, 1.0)

    def test_rejects_non_commuting(self):
        h = models.ising_hamiltonian(3, g=1.0, h=1.0)
        with pytest.raises(ValueError):
            oracle.sector_minimum(h, models.magnetization(3), 1.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_heisenberg_sectors_match_z_sum_blocks(self, n):
        """Against H's submatrix on the basis states of Z-sum s, degenerate multiplets included."""
        h, mag = models.heisenberg_hamiltonian(n), models.magnetization(n)
        dense = h.matrix()
        z_sum = n - 2 * np.array([bin(k).count("1") for k in range(1 << n)])
        for s in range(-n, n + 1, 2):
            block = np.flatnonzero(z_sum == s)
            expected = np.linalg.eigvalsh(dense[np.ix_(block, block)])[0]
            assert abs(oracle.sector_minimum(h, mag, float(s)) - expected) < 1e-10
        for empty in (n - 1.0, n + 2.0):
            with pytest.raises(oracle.EmptySectorError):
                oracle.sector_minimum(h, mag, empty)

    def test_parity_sectors_cover_spectrum(self):
        h = models.ising_hamiltonian(4, g=0.0, h=1.0)
        p = models.spin_flip_parity(4)
        lo = min(oracle.sector_minimum(h, p, 1.0), oracle.sector_minimum(h, p, -1.0))
        assert abs(lo - oracle.spectrum(h).eigenvalues[0]) < 1e-10


class TestClassicalXor:
    def test_chsh(self):
        game = models.XorGame.chsh()
        assert oracle.classical_xor_value(game.pi, game.f) == 0.75

    def test_constant_predicate(self):
        pi = np.full((2, 2), 0.25)
        f = np.zeros((2, 2), dtype=int)
        assert oracle.classical_xor_value(pi, f) == 1.0

    def test_random_game_classical_below_quantum(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pi = rng.random((3, 3))
            pi /= pi.sum()
            f = rng.integers(0, 2, size=(3, 3))
            game = models.XorGame(
                pi=tuple(tuple(row) for row in pi), f=tuple(tuple(int(v) for v in row) for row in f)
            )
            classical = oracle.classical_xor_value(game.pi, game.f)
            quantum = 0.5 + 0.5 * oracle.xor_bias_direct(game.h_matrix())
            assert classical <= quantum + 1e-9


class TestDirectSdp:
    def test_ground_state_program_matches_spectrum(self):
        h = models.ising_hamiltonian(4, 1.0, 1.0)
        sol = oracle.min_eigenvalue_direct(h)
        assert sol.is_optimal
        assert abs(sol.objective_value - oracle.spectrum(h).eigenvalues[0]) < 1e-6

    def test_c5_theta(self):
        g = models.cycle_graph(5)
        theta = oracle.lovasz_theta_direct(g.n_vertices, g.edges)
        assert abs(theta - math.sqrt(5.0)) < 1e-8

    def test_chsh_bias(self):
        game = models.XorGame.chsh()
        bias = oracle.xor_bias_direct(game.h_matrix())
        assert abs(bias - math.sqrt(2.0) / 2.0) < 1e-8
