import numpy as np
import pytest

from paulisdp.models import (
    DiscriminationInstance,
    Graph,
    XorGame,
    build_model,
    chsh_graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    diagonal_x_split,
    heisenberg_hamiltonian,
    ising_hamiltonian,
    ising_split,
    magnetization,
    random_pauli_operator,
    spin_flip_parity,
)


class TestHamiltonians:
    def test_ising_n3_unit_fields(self):
        h = ising_hamiltonian(3, g=1.0, h=1.0)
        assert len(h) == 9
        for coeff, _string in h.terms():
            assert coeff == -1.0
        labels = {s.label for _c, s in h.terms()}
        assert labels == {"ZZI", "IZZ", "ZIZ", "ZII", "IZI", "IIZ", "XII", "IXI", "IIX"}

    def test_ising_open_boundary(self):
        h = ising_hamiltonian(4, periodic=False)
        zz = [s for _c, s in h.terms() if s.weight == 2]
        assert len(zz) == 3  # no wrap bond

    def test_ising_split_reassembles(self):
        hz, hx = ising_split(5, g=0.7, h=0.3)
        assert (hz + hx).isclose(ising_hamiltonian(5, g=0.7, h=0.3))

    def test_heisenberg_n2_wraparound_merges(self):
        h = heisenberg_hamiltonian(2, h=1.0)
        coeffs = {s.label: c for c, s in h.terms()}
        assert coeffs == {"XX": 2.0, "YY": 2.0, "ZZ": 2.0}

    def test_heisenberg_coupling(self):
        h = heisenberg_hamiltonian(4, h=0.5)
        zz_coeffs = [c for c, s in h.terms() if set(s.label) == {"Z", "I"}]
        assert all(abs(c - 0.5) < 1e-15 for c in zz_coeffs)

    def test_random_pauli_reproducible(self):
        a = random_pauli_operator(10, 8, seed=5)
        b = random_pauli_operator(10, 8, seed=5)
        assert a.isclose(b)
        assert len(a) == 8
        for coeff, _s in a.terms():
            assert -1.0 <= coeff.real <= 1.0
            assert coeff.imag == 0.0

    def test_random_pauli_term_count_capped_by_distinct_strings(self):
        assert len(random_pauli_operator(2, 16, seed=0)) == 16
        with pytest.raises(ValueError, match="n_terms=17 exceeds the 16 distinct"):
            random_pauli_operator(2, 17, seed=0)

    def test_symmetries_commute(self):
        assert spin_flip_parity(4).commutes_with(ising_hamiltonian(4, g=0.0, h=1.0))
        assert magnetization(4).commutes_with(heisenberg_hamiltonian(4))

    def test_diagonal_x_split_rejects_mixed(self):
        with pytest.raises(ValueError):
            diagonal_x_split(heisenberg_hamiltonian(3))

    def test_build_model_dispatch(self, tmp_path):
        h = build_model({"kind": "ising", "n": 3, "g": 1, "h": 1})
        assert len(h) == 9
        path = tmp_path / "h.txt"
        path.write_text(h.to_text())
        again = build_model({"kind": "file", "path": str(path)})
        assert again.isclose(h)
        with pytest.raises(ValueError):
            build_model({"kind": "bogus"})


class TestGraphs:
    def test_cycle_and_complete(self):
        assert len(cycle_graph(5).edges) == 5
        assert len(complete_graph(5).edges) == 10

    def test_chsh_graph_is_circulant_1_4(self):
        g = chsh_graph()
        assert g.n_vertices == 8
        assert g.edges == circulant_graph(8, (1, 4)).edges
        assert len(g.edges) == 12

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),))

    def test_text_roundtrip(self):
        g = cycle_graph(5)
        again = Graph.from_text(g.to_text())
        assert again == g

    def test_duplicate_edges_collapse(self):
        g = Graph(3, ((0, 1), (1, 0), (0, 1)))
        assert g.edges == ((0, 1),)


class TestXorGame:
    def test_chsh_tables(self):
        game = XorGame.chsh()
        np.testing.assert_allclose(
            game.d_matrix(), [[0.25, 0.25], [0.25, -0.25]], atol=1e-15
        )
        h = game.h_matrix()
        assert h.shape == (4, 4)
        np.testing.assert_allclose(h, h.T, atol=1e-15)
        np.testing.assert_allclose(h[:2, :2], 0.0, atol=1e-15)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            XorGame(pi=((0.5, 0.2), (0.2, 0.2)), f=((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            XorGame(pi=((0.25, 0.25), (0.25, 0.25)), f=((0, 2), (0, 1)))

    def test_from_config(self):
        assert XorGame.from_config({"name": "chsh"}) == XorGame.chsh()
        g = XorGame.from_config({"pi": [[0.5, 0.5]], "f": [[0, 1]]})
        assert g.n_x == 1 and g.n_y == 2


class TestDiscriminationInstance:
    def test_validates_trace(self):
        gram = np.eye(3)
        good = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            DiscriminationInstance(gram=gram, betas=(good, 2.0 * good))

    def test_validates_psd(self):
        gram = np.eye(2)
        with pytest.raises(ValueError):
            DiscriminationInstance(
                gram=gram, betas=(np.diag([1.0, 0.0]), np.diag([2.0, -1.0]))
            )

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            DiscriminationInstance(gram=np.eye(2), betas=(np.diag([1.0, 0.0]),))
