import warnings

import numpy as np
import pytest

import paulisdp.states
from paulisdp.models import ising_hamiltonian, ising_split
from paulisdp.pauli import DENSE_QUBIT_CAP, DimensionMismatchError, PauliString
from paulisdp.states import (
    DenseState,
    HardwareEfficientCircuit,
    PlusState,
    ProductState,
    QuantumAnnealingState,
    ZeroState,
    prepare,
)


def random_dense_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return DenseState(amps)


class TestPreparation:
    def test_zero_state(self):
        st = prepare(ZeroState(), 3)
        dense = st.to_dense()
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(dense.amplitudes, expected, atol=1e-14)

    def test_plus_state(self):
        st = prepare(PlusState(), 2).to_dense()
        np.testing.assert_allclose(st.amplitudes, np.full(4, 0.5), atol=1e-14)

    def test_hardware_efficient_norm_and_reproducibility(self):
        spec = HardwareEfficientCircuit(layers=4, seed=42)
        a = prepare(spec, 5)
        b = prepare(spec, 5)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_hardware_efficient_explicit_angles_real(self):
        angles = tuple(tuple(0.3 * (i + j) for i in range(3)) for j in range(2))
        st = prepare(HardwareEfficientCircuit(layers=2, angles=angles), 3)
        # y rotations and CNOTs keep amplitudes real
        assert np.max(np.abs(st.amplitudes.imag)) < 1e-14

    def test_single_layer_circuit_matches_hand_construction(self):
        # one qubit pair, angles (t0, t1): Ry rotations then CNOT(0 -> 1)
        t0, t1 = 0.7, -1.2
        st = prepare(HardwareEfficientCircuit(layers=1, angles=((t0, t1),)), 2)
        ry = lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])
        psi = np.kron(ry(t0) @ [1, 0], ry(t1) @ [1, 0])
        cnot = np.eye(4)[[0, 1, 3, 2]]
        np.testing.assert_allclose(st.amplitudes, cnot @ psi, atol=1e-14)

    def test_annealing_fidelity_grows_with_layers(self):
        n = 4
        h = ising_hamiltonian(n, g=1.0, h=1.0)
        hz, hx = ising_split(n, g=1.0, h=1.0)
        evals, evecs = np.linalg.eigh(h.matrix())
        ground = evecs[:, 0]
        fidelities = []
        for p in (1, 2, 4, 16, 32):
            st = prepare(QuantumAnnealingState(layers=p, total_time=0.2, hz=hz, hx=hx), n)
            fidelities.append(abs(np.vdot(ground, st.amplitudes)) ** 2)
        assert fidelities[-1] > 0.9
        for lo, hi in zip(fidelities, fidelities[1:]):
            assert hi > lo

    def test_annealing_rejects_bad_parts(self):
        hz, hx = ising_split(4)
        with pytest.raises(ValueError):
            prepare(QuantumAnnealingState(layers=2, total_time=0.5, hz=hx, hx=hx), 4)
        with pytest.raises(ValueError):
            prepare(QuantumAnnealingState(layers=2, total_time=0.5, hz=hz, hx=hz), 4)

    def test_dense_cap(self):
        from paulisdp.pauli import DenseLimitError

        with pytest.raises(DenseLimitError):
            prepare(HardwareEfficientCircuit(layers=1, seed=0), 15)
        # product backends are exempt
        st = prepare(ZeroState(), 40)
        assert st.n_qubits == 40


class TestExpectation:
    def test_zero_state_all_z(self):
        st = prepare(ZeroState(), 4)
        assert st.expectation(PauliString.from_label("ZZZZ")) == 1.0

    def test_plus_state_x(self):
        st = prepare(PlusState(), 3)
        for site in range(3):
            p = PauliString.single(3, site, "X")
            assert abs(st.expectation(p) - 1.0) < 1e-14

    def test_identity_expectation_is_one(self):
        rng = np.random.default_rng(0)
        st = random_dense_state(rng, 4)
        assert abs(st.expectation(PauliString.identity(4)) - 1.0) < 1e-12

    def test_random_circuit_matches_dense_oracle(self):
        rng = np.random.default_rng(123)
        st = prepare(HardwareEfficientCircuit(layers=3, seed=5), 6)
        for _ in range(25):
            codes = rng.integers(0, 4, size=6).astype(np.uint8)
            p = PauliString(codes, phase_power=int(rng.integers(0, 4)))
            expected = np.vdot(st.amplitudes, p.matrix() @ st.amplitudes)
            assert abs(st.expectation(p) - expected) < 1e-12

    def test_hermitian_expectation_in_range(self):
        rng = np.random.default_rng(7)
        st = random_dense_state(rng, 5)
        for _ in range(30):
            p = PauliString(rng.integers(0, 4, size=5).astype(np.uint8))
            val = st.expectation(p)
            assert abs(val.imag) < 1e-12
            assert -1.0 - 1e-12 <= val.real <= 1.0 + 1e-12

    def test_product_and_dense_agree(self):
        rng = np.random.default_rng(31)
        factors = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        prod = ProductState(factors)
        dense = prod.to_dense()
        for _ in range(30):
            p = PauliString(rng.integers(0, 4, size=5).astype(np.uint8),
                            phase_power=int(rng.integers(0, 4)))
            assert abs(prod.expectation(p) - dense.expectation(p)) < 1e-12

    def test_dimension_mismatch(self):
        st = prepare(ZeroState(), 3)
        with pytest.raises(DimensionMismatchError):
            st.expectation(PauliString.identity(4))


class TestSampling:
    def test_eigenstate_zero_variance(self):
        st = prepare(ZeroState(), 3)
        p = PauliString.from_label("ZIZ")
        for seed in range(5):
            assert st.sampled_expectation(p, shots=7, seed=seed) == 1.0

    def test_negative_phase(self):
        st = prepare(ZeroState(), 2)
        p = PauliString.from_label("ZZ", phase_power=2)  # -ZZ
        assert st.sampled_expectation(p, shots=3, seed=0) == -1.0

    def test_rejects_non_hermitian(self):
        st = prepare(ZeroState(), 2)
        with pytest.raises(ValueError):
            st.sampled_expectation(PauliString.from_label("ZZ", phase_power=1), 10, seed=0)

    def test_deterministic_given_seed(self):
        st = prepare(HardwareEfficientCircuit(layers=2, seed=3), 4)
        p = PauliString.from_label("XYZI")
        a = st.sampled_expectation(p, shots=500, seed=11)
        b = st.sampled_expectation(p, shots=500, seed=11)
        assert a == b

    def test_zero_mean_concentration(self):
        # <Z> = 0 on |+>; 10^4 shots stay within 5e-2 across many seeds
        st = prepare(PlusState(), 1)
        p = PauliString.from_label("Z")
        for seed in range(60):
            assert abs(st.sampled_expectation(p, shots=10_000, seed=seed)) <= 5e-2

    def test_product_backend_sampling(self):
        st = prepare(PlusState(), 30)
        p = PauliString.single(30, 7, "X")
        assert st.sampled_expectation(p, shots=64, seed=1) == 1.0
        z = PauliString.single(30, 7, "Z")
        vals = [st.sampled_expectation(z, shots=4096, seed=s) for s in range(20)]
        assert abs(np.mean(vals)) < 0.05

    def test_hoeffding_scaling(self):
        # RMSE over seeds follows shots^(-1/2) within a factor of two
        st = prepare(HardwareEfficientCircuit(layers=2, seed=9), 4)
        p = PauliString.from_label("XZIY", phase_power=0)
        exact = st.expectation(p).real
        rmse = {}
        for shots in (100, 1000, 10_000):
            errs = [
                st.sampled_expectation(p, shots=shots, seed=s) - exact for s in range(100)
            ]
            rmse[shots] = float(np.sqrt(np.mean(np.square(errs))))
        ratio_100_10000 = rmse[100] / rmse[10_000]
        assert 5.0 < ratio_100_10000 < 20.0  # ideal is 10
        ratio_100_1000 = rmse[100] / rmse[1000]
        assert 1.58 < ratio_100_1000 < 6.32  # ideal is sqrt(10)


class TestSamplerLaw:
    """A sampled value is the mean of ``shots`` +/-1 parity outcomes.

    Over seeds its mean is the exact expectation and its variance
    (1 - <P>^2)/shots, on both backends.
    """

    DRAWS = 4000
    SHOTS = 50

    def _check_law(self, st, p):
        exact = st.expectation(p).real
        vals = np.array([st.sampled_expectation(p, self.SHOTS, seed=s) for s in range(self.DRAWS)])
        variance = (1.0 - exact**2) / self.SHOTS
        assert 0.2 < abs(exact) < 0.8  # a string with real spread and a nonzero mean
        assert abs(vals.mean() - exact) <= 4.0 * np.sqrt(variance / self.DRAWS)
        assert 1 / 1.5 <= vals.var(ddof=1) / variance <= 1.5
        # outcomes are +/-1, so every value sits on the grid 1 - 2k/shots
        k = (1.0 - p.phase.real * vals) * self.SHOTS / 2.0
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)

    def test_dense_backend(self):
        st = prepare(HardwareEfficientCircuit(layers=2, seed=4), 4)
        self._check_law(st, PauliString.from_label("ZZII"))

    def test_product_backend_signed_string(self):
        st = ProductState(np.array([[1.0, 0.45], [0.9, 0.3j], [1.0, 0.6]]))
        self._check_law(st, PauliString.from_label("ZYX", phase_power=2))

    def test_product_backend_cost_independent_of_shots(self):
        rng = np.random.default_rng(0)
        st = ProductState(rng.normal(size=(1000, 2)) + 1j * rng.normal(size=(1000, 2)))
        codes = rng.integers(0, 4, size=1000, dtype=np.uint8)
        value = st.sampled_expectation(PauliString(codes), shots=10**12, seed=3)
        assert -1.0 <= value <= 1.0


def y_heavy_strings(rng, n, count):
    """Identity, all-Y, then random strings drawn with Y at half the sites."""
    codes = rng.choice(np.array([0, 1, 2, 3], dtype=np.uint8), p=[1 / 6, 1 / 6, 1 / 2, 1 / 6],
                       size=(count, n))
    strings = [PauliString.identity(n), PauliString(np.full(n, 2, dtype=np.uint8))]
    return strings + [PauliString(row) for row in codes]


def stacked(strings):
    return np.stack([s.x for s in strings]), np.stack([s.z for s in strings])


def one_string_sample(exact: float, shots: int, seed: int) -> float:
    """The per-string sampled estimate: one binomial odd-parity count."""
    p_odd = min(max((1.0 - exact) / 2.0, 0.0), 1.0)
    odd = int(np.random.default_rng(seed).binomial(shots, p_odd))
    return 1.0 - 2.0 * odd / shots


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBatchEvaluation:
    """The batch methods match the one-string arithmetic bit for bit."""

    SHOTS = 1000

    @pytest.mark.parametrize("n", [1, 6, DENSE_QUBIT_CAP])
    def test_dense_exact_and_shots(self, n):
        rng = np.random.default_rng(n)
        st = random_dense_state(rng, n)
        strings = y_heavy_strings(rng, n, 30)
        x, z = stacked(strings)
        exact = st.expectations(x, z)
        one_row = [st.expectations(p.x[None], p.z[None])[0] for p in strings]
        assert_bits_equal(exact, np.array(one_row))
        applied = [np.vdot(st.amplitudes, p.apply(st.amplitudes)) for p in strings]
        np.testing.assert_allclose(exact, applied, rtol=0, atol=1e-13)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=len(strings))]
        sampled = [
            1.0 if p.is_identity else one_string_sample(e.real, self.SHOTS, s)
            for p, e, s in zip(strings, exact, seeds)
        ]
        assert_bits_equal(st.sampled_expectations(x, z, self.SHOTS, seeds), np.array(sampled))

    @pytest.mark.parametrize("spec", [ZeroState(), PlusState()])
    @pytest.mark.parametrize("n", [5, 1000])
    def test_product_exact_and_shots(self, spec, n):
        rng = np.random.default_rng(n)
        st = prepare(spec, n)
        strings = y_heavy_strings(rng, n, 20)
        # Z-only strings have a nonzero value on the zero seed, X-only ones on the plus seed
        for letters in ([0, 3], [0, 1]):
            strings.append(PauliString(rng.choice(np.array(letters, dtype=np.uint8), size=n)))
        x, z = stacked(strings)
        exact = [float(np.prod(st._site_values[np.arange(n), p.codes])) for p in strings]
        assert_bits_equal(st.expectations(x, z), np.array(exact))
        assert np.count_nonzero(exact) >= 2
        seeds = list(range(len(strings)))
        sampled = [
            1.0 if p.is_identity else one_string_sample(e, self.SHOTS, s)
            for p, e, s in zip(strings, exact, seeds)
        ]
        assert_bits_equal(st.sampled_expectations(x, z, self.SHOTS, seeds), np.array(sampled))

    def test_one_string_methods_are_the_one_row_case(self):
        rng = np.random.default_rng(4)
        st = random_dense_state(rng, 4)
        for p in y_heavy_strings(rng, 4, 10):
            row = st.expectations(p.x[None], p.z[None])[0]
            assert st.expectation(p) == row
            assert st.sampled_expectation(p, 50, seed=2) == st.sampled_expectations(
                p.x[None], p.z[None], 50, [2]
            )[0]


_LETTER_MATRICES = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])


def letters_applied(p, psi):
    """``p.matrix() @ psi`` one letter at a time, as the Kronecker product of the letters is."""
    tensor = psi.reshape([2] * p.n_qubits)
    for site, code in enumerate(p.codes):
        tensor = np.moveaxis(np.tensordot(_LETTER_MATRICES[code], tensor, axes=(1, site)), 0, site)
    return p.phase * tensor.reshape(-1)


class TestDenseKernel:
    """A Walsh-Hadamard transform per x mask: within 1e-13 of the matrix, bits fixed per string."""

    @pytest.mark.parametrize("n", [1, 6, DENSE_QUBIT_CAP])
    def test_rows_keep_their_bits_in_any_batch(self, monkeypatch, n):
        rng = np.random.default_rng(50 + n)
        st = random_dense_state(rng, n)
        strings = y_heavy_strings(rng, n, 12)
        one_row = np.array([st.expectations(p.x[None], p.z[None])[0] for p in strings])
        assert_bits_equal(st.expectations(*stacked(strings)), one_row)
        superset = strings + y_heavy_strings(rng, n, 40)
        order = rng.permutation(len(superset))
        sx, sz = stacked([superset[i] for i in order])
        rows = np.argsort(order)[: len(strings)]
        assert_bits_equal(st.expectations(sx, sz)[rows], one_row)
        monkeypatch.setattr(paulisdp.states, "_CHUNK", 2)  # one mask per chunk
        assert len(np.unique(sx[:, 0])) > 1
        assert_bits_equal(st.expectations(sx, sz)[rows], one_row)

    @pytest.mark.parametrize("n", [4, 8, 11, DENSE_QUBIT_CAP])
    def test_y_heavy_strings_match_the_matrix(self, n):
        # every string at n <= 3: test_pauli's test_dense_expectations_match_kronecker_reference
        rng = np.random.default_rng(70 + n)
        st = random_dense_state(rng, n)
        strings = y_heavy_strings(rng, n, 20)
        psi = st.amplitudes
        want = [np.vdot(psi, letters_applied(p, psi)) for p in strings]
        if n <= 8:
            np.testing.assert_allclose(want, [np.vdot(psi, p.matrix() @ psi) for p in strings],
                                       rtol=0, atol=1e-13)
        np.testing.assert_allclose(st.expectations(*stacked(strings)), want, rtol=0, atol=1e-13)


class TestInputChecks:
    """Word rows must fit the state; amplitudes and factors are finite, on at least one qubit."""

    @pytest.mark.parametrize("backend", ["product", "dense"])
    def test_rows_that_do_not_fit_raise(self, backend):
        st = prepare(ZeroState(), 3)
        st = st if backend == "product" else st.to_dense()
        wide = PauliString.single(70, 5, "X")  # two words, an X on qubit 5
        one, two = np.zeros((1, 1), dtype=np.uint64), np.zeros((1, 2), dtype=np.uint64)
        past_the_end = (np.array([[1 << 5]], dtype=np.uint64), one)  # bit 5: no qubit of three
        for x, z in [past_the_end, (one, past_the_end[0]), (two, two), (wide.x[None], wide.z[None]),
                     (one[0], one[0]), (one, two)]:
            with pytest.raises(DimensionMismatchError):
                st.expectations(x, z)
            with pytest.raises(DimensionMismatchError):
                st.sampled_expectations(x, z, 10, [0] * len(x))
        assert st.expectations(np.array([[4]], dtype=np.uint64), one)[0] == 0.0  # X on qubit 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_states_raise(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN state behind a RuntimeWarning
            with pytest.raises(ValueError, match="finite"):
                DenseState(np.array([bad, bad, 0.0, 0.0]))
            with pytest.raises(ValueError, match="finite"):
                ProductState(np.array([[1.0, 0.0], [bad, bad]]))

    def test_states_on_no_qubits_raise(self):
        with pytest.raises(ValueError, match="at least 2"):
            DenseState(np.array([1.0]))
        with pytest.raises(ValueError, match="n_qubits >= 1"):
            ProductState(np.zeros((0, 2)))


class TestSeededDraws:
    """Each batch count is ``default_rng(seed).binomial(shots, p_odd)``, bit for bit.

    Covers the edge seeds of the seed hash, over a thousand random 64-bit
    seeds (as a uint64 array and as Python ints) and parity probabilities 0, 1, 1/2, about 1e-12 and random ones,
    each also in runs of one repeated string, which reuse the generator's
    cached binomial setup.
    """

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    N = 6
    RUN = 40

    def state(self, backend):
        # <Z> is 1, -1 and 1 - 2e-12 on sites 0, 1, 2 and <X> is 0 on site 3
        small = np.sqrt(1e-12)
        rng = np.random.default_rng(7)
        fixed = np.array([[1, 0], [0, 1], [np.sqrt(1 - small**2), small], [1, 0]], dtype=complex)
        randoms = rng.normal(size=(self.N - 4, 2)) + 1j * rng.normal(size=(self.N - 4, 2))
        st = ProductState(np.vstack([fixed, randoms]))
        return st if backend == "product" else st.to_dense()

    def strings_and_seeds(self):
        rng = np.random.default_rng(8)
        runs = [PauliString.single(self.N, site, letter) for site, letter in enumerate("ZZZX")]
        runs.append(PauliString(rng.integers(0, 4, size=self.N, dtype=np.uint8)))
        strings = [PauliString.identity(self.N)]
        for p in runs:
            strings += [p] * self.RUN
        strings += [PauliString(c) for c in rng.integers(0, 4, size=(1200, self.N), dtype=np.uint8)]
        seeds = rng.integers(0, 2**64, size=len(strings), dtype=np.uint64)
        for start in range(1, len(strings), self.RUN):  # each block of RUN strings starts at the edges
            seeds[start : start + len(self.EDGE_SEEDS)] = self.EDGE_SEEDS
        return strings, seeds

    @pytest.mark.parametrize("backend", ["product", "dense"])
    @pytest.mark.parametrize("shots", [1, 16, 10**4, 10**8, 10**12])
    def test_counts_are_default_rng_draws(self, backend, shots):
        st = self.state(backend)
        strings, seeds = self.strings_and_seeds()
        x, z = stacked(strings)
        exact = st.expectations(x, z).real
        p_odd = (1.0 - exact) / 2.0
        for want in (0.0, 1.0, 0.5):
            assert np.count_nonzero(np.abs(p_odd - want) < 1e-15) >= self.RUN
        assert np.count_nonzero(np.abs(p_odd - 1e-12) < 1e-15) >= self.RUN
        sampled = [
            1.0 if p.is_identity else one_string_sample(e, shots, int(s))
            for p, e, s in zip(strings, exact, seeds)
        ]
        assert_bits_equal(st.sampled_expectations(x, z, shots, seeds), np.array(sampled))
        assert_bits_equal(st.sampled_expectations(x, z, shots, seeds.tolist()), np.array(sampled))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.0])
    def test_seeds_outside_the_range_raise(self, seed):
        st = self.state("product")
        p = PauliString.single(self.N, 3, "X")
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            st.sampled_expectation(p, 100, seed=seed)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            st.sampled_expectations(p.x[None], p.z[None], 100, [seed])
        if isinstance(seed, int) and seed < 0:
            with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
                st.sampled_expectations(p.x[None], p.z[None], 100, np.array([seed]))

    def test_largest_seed(self):
        st = self.state("product")
        p = PauliString.single(self.N, 3, "X")
        want = one_string_sample(st.expectation(p).real, 100, 2**64 - 1)
        assert st.sampled_expectation(p, 100, seed=2**64 - 1) == want
        assert st.sampled_expectations(p.x[None], p.z[None], 100, np.array([2**64 - 1], np.uint64))[0] == want

    @pytest.mark.parametrize("shots", [100.5, True, 0, -3])
    def test_shots_must_be_positive_integers(self, shots):
        # 100.5 used to draw Binomial(100, p) and divide the count by 100.5
        st = self.state("product")
        p = PauliString.single(self.N, 3, "X")
        with pytest.raises(ValueError, match=f"shots must be a positive integer, got {shots!r}"):
            st.sampled_expectations(p.x[None], p.z[None], shots, [1])

    def test_one_seed_per_string(self):
        st = self.state("product")
        p = PauliString.single(self.N, 3, "X")
        with pytest.raises(ValueError, match="one seed per string"):
            st.sampled_expectations(p.x[None], p.z[None], 100, [1, 2])
