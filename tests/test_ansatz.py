import hashlib

import numpy as np
import pytest

from paulisdp.ansatz import AnsatzSet, build_overlaps, krylov_ansatz, krylov_strings, x_string_ansatz
from paulisdp.models import ising_hamiltonian, magnetization, random_pauli_operator, spin_flip_parity
from paulisdp.pauli import PauliString, PauliSum
from paulisdp.states import DenseState, HardwareEfficientCircuit, PlusState, ZeroState, prepare

# Exponent of i acquired by the product of two letters (codes 0=I, 1=X,
# 2=Y, 3=Z); the product letter itself is the XOR of the codes.
MUL_PHASE = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]], dtype=np.uint8)


def reference_krylov(h, max_order):
    """Level-by-level Krylov expansion, one string product at a time."""
    n = h.n_qubits
    generators = [s for _c, s in h.terms()]
    seen = {PauliString.identity(n).packed}
    strings, orders, level = [PauliString.identity(n)], [0], [PauliString.identity(n)]
    for k in range(1, max_order + 1):
        produced = {}
        for left in level:
            for gen in generators:
                prod = (left * gen).phase_free()
                produced.setdefault(prod.packed, prod)
        level = sorted(produced.values(), key=lambda s: s.packed)
        for s in level:
            if s.packed not in seen:
                seen.add(s.packed)
                strings.append(s)
                orders.append(k)
    return strings, orders


def reference_overlaps(ansatz, objective=None, constraints=(), shots=None, sample_seed=0):
    """The per-entry overlap loop: one letter-table product and cache lookup per entry.

    Returns the matrices (gram, objective, then constraints in order) and
    the number of distinct reduced strings evaluated.
    """
    state = prepare(ansatz.seed, ansatz.n_qubits)
    cache = {}

    def value(codes):
        key = codes.tobytes()
        if key not in cache:
            string = PauliString(codes)
            if shots is None:
                cache[key] = float(state.expectation(string).real)
            else:
                digest = hashlib.blake2b(
                    key + sample_seed.to_bytes(8, "little", signed=True), digest_size=8
                ).digest()
                cache[key] = state.sampled_expectation(
                    string, shots, seed=int.from_bytes(digest, "little")
                )
        return cache[key]

    m = len(ansatz)
    rows = np.stack([s.codes for s in ansatz.strings])

    def matrix_for(op):
        out = np.zeros((m, m), dtype=complex)
        terms = [(1.0 + 0j, None)] if op is None else op.terms()
        for coeff, u in terms:
            for a in range(m):
                left, left_exp = ansatz.strings[a].codes, 0
                if u is not None:
                    left_exp = int(MUL_PHASE[left, u.codes].sum()) & 3
                    left = left ^ u.codes
                exps = (MUL_PHASE[left[None, :], rows].sum(axis=1, dtype=np.int64) + left_exp) & 3
                vals = np.array([value(row) for row in left[None, :] ^ rows])
                out[a, :] += coeff * (1j ** exps) * vals
        return (out + out.conj().T) / 2.0

    ops = [None] + ([objective] if objective is not None else []) + [op for _n, op in constraints]
    return [matrix_for(op) for op in ops], len(cache)


class TestKrylovExpansion:
    def test_order_zero(self):
        h = ising_hamiltonian(4)
        strings, orders = krylov_strings(h, 0)
        assert strings == [PauliString.identity(4)]
        assert orders == [0]

    def test_ising_first_order_counts(self):
        # periodic Ising: N ZZ-strings, N Z-strings, N X-strings
        for n in (4, 6, 8):
            h = ising_hamiltonian(n, g=1.0, h=1.0)
            strings, orders = krylov_strings(h, 1)
            assert len(strings) == 3 * n + 1
            assert orders.count(1) == 3 * n
            labels = {s.label for s in strings if not s.is_identity}
            assert "Z" + "I" * (n - 1) in labels
            assert "X" + "I" * (n - 1) in labels
            assert "ZZ" + "I" * (n - 2) in labels
            assert "Z" + "I" * (n - 2) + "Z" in labels  # periodic wrap bond

    def test_involution_dedupes(self):
        h = PauliSum.from_terms([(1.0, PauliString.from_label("X"))])
        strings, orders = krylov_strings(h, 3)
        assert [s.label for s in strings] == ["I", "X"]
        assert orders == [0, 1]

    def test_orders_ascend_and_dedupe_to_first_appearance(self):
        h = ising_hamiltonian(4)
        strings, orders = krylov_strings(h, 2)
        assert orders == sorted(orders)
        assert len({s.packed for s in strings}) == len(strings)

    def test_deterministic(self):
        h = ising_hamiltonian(5)
        a = [s.label for s in krylov_strings(h, 2)[0]]
        b = [s.label for s in krylov_strings(h, 2)[0]]
        assert a == b

    @pytest.mark.parametrize(
        "h, order",
        [(ising_hamiltonian(5), 3), (random_pauli_operator(70, 5, seed=4), 4)],
    )
    def test_matches_one_product_at_a_time(self, h, order):
        strings, orders = krylov_strings(h, order)
        ref_strings, ref_orders = reference_krylov(h, order)
        assert [s.packed for s in strings] == [s.packed for s in ref_strings]
        assert orders == ref_orders


class TestAnsatzSet:
    def test_take(self):
        h = ising_hamiltonian(8)
        full = krylov_ansatz(h, PlusState(), 1)
        sub = full.take(25)
        assert len(sub) == 25
        assert sub.strings[0].is_identity
        assert sub.strings == full.strings[:25]

    def test_take_m_one_and_full(self):
        h = ising_hamiltonian(4)
        full = krylov_ansatz(h, PlusState(), 1)
        assert len(full.take(1)) == 1
        assert full.take(len(full)).strings == full.strings

    def test_take_too_large(self):
        h = ising_hamiltonian(4)
        full = krylov_ansatz(h, PlusState(), 1)
        with pytest.raises(ValueError, match=str(len(full))):
            full.take(len(full) + 1)

    def test_requires_identity_first(self):
        with pytest.raises(ValueError):
            AnsatzSet(
                seed=ZeroState(),
                strings=(PauliString.from_label("X"),),
                orders=(1,),
            )

    def test_x_string_ansatz(self):
        s = x_string_ansatz(3, ZeroState())
        assert len(s) == 8
        assert s.strings[0].is_identity
        assert all(set(st.label) <= {"I", "X"} for st in s.strings)


class TestOverlaps:
    def test_orthonormal_gram_is_identity(self):
        # {I, X} strings on |0...0> give orthonormal computational basis states
        ansatz = x_string_ansatz(3, ZeroState())
        overlaps = build_overlaps(ansatz)
        np.testing.assert_allclose(overlaps.gram, np.eye(8), atol=1e-12)

    def test_identity_only_objective_entry(self):
        h = ising_hamiltonian(4)
        ansatz = krylov_ansatz(h, PlusState(), 1).take(1)
        overlaps = build_overlaps(ansatz, objective=h)
        state = prepare(PlusState(), 4).to_dense()
        expected = np.vdot(state.amplitudes, h.matrix() @ state.amplitudes)
        assert abs(overlaps.objective[0, 0] - expected) < 1e-12

    def test_matches_dense_statevector_oracle(self):
        h = ising_hamiltonian(4, g=1.0, h=1.0)
        seed = HardwareEfficientCircuit(layers=3, seed=8)
        ansatz = krylov_ansatz(h, seed, 2).take(20)
        overlaps = build_overlaps(ansatz, objective=h)
        psi = prepare(seed, 4).amplitudes
        hd = h.matrix()
        vectors = [s.matrix() @ psi for s in ansatz.strings]
        gram_oracle = np.array([[np.vdot(va, vb) for vb in vectors] for va in vectors])
        obj_oracle = np.array([[np.vdot(va, hd @ vb) for vb in vectors] for va in vectors])
        np.testing.assert_allclose(overlaps.gram, gram_oracle, atol=1e-10)
        np.testing.assert_allclose(overlaps.objective, obj_oracle, atol=1e-10)

    def test_gram_unit_diagonal_and_psd(self):
        h = ising_hamiltonian(5)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=2, seed=1), 2).take(30)
        overlaps = build_overlaps(ansatz)
        np.testing.assert_allclose(np.diag(overlaps.gram).real, np.ones(30), atol=1e-12)
        assert np.linalg.eigvalsh(overlaps.gram).min() >= -1e-10

    def test_hermitian_matrices(self):
        h = ising_hamiltonian(4)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=2, seed=4), 1)
        overlaps = build_overlaps(ansatz, objective=h, constraints={"sym": h})
        for mat in [overlaps.gram, overlaps.objective, overlaps.constraints["sym"]]:
            np.testing.assert_array_equal(mat, mat.conj().T)

    def test_hybrid_density_matrix_psd_iff_beta_psd(self):
        # dense reconstruction of sum_ij beta_ij |psi_i><psi_j|
        rng = np.random.default_rng(3)
        h = ising_hamiltonian(4)
        seed = HardwareEfficientCircuit(layers=2, seed=12)
        ansatz = krylov_ansatz(h, seed, 1).take(6)
        overlaps = build_overlaps(ansatz)
        psi = prepare(seed, 4).amplitudes
        vectors = np.stack([s.matrix() @ psi for s in ansatz.strings], axis=1)  # (16, 6)
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            beta = a @ a.conj().T
            beta /= np.trace(beta @ overlaps.gram).real
            x = vectors @ beta @ vectors.conj().T
            assert abs(np.trace(x).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh((x + x.conj().T) / 2).min() >= -1e-9

    def test_restricted_is_prefix(self):
        h = ising_hamiltonian(4)
        ansatz = krylov_ansatz(h, PlusState(), 1)
        overlaps = build_overlaps(ansatz, objective=h)
        small = overlaps.restricted(5)
        np.testing.assert_array_equal(small.gram, overlaps.gram[:5, :5])
        np.testing.assert_array_equal(small.objective, overlaps.objective[:5, :5])

    def test_rejects_non_hermitian_operator(self):
        h = ising_hamiltonian(3)
        bad = PauliSum.from_terms([(1j, PauliString.from_label("XII"))])
        ansatz = krylov_ansatz(h, PlusState(), 1).take(3)
        with pytest.raises(ValueError):
            build_overlaps(ansatz, objective=bad)

    def test_export_csv(self, tmp_path):
        h = ising_hamiltonian(3)
        ansatz = krylov_ansatz(h, PlusState(), 1).take(4)
        overlaps = build_overlaps(ansatz, objective=h)
        paths = overlaps.export_csv(tmp_path)
        assert len(paths) == 2
        data = np.loadtxt(paths[0], delimiter=",", skiprows=1)
        assert data.shape == (4, 8)
        np.testing.assert_allclose(data[:, 0::2], overlaps.gram.real, atol=1e-12)


class TestOverlapRegression:
    """Vectorized overlap measurement against the per-entry loop it replaced."""

    def test_exact_product_backend_1000_qubits(self):
        op = random_pauli_operator(1000, 8, seed=5)
        ansatz = krylov_ansatz(op, ZeroState(), 8).take(32)
        overlaps = build_overlaps(ansatz, objective=op)
        (gram, objective), _ = reference_overlaps(ansatz, objective=op)
        np.testing.assert_array_equal(overlaps.gram, gram)
        np.testing.assert_array_equal(overlaps.objective, objective)
        assert np.count_nonzero(objective) > 32  # reduced strings equal to I carry phases

    def test_exact_dense_backend_with_constraints(self):
        h = ising_hamiltonian(6, g=1.0, h=1.0)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=2, seed=9), 2).take(40)
        constraints = {"mag": magnetization(6), "parity": spin_flip_parity(6)}
        overlaps = build_overlaps(ansatz, objective=h, constraints=constraints)
        expected, _ = reference_overlaps(ansatz, h, list(constraints.items()))
        got = [overlaps.gram, overlaps.objective, *overlaps.constraints.values()]
        for mat, ref in zip(got, expected, strict=True):
            np.testing.assert_array_equal(mat, ref)

    def test_shots_mode_and_one_sample_per_distinct_string(self, monkeypatch):
        h = ising_hamiltonian(6, g=1.0, h=1.0)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=2, seed=9), 2).take(40)
        constraints = {"mag": magnetization(6)}
        calls = []
        sample = DenseState.sampled_expectation

        def counted(self, p, shots, seed):
            calls.append(p.packed)
            return sample(self, p, shots, seed)

        monkeypatch.setattr(DenseState, "sampled_expectation", counted)
        overlaps = build_overlaps(
            ansatz, objective=h, constraints=constraints, shots=300, sample_seed=17
        )
        n_calls = len(calls)
        expected, n_distinct = reference_overlaps(
            ansatz, h, list(constraints.items()), shots=300, sample_seed=17
        )
        got = [overlaps.gram, overlaps.objective, overlaps.constraints["mag"]]
        for mat, ref in zip(got, expected, strict=True):
            np.testing.assert_array_equal(mat, ref)
        assert n_calls == n_distinct == len(set(calls[:n_calls]))


class TestShotsMode:
    def test_diagonal_exact_even_with_shots(self):
        h = ising_hamiltonian(4)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=2, seed=5), 1).take(6)
        overlaps = build_overlaps(ansatz, shots=16, sample_seed=7)
        np.testing.assert_allclose(np.diag(overlaps.gram).real, np.ones(6), atol=1e-12)

    def test_deterministic_given_seed(self):
        h = ising_hamiltonian(3)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=1, seed=2), 1).take(5)
        a = build_overlaps(ansatz, objective=h, shots=200, sample_seed=3)
        b = build_overlaps(ansatz, objective=h, shots=200, sample_seed=3)
        np.testing.assert_array_equal(a.objective, b.objective)

    def test_entrywise_convergence_rate(self):
        h = ising_hamiltonian(3)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=2, seed=6), 1).take(6)
        exact = build_overlaps(ansatz, objective=h)
        rmse = {}
        for shots in (100, 10_000):
            errs = []
            for seed in range(12):
                noisy = build_overlaps(ansatz, objective=h, shots=shots, sample_seed=seed)
                errs.append(np.abs(noisy.objective - exact.objective).mean())
            rmse[shots] = np.mean(errs)
        assert 4.0 < rmse[100] / rmse[10_000] < 25.0  # ideal factor is 10
