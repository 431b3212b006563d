import hashlib
import re

import numpy as np
import pytest

import paulisdp.ansatz
from paulisdp.ansatz import AnsatzSet, build_overlaps, krylov_ansatz, krylov_strings, x_string_ansatz
from paulisdp.models import (
    heisenberg_hamiltonian,
    ising_hamiltonian,
    magnetization,
    random_pauli_operator,
    spin_flip_parity,
)
from paulisdp.pauli import PauliString, PauliSum, multiply_words
from paulisdp.states import (
    DenseState,
    HardwareEfficientCircuit,
    PlusState,
    ProductState,
    ZeroState,
    prepare,
)

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
    """The per-entry overlap loop: one letter-table product and table lookup per entry.

    The loop collects the distinct reduced strings; one batch call then
    evaluates them, each sampled from its own blake2b seed.  Returns the
    matrices (gram, objective, then constraints in order) and the number of
    distinct reduced strings evaluated.
    """
    state = prepare(ansatz.seed, ansatz.n_qubits)
    distinct = {}  # reduced string's code bytes -> its row in the batch call
    m = len(ansatz)
    rows = np.stack([s.codes for s in ansatz.strings])

    def entries_for(op):
        """(row a, coefficient times i^exps, batch rows) of each term's row of entries."""
        entries = []
        terms = [(1.0 + 0j, None)] if op is None else op.terms()
        for coeff, u in terms:
            for a in range(m):
                left, left_exp = ansatz.strings[a].codes, 0
                if u is not None:
                    left_exp = int(MUL_PHASE[left, u.codes].sum()) & 3
                    left = left ^ u.codes
                exps = (MUL_PHASE[left[None, :], rows].sum(axis=1, dtype=np.int64) + left_exp) & 3
                reduced = left[None, :] ^ rows
                keys = [distinct.setdefault(row.tobytes(), len(distinct)) for row in reduced]
                entries.append((a, coeff * (1j ** exps), keys))
        return entries

    ops = [None] + ([objective] if objective is not None else []) + [op for _n, op in constraints]
    pending = [entries_for(op) for op in ops]
    strings = [PauliString(np.frombuffer(key, dtype=np.uint8)) for key in distinct]
    x, z = (np.stack([getattr(s, w) for s in strings]) for w in "xz")
    if shots is None:
        values = state.expectations(x, z).real
    else:
        salt = sample_seed.to_bytes(8, "little", signed=True)
        seeds = [int.from_bytes(hashlib.blake2b(key + salt, digest_size=8).digest(), "little")
                 for key in distinct]
        values = state.sampled_expectations(x, z, shots, seeds)

    def matrix_for(entries):
        out = np.zeros((m, m), dtype=complex)
        for a, phased, keys in entries:
            out[a, :] += phased * values[keys]
        return (out + out.conj().T) / 2.0

    return [matrix_for(entries) for entries in pending], len(distinct)


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
        [
            (ising_hamiltonian(5), 3),
            (random_pauli_operator(70, 5, seed=4), 4),
            (ising_hamiltonian(6, g=1.0, h=1.0), 3),
            (random_pauli_operator(1000, 8, seed=1), 5),
            (random_pauli_operator(3, 4, seed=2), 6),  # orders 5 and 6 add no string
        ],
    )
    def test_matches_one_product_at_a_time(self, h, order):
        strings, orders = krylov_strings(h, order)
        ref_strings, ref_orders = reference_krylov(h, order)
        assert [s.packed for s in strings] == [s.packed for s in ref_strings]
        assert orders == ref_orders

    @pytest.mark.parametrize(
        "h, order",
        [
            (ising_hamiltonian(6, g=1.0, h=1.0), 3),
            (random_pauli_operator(70, 5, seed=4), 4),
            (random_pauli_operator(1000, 8, seed=1), 8),
            (random_pauli_operator(3, 4, seed=2), 6),
        ],
    )
    def test_strings_equal_their_rebuilt_strings(self, h, order):
        """Expanded strings carry the slots ``PauliString(codes)`` derives, read-only."""
        strings, orders = krylov_strings(h, order)
        if h.n_qubits == 3:
            assert max(orders) == 4  # the levels of orders 5 and 6 are empty
        for s in strings:
            rebuilt = PauliString(s.codes.copy())
            assert s == rebuilt and hash(s) == hash(rebuilt)
            assert s.packed == rebuilt.packed and s.phase_power == 0
            np.testing.assert_array_equal(s.x, rebuilt.x)
            np.testing.assert_array_equal(s.z, rebuilt.z)
            assert s.x.dtype == s.z.dtype == np.uint64 and s.x.shape == rebuilt.x.shape
            assert s.codes.dtype == np.uint8 and s.codes.flags.c_contiguous
            for part in (s.codes, s.x, s.z):
                assert not part.flags.writeable


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

    @pytest.mark.parametrize("shots", [None, 300])
    @pytest.mark.parametrize(
        "n, seed", [(6, HardwareEfficientCircuit(layers=2, seed=4)), (40, PlusState())]
    )
    def test_ansatz_not_closed_under_products(self, n, seed, shots):
        """Random strings: Gram products s_a s_b repeat little beyond s_b s_a, so D is near M^2 / 2."""
        rng = np.random.default_rng(n)
        codes = {tuple(c) for c in rng.integers(0, 4, size=(40, n)) if any(c)}
        strings = (PauliString.identity(n), *(PauliString(np.array(c)) for c in sorted(codes)))
        ansatz = AnsatzSet(seed=seed, strings=strings, orders=(0,) + (1,) * len(codes))
        op = random_pauli_operator(n, 6, seed=n)
        overlaps = build_overlaps(ansatz, objective=op, shots=shots, sample_seed=7)
        (gram, objective), _ = reference_overlaps(ansatz, objective=op, shots=shots, sample_seed=7)
        np.testing.assert_array_equal(overlaps.gram, gram)
        np.testing.assert_array_equal(overlaps.objective, objective)

    @pytest.mark.parametrize("shots", [None, 300])
    def test_constraint_terms_outside_the_hamiltonians_group(self, shots):
        """Single-site Z terms anticommute with the global flips every Heisenberg product commutes with."""
        h = heisenberg_hamiltonian(6)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=2, seed=9), 2).take(40)
        constraints = {"mag": magnetization(6)}
        overlaps = build_overlaps(ansatz, h, constraints, shots=shots, sample_seed=11)
        expected, _ = reference_overlaps(
            ansatz, h, list(constraints.items()), shots=shots, sample_seed=11
        )
        got = [overlaps.gram, overlaps.objective, overlaps.constraints["mag"]]
        for mat, ref in zip(got, expected, strict=True):
            np.testing.assert_array_equal(mat, ref)

    def test_terms_multiply_only_the_distinct_gram_strings(self, monkeypatch):
        """Word products: none for the Gram pass, then D per term, not M^2 per term."""
        op = random_pauli_operator(1000, 8, seed=5)
        ansatz = krylov_ansatz(op, ZeroState(), 8).take(64)
        products = [(s * t).phase_free() for s in ansatz.strings for t in ansatz.strings]
        n_distinct = len({p.packed for p in products})
        rows = []

        def counted(x1, z1, x2, z2):
            rows.append(int(np.prod(np.broadcast_shapes(x1.shape, x2.shape)[:-1])))
            return multiply_words(x1, z1, x2, z2)

        monkeypatch.setattr(paulisdp.ansatz, "multiply_words", counted)
        build_overlaps(ansatz, objective=op)
        m, terms = len(ansatz), len(op)
        x, z = paulisdp.ansatz._stacked_words(products, 1000)
        assert len(set(paulisdp.ansatz._string_keys(x, z, 1000).tolist())) == n_distinct  # no clash
        assert sum(rows) == terms * n_distinct
        assert sum(rows) < (1 + terms) * m * m / 5

    def test_shots_mode_and_one_sample_per_distinct_string(self, monkeypatch):
        self.check_one_sample_per_distinct_string(
            monkeypatch, 6, HardwareEfficientCircuit(layers=2, seed=9), DenseState
        )

    def test_hashed_keys_sample_each_distinct_string_once(self, monkeypatch):
        self.check_one_sample_per_distinct_string(monkeypatch, 40, PlusState(), ProductState)

    @staticmethod
    def check_one_sample_per_distinct_string(monkeypatch, n, seed, backend):
        h = ising_hamiltonian(n, g=1.0, h=1.0)
        ansatz = krylov_ansatz(h, seed, 2).take(40)
        constraints = {"mag": magnetization(n)}
        calls = []
        sample = backend.sampled_expectations

        def counted(self, x, z, shots, seeds):
            calls.extend(row.tobytes() for row in np.concatenate([x, z], axis=1))
            return sample(self, x, z, shots, seeds)

        monkeypatch.setattr(backend, "sampled_expectations", counted)
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

    @pytest.mark.parametrize("shots", [None, 300])
    @pytest.mark.parametrize(
        "n, seed, backend",
        [
            (6, HardwareEfficientCircuit(layers=2, seed=9), DenseState),
            (40, PlusState(), ProductState),
        ],
    )
    def test_one_backend_call_per_build(self, monkeypatch, n, seed, backend, shots):
        """Every distinct string of a build, and only those, go to the backend in one call."""
        h = ising_hamiltonian(n, g=1.0, h=1.0)
        ansatz = krylov_ansatz(h, seed, 2).take(40)
        constraints = {"mag": magnetization(n)}
        name = "expectations" if shots is None else "sampled_expectations"
        calls = []
        measure = getattr(backend, name)

        def counted(self, x, z, *args):
            calls.append([row.tobytes() for row in np.concatenate([x, z], axis=1)])
            return measure(self, x, z, *args)

        monkeypatch.setattr(backend, name, counted)
        overlaps = build_overlaps(ansatz, h, constraints, shots=shots, sample_seed=17)
        monkeypatch.undo()
        expected, n_distinct = reference_overlaps(
            ansatz, h, list(constraints.items()), shots=shots, sample_seed=17
        )
        got = [overlaps.gram, overlaps.objective, overlaps.constraints["mag"]]
        for mat, ref in zip(got, expected, strict=True):
            np.testing.assert_array_equal(mat, ref)
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == n_distinct == overlaps.n_measured
        assert overlaps.restricted(7).n_measured == n_distinct

    @pytest.mark.parametrize("shots", [None, 300])
    @pytest.mark.parametrize(
        "n, seed", [(5, HardwareEfficientCircuit(layers=2, seed=4)), (70, PlusState())]
    )
    def test_one_row_blocks_match_default_blocks(self, monkeypatch, n, seed, shots):
        op = random_pauli_operator(n, 6, seed=n)
        ansatz = krylov_ansatz(op, seed, 3).take(20)
        default = build_overlaps(ansatz, objective=op, shots=shots, sample_seed=3)
        monkeypatch.setattr(paulisdp.ansatz, "_BLOCK_WORDS", 1)
        one_row = build_overlaps(ansatz, objective=op, shots=shots, sample_seed=3)
        np.testing.assert_array_equal(one_row.gram, default.gram)
        np.testing.assert_array_equal(one_row.objective, default.objective)


class TestStringKeys:
    """The overlap builder's string keys: XOR-linear, exact to 32 qubits, and above that trusted
    only where proven one-to-one on the span of a build's strings, row-checked otherwise."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 1000])
    def test_key_of_product_is_xor_of_keys(self, n):
        rng = np.random.default_rng(n)
        strings = [PauliString(c) for c in rng.integers(0, 4, size=(50, n), dtype=np.uint8)]
        x, z = paulisdp.ansatz._stacked_words(strings, n)
        keys = paulisdp.ansatz._string_keys(x, z, n)
        px, pz, _exp = multiply_words(x[:, None], z[:, None], x, z)
        width = x.shape[1]
        product_keys = paulisdp.ansatz._string_keys(px.reshape(-1, width), pz.reshape(-1, width), n)
        np.testing.assert_array_equal(product_keys, (keys[:, None] ^ keys).ravel())
        assert keys.dtype == np.uint64
        assert len(set(keys.tolist())) == len({s.packed for s in strings})

    @pytest.mark.parametrize("n", [1, 5, 31, 32])
    def test_narrow_key_is_x_shifted_over_z(self, n):
        rng = np.random.default_rng(n)
        strings = [PauliString(c) for c in rng.integers(0, 4, size=(30, n), dtype=np.uint8)]
        x, z = paulisdp.ansatz._stacked_words(strings, n)
        expected = [int(s.x[0]) << n | int(s.z[0]) for s in strings]
        assert paulisdp.ansatz._string_keys(x, z, n).tolist() == expected

    @staticmethod
    def colliding_key_table(width):
        """The zero linear map: every string above 32 qubits gets key 0."""
        return np.zeros((16 * width, 256), dtype=np.uint64)

    @pytest.mark.parametrize("shots", [None, 300])
    def test_colliding_keys_give_the_reference_matrices(self, monkeypatch, shots):
        op = random_pauli_operator(40, 6, seed=2)
        ansatz = krylov_ansatz(op, PlusState(), 3).take(30)
        monkeypatch.setattr(paulisdp.ansatz, "_key_table", self.colliding_key_table)
        x, z = paulisdp.ansatz._stacked_words(ansatz.strings, 40)
        assert not paulisdp.ansatz._string_keys(x, z, 40).any()  # every string collides
        overlaps = build_overlaps(ansatz, objective=op, shots=shots, sample_seed=5)
        (gram, objective), _ = reference_overlaps(ansatz, objective=op, shots=shots, sample_seed=5)
        np.testing.assert_array_equal(overlaps.gram, gram)
        np.testing.assert_array_equal(overlaps.objective, objective)

    @pytest.mark.parametrize("shots", [None, 300])
    def test_colliding_keys_in_one_row_blocks(self, monkeypatch, shots):
        """Gram and term products clash within and across the smallest blocks."""
        monkeypatch.setattr(paulisdp.ansatz, "_BLOCK_WORDS", 1)
        self.test_colliding_keys_give_the_reference_matrices(monkeypatch, shots)

    def test_colliding_keys_give_the_reference_expansion(self, monkeypatch):
        op = random_pauli_operator(40, 6, seed=2)
        monkeypatch.setattr(paulisdp.ansatz, "_key_table", self.colliding_key_table)
        strings, orders = krylov_strings(op, 3)
        ref_strings, ref_orders = reference_krylov(op, 3)
        assert [s.packed for s in strings] == [s.packed for s in ref_strings]
        assert orders == ref_orders

    def test_gf2_rank_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _trial in range(300):
            bits = int(rng.integers(1, 10))
            rows = [int(r) for r in rng.integers(0, 1 << bits, size=rng.integers(0, 9))]
            span = {0}
            for row in rows:
                span |= {s ^ row for s in span}
            rank = len(span).bit_length() - 1
            for cap in (0, 1, 2, 3, 64):
                assert paulisdp.ansatz._gf2_rank(rows, cap) == min(rank, cap + 1)

    @staticmethod
    def checked(strings, n):
        """``_keys_checked`` on the rows of these strings, with their keys."""
        x, z = paulisdp.ansatz._stacked_words(strings, n)
        return paulisdp.ansatz._keys_checked(x, z, paulisdp.ansatz._string_keys(x, z, n), n)

    def test_proof_needs_a_rank_within_the_key_bits(self, monkeypatch):
        rng = np.random.default_rng(1)
        strings = [PauliString(c) for c in rng.integers(0, 4, size=(65, 1000), dtype=np.uint8)]
        assert not self.checked(strings[:40], 1000)
        assert self.checked(strings, 1000)  # rank 65: no 64-bit key is one-to-one on the span
        monkeypatch.setattr(paulisdp.ansatz, "_key_table", self.colliding_key_table)
        assert self.checked(strings[:2], 1000)
        short = [PauliString(c) for c in rng.integers(0, 4, size=(40, 32), dtype=np.uint8)]
        assert not self.checked(short, 32)  # keys to 32 qubits are exact

    @staticmethod
    def planted_key_table(*rows):
        """A random GF(2)-linear key map, laid out as ``_key_table``'s, whose kernel holds the
        XOR of the given strings' x|z words."""
        x, z = paulisdp.ansatz._stacked_words(rows, rows[0].n_qubits)
        kernel = np.bitwise_xor.reduce(np.concatenate([x, z], axis=1), axis=0)
        on = np.flatnonzero(np.unpackbits(kernel.view(np.uint8), bitorder="little"))

        def table(width):
            images = np.random.default_rng(7).integers(0, 1 << 64, 128 * width, dtype=np.uint64)
            images[on[0]] = np.bitwise_xor.reduce(images[on[1:]])
            images = images.reshape(16 * width, 8)
            out = np.zeros((16 * width, 256), dtype=np.uint64)
            for bit in range(8):
                out[:, 1 << bit : 2 << bit] = out[:, : 1 << bit] ^ images[:, bit, None]
            return out

        return table

    @pytest.mark.parametrize("shots", [None, 300])
    def test_planted_kernel_gives_the_reference_matrices(self, monkeypatch, shots):
        """No two ansatz strings share a key, but the Gram products a b and c I do.

        a b is an X string, which reads 1 on the plus state, and c reads 0;
        c has an even Y count, so c I is real and a wrong value shows in the
        Hermitian part.
        """
        rng = np.random.default_rng(4)
        codes = [rng.integers(1, 4, size=40, dtype=np.uint8) for _ in range(30)]
        a, b = codes[0], codes[0] ^ rng.integers(0, 2, size=40, dtype=np.uint8)
        c = next(s for s in codes[1:] if np.count_nonzero(s == 2) % 2 == 0)
        strings = [PauliString(s) for s in sorted({s.tobytes(): s for s in [b, *codes]}.values(),
                                                   key=bytes)]
        ansatz = AnsatzSet(seed=PlusState(), strings=(PauliString.identity(40), *strings),
                           orders=(0,) + (1,) * len(strings))
        op = random_pauli_operator(40, 6, seed=2)
        generators = [*ansatz.strings, *(u for _c, u in op.terms())]
        assert not self.checked(generators, 40)
        planted = self.planted_key_table(*(PauliString(s) for s in (a, b, c)))
        monkeypatch.setattr(paulisdp.ansatz, "_key_table", planted)
        assert self.checked(generators, 40)
        x, z = paulisdp.ansatz._stacked_words(ansatz.strings, 40)
        keys = paulisdp.ansatz._string_keys(x, z, 40)
        assert len(set(keys.tolist())) == len(ansatz)
        products = len({(s * t).phase_free().packed for s in ansatz.strings for t in ansatz.strings})
        assert len(set((keys[:, None] ^ keys).ravel().tolist())) < products
        overlaps = build_overlaps(ansatz, objective=op, shots=shots, sample_seed=5)
        (gram, objective), _ = reference_overlaps(ansatz, objective=op, shots=shots, sample_seed=5)
        np.testing.assert_array_equal(overlaps.gram, gram)
        np.testing.assert_array_equal(overlaps.objective, objective)

    def test_planted_kernel_gives_the_reference_expansion(self, monkeypatch):
        """Terms u1 .. u5 and u1 u2, with u1 ^ u2 ^ u3 planted in the kernel: the keys of u3 and
        u1 u2 clash on the first level."""
        op = random_pauli_operator(40, 5, seed=3)
        u = [s for _c, s in op.terms()]
        op = op + PauliSum(40, [(0.5, (u[0] * u[1]).phase_free())])
        generators = [s for _c, s in op.terms()]
        monkeypatch.setattr(paulisdp.ansatz, "_key_table", self.planted_key_table(*u[:3]))
        assert self.checked(generators, 40)
        x, z = paulisdp.ansatz._stacked_words(generators, 40)
        assert len(set(paulisdp.ansatz._string_keys(x, z, 40).tolist())) < len(generators)
        strings, orders = krylov_strings(op, 3)
        ref_strings, ref_orders = reference_krylov(op, 3)
        assert [s.packed for s in strings] == [s.packed for s in ref_strings]
        assert orders == ref_orders

    @pytest.mark.parametrize("n, terms, order, m, colliding", [(1000, 8, 8, 128, False),
                                                                (40, 6, 3, 30, True)])
    def test_rows_are_checked_only_where_keys_are_not_proven(
        self, monkeypatch, n, terms, order, m, colliding
    ):
        """The 1000-qubit M = 128 build checks no row; the zero key table's builds check rows."""
        op = random_pauli_operator(n, terms, seed=5)
        calls, differs = [], paulisdp.ansatz._differs

        def counted(*args):
            calls.append(args)
            return differs(*args)

        monkeypatch.setattr(paulisdp.ansatz, "_differs", counted)
        if colliding:
            monkeypatch.setattr(paulisdp.ansatz, "_key_table", self.colliding_key_table)
        ansatz = krylov_ansatz(op, ZeroState(), order).take(m)
        n_krylov = len(calls)
        build_overlaps(ansatz, objective=op)
        assert (n_krylov > 0 and len(calls) > n_krylov) if colliding else calls == []


class TestShotsMode:
    @pytest.mark.parametrize("settings, message", [
        (dict(shots=100.5), "shots must be a positive integer, got 100.5"),
        (dict(shots=300, sample_seed=1.5), "sample_seed must be an integer in [-2**63, 2**63)"),
        (dict(shots=300, sample_seed=True), "sample_seed must be an integer in [-2**63, 2**63)"),
        (dict(shots=300, sample_seed=-(2**63) - 1), "sample_seed must be an integer in [-2**63"),
    ])
    def test_rejects_settings_that_would_bias_or_break_the_draws(self, settings, message):
        h = ising_hamiltonian(3)
        ansatz = krylov_ansatz(h, HardwareEfficientCircuit(layers=1, seed=2), 1).take(5)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_overlaps(ansatz, objective=h, **settings)

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
