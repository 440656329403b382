import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density, random_hermitian
from qcorr.linalg import (
    ENVELOPE,
    check_envelope,
    entropy_of_spectrum,
    hermitian_eigensystem,
    partial_trace,
    partial_transpose,
    purity,
    von_neumann_entropy,
)
from qcorr.oracle import conditional_ensemble
from qcorr.states import WernerParams, build_werner, random_unitary


class TestHermitianEigensystem:
    def test_identity(self):
        w, V = hermitian_eigensystem(np.eye(3))
        assert_allclose(w, np.ones(3))
        assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)

    def test_diagonal_ascending(self):
        w, _ = hermitian_eigensystem(np.diag([2.0, -1.0]))
        assert_allclose(w, [-1.0, 2.0])

    def test_random_reconstruction(self, rng):
        M = random_hermitian(6, rng)
        w, V = hermitian_eigensystem(M)
        rebuilt = (V * w) @ V.conj().T
        assert np.abs(M - rebuilt).max() <= 1e-10 * np.abs(w).max()

    def test_reconstruction_sweep(self, rng):
        # 1000 random Hermitian matrices up to side 36
        for _ in range(1000):
            n = int(rng.integers(2, 37))
            M = random_hermitian(n, rng)
            w, V = hermitian_eigensystem(M)
            scale = max(np.abs(w).max(), 1e-300)
            assert np.abs(M - (V * w) @ V.conj().T).max() <= 1e-10 * scale
            assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigensystem(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEnvelope:
    @pytest.mark.parametrize("row", ENVELOPE)
    def test_limit_is_inside_and_one_more_is_named(self, row):
        limit = ENVELOPE[row]
        check_envelope(row, limit)
        with pytest.raises(ValueError, match=f"^{row} {limit + 1} exceeds the envelope {limit}$"):
            check_envelope(row, limit + 1)

    @pytest.mark.parametrize("size, shown", [
        (10**15 - 1, "999999999999999"), (10**15, "1.000e+15"), (2**63 - 2, "9.223e+18"),
        (10**400, "1.000e+400"), (math.inf, "Infinity"),
    ])
    def test_size_past_15_digits_is_named_in_scientific_form(self, size, shown):
        with pytest.raises(ValueError) as error:
            check_envelope("state side", size)
        assert str(error.value) == f"state side {shown} exceeds the envelope 4096"

    def test_matrix_side_is_checked_before_its_eigensolve(self):
        with pytest.raises(ValueError, match="^state side 4097 exceeds the envelope 4096$"):
            hermitian_eigensystem(np.broadcast_to(0j, (4097, 4097)))  # a view: no allocation


class TestPartialTrace:
    def test_product_state_factors(self, rng):
        sigma = random_density(3, rng)
        tau = random_density(4, rng)
        rho = np.kron(sigma, tau)
        assert_allclose(partial_trace(rho, (3, 4), "B"), sigma, atol=1e-13)
        assert_allclose(partial_trace(rho, (3, 4), "A"), tau, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_werner_marginals_maximally_mixed(self, d, side):
        rho = build_werner(WernerParams(d, 0.37))
        reduced = partial_trace(rho.matrix, rho.dims, side)
        assert np.abs(reduced - np.eye(d) / d).max() <= 1e-12

    def test_schmidt_state_marginal(self):
        u = np.array([0.8, 0.6])
        psi = np.zeros(4)
        psi[0], psi[3] = u
        rho = np.outer(psi, psi)
        assert_allclose(partial_trace(rho, (2, 2), "B"), np.diag(u**2), atol=1e-14)

    def test_trace_and_positivity_preserved(self, rng):
        for _ in range(20):
            rho = random_density(12, rng)
            for side in ("A", "B"):
                reduced = partial_trace(rho, (3, 4), side)
                assert abs(reduced.trace() - rho.trace()) <= 1e-12
                assert np.linalg.eigvalsh(reduced).min() >= -1e-10

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            partial_trace(random_density(6, rng), (2, 4), "B")


class TestPartialTranspose:
    def test_maximally_entangled_spectrum(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
        pt = partial_transpose(np.outer(psi, psi), (2, 2), "B")
        assert_allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)

    def test_product_state_stays_positive(self, rng):
        rho = np.kron(random_density(3, rng), random_density(3, rng))
        for side in ("A", "B"):
            assert np.linalg.eigvalsh(partial_transpose(rho, (3, 3), side)).min() >= -1e-12

    def test_pseudo_pure_block_spectrum(self):
        # spectrum of the transposed state splits into the diagonal blocks
        # beta + (alpha-beta) u_i^2 and the pair blocks beta +- (alpha-beta) u_i u_j
        from qcorr.states import PseudoPureParams, build_pseudo_pure

        d, alpha = 3, 0.55
        u = np.array([0.7, 0.6, math.sqrt(1 - 0.49 - 0.36)])
        p = PseudoPureParams(d, alpha, u)
        rho = build_pseudo_pure(p)
        got = np.sort(np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.dims, "B")))
        beta = p.beta
        expected = [beta + (alpha - beta) * ui**2 for ui in u]
        for i in range(d):
            for j in range(i + 1, d):
                expected.append(beta + (alpha - beta) * u[i] * u[j])
                expected.append(beta - (alpha - beta) * u[i] * u[j])
        assert_allclose(got, np.sort(expected), atol=1e-12)

    def test_involution(self, rng):
        rho = random_density(12, rng)
        for side in ("A", "B"):
            back = partial_transpose(partial_transpose(rho, (3, 4), side), (3, 4), side)
            assert np.abs(back - rho).max() <= 1e-14

    def test_preserves_hermiticity_and_trace(self, rng):
        rho = random_density(9, rng)
        pt = partial_transpose(rho, (3, 3), "B")
        assert np.abs(pt - pt.conj().T).max() <= 1e-14
        assert abs(pt.trace() - 1.0) <= 1e-14


class TestBipartiteValidation:
    """partial_trace and partial_transpose reject the same inputs with the same messages."""

    @pytest.fixture(params=[partial_trace, partial_transpose], ids=["trace", "transpose"])
    def op(self, request):
        return request.param

    @pytest.mark.parametrize("matrix, dims, side, message", [
        (np.ones(4), (2, 2), "B", "state must be 2-dimensional, got shape (4,)"),
        (np.ones((1, 4, 4)), (2, 2), "B", "state must be 2-dimensional, got shape (1, 4, 4)"),
        (np.ones((4, 2)), (2, 2), "B", "state must be square, got shape (4, 2)"),
        (np.eye(4), 4, "B", "dims must be a (dimA, dimB) pair, got 4"),
        (np.eye(4), (2, 2, 1), "A", "dims must be a (dimA, dimB) pair, got (2, 2, 1)"),
        (np.eye(4), (1, 4), "B", "local dimensions must be >= 2, got (1, 4)"),
        (np.eye(4), (4, 1), "A", "local dimensions must be >= 2, got (4, 1)"),
        (np.eye(4), (2, 2), "C", "side must be 'A' or 'B', got 'C'"),
        (np.eye(4), (2, 2), "b", "side must be 'A' or 'B', got 'b'"),
        (np.eye(4), (2, 2), None, "side must be 'A' or 'B', got None"),
    ])
    def test_rejects_with_message(self, op, matrix, dims, side, message):
        with pytest.raises(ValueError) as info:
            op(matrix, dims, side)
        assert str(info.value) == message


class TestEntropyOfSpectrum:
    @pytest.mark.parametrize("spectrum", [[], [0.0], [0.0, 0.0], [1e-15, 5e-16, 0.0],
                                          [-1e-11, 1e-16]])
    def test_nothing_above_cutoff_is_positive_zero(self, spectrum):
        value = entropy_of_spectrum(spectrum)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("spectrum", [[1.0], [1.0, 0.0, 0.0], [0.0, 1e-16, 1.0]])
    def test_pure_spectrum_is_negative_zero(self, spectrum):
        value = entropy_of_spectrum(spectrum)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="below -1e-10; not a state"):
            entropy_of_spectrum([1.0, -2e-10])


class TestVonNeumannEntropy:
    def test_pure_state(self, rng):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v /= np.linalg.norm(v)
        assert von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_werner_symmetric_point(self):
        rho = build_werner(WernerParams(2, 0.0))
        assert von_neumann_entropy(rho.matrix) == pytest.approx(math.log2(3), abs=1e-12)

    def test_additive_on_products(self, rng):
        for _ in range(10):
            a = random_density(3, rng)
            b = random_density(4, rng)
            total = von_neumann_entropy(np.kron(a, b))
            assert total == pytest.approx(
                von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9
            )

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.diag([1.1, -0.1]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.eye(2))


class TestPurity:
    def test_pure_projector(self):
        assert purity(np.diag([1.0, 0.0])) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        # uniform spectrum on n = d^2 = 9 levels: purity 1/n
        assert purity(np.eye(9) / 9) == pytest.approx(1.0 / 9)

    def test_pseudo_pure_closed_form(self):
        from qcorr.states import PseudoPureParams, build_pseudo_pure

        d, alpha = 3, 0.4
        p = PseudoPureParams(d, alpha, np.array([0.8, 0.6, 0.0]))
        rho = build_pseudo_pure(p)
        expected = alpha**2 + (1 - alpha) ** 2 / (d**2 - 1)
        assert purity(rho.matrix) == pytest.approx(expected, abs=1e-12)

    def test_matches_spectrum(self, rng):
        rho = random_density(7, rng)
        w, _ = hermitian_eigensystem(rho)
        assert abs(purity(rho) - (w**2).sum()) <= 1e-10


class TestCommutatorNorm:
    def test_werner_conditional_states_commute(self):
        rho = build_werner(WernerParams(3, 0.6))
        ens = conditional_ensemble(rho, random_unitary(3, 11))
        states = ens.conditional_states
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                a, b = states[i], states[j]
                assert np.linalg.norm(a @ b - b @ a) <= 1e-10
