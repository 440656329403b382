import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density
from qcorr import linalg, states
from qcorr.linalg import ENVELOPE, hermitian_eigensystem, partial_transpose
from qcorr.oracle import negativity_numeric
from qcorr.states import (
    DensityMatrix,
    PseudoPureParams,
    WernerParams,
    build_pseudo_pure,
    build_werner,
    flip_operator,
    isotropic_params,
    normalized_schmidt,
    random_schmidt_vector,
    random_unitaries,
    random_unitary,
    schmidt_state_vector,
    symmetric_antisymmetric_projectors,
    validate_schmidt,
)


class TestProjectors:
    def test_subspace_dimensions_d2(self):
        plus, minus = symmetric_antisymmetric_projectors(2)
        assert plus.trace().real == pytest.approx(3.0)
        assert minus.trace().real == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_resolution_of_identity(self, d):
        plus, minus = symmetric_antisymmetric_projectors(d)
        assert np.abs(plus + minus - np.eye(d * d)).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_orthogonal_idempotent(self, d):
        plus, minus = symmetric_antisymmetric_projectors(d)
        assert np.abs(plus @ minus).max() <= 1e-14
        assert np.abs(plus @ plus - plus).max() <= 1e-14
        assert np.abs(minus @ minus - minus).max() <= 1e-14
        assert plus.trace().real == pytest.approx(d * (d + 1) / 2)
        assert minus.trace().real == pytest.approx(d * (d - 1) / 2)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            symmetric_antisymmetric_projectors(1)


class TestWerner:
    def test_singlet_at_lam_one(self):
        rho = build_werner(WernerParams(2, 1.0))
        singlet = np.zeros(4)
        singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        assert_allclose(rho.matrix, np.outer(singlet, singlet), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed_point(self, d):
        lam = (d - 1) / (2 * d)
        rho = build_werner(WernerParams(d, lam))
        assert np.abs(rho.matrix - np.eye(d * d) / d**2).max() <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.77, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_antisymmetric_weight_recovers_lam(self, d, lam):
        _, minus = symmetric_antisymmetric_projectors(d)
        rho = build_werner(WernerParams(d, lam))
        assert (rho.matrix @ minus).trace().real == pytest.approx(lam, abs=1e-12)

    def test_uu_conjugation_invariance(self):
        pairs = [(d, lam) for d in (2, 3, 4, 5) for lam in (0.1, 0.5, 0.9)][:10]
        seeds = range(50)
        for d, lam in pairs:
            rho = build_werner(WernerParams(d, lam)).matrix
            for seed in seeds:
                U = random_unitary(d, seed)
                UU = np.kron(U, U)
                assert np.abs(UU @ rho @ UU.conj().T - rho).max() <= 1e-10

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            WernerParams(1, 0.5)
        with pytest.raises(ValueError):
            WernerParams(3, 1.2)

    def test_dimension_bound_is_where_d_times_d_plus_one_overflows(self):
        largest = (math.isqrt(4 * int(sys.float_info.max) + 1) - 1) // 2
        assert largest * (largest + 1) <= sys.float_info.max < (largest + 1) * (largest + 2)
        for d in (largest, np.int64(2**62)):  # d(d+1) of an int64 would wrap
            assert WernerParams(d, 0.5).d == d
        for d in (largest + 1, 10**308, 10**309):
            with pytest.raises(ValueError, match=r"^local dimension too large: d\(d\+1\) "
                                                 r"exceeds the float maximum$"):
                WernerParams(d, 0.5)


class TestPseudoPure:
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.6, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_two_level_spectrum(self, d, alpha, rng):
        u = random_schmidt_vector(d, int(rng.integers(1 << 31)))
        p = PseudoPureParams(d, alpha, u)
        rho = build_pseudo_pure(p)
        got = np.sort(np.linalg.eigvalsh(rho.matrix))
        expected = np.sort(np.concatenate([np.full(d * d - 1, p.beta), [alpha]]))
        assert np.abs(got - expected).max() <= 1e-10

    def test_pure_at_alpha_one(self):
        u = np.array([0.8, 0.6])
        p = PseudoPureParams(2, 1.0, u)
        psi = schmidt_state_vector(u)
        assert_allclose(build_pseudo_pure(p).matrix, np.outer(psi, psi.conj()), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_white_noise_point(self, d):
        u = random_schmidt_vector(d, 3)
        rho = build_pseudo_pure(PseudoPureParams(d, 1.0 / d**2, u))
        assert np.abs(rho.matrix - np.eye(d * d) / d**2).max() <= 1e-12

    def test_product_pure_part_is_ppt(self):
        u = np.array([1.0, 0.0, 0.0])
        rho = build_pseudo_pure(PseudoPureParams(3, 0.9, u))
        evals = np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.dims, "B"))
        assert evals.min() >= -1e-12

    def test_rejects_bad_schmidt(self):
        with pytest.raises(ValueError):
            PseudoPureParams(2, 0.5, np.array([0.6, 0.8]))  # ascending
        with pytest.raises(ValueError):
            PseudoPureParams(2, 0.5, np.array([0.9, 0.1]))  # not normalized
        with pytest.raises(ValueError):
            PseudoPureParams(3, 0.5, np.array([0.8, 0.6]))  # wrong length
        with pytest.raises(ValueError):
            PseudoPureParams(2, 0.5, np.array([1.2, -0.2]))  # negative entry


class TestIsotropic:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_uniform_pseudo_pure(self, d):
        alpha = 0.4
        u = np.full(d, 1 / math.sqrt(d))
        direct = build_pseudo_pure(isotropic_params(d, alpha))
        via_pp = build_pseudo_pure(PseudoPureParams(d, alpha, u))
        assert np.abs(direct.matrix - via_pp.matrix).max() <= 1e-14

    def test_maximally_entangled_at_alpha_one(self):
        rho = build_pseudo_pure(isotropic_params(2, 1.0))
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
        assert_allclose(rho.matrix, np.outer(phi, phi), atol=1e-14)

    def test_white_noise_point(self):
        rho = build_pseudo_pure(isotropic_params(3, 1.0 / 9))
        assert np.abs(rho.matrix - np.eye(9) / 9).max() <= 1e-12


class TestRandomSchmidtVector:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_normalized_descending(self, seed):
        u = random_schmidt_vector(4, seed)
        assert abs((u**2).sum() - 1.0) <= 1e-12
        assert np.all(np.diff(u) <= 0)

    def test_deterministic(self):
        a = random_schmidt_vector(5, 99)
        b = random_schmidt_vector(5, 99)
        assert np.array_equal(a, b)

    def test_leading_amplitude_dominates_d2(self):
        for seed in range(50):
            assert random_schmidt_vector(2, seed)[0] >= 1 / math.sqrt(2) - 1e-15

    @pytest.mark.parametrize("vector", [lambda d: isotropic_params(d, 0.5).schmidt,
                                        lambda d: random_schmidt_vector(d, 0)],
                             ids=["isotropic", "random"])
    def test_schmidt_vector_beyond_the_envelope_is_refused_before_allocation(self, vector):
        limit = ENVELOPE["Schmidt vector length"]
        for d, shown in ((limit + 1, str(limit + 1)), (10**15, "1.000e+15")):
            message = f"^Schmidt vector length {re.escape(shown)} exceeds the envelope {limit}$"
            with pytest.raises(ValueError, match=message):
                vector(d)
        assert vector(5).shape == (5,)


class TestStateSide:
    @pytest.mark.parametrize("build", [
        lambda: flip_operator(65),
        lambda: build_werner(WernerParams(65, 0.5)),
        lambda: build_pseudo_pure(isotropic_params(65, 0.5)),
    ], ids=["flip_operator", "build_werner", "build_pseudo_pure"])
    def test_side_beyond_the_envelope_is_refused_before_allocation(self, build):
        # each peaked at 409-1090 MiB before the check of the finished matrix refused it
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^state side 4225 exceeds the envelope 4096$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestBuildersInPlace:
    """The builders write rho in place with the bits of the full-matrix expressions."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_werner_has_the_bits_of_the_projector_sum(self, d):
        plus, minus = symmetric_antisymmetric_projectors(d)
        for lam in (0.0, 1e-17, 0.3, (d - 1) / (2 * d), 0.5, 0.77, 1 - 1e-16, 1.0):
            sym, anti = 2.0 * (1.0 - lam) / (d * (d + 1)), 2.0 * lam / (d * (d - 1))
            expected = sym * plus + anti * minus
            assert build_werner(WernerParams(d, lam)).matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", range(2, 13))
    def test_pseudo_pure_has_the_bits_of_the_projector_sum(self, d):
        for u in (random_schmidt_vector(d, 3), np.eye(d)[0], np.full(d, 1 / math.sqrt(d))):
            psi = schmidt_state_vector(u)
            proj = np.outer(psi, psi.conj())
            for alpha in (0.0, 1e-300, 1 / d**2, 0.3, 0.9, 1.0):
                p = PseudoPureParams(d, alpha, u)
                expected = alpha * proj + p.beta * (np.eye(d * d, dtype=complex) - proj)
                assert build_pseudo_pure(p).matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("build", [
        lambda: build_werner(WernerParams(32, 0.5)),
        lambda: build_pseudo_pure(isotropic_params(32, 0.5)),
    ], ids=["build_werner", "build_pseudo_pure"])
    def test_peak_memory_is_about_three_matrices(self, build):
        # a 16 MiB matrix at d = 32, and the two temporaries of its Hermiticity check
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 52 * 2**20


class TestRandomUnitary:
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_unitarity(self, d):
        U = random_unitary(d, 5)
        assert np.abs(U.conj().T @ U - np.eye(d)).max() <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(random_unitary(4, 8), random_unitary(4, 8))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_stack_has_the_bits_of_single_draws(self, d):
        def single(seed):  # one Ginibre draw and one QR per seed, as before the stacked QR
            rng = np.random.default_rng(seed)
            Z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
            Q, R = np.linalg.qr(Z)
            diag = np.diag(R)
            return Q * (diag / np.abs(diag))

        for restarts in (1, 4, 8, 32):
            stack = random_unitaries(d, [[d, r] for r in range(restarts)])
            assert stack.shape == (restarts, d, d)
            for r in range(restarts):
                expected = single([d, r]).tobytes()
                assert stack[r].tobytes() == random_unitary(d, [d, r]).tobytes() == expected


class TestHelpers:
    def test_normalized_schmidt_sorts_and_scales(self):
        u = normalized_schmidt([0.3, 0.4])
        assert_allclose(u, [0.8, 0.6])

    def test_normalized_schmidt_rejects_negative(self):
        with pytest.raises(ValueError):
            normalized_schmidt([0.5, -0.5])

    @pytest.mark.parametrize("values", [[0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    def test_normalized_schmidt_rejects_all_zero(self, values):
        with pytest.raises(ValueError, match="^Schmidt amplitudes must not all vanish$"):
            normalized_schmidt(values)

    @pytest.mark.parametrize("validate", [validate_schmidt, normalized_schmidt])
    @pytest.mark.parametrize("values", [[1.0], [], [[1.0]]])
    def test_schmidt_vector_needs_two_entries(self, validate, values):
        with pytest.raises(ValueError, match="^Schmidt vector needs at least two entries$"):
            validate(values)

    def test_flip_operator_swaps(self, rng):
        d = 3
        F = flip_operator(d)
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert_allclose(F @ np.kron(x, y), np.kron(y, x), atol=1e-14)

    def test_density_matrix_rejects_unnormalized(self):
        message = f"^{re.escape('state must have unit trace, got 4+0j')}$"
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.eye(4), (2, 2))

    def test_density_matrix_rejects_negative(self):
        m = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
        message = "^spectrum has eigenvalue -1.000e-01 below -1e-10; not a state$"
        with pytest.raises(ValueError, match=message):
            DensityMatrix(m, (2, 2))


class TestOneHermiticityCheck:
    """A numeric state is checked for Hermiticity once, when it becomes a DensityMatrix."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []

        def counted(check):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return check(*args, **kwargs)
            return wrapper

        for module in (linalg, states):
            if hasattr(module, "require_hermitian"):
                monkeypatch.setattr(module, "require_hermitian", counted(module.require_hermitian))
        return calls

    @pytest.mark.parametrize("build", [
        lambda: DensityMatrix(random_density(9, np.random.default_rng(5)), (3, 3)),
        lambda: build_werner(WernerParams(3, 0.3)),
        lambda: build_pseudo_pure(PseudoPureParams(3, 0.4, random_schmidt_vector(3, 3))),
    ], ids=["direct", "build_werner", "build_pseudo_pure"])
    def test_once_per_state_and_never_in_negativity(self, checks, build):
        rho = build()
        assert len(checks) == 1
        value = negativity_numeric(rho)
        assert len(checks) == 1
        w, _ = hermitian_eigensystem(partial_transpose(rho.matrix, rho.dims, "B"))
        assert value == float(2.0 * abs(w[w < -1e-12].sum()) / 2.0)  # the checked route's bits

    def test_dims_error_comes_before_the_hermiticity_check(self):
        m = np.triu(np.ones((4, 4)))
        with pytest.raises(ValueError, match=r"^matrix side 4 does not match dimA\*dimB = 9$"):
            DensityMatrix(m, (3, 3))
        with pytest.raises(ValueError, match="^state is not Hermitian within tolerance$"):
            DensityMatrix(m, (2, 2))


class TestNonFiniteSchmidt:
    def test_rejected_by_both_validators(self):
        # every length 2-6, every position, every non-finite value
        finite = [1e3, 0.0, 5e-324, 0.6, 0.8, 1.0]
        for n in range(2, 7):
            for index in range(n):
                for bad in (math.nan, math.inf, -math.inf):
                    values = finite[:n]
                    values[index] = bad
                    with pytest.raises(ValueError, match="finite"):
                        validate_schmidt(values)
                    with pytest.raises(ValueError, match="finite"):
                        normalized_schmidt(values)

    @pytest.mark.parametrize("u", [[math.nan, 0.5], [math.inf, 0.0], [0.8, math.nan]])
    def test_params_reject_non_finite_schmidt(self, u):
        with pytest.raises(ValueError, match="finite"):
            PseudoPureParams(2, 0.5, np.array(u))
