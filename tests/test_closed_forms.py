import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from qcorr import cli
from qcorr import closed_forms as cf
from qcorr.linalg import von_neumann_entropy
from qcorr.states import (
    PseudoPureParams,
    WernerParams,
    build_pseudo_pure,
    build_werner,
    isotropic_params,
    random_schmidt_vector,
)

LAM_GRID = [0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0]
ALPHA_GRID = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
# 200 points of [0, 1]: the endpoints, a subnormal, the zero cutoff, values
# next to 1/2 and 1, and an even interior grid (which holds 1/2)
UNIT_POINTS = [0.0, 5e-324, 1e-300, 1e-15, 0.500001, 1.0 - 2.0**-53, 1.0] + [
    float(x) for x in np.linspace(0.0, 1.0, 195)[1:-1]]
# 200 points of the entangled Werner range [0.500001, 1]
ENTANGLED_LAMS = [0.500001, math.nextafter(0.500001, 1.0), 1.0 - 1e-12, 1.0 - 2.0**-53, 1.0] + [
    float(x) for x in np.linspace(0.500001, 1.0, 197)[1:-1]]


def entropy_of_probs(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 1e-15)


class TestBinaryEntropy:
    def test_anchors(self):
        assert cf.binary_entropy(0.5) == pytest.approx(1.0)
        assert cf.binary_entropy(0.0) == 0.0
        assert cf.binary_entropy(1.0) == 0.0

    def test_direct_two_term_sum(self):
        x = 0.11
        assert cf.binary_entropy(x) == pytest.approx(
            -x * math.log2(x) - (1 - x) * math.log2(1 - x), abs=1e-15
        )

    def test_symmetric(self):
        for x in UNIT_POINTS:
            assert cf.binary_entropy(x) == pytest.approx(cf.binary_entropy(1.0 - x), abs=1e-12), x

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cf.binary_entropy(1.01)


class TestWernerEntropies:
    def test_joint_anchors(self):
        assert cf.werner_joint_entropy(2, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert cf.werner_joint_entropy(2, 0.0) == pytest.approx(math.log2(3), abs=1e-12)
        for d in (2, 3, 7):
            lam = (d - 1) / (2 * d)
            assert cf.werner_joint_entropy(d, lam) == pytest.approx(2 * math.log2(d), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_joint_matches_matrix(self, d):
        for lam in LAM_GRID:
            rho = build_werner(WernerParams(d, lam))
            assert cf.werner_joint_entropy(d, lam) == pytest.approx(
                von_neumann_entropy(rho.matrix), abs=1e-9
            )

    def test_mutual_information_anchors(self):
        assert cf.werner_mutual_information(2, 1.0) == pytest.approx(2.0, abs=1e-12)
        for d in (2, 4, 9):
            lam = (d - 1) / (2 * d)
            assert cf.werner_mutual_information(d, lam) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 17])
    def test_mutual_information_identity(self, d):
        for lam in LAM_GRID:
            expected = 2 * math.log2(d) - cf.werner_joint_entropy(d, lam)
            assert cf.werner_mutual_information(d, lam) == pytest.approx(expected, abs=1e-12)

    def test_measured_conditional_entropy_anchors(self):
        # the singlet's conditional states are pure, so the average entropy is 0
        assert cf.werner_measured_conditional_entropy(2, 1.0) == pytest.approx(0.0, abs=1e-12)
        for d in (2, 3, 6):
            lam = (d - 1) / (2 * d)
            assert cf.werner_measured_conditional_entropy(d, lam) == pytest.approx(
                math.log2(d), abs=1e-12
            )


class TestWernerDiscord:
    def test_anchors(self):
        assert cf.werner_discord(2, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert cf.werner_discord(5, 2 / 5) == pytest.approx(0.0, abs=1e-12)
        assert cf.werner_discord(2, 0.0) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 10, 100])
    def test_bounded_and_zero_only_at_mixed_point(self, d):
        star = (d - 1) / (2 * d)
        for lam in LAM_GRID + [star]:
            value = cf.werner_discord(d, lam)
            assert -1e-12 <= value <= 1.0 + 1e-12
            if abs(lam - star) > 1e-3:
                assert value > 1e-7
        assert cf.werner_discord(d, star) <= 1e-9

    def test_composition_identity(self):
        # discord equals log d - S(rho) + measured conditional entropy
        for d in (2, 3, 7):
            for lam in LAM_GRID:
                expected = (
                    math.log2(d)
                    - cf.werner_joint_entropy(d, lam)
                    + cf.werner_measured_conditional_entropy(d, lam)
                )
                assert cf.werner_discord(d, lam) == pytest.approx(expected, abs=1e-12)


class TestWernerClassicalCorrelations:
    def test_vanishes_only_at_mixed_point(self):
        for d in (2, 3, 8):
            lam = (d - 1) / (2 * d)
            assert cf.werner_classical_correlations(d, lam) == pytest.approx(0.0, abs=1e-12)

    def test_singlet(self):
        assert cf.werner_classical_correlations(2, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_large_d_decay(self):
        assert cf.werner_classical_correlations(1024, 0.25) <= 0.01

    def test_larger_dimension_at_foreign_mixed_point(self):
        for d in (2, 3, 5):
            lam = (d - 1) / (2 * d)
            base = cf.werner_classical_correlations(d, lam)
            assert base == pytest.approx(0.0, abs=1e-12)
            for dp in (d + 1, 2 * d, 10 * d):
                assert cf.werner_classical_correlations(dp, lam) > 1e-8


class TestWernerAsymptote:
    def test_anchors(self):
        assert cf.werner_discord_asymptote(0.5) == pytest.approx(0.0)
        assert cf.werner_discord_asymptote(1.0) == pytest.approx(1.0)

    def test_matches_large_d_discord(self):
        assert abs(cf.werner_discord(1000, 0.3) - cf.werner_discord_asymptote(0.3)) <= 0.01

    def test_symmetry_gap_shrinks_with_d(self):
        gaps = [
            abs(cf.werner_discord(d, 0.2) - cf.werner_discord(d, 0.8))
            for d in (10, 100, 1000)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestWernerEof:
    def test_anchors(self):
        assert cf.werner_eof(1.0) == pytest.approx(1.0, abs=1e-12)
        assert cf.werner_eof(0.5) == 0.0
        assert cf.werner_eof(0.2) == 0.0

    def test_discord_exceeds_eof_near_boundary(self):
        assert cf.werner_discord(2, 0.55) > cf.werner_eof(0.55)

    def test_binary_entropy_identity(self):
        # the closed form collapses to H(1/2 - sqrt(lam(1-lam)))
        for lam in ENTANGLED_LAMS:
            expected = cf.binary_entropy(0.5 - math.sqrt(lam * (1 - lam)))
            assert cf.werner_eof(lam) == pytest.approx(expected, abs=1e-12), lam


class TestWernerSeparable:
    def test_boundary_inclusive(self):
        assert cf.werner_separable(0.5)
        assert not cf.werner_separable(0.500001)
        assert cf.werner_separable(0.0)


class TestPseudoPureDiscord:
    def test_pure_limit_is_marginal_entropy(self):
        u = np.array([0.8, 0.6])
        p = PseudoPureParams(2, 1.0, u)
        assert cf.pp_discord(p) == pytest.approx(entropy_of_probs(u**2), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_white_noise_point(self, d):
        u = random_schmidt_vector(d, 17)
        assert cf.pp_discord(PseudoPureParams(d, 1.0 / d**2, u)) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_grid(self):
        for d in (2, 3, 4):
            u = random_schmidt_vector(d, d)
            for alpha in ALPHA_GRID:
                assert cf.pp_discord(PseudoPureParams(d, alpha, u)) >= -1e-12


class TestPseudoPureEntropies:
    def test_alpha_one(self):
        u = np.array([0.8, 0.6])
        p = PseudoPureParams(2, 1.0, u)
        assert cf.pp_joint_entropy(p) == pytest.approx(0.0, abs=1e-12)
        assert cf.pp_marginal_entropy(p) == pytest.approx(entropy_of_probs(u**2), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_white_noise_point(self, d):
        u = random_schmidt_vector(d, 5)
        p = PseudoPureParams(d, 1.0 / d**2, u)
        assert cf.pp_joint_entropy(p) == pytest.approx(2 * math.log2(d), abs=1e-12)
        assert cf.pp_marginal_entropy(p) == pytest.approx(math.log2(d), abs=1e-12)

    def test_matches_matrix_entropies(self, rng):
        from qcorr.linalg import partial_trace

        d, alpha = 4, 0.3
        u = random_schmidt_vector(d, int(rng.integers(1 << 31)))
        p = PseudoPureParams(d, alpha, u)
        rho = build_pseudo_pure(p)
        assert cf.pp_joint_entropy(p) == pytest.approx(von_neumann_entropy(rho.matrix), abs=1e-9)
        for side in ("A", "B"):
            marg = partial_trace(rho.matrix, rho.dims, side)
            assert cf.pp_marginal_entropy(p) == pytest.approx(von_neumann_entropy(marg), abs=1e-9)


class TestPseudoPureClassicalCorrelations:
    def test_pure_maximally_entangled(self):
        for d in (2, 3, 5):
            p = isotropic_params(d, 1.0)
            assert cf.pp_classical_correlations(p) == pytest.approx(math.log2(d), abs=1e-12)

    def test_white_noise_point(self):
        p = isotropic_params(3, 1.0 / 9)
        assert cf.pp_classical_correlations(p) == pytest.approx(0.0, abs=1e-12)

    def test_large_d_difference_approaches_binary_entropy(self):
        p = isotropic_params(1000, 0.5)
        diff = cf.pp_discord(p) - cf.pp_classical_correlations(p)
        assert abs(diff - cf.binary_entropy(0.5)) <= 0.05


class TestPseudoPureAsymptote:
    def test_zero_cases(self):
        u = np.array([0.8, 0.6])
        assert cf.pp_discord_asymptote(0.0, u) == 0.0
        assert cf.pp_discord_asymptote(0.7, np.array([1.0, 0.0])) == 0.0

    def test_rank_two_embedding(self):
        d = 1000
        u = np.zeros(d)
        u[:2] = 1 / math.sqrt(2)
        p = PseudoPureParams(d, 0.7, u)
        assert cf.pp_discord_asymptote(0.7, u) == pytest.approx(0.7)
        assert abs(cf.pp_discord(p) - 0.7) <= 0.02


class TestSecondDerivative:
    def test_positive_everywhere(self):
        for d in (2, 3, 5):
            u = random_schmidt_vector(d, d + 40)
            for alpha in (0.05, 0.3, 0.5, 0.8, 0.95):
                assert cf.pp_second_derivative(PseudoPureParams(d, alpha, u)) > 0.0

    def test_matches_finite_differences(self):
        d, alpha = 3, 0.5
        u = random_schmidt_vector(d, 271)
        h = 1e-4
        fd = (
            cf.pp_discord(PseudoPureParams(d, alpha + h, u))
            - 2 * cf.pp_discord(PseudoPureParams(d, alpha, u))
            + cf.pp_discord(PseudoPureParams(d, alpha - h, u))
        ) / h**2
        analytic = cf.pp_second_derivative(PseudoPureParams(d, alpha, u))
        assert abs(analytic - fd) / abs(analytic) <= 1e-4

    def test_isotropic_positive(self):
        assert cf.pp_second_derivative(isotropic_params(2, 0.9)) > 0.0

    def test_rejects_endpoints(self):
        u = np.array([0.8, 0.6])
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                cf.pp_second_derivative(PseudoPureParams(2, alpha, u))


class TestPureMeasures:
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_uniform_vector(self, d):
        u = np.full(d, 1 / math.sqrt(d))
        assert cf.pure_gd(u) == pytest.approx(1.0, abs=1e-12)
        assert cf.pure_negativity(u) == pytest.approx(1.0, abs=1e-12)

    def test_product_vector(self):
        u = np.array([1.0, 0.0, 0.0])
        assert cf.pure_gd(u) == 0.0
        assert cf.pure_negativity(u) == pytest.approx(0.0, abs=1e-15)

    def test_qubit_example(self):
        u = np.array([math.sqrt(0.8), math.sqrt(0.2)])
        assert cf.pure_gd(u) == pytest.approx(0.64, abs=1e-12)
        assert cf.pure_negativity(u) == pytest.approx(0.8, abs=1e-12)
        assert cf.pure_gd(u) >= cf.pure_negativity(u) ** 2 - 1e-12

    def test_negativity_matches_matrix(self, rng):
        from qcorr.oracle import negativity_numeric

        for d in (2, 3, 4):
            u = random_schmidt_vector(d, int(rng.integers(1 << 31)))
            rho = build_pseudo_pure(PseudoPureParams(d, 1.0, u))
            assert cf.pure_negativity(u) == pytest.approx(negativity_numeric(rho), abs=1e-12)


class TestPseudoPureGd:
    def test_anchors(self):
        for d in (2, 3):
            assert cf.pp_gd(isotropic_params(d, 1.0)) == pytest.approx(1.0, abs=1e-12)
            u = random_schmidt_vector(d, 3 * d)
            assert cf.pp_gd(PseudoPureParams(d, 1.0 / d**2, u)) == pytest.approx(0.0, abs=1e-15)

    def test_in_unit_interval(self):
        for d in (2, 4):
            u = random_schmidt_vector(d, d + 1)
            for alpha in ALPHA_GRID:
                assert -1e-15 <= cf.pp_gd(PseudoPureParams(d, alpha, u)) <= 1.0 + 1e-12


class TestPseudoPureNegativity:
    def test_isotropic_pure(self):
        for d in (2, 3, 6):
            assert cf.pp_negativity(isotropic_params(d, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_product_vector(self):
        u = np.array([1.0, 0.0, 0.0])
        assert cf.pp_negativity(PseudoPureParams(3, 0.8, u)) == 0.0

    def test_zero_at_separability_threshold(self):
        for d, seed in ((2, 1), (3, 2), (4, 3)):
            u = random_schmidt_vector(d, seed)
            threshold = cf.pp_separability_threshold(PseudoPureParams(d, 0.5, u))
            assert cf.pp_negativity(PseudoPureParams(d, threshold, u)) <= 1e-12
            assert cf.pp_negativity(PseudoPureParams(d, min(threshold + 1e-4, 1.0), u)) > 0.0

    @staticmethod
    def _pair_enumeration(p):
        """Reference: every pair block at once, summed by np.sum."""
        d, a = p.d, p.alpha
        u = p.schmidt
        iu, ju = np.triu_indices(d, 1)
        prods = u[iu] * u[ju]
        negative = (p.beta - (a - p.beta) * prods) < -cf.NEGATIVITY_TIE_ATOL
        if not negative.any():
            return 0.0
        total = float((prods[negative] * (a * d * d - 1.0) - (1.0 - a)).sum())
        return 2.0 * total / ((d - 1.0) ** 2 * (d + 1.0))

    @staticmethod
    def _bit_identity_grid():
        rng = np.random.default_rng(8)
        # d = 400 at alpha = 1 has 79800 negative blocks, more than one leaf
        for d in [*range(2, 41), 400]:
            tied = np.sort(np.repeat(rng.uniform(0.1, 1.0, (d + 1) // 2), 2)[:d])[::-1]
            for u in (isotropic_params(d, 0.5).schmidt, random_schmidt_vector(d, d),
                      tied / np.linalg.norm(tied)):
                threshold = cf.pp_separability_threshold(PseudoPureParams(d, 0.5, u))
                alphas = [0.0, 1.0 / d**2, threshold, min(threshold + 1e-4, 1.0), 1.0]
                for alpha in alphas + [float(x) for x in rng.random(3)]:
                    yield PseudoPureParams(d, alpha, u)

    @pytest.mark.parametrize("leaf", [None, 128], ids=["default-leaf", "leaf-128"])
    def test_bits_equal_pair_enumeration(self, leaf, monkeypatch):
        if leaf is not None:
            monkeypatch.setattr(cf, "_SUM_LEAF", leaf)
        for p in self._bit_identity_grid():
            assert cf.pp_negativity(p) == self._pair_enumeration(p), (p.d, p.alpha)

    def test_memory_bounded_at_large_d(self):
        p = PseudoPureParams(8000, 0.5, random_schmidt_vector(8000, 3))
        tracemalloc.start()
        try:
            assert cf.pp_negativity(p) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestPseudoPureSeparable:
    def test_isotropic_threshold(self):
        for d in (2, 3, 5):
            p = isotropic_params(d, 0.5)
            assert cf.pp_separability_threshold(p) == pytest.approx(1.0 / d, abs=1e-12)
        assert cf.pp_separable(isotropic_params(3, 1 / 3))
        assert not cf.pp_separable(isotropic_params(3, 1 / 3 + 1e-6))

    def test_product_always_separable(self):
        u = np.array([1.0, 0.0])
        assert cf.pp_separable(PseudoPureParams(2, 1.0, u))

    def test_pure_entangled_not_separable(self):
        u = np.array([0.8, 0.6])
        assert not cf.pp_separable(PseudoPureParams(2, 1.0, u))


class TestAdditivityAndStructure:
    def test_werner_additivity(self):
        for d in (2, 3, 10, 100):
            for lam in LAM_GRID:
                total = cf.werner_discord(d, lam) + cf.werner_classical_correlations(d, lam)
                assert total == pytest.approx(cf.werner_mutual_information(d, lam), abs=1e-12)

    def test_pp_additivity(self):
        for d in (2, 3, 5):
            u = random_schmidt_vector(d, 7 * d)
            for alpha in ALPHA_GRID:
                p = PseudoPureParams(d, alpha, u)
                total = cf.pp_discord(p) + cf.pp_classical_correlations(p)
                assert total == pytest.approx(cf.pp_mutual_information(p), abs=1e-12)

    def test_pp_convexity_by_finite_differences(self, rng):
        h = 1e-3
        grid = np.linspace(0.01, 0.99, 25)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            u = random_schmidt_vector(d, int(rng.integers(1 << 31)))
            for fn in (cf.pp_discord, cf.pp_gd):
                for alpha in grid:
                    second = (
                        fn(PseudoPureParams(d, alpha + h, u))
                        - 2 * fn(PseudoPureParams(d, alpha, u))
                        + fn(PseudoPureParams(d, alpha - h, u))
                    ) / h**2
                    assert second >= -1e-8

    def test_pp_discord_monotone_around_white_noise(self):
        for d in (2, 3):
            u = random_schmidt_vector(d, 13 * d)
            star = 1.0 / d**2
            down = np.linspace(0.0, star, 15)
            up = np.linspace(star, 1.0, 15)
            vals_down = [cf.pp_discord(PseudoPureParams(d, a, u)) for a in down]
            vals_up = [cf.pp_discord(PseudoPureParams(d, a, u)) for a in up]
            assert all(np.diff(vals_down) <= 1e-12)
            assert all(np.diff(vals_up) >= -1e-12)

    def test_gd_dominates_squared_negativity(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 7))
            alpha = float(rng.uniform())
            u = random_schmidt_vector(d, int(rng.integers(1 << 31)))
            p = PseudoPureParams(d, alpha, u)
            assert cf.pp_gd(p) - cf.pp_negativity(p) ** 2 >= -1e-10

    def test_isotropic_discord_dominates_classical(self):
        for d in (2, 3, 10, 100):
            for alpha in ALPHA_GRID:
                p = isotropic_params(d, alpha)
                assert cf.pp_discord(p) >= cf.pp_classical_correlations(p) - 1e-10


def _bits(values) -> list[int]:
    """The float64 bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestArrayCalls:
    """An array of mixing parameters gives, entry by entry, the bits of the
    scalar calls; a scalar still gives a float."""

    DIMS = [*range(2, 13), 50]

    @staticmethod
    def _assert_matches_scalar(fn, make, values):
        got = fn(make(np.array(values)))
        expected = [fn(make(x)) for x in values]
        assert all(type(x) is float for x in expected)
        assert isinstance(got, np.ndarray) and got.shape == (len(values),)
        assert _bits(got) == _bits(expected)

    @staticmethod
    def _schmidt_vectors(d, rng):
        tied = np.sort(np.repeat(rng.uniform(0.1, 1.0, (d + 1) // 2), 2)[:d])[::-1]
        return {"isotropic": isotropic_params(d, 0.5).schmidt,
                "random": random_schmidt_vector(d, d),
                "tied": tied / np.linalg.norm(tied),
                "product": np.eye(d)[0]}

    @staticmethod
    def _alphas(d, u, rng):
        threshold = cf.pp_separability_threshold(PseudoPureParams(d, 0.5, u))
        edges = [0.0, 1.0 / d**2, threshold - 1e-12, threshold, threshold + 1e-12, 1.0]
        return [min(x, 1.0) for x in edges] + [float(x) for x in rng.random(6)]

    @pytest.mark.parametrize("d", DIMS)
    def test_werner_measures(self, d, rng):
        lams = [0.0, 0.5, 1.0, 1e-15, (d - 1) / (2 * d)] + [float(x) for x in rng.random(8)]
        for measure in cli.MEASURES.values():
            if measure.werner is not None:
                self._assert_matches_scalar(measure.werner, lambda x: WernerParams(d, x), lams)

    def test_functions_of_the_parameter_alone(self, rng):
        grid = UNIT_POINTS + [float(x) for x in rng.random(20)]
        for fn in (cf.binary_entropy, cf.werner_eof, cf.werner_discord_asymptote):
            self._assert_matches_scalar(fn, lambda x: x, grid)

    @pytest.mark.parametrize("d", DIMS)
    def test_pseudo_pure_measures(self, d, rng):
        for u in self._schmidt_vectors(d, rng).values():
            alphas = self._alphas(d, u, rng)
            for measure in cli.MEASURES.values():
                if measure.pp is not None:
                    self._assert_matches_scalar(
                        measure.pp, lambda x: PseudoPureParams(d, x, u), alphas)

    @pytest.mark.parametrize("leaf", [None, 128], ids=["default-leaf", "leaf-128"])
    def test_negativity_past_one_leaf(self, leaf, rng, monkeypatch):
        # at d = 400 an alpha near 1 has up to 79800 negative blocks, more
        # than one leaf; equal-count alphas share leaves of fewer terms each
        if leaf is not None:
            monkeypatch.setattr(cf, "_SUM_LEAF", leaf)
        d = 400
        for u in self._schmidt_vectors(d, rng).values():
            alphas = self._alphas(d, u, rng) + [1.0, 0.99, 0.999]
            if leaf is None:
                alphas += [float(x) for x in rng.uniform(0.9, 1.0, 12)]
            self._assert_matches_scalar(cf.pp_negativity, lambda x: PseudoPureParams(d, x, u),
                                        alphas)

    def test_other_closed_forms(self, rng):
        u = random_schmidt_vector(5, 5)
        lams, alphas = list(LAM_GRID), [float(x) for x in rng.uniform(0.01, 0.99, 9)]
        for fn in (cf.werner_joint_entropy, cf.werner_measured_conditional_entropy):
            self._assert_matches_scalar(lambda p: fn(p.d, p.lam),
                                        lambda x: WernerParams(5, x), lams)
        for fn in (cf.pp_joint_entropy, cf.pp_marginal_entropy, cf.pp_second_derivative):
            self._assert_matches_scalar(fn, lambda x: PseudoPureParams(5, x, u), alphas)

    @pytest.mark.parametrize("bad", [1.25, -0.5, float("nan")])
    def test_first_value_outside_the_range_is_named(self, bad):
        with pytest.raises(ValueError, match=rf"lam must lie in \[0, 1\], got {bad!r}$"):
            WernerParams(2, np.array([0.5, bad, 2.0]))
        with pytest.raises(ValueError, match=rf"alpha must lie in \[0, 1\], got {bad!r}$"):
            isotropic_params(3, np.array([0.0, 1.0, bad]))
        with pytest.raises(ValueError, match=rf"got {bad!r}$"):
            cf.binary_entropy(np.array([bad]))

    def test_weights_of_more_than_one_axis_are_rejected(self):
        with pytest.raises(ValueError, match="1-D array"):
            WernerParams(2, np.zeros((2, 2)))


class TestGoldenBits:
    """Every closed form of cli.MEASURES, pinned to the bit on a dyadic grid.

    The CLI prints 12 significant digits, so its golden digests miss a change
    in the last bits of a closed form, such as swapping math.log2 for np.log2
    (which differs by an ulp on a few inputs). Each digest hashes the float64
    bytes of every measure of a family, over every dimension, in MEASURES order.
    The digests were recorded with Python 3.11 and numpy 2.4 on x86-64.
    """

    GRID = np.arange(4097) / 4096.0  # [0, 1] in steps of 2**-12, exact in binary
    SCHMIDT = np.arange(6.0, 0.0, -1.0) / math.sqrt(91.0)
    CASES = {
        "werner": ([2, 4, 8, 12],
                   "8ce05ad6a678696d8afd62f779b18f39bce9205da05e483823d2588c45de1771"),
        "isotropic": ([2, 4, 8, 12],
                      "b04de5877826f7c74cd26b63e7a814a5107d4e6d2526c3826e29baa35feae72f"),
        "pp": ([6], "cf0b6d5231834056224d6cb8bf9f9807469f86f2beb0aa22bf29e427c37c1916"),
    }

    @pytest.mark.parametrize("family", CASES)
    def test_closed_forms_reproduce_their_bits(self, family):
        dims, digest = self.CASES[family]
        sha = hashlib.sha256()
        route = cli.FAMILIES[family].route
        for d in dims:
            params = cli.FAMILIES[family].params(d, self.GRID, self.SCHMIDT)
            for measure in cli.MEASURES.values():
                fn = getattr(measure, route)
                if fn is not None:
                    values = fn(params)
                    assert values.dtype == np.float64 and values.shape == self.GRID.shape
                    sha.update(values.tobytes())
        assert sha.hexdigest() == digest
