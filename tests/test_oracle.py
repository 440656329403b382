import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density
from qcorr import closed_forms as cf
from qcorr import oracle
from qcorr.linalg import partial_trace, purity, von_neumann_entropy
from qcorr.oracle import (
    ConjectureReport,
    OptimizerConfig,
    conditional_ensemble,
    conjecture_sweep,
    discord_numeric,
    gd_numeric,
    gd_objective,
    measured_conditional_entropy,
    minimize_conditional_entropy,
    mutual_information_numeric,
    negativity_numeric,
    optimal_measurement_check,
)
from qcorr.states import (
    DensityMatrix,
    PseudoPureParams,
    WernerParams,
    build_isotropic,
    build_pseudo_pure,
    build_werner,
    isotropic_params,
    random_schmidt_vector,
    random_unitary,
    schmidt_state_vector,
)

FAST = OptimizerConfig(restarts=6, seed=11)


def product_state(sigma, tau, dims):
    return DensityMatrix(np.kron(sigma, tau), dims)


class TestConditionalEnsemble:
    def test_product_state_has_constant_conditionals(self, rng):
        sigma = random_density(3, rng)
        tau = random_density(3, rng)
        rho = product_state(sigma, tau, (3, 3))
        ens = conditional_ensemble(rho, random_unitary(3, 4))
        for state in ens.conditional_states:
            assert np.abs(state - sigma).max() <= 1e-12

    def test_werner_outcomes_uniform(self):
        for d in (2, 3, 4):
            rho = build_werner(WernerParams(d, 0.8))
            ens = conditional_ensemble(rho, np.eye(d))
            assert_allclose(ens.probabilities, np.full(d, 1 / d), atol=1e-12)

    def test_pp_schmidt_basis_block_form(self):
        d, alpha = 3, 0.55
        u = np.array([0.8, 0.6, 0.0])
        p = PseudoPureParams(d, alpha, u)
        rho = build_pseudo_pure(p)
        ens = conditional_ensemble(rho, np.eye(d))
        beta = p.beta
        for k in range(d):
            q_k = u[k] ** 2 * (alpha - beta) + beta * d
            assert ens.probabilities[k] == pytest.approx(q_k, abs=1e-12)
            top = (u[k] ** 2 * (alpha - beta) + beta) / q_k
            proj = np.zeros((d, d))
            proj[k, k] = 1.0
            expected = top * proj + (beta / q_k) * (np.eye(d) - proj)
            assert np.abs(ens.conditional_states[k] - expected).max() <= 1e-12

    def test_reconstructs_marginal(self, rng):
        from qcorr.linalg import partial_trace

        rho = DensityMatrix(random_density(12, rng), (3, 4))
        ens = conditional_ensemble(rho, random_unitary(4, 9))
        total = sum(p * s for p, s in zip(ens.probabilities, ens.conditional_states))
        marginal = partial_trace(rho.matrix, rho.dims, "B")
        assert np.abs(total - marginal).max() <= 1e-10
        assert ens.probabilities.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_wrong_basis_dimension(self, rng):
        rho = DensityMatrix(random_density(6, rng), (2, 3))
        with pytest.raises(ValueError):
            conditional_ensemble(rho, np.eye(2))

    def test_rejects_non_orthonormal_basis(self, rng):
        rho = DensityMatrix(random_density(4, rng), (2, 2))
        with pytest.raises(ValueError):
            conditional_ensemble(rho, np.ones((2, 2)))


class TestMeasuredConditionalEntropy:
    def test_werner_basis_independent(self):
        rho = build_werner(WernerParams(3, 0.7))
        values = [measured_conditional_entropy(rho, random_unitary(3, s)) for s in range(20)]
        assert max(values) - min(values) <= 1e-10
        assert values[0] == pytest.approx(
            cf.werner_measured_conditional_entropy(3, 0.7), abs=1e-10
        )

    def test_pure_product_state(self):
        psi = schmidt_state_vector(np.array([1.0, 0.0]))
        rho = DensityMatrix(np.outer(psi, psi.conj()), (2, 2))
        assert measured_conditional_entropy(rho, random_unitary(2, 3)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_werner_closed_value_in_20_random_bases(self):
        rho = build_werner(WernerParams(4, 0.2))
        expected = cf.werner_measured_conditional_entropy(4, 0.2)
        for seed in range(20):
            got = measured_conditional_entropy(rho, random_unitary(4, seed))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_pp_schmidt_basis_saturates_log_sum_bound(self):
        d, alpha = 3, 0.45
        u = random_schmidt_vector(d, 8)
        p = PseudoPureParams(d, alpha, u)
        rho = build_pseudo_pure(p)
        beta = p.beta
        w = u**2 * (alpha - beta) + beta
        q = u**2 * (alpha - beta) + beta * d
        bound = -float((w * np.log2(w / q)).sum()) - float(
            ((d - 1) * beta * np.log2(beta / q)).sum()
        )
        assert measured_conditional_entropy(rho, np.eye(d)) == pytest.approx(bound, abs=1e-10)
        # random bases sit at or above the bound
        for seed in range(10):
            assert measured_conditional_entropy(rho, random_unitary(d, seed)) >= bound - 1e-10


class TestMinimizeConditionalEntropy:
    def test_werner_matches_closed_value(self):
        rho = build_werner(WernerParams(2, 0.8))
        res = minimize_conditional_entropy(rho, FAST)
        assert res.value == pytest.approx(
            cf.werner_measured_conditional_entropy(2, 0.8), abs=1e-8
        )

    def test_pp_argmin_is_schmidt_basis(self):
        p = PseudoPureParams(3, 0.6, np.array([0.8, 0.6, 0.0]))
        rho = build_pseudo_pure(p)
        res = minimize_conditional_entropy(rho, FAST)
        overlap = np.abs(res.argmin_basis)
        # permutation-like: one near-unit entry per column
        for k in range(3):
            assert overlap[:, k].max() >= 1.0 - 1e-4
        assert res.converged

    def test_pure_product_state(self):
        psi = schmidt_state_vector(np.array([1.0, 0.0]))
        rho = DensityMatrix(np.outer(psi, psi.conj()), (2, 2))
        assert minimize_conditional_entropy(rho, FAST).value == pytest.approx(0.0, abs=1e-10)

    def test_value_is_minimum_of_restarts(self):
        rho = build_pseudo_pure(PseudoPureParams(2, 0.4, np.array([0.8, 0.6])))
        res = minimize_conditional_entropy(rho, FAST)
        assert res.value == min(res.per_restart_values)
        assert len(res.per_restart_values) == FAST.restarts

    def test_more_restarts_never_increase_minimum(self):
        rho = build_pseudo_pure(PseudoPureParams(2, 0.35, np.array([0.9, math.sqrt(0.19)])))
        small = minimize_conditional_entropy(rho, OptimizerConfig(restarts=3, seed=5))
        large = minimize_conditional_entropy(rho, OptimizerConfig(restarts=8, seed=5))
        assert large.value <= small.value + 1e-15
        assert small.per_restart_values == large.per_restart_values[:3]

    def test_value_below_every_probe_basis(self):
        rho = build_pseudo_pure(PseudoPureParams(3, 0.5, random_schmidt_vector(3, 21)))
        res = minimize_conditional_entropy(rho, FAST)
        for seed in range(20):
            assert res.value <= measured_conditional_entropy(rho, random_unitary(3, seed)) + 1e-12

    def test_rejects_large_measured_dimension(self, rng):
        rho = DensityMatrix(np.kron(random_density(2, rng), random_density(9, rng)), (2, 9))
        with pytest.raises(ValueError):
            minimize_conditional_entropy(rho, FAST)


def blocks_kernel(measure, rho):
    """The batched objective of the discord ("ce") or gd search on `rho`."""
    if measure == "ce":
        return oracle._ce_of_blocks
    rho_purity = purity(rho.matrix)
    return lambda tau: oracle._purity_loss(rho_purity, tau)


def descend(r2, start, kernel):
    """One Newton descent from the stack of bases `start`, as _minimize_over_bases runs it."""
    return oracle._newton_descent(start, lambda U: oracle._value_and_gradient(r2, U, kernel),
                                  lambda U: oracle._hessian(r2, U, kernel))


def count_rows(monkeypatch):
    """Record the number of bases of every gradient call and every Hessian call."""
    rows = {"_value_and_gradient": [], "_hessian": []}
    for name, calls in rows.items():
        def counted(r2, U, value_of_blocks, evaluate=getattr(oracle, name), calls=calls):
            calls.append(len(U))
            return evaluate(r2, U, value_of_blocks)

        monkeypatch.setattr(oracle, name, counted)
    return rows


class TestLockstep:
    """All restarts in one batched search against one search per restart."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("measure", ["ce", "gd"])
    def test_equals_sequential_restarts(self, d, measure):
        rho = build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, 40 + d)))
        cfg = OptimizerConfig(restarts=4, seed=d)
        kernel = blocks_kernel(measure, rho)
        res = oracle._minimize_over_bases(rho, cfg, kernel)

        r2 = oracle._paired_b_indices(rho)
        values, bases, counts = [], [], []
        for r in range(cfg.restarts):
            start = random_unitary(d, [cfg.seed, r])[None]
            value, basis, evaluations, _ = descend(r2, start, kernel)
            values.append(value[0])
            bases.append(basis[0])
            counts.append(int(evaluations[0]))

        assert len(set(res.evaluations)) > 1  # the restarts leave the batch at different steps
        assert res.evaluations == tuple(counts)
        assert np.array(res.per_restart_values).tobytes() == np.array(values).tobytes()
        assert res.argmin_basis.tobytes() == bases[int(np.argmin(values))].tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_objectives_match_single_basis(self, d, rng):
        # B in |0><0|: measured in the standard basis, outcomes 1.. have probability 0,
        # while every outcome of the Haar-random bases in the same batch is kept
        product = DensityMatrix(np.kron(random_density(d, rng), np.diag(np.eye(d)[0])), (d, d))
        generic = DensityMatrix(random_density(d * d, rng), (d, d))
        bases = np.array([np.eye(d, dtype=complex)] + [random_unitary(d, s) for s in range(3)])
        for rho in (product, generic):
            tau, _ = oracle._measurement_blocks(oracle._paired_b_indices(rho), bases)
            if rho is product:
                p = np.einsum("rkaa->rk", tau).real
                assert (p[0, 1:] == 0).all() and (p[1:] > oracle.ZERO_PROBABILITY).all()
            ce, weights, (_, slopes, traces) = oracle._ce_of_blocks(tau)
            if rho is product:  # dropped outcomes carry no first or second derivative
                assert (weights[0, 1:] == 0).all()
                assert (slopes[0, 1:] == 0).all() and (traces[0, 1:] == 0).all()
            gd = oracle._purity_loss(purity(rho.matrix), tau)[0]
            for r, basis in enumerate(bases):
                assert ce[r] == measured_conditional_entropy(rho, basis)
                assert gd[r] == gd_objective(rho, basis)

    def test_evaluation_counts(self, monkeypatch):
        # an evaluation is the start, the Hessian of a Newton step, or a line-search trial
        rows = count_rows(monkeypatch)
        rho = build_pseudo_pure(PseudoPureParams(3, 0.6, random_schmidt_vector(3, 5)))
        res = minimize_conditional_entropy(rho, FAST)
        assert len(res.evaluations) == FAST.restarts
        assert sum(res.evaluations) == sum(rows["_value_and_gradient"]) + sum(rows["_hessian"])
        assert max(rows["_value_and_gradient"] + rows["_hessian"]) <= FAST.restarts

        r2 = oracle._paired_b_indices(rho)
        for r, count in enumerate(res.evaluations):
            for calls in rows.values():
                calls.clear()
            evaluations = descend(r2, random_unitary(3, [FAST.seed, r])[None], oracle._ce_of_blocks)[2]
            steps, trials = len(rows["_hessian"]), len(rows["_value_and_gradient"]) - 1
            assert steps >= 1 and trials >= steps  # every step tries at least once
            assert count == evaluations[0] == 1 + steps + trials

    def test_step_cap_reports_unconverged(self, monkeypatch):
        rho = build_pseudo_pure(PseudoPureParams(4, 0.6, random_schmidt_vector(4, 5)))
        cfg = OptimizerConfig(restarts=2, seed=1)
        free = minimize_conditional_entropy(rho, cfg)
        monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 2)
        rows = count_rows(monkeypatch)
        capped = minimize_conditional_entropy(rho, cfg)
        assert free.converged and not capped.converged
        assert capped.value > free.value + 1e-9
        # both restarts take the 2 steps: the start, 2 Hessians and at least 2 trials each
        assert rows["_hessian"] == [2, 2]
        assert sum(capped.evaluations) == sum(rows["_value_and_gradient"]) + 4
        assert all(5 <= count < free_count
                   for count, free_count in zip(capped.evaluations, free.evaluations))


class TestNewtonDescent:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("measure", ["ce", "gd"])
    def test_gradient_matches_central_differences(self, d, measure, rng):
        rho = DensityMatrix(random_density(d * d, rng), (d, d))
        kernel = blocks_kernel(measure, rho)
        r2 = oracle._paired_b_indices(rho)
        U = np.array([random_unitary(d, s) for s in range(3)])
        _, g = oracle._value_and_gradient(r2, U, kernel)
        h = 1e-5
        for m in range(d * (d - 1)):
            e = np.zeros((1, d * (d - 1)))
            e[0, m] = h
            up = oracle._value_and_gradient(r2, U @ oracle._expm(oracle._skew(e, d)), kernel)[0]
            down = oracle._value_and_gradient(r2, U @ oracle._expm(oracle._skew(-e, d)), kernel)[0]
            assert_allclose((up - down) / (2 * h), g[:, m], atol=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("measure", ["ce", "gd"])
    def test_hessian_matches_central_differences(self, d, measure, rng):
        # H_ml = d/dt g_l(U exp(t E_m)) at 0, so row m is the derivative of the analytic gradient
        generic = DensityMatrix(random_density(d * d, rng), (d, d))
        # beta I plus rank one: d - 1 of the eigenvalues of every block tie
        pseudo_pure = build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, 30 + d)))
        product = DensityMatrix(np.kron(random_density(d, rng), np.diag(np.eye(d)[0])), (d, d))
        # every basis gives a Werner state the same value: its Hessian vanishes
        werner = build_werner(WernerParams(d, 0.3))
        haar = [random_unitary(d, s) for s in range(3)]
        cases = [(generic, haar), (pseudo_pure, haar), (product, haar), (werner, haar)]
        if measure == "gd":
            # the standard basis drops the product state's outcomes 1..: the purity loss is
            # a polynomial in the blocks, so its Hessian holds there too. The conditional
            # entropy is not twice differentiable where an outcome vanishes (the block's
            # second-order change sets the outcome's entropy), and its Hessian there counts
            # the kept outcomes only.
            cases.append((product, [np.eye(d, dtype=complex)]))
        n, h = d * (d - 1), 1e-5
        for rho, bases in cases:
            kernel = blocks_kernel(measure, rho)
            r2 = oracle._paired_b_indices(rho)
            U = np.array(bases)
            hessian = oracle._hessian(r2, U, kernel)
            assert hessian.shape == (len(bases), n, n)
            if rho is werner:
                assert np.abs(hessian).max() <= 1e-13
            for m in range(n):
                e = np.zeros((1, n))
                e[0, m] = h
                up = oracle._value_and_gradient(r2, U @ oracle._expm(oracle._skew(e, d)), kernel)[1]
                down = oracle._value_and_gradient(r2, U @ oracle._expm(oracle._skew(-e, d)), kernel)[1]
                assert_allclose(hessian[:, m], (up - down) / (2 * h), atol=1e-8)

    def test_retraction_stays_unitary(self, rng):
        s = rng.standard_normal((5, 12)) * 3.0
        X = oracle._skew(s, 4)
        assert np.abs(X + X.conj().swapaxes(1, 2)).max() == 0.0
        assert np.abs(np.einsum("rii->ri", X)).max() == 0.0
        E = oracle._expm(X)
        assert np.abs(E @ E.conj().swapaxes(1, 2) - np.eye(4)).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_every_restart_reaches_closed_forms(self, d):
        # Haar starts only: no restart begins at the eigenbasis of the measured marginal
        cfg = OptimizerConfig(restarts=8 if d <= 6 else 4, seed=d)
        for i in range(2):
            p = PseudoPureParams(d, 0.3 + 0.4 * i, random_schmidt_vector(d, 60 * d + i))
            rho = build_pseudo_pure(p)
            offset = (von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
                      - von_neumann_entropy(rho.matrix))
            ce = minimize_conditional_entropy(rho, cfg)
            gd = oracle._minimize_over_bases(rho, cfg, blocks_kernel("gd", rho))
            discord_gaps = [abs(offset + v - cf.pp_discord(p)) for v in ce.per_restart_values]
            gd_gaps = [abs(d / (d - 1) * v - cf.pp_gd(p)) for v in gd.per_restart_values]
            assert max(discord_gaps) <= 1e-6 and max(gd_gaps) <= 1e-6
            assert ce.converged and gd.converged

    def test_every_gd_restart_reaches_closed_form_at_alpha_zero(self):
        # acceptance criterion 5's worst state: at alpha = 0 the landscape is the pure
        # state's scaled by 1/225, so a loose stop rule would end restarts early
        p = PseudoPureParams(4, 0.0, random_schmidt_vector(4, 702))
        rho = build_pseudo_pure(p)
        cfg = OptimizerConfig(restarts=6, seed=505)
        gd = oracle._minimize_over_bases(rho, cfg, blocks_kernel("gd", rho))
        gaps = [abs(4 / 3 * v - cf.pp_gd(p)) for v in gd.per_restart_values]
        assert max(gaps) <= 1e-12


def test_import_leaves_scipy_unloaded():
    src = str(Path(oracle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qcorr; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "False\n"


class TestDiscordNumeric:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_werner_d2_matches_closed_form(self, lam):
        rho = build_werner(WernerParams(2, lam))
        assert discord_numeric(rho, FAST) == pytest.approx(
            cf.werner_discord(2, lam), abs=1e-6
        )

    def test_white_noise_is_zero(self):
        rho = DensityMatrix(np.eye(9) / 9, (3, 3))
        assert abs(discord_numeric(rho, FAST)) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 0.8, 1.0])
    def test_pp_isotropic_d2_matches_closed_form(self, alpha):
        rho = build_isotropic(2, alpha)
        assert discord_numeric(rho, FAST) == pytest.approx(
            cf.pp_discord(isotropic_params(2, alpha)), abs=1e-6
        )

    def test_pp_d3_matches_closed_form(self):
        p = PseudoPureParams(3, 0.6, np.array([0.8, 0.6, 0.0]))
        rho = build_pseudo_pure(p)
        assert discord_numeric(rho, FAST) == pytest.approx(cf.pp_discord(p), abs=1e-6)


class TestMutualInformationNumeric:
    def test_product_state(self, rng):
        rho = product_state(random_density(2, rng), random_density(3, rng), (2, 3))
        assert mutual_information_numeric(rho) == pytest.approx(0.0, abs=1e-9)

    def test_werner_matches_closed_form(self):
        rho = build_werner(WernerParams(3, 0.9))
        assert mutual_information_numeric(rho) == pytest.approx(
            cf.werner_mutual_information(3, 0.9), abs=1e-9
        )

    def test_pure_maximally_entangled(self):
        rho = build_isotropic(4, 1.0)
        assert mutual_information_numeric(rho) == pytest.approx(4.0, abs=1e-10)


class TestGdObjective:
    def test_classical_on_b_state_vanishes(self, rng):
        # sum_i p_i rho_i (x) |eta_i><eta_i| measured in its own basis
        d = 3
        basis = random_unitary(d, 31)
        probs = rng.dirichlet(np.ones(d))
        rho = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            eta = basis[:, i]
            rho += probs[i] * np.kron(random_density(d, rng), np.outer(eta, eta.conj()))
        state = DensityMatrix(rho, (d, d))
        assert gd_objective(state, basis) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_entangled_constant_half(self):
        rho = build_isotropic(2, 1.0)
        for seed in range(20):
            assert gd_objective(rho, random_unitary(2, seed)) == pytest.approx(0.5, abs=1e-12)

    def test_pure_product_in_schmidt_basis(self):
        psi = schmidt_state_vector(np.array([1.0, 0.0]))
        rho = DensityMatrix(np.outer(psi, psi.conj()), (2, 2))
        assert gd_objective(rho, np.eye(2)) == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative(self, rng):
        rho = DensityMatrix(random_density(9, rng), (3, 3))
        for seed in range(10):
            assert gd_objective(rho, random_unitary(3, seed)) >= -1e-12


class TestGdNumeric:
    def test_pp_matches_closed_form(self):
        p = PseudoPureParams(2, 0.7, np.array([math.sqrt(0.8), math.sqrt(0.2)]))
        rho = build_pseudo_pure(p)
        assert gd_numeric(rho, FAST) == pytest.approx(cf.pp_gd(p), abs=1e-6)

    def test_white_noise_is_zero(self):
        rho = DensityMatrix(np.eye(9) / 9, (3, 3))
        assert abs(gd_numeric(rho, FAST)) <= 1e-10

    def test_pure_uniform_is_one(self):
        rho = build_isotropic(3, 1.0)
        assert gd_numeric(rho, FAST) == pytest.approx(1.0, abs=1e-6)


class TestNegativityNumeric:
    def test_separable_werner(self):
        rho = build_werner(WernerParams(3, 0.4))
        assert negativity_numeric(rho) <= 1e-10

    def test_isotropic_pure(self):
        assert negativity_numeric(build_isotropic(3, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self, rng):
        rho = product_state(random_density(3, rng), random_density(3, rng), (3, 3))
        assert negativity_numeric(rho) <= 1e-12

    def test_matches_closed_form(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            p = PseudoPureParams(d, float(rng.uniform()), random_schmidt_vector(d, int(rng.integers(1 << 31))))
            rho = build_pseudo_pure(p)
            assert negativity_numeric(rho) == pytest.approx(cf.pp_negativity(p), abs=1e-9)


class TestOptimalMeasurementCheck:
    def test_werner_passes(self):
        report = optimal_measurement_check(build_werner(WernerParams(3, 0.8)), FAST)
        assert report.passed
        assert report.marginal_degenerate
        assert report.entropy_gap <= 1e-6
        assert report.max_commutator <= 1e-8
        assert report.argmin_offdiagonal <= 1e-8

    def test_pp_passes(self):
        p = PseudoPureParams(3, 0.65, random_schmidt_vector(3, 77))
        report = optimal_measurement_check(build_pseudo_pure(p), FAST)
        assert report.passed

    def test_generic_state_reports_without_requirement(self, rng):
        report = optimal_measurement_check(DensityMatrix(random_density(4, rng), (2, 2)), FAST)
        assert report.entropy_gap >= -1e-12
        assert report.max_commutator >= 0.0


class TestConjectureSweep:
    def test_no_violations_and_cross_check(self):
        report = conjecture_sweep(60, (2, 4), seed=7)
        assert isinstance(report, ConjectureReport)
        assert report.violations == 0
        assert report.min_gap >= -1e-10
        assert report.checked == 3
        assert report.max_gd_gap <= 1e-6
        assert report.max_negativity_gap <= 1e-9

    def test_deterministic(self):
        a = conjecture_sweep(30, (2, 3), seed=5)
        b = conjecture_sweep(30, (2, 3), seed=5)
        assert a.min_gap == b.min_gap
        assert a.worst_case.d == b.worst_case.d
        assert a.worst_case.alpha == b.worst_case.alpha
        assert np.array_equal(a.worst_case.schmidt, b.worst_case.schmidt)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            conjecture_sweep(10, (1, 3), seed=0)
        with pytest.raises(ValueError):
            conjecture_sweep(0, (2, 3), seed=0)
