import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density
from qcorr import closed_forms as cf
from qcorr import oracle
from qcorr.linalg import ENVELOPE, partial_trace, purity, von_neumann_entropy
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
    build_pseudo_pure,
    build_werner,
    isotropic_params,
    random_schmidt_vector,
    random_unitaries,
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

    def test_dropped_outcomes_carry_the_maximally_mixed_state(self, rng):
        sigma = random_density(3, rng)
        rho = product_state(sigma, np.diag(np.eye(4)[0]), (3, 4))
        ens = conditional_ensemble(rho, np.eye(4))
        assert ens.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(ens.conditional_states[0] - sigma).max() <= 1e-12
        assert ens.probabilities[1:].tolist() == [0.0, 0.0, 0.0]
        for state in ens.conditional_states[1:]:
            assert state.dtype == complex and np.array_equal(state, np.eye(3) / 3)

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

    @pytest.mark.parametrize("search", [minimize_conditional_entropy, gd_numeric])
    def test_restarts_beyond_memory_raise_before_any_start(self, search, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("start drawn")

        monkeypatch.setattr(oracle, "random_unitaries", refuse)
        rho = DensityMatrix(np.kron(random_density(4, rng), random_density(2, rng)), (4, 2))
        limit = ENVELOPE["basis search entries"]
        restarts = limit // (2**2 * 4**2)  # the most whose R dB^2 dA^2 entries fit
        with pytest.raises(AssertionError, match="start drawn"):
            search(rho, OptimizerConfig(restarts=restarts))
        message = f"^basis search entries {(restarts + 1) * 64} exceeds the envelope {limit}$"
        with pytest.raises(ValueError, match=message):
            search(rho, OptimizerConfig(restarts=restarts + 1))
        for dims in ((4, 2), (2, 4)):  # R dB^2 dA^2 is the same either way round
            oracle.check_search(dims, OptimizerConfig(restarts=restarts))
            with pytest.raises(ValueError, match=message):
                oracle.check_search(dims, OptimizerConfig(restarts=restarts + 1))

    def test_check_search_bounds_the_measured_side_only(self):
        limit = ENVELOPE["measured dimension"]
        oracle.check_search((limit + 1, limit), OptimizerConfig(restarts=1))
        with pytest.raises(ValueError,
                           match=f"^measured dimension {limit + 1} exceeds the envelope {limit}$"):
            oracle.check_search((limit, limit + 1), OptimizerConfig(restarts=1))


def blocks_kernel(measure, rho):
    """The batched objective of the discord ("ce") or gd search on `rho`."""
    if measure == "ce":
        return oracle._ce_of_blocks
    rho_purity = purity(rho.matrix)
    return lambda tau: oracle._purity_loss(rho_purity, tau)


def descend(r2, start, kernel):
    """One Newton descent from the stack of bases `start`, as _minimize_over_bases runs it."""
    return oracle._newton_descent(start, r2, kernel)


def per_outcome_hessian(r2, U, data):
    """The Hessian as a loop over outcomes k with the per-generator moves P_km = U E_m e_k:
    2 Re tr((E_m E_l)^dagger A) from the dense generator stack, plus, for the 2(d-1)
    generators that move u_k, 2 Re P_km^dagger Q_k P_kl with Q_k[b,d] = sum G_k[c,a]
    rho[(a,b),(c,d)] and the kernel's second derivative in dtau_km = T(P_km, u_k) + h.c.
    It is the reference for _hessian, which builds the same terms from the table of
    off-diagonal blocks."""
    products, G, V, L, c, A = data
    R, dB, dA = G.shape[:3]
    n = dB * (dB - 1)
    E = oracle._generators(dB)
    EA = (E.reshape(n * dB, dB) @ A).reshape(R, n, dB * dB)
    hessian = -2.0 * (EA @ E.reshape(n, dB * dB).conj().T).real
    Q = (G.swapaxes(-1, -2).reshape(R, dB, dA * dA) @ r2.reshape(dA * dA, dB * dB))
    Q = Q.reshape(R, dB, dB, dB)
    for k in range(dB):
        m = np.flatnonzero(E[:, :, k].any(axis=1))
        P = E[m, :, k] @ U.swapaxes(1, 2)  # rows P_km
        half = (P.conj() @ products[..., k].swapaxes(1, 2)).reshape(R, m.size, dA, dA)
        dtau = half + half.conj().swapaxes(-1, -2)
        Vk = V[:, k, None]
        rotated = (Vk.conj().swapaxes(-1, -2) @ dtau @ Vk).reshape(R, m.size, dA * dA)
        traces = np.einsum("rmaa->rm", dtau).real
        hessian[:, m[:, None], m] += (
            2.0 * (P.conj() @ Q[:, k] @ P.swapaxes(1, 2)).real
            + ((L[:, k].reshape(R, 1, -1) * rotated) @ rotated.conj().swapaxes(1, 2)).real
            + c[:, k, None, None] * traces[:, :, None] * traces[:, None, :])
    return hessian


def closed_form_cases(d):
    """The optimizer settings and the two pseudo-pure states of the every-restart gate at d."""
    cfg = OptimizerConfig(restarts=8 if d <= 6 else 4, seed=d)
    return cfg, [PseudoPureParams(d, 0.3 + 0.4 * i, random_schmidt_vector(d, 60 * d + i))
                 for i in range(2)]


def count_rows(monkeypatch):
    """Record the number of bases of every gradient call and every Hessian call."""
    rows = {"_value_and_gradient": [], "_hessian": []}
    for name, calls in rows.items():
        def counted(*args, evaluate=getattr(oracle, name), calls=calls):
            calls.append(len(args[-2]))  # the stack of bases U
            return evaluate(*args)

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
    @pytest.mark.parametrize("measure", ["ce", "gd"])
    def test_start_at_a_critical_point_next_to_descending_restarts(self, d, measure):
        # the gradient is exactly 0 in the Schmidt basis of a pseudo-pure state, so that
        # restart never steps, while the Haar restarts of its stack descend
        rho = build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, 40 + d)))
        kernel = blocks_kernel(measure, rho)
        r2 = oracle._paired_b_indices(rho)
        eye = np.eye(d, dtype=complex)
        start = np.concatenate([eye[None], random_unitaries(d, [[d, r] for r in range(3)])])
        values, bases, evaluations, converged = descend(r2, start, kernel)
        objective = measured_conditional_entropy if measure == "ce" else gd_objective
        assert evaluations[0] == 1 and converged[0]
        assert values[0] == objective(rho, eye)
        assert bases[0].tobytes() == eye.tobytes()
        for r in range(1, len(start)):
            value, basis, count, done = descend(r2, start[r:r + 1], kernel)
            assert evaluations[r] == count[0] > 1 and converged[r] == done[0]
            assert values[r] == value[0] and bases[r].tobytes() == basis[0].tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("measure", ["ce", "gd"])
    def test_werner_restarts_evaluate_once(self, d, measure):
        # every basis gives a Werner state one value: its gradient reads at most 2e-16 in
        # Haar bases, far below _STEP_TOLERANCE, so every restart stops at its start
        rho = build_werner(WernerParams(d, 0.3))
        res = oracle._minimize_over_bases(rho, FAST, blocks_kernel(measure, rho))
        assert res.evaluations == (1,) * FAST.restarts and res.converged

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
        _, g, _ = oracle._value_and_gradient(r2, U, kernel)
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
            hessian = oracle._hessian(U, oracle._value_and_gradient(r2, U, kernel)[2])
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

    @pytest.mark.parametrize("d", range(2, ENVELOPE["measured dimension"] + 1))
    def test_generators_span_the_off_diagonal_of_u_d(self, d):
        E = oracle._generators(d)
        n = d * (d - 1)
        assert E.shape == (n, d, d)
        assert np.array_equal(E, -E.conj().swapaxes(1, 2))
        assert not np.einsum("mii->mi", E).any()
        # <E_m, E_l> = tr(E_m^dagger E_l) = 2 delta_ml: n independent directions, the real
        # dimension of the zero-diagonal skew-Hermitian matrices
        assert np.array_equal(np.einsum("mab,lab->ml", E.conj(), E), 2.0 * np.eye(n))
        assert not E.flags.writeable
        assert oracle._generators(d) is E
        assert np.array_equal(oracle._skew(np.eye(n), d), E)

    def test_hessian_plan_tables_are_read_only(self):
        # the cache hands the same tables to every _hessian call at d: the indices into H and
        # into N1, N2 and the two coefficients. The generator rows they are read from are
        # checked by test_hessian_equals_per_outcome_reference
        for d in range(2, ENVELOPE["measured dimension"] + 1):
            tables = oracle._hessian_plan(d)
            assert len(tables) == 4
            assert not any(table.flags.writeable for table in tables)

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("measure", ["ce", "gd"])
    def test_hessian_equals_per_outcome_reference(self, d, measure, rng):
        generic = DensityMatrix(random_density(d * d, rng), (d, d))
        pseudo_pure = build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, 30 + d)))
        # in the standard basis the outcomes 1.. of sigma (x) |0><0| drop: the kernel data
        # carry L = 0 and c = 0 for them, and both routes leave their terms out
        product = DensityMatrix(np.kron(random_density(d, rng), np.diag(np.eye(d)[0])), (d, d))
        haar = random_unitaries(d, [[d, r] for r in range(4)])
        cases = [(generic, haar), (pseudo_pure, haar), (product, haar),
                 (product, np.eye(d, dtype=complex)[None])]
        for rho, U in cases:
            r2 = oracle._paired_b_indices(rho)
            data = oracle._value_and_gradient(r2, U, blocks_kernel(measure, rho))[2]
            expected = per_outcome_hessian(r2, U, data)
            # the terms are O(1) for a unit-trace state; they cancel to ~1e-3 on flat landscapes
            # (pseudo-pure at d = 2) and to 0 where every basis gives one value (the product state's
            # conditional entropy), so the bound is relative to max(1, |H|)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(oracle._hessian(U, data) - expected).max() <= 1e-13 * scale

    def test_hessian_memory(self):
        # the table of off-diagonal blocks and the rotated blocks are each R d^2 dA^2 complex
        # numbers (2 MiB here); building every generator's moved blocks at once took 25 MiB
        d, restarts = 8, 32
        rho = build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, d)))
        r2 = oracle._paired_b_indices(rho)
        U = random_unitaries(d, [[d, r] for r in range(restarts)])
        data = oracle._value_and_gradient(r2, U, oracle._ce_of_blocks)[2]
        oracle._hessian(U, data)  # the cached tables of d are built outside the trace
        tracemalloc.start()
        try:
            oracle._hessian(U, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("measure", ["ce", "gd"])
    def test_hessian_of_reused_data_equals_fresh_evaluation(self, measure, monkeypatch):
        # every Hessian of a search takes the data of the trial that was accepted at its basis
        calls = []

        def recorded(U, data):
            calls.append((U.copy(), [x.copy() for x in data]))
            return hessian(U, data)

        hessian = oracle._hessian
        monkeypatch.setattr(oracle, "_hessian", recorded)
        for d in (2, 3, 4, 5, 6):
            rho = build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, 40 + d)))
            kernel = blocks_kernel(measure, rho)
            oracle._minimize_over_bases(rho, OptimizerConfig(restarts=4, seed=d), kernel)
            assert len(calls) > 1
            r2 = oracle._paired_b_indices(rho)
            for U, data in calls:
                fresh = hessian(U, oracle._value_and_gradient(r2, U, kernel)[2])
                assert hessian(U, data).tobytes() == fresh.tobytes()
            calls.clear()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_small_first_trial_stops_the_restart(self, d, monkeypatch):
        # a first trial of Frobenius norm 1e-12 bounds its largest coefficient by 1e-12, below
        # _STEP_TOLERANCE: each restart stops after its start, one Hessian and that trial.
        # Without the small-step stop every restart ran all 100 steps (201 evaluations).
        monkeypatch.setattr(oracle, "_MAX_ROTATION", 1e-12)
        rho = build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, 40 + d)))
        r2 = oracle._paired_b_indices(rho)
        start = random_unitaries(d, [[d, r] for r in range(3)])
        start_values = oracle._value_and_gradient(r2, start, oracle._ce_of_blocks)[0]
        values, _, evaluations, converged = descend(r2, start, oracle._ce_of_blocks)
        assert evaluations.tolist() == [3, 3, 3]
        assert converged.all()
        assert (values < start_values).all()

    @pytest.mark.parametrize("measure", ["ce", "gd"])
    def test_trial_rotations_are_at_most_pi(self, measure, monkeypatch):
        # without the bound, 53% (ce) and 44% (gd) of these trials rotate by more than pi,
        # where exp wraps around
        norms = []

        def recorded(X):
            norms.extend(np.linalg.norm(X, axis=(1, 2)))
            return expm(X)

        expm = oracle._expm
        monkeypatch.setattr(oracle, "_expm", recorded)
        rho = build_pseudo_pure(PseudoPureParams(6, 0.3, random_schmidt_vector(6, 360)))
        cfg = OptimizerConfig(restarts=8, seed=6)
        oracle._minimize_over_bases(rho, cfg, blocks_kernel(measure, rho))
        # t = pi / ||X||_F and the norm of t X each round once
        slack = 4 * np.finfo(float).eps
        assert max(norms) <= math.pi * (1 + slack)
        assert max(norms) >= math.pi * (1 - slack)  # the bound acted on some step

    def test_line_search_trials_per_step(self, monkeypatch):
        # over the states of the every-restart gate: 4000 trials for 2466 Newton steps (1.62)
        # when a step's first trial was the full step, 2849 for 2402 (1.19) with the bound at pi
        rows = count_rows(monkeypatch)
        starts = 0
        for d in range(2, 9):
            cfg, cases = closed_form_cases(d)
            for p in cases:
                rho = build_pseudo_pure(p)
                for measure in ("ce", "gd"):
                    oracle._minimize_over_bases(rho, cfg, blocks_kernel(measure, rho))
                    starts += cfg.restarts
        steps = sum(rows["_hessian"])
        trials = sum(rows["_value_and_gradient"]) - starts
        assert trials <= 1.4 * steps

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_every_restart_reaches_closed_forms(self, d):
        # Haar starts only: no restart begins at the eigenbasis of the measured marginal
        cfg, cases = closed_form_cases(d)
        for p in cases:
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

    @pytest.mark.parametrize("d, K", [(3, 2), (4, 2), (4, 3)])
    def test_every_restart_converges_where_outcomes_drop(self, d, K, rng):
        # sum_k p_k sigma_k (x) |k><k| over k < K < d: the measured marginal has rank K, so
        # the optimal (standard) basis drops outcomes K..d-1, where the conditional entropy
        # is not twice differentiable and _hessian leaves their terms out. Discord is zero.
        p = rng.dirichlet(np.ones(K))
        sigmas = [random_density(d, rng) for _ in range(K)]
        rho = DensityMatrix(sum(p[k] * np.kron(sigmas[k], np.diag(np.eye(d)[k]))
                                for k in range(K)), (d, d))
        expected = sum(p[k] * von_neumann_entropy(sigmas[k]) for k in range(K))
        cfg = OptimizerConfig(restarts=4, seed=d + K)
        res = minimize_conditional_entropy(rho, cfg)
        start = np.array([random_unitary(d, [cfg.seed, r]) for r in range(cfg.restarts)])
        values, _, _, converged = descend(oracle._paired_b_indices(rho), start,
                                          oracle._ce_of_blocks)
        assert values.tobytes() == np.array(res.per_restart_values).tobytes()
        assert converged.all()
        assert max(abs(v - expected) for v in res.per_restart_values) <= 1e-9
        assert abs(discord_numeric(rho, cfg)) <= 1e-9


def test_import_leaves_scipy_unloaded():
    # nor the CLI's machinery: a library caller of `import qcorr` pays for none of them
    src = str(Path(oracle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    modules = ("scipy", "qcorr.cli", "argparse", "json")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, qcorr; print([m for m in {modules} if m in sys.modules])"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "[]\n"


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
        rho = build_pseudo_pure(isotropic_params(2, alpha))
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
        rho = build_pseudo_pure(isotropic_params(4, 1.0))
        assert mutual_information_numeric(rho) == pytest.approx(4.0, abs=1e-10)


class TestFullStateEntropy:
    def test_only_marginals_are_eigensolved(self, monkeypatch):
        # S(rho) comes from DensityMatrix.entropy, so the measures solve marginals only
        sides = []
        real = oracle.von_neumann_entropy

        def recording(matrix):
            sides.append(len(matrix))
            return real(matrix)

        p = PseudoPureParams(3, 0.6, np.array([0.8, 0.6, 0.0]))
        rho = build_pseudo_pure(p)
        monkeypatch.setattr(oracle, "von_neumann_entropy", recording)
        assert discord_numeric(rho, FAST) == pytest.approx(cf.pp_discord(p), abs=1e-6)
        assert mutual_information_numeric(rho) == pytest.approx(
            cf.pp_mutual_information(p), abs=1e-9)
        assert sides == [3, 3, 3]  # S(rho^B) for the discord, S(rho^A) and S(rho^B) for the mi


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
        rho = build_pseudo_pure(isotropic_params(2, 1.0))
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
        rho = build_pseudo_pure(isotropic_params(3, 1.0))
        assert gd_numeric(rho, FAST) == pytest.approx(1.0, abs=1e-6)


class TestNegativityNumeric:
    def test_separable_werner(self):
        rho = build_werner(WernerParams(3, 0.4))
        assert negativity_numeric(rho) <= 1e-10

    def test_isotropic_pure(self):
        rho = build_pseudo_pure(isotropic_params(3, 1.0))
        assert negativity_numeric(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self, rng):
        rho = product_state(random_density(3, rng), random_density(3, rng), (3, 3))
        assert negativity_numeric(rho) <= 1e-12

    def test_rejects_unequal_dimensions(self, rng):
        rho = product_state(random_density(2, rng), random_density(3, rng), (2, 3))
        with pytest.raises(ValueError) as info:
            negativity_numeric(rho)
        assert str(info.value) == "negativity is defined here for equal local dimensions"

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

    def test_cross_check_does_not_follow_the_envelope(self, monkeypatch):
        # patched to 16, the measured-dimension row cross-checked 10 samples instead of 5
        def report():
            return json.dumps(asdict(conjecture_sweep(200, (2, 16), 0)), default=np.ndarray.tolist)

        expected = report()
        monkeypatch.setitem(ENVELOPE, "measured dimension", 16)
        assert report() == expected
        assert json.loads(expected)["checked"] == 5

    @pytest.mark.parametrize("route, field", [("gd_numeric", "max_gd_gap"),
                                              ("negativity_numeric", "max_negativity_gap")])
    def test_nan_cross_check_is_reported(self, route, field, monkeypatch):
        # a nan gap is no agreement, so the maximum carries it
        monkeypatch.setattr(oracle, route, lambda *a: math.nan)
        report = conjecture_sweep(40, (2, 4), 0)
        assert report.checked == 2 and math.isnan(getattr(report, field))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            conjecture_sweep(10, (1, 3), seed=0)
        with pytest.raises(ValueError):
            conjecture_sweep(0, (2, 3), seed=0)
