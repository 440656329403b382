"""Matrix-based measures computed without any family formulas.

Measured conditional entropies for explicit bases, seeded multi-start
minimization over rank-one projective measurement bases for discord and
geometric discord, spectral negativity, optimal-measurement structure
checks, and ensemble sweeps of the geometric-discord/negativity
inequality. Together these provide an independent numerical route against
which every closed form in the package is cross-checked.

The measurement search is restricted to orthonormal (rank-one projective)
bases on the measured side; for states outside the implemented families
the minimized value is therefore an upper bound on the discord. Every
restart starts from a Haar-random basis with a deterministic per-restart
seed and runs a saddle-free Newton descent on U(d) (Edelman, Arias & Smith,
SIAM J. Matrix Anal. Appl. 20, 1998): the objectives' analytic gradients
along the d(d-1) off-diagonal skew-Hermitian generators (column phases do
not change a measurement), their analytic Hessian from one evaluation of
the blocks, a step along the Hessian's eigenvectors scaled by the inverse
absolute eigenvalues, and an exponential retraction, until the gradient or
the accepted step is within _STEP_TOLERANCE. The Hessian adds the second
derivative of the basis and the cross terms of the blocks to each kernel's
second derivative in its blocks; for the conditional entropy that is the
Daleckii-Krein form, the divided differences of log2 on each block's
eigensystem. All restarts advance together, so every basis evaluation is one
batched call over a stack of bases, and a restart's result does not depend on
the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms
from .linalg import (
    EVAL_ZERO_CUTOFF,
    commutator_norm,
    hermitian_eigensystem,
    partial_trace,
    partial_transpose,
    purity,
    von_neumann_entropy,
)
from .states import (
    DensityMatrix,
    PseudoPureParams,
    build_pseudo_pure,
    random_schmidt_vector,
    random_unitary,
)

MAX_MEASURED_DIM = 8
ZERO_PROBABILITY = 1e-14
BASIS_ORTHONORMALITY_ATOL = 1e-10
DEGENERACY_GAP_ATOL = 1e-10

OPTIMAL_BASIS_GAP_TOL = 1e-6
COMMUTATOR_NORM_TOL = 1e-8
CONJECTURE_GAP_TOL = 1e-10

_MAX_ITERATIONS = 100  # Newton steps per restart
_STEP_TOLERANCE = 1e-10  # stop below this gradient or accepted-step size
_CURVATURE_FLOOR = 1e-8  # relative to the largest |eigenvalue| of the Hessian


@dataclass(frozen=True)
class OptimizerConfig:
    """Restarts and seed of the basis minimizations; every restart stops on _STEP_TOLERANCE."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class OptimizerResult:
    """Best value found, its basis, and per-restart diagnostics."""

    value: float
    argmin_basis: np.ndarray
    per_restart_values: tuple[float, ...]
    converged: bool  # the best restart stopped in fewer than _MAX_ITERATIONS steps
    evaluations: tuple[int, ...]  # per restart: the start, one Hessian per step, the trials


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Outcome probabilities and normalized conditional states on side A.

    Outcomes with probability <= 1e-14 carry the maximally mixed state by
    convention and are excluded from entropy averages.
    """

    probabilities: np.ndarray
    conditional_states: tuple[np.ndarray, ...]


def _check_basis(basis, d: int) -> np.ndarray:
    B = np.asarray(basis, dtype=complex)
    if B.shape != (d, d):
        raise ValueError(f"basis must be a {d} x {d} matrix of columns, got shape {B.shape}")
    gram = B.conj().T @ B
    if np.abs(gram - np.eye(d)).max() > BASIS_ORTHONORMALITY_ATOL:
        raise ValueError("basis columns are not orthonormal within 1e-10")
    return B


def _paired_b_indices(rho: DensityMatrix) -> np.ndarray:
    """Regroup rho[a,b,c,d] as a (dA*dA*dB, dB) matrix with rows (a, c, b)."""
    dA, dB = rho.dims
    rho4 = rho.matrix.reshape(dA, dB, dA, dB)
    return np.ascontiguousarray(rho4.transpose(0, 2, 1, 3)).reshape(dA * dA * dB, dB)


def _measurement_blocks(r2: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of unnormalized post-measurement blocks tau_k = <eta_k|rho|eta_k>.

    r2 comes from _paired_b_indices; B is an (R, dB, dB) stack of bases with
    the basis vectors as columns. Returns the (R, dB, dA, dA) blocks and the
    products r2 @ B as an (R, dA*dA, dB, dB) stack indexed [r, (a,c), b, k].
    """
    R, dB = B.shape[0], B.shape[1]
    products = (r2 @ B).reshape(R, -1, dB, dB)
    dA = int(round(math.sqrt(products.shape[1])))
    # tau[r, (a,c), k] = sum_{b,d} conj(B[r,b,k]) r2[(a,c,b), d] B[r,d,k]
    contracted = (B.conj()[:, None] * products).sum(axis=2)
    return contracted.reshape(R, dA, dA, dB).transpose(0, 3, 1, 2), products


def _blocks(rho: DensityMatrix, basis) -> np.ndarray:
    """The (1, dB, dA, dA) blocks of measuring side B of `rho` in `basis`."""
    return _measurement_blocks(_paired_b_indices(rho), _check_basis(basis, rho.dims[1])[None])[0]


def _ce_of_blocks(tau: np.ndarray):
    """Average conditional entropy sum_k p_k S(tau_k / p_k) in bits, per basis.

    Also returns the derivative weights G_k = -log2(tau_k / p_k), with
    d(value) = sum_k tr(G_k dtau_k), and the second-order data (V, L, c) of
    each block: d^2(value) = sum_k sum_ij L_k,ij (V_k^dagger H_k V_k)_ij
    conj(V_k^dagger H'_k V_k)_ij + c_k tr H_k tr H'_k for block derivatives H, H'.
    Dropped outcomes get G_k = 0, L_k = 0 and c_k = 0.
    """
    p = np.einsum("rkaa->rk", tau).real
    keep = p > ZERO_PROBABILITY
    # dropped outcomes divide by 1 so that one eigensolve covers every block
    w, V = np.linalg.eigh(tau / np.where(keep, p, 1.0)[..., None, None])
    clipped = np.clip(w, EVAL_ZERO_CUTOFF, None)
    logs = np.where(keep[..., None], np.log2(clipped), 0.0)
    entropies = -np.where(w > EVAL_ZERO_CUTOFF, w * logs, 0.0).sum(axis=-1)
    weights = -(V * logs[..., None, :]) @ V.conj().swapaxes(-1, -2)
    # Daleckii-Krein: the divided differences of log2 on the clipped eigenvalues,
    # (log2 x - log2 y) / (x - y) = log1p(r) / (r y ln 2) with r = |x - y| / y for the
    # smaller y, so that ties, such as the d - 1 of a pseudo-pure block, get 1 / (y ln 2)
    low = np.minimum(clipped[..., :, None], clipped[..., None, :])
    r = np.abs(clipped[..., :, None] - clipped[..., None, :]) / low
    slopes = np.where(r > 0, np.log1p(r) / np.where(r > 0, r, 1.0), 1.0) / (low * math.log(2))
    inverse_p = np.where(keep, 1.0 / np.where(keep, p, 1.0), 0.0)
    second = (V, -inverse_p[..., None, None] * slopes, inverse_p / math.log(2))
    return (p * entropies).sum(axis=-1), weights, second


def _purity_loss(rho_purity: float, tau: np.ndarray):
    """tr(rho^2) - sum_k tr(tau_k^2) per basis, its derivative weights G_k = -2 tau_k,
    and the second-order data (V, L, c) = (I, -2, 0) of d^2(value) = -2 sum_k tr(H_k H'_k)."""
    second = (np.broadcast_to(np.eye(tau.shape[-1]), tau.shape),
              np.full(tau.shape, -2.0), np.zeros(tau.shape[:2]))
    return rho_purity - np.einsum("rkab,rkab->r", tau, tau.conj()).real, -2.0 * tau, second


def conditional_ensemble(rho: DensityMatrix, basis) -> ConditionalEnsemble:
    """Measure side B of `rho` in `basis` (columns are the basis vectors)."""
    dA, dB = rho.dims
    tau = _blocks(rho, basis)[0]
    probs = np.einsum("kaa->k", tau).real.copy()
    states = []
    for k in range(dB):
        if probs[k] > ZERO_PROBABILITY:
            block = tau[k] / probs[k]
            states.append((block + block.conj().T) / 2.0)
        else:
            states.append(np.eye(dA, dtype=complex) / dA)
    return ConditionalEnsemble(probs, tuple(states))


def measured_conditional_entropy(rho: DensityMatrix, basis) -> float:
    """sum_k p_k S(rho^A_k) for a measurement of side B in `basis`, in bits."""
    return float(_ce_of_blocks(_blocks(rho, basis))[0][0])


def _skew(s: np.ndarray, d: int) -> np.ndarray:
    """sum_m s_m E_m, a d x d skew-Hermitian matrix, for each row s of coefficients.

    The first half of a row holds the real parts of the entries (i, j),
    i < j, the second half their imaginary parts; the diagonal is zero.
    """
    half = d * (d - 1) // 2
    i, j = np.triu_indices(d, 1)
    X = np.zeros((s.shape[0], d, d), dtype=complex)
    X[:, i, j] = s[:, :half] + 1j * s[:, half:]
    X[:, j, i] = -s[:, :half] + 1j * s[:, half:]
    return X


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) for a stack of skew-Hermitian X, from the eigensystem of the Hermitian iX."""
    w, V = np.linalg.eigh(1j * X)
    return (V * np.exp(-1j * w)[:, None, :]) @ V.conj().swapaxes(1, 2)


def _gradient_matrix(U: np.ndarray, G: np.ndarray, products: np.ndarray) -> np.ndarray:
    """A = U^dagger Gamma, Gamma[b,k] = sum G_k[c,a] rho[(a,b),(c,d)] U[d,k], per basis."""
    R, dB, dA = G.shape[:3]
    weights = G.transpose(0, 3, 2, 1).reshape(R, dA * dA, 1, dB)
    return U.conj().swapaxes(1, 2) @ (weights * products).sum(axis=1)


def _value_and_gradient(r2: np.ndarray, U: np.ndarray, value_of_blocks):
    """Objective values at the stack of bases U, and their gradients along the generators.

    With A from _gradient_matrix, the derivative along U -> U exp(t E_m) is
    g_m = 2 Re tr(A^dagger E_m).
    """
    tau, products = _measurement_blocks(r2, U)
    value, G, _ = value_of_blocks(tau)
    A = _gradient_matrix(U, G, products)
    i, j = np.triu_indices(U.shape[1], 1)
    return value, 2.0 * np.concatenate(
        [(A[:, i, j] - A[:, j, i]).real, (A[:, i, j] + A[:, j, i]).imag], axis=1)


def _hessian(r2: np.ndarray, U: np.ndarray, value_of_blocks) -> np.ndarray:
    """Hessians H_ml = d/dt d/ds f(U exp(t E_m) exp(s E_l)) at 0, per basis of the stack U.

    With u_k = U e_k, P_km = U E_m e_k and T(x, y)[a,c] = sum_bd conj(x_b)
    rho[(a,b),(c,d)] y_d, the blocks are tau_k = T(u_k, u_k) and move by
    dtau_km = T(P_km, u_k) + h.c. H_ml is the sum of three terms:
    2 Re tr((E_m E_l)^dagger A) from the second derivative of the basis,
    2 Re sum_k P_km^dagger Q_k P_kl with Q_k[b,d] = sum G_k[c,a] rho[(a,b),(c,d)],
    and the kernel's second derivative sum_k D^2 phi(tau_k)[dtau_km, dtau_kl].
    Only the 2(d-1) generators that move u_k enter the terms of outcome k.
    """
    tau, products = _measurement_blocks(r2, U)
    _, G, (V, L, c) = value_of_blocks(tau)
    R, dB, dA = G.shape[:3]
    n = dB * (dB - 1)
    E = _skew(np.eye(n), dB)
    # tr((E_m E_l)^dagger A) = tr(E_l E_m A) = -sum conj(E_l) * (E_m A)
    EA = (E.reshape(n * dB, dB) @ _gradient_matrix(U, G, products)).reshape(R, n, dB * dB)
    hessian = -2.0 * (EA @ E.reshape(n, dB * dB).conj().T).real
    Q = (G.swapaxes(-1, -2).reshape(R, dB, dA * dA) @ r2.reshape(dA * dA, dB * dB))
    Q = Q.reshape(R, dB, dB, dB)
    for k in range(dB):  # one outcome at a time: no temporary holds every block's terms
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


def _newton_descent(U: np.ndarray, value_and_gradient, hessian):
    """Saddle-free Newton descent on U(d) from each basis of the stack U.

    `value_and_gradient` maps a stack of bases to their values and their
    gradients along the generators, `hessian` to their Hessians. Every
    restart takes the step -V |Lambda|^-1 V^T g from the eigensystem of its
    symmetrised Hessian and halves it until the value decreases. A restart
    stops when its gradient or its accepted step is within _STEP_TOLERANCE,
    when no decrease is found, or after _MAX_ITERATIONS steps. Returns the
    final values and bases, the basis evaluations per restart (the start, one
    Hessian per step and the line-search trials), and whether each restart
    stopped in fewer than _MAX_ITERATIONS steps.
    """
    U = np.array(U, dtype=complex)
    R, d = U.shape[:2]
    n = d * (d - 1)
    value, g = value_and_gradient(U)
    evaluations, steps = np.ones(R, dtype=int), np.zeros(R, dtype=int)
    active = np.abs(g).max(axis=1) > _STEP_TOLERANCE
    step = np.zeros((R, n))
    while active.any():
        a = np.flatnonzero(active)
        H = hessian(U[a])
        evaluations[a] += 1
        steps[a] += 1
        # a complex eigensolve reuses the LAPACK routine of the blocks; a real one
        # would add its own code pages to the peak RSS
        lam, V = np.linalg.eigh(((H + H.swapaxes(1, 2)) / 2.0).astype(complex))
        curvature = np.abs(lam)
        curvature = np.maximum(curvature, _CURVATURE_FLOOR * curvature.max(axis=1, keepdims=True))
        projected = V.conj().swapaxes(1, 2) @ g[a, :, None]
        step[a] = -(V @ (projected / curvature[..., None])).real[..., 0]
        t, pending = 1.0, a
        while pending.size:
            trial = U[pending] @ _expm(_skew(t * step[pending], d))
            trial_value, trial_g = value_and_gradient(trial)
            evaluations[pending] += 1
            better = trial_value < value[pending]
            small = t * np.abs(step[pending]).max(axis=1) <= _STEP_TOLERANCE
            accepted = pending[better]
            U[accepted], value[accepted] = trial[better], trial_value[better]
            g[accepted] = trial_g[better]
            active[pending[small]] = False
            active[accepted[np.abs(trial_g[better]).max(axis=1) <= _STEP_TOLERANCE]] = False
            pending, t = pending[~better & ~small], t / 2.0
        active &= steps < _MAX_ITERATIONS
    return value, U, evaluations, steps < _MAX_ITERATIONS


def _minimize_over_bases(rho: DensityMatrix, cfg: OptimizerConfig, value_of_blocks) -> OptimizerResult:
    """Multi-start Newton descent of a blocks functional over projective bases."""
    dB = rho.dims[1]
    if dB > MAX_MEASURED_DIM:
        raise ValueError(
            f"measured dimension {dB} exceeds the optimization envelope {MAX_MEASURED_DIM}"
        )
    r2 = _paired_b_indices(rho)
    bases = np.array([random_unitary(dB, [cfg.seed, r]) for r in range(cfg.restarts)])
    values, bases, evaluations, converged = _newton_descent(
        bases, lambda U: _value_and_gradient(r2, U, value_of_blocks),
        lambda U: _hessian(r2, U, value_of_blocks))
    best = int(np.argmin(values))
    return OptimizerResult(float(values[best]), bases[best], tuple(map(float, values)),
                           bool(converged[best]), tuple(map(int, evaluations)))


def minimize_conditional_entropy(rho: DensityMatrix, cfg: OptimizerConfig) -> OptimizerResult:
    """Minimize the measured conditional entropy over projective bases on B."""
    return _minimize_over_bases(rho, cfg, _ce_of_blocks)


def discord_numeric(rho: DensityMatrix, cfg: OptimizerConfig) -> float:
    """Discord from matrices alone: S(rho^B) - S(rho) plus the minimized
    conditional entropy."""
    s_b = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
    s_ab = von_neumann_entropy(rho.matrix)
    return s_b - s_ab + minimize_conditional_entropy(rho, cfg).value


def mutual_information_numeric(rho: DensityMatrix) -> float:
    """S(rho^A) + S(rho^B) - S(rho) from the eigensystems."""
    s_a = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "B"))
    s_b = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
    return s_a + s_b - von_neumann_entropy(rho.matrix)


def gd_objective(rho: DensityMatrix, basis) -> float:
    """tr(rho^2) - sum_k tr(tau_k^2) for a measurement of side B in `basis`."""
    return float(_purity_loss(purity(rho.matrix), _blocks(rho, basis))[0][0])


def gd_numeric(rho: DensityMatrix, cfg: OptimizerConfig) -> float:
    """Geometric discord: d/(d-1) times the minimized purity loss."""
    rho_purity = purity(rho.matrix)
    result = _minimize_over_bases(rho, cfg, lambda tau: _purity_loss(rho_purity, tau))
    dB = rho.dims[1]
    return dB / (dB - 1.0) * result.value


def negativity_numeric(rho: DensityMatrix) -> float:
    """Normalized negativity 2/(d-1) |sum of negative eigenvalues of rho^Gamma|.

    Eigenvalues in [-1e-12, 0) are treated as zero.
    """
    dA, dB = rho.dims
    if dA != dB:
        raise ValueError("negativity is defined here for equal local dimensions")
    w, _ = hermitian_eigensystem(partial_transpose(rho.matrix, rho.dims, "B"))
    total = w[w < -1e-12].sum()
    return float(2.0 * abs(total) / (dA - 1.0))


@dataclass(frozen=True)
class OptimalMeasurementReport:
    """Diagnostics of the optimal-measurement structure check.

    entropy_gap compares the conditional entropy in an eigenbasis of the
    measured marginal against the optimizer minimum; max_commutator is the
    largest pairwise commutator norm of the conditional states in that
    eigenbasis. For a degenerate marginal the argmin basis must also
    diagonalize it (argmin_offdiagonal).
    """

    entropy_gap: float
    max_commutator: float
    marginal_degenerate: bool
    argmin_offdiagonal: float
    passed: bool
    optimizer: OptimizerResult


def optimal_measurement_check(rho: DensityMatrix, cfg: OptimizerConfig) -> OptimalMeasurementReport:
    """Check that projecting in an eigenbasis of the measured marginal is
    optimal and leaves commuting conditional states."""
    marginal = partial_trace(rho.matrix, rho.dims, "A")
    evals, evecs = hermitian_eigensystem(marginal)
    degenerate = bool(evals.size > 1 and np.diff(evals).min() < DEGENERACY_GAP_ATOL)

    eigenbasis_value = measured_conditional_entropy(rho, evecs)
    opt = minimize_conditional_entropy(rho, cfg)
    gap = eigenbasis_value - opt.value

    conjugated = opt.argmin_basis.conj().T @ marginal @ opt.argmin_basis
    offdiag = float(np.abs(conjugated - np.diag(np.diag(conjugated))).max())

    ensemble = conditional_ensemble(rho, evecs)
    states = ensemble.conditional_states
    max_comm = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            max_comm = max(max_comm, commutator_norm(states[i], states[j]))

    passed = gap <= OPTIMAL_BASIS_GAP_TOL and max_comm <= COMMUTATOR_NORM_TOL
    if degenerate:
        passed = passed and offdiag <= COMMUTATOR_NORM_TOL
    return OptimalMeasurementReport(gap, max_comm, degenerate, offdiag, passed, opt)


@dataclass(frozen=True)
class ConjectureReport:
    """Result of a geometric-discord vs squared-negativity ensemble sweep."""

    samples: int
    min_gap: float
    worst_case: PseudoPureParams
    violations: int
    checked: int = 0
    max_gd_gap: float = 0.0
    max_negativity_gap: float = 0.0


def conjecture_sweep(samples: int, d_range: tuple[int, int], seed: int) -> ConjectureReport:
    """Sample pseudo-pure states and check gd >= negativity^2.

    Draws d uniformly in d_range, alpha uniformly in [0, 1] and a Haar
    Schmidt vector per sample; evaluates the closed forms for every sample
    and additionally cross-checks the matrix-based pair on a deterministic
    5% subset (every 20th sample within the optimization envelope).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dmin, dmax = int(d_range[0]), int(d_range[1])
    if not 2 <= dmin <= dmax:
        raise ValueError(f"need 2 <= dmin <= dmax, got ({dmin}, {dmax})")

    rng = np.random.default_rng(seed)
    min_gap = math.inf
    worst: PseudoPureParams | None = None
    violations = 0
    checked = 0
    max_gd_gap = 0.0
    max_neg_gap = 0.0
    for index in range(samples):
        d = int(rng.integers(dmin, dmax + 1))
        alpha = float(rng.uniform())
        u = random_schmidt_vector(d, int(rng.integers(0, 2**63 - 1)))
        params = PseudoPureParams(d, alpha, u)
        gd = closed_forms.pp_gd(params)
        neg = closed_forms.pp_negativity(params)
        gap = gd - neg * neg
        if gap < min_gap:
            min_gap = gap
            worst = params
        if gap < -CONJECTURE_GAP_TOL:
            violations += 1
        if index % 20 == 0 and d <= MAX_MEASURED_DIM:
            rho = build_pseudo_pure(params)
            cfg = OptimizerConfig(restarts=4, seed=int(np.random.SeedSequence([seed, index]).generate_state(1)[0]))
            max_gd_gap = max(max_gd_gap, abs(gd_numeric(rho, cfg) - gd))
            max_neg_gap = max(max_neg_gap, abs(negativity_numeric(rho) - neg))
            checked += 1
    return ConjectureReport(
        samples=samples,
        min_gap=min_gap,
        worst_case=worst,
        violations=violations,
        checked=checked,
        max_gd_gap=max_gd_gap,
        max_negativity_gap=max_neg_gap,
    )
