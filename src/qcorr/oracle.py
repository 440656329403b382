"""Matrix-based measures computed without any family formulas.

Measured conditional entropies for explicit bases, seeded multi-start
minimization over rank-one projective measurement bases for discord and
geometric discord, spectral negativity, optimal-measurement structure
checks, and ensemble sweeps of the geometric-discord/negativity
inequality. Together these provide an independent numerical route against
which every closed form in the package is cross-checked.

The measurement search is restricted to orthonormal (rank-one projective)
bases on the measured side; for states outside the implemented families
the minimized value is therefore an upper bound on the discord. Bases are
parametrized as a product of d(d-1)/2 complex Givens rotations (two angles
each) applied to a restart basis; restart 0 uses an eigenbasis of the
measured marginal, the rest are Haar-random with deterministic per-restart
seeds, and each restart runs a derivative-free simplex descent. The restarts
advance in lockstep: each round stacks the next point of every unfinished
restart and evaluates them all in one batched call (one stack of rotated
bases, one block contraction, one eigensolve), with the same bits as running
the restarts one after another.
"""

from __future__ import annotations

import functools
import itertools
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
    _haar_unitary,
    build_pseudo_pure,
    random_schmidt_vector,
)

MAX_MEASURED_DIM = 8
ZERO_PROBABILITY = 1e-14
BASIS_ORTHONORMALITY_ATOL = 1e-10
DEGENERACY_GAP_ATOL = 1e-10

OPTIMAL_BASIS_GAP_TOL = 1e-6
COMMUTATOR_NORM_TOL = 1e-8
CONJECTURE_GAP_TOL = 1e-10

_SIMPLEX_STEP = 0.25
_MAX_ITERATIONS = 2000  # per restart; evaluations are capped at twice this
_OBJECTIVE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start settings for the measurement-basis minimizations."""

    restarts: int = 32
    step_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.step_tolerance <= 0:
            raise ValueError("step_tolerance must be positive")


@dataclass(frozen=True)
class OptimizerResult:
    """Best value found, its basis, and per-restart diagnostics."""

    value: float
    argmin_basis: np.ndarray
    per_restart_values: tuple[float, ...]
    converged: bool
    evaluations: tuple[int, ...]  # objective evaluations per restart


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Outcome probabilities and normalized conditional states on side A.

    Outcomes with probability <= 1e-14 carry the maximally mixed state by
    convention and are excluded from entropy averages.
    """

    probabilities: np.ndarray
    conditional_states: tuple[np.ndarray, ...]

    def blocks(self) -> tuple[np.ndarray, ...]:
        """Unnormalized blocks p_k * rho^A_k."""
        return tuple(p * s for p, s in zip(self.probabilities, self.conditional_states))


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


def _measurement_blocks(r2: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacks of unnormalized post-measurement blocks tau_k = <eta_k|rho|eta_k>.

    r2 comes from _paired_b_indices; B is an (R, dB, dB) stack of bases with
    the basis vectors as columns. Returns an (R, dB, dA, dA) stack.
    """
    R, dB = B.shape[0], B.shape[1]
    dA = int(round(math.sqrt(r2.shape[0] // dB)))
    # tau[r, (a,c), k] = sum_{b,d} conj(B[r,b,k]) r2[(a,c,b), d] B[r,d,k]
    contracted = (B.conj()[:, None] * (r2 @ B).reshape(R, dA * dA, dB, dB)).sum(axis=2)
    return contracted.reshape(R, dA, dA, dB).transpose(0, 3, 1, 2)


def _blocks(rho: DensityMatrix, basis) -> np.ndarray:
    """The (1, dB, dA, dA) blocks of measuring side B of `rho` in `basis`."""
    return _measurement_blocks(_paired_b_indices(rho), _check_basis(basis, rho.dims[1])[None])


def _ce_of_blocks(tau: np.ndarray) -> np.ndarray:
    """Average conditional entropy sum_k p_k S(tau_k / p_k) in bits, per basis."""
    p = np.einsum("rkaa->rk", tau).real
    keep = p > ZERO_PROBABILITY
    # dropped outcomes divide by 1 so that one eigensolve covers every block
    states = tau / np.where(keep, p, 1.0)[..., None, None]
    w = np.clip(np.linalg.eigvalsh(states), 0.0, None)
    logs = np.log2(np.clip(w, EVAL_ZERO_CUTOFF, None))
    entropies = -np.where(w > EVAL_ZERO_CUTOFF, w * logs, 0.0).sum(axis=-1)
    return np.array([p_r[k] @ s_r[k] for p_r, s_r, k in zip(p, entropies, keep)])


def _purity_loss(rho_purity: float, tau: np.ndarray) -> np.ndarray:
    """tr(rho^2) - sum_k tr(tau_k^2), per basis."""
    return rho_purity - np.einsum("rkab,rkab->r", tau, tau.conj()).real


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
    return float(_ce_of_blocks(_blocks(rho, basis))[0])


def _givens_basis(x: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Apply the product of complex Givens rotations with angles x to `base`.

    The last axis of x holds (theta, phi) for each column pair i < j, and
    base is a matching d x d matrix or stack of them; each rotation is
    exactly unitary, so the columns stay orthonormal.
    """
    d = base.shape[-1]
    U = np.array(base, copy=True)
    angles = x.ravel().tolist()
    cos = np.array(list(map(math.cos, angles))).reshape(x.shape)
    sin = np.array(list(map(math.sin, angles))).reshape(x.shape)
    c, s = cos[..., 0::2, None], sin[..., 0::2, None]
    e = np.empty(c.shape, dtype=complex)
    e.real, e.imag = cos[..., 1::2, None], sin[..., 1::2, None]
    se, mse = s * e, -s * e.conj()
    for idx, (i, j) in enumerate(itertools.combinations(range(d), 2)):
        col_i, col_j = U[..., i], U[..., j]
        new_i = c[..., idx, :] * col_i + se[..., idx, :] * col_j
        U[..., j] = mse[..., idx, :] * col_i + c[..., idx, :] * col_j
        U[..., i] = new_i
    return U


class _BudgetExhausted(Exception):
    """An evaluation was asked for past the budget; the search ends mid-step."""


def _simplex_search(simplex: np.ndarray, max_iterations: int, xatol: float, fatol: float):
    """Nelder-Mead from `simplex` ((n + 1) x n vertices), as a generator.

    Yields each point it wants evaluated and must be sent its value. Takes
    the steps of scipy's `minimize(method="Nelder-Mead")` with
    `initial_simplex`, `maxiter=max_iterations`, `maxfev=2*max_iterations`,
    `xatol`, `fatol` and `adaptive=(n > 12)`, in the same arithmetic and
    argsort order, so a run evaluates the same points bit for bit. Returns
    the lowest value evaluated, the point where it was first reached,
    whether the tolerances (not the budget) stopped the search, and the
    number of evaluations.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    # reflection coefficient 1 throughout; Gao-Han coefficients above 12 variables
    chi, psi, sigma = (1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n) if n > 12 else (2, 0.5, 0.5)
    evaluations, best_value, best_x = 0, math.inf, sim[0]

    def evaluate(x):
        nonlocal evaluations, best_value, best_x
        if evaluations >= 2 * max_iterations:
            raise _BudgetExhausted
        evaluations += 1
        x = x.copy()
        value = yield x
        if value < best_value:
            best_value, best_x = value, x
        return value

    def ordered(sim, fsim):
        ind = fsim.argsort()
        return sim.take(ind, 0), fsim.take(ind, 0)

    converged = False
    try:
        fsim = np.empty(n + 1)
        for k in range(n + 1):
            fsim[k] = yield from evaluate(sim[k])
        # sorted twice, as scipy does: argsort need not keep ties in place
        sim, fsim = ordered(*ordered(sim, fsim))
        iterations = 1
        while evaluations < 2 * max_iterations and iterations < max_iterations:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                converged = True
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = yield from evaluate(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = yield from evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = yield from evaluate(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = yield from evaluate(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = yield from evaluate(sim[j])
            iterations += 1
            sim, fsim = ordered(sim, fsim)
    except _BudgetExhausted:
        pass
    return best_value, best_x, converged, evaluations


def _lockstep(searches: list, evaluate) -> list:
    """Run `_simplex_search` generators side by side; returns their results in order.

    Each round stacks the pending points of the active searches and gets
    their values from one call of `evaluate(active, points)`; a search that
    returns leaves the batch.
    """
    results: list = [None] * len(searches)
    pending = {}

    def advance(i, value):
        try:
            pending[i] = searches[i].send(value)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        active = list(pending)
        values = evaluate(active, np.array([pending[i] for i in active]))
        for i, value in zip(active, values):
            advance(i, float(value))
    return results


def _nelder_mead(f, simplex: np.ndarray, max_iterations: int, xatol: float, fatol: float):
    """Minimize f from `simplex` by one `_simplex_search`; returns its first three results."""
    search = _simplex_search(simplex, max_iterations, xatol, fatol)
    (result,) = _lockstep([search], lambda _, points: [f(points[0])])
    return result[:3]


def _minimize_over_bases(rho: DensityMatrix, cfg: OptimizerConfig, value_of_blocks) -> OptimizerResult:
    """Multi-start simplex descent of a blocks functional over projective bases."""
    dB = rho.dims[1]
    if dB > MAX_MEASURED_DIM:
        raise ValueError(
            f"measured dimension {dB} exceeds the optimization envelope {MAX_MEASURED_DIM}"
        )
    r2 = _paired_b_indices(rho)
    eig_basis = hermitian_eigensystem(partial_trace(rho.matrix, rho.dims, "A")).eigenvectors
    bases = np.array([eig_basis] + [_haar_unitary(dB, np.random.default_rng([cfg.seed, r]))
                                     for r in range(1, cfg.restarts)])

    n = dB * (dB - 1)
    simplex = np.zeros((n + 1, n))
    simplex[1:] = np.eye(n) * _SIMPLEX_STEP
    searches = [_simplex_search(simplex, _MAX_ITERATIONS, cfg.step_tolerance, _OBJECTIVE_TOLERANCE)
                for _ in bases]
    results = _lockstep(searches, lambda active, x: value_of_blocks(
        _measurement_blocks(r2, _givens_basis(x, bases[active]))))
    values, points, converged, evaluations = zip(*results)
    best = values.index(min(values))
    return OptimizerResult(values[best], _givens_basis(points[best], bases[best]), values,
                           any(converged), evaluations)


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
    return float(_purity_loss(purity(rho.matrix), _blocks(rho, basis))[0])


def gd_numeric(rho: DensityMatrix, cfg: OptimizerConfig) -> float:
    """Geometric discord: d/(d-1) times the minimized purity loss."""
    result = _minimize_over_bases(rho, cfg, functools.partial(_purity_loss, purity(rho.matrix)))
    dB = rho.dims[1]
    return dB / (dB - 1.0) * result.value


def negativity_numeric(rho: DensityMatrix) -> float:
    """Normalized negativity 2/(d-1) |sum of negative eigenvalues of rho^Gamma|.

    Eigenvalues in [-1e-12, 0) are treated as zero.
    """
    dA, dB = rho.dims
    if dA != dB:
        raise ValueError("negativity is defined here for equal local dimensions")
    w = hermitian_eigensystem(partial_transpose(rho.matrix, rho.dims, "B")).eigenvalues
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
