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
along the d(d-1) off-diagonal skew-Hermitian generators of _generators
(column phases do not change a measurement), their analytic Hessian, a step
along the eigenvectors of the real symmetric Hessian scaled by the inverse
absolute eigenvalues, and an exponential retraction, until the gradient or
the accepted step is within _STEP_TOLERANCE. A step's first trial rotates the
basis by at most pi, the injectivity radius of the exponential (Absil,
Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
ch. 4 and 7), and the line search halves it from there. The Hessian adds
the second derivative of the basis and the cross terms of the blocks to
each kernel's second derivative in its blocks; for the conditional entropy
that is the Daleckii-Krein form, the divided differences of log2 on each
block's eigensystem. It is built from the blocks, kernel data and gradient
matrix that the evaluation of the accepted basis already computed, so it
evaluates neither the blocks nor the kernel again. A generator E_m moves
only two columns of a basis U, each to a multiple of another:
U E_m e_k = c u_o for a nonzero E_m[o, k] = c. So every term is read from
one table of off-diagonal blocks tau_ok = <u_o|rho|u_k>, operators on A:
the moved block is dtau_km = conj(c) tau_ok + h.c., the cross terms are
conj(c_m) c_l tr(G_k tau_oo'), the basis term reads A at (o, o'), and the
kernel term needs one rotation V_k^dagger tau_ok V_k per block, not one per
generator; the Hessian is batched array operations and one np.bincount.
The restarts' Haar starts come from one stacked QR, and the search runs in
rounds: each evaluates every restart's pending trial in one batched call
over a stack of bases, and a restart's result does not depend on the rows
it shares a call with.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import closed_forms
from .linalg import (
    EVAL_ZERO_CUTOFF,
    check_envelope,
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
    random_unitaries,
)

ZERO_PROBABILITY = 1e-14
BASIS_ORTHONORMALITY_ATOL = 1e-10
DEGENERACY_GAP_ATOL = 1e-10

OPTIMAL_BASIS_GAP_TOL = 1e-6
COMMUTATOR_NORM_TOL = 1e-8
CONJECTURE_GAP_TOL = 1e-10

_MAX_ITERATIONS = 100  # Newton steps per restart
_STEP_TOLERANCE = 1e-10  # stop below this gradient or accepted-step size
_CURVATURE_FLOOR = 1e-8  # relative to the largest |eigenvalue| of the Hessian
# Largest Frobenius norm of a first trial rotation X. The spectral norm of X is at
# most its Frobenius norm, so no trial turns the basis by an angle above pi, the
# injectivity radius of exp: beyond it exp(X) wraps around, and a trial there is
# only rejected and halved again.
_MAX_ROTATION = math.pi


@dataclass(frozen=True)
class OptimizerConfig:
    """Restarts and seed of the basis minimizations; every restart stops on _STEP_TOLERANCE."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def _outcomes(tau: np.ndarray):
    """The outcome probabilities p_k = tr tau_k of a stack of blocks, the mask of
    those above ZERO_PROBABILITY, and the blocks tau_k / p_k; a dropped outcome's
    block is divided by 1."""
    p = np.einsum("...kaa->...k", tau).real
    keep = p > ZERO_PROBABILITY
    return p, keep, tau / np.where(keep, p, 1.0)[..., None, None]


def _ce_of_blocks(tau: np.ndarray):
    """Average conditional entropy sum_k p_k S(tau_k / p_k) in bits, per basis.

    Also returns the derivative weights G_k = -log2(tau_k / p_k), with
    d(value) = sum_k tr(G_k dtau_k), and the second-order data (V, L, c) of
    each block: d^2(value) = sum_k sum_ij L_k,ij (V_k^dagger H_k V_k)_ij
    conj(V_k^dagger H'_k V_k)_ij + c_k tr H_k tr H'_k for block derivatives H, H'.
    Dropped outcomes get G_k = 0, L_k = 0 and c_k = 0.
    """
    p, keep, blocks = _outcomes(tau)
    w, V = np.linalg.eigh(blocks)  # one eigensolve covers every block, dropped ones included
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
    dA = rho.dims[0]
    p, keep, blocks = _outcomes(_blocks(rho, basis)[0])
    states = np.where(keep[:, None, None], (blocks + blocks.conj().swapaxes(1, 2)) / 2.0,
                      np.eye(dA) / dA)
    return ConditionalEnsemble(p, tuple(states))


def measured_conditional_entropy(rho: DensityMatrix, basis) -> float:
    """sum_k p_k S(rho^A_k) for a measurement of side B in `basis`, in bits."""
    return float(_ce_of_blocks(_blocks(rho, basis))[0][0])


@functools.cache
def _generators(d: int) -> np.ndarray:
    """The read-only (d(d-1), d, d) stack of the off-diagonal skew-Hermitian generators
    E_m of U(d), the coordinates of the basis search: for the pairs i < j in
    np.triu_indices order, first the real ones e_i e_j^T - e_j e_i^T, then the
    imaginary ones i (e_i e_j^T + e_j e_i^T)."""
    i, j = np.triu_indices(d, 1)
    m = np.arange(i.size)
    E = np.zeros((2, i.size, d, d), dtype=complex)
    E[0, m, i, j], E[0, m, j, i] = 1.0, -1.0
    E[1, m, i, j] = E[1, m, j, i] = 1j
    E = E.reshape(-1, d, d)
    E.flags.writeable = False
    return E


def _skew(s: np.ndarray, d: int) -> np.ndarray:
    """sum_m s_m E_m, a d x d skew-Hermitian matrix, for each row s of coefficients."""
    return (s @ _generators(d).reshape(-1, d * d)).reshape(-1, d, d)


@functools.cache
def _hessian_plan(d: int):
    """Where _hessian places the entries 2 Re(conj(c) c' N1 + conj(c) conj(c') N2).

    Row k of the (d, 2(d-1)) table (m, o, c) lists the nonzeros E_m[o, k] = c
    of the _generators, so that U E_m e_k = c u_o. For the entries (m, o, c),
    (l, o', c') of row k, H_ml adds N1 and N2 at [k, o, o'] times 2 conj(c) c'
    and 2 conj(c) conj(c'), each one of +-2 and +-2i, so every product is exact.
    Returns the table in row order, k ascending, as four read-only flat arrays:
    the indices into the n x n H and into the (d, d, d) N1 and N2, and the two
    coefficients; np.bincount adds an H_ml's at most two entries in that order.
    """
    E = _generators(d)
    k, m, o = (x.reshape(d, 2 * (d - 1)) for x in np.nonzero(E.transpose(2, 0, 1)))
    c = E[m, o, k]
    plan = tuple(table.ravel() for table in (
        m[:, :, None] * len(E) + m[:, None, :],
        (k[:, :, None] * d + o[:, :, None]) * d + o[:, None, :],
        2.0 * c.conj()[:, :, None] * c[:, None, :],
        2.0 * c.conj()[:, :, None] * c.conj()[:, None, :]))
    for table in plan:
        table.flags.writeable = False
    return plan


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
    """Objective values at the stack of bases U, their gradients along the generators,
    and the derivative data (products, G, V, L, c, A) that _hessian takes at U.

    products come from _measurement_blocks, G and (V, L, c) from the kernel
    `value_of_blocks`, and A from _gradient_matrix; the derivative along
    U -> U exp(t E_m) is g_m = 2 Re tr(A^dagger E_m).
    """
    tau, products = _measurement_blocks(r2, U)
    value, G, (V, L, c) = value_of_blocks(tau)
    A = _gradient_matrix(U, G, products)
    E = _generators(U.shape[1])
    g = 2.0 * (A.reshape(len(A), -1) @ E.reshape(len(E), -1).conj().T).real
    return value, g, (products, G, V, L, c, A)


def _hessian(U: np.ndarray, data) -> np.ndarray:
    """Hessians H_ml = d/dt d/ds f(U exp(t E_m) exp(s E_l)) at 0, per basis of the stack U.

    `data` is the derivative data _value_and_gradient returned at U, so the
    blocks and the kernel are not evaluated again. With u_k = U e_k and
    T(x, y)[a,c] = sum_bd conj(x_b) rho[(a,b),(c,d)] y_d, every term comes from
    the table tau_ok = T(u_o, u_k) of off-diagonal blocks, one matmul of
    U^dagger with `products`; the blocks of the measurement are tau_kk.
    Generator m of _generators moves u_k to U E_m e_k = c u_o, with (m, o, c)
    an entry of row k of _hessian_plan's table, so tau_kk moves by
    dtau_km = conj(c) tau_ok + h.c., whose trace is 2 Re(conj(c) tr tau_ok).
    H_ml sums over the outcomes k that both m and l move, with (o, c) and
    (o', c') their entries in row k:
    - 2 Re(conj(c) c' tr(G_k tau_oo')), the cross term of the two first-order
      moves of u_k;
    - 2 Re tr((E_m E_l)^dagger A), the second derivative of the basis; E_m
      has two nonzero rows, and its terms are -2 Re(conj(c) c' A[o, o']);
    - the kernel's second derivative, sum_ab L_k,ab (V_k^dagger dtau_km V_k)_ab
      conj(V_k^dagger dtau_kl V_k)_ab + c_k tr dtau_km tr dtau_kl. With
      Y_o = V_k^dagger tau_ok V_k (two matmuls per outcome over the stacked
      blocks) and symmetric L, its first part is 2 Re(conj(c) c' G1[o, o'] +
      conj(c) conj(c') G2[o, o']) for the L-weighted Gram matrices G1 of the
      Y_o with their conjugates and G2 with their transposes, and its trace
      part has the same form.
    So every entry is 2 Re(conj(c) c' N1 + conj(c) conj(c') N2) for two
    d x d matrices N1, N2 per outcome; one bincount places all in plan order.

    Known edge: at a basis where an outcome's probability is at or below
    ZERO_PROBABILITY, the conditional entropy is not twice differentiable, and
    the Hessian leaves that outcome's term out (_ce_of_blocks gives it G_k = 0,
    L_k = 0 and c_k = 0); the purity loss, a polynomial in the blocks, keeps
    its Hessian. test_every_restart_converges_where_outcomes_drop covers the
    search there.
    """
    products, G, V, L, c, A = data
    R, dB, dA = G.shape[:3]
    n = dB * (dB - 1)
    # tau[r, k, o] = tau_ok, flattened over (a, c)
    tau = U.conj().swapaxes(1, 2)[:, None] @ products.transpose(0, 3, 2, 1)
    traces = np.einsum("rkoaa->rko", tau.reshape(R, dB, dB, dA, dA))
    cross = G.swapaxes(-1, -2).reshape(R, dB, dA * dA) @ tau.reshape(R, dB * dB, dA * dA).swapaxes(1, 2)
    cross = cross.reshape(R, dB, dB, dB).swapaxes(-1, -2) - A[:, None]  # [r, k, o, o']
    # Yt[r, k, o] = Y_o^T; each table of the size of tau is freed once used, so that the
    # Gram's operands (three such tables) set the peak memory
    Yt = tau.reshape(R, dB, dB * dA, dA) @ V
    del tau
    Yt = np.ascontiguousarray(Yt.reshape(R, dB, dB, dA, dA).swapaxes(-1, -2))
    Yt = (Yt.reshape(R, dB, dB * dA, dA) @ V.conj()).reshape(R, dB, dB, dA, dA)
    weighted = (L[:, :, None] * Yt).reshape(R, dB, dB, dA * dA)
    both = np.empty((R, dB, 2 * dB, dA, dA), dtype=complex)
    np.conjugate(Yt, out=both[:, :, :dB])
    both[:, :, dB:] = Yt.swapaxes(-1, -2)
    del Yt
    gram = weighted @ both.reshape(R, dB, 2 * dB, dA * dA).swapaxes(-1, -2)
    del weighted, both
    scaled = c[..., None, None] * traces[..., :, None]
    N1 = (cross + gram[..., :dB] + scaled * traces.conj()[..., None, :]).reshape(R, -1)
    N2 = (gram[..., dB:] + scaled * traces[..., None, :]).reshape(R, -1)
    dest, src, a1, a2 = _hessian_plan(dB)
    entries = (a1 * N1[:, src] + a2 * N2[:, src]).real  # summed per H_ml in the plan's order
    return np.bincount((np.arange(R)[:, None] * n * n + dest).ravel(), entries.ravel(),
                       R * n * n).reshape(R, n, n)


def _newton_descent(U: np.ndarray, r2: np.ndarray, value_of_blocks):
    """Saddle-free Newton descent on U(d) from each basis of the stack U.

    r2 comes from _paired_b_indices and `value_of_blocks` is the kernel
    _value_and_gradient takes. Every restart takes the step -V |Lambda|^-1 V^T g
    from the eigensystem of its symmetrised Hessian, first tries it scaled by
    t = min(1, _MAX_ROTATION / ||X||_F) for X = _skew(step), and halves t until
    the value decreases. It stops when its gradient or its accepted step is
    within _STEP_TOLERANCE, when no decrease is found, or after _MAX_ITERATIONS
    steps. The search runs in rounds of one batched evaluation of every
    pending trial: a restart whose trial lowered its value moves there and, if
    it goes on, takes its next step from the gradient and the Hessian of that
    evaluation's data in the next round; one whose trial failed tries again
    with t halved. So no derivative data outlives its round. Returns the final
    values and bases, the basis evaluations per restart (the start, one Hessian
    per step and the line-search trials), and whether each restart stopped in
    fewer than _MAX_ITERATIONS steps.
    """
    U = np.array(U, dtype=complex)
    R, d = U.shape[:2]
    value, g, data = _value_and_gradient(r2, U, value_of_blocks)
    evaluations, steps = np.ones(R, dtype=int), np.zeros(R, dtype=int)
    step, t = np.zeros((R, d * (d - 1))), np.zeros(R)
    rows, go = np.arange(R), np.abs(g).max(axis=1) > _STEP_TOLERANCE
    failed = np.zeros(0, dtype=int)
    while go.any() or failed.size:
        a = rows[go]  # the restarts that step from the last evaluation
        if a.size:
            H = _hessian(U[a], [x[go] for x in data])
            evaluations[a] += 1
            steps[a] += 1
            lam, V = np.linalg.eigh((H + H.swapaxes(1, 2)) / 2.0)
            curvature = np.abs(lam)
            curvature = np.maximum(curvature, _CURVATURE_FLOOR * curvature.max(axis=1, keepdims=True))
            projected = V.swapaxes(1, 2) @ g[go, :, None]
            step[a] = -(V @ (projected / curvature[..., None]))[..., 0]
            norms = np.linalg.norm(_skew(step[a], d), axis=(1, 2))
            t[a] = _MAX_ROTATION / np.maximum(norms, _MAX_ROTATION)
        rows = np.concatenate([failed, a])
        trial = U[rows] @ _expm(_skew(t[rows, None] * step[rows], d))
        trial_value, g, data = _value_and_gradient(r2, trial, value_of_blocks)
        evaluations[rows] += 1
        better = trial_value < value[rows]
        small = t[rows] * np.abs(step[rows]).max(axis=1) <= _STEP_TOLERANCE
        U[rows[better]], value[rows[better]] = trial[better], trial_value[better]
        go = better & ~small & (np.abs(g).max(axis=1) > _STEP_TOLERANCE) & (steps[rows] < _MAX_ITERATIONS)
        failed = rows[~better & ~small]
        t[failed] /= 2.0
    return value, U, evaluations, steps < _MAX_ITERATIONS


def check_search(dims, cfg: OptimizerConfig) -> None:
    """Raise the envelope's error for a search of cfg.restarts bases on side B of a
    state of local dimensions dims = (dA, dB), before any start is drawn: the measured
    dimension dB, then the R dB^2 dA^2 entries of each table the search holds."""
    check_envelope("measured dimension", dims[1])
    check_envelope("basis search entries", cfg.restarts * dims[1]**2 * dims[0]**2)


def _minimize_over_bases(rho: DensityMatrix, cfg: OptimizerConfig, value_of_blocks) -> OptimizerResult:
    """Multi-start Newton descent of a blocks functional over projective bases."""
    check_search(rho.dims, cfg)
    bases = random_unitaries(rho.dims[1], [[cfg.seed, r] for r in range(cfg.restarts)])
    values, bases, evaluations, converged = _newton_descent(
        bases, _paired_b_indices(rho), value_of_blocks)
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
    return s_b - rho.entropy + minimize_conditional_entropy(rho, cfg).value


def mutual_information_numeric(rho: DensityMatrix) -> float:
    """S(rho^A) + S(rho^B) - S(rho) from the eigensystems."""
    s_a = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "B"))
    s_b = von_neumann_entropy(partial_trace(rho.matrix, rho.dims, "A"))
    return s_a + s_b - rho.entropy


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
    # rho^Gamma is an index permutation of rho, so it is Hermitian exactly when rho
    # is, and DensityMatrix checked that: eigh gets the array unchecked
    w, _ = np.linalg.eigh(partial_transpose(rho.matrix, rho.dims, "B"))
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

    states = np.array(conditional_ensemble(rho, evecs).conditional_states)
    products = states[:, None] @ states[None]  # [i, j] = S_i S_j
    max_comm = float(np.linalg.norm(products - products.swapaxes(0, 1), axis=(2, 3)).max())

    passed = gap <= OPTIMAL_BASIS_GAP_TOL and max_comm <= COMMUTATOR_NORM_TOL
    if degenerate:
        passed = passed and offdiag <= COMMUTATOR_NORM_TOL
    return OptimalMeasurementReport(gap, max_comm, degenerate, offdiag, passed, opt)


@dataclass(frozen=True)
class ConjectureReport:
    """Result of a geometric-discord vs squared-negativity ensemble sweep; the
    CLI prints the fields as JSON keys in this order."""

    samples: int
    min_gap: float
    violations: int
    worst_case: PseudoPureParams
    checked: int = 0
    max_gd_gap: float = 0.0
    max_negativity_gap: float = 0.0


def conjecture_sweep(samples: int, d_range: tuple[int, int], seed: int) -> ConjectureReport:
    """Sample pseudo-pure states and check gd >= negativity^2.

    Draws d uniformly in d_range, alpha uniformly in [0, 1] and a Haar
    Schmidt vector per sample; evaluates the closed forms for every sample
    and additionally cross-checks the matrix-based pair on a deterministic
    5% subset (every 20th sample whose d is at most 8). That bound is fixed, not
    the measured-dimension envelope, so that raising the envelope moves no report.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cross_check = OptimizerConfig(restarts=4, seed=seed)
    cross_check_dmax = 8
    dmin, dmax = int(d_range[0]), int(d_range[1])
    if not 2 <= dmin <= dmax < 2**63 - 1:  # d is drawn as an int64 below dmax + 1
        raise ValueError(f"need 2 <= dmin <= dmax < 2**63 - 1, got ({dmin}, {dmax})")
    check_envelope("Schmidt vector length", dmax)

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
        if index % 20 == 0 and d <= cross_check_dmax:
            rho = build_pseudo_pure(params)
            cfg = replace(cross_check, seed=int(np.random.SeedSequence([seed, index]).generate_state(1)[0]))
            max_gd_gap = max(max_gd_gap, abs(gd_numeric(rho, cfg) - gd))
            max_neg_gap = max(max_neg_gap, abs(negativity_numeric(rho) - neg))
            checked += 1
    return ConjectureReport(
        samples=samples,
        min_gap=min_gap,
        violations=violations,
        worst_case=worst,
        checked=checked,
        max_gd_gap=max_gd_gap,
        max_negativity_gap=max_neg_gap,
    )
