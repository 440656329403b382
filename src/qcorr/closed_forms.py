"""Exact scalar formulas for the correlation measures of both families.

Everything here is plain arithmetic on (d, lam) or (d, alpha, u): discord,
classical correlations, mutual information, entanglement of formation,
geometric discord, negativity, the large-d asymptotes, the separability
thresholds and the convexity certificate of the pseudo-pure discord (its
second derivative in alpha, in bits). No density matrices are built, so
large d costs O(d) memory and O(d) time; the one exception is the time of
pp_negativity, O(d log d) plus O(1) per negative partial-transpose block.
All entropic quantities are in bits; endpoint parameter values evaluate
term by term under the 0 * log 0 = 0 convention.
"""

from __future__ import annotations

import math

import numpy as np

from .states import PseudoPureParams, WernerParams, _check_unit, validate_schmidt

LN2 = math.log(2.0)
_ZERO = 1e-15

# Negative partial-transpose blocks are counted only when strictly below
# this tie window; boundary pairs contribute exactly zero anyway.
NEGATIVITY_TIE_ATOL = 1e-14
SEPARABILITY_ATOL = 1e-12
# Most negativity terms held at once. Any value >= 128, the block below
# which numpy's pairwise summation stops splitting, gives the same bits.
_SUM_LEAF = 1 << 16


def _xlog2(x: float) -> float:
    """x * log2(x) with 0 * log 0 = 0 (coefficients below 1e-15 kill the term)."""
    if x < _ZERO:
        return 0.0
    return x * math.log2(x)


def _plogq(p: float, q: float) -> float:
    """p * log2(q), where a vanishing coefficient p kills the log term."""
    if p < _ZERO:
        return 0.0
    return p * math.log2(q)


def _sum_xlog2(w: np.ndarray) -> float:
    """sum_i w_i log2 w_i over the entries above the zero cutoff."""
    w = w[w > _ZERO]
    if not w.size:
        return 0.0
    return float((w * np.log2(w)).sum())


def _check_werner(d, lam) -> tuple[int, float]:
    p = WernerParams(d, float(lam))
    return p.d, p.lam


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H(x) = -x log2 x - (1-x) log2(1-x)."""
    _check_unit("binary entropy argument", x)
    return -_xlog2(x) - _xlog2(1.0 - x)


# ---------------------------------------------------------------------------
# Werner family
# ---------------------------------------------------------------------------

def werner_joint_entropy(d: int, lam: float) -> float:
    """Entropy of the Werner state: lam on the antisymmetric subspace of
    dimension d(d-1)/2 and 1-lam on the symmetric one."""
    d, lam = _check_werner(d, lam)
    return -_plogq(lam, 2.0 * lam / (d * (d - 1))) - _plogq(
        1.0 - lam, 2.0 * (1.0 - lam) / (d * (d + 1))
    )


def werner_mutual_information(d: int, lam: float) -> float:
    """Mutual information 2 log2 d - S(rho); both marginals are maximally mixed."""
    d, lam = _check_werner(d, lam)
    return (
        math.log2(2.0 * d)
        + _plogq(lam, lam / (d - 1))
        + _plogq(1.0 - lam, (1.0 - lam) / (d + 1))
    )


def werner_measured_conditional_entropy(d: int, lam: float) -> float:
    """Average entropy of the conditional states after a rank-one
    measurement on one side; the value is the same for every basis."""
    d, lam = _check_werner(d, lam)
    big = 2.0 * (1.0 - lam) / (d + 1)
    rest = (d - 1.0 + 2.0 * lam) / (d + 1)
    return -_plogq(big, big) - _plogq(rest, (d - 1.0 + 2.0 * lam) / (d * d - 1.0))


def werner_discord(d: int, lam: float) -> float:
    """Quantum discord of the Werner state, in bits.

    Bounded by 1 for every d; vanishes exactly at lam = (d-1)/(2d), the
    totally mixed point.
    """
    d, lam = _check_werner(d, lam)
    return (
        math.log2(d + 1.0)
        + _plogq(lam, lam / (d - 1))
        + _plogq(1.0 - lam, (1.0 - lam) / (d + 1))
        - _plogq(2.0 * (1.0 - lam) / (d + 1), 1.0 - lam)
        - _plogq((d - 1.0 + 2.0 * lam) / (d + 1), (d - 1.0 + 2.0 * lam) / (2.0 * (d - 1)))
    )


def werner_classical_correlations(d: int, lam: float) -> float:
    """Classical correlations: mutual information minus discord."""
    return werner_mutual_information(d, lam) - werner_discord(d, lam)


def werner_discord_asymptote(lam: float) -> float:
    """Large-d limit of the Werner discord: 1 - H(lam)."""
    _check_unit("lam", lam)
    return 1.0 - binary_entropy(lam)


def werner_eof(lam: float) -> float:
    """Entanglement of formation of the Werner state, independent of d.

    Zero on the separable range lam <= 1/2; above it the closed form
    reduces to H(1/2 - sqrt(lam(1-lam))).
    """
    _check_unit("lam", lam)
    if lam <= 0.5:
        return 0.0
    root = math.sqrt(lam * (1.0 - lam))
    lo = 0.5 - root
    hi = 0.5 + root
    return 1.0 - _plogq(lo, 2.0 * lo) - _plogq(hi, 2.0 * hi)


def werner_separable(lam: float) -> bool:
    """Separability of the Werner family: lam <= 1/2, boundary included."""
    _check_unit("lam", lam)
    return lam <= 0.5


# ---------------------------------------------------------------------------
# Pseudo-pure family
# ---------------------------------------------------------------------------

def pp_discord(p: PseudoPureParams) -> float:
    """Quantum discord of the pseudo-pure state, in bits.

    Vanishes at alpha = 1/d^2 (white noise only) and equals the reduced
    entropy of the pure part at alpha = 1.
    """
    d, a = p.d, p.alpha
    w = p.beta + p.schmidt**2 * (a - p.beta)
    return _xlog2(a) + _plogq((1.0 - a) / (d + 1.0), p.beta) - _sum_xlog2(w)


def pp_joint_entropy(p: PseudoPureParams) -> float:
    """Entropy of the two-level spectrum {alpha; beta x (d^2-1)}."""
    return -_xlog2(p.alpha) - _plogq(1.0 - p.alpha, p.beta)


def pp_marginal_entropy(p: PseudoPureParams) -> float:
    """Entropy of either reduced state (both sides are identical)."""
    q = p.d * p.beta + p.schmidt**2 * (p.alpha - p.beta)
    return -_sum_xlog2(q)


def pp_mutual_information(p: PseudoPureParams) -> float:
    """Mutual information: twice the marginal entropy minus the joint."""
    return 2.0 * pp_marginal_entropy(p) - pp_joint_entropy(p)


def pp_classical_correlations(p: PseudoPureParams) -> float:
    """Classical correlations: mutual information minus discord."""
    return pp_mutual_information(p) - pp_discord(p)


def pp_discord_asymptote(alpha: float, u) -> float:
    """Large-d limit of the pseudo-pure discord: alpha times the reduced
    entropy of the pure part."""
    _check_unit("alpha", alpha)
    probs = validate_schmidt(u) ** 2
    return alpha * (-_sum_xlog2(probs))


def pp_second_derivative(p: PseudoPureParams) -> float:
    """Second derivative of the discord with respect to alpha, in bits
    (the convexity certificate; strictly positive).

    Matches finite differences of pp_discord. Singular at alpha in {0, 1}.
    """
    d, a = p.d, p.alpha
    if not 0.0 < a < 1.0:
        raise ValueError("second derivative requires alpha strictly inside (0, 1)")
    u2 = p.schmidt**2
    numer = (d * d * u2 - 1.0) ** 2
    denom = (d * d - 1.0) * (1.0 - u2 + a * (d * d * u2 - 1.0))
    return float(1.0 / a + 1.0 / ((1.0 - a) * (1.0 + d)) - (numer / denom).sum()) / LN2


def pure_gd(u) -> float:
    """Geometric discord of the pure Schmidt state: d/(d-1) (1 - sum u_i^4).

    Zero exactly for product states, one exactly for the uniform vector.
    """
    u = validate_schmidt(u)
    d = u.size
    return d / (d - 1.0) * (1.0 - float((u**4).sum()))


def pure_negativity(u) -> float:
    """Negativity of the pure Schmidt state: 2/(d-1) sum_{i<j} u_i u_j."""
    u = validate_schmidt(u)
    d = u.size
    cross = (float(u.sum()) ** 2 - 1.0) / 2.0
    return 2.0 * cross / (d - 1.0)


def pp_gd(p: PseudoPureParams) -> float:
    """Geometric discord of the pseudo-pure state: the pure-state value
    scaled by ((alpha d^2 - 1)/(d^2 - 1))^2; convex in alpha, zero at 1/d^2."""
    d = p.d
    scale = (p.alpha * d * d - 1.0) / (d * d - 1.0)
    return scale * scale * pure_gd(p.schmidt)


def _tree_sum(leaf, start: int, n: int):
    """Sum of the terms [start, start + n) that leaf(start, stop) returns as an
    array, added in the order of numpy's pairwise summation.

    np.sum splits a contiguous float64 array into halves rounded down to a
    multiple of 8 until a part is short enough to sum directly, so splitting
    the same way down to leaves of _SUM_LEAF terms and summing each leaf
    with ndarray.sum gives np.sum's bits without holding all the terms.
    """
    if n <= _SUM_LEAF:
        return leaf(start, start + n).sum()
    half = n // 2 - n // 2 % 8
    return _tree_sum(leaf, start, half) + _tree_sum(leaf, start + half, n - half)


def pp_negativity(p: PseudoPureParams) -> float:
    """Negativity of the pseudo-pure state from its partial-transpose blocks.

    Sums the pair blocks beta - (alpha - beta) u_i u_j (i < j) that are
    strictly negative (within a 1e-14 tie window), in row-major pair order,
    and normalizes by 1/(d-1). Memory is O(d); time is O(d log d) plus
    O(1) per negative block.
    """
    d, a = p.d, p.alpha
    u, beta = p.schmidt, p.beta
    # u descends and rounding is monotone, so the negative blocks of row i
    # are its prefix i < j < end[i]; bisect for end[i] on the same test.
    first_col = np.arange(1, d + 1)
    end, hi = first_col, np.full(d, d)
    while (live := end < hi).any():
        mid = (end + hi) // 2
        negative = (beta - (a - beta) * (u * u[np.minimum(mid, d - 1)])) < -NEGATIVITY_TIE_ATOL
        end = np.where(live & negative, mid + 1, end)
        hi = np.where(live & ~negative, mid, hi)
    counts = end - first_col
    stops = np.cumsum(counts)
    if not stops[-1]:
        return 0.0
    starts = stops - counts
    shift = first_col - starts  # flat term k of row i is the pair (i, k + shift[i])

    def terms(first: int, last: int) -> np.ndarray:
        rows = range(np.searchsorted(stops, first, "right"), np.searchsorted(starts, last))
        prods = [u[i] * u[max(first, starts[i]) + shift[i]:min(last, stops[i]) + shift[i]]
                 for i in rows]
        return np.concatenate(prods) * (a * d * d - 1.0) - (1.0 - a)

    total = float(_tree_sum(terms, 0, int(stops[-1])))
    return 2.0 * total / ((d - 1.0) ** 2 * (d + 1.0))


def pp_separability_threshold(p: PseudoPureParams) -> float:
    """Largest alpha at which the pseudo-pure state is still separable."""
    prod = float(p.schmidt[0] * p.schmidt[1])
    return (1.0 + prod) / (1.0 + prod * p.d**2)


def pp_separable(p: PseudoPureParams) -> bool:
    """Separability: alpha <= (1 + u1 u2) / (1 + u1 u2 d^2), boundary included."""
    return p.alpha <= pp_separability_threshold(p) + SEPARABILITY_ATOL
