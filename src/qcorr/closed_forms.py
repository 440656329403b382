"""Exact formulas for the correlation measures of both families.

Everything here is plain arithmetic on (d, lam) or (d, alpha, u): discord,
classical correlations, mutual information, entanglement of formation,
geometric discord, negativity, the large-d asymptotes, the separability
thresholds and the convexity certificate of the pseudo-pure discord (its
second derivative in alpha, in bits). No density matrices are built, so
large d costs O(d) memory and O(d) time; the one exception is the time of
pp_negativity, O(d log d) plus O(1) per negative partial-transpose block.
All entropic quantities are in bits; endpoint parameter values evaluate
term by term under the 0 * log 0 = 0 convention.

The mixing parameter (lam, or alpha in the parameter record) is a float or
a 1-D array of n values. A float gives a float; an array gives an array of
n values, each with the bits of the float call at that value. An array
call holds O(n d) memory, O(n) for the Werner forms; the CLI hands the
closed forms chunks of its grid sized by the Schmidt vector's length, so
that a sweep stays at O(d + chunk).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from .linalg import EVAL_ZERO_CUTOFF, _sum_xlog2
from .states import PseudoPureParams, WernerParams, _check_unit, validate_schmidt

LN2 = math.log(2.0)

# Negative partial-transpose blocks are counted only when strictly below
# this tie window; boundary pairs contribute exactly zero anyway.
NEGATIVITY_TIE_ATOL = 1e-14
SEPARABILITY_ATOL = 1e-12
# Most negativity terms held at once. Any leaf of >= _PAIRWISE_BLOCK terms,
# the block below which numpy's pairwise summation stops splitting, gives
# the same bits.
_SUM_LEAF = 1 << 16
_PAIRWISE_BLOCK = 128


def _out(x):
    """A float for a scalar parameter, the array itself for an array of them."""
    return float(x) if np.ndim(x) == 0 else x


def _plogq(p, q) -> np.ndarray:
    """p * log2(q) entry by entry, where a vanishing coefficient p (below
    1e-15) kills the log term. np.fromiter maps math.log2 over the live q
    one float at a time: np.log2 misses math.log2 by an ulp on a few inputs."""
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    live = p >= EVAL_ZERO_CUTOFF
    out = np.zeros(p.shape)
    logs = q[live].tolist()
    out[live] = p[live] * np.fromiter(map(math.log2, logs), float, count=len(logs))
    return out


def _xlog2(x) -> np.ndarray:
    """x * log2(x) with 0 * log 0 = 0."""
    return _plogq(x, x)


def _check_werner(d, lam) -> tuple[int, np.ndarray]:
    p = WernerParams(d, lam)
    return p.d, np.asarray(p.lam, dtype=float)


def binary_entropy(x):
    """Binary Shannon entropy H(x) = -x log2 x - (1-x) log2(1-x)."""
    _check_unit("binary entropy argument", x)
    x = np.asarray(x, dtype=float)
    return _out(-_xlog2(x) - _xlog2(1.0 - x))


# ---------------------------------------------------------------------------
# Werner family
# ---------------------------------------------------------------------------

def werner_joint_entropy(d: int, lam):
    """Entropy of the Werner state: lam on the antisymmetric subspace of
    dimension d(d-1)/2 and 1-lam on the symmetric one."""
    d, lam = _check_werner(d, lam)
    return _out(-_plogq(lam, 2.0 * lam / (d * (d - 1))) - _plogq(
        1.0 - lam, 2.0 * (1.0 - lam) / (d * (d + 1))
    ))


def werner_mutual_information(d: int, lam):
    """Mutual information 2 log2 d - S(rho); both marginals are maximally mixed."""
    d, lam = _check_werner(d, lam)
    return _out(
        math.log2(2.0 * d)
        + _plogq(lam, lam / (d - 1))
        + _plogq(1.0 - lam, (1.0 - lam) / (d + 1))
    )


def werner_measured_conditional_entropy(d: int, lam):
    """Average entropy of the conditional states after a rank-one
    measurement on one side; the value is the same for every basis."""
    d, lam = _check_werner(d, lam)
    big = 2.0 * (1.0 - lam) / (d + 1)
    rest = (d - 1.0 + 2.0 * lam) / (d + 1)
    return _out(-_plogq(big, big) - _plogq(rest, (d - 1.0 + 2.0 * lam) / (d * d - 1.0)))


def werner_discord(d: int, lam):
    """Quantum discord of the Werner state, in bits.

    Bounded by 1 for every d; vanishes exactly at lam = (d-1)/(2d), the
    totally mixed point.
    """
    d, lam = _check_werner(d, lam)
    return _out(
        math.log2(d + 1.0)
        + _plogq(lam, lam / (d - 1))
        + _plogq(1.0 - lam, (1.0 - lam) / (d + 1))
        - _plogq(2.0 * (1.0 - lam) / (d + 1), 1.0 - lam)
        - _plogq((d - 1.0 + 2.0 * lam) / (d + 1), (d - 1.0 + 2.0 * lam) / (2.0 * (d - 1)))
    )


def werner_classical_correlations(d: int, lam):
    """Classical correlations: mutual information minus discord."""
    return werner_mutual_information(d, lam) - werner_discord(d, lam)


def werner_discord_asymptote(lam):
    """Large-d limit of the Werner discord: 1 - H(lam)."""
    _check_unit("lam", lam)
    return 1.0 - binary_entropy(lam)


def werner_eof(lam):
    """Entanglement of formation of the Werner state, independent of d.

    Zero on the separable range lam <= 1/2; above it the closed form
    reduces to H(1/2 - sqrt(lam(1-lam))).
    """
    _check_unit("lam", lam)
    lam = np.asarray(lam, dtype=float)
    root = np.sqrt(lam * (1.0 - lam))
    lo = 0.5 - root
    hi = 0.5 + root
    return _out(np.where(lam <= 0.5, 0.0, 1.0 - _plogq(lo, 2.0 * lo) - _plogq(hi, 2.0 * hi)))


def werner_separable(lam):
    """Separability of the Werner family: lam <= 1/2, boundary included."""
    _check_unit("lam", lam)
    return lam <= 0.5


# ---------------------------------------------------------------------------
# Pseudo-pure family
# ---------------------------------------------------------------------------

def pp_discord(p: PseudoPureParams):
    """Quantum discord of the pseudo-pure state, in bits.

    Vanishes at alpha = 1/d^2 (white noise only) and equals the reduced
    entropy of the pure part at alpha = 1.
    """
    d, a, beta = p.d, np.asarray(p.alpha, dtype=float), np.asarray(p.beta, dtype=float)
    w = beta[..., None] + p.schmidt**2 * (a - beta)[..., None]
    return _out(_xlog2(a) + _plogq((1.0 - a) / (d + 1.0), beta) - _sum_xlog2(w))


def pp_joint_entropy(p: PseudoPureParams):
    """Entropy of the two-level spectrum {alpha; beta x (d^2-1)}."""
    a = np.asarray(p.alpha, dtype=float)
    return _out(-_xlog2(a) - _plogq(1.0 - a, p.beta))


def pp_marginal_entropy(p: PseudoPureParams):
    """Entropy of either reduced state (both sides are identical)."""
    a, beta = np.asarray(p.alpha, dtype=float), np.asarray(p.beta, dtype=float)
    q = p.d * beta[..., None] + p.schmidt**2 * (a - beta)[..., None]
    return _out(-_sum_xlog2(q))


def pp_mutual_information(p: PseudoPureParams):
    """Mutual information: twice the marginal entropy minus the joint."""
    return 2.0 * pp_marginal_entropy(p) - pp_joint_entropy(p)


def pp_classical_correlations(p: PseudoPureParams):
    """Classical correlations: mutual information minus discord."""
    return pp_mutual_information(p) - pp_discord(p)


def pp_discord_asymptote(alpha, u):
    """Large-d limit of the pseudo-pure discord: alpha times the reduced
    entropy of the pure part (+0.0, not -0.0, for a product vector)."""
    _check_unit("alpha", alpha)
    probs = validate_schmidt(u) ** 2
    return _out(0.0 - np.asarray(alpha, dtype=float) * _sum_xlog2(probs))


def pp_second_derivative(p: PseudoPureParams):
    """Second derivative of the discord with respect to alpha, in bits
    (the convexity certificate; strictly positive).

    Matches finite differences of pp_discord. Singular at alpha in {0, 1}.
    """
    d, a = p.d, np.asarray(p.alpha, dtype=float)
    if not ((0.0 < a) & (a < 1.0)).all():
        raise ValueError("second derivative requires alpha strictly inside (0, 1)")
    u2 = p.schmidt**2
    numer = (d * d * u2 - 1.0) ** 2
    denom = (d * d - 1.0) * (1.0 - u2 + a[..., None] * (d * d * u2 - 1.0))
    return _out((1.0 / a + 1.0 / ((1.0 - a) * (1.0 + d)) - (numer / denom).sum(axis=-1)) / LN2)


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


def pp_gd(p: PseudoPureParams):
    """Geometric discord of the pseudo-pure state: the pure-state value
    scaled by ((alpha d^2 - 1)/(d^2 - 1))^2; convex in alpha, zero at 1/d^2."""
    d = p.d
    scale = (np.asarray(p.alpha, dtype=float) * d * d - 1.0) / (d * d - 1.0)
    return _out(scale * scale * pure_gd(p.schmidt))


def _tree_sum(leaf, start: int, n: int, width: int):
    """Sum of the terms [start, start + n) that leaf(start, stop) returns as
    the last axis of an array, added in the order of numpy's pairwise
    summation.

    np.sum splits a contiguous float64 row into halves rounded down to a
    multiple of 8 until a part is short enough to sum directly, so splitting
    the same way down to leaves of at most `width` terms and summing each
    leaf with ndarray.sum gives np.sum's bits without holding all the terms.
    """
    if n <= width:
        return leaf(start, start + n).sum(axis=-1)
    half = n // 2 - n // 2 % 8
    return (_tree_sum(leaf, start, half, width)
            + _tree_sum(leaf, start + half, n - half, width))


def pp_negativity(p: PseudoPureParams):
    """Negativity of the pseudo-pure state from its partial-transpose blocks.

    Sums the pair blocks beta - (alpha - beta) u_i u_j (i < j) that are
    strictly negative (within a 1e-14 tie window), in row-major pair order,
    and normalizes by 1/(d-1). Memory is O(d) per alpha; time is
    O(d log d) per alpha plus O(1) per negative block.
    """
    d, u = p.d, p.schmidt
    a = np.asarray(p.alpha, dtype=float)
    alphas, betas = a.reshape(-1, 1), np.reshape(p.beta, (-1, 1))
    # u descends and rounding is monotone, so the negative blocks of row i
    # are its prefix i < j < end[i]; bisect for end[i] on the same test,
    # for every (alpha, row) at once.
    first_col = np.arange(1, d + 1)
    end, hi = np.broadcast_to(first_col, (alphas.size, d)), np.full((alphas.size, d), d)
    while (live := end < hi).any():
        mid = (end + hi) // 2
        negative = (betas - (alphas - betas) * (u * u[np.minimum(mid, d - 1)])
                    ) < -NEGATIVITY_TIE_ATOL
        end = np.where(live & negative, mid + 1, end)
        hi = np.where(live & ~negative, mid, hi)
    # alphas with equal counts per row sum the same pairs, so they share leaves
    counts_of = end - first_col
    groups: dict[bytes, list[int]] = {}
    for i, counts in enumerate(counts_of):
        groups.setdefault(counts.tobytes(), []).append(i)
    total = np.zeros(alphas.size)
    for members in groups.values():
        # row i holds the flat terms [bounds[i], bounds[i + 1]); flat term k
        # of row i is the pair (i, k - bounds[i] + i + 1)
        bounds = [0, *np.cumsum(counts_of[members[0]]).tolist()]
        if not bounds[-1]:
            continue
        scale, offset = alphas[members] * d * d - 1.0, 1.0 - alphas[members]
        # every leaf is written into the same two buffers: a fresh (group, width)
        # array per leaf made a d = 8000 call 3 to 4 times slower (page faults)
        width = max(_PAIRWISE_BLOCK, _SUM_LEAF // len(members))
        prod_buf, term_buf = np.empty(width), np.empty(len(members) * width)

        def terms(first: int, last: int) -> np.ndarray:
            # each row's products u_i u_j of the terms [first, last), in place
            n = last - first
            for i in range(bisect_right(bounds, first) - 1, bisect_left(bounds, last)):
                lo, hi = max(first, bounds[i]), min(last, bounds[i + 1])
                j = lo - bounds[i] + i + 1
                np.multiply(u[i], u[j:j + hi - lo], out=prod_buf[lo - first:hi - first])
            leaf = term_buf[:n * len(members)].reshape(len(members), n)
            np.multiply(prod_buf[:n], scale, out=leaf)
            return np.subtract(leaf, offset, out=leaf)

        total[members] = _tree_sum(terms, 0, bounds[-1], width)
    return _out((2.0 * total / ((d - 1.0) ** 2 * (d + 1.0))).reshape(a.shape))


def pp_separability_threshold(p: PseudoPureParams) -> float:
    """Largest alpha at which the pseudo-pure state is still separable."""
    prod = float(p.schmidt[0] * p.schmidt[1])
    return (1.0 + prod) / (1.0 + prod * p.d**2)


def pp_separable(p: PseudoPureParams):
    """Separability: alpha <= (1 + u1 u2) / (1 + u1 u2 d^2), boundary included."""
    return p.alpha <= pp_separability_threshold(p) + SEPARABILITY_ATOL
