"""Constructors and validators for the state families under study.

Werner states are the U (x) U invariant mixtures of the normalized
symmetric and antisymmetric projectors on C^d (x) C^d, weighted by the
antisymmetric fraction `lam`. Pseudo-pure states mix a pure Schmidt state
with white noise; isotropic states are the special case of a maximally
entangled pure component. Schmidt vectors are amplitudes (not
probabilities): nonnegative, descending, with squares summing to one.

Also provides seeded Haar-random unitaries and Schmidt vectors for tests,
ensemble sweeps and optimizer restarts; every sampler owns a generator
derived from its seed, so outputs are reproducible bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    _as_square,
    check_bipartite_dims,
    check_envelope,
    von_neumann_entropy,
)

SCHMIDT_NORM_ATOL = 1e-9


def _check_dimension(d) -> int:
    """d as an int, or raise unless it is an integer >= 2 whose Werner products
    d(d +- 1), which the closed forms divide by, are finite floats."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"local dimension must be an integer >= 2, got {d!r}")
    d = int(d)
    if d * (d + 1) > sys.float_info.max:
        raise ValueError("local dimension too large: d(d+1) exceeds the float maximum")
    return d


def _check_unit(name: str, value) -> None:
    """Raise unless `value`, a float or an array, lies in [0, 1] throughout;
    `name` leads the error message, which quotes the first value outside."""
    values = np.ravel(value)
    outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {float(values[outside[0]])!r}")


def _weight(name: str, value):
    """A validated mixing weight: a scalar as given, or a 1-D float array."""
    if np.ndim(value):
        value = np.asarray(value, dtype=float)
        if value.ndim != 1:
            raise ValueError(f"{name} must be a float or a 1-D array")
    _check_unit(name, value)
    return value


def _amplitudes(values, d: int | None = None) -> np.ndarray:
    """Raw amplitudes as a flat float vector: at least two, finite and nonnegative."""
    u = np.asarray(values, dtype=float).ravel()
    if d is not None and u.size != d:
        raise ValueError(f"Schmidt vector has length {u.size}, expected {d}")
    if u.size < 2:
        raise ValueError("Schmidt vector needs at least two entries")
    if not np.isfinite(u).all():
        raise ValueError("Schmidt amplitudes must be finite")
    if np.any(u < 0.0):
        raise ValueError("Schmidt amplitudes must be nonnegative")
    return u


def validate_schmidt(u, d: int | None = None) -> np.ndarray:
    """Validate a Schmidt amplitude vector: finite, nonnegative, descending,
    unit sum of squares."""
    u = _amplitudes(u, d)
    if np.any(np.diff(u) > 0.0):
        raise ValueError("Schmidt amplitudes must be in descending order")
    norm2 = float((u**2).sum())
    if abs(norm2 - 1.0) > SCHMIDT_NORM_ATOL:
        raise ValueError(f"Schmidt amplitudes must satisfy sum u_i^2 = 1, got {norm2:.12g}")
    return u


def normalized_schmidt(values) -> np.ndarray:
    """Rescale and sort raw nonnegative amplitudes into a valid Schmidt vector.

    Opt-in helper (used by the CLI --normalize flag and random_schmidt_vector);
    out-of-tolerance input is otherwise rejected rather than silently fixed.
    """
    u = _amplitudes(values)
    u = np.ldexp(u, -np.frexp(u.max())[1])  # exact rescale: the norm cannot over- or underflow
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise ValueError("Schmidt amplitudes must not all vanish")
    return np.sort(u / norm)[::-1].copy()


@dataclass(frozen=True)
class WernerParams:
    """Dimension d >= 2 and antisymmetric weight lam in [0, 1]: a float, or a
    1-D array holding one weight per state."""

    d: int
    lam: float | np.ndarray

    def __post_init__(self):
        _check_dimension(self.d)
        object.__setattr__(self, "lam", _weight("lam", self.lam))


@dataclass(frozen=True)
class PseudoPureParams:
    """Dimension d, pure-state weight alpha in [0, 1] and Schmidt vector.

    alpha is a float, or a 1-D array holding one weight per state (all with
    the same d and Schmidt vector). It may go below 1/d^2 (noise weight beta
    exceeding alpha); the formulas cover the full range.
    """

    d: int
    alpha: float | np.ndarray
    schmidt: np.ndarray

    def __post_init__(self):
        _check_dimension(self.d)
        object.__setattr__(self, "alpha", _weight("alpha", self.alpha))
        object.__setattr__(self, "schmidt", validate_schmidt(self.schmidt, self.d))

    @property
    def beta(self) -> float | np.ndarray:
        """Weight of each of the d^2 - 1 noise eigenvectors, one per alpha."""
        return (1.0 - self.alpha) / (self.d**2 - 1)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated bipartite density matrix with recorded local dimensions.

    The checks run in this order: shape and side (linalg._as_square), then the
    dims against the side, then linalg.von_neumann_entropy, the one state rule
    (Hermitian, unit trace, no eigenvalue below -1e-10). So the full matrix is
    checked for Hermiticity once, and a dims error comes before any eigensolve.
    `entropy` keeps the rule's result, S(rho) in bits, so that no measure
    eigensolves the full state again.
    """

    matrix: np.ndarray
    dims: tuple[int, int]
    entropy: float = field(init=False)

    def __post_init__(self):
        A = _as_square(self.matrix, "state")
        object.__setattr__(self, "dims", check_bipartite_dims(A, self.dims))
        object.__setattr__(self, "entropy", von_neumann_entropy(A))
        object.__setattr__(self, "matrix", A)


def flip_operator(d: int) -> np.ndarray:
    """The swap F with F (x (x) y) = y (x) x on C^d (x) C^d."""
    d = _check_dimension(d)
    check_envelope("state side", d * d)
    eye = np.eye(d)
    return np.einsum("ad,bc->abcd", eye, eye).reshape(d * d, d * d).astype(complex)


def symmetric_antisymmetric_projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (I + F)/2 and (I - F)/2 onto the symmetric and
    antisymmetric subspaces, of ranks d(d+1)/2 and d(d-1)/2."""
    F = flip_operator(d)
    eye = np.eye(d * d, dtype=complex)
    return (eye + F) / 2.0, (eye - F) / 2.0


def build_werner(p: WernerParams) -> DensityMatrix:
    """Werner state: the `lam`-weighted mixture of the normalized
    antisymmetric projector with the normalized symmetric projector.

    tr(rho Pi^-) equals lam, and the state is U (x) U invariant. With weights
    sym and anti on the projectors (I + F)/2 and (I - F)/2, rho is written in
    place: sym/2 + anti/2 on the diagonal, sym/2 - anti/2 on the swap entries
    (|ij>, |ji>), and sym on the |ii> diagonal, where I and F meet; every
    other entry is zero. Each entry has the bits of the projector sum.
    """
    d = p.d
    check_envelope("state side", d * d)
    sym, anti = 2.0 * (1.0 - p.lam) / (d * (d + 1)), 2.0 * p.lam / (d * (d - 1))
    rho = np.diag(np.full(d * d, sym * 0.5 + anti * 0.5, dtype=complex))
    i, j = np.divmod(np.arange(d * d), d)
    rho[i * d + j, j * d + i] = np.where(i == j, sym, sym * 0.5 - anti * 0.5)
    return DensityMatrix(rho, (d, d))


def schmidt_state_vector(u) -> np.ndarray:
    """The pure state sum_i u_i |ii> as a flat vector of length d^2."""
    u = validate_schmidt(u)
    d = u.size
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = u
    return psi


def build_pseudo_pure(p: PseudoPureParams) -> DensityMatrix:
    """Pseudo-pure state: alpha |psi><psi| + beta (I - |psi><psi|).

    The spectrum is {alpha} once and {beta} with multiplicity d^2 - 1. psi
    lives on the |ii> entries, so rho is written in place: beta on the
    diagonal, then the d x d block alpha P + beta (I_d - P), with P the outer
    product of the Schmidt vector, on the rows and columns of the |ii>; every
    other entry is zero. Each entry has the bits of the full-matrix expression.
    """
    check_envelope("state side", p.d**2)
    P = np.outer(p.schmidt, p.schmidt).astype(complex)
    rho = np.diag(np.full(p.d**2, p.beta, dtype=complex))
    rho[:: p.d + 1, :: p.d + 1] = p.alpha * P + p.beta * (np.eye(p.d, dtype=complex) - P)
    return DensityMatrix(rho, (p.d, p.d))


def isotropic_params(d: int, alpha: float) -> PseudoPureParams:
    """Parameter record of the isotropic state (uniform Schmidt vector)."""
    d = _check_dimension(d)
    check_envelope("Schmidt vector length", d)
    return PseudoPureParams(d, alpha, np.full(d, 1.0 / np.sqrt(d)))


def random_unitaries(d: int, seeds) -> np.ndarray:
    """Seeded Haar-random d x d unitaries, one per entry of `seeds`, as an (R, d, d) stack.

    Each seed is anything np.random.default_rng accepts and draws its own
    complex Ginibre matrix; one stacked QR turns them into the unitaries,
    each the Q of its matrix with the R-diagonal phases folded into its
    columns. Equal seeds give equal unitaries at any position in the stack.
    """
    d = _check_dimension(d)
    Z = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        Z.append((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0))
    Q, R = np.linalg.qr(np.array(Z))
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[..., None, :]


def random_unitary(d: int, seed) -> np.ndarray:
    """Seeded Haar-random d x d unitary: the one-element stack of random_unitaries."""
    return random_unitaries(d, [seed])[0]


def random_schmidt_vector(d: int, seed: int) -> np.ndarray:
    """Seeded random Schmidt vector: the absolute values of d independent
    standard complex Gaussians, normalized and sorted descending."""
    d = _check_dimension(d)
    check_envelope("Schmidt vector length", d)
    rng = np.random.default_rng(seed)
    return normalized_schmidt(np.abs(rng.standard_normal(d) + 1j * rng.standard_normal(d)))
