"""Dense complex linear algebra for bipartite density matrices.

Hermitian eigendecomposition, partial trace, partial transpose, entropies
and purity, all with explicit numerical tolerances. Entropies are reported
in bits throughout the package (a single convention, not an option), with
0 * log 0 = 0 enforced by zeroing eigenvalues below 1e-15.

Matrices are plain complex numpy arrays; a bipartite operator of local
dimensions (dA, dB) lives on a square array of side dA * dB with row-major
(A-major) index ordering. Dense double precision only. ENVELOPE holds every
memory limit of the package, the largest matrix side among them, and
check_envelope is the one check of each.
"""

from __future__ import annotations

import numpy as np

# Shared tolerances. Hermiticity is checked relative to the largest entry;
# state eigenvalues may dip to -1e-10 from floating-point noise and are
# clipped to zero, anything lower is rejected as a construction bug rather
# than silently masked.
HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-9
EVAL_NEG_TOL = 1e-10
EVAL_ZERO_CUTOFF = 1e-15

# The envelope: row -> the largest size a request may ask of it. Each row is checked
# by check_envelope before the work it bounds: no state is built or file written first.
ENVELOPE = {
    # of a dense complex matrix, 256 MiB at this side; building and checking a state peaks
    # at about 3 times the matrix: the matrix and the two temporaries of require_hermitian
    "state side": 4096,
    "measured dimension": 8,  # of the basis search's side
    "grid points": 10**6,  # of a sweep or oracle-compare grid
    # R dB^2 dA^2, the entries of each complex table the basis search holds for R restarts:
    # a search peaks at 120-180 B per entry (d = 2-8), so 256 B per entry keeps it in 1 GiB
    "basis search entries": 2**30 // 256,
    # the closed forms hold a Schmidt vector at about 42 B per entry at their peak (figure
    # fig6 at d = 10^7: 421 MB), so 2**30 // 42 entries keep them in 1 GiB
    "Schmidt vector length": 2**30 // 42,
}


def _as_square(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    check_envelope("state side", A.shape[0])
    return A


def check_envelope(row: str, size) -> None:
    """Raise ValueError if `size` exceeds the ENVELOPE limit of `row`; the message
    names the row, the size (in scientific form past 15 digits) and the limit."""
    if size > ENVELOPE[row]:
        from decimal import Decimal  # formats an int too large for a float, on this path only
        shown = f"{Decimal(size):.3e}" if size >= 10**15 else int(size)
        raise ValueError(f"{row} {shown} exceeds the envelope {ENVELOPE[row]}")


def require_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Return M as a square complex array, or raise if it is not Hermitian.

    The check is relative: max|M - M^dag| <= 1e-12 * max|M|.
    """
    A = _as_square(M, name)
    scale = np.abs(A).max() if A.size else 0.0
    if np.abs(A - A.conj().T).max() > HERMITICITY_RTOL * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return A


def check_bipartite_dims(A: np.ndarray, dims) -> tuple[int, int]:
    """Validate (dimA, dimB) against the side length of A."""
    try:
        dA, dB = dims
    except (TypeError, ValueError):
        raise ValueError(f"dims must be a (dimA, dimB) pair, got {dims!r}") from None
    dA, dB = int(dA), int(dB)
    if dA < 2 or dB < 2:
        raise ValueError(f"local dimensions must be >= 2, got ({dA}, {dB})")
    if A.shape[0] != dA * dB:
        raise ValueError(
            f"matrix side {A.shape[0]} does not match dimA*dimB = {dA * dB}"
        )
    return dA, dB


def hermitian_eigensystem(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of a Hermitian matrix.

    Returns ascending eigenvalues w and orthonormal eigenvector columns V;
    deterministic up to rotations inside degenerate subspaces.
    """
    w, V = np.linalg.eigh(require_hermitian(M))
    return w, V


def _bipartite_view(rho, dims, side) -> np.ndarray:
    """A validated bipartite operator as its (dA, dB, dA, dB) view, for a `side`
    of "A" or "B"."""
    A = _as_square(rho, "state")
    dA, dB = check_bipartite_dims(A, dims)
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return A.reshape(dA, dB, dA, dB)


def partial_trace(rho, dims, side: str) -> np.ndarray:
    """Trace out subsystem `side` ("A" or "B") of a bipartite operator.

    partial_trace(rho, (dA, dB), "B") returns the reduced operator on A,
    of side dA; tracing over "A" returns the reduced operator on B.
    """
    r4 = _bipartite_view(rho, dims, side)
    return np.einsum("abcb->ac" if side == "B" else "abad->bd", r4)


def partial_transpose(rho, dims, side: str) -> np.ndarray:
    """Transpose subsystem `side` of a bipartite operator.

    Preserves Hermiticity and trace; applying it twice on the same side
    returns the input exactly (it is an index permutation).
    """
    r4 = _bipartite_view(rho, dims, side)
    n = r4.shape[0] * r4.shape[1]
    out = r4.transpose((0, 3, 2, 1) if side == "B" else (2, 1, 0, 3))
    return np.ascontiguousarray(out).reshape(n, n)


def _sum_xlog2(w: np.ndarray) -> np.ndarray:
    """sum_i w_i log2 w_i along the last axis, over the entries above the
    zero cutoff.

    numpy sums each contiguous row pairwise, as it sums a 1-D array, so a row
    with every entry above the cutoff is summed in place; a row with one at
    or below it is filtered and summed on its own.
    """
    rows = w.reshape(-1, w.shape[-1])
    full = (rows > EVAL_ZERO_CUTOFF).all(axis=1)
    out = np.empty(len(rows))
    out[full] = (rows[full] * np.log2(rows[full])).sum(axis=-1)
    for i in np.flatnonzero(~full):
        kept = rows[i][rows[i] > EVAL_ZERO_CUTOFF]
        out[i] = (kept * np.log2(kept)).sum()
    return out.reshape(w.shape[:-1])


def entropy_of_spectrum(eigenvalues) -> float:
    """Shannon entropy in bits of a spectrum, with 0 * log 0 = 0.

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything lower raises,
    since a more negative value signals an invalid state rather than noise.
    """
    w = np.asarray(eigenvalues, dtype=float).ravel()
    if w.size and w.min() < -EVAL_NEG_TOL:
        raise ValueError(
            f"spectrum has eigenvalue {w.min():.3e} below -{EVAL_NEG_TOL:g}; not a state"
        )
    w = w[w > EVAL_ZERO_CUTOFF]
    return float(-_sum_xlog2(w)) if w.size else 0.0


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -tr(rho log2 rho) in bits of a density matrix."""
    A = require_hermitian(rho, "state")
    if abs(A.trace() - 1.0) > TRACE_ATOL:
        raise ValueError(f"state must have unit trace, got {A.trace():.12g}")
    return entropy_of_spectrum(np.linalg.eigvalsh(A))


def purity(rho) -> float:
    """tr(rho^2) of a square matrix (real part; imaginary residue ~1e-12)."""
    A = _as_square(rho, "state")
    return float(np.einsum("ij,ji->", A, A).real)
