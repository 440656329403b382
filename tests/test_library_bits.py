"""The library's low-level rules, pinned to the bit.

Each digest is the SHA-256 of the raw float64 or complex128 bytes a helper
returns on fixed inputs, signs of zero included: the Schmidt vectors of
random_schmidt_vector, the spectral entropy of entropy_of_spectrum, the
bipartite views of partial_trace and partial_transpose, and the outcome
normalization of _ce_of_blocks and conditional_ensemble. The CLI's golden
digests see 12 significant digits only, so these are what show a change in
the last bits of a shared helper. The digests were recorded with Python 3.11
and numpy 2.4 on x86-64; the ones that go through eigh or a matmul depend on
the LAPACK and BLAS build, and they are the same with BLAS on one thread and
on its default thread count.
"""

import hashlib

import numpy as np

from conftest import random_density
from qcorr import oracle
from qcorr.linalg import (
    entropy_of_spectrum,
    partial_trace,
    partial_transpose,
    purity,
    von_neumann_entropy,
)
from qcorr.states import (
    DensityMatrix,
    PseudoPureParams,
    WernerParams,
    build_pseudo_pure,
    build_werner,
    normalized_schmidt,
    random_schmidt_vector,
    random_unitaries,
)


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()


def _spectra():
    """Spectra of lengths 1-80: a random one, the same with zeros and with 1e-16
    entries mixed in, a pure one, and one with nothing above the zero cutoff."""
    rng = np.random.default_rng(2024)
    for n in range(1, 81):
        w = rng.exponential(size=n)
        w /= w.sum()
        yield w
        yield np.concatenate([w, np.zeros(n % 7 + 1)])[rng.permutation(n + n % 7 + 1)]
        tiny = np.where(rng.uniform(size=n) < 0.3, 1e-16, w)
        yield tiny / tiny.sum()
        pure = np.zeros(n)
        pure[rng.integers(n)] = 1.0
        yield pure
        yield np.full(n, 1e-16)


def _states():
    """Fixed states and the bases each is measured in, with outcomes at or below
    ZERO_PROBABILITY among them: of probability 0, and of about 5e-15, whose
    block has an eigenvalue above the zero cutoff."""
    rng = np.random.default_rng(7)
    states = [
        build_werner(WernerParams(3, 0.8)),
        build_pseudo_pure(PseudoPureParams(4, 0.6, random_schmidt_vector(4, 3))),
        build_pseudo_pure(PseudoPureParams(2, 1.0, np.array([1.0, 0.0]))),
        build_pseudo_pure(PseudoPureParams(2, 1.0, normalized_schmidt([1.0, 7e-8]))),
        DensityMatrix(random_density(12, rng), (3, 4)),
        DensityMatrix(random_density(12, rng), (4, 3)),
    ]
    for rho in states:
        dB = rho.dims[1]
        turn = np.eye(dB)  # turns the first two vectors by 3e-8 rad: a dropped block off the diagonal
        turn[:2, :2] = [[np.cos(3e-8), -np.sin(3e-8)], [np.sin(3e-8), np.cos(3e-8)]]
        yield rho, np.concatenate([np.eye(dB)[None], turn[None],
                                   random_unitaries(dB, [[dB, r] for r in range(3)])])


def _kernels(rho):
    """The kernels of the discord and the gd search on `rho`."""
    rho_purity = purity(rho.matrix)
    return oracle._ce_of_blocks, lambda tau: oracle._purity_loss(rho_purity, tau)


def _search_states(d: int, rng):
    """A generic and a pseudo-pure state at d, and a product state sigma (x) |0><0|."""
    return (DensityMatrix(random_density(d * d, rng), (d, d)),
            build_pseudo_pure(PseudoPureParams(d, 0.6, random_schmidt_vector(d, 40 + d))),
            DensityMatrix(np.kron(random_density(d, rng), np.diag(np.eye(d)[0])), (d, d)))


class TestLibraryBits:
    def test_random_schmidt_vector(self):
        vectors = (random_schmidt_vector(d, seed)
                   for d in range(2, 65) for seed in (0, 1, 7, 123, 2**40 + 5))
        assert _digest(vectors) == (
            "5b138c435be6ca2105229259b432e834f30abafc91b17777bb85a6f3fcd73a4c")

    def test_entropy_of_spectrum(self):
        values = np.array([entropy_of_spectrum(w) for w in _spectra()])
        assert _digest([values]) == (
            "0fe97c77ee335201163e260528e28acba6d0d6f66b6c2447e1a62d430eebbe2c")

    def test_density_matrix_entropy(self):
        # the S(rho) a DensityMatrix keeps is the one von_neumann_entropy returns, to the bit
        rng = np.random.default_rng(19)
        states = [rho for rho, _ in _states()]
        states += [rho for d in range(2, 9) for rho in _search_states(d, rng)]
        for rho in states:
            assert np.float64(rho.entropy).tobytes() == (
                np.float64(von_neumann_entropy(rho.matrix)).tobytes())

    def test_partial_trace_and_transpose(self):
        rng = np.random.default_rng(11)
        matrices = [(random_density(12, rng), (3, 4)), (random_density(12, rng), (4, 3)),
                    (random_density(9, rng), (3, 3)), (build_werner(WernerParams(2, 0.7)).matrix, (2, 2)),
                    (rng.standard_normal((6, 6)), (2, 3))]
        outputs = (op(M, dims, side) for M, dims in matrices
                   for op in (partial_trace, partial_transpose) for side in ("A", "B"))
        assert _digest(outputs) == (
            "9f55e7b809c0d3dedf35b2e8770853d7f9d693caea983b5c85f9dbc376412ae6")

    def test_ce_of_blocks(self):
        outputs = []
        for rho, bases in _states():
            value, G, (V, L, c) = oracle._ce_of_blocks(
                oracle._measurement_blocks(oracle._paired_b_indices(rho), bases)[0])
            outputs += [value, G, V, L, c]
        assert _digest(outputs) == (
            "b293363fbc7af7ca9193f8d67aa6003f228131c97c466d22bcfd66d500897930")

    def test_conditional_ensemble(self):
        outputs = []
        for rho, bases in _states():
            for basis in bases:
                ensemble = oracle.conditional_ensemble(rho, basis)
                outputs += [ensemble.probabilities, *ensemble.conditional_states]
        assert _digest(outputs) == (
            "a3f020dd7d500146c07b8d843c8c0d7895ee968d383fa63de5cd2b0aa1f8c29e")

    def test_hessian(self):
        # the product state's outcomes 1.. drop in the standard basis, which is measured too
        rng = np.random.default_rng(13)
        outputs = []
        for d in range(2, 9):
            haar = random_unitaries(d, [[d, 100 + r] for r in range(5)])
            for rho in _search_states(d, rng):
                bases = np.concatenate([haar, np.eye(d, dtype=complex)[None]])
                r2 = oracle._paired_b_indices(rho)
                for kernel in _kernels(rho):
                    outputs.append(oracle._hessian(
                        bases, oracle._value_and_gradient(r2, bases, kernel)[2]))
        assert _digest(outputs) == (
            "d3c4544e8dc38a88d6db889c0cd0fbd3f93b73a629eac52f07d697c1e41b5fcd")

    def test_basis_search(self):
        # 48 searches of 4 restarts: per restart the value, the evaluations, and the argmin
        # basis and the converged flag of the best
        rng = np.random.default_rng(17)
        outputs = []
        for d in range(2, 8):
            for rho in _search_states(d, rng)[:2]:
                for kernel in _kernels(rho):
                    for seed in (0, 5):
                        result = oracle._minimize_over_bases(
                            rho, oracle.OptimizerConfig(restarts=4, seed=seed), kernel)
                        outputs += [np.array(result.per_restart_values),
                                    np.array(result.evaluations, dtype=np.int64), result.argmin_basis,
                                    np.array([result.converged], dtype=bool)]
        assert _digest(outputs) == (
            "4c55e013eed85c52f38185fefd519606ff5e14156a9d45d1dd42261f9dca601e")
