import numpy as np
import pytest

from orthograph._linalg import (
    canonical_unit_vector,
    hermitian_part,
    lambda_max_hermitian,
    opnorm,
    orthonormal_complement,
    psd_sqrt,
    sigma_max,
)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_lambda_max_matches_lapack(k, rng):
    a = rng.normal(size=(300, k, k)) + 1j * rng.normal(size=(300, k, k))
    h = hermitian_part(a)
    got = lambda_max_hermitian(h)
    want = np.linalg.eigvalsh(h)[:, -1]
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())


def test_lambda_max_degenerate_cases():
    stacks = [
        np.zeros((4, 3, 3)),
        np.stack([np.eye(3)] * 4),
        np.stack([np.diag([2.0, 2.0, 2.0])] * 2),
        np.stack([np.diag([1.0, 1.0, -5.0])] * 2),
    ]
    for h in stacks:
        got = lambda_max_hermitian(h.astype(complex))
        want = np.linalg.eigvalsh(h)[:, -1]
        assert np.allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sigma_max_matches_svd(k, rng):
    m = rng.normal(size=(200, k, k)) + 1j * rng.normal(size=(200, k, k))
    got = sigma_max(m)
    want = np.linalg.svd(m, compute_uv=False)[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, want.max())


def test_opnorm_empty_and_plain(rng):
    m = rng.normal(size=(3, 3))
    assert opnorm(m) == pytest.approx(np.linalg.norm(m, 2))


def test_psd_sqrt_truncates_noise(rng):
    # exact projections squared must come back bit-clean despite eigenvalue
    # noise at 1e-16 (sqrt is not Lipschitz at zero)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    p = np.outer(v, v.conj())
    assert opnorm(psd_sqrt(p @ p.conj().T) - p) <= 1e-12

    h = np.diag([4.0, 1.0, 0.0])
    assert np.allclose(psd_sqrt(h.astype(complex)), np.diag([2.0, 1.0, 0.0]), atol=1e-13)


def test_canonical_unit_vector_convention(rng):
    # full space: lowest coordinate axis wins
    v = canonical_unit_vector(np.eye(3, dtype=complex))
    assert np.allclose(v, [1.0, 0.0, 0.0])

    # subspace not seen by e1: picks the projection of the first axis with a
    # nonzero component and rotates its phase to be real positive
    basis = np.zeros((3, 1), dtype=complex)
    basis[1, 0] = 1j
    v = canonical_unit_vector(basis)
    assert v[0] == 0.0
    assert v[1] == pytest.approx(1.0)

    # invariant under unitary re-parametrization of the same subspace
    q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    v1 = canonical_unit_vector(q)
    v2 = canonical_unit_vector(q * phase)
    assert np.allclose(v1, v2, atol=1e-12)


def test_orthonormal_complement(rng):
    vs = [np.eye(4, dtype=complex)[:, 0], np.eye(4, dtype=complex)[:, 2]]
    comp = orthonormal_complement(vs, 4)
    assert comp.shape == (4, 2)
    for v in vs:
        assert np.max(np.abs(comp.conj().T @ v)) <= 1e-12

    # dependent input vectors are handled
    comp = orthonormal_complement([vs[0], 2.0 * vs[0]], 4)
    assert comp.shape == (4, 3)

    full = orthonormal_complement([], 3)
    assert full.shape == (3, 3)


def test_opnorm_is_numpy_spectral_norm_bit_for_bit(rng):
    # the graph JSON of a fixed seed depends on these bits
    for n in (1, 2, 3, 4, 5, 8):
        for _ in range(20):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert opnorm(m) == float(np.linalg.norm(m, 2))
