"""Low-level ndarray helpers.

Everything here works on plain complex ndarrays; the Element-level API lives
in :mod:`orthograph.algebra`.  The batched largest-eigenvalue routines use
closed forms for 1x1/2x2/3x3 Hermitian matrices because the brute-force
orthogonality oracle evaluates tens of thousands of tiny operator norms per
query and batched LAPACK calls dominate its runtime otherwise.
"""

import numpy as np


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def lambda_max_hermitian(h: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of a stack ``(..., k, k)`` of Hermitian matrices.

    Closed forms for k <= 3, batched ``eigvalsh`` beyond.
    """
    k = h.shape[-1]
    if k == 1:
        return h[..., 0, 0].real
    if k == 2:
        a = h[..., 0, 0].real
        c = h[..., 1, 1].real
        b = h[..., 0, 1]
        half = 0.5 * (a - c)
        return 0.5 * (a + c) + np.sqrt(half * half + (b * b.conj()).real)
    if k == 3:
        return _lambda_max_herm3(h)
    return np.linalg.eigvalsh(h)[..., -1]


def _lambda_max_herm3(h: np.ndarray) -> np.ndarray:
    # trigonometric solution of the characteristic cubic (Smith's method)
    a = h[..., 0, 0].real
    b = h[..., 1, 1].real
    c = h[..., 2, 2].real
    d = h[..., 0, 1]
    e = h[..., 1, 2]
    f = h[..., 0, 2]
    dd = (d * d.conj()).real
    ee = (e * e.conj()).real
    ff = (f * f.conj()).real
    q = (a + b + c) / 3.0
    p2 = (a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2.0 * (dd + ee + ff)
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe_p = np.where(p > 0, p, 1.0)
    ba = (a - q) / safe_p
    bb = (b - q) / safe_p
    bc = (c - q) / safe_p
    bd = d / safe_p
    be = e / safe_p
    bf = f / safe_p
    # det of the shifted/scaled Hermitian matrix (real by symmetry)
    det = (
        ba * (bb * bc - (be * be.conj()).real)
        - (bd.conj() * (bd * bc - bf * be.conj())).real
        + (bf.conj() * (bd * be - bf * bb)).real
    )
    r = np.clip(det / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam = q + 2.0 * p * np.cos(phi)
    return np.where(p2 > 0, lam, q)


def sigma_max(m: np.ndarray) -> np.ndarray:
    """Largest singular value of a stack ``(..., n, n)`` of complex matrices."""
    gram = m.conj().swapaxes(-1, -2) @ m
    lam = lambda_max_hermitian(hermitian_part(gram))
    return np.sqrt(np.maximum(lam, 0.0))


def opnorm(m: np.ndarray) -> float:
    """Accurate operator (spectral) norm of a single matrix: the largest
    singular value, as ``np.linalg.norm(m, 2)`` computes it, without that
    wrapper's per-call axis handling."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Positive square root of a Hermitian PSD matrix.

    Eigenvalues below machine-precision scale are zeroed first: the square
    root is not Lipschitz at 0, so noise-level eigenvalues would otherwise
    blow up to ~1e-8 artifacts."""
    w, u = np.linalg.eigh(hermitian_part(h))
    cut = max(w[-1], 0.0) * h.shape[-1] * np.finfo(float).eps
    w = np.where(w > cut, w, 0.0)
    w = np.sqrt(w)
    return (u * w) @ u.conj().T


def canonical_unit_vector(basis: np.ndarray, cutoff: float = 1e-6) -> np.ndarray:
    """Deterministic unit vector in the column span of ``basis`` (n x k).

    Picks the normalized projection of the lowest-index coordinate axis with
    a nonzero component in the span, then rotates the phase so that the first
    coordinate of magnitude > cutoff is real positive.  Reproducible across
    runs and BLAS builds up to eigenvector sign conventions of the caller.
    """
    n = basis.shape[0]
    gram = basis @ basis.conj().T
    for i in range(n):
        w = gram[:, i]
        nw = np.linalg.norm(w)
        if nw > cutoff:
            v = w / nw
            for j in range(n):
                if abs(v[j]) > 1e-8:
                    return v * (v[j].conj() / abs(v[j]))
            return v
    raise ValueError("basis spans nothing above the cutoff")


def orthonormal_complement(vectors: list[np.ndarray], n: int) -> np.ndarray:
    """Orthonormal basis (n x k) of the orthogonal complement of ``vectors``."""
    if not vectors:
        return np.eye(n, dtype=complex)
    a = np.stack(vectors, axis=1).astype(complex)
    q, r = np.linalg.qr(a)
    keep = np.abs(np.diag(r)) > 1e-12
    q = q[:, keep]
    proj = np.eye(n, dtype=complex) - q @ q.conj().T
    u, s, _ = np.linalg.svd(proj)
    k = int(np.sum(s > 0.5))
    return u[:, :k]


def rank_one(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())
