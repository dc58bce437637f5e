"""Birkhoff-James orthogonality decisions with machine-checkable certificates.

An element x is BJ-orthogonal to y when no scalar multiple of y can lower the
norm: ||x + lam y|| >= ||x|| for every complex lam.  The strong, module-style
variant quantifies over algebra elements instead of scalars, and reduces
exactly to the scalar form against the direction b b* a.  Mutual strong
orthogonality of two elements is the edge relation of the orthogonality graph.

Decision procedure (scalar form, both inputs normalized):

1. Compress x* y to the norm-attaining subspace of x (eigenvalues of x*x
   within ``tol.eig`` of the top).  x is orthogonal to y exactly when 0 lies
   in the numerical range of that compression T; by convexity this holds iff
   the support functional f = min over theta of lambda_max(Re(e^{i theta} T))
   is nonnegative.
2. If f is safely positive, report True with margin f and a witness vector.
3. Otherwise the verdict is governed by the achievable relative norm drop
   delta = 1 - min over lam of ||x + lam y|| / ||x||: True iff
   delta <= tol.orth.  Drops within a factor of two of the tolerance are
   reported as indeterminate (the tie band) rather than forced to a verdict.
   Two proven bounds skip the minimizer (proofs in ``_decide``).  Fast true:
   delta <= tol.eig + 2.2|f|, so f >= -1e-9 gives True.  Fast false, taken
   only when no certificate is asked: with g = 1 - sigma_next/sigma_1 the
   relative gap below the attaining cluster, delta >= est =
   1 - sqrt(1 - f^2 g (4 + g) / 16), so est > 2.2*tol.orth gives False.
   Otherwise a certified search finds the minimum: it keeps a lower bound
   as it goes and stops once the best value is within 1e-13 of it, or at a
   derived step cap.  The plain form searches the lam-plane by the
   central-cut ellipsoid method, the strong form the real segment
   lam in [-2, 0] by a bracket search (below).

The margins of the three regimes are arranged so that |margin| <= 2*tol.orth
is exactly the indeterminate band: clean interior decisions carry margin f,
boundary-exact orthogonal pairs carry 3*tol.orth - delta, and failures carry
-delta (-est on the fast-false rule).

The witness of a plain True verdict is exact, by Toeplitz-Hausdorff in closed
form.  The top eigenvectors v_j of Re(e^{i theta} T) at n angles attain
boundary points z_j of W(T).  If the deepest sampled triangle (z_a, z_b, z_c)
holds 0, then 0 lies on [z_a, q], q where the line through z_a and 0 meets
[z_b, z_c]; one exact segment step attains q in span(v_b, v_c), a second one
0 in span(v_a, v_q).  While no triangle holds 0 but f > 0, n doubles, up to
a cap.  Otherwise (0 outside W(T), or no triangle found) the steps attain
the point of [z_a, q] nearest 0.

Strong form in closed form.  Against the direction y = b b* a the
compression T = V* (a* b b* a) V / (||a|| ||b b* a||), V an orthonormal
basis of the norm-attaining space of a, is Hermitian positive semidefinite.
Its numerical range is therefore the segment [lambda_min, lambda_max], and
the support functional of step 1 is exactly f = -max(lambda_min(T), 0): one
eigendecomposition of the Hermitian part of T replaces the sweep over theta.
The witness vector is the bottom eigenvector of T lifted by V; it attains the
norm of a and its pairing with b b* a is ||a|| ||b b* a|| lambda_min(T).
This is the matrix case of strong Birkhoff-James orthogonality in Hilbert
C*-modules (Arambasic-Rajic 2014): a is strongly orthogonal to b iff some
unit vector xi in the norm-attaining space of a has b* a xi = 0.  The sweep
and the convexity-based witness construction serve the plain form only.

The strong drop is a 1-D problem.  The direction is P a with P = b b* >= 0
blockwise, and (1 + lam P)*(1 + lam P) = 1 + 2 Re lam P + |lam|^2 P^2, so
||a + lam P a||^2 = max over blocks of lambda_max(a*a + 2 Re lam a*Pa +
|lam|^2 a*P^2a).  It does not grow as Im lam shrinks to 0, and it is at
least ||a||^2 for Re lam >= 0: the minimum over complex lam is attained at
a real lam = -t, t in [0, 2] for normalized operands.  A bracket search over
t (``_minimize_strong_drop``) replaces the ellipsoid there; both take value
and slope from the same top singular pair.

Because f <= 0, a non-vacuous strong True verdict never reaches the interior
regime: it is decided on the boundary, by the fast-true rule or by the
minimizer.  On the fast-true rule its margin is the boundary formula
3*tol.orth - (tol.eig + 2.2*max(0, -f)), at most 2.9e-7 at default
tolerances, only 0.9e-7 outside the tie band.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import (
    DEFAULT_TOLERANCES,
    Element,
    Projection,
    PureState,
    Tolerances,
    _read_only,
    _validate_psd,
)
from .errors import NotNormalized, ShapeMismatch, ZeroElement

__all__ = [
    "WitnessVector",
    "MinimizingScalar",
    "OrthDecision",
    "MutualDecision",
    "bj_orthogonal",
    "strong_bj",
    "mutual_strong",
    "state_witness_check",
    "projection_witness_check",
    "brute_force_min_lambda",
    "verify_certificate",
]

# Support values f >= -cut decide True without the minimizer by the fast-true
# bound of _decide (guarded against unusually tight tol.orth settings).
_FAST_TRUE_CUT = 1e-9

_SWEEP_POINTS = 720


@dataclass(frozen=True)
class WitnessVector:
    """Unit vector attaining the norm of x with (near-)zero pairing with y.

    attained_norm and pairing are the values actually achieved, stored so the
    certificate can be re-verified independently of the decision path.
    """

    vector: np.ndarray
    attained_norm: float
    pairing: complex


@dataclass(frozen=True)
class MinimizingScalar:
    """Scalar lam together with the achieved value of ||x + lam y||."""

    lam: complex
    achieved: float


@dataclass(frozen=True)
class OrthDecision:
    """Outcome of one directional orthogonality query.

    margin        signed decision confidence; |margin| <= 2*tol.orth is the
                  indeterminate tie band
    support_min   min-over-theta support functional of the compressed
                  numerical range (None when the query was vacuous or the
                  direction collapsed)
    drop          best relative norm reduction found (None if not computed)
    """

    verdict: bool
    margin: float
    indeterminate: bool
    certificate: WitnessVector | MinimizingScalar | None
    support_min: float | None = None
    drop: float | None = None


@dataclass(frozen=True)
class MutualDecision:
    """Both directional decisions for a candidate edge."""

    forward: OrthDecision
    backward: OrthDecision

    @property
    def verdicts(self) -> tuple[bool, bool]:
        return (self.forward.verdict, self.backward.verdict)

    @property
    def adjacent(self) -> bool:
        return self.forward.verdict and self.backward.verdict

    @property
    def indeterminate(self) -> bool:
        return self.forward.indeterminate or self.backward.indeterminate


# --------------------------------------------------------------------------
# support functional of the compressed numerical range


def _attaining_basis(x: Element, tol: Tolerances) -> tuple[np.ndarray, float]:
    """Orthonormal basis of the norm-attaining cluster of x / ||x||, plus the
    relative singular gap 1 - sigma_next below the cluster (1.0 when the
    cluster is everything).  Derived once per ``tol.eig`` and kept on x."""

    def derive():
        xm = x.normalized_matrix()
        gram = _linalg.hermitian_part(xm.conj().T @ xm)
        w, u = np.linalg.eigh(gram)
        top = w[-1]
        inside = w >= top * (1.0 - tol.eig)
        rest = w[~inside]
        gap = 1.0 if rest.size == 0 else 1.0 - np.sqrt(max(float(rest[-1]), 0.0) / top)
        basis = u[:, inside]
        basis.setflags(write=False)
        return basis, gap

    return x._cached(("attaining_basis", tol.eig), derive)


def _sweep_support(t: np.ndarray) -> float:
    """min over theta of lambda_max(Re(e^{i theta} T)) by a dense grid plus
    golden-section refinement of the best local minima."""
    if t.shape[0] == 1:
        return -abs(t[0, 0])
    h1 = 0.5 * (t + t.conj().T)
    h2 = 0.5j * (t - t.conj().T)
    thetas = np.linspace(0.0, 2.0 * np.pi, _SWEEP_POINTS, endpoint=False)
    stack = np.cos(thetas)[:, None, None] * h1 + np.sin(thetas)[:, None, None] * h2

    g = _linalg.lambda_max_hermitian(stack)

    def g_at(theta: float) -> float:
        hm = np.cos(theta) * h1 + np.sin(theta) * h2
        return float(np.linalg.eigvalsh(hm)[-1])

    # refine the three best circular local minima
    left = np.roll(g, 1)
    right = np.roll(g, -1)
    is_min = (g <= left) & (g <= right)
    idxs = np.nonzero(is_min)[0]
    if idxs.size == 0:
        idxs = np.array([int(np.argmin(g))])
    idxs = idxs[np.argsort(g[idxs])][:3]
    step = 2.0 * np.pi / _SWEEP_POINTS
    best = float(np.min(g))
    for i in idxs:
        a, b = thetas[i] - step, thetas[i] + step
        best = min(best, _golden_min(g_at, a, b))
    return best


def _golden_min(fun, a: float, b: float, iters: int = 60) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return min(fc, fd)


# --------------------------------------------------------------------------
# constructive witness: unit v with v* T v = 0 when 0 lies in W(T)

# Points in the first boundary sample; the cap on n k^2, the entries of the
# stacked k x k matrices, that bounds the doublings (8,192 points for k = 2,
# no doubling for k >= 17); the |v* T v| of a sampled point kept as witness.
_WITNESS_POINTS = 64
_WITNESS_MAX_ENTRIES = 8192 * 4
_WITNESS_ATOL = 1e-14


def _cross(p, q):
    """Im(conj(p) q), twice the signed area of the triangle (0, p, q)."""
    return (np.conj(p) * q).imag


def _deepest_triangle(z: np.ndarray) -> tuple[int, int, int, float]:
    """The sampled triangle (z_a, z_b, z_c) that holds 0 deepest, and that
    depth, for b and c the points of argument nearest arg z_a + 2 pi/3 and
    arg z_a + 4 pi/3.  The depth is the least signed distance from 0 to an
    edge line.  Barycentric weights would be 0/0 on flat triangles (a segment
    W(T), repeated corner points); the depth is at most about 0 there, and an
    edge of length zero constrains nothing."""
    args = np.angle(z)
    order = np.argsort(args)

    def nearest(target):
        pos = np.searchsorted(args[order], np.angle(np.exp(1j * target)))
        ends = order[(pos - 1) % z.size], order[pos % z.size]
        off = [np.abs(np.angle(np.exp(1j * (args[j] - target)))) for j in ends]
        return np.where(off[0] <= off[1], *ends)

    b, c = nearest(args + 2.0 * np.pi / 3.0), nearest(args + 4.0 * np.pi / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = [_cross(p, q) / np.abs(q - p) for p, q in ((z, z[b]), (z[b], z[c]), (z[c], z))]
    depth = np.nan_to_num(np.fmin(np.fmin(d[0], d[1]), d[2]), nan=-np.inf)
    a = int(np.argmax(depth))
    return a, int(b[a]), int(c[a]), float(depth[a])


def _segment_step(t: np.ndarray, a: np.ndarray, b: np.ndarray, z: complex) -> np.ndarray:
    """Unit v in span(a, b) with v* T v = z, for unit a, b with z on the
    segment [a* T a, b* T b].  S = conj(u) (T - z), u the segment's direction,
    has A = Re a* S a <= 0 <= B = Re b* S b; the phase w on b that takes the
    skew-Hermitian part out of a* S (w b) leaves v* S v = A p^2 + 2 C p r +
    B r^2 real on v = p a + r w b, solved for p, r >= 0 without cancellation
    (C^2 - A B >= C^2)."""
    ta, tb = t @ a, t @ b
    alpha, beta = complex(np.vdot(a, ta)), complex(np.vdot(b, tb))
    if beta == alpha:
        return a
    rot = (beta - alpha).conjugate() / abs(beta - alpha)
    lo, hi = (rot * (alpha - z)).real, (rot * (beta - z)).real
    if lo >= 0.0:
        return a
    ab = complex(np.vdot(a, b))
    s_ab = rot * (complex(np.vdot(a, tb)) - z * ab)
    s_ba = (rot * (complex(np.vdot(b, ta)) - z * ab.conjugate())).conjugate()
    skew = s_ab - s_ba
    w = skew.conjugate() / abs(skew) if skew != 0.0 else 1.0
    cross = 0.5 * (w * (s_ab + s_ba)).real
    root = np.sqrt(max(cross * cross - lo * hi, 0.0))
    p, r = (cross + root, -lo) if cross >= 0.0 else (hi, root - cross)
    v = p * a + (r * w) * b
    return v / np.linalg.norm(v)


def _attain_zero(t: np.ndarray, f: float) -> np.ndarray:
    """Unit v with v* T v = 0 when 0 lies in W(T), of support value f (see
    the module docstring); else v attains the point of [z_a, q] nearest 0."""
    if t.shape[0] == 1:
        return np.ones(1, dtype=complex)
    h1, h2 = 0.5 * (t + t.conj().T), 0.5j * (t - t.conj().T)
    n = _WITNESS_POINTS
    while True:
        thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        stack = np.cos(thetas)[:, None, None] * h1 + np.sin(thetas)[:, None, None] * h2
        vecs = np.linalg.eigh(stack)[1][:, :, -1]
        z = np.einsum("ij,jk,ik->i", vecs.conj(), t, vecs)
        j = int(np.argmin(np.abs(z)))
        if abs(z[j]) <= _WITNESS_ATOL:
            return vecs[j]
        a, b, c, depth = _deepest_triangle(z)
        if depth >= 0.0 or f <= 0.0 or 2 * n * t.size > _WITNESS_MAX_ENTRIES:
            break
        n *= 2
    za, zb, zc = complex(z[a]), complex(z[b]), complex(z[c])
    # q = zb + s (zc - zb) on the line through za and 0; then the point of
    # [za, zq] nearest 0, which is 0 itself when the triangle holds it
    den = _cross(za, zb) - _cross(za, zc)
    s = min(max(_cross(za, zb) / den, 0.0), 1.0) if den != 0.0 else 0.0
    vq = _segment_step(t, vecs[b], vecs[c], zb + s * (zc - zb))
    d = complex(np.vdot(vq, t @ vq)) - za
    tau = min(max(-(za.conjugate() * d).real / abs(d) ** 2, 0.0), 1.0) if d != 0.0 else 0.0
    return _segment_step(t, vecs[a], vq, za + tau * d)


# --------------------------------------------------------------------------
# certified scalar minimization of ||x + lam y|| (normalized inputs)

# Step cap of _minimize_drop, from the ellipsoid volume bound for n = 2: each
# cut shrinks the area by (2/3) sqrt(4/3) < 0.7699.  phi is 1-Lipschitz and the
# starting disk has diameter 4, so the disk shrunk by _DROP_GAP / 4 towards a
# minimizer holds only values within _DROP_GAP of the minimum, and no cut
# removes it while every centre is worse.  Its area bounds the ellipse's, so
# some centre is within _DROP_GAP after k > 2 ln(4e13) / ln(1 / 0.7699) = 239.5.
_DROP_GAP = 1e-13
_DROP_STEPS = 240

# Step cap of _minimize_strong_drop.  The bracket starts as [0, 2].  A step
# at the meeting point, clamped to the middle half, leaves at most 3/4 of the
# width, and every third step bisects, so three steps leave at most 9/32 of
# it.  With p, q the meeting point's distances to the ends and both slopes at
# most 1 in size, best - lower <= min(p, q) <= width / 2, which is within
# _DROP_GAP once width <= 2e-13: after 3 ceil(ln(1e13) / ln(32 / 9)) = 72
# steps.
_STRONG_DROP_STEPS = 72


def _value_and_slope(xb: tuple[np.ndarray, ...], yb: tuple[np.ndarray, ...], lam: complex) -> tuple[float, complex]:
    """phi(lam) = max-block ||x + lam y|| and w = u* y_b v, (u, v) the top
    singular pair of the active block: phi's derivative along a step s in
    lam is Re(s w)."""
    val = -1.0
    for bx, by in zip(xb, yb):
        u, s, vh = np.linalg.svd(bx + lam * by)
        if s[0] > val:
            val, w = float(s[0]), complex(u[:, 0].conj() @ by @ vh[0].conj())
    return val, w


def _minimize_drop(xb: tuple[np.ndarray, ...], yb: tuple[np.ndarray, ...]) -> tuple[complex, float]:
    """min over lam of the convex phi(lam) = max-block ||x + lam y|| for
    normalized inputs, by the central-cut ellipsoid method in (Re, Im) lam.
    It serves the plain form; the strong form has _minimize_strong_drop.

    It starts from the disk |lam| <= 2, which holds every lam with
    phi(lam) <= phi(0) = 1 since ||lam y|| <= ||x|| + ||x + lam y||.  At each
    centre c the top singular pair (u, v) of the active block gives the
    subgradient g = (Re w, -Im w), w = u* y_b v.  The cut drops the half-plane
    g.(lam - c) > 0, where phi > phi(c), so the minimizers stay in the ellipse
    {c + z : z' P^-1 z <= 1} and phi(c) - sqrt(g' P g) bounds the minimum from
    below.  Stops once the best value is within _DROP_GAP of the best lower
    bound, or after _DROP_STEPS steps.
    """
    c, p = np.zeros(2), 4.0 * np.eye(2)
    best_lam, best, lower = 0j, np.inf, -np.inf
    for _ in range(_DROP_STEPS):
        lam = complex(c[0], c[1])
        val, w = _value_and_slope(xb, yb, lam)
        if val < best:
            best_lam, best = lam, val
        g = np.array([w.real, -w.imag])
        pg = p @ g
        width = np.sqrt(max(float(g @ pg), 0.0))
        lower = max(lower, val - width)
        if best - lower <= _DROP_GAP:
            break
        c = c - pg / (3.0 * width)
        p = (4.0 / 3.0) * (p - (2.0 / 3.0) * np.outer(pg, pg) / (width * width))
    return best_lam, best


def _minimize_strong_drop(xb: tuple[np.ndarray, ...], yb: tuple[np.ndarray, ...]) -> tuple[complex, float]:
    """_minimize_drop for a strong direction y = P x, P >= 0 blockwise, as a
    1-D search over phi(t) = max-block ||x - t y|| on t in [0, 2].

    By the module docstring's identity the minimum over complex lam is
    attained at a real lam = -t, t in [0, 2] (the disk of _minimize_drop).
    phi is convex with slope -Re w at t (_value_and_slope at lam = -t).  The
    bracket [lo, hi] holds a minimizer: the slope at lo is <= 0, and hi
    starts at 2 with the supporting line t - 1 <= ||t y|| - ||x||.  The two
    supporting lines meet at a point whose value bounds the minimum from
    below; the next t is that point clamped to the bracket's middle half, or
    every third step the midpoint.  Stops once the best value is within
    _DROP_GAP of the bound, or after _STRONG_DROP_STEPS steps.
    """
    val, w = _value_and_slope(xb, yb, 0.0)
    if w.real <= 0.0:
        return 0j, val
    best_t, best = 0.0, val
    lo, hi = (0.0, val, -w.real), (2.0, 1.0, 1.0)
    for step in range(_STRONG_DROP_STEPS):
        (t_lo, f_lo, g_lo), (t_hi, f_hi, g_hi) = lo, hi
        meet = (f_lo - f_hi + g_hi * t_hi - g_lo * t_lo) / (g_hi - g_lo)
        if best - (f_lo + g_lo * (meet - t_lo)) <= _DROP_GAP:
            break
        quarter = 0.25 * (t_hi - t_lo)
        t = t_lo + 2.0 * quarter if step % 3 == 2 else min(max(meet, t_lo + quarter), t_hi - quarter)
        val, w = _value_and_slope(xb, yb, -t)
        if val < best:
            best_t, best = t, val
        if w.real >= 0.0:
            lo = (t, val, -w.real)
        else:
            hi = (t, val, -w.real)
    return -best_t + 0j, best


# --------------------------------------------------------------------------
# public decisions


def _vacuous_true(norm_x: float) -> OrthDecision:
    return OrthDecision(True, norm_x, False, None, support_min=None, drop=0.0)


def _decide(
    x: Element,
    y: Element,
    v: np.ndarray,
    f: float,
    gap: float,
    witness,
    minimize,
    tol: Tolerances,
    want_certificate: bool,
    y_exp: int = 0,
) -> OrthDecision:
    """Steps 2-3 of the decision procedure for nonzero x, y, given the
    attaining basis v of x, the support value f and the singular gap g.
    ``witness()`` returns the compressed vector a True certificate lifts, and
    ``minimize`` is _minimize_drop or, for a strong direction,
    _minimize_strong_drop.  Certificates refer to the direction 2^y_exp y.

    The fast rules bound the drop for normalized x, y.  V is the attaining
    cluster: ||x p|| <= 1 and ||x p||^2 >= 1 - tol.eig for unit p in V, and
    ||x q|| <= 1 - g for unit q in V-perp.  Write F = |f| <= ||T|| <= 1.

    Fast true, drop <= tol.eig + 2.2 F for f < 0.  Every minimizer has
    |lam| <= 2 (see _minimize_drop).  The top eigenvector p of
    Re(e^{i arg lam} T), lifted into V, has Re(lam p* x* y p) >= |lam| f.
    So ||x + lam y|| >= Re <x p, (x + lam y) p> / ||x p||
    >= sqrt(1 - tol.eig) - 2F / sqrt(1 - tol.eig), and drop <= tol.eig +
    2F / sqrt(1 - tol.eig), which 2.2 F covers for tol.eig <= 0.17.

    Fast false, drop >= est = 1 - sqrt(1 - F^2 g (4 + g) / 16) for f < 0.
    Let theta* attain f, so Re(e^{i theta*} p* x* y p) <= f on unit p in V,
    and take lam = t e^{i theta*}.  Write a unit v as alpha p + beta q.
    x*x keeps V and V-perp apart, so ||x v||^2 <= |alpha|^2 + |beta|^2 (1 - g)^2.
    The cross terms of Re(e^{i theta*} v* x* y v) are at most
    |alpha||beta| (2 - g), the q term at most |beta|^2 (1 - g), and
    ||lam y v||^2 <= t^2.  With c = g(2 - g) - 2t(F + 1 - g), maximizing
    over |beta| gives ||(x + lam y) v||^2 <= 1 - 2tF + t^2 + t^2 (2 - g)^2 / c.
    t = F g / 4 makes c >= g(2 - g) / 2, since F <= 1, and the bound
    1 - F^2 g (4 + g) / 16.  The rule holds at every tolerance setting:
    est > 2.2*tol.orth puts the verdict False outside the tie band."""
    if f > 2.0 * tol.orth:
        cert = _make_witness(x, y, v, witness(), y_exp) if want_certificate else None
        return OrthDecision(True, float(f), False, cert, support_min=float(f), drop=None)

    drop_bound = tol.eig + 2.2 * _FAST_TRUE_CUT
    if f >= -_FAST_TRUE_CUT and drop_bound <= 0.5 * tol.orth:
        margin = 3.0 * tol.orth - (tol.eig + 2.2 * max(0.0, -f))
        cert = _make_witness(x, y, v, witness(), y_exp) if want_certificate else None
        return OrthDecision(True, float(margin), False, cert, support_min=float(f), drop=None)

    est = 1.0 - np.sqrt(1.0 - min(f, 0.0) ** 2 * gap * (4.0 + gap) / 16.0)
    if est > 2.2 * tol.orth and not want_certificate:
        return OrthDecision(False, -float(est), False, None, support_min=float(f), drop=None)

    lam_n, achieved_n = minimize(x.normalized_blocks(), y.normalized_blocks())
    drop = max(0.0, 1.0 - achieved_n)
    nx = x.norm()
    lam = lam_n * nx / y.norm()
    lam = complex(*np.ldexp([lam.real, lam.imag], -y_exp))
    achieved = achieved_n * nx

    if drop <= 0.5 * tol.orth:
        verdict = True
        margin = 3.0 * tol.orth - drop
    elif drop <= 2.0 * tol.orth:
        verdict = drop <= tol.orth
        margin = tol.orth - drop
    else:
        verdict = False
        margin = -drop

    cert = None
    if want_certificate:
        cert = _make_witness(x, y, v, witness(), y_exp) if verdict else MinimizingScalar(lam, achieved)
    indet = abs(margin) <= 2.0 * tol.orth
    return OrthDecision(verdict, float(margin), indet, cert, support_min=float(f), drop=float(drop))


def _make_witness(x: Element, y: Element, v_basis: np.ndarray, vc: np.ndarray, y_exp: int) -> WitnessVector:
    """Lift the unit compressed vector vc by the orthonormal attaining basis
    and record what it attains against the unnormalized operands x and
    2^y_exp y."""
    vec = v_basis @ vc
    vec = vec / np.linalg.norm(vec)
    xv = x.assemble() @ vec
    return WitnessVector(
        vector=vec,
        attained_norm=float(np.linalg.norm(xv)),
        pairing=complex(np.vdot(xv, np.ldexp((y.assemble() @ vec).view(float), y_exp).view(complex))),
    )


def bj_orthogonal(
    x: Element,
    y: Element,
    tol: Tolerances = DEFAULT_TOLERANCES,
    want_certificate: bool = True,
) -> OrthDecision:
    """Decide whether ||x + lam y|| >= ||x|| for every complex lam."""
    if x.shape != y.shape:
        raise ShapeMismatch(f"{x.shape} vs {y.shape}")
    nx = x.norm()
    if nx == 0.0:
        raise ZeroElement("orthogonality is undefined for the zero element")
    if y.norm() == 0.0:
        return _vacuous_true(nx)
    v, gap = _attaining_basis(x, tol)
    t = v.conj().T @ x.normalized_matrix().conj().T @ y.normalized_matrix() @ v
    f = _sweep_support(t)
    return _decide(x, y, v, f, gap, lambda: _attain_zero(t, f), _minimize_drop, tol, want_certificate)


def _scaled_blocks(e: Element) -> tuple[float, int, tuple[np.ndarray, ...]]:
    """(m, k, blocks of e 2^-k) with ||e|| = m 2^k (``math.frexp``): an
    exact rescaling, derived once and kept on e."""

    def derive():
        m, k = math.frexp(e.norm())
        return m, k, tuple(_read_only(np.ldexp(blk.view(float), -k).view(complex)) for blk in e.blocks)

    return e._cached("scaled_blocks", derive)


def strong_bj(
    a: Element,
    b: Element,
    tol: Tolerances = DEFAULT_TOLERANCES,
    want_certificate: bool = True,
) -> OrthDecision:
    """Decide ||a + b c|| >= ||a|| for every algebra element c.

    Reduces exactly to the scalar decision against the direction z = b b* a,
    whose compression T is positive semidefinite, so the support functional
    is -lambda_min(T) in closed form (see the module docstring).  When z
    vanishes (below ``tol.ker`` relative to the operand scales) the statement
    is vacuously true and the margin is ||a||.

    z is formed from a 2^-ea and b 2^-eb, ea and eb the binary exponents of
    ||a|| and ||b||, so it is exact and cannot underflow; certificates refer
    to the unscaled b b* a.  Raises ``ValueError`` where that may overflow,
    2 eb + ea > 1024.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    na = a.norm()
    if na == 0.0:
        raise ZeroElement("orthogonality is undefined for the zero element")
    (ma, ea, sa), (mb, eb, sb) = _scaled_blocks(a), _scaled_blocks(b)
    k = 2 * eb + ea
    if k > 1024:
        raise ValueError(f"the strong direction b b* a overflows (binary exponent {k})")
    z = Element(a.shape, [q @ q.conj().T @ p for p, q in zip(sa, sb)])
    if z.norm() <= tol.ker * mb * mb * ma:
        return _vacuous_true(na)
    v, gap = _attaining_basis(a, tol)
    t = v.conj().T @ a.normalized_matrix().conj().T @ z.normalized_matrix() @ v
    w, u = np.linalg.eigh(_linalg.hermitian_part(t))
    f = min(-float(w[0]), 0.0)
    return _decide(a, z, v, f, gap, lambda: u[:, 0], _minimize_strong_drop, tol, want_certificate, k)


def mutual_strong(
    a: Element,
    b: Element,
    tol: Tolerances = DEFAULT_TOLERANCES,
    want_certificate: bool = True,
) -> MutualDecision:
    """Strong orthogonality in both directions; the graph's edge relation."""
    if a.norm() == 0.0 or b.norm() == 0.0:
        raise ZeroElement("graph vertices are nonzero elements")
    return MutualDecision(
        forward=strong_bj(a, b, tol, want_certificate),
        backward=strong_bj(b, a, tol, want_certificate),
    )


def state_witness_check(
    a: Element,
    b: Element,
    rho: PureState,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Sufficient state certificate: a state with rho(a a*) = ||a||^2 and
    rho(b b*) = 0 forces a to be strongly orthogonal to b."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        raise ZeroElement("witness check needs nonzero elements")
    va = complex(rho(a @ a.adjoint())).real
    vb = complex(rho(b @ b.adjoint())).real
    return abs(va - na * na) <= tol.orth * na * na and vb <= tol.orth * nb * nb


def projection_witness_check(
    p: Projection,
    a: Element,
    b: Element,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Sufficient projection certificate: p a = p and p b = 0 for positive
    norm-one a, b certify that a is strongly orthogonal to b (compressing
    a + b c by p preserves norm one while killing the b term)."""
    for el, name in ((a, "a"), (b, "b")):
        if abs(el.norm() - 1.0) > tol.orth:
            raise NotNormalized(f"{name} must have norm one")
        _validate_psd(el, tol)
    pm = p.element
    defect_a = max(_linalg.opnorm(bp @ ba - bp) for bp, ba in zip(pm.blocks, a.blocks))
    defect_b = max(_linalg.opnorm(bp @ bb) for bp, bb in zip(pm.blocks, b.blocks))
    return defect_a <= tol.orth and defect_b <= tol.orth


def _batch_value(grams: list[tuple[np.ndarray, np.ndarray, np.ndarray]], lams: np.ndarray) -> np.ndarray:
    """max over blocks of sigma_max(x + lam y) for each lam, from each block's
    Hermitian x*x, y*y and x*y: (x + lam y)*(x + lam y) is
    x*x + |lam|^2 y*y + lam x*y + (lam x*y)*, so no per-point product."""
    vals = None
    lam = lams[:, None, None]
    for xx, yy, xy in grams:
        cross = lam * xy
        gram = xx + (lam * lam.conj()).real * yy + (cross + cross.conj().swapaxes(-1, -2))
        v = np.sqrt(np.maximum(_linalg.lambda_max_hermitian(gram), 0.0))
        vals = v if vals is None else np.maximum(vals, v)
    return vals


def _accurate_value(xb, yb, lam: complex) -> float:
    return max(_linalg.opnorm(bx + lam * by) for bx, by in zip(xb, yb))


def brute_force_min_lambda(
    x: Element,
    y: Element,
    grid_n: int = 200,
    refine_steps: int = 50,
) -> tuple[complex, float]:
    """Independent grid oracle for the scalar decision.

    Minimizes ||x + lam y|| over a grid_n x grid_n polar grid on the disk
    |lam| <= 2 ||x|| / ||y|| (any minimizer lies inside), then runs
    refine_steps halving levels of deterministic compass descent.  Returns
    the best lam and the achieved norm.
    """
    nx, ny = x.norm(), y.norm()
    if nx == 0.0 or ny == 0.0:
        raise ZeroElement("oracle needs nonzero elements")
    xb = list(x.blocks)
    yb = list(y.blocks)
    grams = [
        (_linalg.hermitian_part(bx.conj().T @ bx), _linalg.hermitian_part(by.conj().T @ by), bx.conj().T @ by)
        for bx, by in zip(xb, yb)
    ]
    radius = 2.0 * nx / ny
    radii = np.linspace(0.0, radius, grid_n)
    angles = np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False)
    lams = (radii[:, None] * np.exp(1j * angles)[None, :]).reshape(-1)
    vals = _batch_value(grams, lams)
    k = int(np.argmin(vals))
    lam, best = complex(lams[k]), float(vals[k])

    dirs = np.exp(1j * np.pi * np.arange(8) / 4.0)
    h = radius / (grid_n - 1)
    for _ in range(refine_steps):
        guard = 0
        while guard < 128:
            cand = lam + h * dirs
            cv = _batch_value(grams, cand)
            j = int(np.argmin(cv))
            if cv[j] < best:
                lam, best = complex(cand[j]), float(cv[j])
                guard += 1
            else:
                break
        h *= 0.5

    achieved = _accurate_value(xb, yb, lam)
    return lam, achieved


def verify_certificate(
    decision: OrthDecision,
    x: Element,
    y: Element,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Re-verify a decision's certificate against the scalar-form operands.

    For the strong form pass the reduced direction (b b* a) as ``y``.  A
    minimizing scalar must reproduce its achieved norm and, behind a False
    verdict, show a drop beyond tol.orth.
    """
    cert = decision.certificate
    nx, ny = x.norm(), y.norm()
    if cert is None:
        return True
    if isinstance(cert, WitnessVector):
        v = cert.vector
        if abs(np.linalg.norm(v) - 1.0) > tol.vec:
            return False
        xv = x.assemble() @ v
        yv = y.assemble() @ v
        if abs(np.linalg.norm(xv) - cert.attained_norm) > tol.orth * nx:
            return False
        if abs(cert.attained_norm - nx) > tol.orth * nx:
            return False
        return abs(complex(np.vdot(xv, yv)) - cert.pairing) <= tol.orth * max(nx * ny, 1e-300)
    if isinstance(cert, MinimizingScalar):
        val = max(
            _linalg.opnorm(bx + cert.lam * by) for bx, by in zip(x.blocks, y.blocks)
        )
        if not decision.verdict and not cert.achieved < nx * (1.0 - tol.orth):
            return False
        return abs(val - cert.achieved) <= tol.orth * nx
    return False


def strong_direction(a: Element, b: Element) -> Element:
    """The reduced direction b b* a used by the strong-form decision."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    return Element(a.shape, [bb @ bb.conj().T @ ba for ba, bb in zip(a.blocks, b.blocks)])
