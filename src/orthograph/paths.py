"""Constructive witnesses and short mutual-orthogonality paths.

Every non-right-invertible element has a verified graph neighbor, and any two
such elements (outside the three exceptional small shapes) can be joined by a
path of at most four edges built from spectral projections:

    a -- q_a -- r -- q_b -- b

where q_a, q_b are rank-one projections into the kernels of the absolute
values and r is a third minimal projection orthogonal to both.  The returned
path is always the shortest fully re-verified candidate, so reported lengths
are honest upper bounds on graph distance.

For a single block of size >= 4 there is additionally a guaranteed length-3
construction through two rank-two projections, built so that each contains a
kernel vector of its endpoint, annihilates the endpoint's norm-attaining
vector, and shares a mutually annihilating pair of range vectors with the
other bridge projection.
"""

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import (
    DEFAULT_TOLERANCES,
    AlgebraShape,
    Element,
    Projection,
    Tolerances,
    _blockwise_extreme_vector,
    abs_star,
    embed,
    is_right_invertible,
    projective_equal,
    split_element,
)
from .errors import (
    Isolated,
    NotMinimal,
    RightInvertibleEndpoint,
    ShapeMismatch,
    SmallAlgebra,
    SplitInfeasible,
    VerificationFailed,
    ZeroElement,
)
from .orthogonality import MutualDecision, mutual_strong

__all__ = [
    "OrthPath",
    "non_isolated_witness",
    "third_projection",
    "connect",
    "connect_direct_sum",
    "verify_path",
]


@dataclass(frozen=True)
class OrthPath:
    """A sequence of vertices with verified mutual orthogonality per edge."""

    vertices: tuple[Element, ...]
    edge_decisions: tuple[MutualDecision, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def __repr__(self):
        return f"OrthPath(length={self.length})"


def verify_path(vertices, tol: Tolerances = DEFAULT_TOLERANCES) -> OrthPath:
    """Re-verify a vertex chain edge by edge (with certificates) and package
    it as an :class:`OrthPath`; raises ``VerificationFailed`` otherwise."""
    vertices = tuple(vertices)
    if not vertices:
        raise VerificationFailed("empty vertex chain")
    for v in vertices:
        if v.norm() == 0.0:
            raise ZeroElement("paths cannot contain the zero element")
    decisions = []
    for u, v in zip(vertices, vertices[1:]):
        if projective_equal(u, v, tol):
            raise VerificationFailed("consecutive vertices are projectively equal")
        dec = mutual_strong(u, v, tol)
        if not dec.adjacent:
            raise VerificationFailed("edge failed mutual orthogonality re-verification")
        decisions.append(dec)
    return OrthPath(vertices, tuple(decisions))


def _chain_holds(vertices, tol: Tolerances) -> bool:
    for u, v in zip(vertices, vertices[1:]):
        if projective_equal(u, v, tol):
            return False
        if not mutual_strong(u, v, tol, want_certificate=False).adjacent:
            return False
    return True


def non_isolated_witness(a: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> Element:
    """A verified graph neighbor of a non-right-invertible element.

    Normalizes a and returns b = (1 - a a*)^(1/2), which is nonzero exactly
    because a a* is singular; mutual orthogonality is re-verified before
    returning.  Right-invertible inputs raise ``Isolated``: they have no
    neighbors at all.
    """
    na = a.norm()
    if na == 0.0:
        raise ZeroElement("the zero element is not a graph vertex")
    if is_right_invertible(a, tol):
        raise Isolated("right-invertible elements are isolated vertices")
    blocks = []
    for blk in a.blocks:
        n = blk.shape[0]
        g = np.eye(n) - (blk @ blk.conj().T) / (na * na)
        blocks.append(_linalg.psd_sqrt(g))
    b = Element(a.shape, blocks)
    if b.norm() == 0.0:
        raise VerificationFailed("witness collapsed to zero")
    dec = mutual_strong(a, b, tol)
    if not dec.adjacent:
        raise VerificationFailed("witness failed mutual orthogonality re-verification")
    return b


def third_projection(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOLERANCES) -> Projection:
    """A minimal projection r with r p = r q = 0 exactly.

    Searches blocks lowest index first for a unit vector orthogonal to the
    support vectors of p and q that land in that block; exists for every
    shape except [1], [1, 1] and [2].
    """
    if p.shape != q.shape:
        raise ShapeMismatch(f"{p.shape} vs {q.shape}")
    shape = p.shape
    if shape.is_small():
        raise SmallAlgebra(f"no third minimal projection in shape {list(shape.blocks)}")
    if not p.minimal() or not q.minimal():
        raise NotMinimal("both projections must have total rank one")
    bp, vp = p.support_block(), p.support_vector()
    bq, vq = q.support_block(), q.support_vector()
    for j, n in enumerate(shape.blocks):
        obstructions = []
        if bp == j:
            obstructions.append(vp)
        if bq == j:
            obstructions.append(vq)
        if len(obstructions) >= n:
            continue
        comp = _linalg.orthonormal_complement(obstructions, n)
        if comp.shape[1] == 0:
            continue
        w = _linalg.canonical_unit_vector(comp)
        return Projection.rank_one(shape, j, w)
    raise VerificationFailed("no free direction found")  # unreachable off small shapes


def _bottom_rank_one(a_hat: Element, tol: Tolerances) -> Projection:
    """Rank-one projection onto the deterministic bottom eigenvector of a
    normalized positive element (blockwise, lowest singular direction)."""
    idx, v = _blockwise_extreme_vector(a_hat, tol, top=False)
    return Projection.rank_one(a_hat.shape, idx, v)


def _top_bottom_vectors(a: Element, tol: Tolerances) -> tuple[int, np.ndarray, int, np.ndarray]:
    ah = abs_star(a) * (1.0 / a.norm())
    bi, bv = _blockwise_extreme_vector(ah, tol, top=False)
    ti, tv = _blockwise_extreme_vector(ah, tol, top=True)
    return bi, bv, ti, tv


def _rank2_bridge(a: Element, b: Element, tol: Tolerances) -> tuple[Element, Element] | None:
    """Two rank-two projections P1, P2 with a -- P1 -- P2 -- b for a single
    block of size >= 4; None when the shape does not support it.

    P1 spans a kernel vector u of a a* and an auxiliary u' orthogonal to the
    norm-attaining vector of a; u' is then matched against a vector v' chosen
    so the 2x2 pairing matrix between span(P1) and span(P2) is singular,
    which yields the mutually annihilating range vectors the middle edge
    needs.  The last constraint costs one dimension, hence n >= 4.
    """
    shape = a.shape
    if shape.m != 1 or shape.blocks[0] < 4:
        return None
    n = shape.blocks[0]
    _, u, _, ta = _top_bottom_vectors(a, tol)
    _, v, _, tb = _top_bottom_vectors(b, tol)
    comp_u = _linalg.orthonormal_complement([u, ta], n)
    if comp_u.shape[1] == 0:
        return None
    up = _linalg.canonical_unit_vector(comp_u)
    z = np.vdot(v, u) * up - np.vdot(v, up) * u
    avoid = [v, tb]
    if np.linalg.norm(z) > 1e-12:
        avoid.append(z / np.linalg.norm(z))
    comp_v = _linalg.orthonormal_complement(avoid, n)
    if comp_v.shape[1] == 0:
        return None
    vp = _linalg.canonical_unit_vector(comp_v)
    p1 = Element(shape, [_linalg.rank_one(u) + _linalg.rank_one(up)])
    p2 = Element(shape, [_linalg.rank_one(v) + _linalg.rank_one(vp)])
    return p1, p2


def _middle_candidates(a: Element, b: Element, tol: Tolerances) -> list[list[Element]]:
    """Candidate interior-vertex chains between a and b, shortest first.

    The final candidate (kernel projection, third projection, kernel
    projection) is the guaranteed fallback; everything before it is a
    trimming attempt."""
    qa = _bottom_rank_one(abs_star(a) * (1.0 / a.norm()), tol)
    qb = _bottom_rank_one(abs_star(b) * (1.0 / b.norm()), tol)
    r = third_projection(qa, qb, tol)
    ea, eb, er = qa.element, qb.element, r.element
    candidates: list[list[Element]] = [
        [],
        [ea],
        [er],
        [eb],
        [ea, eb],
    ]
    bridge = _rank2_bridge(a, b, tol)
    if bridge is not None:
        candidates.append(list(bridge))
    candidates.extend([[ea, er], [er, eb], [ea, er, eb]])
    return candidates


def connect(a: Element, b: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> OrthPath:
    """Shortest verified mutual-orthogonality path between two
    non-right-invertible elements; never longer than four edges.

    Projectively equal endpoints give the single-vertex path of length zero.
    The three small shapes are rejected outright: their graphs have no single
    nontrivial component for this construction to land in.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    if a.shape.is_small():
        raise SmallAlgebra(f"shape {list(a.shape.blocks)} is excluded")
    if a.norm() == 0.0 or b.norm() == 0.0:
        raise ZeroElement("path endpoints must be nonzero")
    if is_right_invertible(a, tol) or is_right_invertible(b, tol):
        raise RightInvertibleEndpoint("right-invertible endpoints are isolated")
    if projective_equal(a, b, tol):
        return OrthPath((a,), ())
    for middles in _middle_candidates(a, b, tol):
        chain = [a, *middles, b]
        if _chain_holds(chain, tol):
            return verify_path(chain, tol)
    raise VerificationFailed("no candidate chain verified")  # not expected


def _canonical_filler(shape: AlgebraShape) -> Element:
    """Deterministic nonzero stand-in used when a summand component is zero
    (any element works there: the edge conditions are vacuous)."""
    n = shape.blocks[0]
    e1 = np.zeros(n)
    e1[0] = 1.0
    return Element.rank_one_in_block(shape, 0, e1)


def _witness_or_filler(comp: Element, tol: Tolerances) -> Element:
    if comp.is_zero():
        return _canonical_filler(comp.shape)
    return non_isolated_witness(comp, tol)


def _not_approx_right_invertible(comp: Element, tol: Tolerances) -> bool:
    if comp.is_zero():
        return True
    return not is_right_invertible(comp, tol)


def connect_direct_sum(
    x: Element,
    y: Element,
    tol: Tolerances = DEFAULT_TOLERANCES,
    split: int = 1,
) -> OrthPath:
    """Path construction specialized to a direct-sum decomposition C = A + B
    (A = first ``split`` blocks).

    Depending on which components are not approximately right invertible, the
    construction either crosses summands through (a', 0) and (0, b') in at
    most three edges, or lifts a path built inside one summand.  Candidates
    are tried shortest first with full per-edge verification; the candidates
    of the plain :func:`connect` on the whole algebra are kept as a fallback.
    """
    if x.shape != y.shape:
        raise ShapeMismatch(f"{x.shape} vs {y.shape}")
    shape = x.shape
    if shape.m < 2 or not 1 <= split <= shape.m - 1:
        raise SplitInfeasible(f"split {split} is not interior to {list(shape.blocks)}")
    if x.norm() == 0.0 or y.norm() == 0.0:
        raise ZeroElement("path endpoints must be nonzero")
    if is_right_invertible(x, tol) or is_right_invertible(y, tol):
        raise RightInvertibleEndpoint("right-invertible endpoints are isolated")
    if projective_equal(x, y, tol):
        return OrthPath((x,), ())

    a1, b1 = split_element(x, split)
    a2, b2 = split_element(y, split)
    shape_a, shape_b = a1.shape, b1.shape

    def lift_a(el: Element) -> Element:
        return embed(el, 0, shape)

    def lift_b(el: Element) -> Element:
        return embed(el, split, shape)

    candidates: list[list[Element]] = [[]]

    def cross_case(first_comp, first_shape_is_a, second_comp):
        """x -- (w1, 0) -- (0, w2) -- y with w's on opposite summands."""
        w1 = _witness_or_filler(first_comp, tol)
        w2 = _witness_or_filler(second_comp, tol)
        if first_shape_is_a:
            m1, m2 = lift_a(w1), lift_b(w2)
        else:
            m1, m2 = lift_b(w1), lift_a(w2)
        candidates.extend([[m1], [m2], [m1, m2]])

    if _not_approx_right_invertible(a1, tol) and _not_approx_right_invertible(b2, tol):
        cross_case(a1, True, b2)
    if _not_approx_right_invertible(b1, tol) and _not_approx_right_invertible(a2, tol):
        cross_case(b1, False, a2)

    def same_side_case(c1, c2, lift):
        """Both deficiencies in the same summand: lift a path built there."""
        if c1.is_zero() and c2.is_zero():
            candidates.append([lift(_canonical_filler(c1.shape))])
            return
        if c1.is_zero() or c2.is_zero():
            nz = c2 if c1.is_zero() else c1
            candidates.append([lift(non_isolated_witness(nz, tol))])
            return
        if projective_equal(c1, c2, tol):
            candidates.append([lift(non_isolated_witness(c1, tol))])
            return
        try:
            inner = connect(c1, c2, tol)
        except (SmallAlgebra, VerificationFailed):
            inner = None
        if inner is not None and inner.length >= 2:
            candidates.append([lift(v) for v in inner.vertices[1:-1]])
            return
        # the summand path is a single edge (or unavailable): pad with
        # kernel projections / the rank-two bridge / alternating witnesses
        q1 = _bottom_rank_one(abs_star(c1) * (1.0 / c1.norm()), tol)
        q2 = _bottom_rank_one(abs_star(c2) * (1.0 / c2.norm()), tol)
        candidates.extend([[lift(q1.element)], [lift(q2.element)]])
        bridge = _rank2_bridge(c1, c2, tol)
        if bridge is not None:
            candidates.append([lift(bridge[0]), lift(bridge[1])])
        candidates.append([lift(q1.element), lift(q2.element)])
        w1, w2 = non_isolated_witness(c1, tol), non_isolated_witness(c2, tol)
        candidates.append([lift(w1), lift(w2)])

    if _not_approx_right_invertible(b1, tol) and _not_approx_right_invertible(b2, tol):
        same_side_case(b1, b2, lift_b)
    if _not_approx_right_invertible(a1, tol) and _not_approx_right_invertible(a2, tol):
        same_side_case(a1, a2, lift_a)

    # connect's own candidates, nondecreasing in length: after the stable
    # sort the first one that holds is the chain connect(x, y) would return
    if not shape.is_small():
        try:
            candidates.extend(_middle_candidates(x, y, tol))
        except VerificationFailed:
            pass

    candidates.sort(key=len)
    for middles in candidates:
        chain = [x, *middles, y]
        if _chain_holds(chain, tol):
            return verify_path(chain, tol)
    raise VerificationFailed("no direct-sum candidate chain verified")
