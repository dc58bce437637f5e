"""Constructive witnesses and short mutual-orthogonality paths.

Every non-right-invertible element has a verified graph neighbor, and any two
such elements (outside the three exceptional small shapes) can be joined by a
path of at most four edges built from spectral projections:

    a -- q_a -- r -- q_b -- b

where q_a, q_b are rank-one projections into the kernels of the absolute
values and r is a third minimal projection orthogonal to both.

For a single block of size >= 4 there is additionally a guaranteed length-3
construction through two rank-two projections, built so that each contains a
kernel vector of its endpoint, annihilates the endpoint's norm-attaining
vector, and shares a mutually annihilating pair of range vectors with the
other bridge projection.

Candidate chains are tried shortest first, and each distinct edge is decided
at most once per search, without a certificate.  The first chain whose edges
all hold is re-verified with certificates by :func:`verify_path`, so reported
lengths are honest upper bounds on graph distance.
"""

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import (
    DEFAULT_TOLERANCES,
    Element,
    Projection,
    Tolerances,
    _blockwise_extreme_vectors,
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


def _endpoint_path(a: Element, b: Element, tol: Tolerances, split: int | None = None) -> OrthPath | None:
    """Validate the endpoints of a path search: the length-zero path when they
    are projectively equal, None when a search is needed.

    ``split`` None is the whole-algebra search, which rejects the three small
    shapes; otherwise ``split`` must be interior to the shape.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    shape = a.shape
    if split is None:
        if shape.is_small():
            raise SmallAlgebra(f"shape {list(shape.blocks)} is excluded")
    elif shape.m < 2 or not 1 <= split <= shape.m - 1:
        raise SplitInfeasible(f"split {split} is not interior to {list(shape.blocks)}")
    if a.norm() == 0.0 or b.norm() == 0.0:
        raise ZeroElement("path endpoints must be nonzero")
    if is_right_invertible(a, tol) or is_right_invertible(b, tol):
        raise RightInvertibleEndpoint("right-invertible endpoints are isolated")
    if projective_equal(a, b, tol):
        return OrthPath((a,), ())
    return None


def _first_chain(a: Element, b: Element, candidates, tol: Tolerances) -> list[Element]:
    """The first chain ``[a, *middles, b]`` whose edges all hold, over the
    candidate middles stably sorted by length.

    An edge holds when its vertices are not projectively equal and are
    mutually strongly orthogonal, decided without a certificate.  Each edge is
    decided at most once per call, keyed by the identity of its two vertex
    objects, so candidates that share a vertex share its edges' verdicts.
    Raises ``VerificationFailed`` when no candidate holds.
    """
    holds: dict[tuple[int, int], bool] = {}

    def edge_holds(u: Element, v: Element) -> bool:
        key = (id(u), id(v))
        if key not in holds:
            holds[key] = not projective_equal(u, v, tol) and mutual_strong(
                u, v, tol, want_certificate=False
            ).adjacent
        return holds[key]

    for middles in sorted(candidates, key=len):
        chain = [a, *middles, b]
        if all(edge_holds(u, v) for u, v in zip(chain, chain[1:])):
            return chain
    raise VerificationFailed("no candidate chain holds")


def _neighbor(a: Element) -> Element:
    """b = (1 - a a* / ||a||^2)^(1/2), the graph neighbor of a nonzero,
    non-right-invertible a; unverified (a path search decides its edge)."""
    na = a.norm()
    blocks = []
    for blk in a.blocks:
        n = blk.shape[0]
        g = np.eye(n) - (blk @ blk.conj().T) / (na * na)
        blocks.append(_linalg.psd_sqrt(g))
    b = Element(a.shape, blocks)
    if b.norm() == 0.0:
        raise VerificationFailed("witness collapsed to zero")
    return b


def non_isolated_witness(a: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> Element:
    """A verified graph neighbor of a non-right-invertible element.

    Normalizes a and returns b = (1 - a a*)^(1/2), which is nonzero exactly
    because a a* is singular; mutual orthogonality is re-verified before
    returning.  Right-invertible inputs raise ``Isolated``: they have no
    neighbors at all.
    """
    if a.norm() == 0.0:
        raise ZeroElement("the zero element is not a graph vertex")
    if is_right_invertible(a, tol):
        raise Isolated("right-invertible elements are isolated vertices")
    b = _neighbor(a)
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


def _kernel_end(e: Element, tol: Tolerances) -> tuple[Projection, np.ndarray, np.ndarray]:
    """(q_e, bottom, top): the rank-one projection q_e onto the deterministic
    bottom eigenvector of |e*| / ||e|| (a kernel vector of e* when e is not
    right invertible), that vector, and the top eigenvector.  Derived once
    per ``tol.eig`` and kept on e, so q_e is one object across all searches."""

    def derive():
        (idx, bottom), (_, top) = _blockwise_extreme_vectors(abs_star(e) * (1.0 / e.norm()), tol)
        return Projection.rank_one(e.shape, idx, bottom), bottom, top

    return e._cached(("kernel_end", tol.eig), derive)


def _rank2_bridge(a: Element, b: Element, tol: Tolerances) -> list[Element]:
    """Two rank-two projections P1, P2 with a -- P1 -- P2 -- b in a single
    block of size n >= 4, from the bottom (kernel) vectors u, v and the top
    vectors ta, tb of a and b; empty in other shapes or when a complement
    runs out.

    P1 spans u and an auxiliary u' orthogonal to the norm-attaining vector of
    a; u' is then matched against a vector v' chosen so the 2x2 pairing
    matrix between span(P1) and span(P2) is singular, which yields the
    mutually annihilating range vectors the middle edge needs.  The last
    constraint costs one dimension, hence n >= 4.
    """
    shape, n = a.shape, a.shape.blocks[0]
    if shape.m != 1 or n < 4:
        return []
    (_, u, ta), (_, v, tb) = _kernel_end(a, tol), _kernel_end(b, tol)
    comp_u = _linalg.orthonormal_complement([u, ta], n)
    if comp_u.shape[1] == 0:
        return []
    up = _linalg.canonical_unit_vector(comp_u)
    z = np.vdot(v, u) * up - np.vdot(v, up) * u
    avoid = [v, tb]
    if np.linalg.norm(z) > 1e-12:
        avoid.append(z / np.linalg.norm(z))
    comp_v = _linalg.orthonormal_complement(avoid, n)
    if comp_v.shape[1] == 0:
        return []
    vp = _linalg.canonical_unit_vector(comp_v)
    return [Element(shape, [_linalg.rank_one(u) + _linalg.rank_one(up)]),
            Element(shape, [_linalg.rank_one(v) + _linalg.rank_one(vp)])]


def _middle_candidates(a: Element, b: Element, tol: Tolerances) -> list[list[Element]]:
    """Candidate interior-vertex chains between a and b, shortest first.

    The final candidate (kernel projection, third projection, kernel
    projection) is the guaranteed fallback; everything before it is a
    trimming attempt."""
    qa, qb = _kernel_end(a, tol)[0], _kernel_end(b, tol)[0]
    r = third_projection(qa, qb, tol)
    ea, eb, er = qa.element, qb.element, r.element
    candidates: list[list[Element]] = [[], [ea], [er], [eb], [ea, eb]]
    bridge = _rank2_bridge(a, b, tol)
    if bridge:
        candidates.append(bridge)
    candidates.extend([[ea, er], [er, eb], [ea, er, eb]])
    return candidates


def connect(a: Element, b: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> OrthPath:
    """Shortest verified mutual-orthogonality path between two
    non-right-invertible elements; never longer than four edges.

    Candidate chains are tried shortest first, each distinct edge decided
    once without a certificate; the first chain that holds is re-verified
    with certificates by :func:`verify_path`.  Projectively equal endpoints
    give the single-vertex path of length zero.  The three small shapes are
    rejected outright: their graphs have no single nontrivial component for
    this construction to land in.
    """
    trivial = _endpoint_path(a, b, tol)
    if trivial is not None:
        return trivial
    return verify_path(_first_chain(a, b, _middle_candidates(a, b, tol), tol), tol)


def _witness_or_filler(comp: Element) -> Element:
    """The neighbor of a nonzero summand component, left to the path search
    to decide; for a zero one, a deterministic nonzero stand-in (any element
    works there: the edge conditions are vacuous)."""
    if comp.is_zero():
        return Element.rank_one_in_block(comp.shape, 0, np.eye(comp.shape.blocks[0])[:, 0])
    return _neighbor(comp)


def _not_approx_right_invertible(comp: Element, tol: Tolerances) -> bool:
    return comp.is_zero() or not is_right_invertible(comp, tol)


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
    most three edges, or lifts a chain found inside one summand.  The
    candidates of the plain :func:`connect` on the whole algebra are kept as a
    fallback.  As in :func:`connect`, candidates are tried shortest first,
    each distinct edge decided once without a certificate, and the first
    chain that holds is re-verified with certificates by :func:`verify_path`.
    """
    trivial = _endpoint_path(x, y, tol, split)
    if trivial is not None:
        return trivial
    shape = x.shape
    a1, b1 = split_element(x, split)
    a2, b2 = split_element(y, split)

    def lift_a(el: Element) -> Element:
        return embed(el, 0, shape)

    def lift_b(el: Element) -> Element:
        return embed(el, split, shape)

    candidates: list[list[Element]] = [[]]

    def cross_case(c1, lift1, c2, lift2):
        """x -- lift1(w1) -- lift2(w2) -- y with w's on opposite summands."""
        m1, m2 = lift1(_witness_or_filler(c1)), lift2(_witness_or_filler(c2))
        candidates.extend([[m1], [m2], [m1, m2]])

    if _not_approx_right_invertible(a1, tol) and _not_approx_right_invertible(b2, tol):
        cross_case(a1, lift_a, b2, lift_b)
    if _not_approx_right_invertible(b1, tol) and _not_approx_right_invertible(a2, tol):
        cross_case(b1, lift_b, a2, lift_a)

    def same_side_case(c1, c2, lift):
        """Both deficiencies in the same summand: lift a chain found there."""
        if c1.is_zero() or c2.is_zero() or projective_equal(c1, c2, tol):
            candidates.append([lift(_witness_or_filler(c2 if c1.is_zero() else c1))])
            return
        try:  # no certificates here: only the lifted winner gets them
            inner = _first_chain(c1, c2, _middle_candidates(c1, c2, tol), tol)
        except (SmallAlgebra, VerificationFailed):
            inner = None
        if inner is not None and len(inner) >= 3:
            candidates.append([lift(v) for v in inner[1:-1]])
            return
        # the summand chain is a single edge (or unavailable): pad with
        # kernel projections / the rank-two bridge / alternating witnesses
        l1, l2 = (lift(_kernel_end(c, tol)[0].element) for c in (c1, c2))
        candidates.extend([[l1], [l2]])
        bridge = _rank2_bridge(c1, c2, tol)
        if bridge:
            candidates.append([lift(p) for p in bridge])
        candidates.append([l1, l2])
        candidates.append([lift(_neighbor(c1)), lift(_neighbor(c2))])

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

    return verify_path(_first_chain(x, y, candidates, tol), tol)
