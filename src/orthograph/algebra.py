"""Elements of finite-dimensional C*-algebras (direct sums of full complex
matrix algebras) and their spectral machinery.

An algebra is described by an :class:`AlgebraShape`, a list of block sizes
``[n1, ..., nm]``; its elements are tuples of square complex blocks carried by
:class:`Element`.  The operator norm of an element is the maximum of the
block operator norms, which equals the spectral norm of the assembled
block-diagonal matrix.  All operations are pure; elements are immutable after
construction and safe to share between threads (derived data an element
memoizes is a pure function of its read-only blocks, so a race at worst
derives it twice).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import (
    NotPositive,
    ParseError,
    PositionOutOfRange,
    ShapeMismatch,
    ZeroElement,
)

__all__ = [
    "AlgebraShape",
    "Element",
    "Projection",
    "PureState",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "norm",
    "abs_star",
    "is_right_invertible",
    "kernel_projection",
    "top_minimal_projection",
    "minimal_projection_from_state",
    "join_projections",
    "embed",
    "extract",
    "direct_sum",
    "split_element",
    "projective_equal",
    "element_to_json",
    "element_from_json",
    "save_element",
    "load_element",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used throughout the package.

    proj    absolute defect allowed on projection identities (p = p*, p^2 = p)
    vec     absolute defect allowed on unit vectors
    eig     relative width of the norm-attaining eigenvalue cluster
    ker     relative threshold below which singular values count as kernel
    orth    relative margin for orthogonality verdicts; the indeterminate
            band is |margin| <= 2 * orth
    """

    proj: float = 1e-9
    vec: float = 1e-9
    eig: float = 1e-8
    ker: float = 1e-8
    orth: float = 1e-7

    def __post_init__(self):
        for name in ("proj", "vec", "eig", "ker", "orth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"tolerance {name} must be positive")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class AlgebraShape:
    """Block sizes [n1, ..., nm] of the algebra M_{n1} + ... + M_{nm}."""

    blocks: tuple[int, ...]

    def __init__(self, blocks):
        blocks = tuple(int(n) for n in blocks)
        if len(blocks) < 1 or any(n < 1 for n in blocks):
            raise ValueError("shape needs at least one block of size >= 1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(self.blocks)

    def is_small(self) -> bool:
        """True for the three exceptional shapes [1], [1,1] and [2], whose
        orthogonality graphs do not have a single nontrivial component."""
        return self.blocks in ((1,), (1, 1), (2,))

    def block_slices(self) -> list[slice]:
        out, off = [], 0
        for n in self.blocks:
            out.append(slice(off, off + n))
            off += n
        return out

    def __repr__(self):
        return f"AlgebraShape({list(self.blocks)})"


def _as_blocks(shape: AlgebraShape, blocks) -> tuple[np.ndarray, ...]:
    if len(blocks) != shape.m:
        raise ShapeMismatch(f"expected {shape.m} blocks, got {len(blocks)}")
    out = []
    for i, (n, blk) in enumerate(zip(shape.blocks, blocks)):
        a = np.asarray(blk, dtype=complex)
        if a.shape != (n, n):
            raise ShapeMismatch(f"block {i} must be {n}x{n}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"block {i} contains non-finite entries")
        out.append(_read_only(a.copy()))
    return tuple(out)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Element:
    """A block-diagonal complex matrix, the resident of the algebra.

    Blocks are read-only copies, so data derived from them is computed at
    most once and kept on the element: the norm, the normalized blocks and
    normalized assembled matrix, the right-invertibility verdict for each
    ``tol.ker``, the blocks scaled by a power of two to a norm in [1/2, 1)
    and, for each ``tol.eig``, the norm-attaining basis and singular gap (in
    :mod:`orthograph.orthogonality`) and the kernel projection with its
    spectral end vectors (in :mod:`orthograph.paths`).
    Every operation returns a new element with nothing memoized.
    """

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __init__(self, shape, blocks):
        if not isinstance(shape, AlgebraShape):
            shape = AlgebraShape(shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "blocks", _as_blocks(shape, blocks))
        object.__setattr__(self, "_memo", {})

    def _cached(self, key, derive):
        """The value of ``derive()``, computed on first use of ``key``."""
        memo = self._memo
        if key not in memo:
            memo[key] = derive()
        return memo[key]

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls, shape) -> "Element":
        shape = shape if isinstance(shape, AlgebraShape) else AlgebraShape(shape)
        return cls(shape, [np.zeros((n, n)) for n in shape.blocks])

    @classmethod
    def identity(cls, shape) -> "Element":
        shape = shape if isinstance(shape, AlgebraShape) else AlgebraShape(shape)
        return cls(shape, [np.eye(n) for n in shape.blocks])

    @classmethod
    def rank_one_in_block(cls, shape, block_index: int, vector) -> "Element":
        """The rank-one element v v* supported in a single block."""
        shape = shape if isinstance(shape, AlgebraShape) else AlgebraShape(shape)
        if not 0 <= block_index < shape.m:
            raise PositionOutOfRange(f"block {block_index} not in shape {shape}")
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.shape[0] != shape.blocks[block_index]:
            raise ShapeMismatch("vector length does not match block size")
        blocks = [np.zeros((n, n)) for n in shape.blocks]
        blocks[block_index] = _linalg.rank_one(v)
        return cls(shape, blocks)

    # --- arithmetic ----------------------------------------------------
    def _binary(self, other, op):
        if not isinstance(other, Element):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        return Element(self.shape, [op(a, b) for a, b in zip(self.blocks, other.blocks)])

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __matmul__(self, other):
        return self._binary(other, np.matmul)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return Element(self.shape, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def adjoint(self) -> "Element":
        return Element(self.shape, [b.conj().T for b in self.blocks])

    # --- structure -----------------------------------------------------
    def assemble(self) -> np.ndarray:
        """Dense block-diagonal matrix of size total_dim x total_dim."""
        n = self.shape.total_dim
        out = np.zeros((n, n), dtype=complex)
        for sl, blk in zip(self.shape.block_slices(), self.blocks):
            out[sl, sl] = blk
        return out

    def norm(self) -> float:
        return self._cached("norm", lambda: max(_linalg.opnorm(b) for b in self.blocks))

    def normalized_blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only blocks of a / ||a|| (nonzero elements only)."""
        return self._cached(
            "normalized_blocks", lambda: tuple(_read_only(b / self.norm()) for b in self.blocks)
        )

    def normalized_matrix(self) -> np.ndarray:
        """Read-only assembled matrix of a / ||a|| (nonzero elements only)."""
        return self._cached("normalized_matrix", lambda: _read_only(self.assemble() / self.norm()))

    def is_zero(self) -> bool:
        return all(np.all(b == 0) for b in self.blocks)

    def __repr__(self):
        return f"Element(shape={list(self.shape.blocks)}, norm={self.norm():.4g})"


def norm(a: Element) -> float:
    """Operator norm: the maximum over blocks of the largest singular value."""
    return a.norm()


def abs_star(a: Element) -> Element:
    """The positive square root of a a*, computed blockwise."""
    return Element(a.shape, [_linalg.psd_sqrt(b @ b.conj().T) for b in a.blocks])


def is_right_invertible(a: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff a a* is invertible, i.e. the smallest eigenvalue of a a*
    across all blocks exceeds ``tol.ker * norm(a)^2``.

    Equivalently: every vector state is strictly positive on a a*.  In these
    algebras this single check also decides approximate right invertibility.
    Derived once per ``tol.ker`` and kept on a.
    """
    na = a.norm()
    if na == 0.0:
        raise ZeroElement("zero element is neither invertible nor a vertex")
    cut = tol.ker * na * na
    return a._cached(("right_invertible", tol.ker), lambda: not any(
        np.linalg.eigvalsh(_linalg.hermitian_part(b @ b.conj().T))[0] <= cut for b in a.blocks))


def _validate_psd(a: Element, tol: Tolerances) -> float:
    na = a.norm()
    scale = max(na, 1.0)
    for b in a.blocks:
        if _linalg.opnorm(b - b.conj().T) > tol.proj * scale:
            raise NotPositive("element is not Hermitian within tolerance")
        w = np.linalg.eigvalsh(_linalg.hermitian_part(b))
        if w.size and w[0] < -tol.proj * scale:
            raise NotPositive("element has a negative eigenvalue")
    return na


@dataclass(frozen=True)
class Projection:
    """A validated orthogonal projection with per-block rank bookkeeping."""

    element: Element
    block_ranks: tuple[int, ...]

    @property
    def shape(self) -> AlgebraShape:
        return self.element.shape

    @property
    def rank(self) -> int:
        return sum(self.block_ranks)

    def minimal(self) -> bool:
        return self.rank == 1

    @classmethod
    def from_element(cls, el: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> "Projection":
        ranks = []
        for b in el.blocks:
            if _linalg.opnorm(b - b.conj().T) > tol.proj:
                raise ValueError("projection candidate is not Hermitian")
            if _linalg.opnorm(b @ b - b) > tol.proj:
                raise ValueError("projection candidate is not idempotent")
            w = np.linalg.eigvalsh(_linalg.hermitian_part(b))
            # idempotency within tol.proj pins eigenvalues to {0, 1} within
            # 2 * tol.proj, so this window cannot miscount
            ranks.append(int(np.sum(np.abs(w - 1.0) <= 2 * tol.proj)))
        return cls(el, tuple(ranks))

    @classmethod
    def rank_one(cls, shape, block_index: int, vector) -> "Projection":
        el = Element.rank_one_in_block(shape, block_index, np.asarray(vector) / np.linalg.norm(vector))
        ranks = [0] * el.shape.m
        ranks[block_index] = 1
        return cls(el, tuple(ranks))

    def support_block(self) -> int:
        """Index of the unique block carrying a rank-one projection."""
        from .errors import NotMinimal

        if not self.minimal():
            raise NotMinimal("projection has total rank != 1")
        return next(i for i, r in enumerate(self.block_ranks) if r == 1)

    def support_vector(self) -> np.ndarray:
        """Unit vector spanning the range of a rank-one projection."""
        i = self.support_block()
        w, u = np.linalg.eigh(_linalg.hermitian_part(self.element.blocks[i]))
        return u[:, -1]


def kernel_projection(a: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> Projection:
    """Orthogonal projection onto the kernel of a positive element.

    The kernel is read off blockwise from eigenvalues ``<= tol.ker * norm(a)``;
    a positive definite input yields the zero projection.
    """
    na = _validate_psd(a, tol)
    cut = tol.ker * na
    blocks, ranks = [], []
    for b in a.blocks:
        w, u = np.linalg.eigh(_linalg.hermitian_part(b))
        cols = u[:, w <= cut]
        blocks.append(cols @ cols.conj().T)
        ranks.append(cols.shape[1])
    return Projection(Element(a.shape, blocks), tuple(ranks))


def _blockwise_extreme_vectors(a: Element, tol: Tolerances) -> tuple[tuple[int, np.ndarray], ...]:
    """Deterministic (block, unit vector) for the bottom and for the top
    eigenvalue cluster of a Hermitian element, cluster width
    ``tol.eig * norm(a)``, from one eigendecomposition per block.  The top
    end is the bottom end of -a."""
    width = tol.eig * max(a.norm(), 1e-300)
    spectra = [np.linalg.eigh(_linalg.hermitian_part(b)) for b in a.blocks]
    ends = []
    for sign, end in ((1.0, 0), (-1.0, -1)):
        best = min(sign * w[end] for w, _ in spectra)
        idx = next(i for i, (w, _) in enumerate(spectra) if sign * w[end] <= best + width)
        w, u = spectra[idx]
        ends.append((idx, _linalg.canonical_unit_vector(u[:, sign * w <= best + width])))
    return tuple(ends)


def top_minimal_projection(a: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> Projection:
    """Rank-one projection p = x x* onto a deterministic top eigenvector of a
    positive element; satisfies a p = norm(a) p and p <= a / norm(a).

    Degenerate top eigenspaces are resolved by the canonical tie-break
    (projection of the lowest-index coordinate axis, phase made real
    positive), so the output is reproducible.
    """
    na = _validate_psd(a, tol)
    if na == 0.0:
        raise ZeroElement("zero element has no top projection")
    idx, v = _blockwise_extreme_vectors(a, tol)[1]
    return Projection.rank_one(a.shape, idx, v)


def minimal_projection_from_state(rho: "PureState") -> Projection:
    """The rank-one projection v v* carried by a vector state: compressing any
    element by it multiplies the projection by the state's value."""
    return Projection.rank_one(rho.shape, rho.block_index, rho.vector)


def join_projections(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOLERANCES) -> Projection:
    """Projection onto range(p) + range(q), computed blockwise as the range
    projection of p + q with relative eigenvalue threshold ``tol.ker``."""
    if p.shape != q.shape:
        raise ShapeMismatch(f"{p.shape} vs {q.shape}")
    blocks, ranks = [], []
    for bp, bq in zip(p.element.blocks, q.element.blocks):
        s = _linalg.hermitian_part(bp + bq)
        w, u = np.linalg.eigh(s)
        top = w[-1] if w.size else 0.0
        cols = u[:, w > tol.ker * max(top, 1.0)]
        blocks.append(cols @ cols.conj().T)
        ranks.append(cols.shape[1])
    return Projection(Element(p.shape, blocks), tuple(ranks))


@dataclass(frozen=True)
class PureState:
    """A vector state: evaluation is x -> <block_x v, v> for a unit vector v
    living in exactly one block."""

    shape: AlgebraShape
    block_index: int
    vector: np.ndarray = field(repr=False)

    def __init__(self, shape, block_index, vector, tol: Tolerances = DEFAULT_TOLERANCES):
        shape = shape if isinstance(shape, AlgebraShape) else AlgebraShape(shape)
        if not 0 <= block_index < shape.m:
            raise PositionOutOfRange(f"block {block_index} not in shape {shape}")
        v = np.asarray(vector, dtype=complex).reshape(-1).copy()
        if v.shape[0] != shape.blocks[block_index]:
            raise ShapeMismatch("state vector length does not match block size")
        if abs(np.linalg.norm(v) - 1.0) > tol.vec:
            raise ValueError("state vector must be a unit vector")
        v.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "block_index", block_index)
        object.__setattr__(self, "vector", v)

    def __call__(self, a: Element) -> complex:
        if a.shape != self.shape:
            raise ShapeMismatch(f"{a.shape} vs {self.shape}")
        v = self.vector
        return complex(np.vdot(v, a.blocks[self.block_index] @ v))


# --- direct-sum placement ----------------------------------------------

def embed(a: Element, position: int, target) -> Element:
    """Place a's blocks at block offset ``position`` of the target shape,
    zero elsewhere.  The target's blocks at that offset must match a's shape."""
    target = target if isinstance(target, AlgebraShape) else AlgebraShape(target)
    m = a.shape.m
    if not 0 <= position <= target.m - m:
        raise PositionOutOfRange(f"position {position} with {m} blocks exceeds {target}")
    if target.blocks[position : position + m] != a.shape.blocks:
        raise ShapeMismatch("target blocks at position do not match element shape")
    blocks = [np.zeros((n, n)) for n in target.blocks]
    for i, b in enumerate(a.blocks):
        blocks[position + i] = b
    return Element(target, blocks)


def extract(c: Element, position: int, nblocks: int = 1) -> Element:
    """Return the sub-element of ``nblocks`` consecutive blocks starting at
    ``position``; the exact inverse of :func:`embed`."""
    if not 0 <= position <= c.shape.m - nblocks or nblocks < 1:
        raise PositionOutOfRange(f"blocks [{position}, {position + nblocks}) not in {c.shape}")
    sub = AlgebraShape(c.shape.blocks[position : position + nblocks])
    return Element(sub, list(c.blocks[position : position + nblocks]))


def direct_sum(a: Element, b: Element) -> Element:
    return Element(AlgebraShape(a.shape.blocks + b.shape.blocks), list(a.blocks) + list(b.blocks))


def split_element(x: Element, split: int) -> tuple[Element, Element]:
    """Split into (first ``split`` blocks, rest)."""
    if not 1 <= split <= x.shape.m - 1:
        raise PositionOutOfRange(f"split {split} not interior to {x.shape}")
    return extract(x, 0, split), extract(x, split, x.shape.m - split)


def projective_equal(a: Element, b: Element, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff a = lambda b for some complex lambda, within ``tol.orth``.

    The candidate lambda is the Frobenius least-squares coefficient
    tr(b* a) / tr(b* b); the residual is then checked in operator norm.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        raise ZeroElement("projective comparison needs nonzero elements")
    num = sum(complex(np.vdot(bb, ba)) for ba, bb in zip(a.blocks, b.blocks))
    den = sum(float(np.vdot(bb, bb).real) for bb in b.blocks)
    lam = num / den
    resid = max(_linalg.opnorm(ba - lam * bb) for ba, bb in zip(a.blocks, b.blocks))
    return resid <= tol.orth * na


# --- serialization -------------------------------------------------------
# The on-disk format is the only file interface of the package:
#   { "shape": [n1, ...], "blocks": [ [[[re, im], ...], ...], ... ] }
# with one row-major matrix of [re, im] pairs per block.

def _element_payload(a: Element) -> dict:
    """The JSON-ready payload of an element; graph files and the CLI's JSON
    reports embed one per element."""
    return {
        "shape": list(a.shape.blocks),
        "blocks": [
            [[[float(z.real), float(z.imag)] for z in row] for row in blk]
            for blk in a.blocks
        ],
    }


def _element_from_payload(payload) -> Element:
    """Inverse of :func:`_element_payload`; raises ``ParseError``."""
    try:
        shape = AlgebraShape(payload["shape"])
        blocks = []
        for blk in payload["blocks"]:
            mat = np.array([[complex(re, im) for re, im in row] for row in blk])
            blocks.append(mat)
        return Element(shape, blocks)
    except (KeyError, TypeError, ValueError, ShapeMismatch) as exc:
        raise ParseError(f"malformed element payload: {exc}") from exc


def element_to_json(a: Element) -> str:
    return json.dumps(_element_payload(a), separators=(",", ":"), sort_keys=True)


def element_from_json(text: str) -> Element:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return _element_from_payload(payload)


def save_element(a: Element, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(element_to_json(a))
        fh.write("\n")


def load_element(path) -> Element:
    with open(path, "r", encoding="utf-8") as fh:
        return element_from_json(fh.read())
