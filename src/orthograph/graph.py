"""Sampled orthogonality graphs: adjacency, components, augmentation, export.

Vertices are nonzero elements up to scalar multiples (projective classes);
edges are determinate mutual strong orthogonality.  Pairs whose decision
margin falls inside the tie band are excluded from adjacency and reported
separately, so graph claims stay conservative.  Distances measured on a
sampled subgraph only over-estimate distances in the full projective space;
reports label them as observed upper bounds.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_TOLERANCES,
    AlgebraShape,
    Element,
    Tolerances,
    _element_from_payload,
    _element_payload,
    is_right_invertible,
    projective_equal,
)
from .errors import ParseError, ShapeMismatch, SmallAlgebra, VerificationFailed, ZeroElement
from .orthogonality import mutual_strong
from .paths import connect, non_isolated_witness
from .sampling import sample_element

__all__ = [
    "Orthograph",
    "ComponentReport",
    "IsolationReport",
    "build_graph",
    "classify_isolated",
    "components_and_distances",
    "augment_with_paths",
    "export_graph",
    "graph_from_json",
    "sample_vertices",
]

GRAPH_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Orthograph:
    """A sampled vertex set with verified adjacency.

    adjacency[i, j] is True only when mutual strong orthogonality held in
    both directions with margins outside the tie band; tie-band pairs are
    listed in indeterminate_pairs instead.
    """

    shape: AlgebraShape
    vertices: tuple[Element, ...]
    adjacency: np.ndarray
    indeterminate_pairs: tuple[tuple[int, int], ...]
    provenance: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=0)

    def __repr__(self):
        edges = int(self.adjacency.sum()) // 2
        return f"Orthograph(order={self.order}, edges={edges})"


@dataclass(frozen=True)
class ComponentReport:
    """Connected components and observed (upper-bound) distance statistics."""

    components: tuple[tuple[int, ...], ...]
    isolated: tuple[int, ...]
    eccentricity: dict
    diameters: tuple[int, ...]
    histogram: dict


@dataclass(frozen=True)
class IsolationReport:
    """Constructive classification: right-invertible vertices are isolated,
    every other vertex comes with a verified neighbor."""

    isolated: tuple[int, ...]
    candidates: tuple[int, ...]
    witnesses: dict


def _check_vertices(vertices) -> tuple[AlgebraShape, list[Element]]:
    vertices = list(vertices)
    if not vertices:
        raise ZeroElement("graph needs at least one vertex")
    shape = vertices[0].shape
    for v in vertices:
        if v.shape != shape:
            raise ShapeMismatch("all vertices must share one shape")
        if v.norm() == 0.0:
            raise ZeroElement("the zero element is not a graph vertex")
    return shape, vertices


def _insert_vertex(verts: list[Element], adj: np.ndarray, indet: set, w: Element,
                   tol: Tolerances) -> tuple[int, np.ndarray]:
    """The index of w's projective class among verts (the first projectively
    equal vertex), and the adjacency.  A w that verts already holds is found
    by identity, without the scan: each held vertex passed the scan when it
    was admitted, so its own index is the one the scan would return.  A new w
    is appended and decided against every earlier vertex: its edges go into
    the grown adjacency returned, its tie-band pairs into indet."""
    held = next((i for i, u in enumerate(verts) if u is w), None)
    if held is not None:
        return held, adj
    for i, u in enumerate(verts):
        if projective_equal(w, u, tol):
            return i, adj
    m = len(verts) + 1
    grown = np.zeros((m, m), dtype=bool)
    grown[: m - 1, : m - 1] = adj
    for i, u in enumerate(verts):
        dec = mutual_strong(u, w, tol, want_certificate=False)
        if dec.indeterminate:
            indet.add((i, m - 1))
        elif dec.adjacent:
            grown[i, m - 1] = grown[m - 1, i] = True
    verts.append(w)
    return m - 1, grown


def build_graph(vertices, tol: Tolerances = DEFAULT_TOLERANCES, provenance: dict | None = None) -> Orthograph:
    """Evaluate all pairwise adjacencies over a projectively deduplicated
    vertex list (first occurrence of each class is kept), inserting the
    vertices one by one as :func:`augment_with_paths` does."""
    shape, vertices = _check_vertices(vertices)
    verts, adj, indet = [], np.zeros((0, 0), dtype=bool), set()
    for w in vertices:
        adj = _insert_vertex(verts, adj, indet, w, tol)[1]
    return Orthograph(shape, tuple(verts), adj, tuple(sorted(indet)), dict(provenance or {}))


def classify_isolated(vertices, tol: Tolerances = DEFAULT_TOLERANCES) -> IsolationReport:
    """Split vertices into isolated (right invertible) and connectable ones,
    attaching a verified neighbor to each of the latter."""
    _, vertices = _check_vertices(vertices)
    isolated, candidates, witnesses = [], [], {}
    for i, v in enumerate(vertices):
        if is_right_invertible(v, tol):
            isolated.append(i)
        else:
            candidates.append(i)
            witnesses[i] = non_isolated_witness(v, tol)
    return IsolationReport(tuple(isolated), tuple(candidates), witnesses)


def _distances(adj: np.ndarray, cap: int | None = None) -> np.ndarray:
    """All-pairs shortest-path lengths, -1 where no path (of at most cap
    edges, when cap is given) exists.  The reached set grows one edge at a
    time by a matrix product."""
    n = adj.shape[0]
    dist = np.where(np.eye(n, dtype=bool), 0, -1)
    reached = np.eye(n, dtype=np.float32)
    step = adj.astype(np.float32)
    for k in range(1, (n if cap is None else cap) + 1):
        new = (reached @ step > 0) & (dist < 0)
        if not new.any():
            break
        dist[new] = k
        reached[new] = 1.0
    return dist


def components_and_distances(g: Orthograph) -> ComponentReport:
    """Connected components, eccentricities and the histogram of observed
    shortest-path lengths (upper bounds for the full graph's distances)."""
    d = _distances(g.adjacency)
    components: list[tuple[int, ...]] = []
    seen = np.zeros(g.order, dtype=bool)
    for s in range(g.order):
        if not seen[s]:
            members = np.nonzero(d[s] >= 0)[0]
            seen[members] = True
            components.append(tuple(int(i) for i in members))
    ecc = {int(i): int(e) for i, e in enumerate(d.max(axis=1, initial=0))}
    diameters = tuple(max(ecc[i] for i in comp) for comp in components)
    upper = d[np.triu_indices(g.order, 1)]
    lengths, counts = np.unique(upper[upper >= 0], return_counts=True)
    hist = dict(zip(lengths.tolist(), counts.tolist()))
    isolated = tuple(int(i) for i in np.nonzero(g.degrees() == 0)[0])
    return ComponentReport(tuple(components), isolated, ecc, diameters, hist)


def augment_with_paths(g: Orthograph, tol: Tolerances = DEFAULT_TOLERANCES) -> Orthograph:
    """Join all non-right-invertible vertices into one component with
    pairwise observed distance <= 4, inserting verified path vertices as
    needed.

    A path's interior vertices are deduplicated against existing vertices
    (its ends are the vertices it joins); each new vertex is linked against
    the whole graph so added structure is reusable.
    """
    if g.shape.is_small():
        raise SmallAlgebra(f"shape {list(g.shape.blocks)} is excluded")
    verts: list[Element] = list(g.vertices)
    n = len(verts)
    adj = np.array(g.adjacency, dtype=bool).copy()
    indet = {tuple(sorted(p)) for p in g.indeterminate_pairs}

    guard = 0
    limit = 4 * (n * n + 16)
    while True:
        noniso = np.flatnonzero([not is_right_invertible(v, tol) for v in verts])
        far = np.argwhere(np.triu(_distances(adj, 4)[np.ix_(noniso, noniso)] < 0, 1))
        if far.size == 0:
            break
        guard += 1
        if guard > limit:
            raise VerificationFailed("augmentation did not converge")
        i, j = noniso[far[0]]
        path = connect(verts[i], verts[j], tol)
        prev = i
        for v in path.vertices[1:-1]:
            k, adj = _insert_vertex(verts, adj, indet, v, tol)
            adj[prev, k] = adj[k, prev] = True
            prev = k
        if path.length:
            adj[prev, j] = adj[j, prev] = True

    # a lone non-invertible vertex has no partner to pair with above, but it
    # is still not isolated: attach its verified witness so that degree zero
    # characterizes right invertibility on the augmented graph
    for i in range(len(verts)):
        if not adj[i].any() and not is_right_invertible(verts[i], tol):
            j, adj = _insert_vertex(verts, adj, indet, non_isolated_witness(verts[i], tol), tol)
            adj[i, j] = adj[j, i] = True

    prov = dict(g.provenance)
    prov["augmented"] = True
    return Orthograph(g.shape, tuple(verts), adj, tuple(sorted(indet)), prov)


# --------------------------------------------------------------------------
# export / import


def graph_to_json(g: Orthograph) -> str:
    payload = {
        "format_version": GRAPH_FORMAT_VERSION,
        "shape": list(g.shape.blocks),
        "vertices": [_element_payload(v) for v in g.vertices],
        "adjacency": [[bool(x) for x in row] for row in g.adjacency],
        "indeterminate_pairs": [list(p) for p in g.indeterminate_pairs],
        "provenance": g.provenance,
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def graph_from_json(text: str) -> Orthograph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        if payload["format_version"] != GRAPH_FORMAT_VERSION:
            raise ParseError(f"unsupported format_version {payload['format_version']}")
        shape = AlgebraShape(payload["shape"])
        vertices = tuple(_element_from_payload(v) for v in payload["vertices"])
        adj = np.array(payload["adjacency"], dtype=bool)
        if adj.shape != (len(vertices), len(vertices)):
            raise ParseError("adjacency size does not match vertex count")
        indet = tuple((int(i), int(j)) for i, j in payload["indeterminate_pairs"])
        return Orthograph(shape, vertices, adj, indet, dict(payload.get("provenance", {})))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph payload: {exc}") from exc


def graph_to_dot(g: Orthograph) -> str:
    """Graphviz rendering: degree-0 vertices are filled gray, tie-band pairs
    appear as dashed edges."""
    deg = g.degrees()
    indeg = set()
    for i, j in g.indeterminate_pairs:
        indeg.add(i)
        indeg.add(j)
    lines = ["graph orthograph {", "  node [shape=circle];"]
    for i in range(g.order):
        if deg[i] == 0 and i not in indeg:
            lines.append(f'  v{i} [style=filled, fillcolor=lightgray];')
        else:
            lines.append(f"  v{i};")
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if g.adjacency[i, j]:
                lines.append(f"  v{i} -- v{j};")
    for i, j in g.indeterminate_pairs:
        lines.append(f"  v{i} -- v{j} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(g: Orthograph, fmt: str) -> str:
    if fmt == "dot":
        return graph_to_dot(g)
    if fmt == "json":
        return graph_to_json(g)
    raise ValueError(f"unknown export format {fmt!r}")


# --------------------------------------------------------------------------
# vertex sampling


def sample_vertices(shape, count: int, seed, tol: Tolerances = DEFAULT_TOLERANCES) -> list[Element]:
    """Seeded vertex mix for graph experiments: 40% rank deficient, 30%
    random projections, 20% witnesses of earlier deficient vertices, 10%
    full rank (uniform dense sampling almost surely yields only isolated
    vertices, so deficiency is deliberately over-represented)."""
    shape = shape if isinstance(shape, AlgebraShape) else AlgebraShape(shape)
    rng = np.random.default_rng(seed)
    td = shape.total_dim
    n_def = max(1, round(0.4 * count))
    n_proj = round(0.3 * count)
    n_wit = round(0.2 * count)
    n_full = max(0, count - n_def - n_proj - n_wit)

    out: list[Element] = []
    deficient: list[Element] = []
    for _ in range(n_def):
        k = 1 + int(rng.integers(0, 2)) if td > 2 else 1
        v = sample_element(shape, f"deficient:{k}", rng)
        deficient.append(v)
        out.append(v)
    for _ in range(n_proj):
        k = 1 + int(rng.integers(0, max(1, td - 1)))
        out.append(sample_element(shape, f"projection:{k}", rng))
    for i in range(n_wit):
        base = deficient[i % len(deficient)]
        out.append(non_isolated_witness(base, tol))
    for _ in range(n_full):
        out.append(sample_element(shape, "full", rng))
    return out[:count]
