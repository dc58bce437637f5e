"""Cross-module property suites.

Each suite draws seeded samples, checks one verified behavior of the library
and reports pass/fail plus how many samples fell into the indeterminate tie
band (band samples are skipped, never counted as failures).  The CLI `verify`
command runs all suites; the acceptance tests run the core ones at pinned
sample counts.
"""

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import (
    DEFAULT_TOLERANCES,
    AlgebraShape,
    Element,
    Projection,
    PureState,
    Tolerances,
    abs_star,
    direct_sum,
    embed,
    is_right_invertible,
    join_projections,
    minimal_projection_from_state,
    projective_equal,
    top_minimal_projection,
)
from .orthogonality import (
    brute_force_min_lambda,
    bj_orthogonal,
    mutual_strong,
    projection_witness_check,
    state_witness_check,
    strong_bj,
)
from .paths import connect, connect_direct_sum, non_isolated_witness, third_projection
from .sampling import (
    haar_unitary,
    random_pure_state,
    sample_element,
    standard_normal_complex,
)

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_all"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    samples: int
    failures: int
    indeterminate: int
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" band={self.indeterminate}" if self.indeterminate else ""
        note = f" ({self.detail})" if self.detail else ""
        return f"{status:4s} {self.name:34s} samples={self.samples} failures={self.failures}{extra}{note}"


SUITES: dict = {}


def _suite(default_samples: int, max_samples: int | None = None):
    """Register a suite; ``max_samples`` caps user overrides for suites whose
    cost grows quadratically in the sample count (graph-sized suites)."""

    def register(fn):
        SUITES[fn.__name__] = (fn, default_samples, max_samples)
        return fn

    return register


def run_suite(name: str, samples: int | None = None, seed: int = 0,
              tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    fn, default, cap = SUITES[name]
    n = samples or default
    if cap is not None:
        n = min(n, cap)
    return fn(n, seed, tol)


def run_all(samples: int | None = None, seed: int = 0,
            tol: Tolerances = DEFAULT_TOLERANCES) -> list[SuiteResult]:
    return [run_suite(name, samples, seed, tol) for name in SUITES]


def _result(name, samples, failures, indet, detail="") -> SuiteResult:
    return SuiteResult(name, samples, failures, indet, failures == 0, detail)


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


_E11 = Element([2], [np.diag([1.0, 0.0])])
_E22 = Element([2], [np.diag([0.0, 1.0])])
_I2 = Element.identity([2])


# --------------------------------------------------------------------------
# algebra-level suites


@_suite(1000)
def cstar_identity(samples, seed, tol):
    """norm(a a*) equals norm(a)^2 to high relative accuracy."""
    rng = _rng(seed, 1)
    shape = AlgebraShape([3, 2])
    fails = 0
    for _ in range(samples):
        a = sample_element(shape, "full", rng)
        lhs = (a @ a.adjoint()).norm()
        if abs(lhs - a.norm() ** 2) > 1e-9 * a.norm() ** 2:
            fails += 1
    return _result("cstar_identity", samples, fails, 0)


@_suite(500)
def abs_value_fixes_projections(samples, seed, tol):
    """abs_star is the identity on projections."""
    rng = _rng(seed, 2)
    fails = 0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        u = haar_unitary(n, rng)[:, :k]
        p = Element([n], [u @ u.conj().T])
        if (abs_star(p) - p).norm() > 1e-10:
            fails += 1
    return _result("abs_value_fixes_projections", samples, fails, 0)


@_suite(500)
def top_projection_dominated(samples, seed, tol):
    """The deterministic top projection p of positive a satisfies
    p <= a / norm(a) (checked by eigenvalue nonnegativity)."""
    rng = _rng(seed, 3)
    fails = 0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        g = standard_normal_complex(rng, (n, n))
        a = Element([n], [g @ g.conj().T])
        p = top_minimal_projection(a, tol)
        diff = a * (1.0 / a.norm()) - p.element
        wmin = min(np.linalg.eigvalsh(_linalg.hermitian_part(b))[0] for b in diff.blocks)
        if wmin < -1e-9:
            fails += 1
    return _result("top_projection_dominated", samples, fails, 0)


@_suite(500)
def state_compression_identity(samples, seed, tol):
    """The projection carried by a vector state compresses every element to
    the state's value: p a p = rho(a) p."""
    rng = _rng(seed, 4)
    shape = AlgebraShape([3, 2])
    fails = 0
    for i in range(samples):
        rho = random_pure_state(shape, rng)
        a = sample_element(shape, "full", rng)
        p = minimal_projection_from_state(rho).element
        resid = (p @ a @ p - rho(a) * p).norm()
        if resid > 1e-9 * a.norm():
            fails += 1
    return _result("state_compression_identity", samples, fails, 0)


@_suite(500)
def join_annihilation(samples, seed, tol):
    """r p = r q = 0 forces r to annihilate the join p v q as well."""
    rng = _rng(seed, 5)
    fails = 0
    for _ in range(samples):
        n = int(rng.integers(3, 6))
        shape = AlgebraShape([n])
        u = haar_unitary(n, rng)
        p = Projection.rank_one(shape, 0, u[:, 0])
        qv = (u[:, 0] + u[:, 1]) / np.sqrt(2.0)
        q = Projection.rank_one(shape, 0, qv)
        r = Element([n], [_linalg.rank_one(u[:, 2])])
        join = join_projections(p, q, tol).element
        if (join @ r).norm() > 1e-9:
            fails += 1
    return _result("join_annihilation", samples, fails, 0)


@_suite(500)
def rank_one_join_complement(samples, seed, tol):
    """For distinct rank-one p, q in one block, (p v q) - p is again a valid
    rank-one projection."""
    rng = _rng(seed, 6)
    fails = 0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        shape = AlgebraShape([n])
        p = Projection.rank_one(shape, 0, standard_normal_complex(rng, n))
        q = Projection.rank_one(shape, 0, standard_normal_complex(rng, n))
        if projective_equal(p.element, q.element, tol):
            continue
        join = join_projections(p, q, tol)
        comp = join.element - p.element
        try:
            proj = Projection.from_element(comp, tol)
        except ValueError:
            fails += 1
            continue
        if proj.rank != 1:
            fails += 1
    return _result("rank_one_join_complement", samples, fails, 0)


@_suite(100)
def disjoint_projection_domination(samples, seed, tol):
    """Regression for the finite-dimensional separation argument: when
    p q = 0, the element a = p itself satisfies 0 <= a <= 1, a p = p and
    a q = 0 exactly."""
    rng = _rng(seed, 7)
    fails = 0
    for _ in range(samples):
        n = int(rng.integers(2, 6))
        u = haar_unitary(n, rng)
        p = u[:, :1] @ u[:, :1].conj().T
        q = u[:, 1:2] @ u[:, 1:2].conj().T
        a = p
        w = np.linalg.eigvalsh(_linalg.hermitian_part(a))
        ok = (
            w[0] >= -1e-12
            and w[-1] <= 1 + 1e-12
            and np.linalg.norm(a @ p - p, 2) <= 1e-12
            and np.linalg.norm(a @ q, 2) <= 1e-12
        )
        if not ok:
            fails += 1
    return _result("disjoint_projection_domination", samples, fails, 0)


# --------------------------------------------------------------------------
# orthogonality suites


def _pair(shape: AlgebraShape, rng) -> tuple[Element, Element]:
    profiles = ["full", "deficient:1", "projection:1"]
    a = sample_element(shape, profiles[int(rng.integers(3))], rng)
    b = sample_element(shape, profiles[int(rng.integers(3))], rng)
    return a, b


@_suite(500)
def scalar_invariance(samples, seed, tol):
    """Mutual verdicts do not depend on nonzero scalar multiples."""
    rng = _rng(seed, 8)
    shape = AlgebraShape([2, 2])
    fails = indet = 0
    for _ in range(samples):
        a, b = _pair(shape, rng)
        mu = complex(*rng.normal(size=2))
        nu = complex(*rng.normal(size=2))
        if abs(mu) < 1e-3 or abs(nu) < 1e-3:
            continue
        d1 = mutual_strong(a, b, tol, want_certificate=False)
        d2 = mutual_strong(mu * a, nu * b, tol, want_certificate=False)
        if d1.indeterminate or d2.indeterminate:
            indet += 1
        elif d1.verdicts != d2.verdicts:
            fails += 1
    return _result("scalar_invariance", samples, fails, indet)


@_suite(500)
def abs_value_reduction(samples, seed, tol):
    """Strong orthogonality of a pair agrees with strong orthogonality of
    the absolute values (a a*)^(1/2), (b b*)^(1/2), outside the tie band."""
    rng = _rng(seed, 9)
    shape = AlgebraShape([3])
    fails = indet = 0
    for _ in range(samples):
        a, b = _pair(shape, rng)
        d1 = strong_bj(a, b, tol, want_certificate=False)
        d2 = strong_bj(abs_star(a), abs_star(b), tol, want_certificate=False)
        if d1.indeterminate or d2.indeterminate:
            indet += 1
        elif d1.verdict != d2.verdict:
            fails += 1
    return _result("abs_value_reduction", samples, fails, indet)


@_suite(500)
def ambient_invariance(samples, seed, tol):
    """Verdicts are unchanged when both elements are embedded as the first
    summand of a larger algebra."""
    rng = _rng(seed, 10)
    n = 3
    shape = AlgebraShape([n])
    fails = indet = 0
    for _ in range(samples):
        a, b = _pair(shape, rng)
        base = strong_bj(a, b, tol, want_certificate=False)
        if base.indeterminate:
            indet += 1
            continue
        for k in (1, 2, 3):
            big = AlgebraShape([n, k])
            d = strong_bj(embed(a, 0, big), embed(b, 0, big), tol, want_certificate=False)
            if d.indeterminate:
                indet += 1
            elif d.verdict != base.verdict:
                fails += 1
    return _result("ambient_invariance", samples, fails, indet)


@_suite(500)
def state_witness_soundness(samples, seed, tol):
    """A passing state certificate always comes with a True strong verdict."""
    rng = _rng(seed, 11)
    fails = checked = 0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        shape = AlgebraShape([n])
        a = sample_element(shape, "deficient:1", rng)
        ah = abs_star(a) * (1.0 / a.norm())
        w, u = np.linalg.eigh(_linalg.hermitian_part(ah.blocks[0]))
        bvec = u[:, 0]
        tvec = u[:, -1]
        b = Element(shape, [_linalg.rank_one(bvec)])
        rho = PureState(shape, 0, tvec)
        if not state_witness_check(a, b, rho, tol):
            fails += 1
            continue
        checked += 1
        if not strong_bj(a, b, tol, want_certificate=False).verdict:
            fails += 1
    return _result("state_witness_soundness", samples, fails, 0,
                   detail=f"{checked} certificates")


@_suite(500)
def projection_witness_soundness(samples, seed, tol):
    """A passing projection certificate (p a = p, p b = 0) always comes with
    a True strong verdict for a against b."""
    rng = _rng(seed, 12)
    fails = checked = 0
    for _ in range(samples):
        n = int(rng.integers(3, 6))
        shape = AlgebraShape([n])
        g = standard_normal_complex(rng, (n, n))
        am = g @ g.conj().T
        a = Element(shape, [am / np.linalg.norm(am, 2)])
        p = top_minimal_projection(a, tol)
        v = p.support_vector()
        comp = _linalg.orthonormal_complement([v], n)
        c = comp @ standard_normal_complex(rng, (comp.shape[1], comp.shape[1]))
        bm = c @ c.conj().T
        b = Element(shape, [bm / np.linalg.norm(bm, 2)])
        if not projection_witness_check(p, a, b, tol):
            fails += 1
            continue
        checked += 1
        if not strong_bj(a, b, tol, want_certificate=False).verdict:
            fails += 1
    return _result("projection_witness_soundness", samples, fails, 0,
                   detail=f"{checked} certificates")


@_suite(150)
def oracle_consistency(samples, seed, tol, grid_n: int = 120, refine_steps: int = 40,
                       shapes=((2,), (3,), (2, 2))):
    """The numerical-range decision and the grid oracle agree on every pair
    whose margin lies outside the tie band."""
    fails = indet = total = 0
    for si, blocks in enumerate(shapes):
        shape = AlgebraShape(list(blocks))
        rng = _rng(seed, 13 + si)
        for _ in range(samples):
            a, b = _pair(shape, rng)
            dec = bj_orthogonal(a, b, tol, want_certificate=False)
            total += 1
            if dec.indeterminate:
                indet += 1
                continue
            _, achieved = brute_force_min_lambda(a, b, grid_n, refine_steps)
            oracle_true = achieved >= a.norm() * (1.0 - tol.orth)
            if oracle_true != dec.verdict:
                fails += 1
    return _result("oracle_consistency", total, fails, indet)


@_suite(1)
def mixed_direction_regression(samples, seed, tol):
    """Permanent asymmetry case: the identity is strongly orthogonal to a
    rank-one projection but not conversely, while the swapped direct-sum
    pair is mutually orthogonal with margins outside the tie band."""
    d1 = strong_bj(_I2, _E11, tol)
    d2 = strong_bj(_E11, _I2, tol)
    x = direct_sum(_I2, _E11)
    y = direct_sum(_E11, _I2)
    m = mutual_strong(x, y, tol)
    ok = (
        d1.verdict
        and not d2.verdict
        and m.verdicts == (True, True)
        and not d1.indeterminate
        and not d2.indeterminate
        and not m.indeterminate
    )
    return _result("mixed_direction_regression", 1, 0 if ok else 1, 0)


# --------------------------------------------------------------------------
# path suites


@_suite(20)
def path_soundness_and_diameter(samples, seed, tol,
                                shapes=((3,), (4,), (5,), (2, 3), (3, 3))):
    """connect returns fully verified paths of length <= 4 between random
    non-right-invertible elements in every tested shape."""
    fails = total = 0
    for si, blocks in enumerate(shapes):
        shape = AlgebraShape(list(blocks))
        rng = _rng(seed, 20 + si)
        for _ in range(samples):
            a = sample_element(shape, "deficient:1", rng)
            b = sample_element(shape, "deficient:1", rng)
            total += 1
            try:
                path = connect(a, b, tol)
            except Exception:
                fails += 1
                continue
            if path.length > 4:
                fails += 1
                continue
            if any(not d.adjacent for d in path.edge_decisions):
                fails += 1
    return _result("path_soundness_and_diameter", total, fails, 0)


@_suite(10, max_samples=60)
def small_algebra_behavior(samples, seed, tol, candidates_per_vertex: int = 200):
    """The three excluded shapes always raise, and every rank-one vertex of
    the 2x2 algebra sees exactly one projective neighbor class among many
    random candidates plus its canonical partner."""
    from .errors import SmallAlgebra as SA
    from .sampling import random_rank_one_pair

    fails = 0
    for blocks in ([1], [1, 1], [2]):
        shape = AlgebraShape(blocks)
        p = Projection.rank_one(shape, 0, np.eye(shape.blocks[0])[:, 0])
        q = Projection.rank_one(shape, shape.m - 1, np.eye(shape.blocks[-1])[:, 0])
        try:
            third_projection(p, q, tol)
            fails += 1
        except SA:
            pass
        a = sample_element(shape, "full", 1)
        b = sample_element(shape, "full", 2)
        try:
            connect(a, b, tol)
            fails += 1
        except SA:
            pass

    rng = _rng(seed, 30)
    for _ in range(samples):
        v = random_rank_one_pair([2], rng)
        partner = non_isolated_witness(v, tol)
        neighbors = [partner]
        for _ in range(candidates_per_vertex):
            z = random_rank_one_pair([2], rng)
            if mutual_strong(v, z, tol, want_certificate=False).adjacent:
                neighbors.append(z)
        classes: list[Element] = []
        for z in neighbors:
            if not any(projective_equal(z, c, tol) for c in classes):
                classes.append(z)
        if len(classes) != 1:
            fails += 1
    return _result("small_algebra_behavior", samples, fails, 0)


@_suite(30)
def direct_sum_bound(samples, seed, tol):
    """Cross-deficiency pairs in a two-summand algebra resolve in at most
    three edges; fully degenerate ones collapse to a single edge."""
    rng = _rng(seed, 31)
    shape2 = AlgebraShape([2])
    fails = total = 0
    for _ in range(samples):
        a1 = sample_element(shape2, "deficient:1", rng)
        b1 = sample_element(shape2, "full", rng)
        a2 = sample_element(shape2, "full", rng)
        b2 = sample_element(shape2, "deficient:1", rng)
        x = direct_sum(a1, b1)
        y = direct_sum(a2, b2)
        total += 1
        try:
            path = connect_direct_sum(x, y, tol, split=1)
        except Exception:
            fails += 1
            continue
        if path.length > 3:
            fails += 1
    # degenerate: zero components on the crossing slots
    for _ in range(max(1, samples // 3)):
        x = direct_sum(Element.zero([2]), sample_element(shape2, "deficient:1", rng))
        y = direct_sum(sample_element(shape2, "deficient:1", rng), Element.zero([2]))
        total += 1
        path = connect_direct_sum(x, y, tol, split=1)
        if path.length != 1:
            fails += 1
    return _result("direct_sum_bound", total, fails, 0)


@_suite(20)
def large_block_distance(samples, seed, tol):
    """With all blocks of size >= 4, constructed paths never exceed three
    edges."""
    rng = _rng(seed, 32)
    shape = AlgebraShape([4, 5])
    fails = 0
    for _ in range(samples):
        a = sample_element(shape, "deficient:1", rng)
        b = sample_element(shape, "deficient:1", rng)
        try:
            path = connect_direct_sum(a, b, tol, split=1)
        except Exception:
            fails += 1
            continue
        if path.length > 3:
            fails += 1
    return _result("large_block_distance", samples, fails, 0)


@_suite(200)
def componentwise_edges(samples, seed, tol):
    """Summandwise mutual orthogonality lifts to the direct sum."""
    rng = _rng(seed, 33)
    shape = AlgebraShape([3])
    fails = indet = 0
    for _ in range(samples):
        a1 = sample_element(shape, "deficient:1", rng)
        b1 = sample_element(shape, "deficient:1", rng)
        a2 = non_isolated_witness(a1, tol)
        b2 = non_isolated_witness(b1, tol)
        d = mutual_strong(direct_sum(a1, b1), direct_sum(a2, b2), tol, want_certificate=False)
        if d.indeterminate:
            indet += 1
        elif d.verdicts != (True, True):
            fails += 1
    return _result("componentwise_edges", samples, fails, indet)


# --------------------------------------------------------------------------
# graph suites


@_suite(12, max_samples=30)
def adjacency_symmetry(samples, seed, tol):
    """Built adjacency matrices are symmetric with a false diagonal and all
    edges re-verify."""
    from .graph import build_graph, sample_vertices

    fails = 0
    for si, blocks in enumerate(([2], [3], [2, 2])):
        verts = sample_vertices(blocks, samples, seed=[seed, 40 + si], tol=tol)
        g = build_graph(verts, tol)
        if not np.array_equal(g.adjacency, g.adjacency.T) or np.any(np.diag(g.adjacency)):
            fails += 1
            continue
        for i in range(g.order):
            for j in range(i + 1, g.order):
                if g.adjacency[i, j]:
                    if not mutual_strong(g.vertices[i], g.vertices[j], tol,
                                         want_certificate=False).adjacent:
                        fails += 1
    return _result("adjacency_symmetry", 3, fails, 0)


@_suite(40, max_samples=200)
def isolated_iff_invertible(samples, seed, tol):
    """Right-invertible vertices are isolated; all other vertices admit a
    verified neighbor."""
    from .graph import classify_isolated, sample_vertices

    fails = total = 0
    for si, blocks in enumerate(([2], [3], [2, 2])):
        verts = sample_vertices(blocks, samples, seed=[seed, 50 + si], tol=tol)
        rep = classify_isolated(verts, tol)
        total += len(verts)
        for i in rep.isolated:
            if not is_right_invertible(verts[i], tol):
                fails += 1
        for i in rep.candidates:
            w = rep.witnesses[i]
            if not mutual_strong(verts[i], w, tol, want_certificate=False).adjacent:
                fails += 1
    return _result("isolated_iff_invertible", total, fails, 0)


@_suite(10, max_samples=14)
def augmented_connectivity(samples, seed, tol):
    """After augmentation every non-right-invertible vertex lies in one
    component with observed distances at most four."""
    from .graph import augment_with_paths, build_graph, components_and_distances, sample_vertices

    fails = 0
    for si, blocks in enumerate(([3], [4], [2, 3])):
        verts = sample_vertices(blocks, samples, seed=[seed, 60 + si], tol=tol)
        g = augment_with_paths(build_graph(verts, tol), tol)
        rep = components_and_distances(g)
        noniso = [i for i, v in enumerate(g.vertices) if not is_right_invertible(v, tol)]
        comps = [c for c in rep.components if any(i in noniso for i in c)]
        if len(comps) != 1:
            fails += 1
            continue
        comp = comps[0]
        dmax = max(rep.eccentricity[i] for i in comp if i in noniso)
        if dmax > 4 or any(i not in comp for i in noniso):
            fails += 1
        # degree zero on the augmented graph characterizes invertibility
        degree_zero = set(int(i) for i in np.nonzero(g.degrees() == 0)[0])
        if degree_zero != set(range(g.order)) - set(noniso):
            fails += 1
    return _result("augmented_connectivity", 3, fails, 0)
