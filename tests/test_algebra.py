import json

import numpy as np
import pytest

from orthograph import (
    AlgebraShape,
    Element,
    InfeasibleRank,
    NotPositive,
    PositionOutOfRange,
    Projection,
    PureState,
    ShapeMismatch,
    Tolerances,
    ZeroElement,
    abs_star,
    direct_sum,
    element_from_json,
    element_to_json,
    embed,
    extract,
    is_right_invertible,
    join_projections,
    kernel_projection,
    minimal_projection_from_state,
    norm,
    projective_equal,
    sample_element,
    split_element,
    top_minimal_projection,
)
from orthograph.algebra import DEFAULT_TOLERANCES as TOL

from conftest import basis_element, e11_m2, e22_m2, random_element


# ---------------------------------------------------------------- shapes


def test_shape_invariants():
    s = AlgebraShape([2, 3, 1])
    assert s.m == 3
    assert s.total_dim == 6
    assert not s.is_small()
    for blocks in ([1], [1, 1], [2]):
        assert AlgebraShape(blocks).is_small()
    for blocks in ([3], [1, 2], [2, 2]):
        assert not AlgebraShape(blocks).is_small()
    with pytest.raises(ValueError):
        AlgebraShape([])
    with pytest.raises(ValueError):
        AlgebraShape([2, 0])


def test_element_validation():
    with pytest.raises(ShapeMismatch):
        Element([2], [np.zeros((3, 3))])
    with pytest.raises(ShapeMismatch):
        Element([2, 2], [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        Element([2], [np.array([[np.nan, 0], [0, 0]])])


def test_element_is_immutable():
    a = Element([2], [np.eye(2)])
    with pytest.raises(ValueError):
        a.blocks[0][0, 0] = 5.0


# ------------------------------------------------------------- arithmetic


def test_adjoint_of_nilpotent():
    a = Element([2], [np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert np.allclose(a.adjoint().blocks[0], np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_product_of_disjoint_units_is_zero():
    prod = e11_m2() @ e22_m2()
    assert prod.norm() == 0.0


def test_scalar_multiple_of_identity():
    a = 1j * Element.identity([2])
    assert np.allclose(a.blocks[0], np.diag([1j, 1j]))


def test_binary_ops_require_matching_shapes():
    with pytest.raises(ShapeMismatch):
        Element.identity([2]) + Element.identity([3])


# ------------------------------------------------------------------ norm


def test_norm_of_projection_and_block_max():
    assert norm(Element([2], [np.diag([1.0, 0.0])])) == pytest.approx(1.0)
    two = Element([2, 2], [np.diag([3.0, 0.0]), np.diag([0.0, 2.0])])
    assert norm(two) == pytest.approx(3.0)


def test_norm_matches_dense_svd(rng):
    for _ in range(50):
        a = random_element([3, 2], rng)
        dense = np.linalg.svd(a.assemble(), compute_uv=False)[0]
        assert abs(a.norm() - dense) <= 1e-12 * max(dense, 1.0)
    assert Element.zero([2, 3]).norm() == 0.0


def test_norm_homogeneous(rng):
    a = random_element([3], rng)
    lam = 2.0 - 1.5j
    assert (lam * a).norm() == pytest.approx(abs(lam) * a.norm())


# -------------------------------------------------------------- abs_star


def test_abs_star_of_nilpotent_is_projection():
    a = Element([2], [np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert np.allclose(abs_star(a).blocks[0], np.diag([1.0, 0.0]), atol=1e-12)


def test_abs_star_of_unitary_is_identity(rng):
    from orthograph import haar_unitary

    u = Element([3], [haar_unitary(3, rng)])
    assert (abs_star(u) - Element.identity([3])).norm() <= 1e-12


def test_abs_star_squares_back(rng):
    for _ in range(50):
        a = random_element([3, 2], rng)
        h = abs_star(a)
        diff = h @ h - a @ a.adjoint()
        assert diff.norm() <= 1e-10 * max(1.0, a.norm() ** 2)


# ------------------------------------------------------- invertibility


def test_right_invertibility_basics():
    assert is_right_invertible(Element.identity([3]))
    assert not is_right_invertible(Element([2], [np.diag([1.0, 0.0])]))
    mixed = direct_sum(Element.identity([2]), Element([2], [np.diag([1.0, 0.0])]))
    assert not is_right_invertible(mixed)
    with pytest.raises(ZeroElement):
        is_right_invertible(Element.zero([2]))


def test_full_rank_samples_are_invertible():
    for seed in range(1000):
        a = sample_element([3], "full", seed)
        assert is_right_invertible(a)


# ------------------------------------------------------ kernel projection


def test_kernel_projection_examples():
    p = kernel_projection(Element([2], [np.diag([1.0, 0.0])]))
    assert np.allclose(p.element.blocks[0], np.diag([0.0, 1.0]), atol=1e-12)
    assert p.rank == 1

    z = kernel_projection(Element([2], [np.diag([2.0, 1.0])]))
    assert z.rank == 0
    assert z.element.norm() <= 1e-12

    p3 = kernel_projection(Element([3], [np.diag([1.0, 1.0, 0.0])]))
    assert np.allclose(p3.element.blocks[0], np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_kernel_projection_rejects_non_positive():
    with pytest.raises(NotPositive):
        kernel_projection(Element([2], [np.array([[0.0, 1.0], [0.0, 0.0]])]))
    with pytest.raises(NotPositive):
        kernel_projection(Element([2], [np.diag([1.0, -1.0])]))


def test_deficient_sample_has_kernel_rank_one():
    for seed in range(50):
        a = sample_element([3], "deficient:1", seed)
        p = kernel_projection(abs_star(a) * (1.0 / a.norm()))
        assert p.rank == 1


# --------------------------------------------------------- top projection


def test_top_projection_examples():
    p = top_minimal_projection(Element([2], [np.diag([2.0, 1.0])]))
    assert np.allclose(p.element.blocks[0], np.diag([1.0, 0.0]), atol=1e-12)
    diff = np.diag([2.0, 1.0]) / 2.0 - p.element.blocks[0]
    assert np.linalg.eigvalsh(diff)[0] >= -1e-12

    tie = top_minimal_projection(Element.identity([2]))
    assert np.allclose(tie.element.blocks[0], np.diag([1.0, 0.0]), atol=1e-12)

    with pytest.raises(ZeroElement):
        top_minimal_projection(Element.zero([2]))


def test_top_projection_dominated_random(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = Element([n], [g @ g.conj().T])
        p = top_minimal_projection(a)
        diff = (a * (1.0 / a.norm()) - p.element).blocks[0]
        assert np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[0] >= -1e-9


# ----------------------------------------------------------- pure states


def test_state_projection_examples():
    rho = PureState(AlgebraShape([2]), 0, [1.0, 0.0])
    p = minimal_projection_from_state(rho)
    assert np.allclose(p.element.blocks[0], np.diag([1.0, 0.0]))

    rho2 = PureState(AlgebraShape([2, 2]), 1, [1.0, 0.0])
    p2 = minimal_projection_from_state(rho2)
    assert p2.element.blocks[0].max() == 0.0
    assert np.allclose(p2.element.blocks[1], np.diag([1.0, 0.0]))


def test_state_evaluation_properties(rng):
    from orthograph import random_pure_state

    shape = AlgebraShape([3, 2])
    rho = random_pure_state(shape, rng)
    assert complex(rho(Element.identity(shape))) == pytest.approx(1.0)
    a = random_element(shape, rng)
    b = random_element(shape, rng)
    lin = rho(a + (2.0 + 1j) * b)
    assert lin == pytest.approx(rho(a) + (2.0 + 1j) * rho(b))
    pos = a @ a.adjoint()
    assert complex(rho(pos)).real >= -1e-12


def test_state_compression_identity(rng):
    from orthograph import random_pure_state

    shape = AlgebraShape([3, 2])
    for _ in range(50):
        rho = random_pure_state(shape, rng)
        a = random_element(shape, rng)
        p = minimal_projection_from_state(rho).element
        assert (p @ a @ p - rho(a) * p).norm() <= 1e-10 * a.norm()


def test_state_validation():
    with pytest.raises(ValueError):
        PureState(AlgebraShape([2]), 0, [1.0, 1.0])
    with pytest.raises(PositionOutOfRange):
        PureState(AlgebraShape([2]), 1, [1.0, 0.0])


# ------------------------------------------------------------------ join


def test_join_examples(rng):
    shape = AlgebraShape([2])
    p = Projection.rank_one(shape, 0, [1.0, 0.0])
    q = Projection.rank_one(shape, 0, [0.0, 1.0])
    j = join_projections(p, q)
    assert np.allclose(j.element.blocks[0], np.eye(2), atol=1e-12)

    assert (join_projections(p, p).element - p.element).norm() <= 1e-12

    q2 = Projection.rank_one(shape, 0, np.array([1.0, 1.0]) / np.sqrt(2.0))
    j2 = join_projections(p, q2)
    # independent rank oracle on the stacked range bases
    stacked = np.stack([p.support_vector(), q2.support_vector()], axis=1)
    assert np.linalg.matrix_rank(stacked) == 2
    assert np.allclose(j2.element.blocks[0], np.eye(2), atol=1e-10)
    comp = Projection.from_element(j2.element - p.element)
    assert comp.rank == 1


def test_join_contracts_random(rng):
    for _ in range(50):
        n = int(rng.integers(2, 5))
        shape = AlgebraShape([n])
        p = Projection.rank_one(shape, 0, rng.normal(size=n) + 1j * rng.normal(size=n))
        q = Projection.rank_one(shape, 0, rng.normal(size=n) + 1j * rng.normal(size=n))
        j = join_projections(p, q).element
        assert (j @ p.element - p.element).norm() <= 1e-9
        assert (j @ q.element - q.element).norm() <= 1e-9


# --------------------------------------------------------- embed / extract


def test_embed_extract_examples():
    e = embed(e11_m2(), 0, AlgebraShape([2, 2]))
    assert np.allclose(e.blocks[0], np.diag([1.0, 0.0]))
    assert e.blocks[1].max() == 0.0

    c = direct_sum(Element.identity([2]), e11_m2())
    got = extract(c, 1)
    assert got.shape == AlgebraShape([2])
    assert np.allclose(got.blocks[0], np.diag([1.0, 0.0]))

    with pytest.raises(PositionOutOfRange):
        extract(c, 2)
    with pytest.raises(ShapeMismatch):
        embed(Element.identity([3]), 0, AlgebraShape([2, 2]))


def test_embed_extract_round_trip(rng):
    target = AlgebraShape([2, 3, 2])
    a = random_element([3, 2], rng)
    back = extract(embed(a, 1, target), 1, 2)
    assert back.shape == a.shape
    for x, y in zip(back.blocks, a.blocks):
        assert np.array_equal(x, y)


def test_split_element(rng):
    x = random_element([2, 3, 1], rng)
    left, right = split_element(x, 1)
    assert left.shape == AlgebraShape([2])
    assert right.shape == AlgebraShape([3, 1])
    assert (direct_sum(left, right) - x).norm() == 0.0


# ------------------------------------------------------- projective_equal


def test_projective_equal_examples(rng):
    a = random_element([2, 2], rng)
    assert projective_equal(a, 3j * a)
    assert not projective_equal(e11_m2(), e22_m2())
    with pytest.raises(ZeroElement):
        projective_equal(a, Element.zero([2, 2]))


def test_projective_distinguishes_perturbation(rng):
    tol = TOL
    for _ in range(20):
        a = random_element([3], rng)
        d = random_element([3], rng)
        # remove the component parallel to a, then rescale
        coeff = np.vdot(a.blocks[0], d.blocks[0]) / np.vdot(a.blocks[0], a.blocks[0])
        d = d - complex(coeff) * a
        pert = a + (10 * tol.orth * a.norm() / d.norm()) * d
        assert not projective_equal(a, pert, tol)


# ---------------------------------------------------------- serialization


def test_element_json_round_trip(rng):
    a = random_element([2, 3], rng)
    back = element_from_json(element_to_json(a))
    assert back.shape == a.shape
    for x, y in zip(back.blocks, a.blocks):
        assert np.array_equal(x, y)


def test_element_json_schema():
    payload = json.loads(element_to_json(e11_m2()))
    assert payload["shape"] == [2]
    assert payload["blocks"][0][0][0] == [1.0, 0.0]
    assert payload["blocks"][0][1][1] == [0.0, 0.0]


def test_element_json_errors():
    from orthograph import ParseError

    with pytest.raises(ParseError):
        element_from_json("{not json")
    with pytest.raises(ParseError):
        element_from_json('{"shape": [2]}')
    with pytest.raises(ParseError):
        element_from_json('{"shape": [2], "blocks": [[[[1, 0]]]]}')


# -------------------------------------------------------------- sampling


def test_sampling_rank_profiles():
    td = AlgebraShape([2, 2]).total_dim
    with pytest.raises(ZeroElement):
        sample_element([2, 2], f"deficient:{td}", 0)
    with pytest.raises(InfeasibleRank):
        sample_element([2, 2], f"deficient:{td + 1}", 0)
    with pytest.raises(InfeasibleRank):
        sample_element([2], "projection:5", 0)

    for seed in range(30):
        a = sample_element([2, 3], "deficient:2", seed)
        svals = np.linalg.svd(a.assemble(), compute_uv=False)
        assert np.sum(svals > 1e-8 * svals[0]) == 3

    for seed in range(30):
        p = sample_element([2, 2], "projection:2", seed)
        proj = Projection.from_element(p)
        assert proj.rank == 2


def test_sampling_is_deterministic():
    a = sample_element([3, 2], "deficient:1", 12345)
    b = sample_element([3, 2], "deficient:1", 12345)
    assert (a - b).norm() == 0.0


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(orth=0.0)
    t = Tolerances()
    assert t.proj == 1e-9 and t.vec == 1e-9
    assert t.eig == 1e-8 and t.ker == 1e-8 and t.orth == 1e-7


def test_right_invertibility_is_kept_per_ker_tolerance():
    # a a* has eigenvalues 1, 1, 4e-8: invertible at ker 1e-8, not at 1e-7
    def element():
        return Element([3], [np.diag([1.0, 1.0, 2e-4])])

    tols = (TOL, Tolerances(ker=1e-7), TOL, Tolerances(ker=1e-7))
    a = element()
    reused = [is_right_invertible(a, tol) for tol in tols]
    fresh = [is_right_invertible(element(), tol) for tol in tols]
    assert reused == fresh == [True, False, True, False]
