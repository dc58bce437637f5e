import numpy as np
import pytest

from orthograph import (
    AlgebraShape,
    Element,
    Isolated,
    NotMinimal,
    Projection,
    RightInvertibleEndpoint,
    ShapeMismatch,
    SmallAlgebra,
    SplitInfeasible,
    VerificationFailed,
    ZeroElement,
    connect,
    connect_direct_sum,
    direct_sum,
    mutual_strong,
    non_isolated_witness,
    projective_equal,
    sample_element,
    third_projection,
    verify_path,
)

from conftest import e11_m2, e22_m2


def diag3(*vals):
    return Element([3], [np.diag(np.array(vals, dtype=float))])


# --------------------------------------------------------------- witness


def test_witness_examples():
    w = non_isolated_witness(e11_m2())
    assert np.allclose(w.blocks[0], np.diag([0.0, 1.0]), atol=1e-12)
    assert mutual_strong(e11_m2(), w, want_certificate=False).adjacent

    with pytest.raises(Isolated):
        non_isolated_witness(Element.identity([2]))
    with pytest.raises(ZeroElement):
        non_isolated_witness(Element.zero([2]))

    w3 = non_isolated_witness(diag3(1, 1, 0))
    assert np.allclose(w3.blocks[0], np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_witness_scales_input(rng):
    for i in range(25):
        a = 7.5 * sample_element([2, 3], "deficient:1", i)
        w = non_isolated_witness(a)
        assert w.norm() > 0
        assert mutual_strong(a, w, want_certificate=False).adjacent


# -------------------------------------------------------- third projection


def test_third_projection_examples():
    p = Projection.rank_one(AlgebraShape([3]), 0, [1.0, 0.0, 0.0])
    q = Projection.rank_one(AlgebraShape([3]), 0, [0.0, 1.0, 0.0])
    r = third_projection(p, q)
    assert np.allclose(r.element.blocks[0], np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    for blocks in ([1], [1, 1], [2]):
        shape = AlgebraShape(blocks)
        a = Projection.rank_one(shape, 0, np.eye(shape.blocks[0])[:, 0])
        b = Projection.rank_one(shape, shape.m - 1, np.eye(shape.blocks[-1])[:, 0])
        with pytest.raises(SmallAlgebra):
            third_projection(a, b)

    p = Projection.rank_one(AlgebraShape([2, 1]), 0, [1.0, 0.0])
    q = Projection.rank_one(AlgebraShape([2, 1]), 0, [0.0, 1.0])
    r = third_projection(p, q)
    assert r.element.blocks[0].max() == 0.0
    assert r.element.blocks[1][0, 0] == pytest.approx(1.0)
    # exact annihilation
    assert (r.element @ p.element).norm() == 0.0
    assert (r.element @ q.element).norm() == 0.0


def test_third_projection_validation():
    shape = AlgebraShape([3])
    p = Projection.rank_one(shape, 0, [1.0, 0.0, 0.0])
    q = Projection.rank_one(AlgebraShape([4]), 0, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ShapeMismatch):
        third_projection(p, q)
    full = Projection.from_element(Element.identity([3]))
    with pytest.raises(NotMinimal):
        third_projection(p, full)


def test_third_projection_annihilates_random(rng):
    for i in range(50):
        n = int(rng.integers(3, 6))
        shape = AlgebraShape([n])
        p = Projection.rank_one(shape, 0, rng.normal(size=n) + 1j * rng.normal(size=n))
        q = Projection.rank_one(shape, 0, rng.normal(size=n) + 1j * rng.normal(size=n))
        r = third_projection(p, q)
        assert (r.element @ p.element).norm() <= 1e-12
        assert (r.element @ q.element).norm() <= 1e-12


# ----------------------------------------------------------------- connect


def test_connect_trims_to_direct_edge():
    path = connect(diag3(1, 1, 0), diag3(0, 1, 1))
    assert path.length == 1
    assert all(d.adjacent for d in path.edge_decisions)


def test_connect_projectively_equal_endpoints():
    path = connect(diag3(1, 0, 0), (2.0 + 1j) * diag3(1, 0, 0))
    assert path.length == 0
    assert len(path.vertices) == 1


def test_connect_errors():
    with pytest.raises(SmallAlgebra):
        connect(e11_m2(), e22_m2())
    with pytest.raises(SmallAlgebra):
        connect(Element([1], [[[1.0]]]), Element([1], [[[2.0]]]))
    with pytest.raises(RightInvertibleEndpoint):
        connect(Element.identity([3]), diag3(1, 1, 0))
    with pytest.raises(ZeroElement):
        connect(Element.zero([3]), diag3(1, 1, 0))
    with pytest.raises(ShapeMismatch):
        connect(diag3(1, 1, 0), Element.identity([4]))


@pytest.mark.parametrize("blocks", [[3], [4], [5], [2, 3], [3, 3]])
def test_connect_bound_and_soundness(blocks):
    shape = AlgebraShape(blocks)
    for i in range(15):
        a = sample_element(shape, "deficient:1", 3000 + i)
        b = sample_element(shape, "deficient:1", 4000 + i)
        path = connect(a, b)
        assert path.length <= 4
        assert len(path.edge_decisions) == path.length
        for d in path.edge_decisions:
            assert d.adjacent
        for u, v in zip(path.vertices, path.vertices[1:]):
            assert not projective_equal(u, v)


def test_connect_single_large_block_is_three_edges():
    for i in range(15):
        a = sample_element([4], "deficient:1", 5000 + i)
        b = sample_element([4], "deficient:1", 6000 + i)
        assert connect(a, b).length <= 3


# ------------------------------------------------------------- direct sums


def test_direct_sum_cross_pair_and_degenerate():
    # the swapped identity/projection pair is itself an edge
    x = direct_sum(e11_m2(), Element.identity([2]))
    y = direct_sum(Element.identity([2]), e11_m2())
    path = connect_direct_sum(x, y, split=1)
    assert path.length == 1

    xz = direct_sum(Element.zero([2]), e11_m2())
    yz = direct_sum(e22_m2(), Element.zero([2]))
    assert connect_direct_sum(xz, yz, split=1).length == 1


def test_direct_sum_shared_invertible_component():
    # deficiencies on the same summand next to a shared identity: the pair
    # is already an edge (the identity block keeps both norms attained), so
    # the shortest verified path has a single edge
    i2 = Element.identity([2])
    x = direct_sum(i2, e11_m2())
    y = direct_sum(i2, e22_m2())
    path = connect_direct_sum(x, y, split=1)
    assert path.length <= 2
    assert all(d.adjacent for d in path.edge_decisions)


def test_direct_sum_case1_is_at_most_three():
    for i in range(20):
        x = direct_sum(
            sample_element([2], "deficient:1", 7000 + i),
            sample_element([2], "full", 7100 + i),
        )
        y = direct_sum(
            sample_element([2], "full", 7200 + i),
            sample_element([2], "deficient:1", 7300 + i),
        )
        path = connect_direct_sum(x, y, split=1)
        assert path.length <= 3
        for d in path.edge_decisions:
            assert d.adjacent


def test_direct_sum_same_side_lifting():
    # deficiency on the same summand in both endpoints
    for i in range(10):
        x = direct_sum(
            sample_element([2], "full", 7400 + i),
            sample_element([3], "deficient:1", 7500 + i),
        )
        y = direct_sum(
            sample_element([2], "full", 7600 + i),
            sample_element([3], "deficient:1", 7700 + i),
        )
        path = connect_direct_sum(x, y, split=1)
        assert path.length <= 4
        # interior vertices live purely in the second summand
        for v in path.vertices[1:-1]:
            assert v.blocks[0].max() == 0.0


def test_direct_sum_m2_summands_fall_back():
    # both deficiencies on an excluded 2x2 summand still resolve via the
    # whole-algebra fallback within the global bound
    for i in range(10):
        x = direct_sum(
            sample_element([2], "full", 7800 + i),
            sample_element([2], "deficient:1", 7900 + i),
        )
        y = direct_sum(
            sample_element([2], "full", 8000 + i),
            sample_element([2], "deficient:1", 8100 + i),
        )
        path = connect_direct_sum(x, y, split=1)
        assert path.length <= 4


def test_direct_sum_errors():
    with pytest.raises(SplitInfeasible):
        connect_direct_sum(diag3(1, 1, 0), diag3(0, 1, 1), split=1)
    x = direct_sum(e11_m2(), Element.identity([2]))
    with pytest.raises(SplitInfeasible):
        connect_direct_sum(x, x, split=2)
    with pytest.raises(RightInvertibleEndpoint):
        connect_direct_sum(
            Element.identity([2, 2]),
            direct_sum(e11_m2(), Element.identity([2])),
            split=1,
        )


def test_direct_sum_projectively_equal():
    x = direct_sum(e11_m2(), Element.identity([2]))
    assert connect_direct_sum(x, -2.0 * x, split=1).length == 0


# ------------------------------------------------------------- verify_path


def test_verify_path_accepts_and_rejects():
    good = verify_path([e11_m2(), e22_m2()])
    assert good.length == 1

    with pytest.raises(VerificationFailed):
        verify_path([e11_m2(), 2.0 * e11_m2()])  # projectively equal
    with pytest.raises(VerificationFailed):
        verify_path([e11_m2(), Element.identity([2])])  # not mutual
    with pytest.raises(ZeroElement):
        verify_path([e11_m2(), Element.zero([2])])


# ------------------------------------------------------------- path search


def _deficient_pair(shape, i):
    return (sample_element(shape, "deficient:1", 9000 + i),
            sample_element(shape, "deficient:1", 9500 + i))


def _same_side_pair(i):
    """Full [2] + deficient [3] endpoints: both deficiencies lie in the second
    summand, so connect_direct_sum lifts a chain found there."""

    def one(seed):
        return direct_sum(sample_element([2], "full", seed), sample_element([3], "deficient:1", seed + 1))

    return one(9800 + 2 * i), one(9900 + 2 * i)


def _block_ranks(v):
    return "+".join(str(int(np.sum(np.linalg.svd(b, compute_uv=False) > 1e-8 * v.norm()))) for b in v.blocks)


def _edge_verdicts(e):
    """Forward then backward verdict, lower case inside the tie band."""
    codes = [("T" if d.verdict else "F", d.indeterminate) for d in (e.forward, e.backward)]
    return "".join(c.lower() if banded else c for c, banded in codes)


# Length, per-block ranks of the interior vertices and edge verdicts of the
# paths built for pairs 0-4 of each case, recorded before the two path
# searches were merged into one.
_L4 = (4, ("1", "1", "1"), "TT TT TT TT")
_L3_RANK2 = (3, ("2", "2"), "TT TT TT")
PINNED_PATHS = {
    ("connect", (3,)): [_L4] * 5,
    ("connect", (4,)): [_L3_RANK2] * 5,
    ("connect", (2, 3)): [
        (3, ("0+1", "1+0"), "TT TT TT"),
        (3, ("1+0", "0+1"), "TT TT TT"),
        (3, ("0+1", "1+0"), "TT TT TT"),
        (4, ("0+1", "1+0", "0+1"), "TT TT TT TT"),
        (4, ("0+1", "1+0", "0+1"), "TT TT TT TT"),
    ],
    ("connect", (8, 8, 8, 8)): [
        (3, ("0+0+1+0", "1+0+0+0"), "TT TT TT"),
        (3, ("1+0+0+0", "0+0+1+0"), "TT TT TT"),
        (3, ("0+0+1+0", "1+0+0+0"), "TT TT TT"),
        (4, ("0+0+0+1", "1+0+0+0", "0+0+0+1"), "TT TT TT TT"),
        (4, ("0+0+0+1", "1+0+0+0", "0+0+0+1"), "TT TT TT TT"),
    ],
    ("connect_direct_sum", (2, 3)): [
        (3, ("0+2", "1+0"), "TT TT TT"),
        (3, ("2+0", "0+2"), "TT TT TT"),
        (3, ("0+2", "1+0"), "TT TT TT"),
        (4, ("0+1", "0+1", "0+1"), "TT TT TT TT"),
        (4, ("0+1", "0+1", "0+1"), "TT TT TT TT"),
    ],
    ("connect_direct_sum", (4, 5)): [
        (3, ("0+4", "3+0"), "TT TT TT"),
        (3, ("3+0", "0+4"), "TT TT TT"),
        (3, ("0+4", "3+0"), "TT TT TT"),
        (3, ("0+2", "0+2"), "TT TT TT"),
        (3, ("0+2", "0+2"), "TT TT TT"),
    ],
    ("same_side", (2, 3)): [(4, ("0+1", "0+1", "0+1"), "TT TT TT TT")] * 5,
}


def _case_id(case):
    kind, shape = case
    return f"{kind}-{'+'.join(map(str, shape))}"


def _build(kind, shape, i):
    if kind == "connect":
        return connect(*_deficient_pair(shape, i))
    pair = _same_side_pair(i) if kind == "same_side" else _deficient_pair(shape, i)
    return connect_direct_sum(*pair, split=1)


@pytest.mark.parametrize("case", sorted(PINNED_PATHS), ids=_case_id)
def test_paths_pinned(case):
    kind, shape = case
    got = []
    for i in range(5):
        path = _build(kind, shape, i)
        got.append((path.length, tuple(_block_ranks(v) for v in path.vertices[1:-1]),
                    " ".join(_edge_verdicts(e) for e in path.edge_decisions)))
    assert got == PINNED_PATHS[case]


@pytest.mark.parametrize("case", [("connect", (3,)), ("connect", (4,)), ("connect", (8, 8, 8, 8)),
                                  ("connect_direct_sum", (2, 3)), ("connect_direct_sum", (4, 5)),
                                  ("same_side", (2, 3))], ids=_case_id)
def test_path_search_decides_each_edge_once(case, monkeypatch):
    from orthograph import paths

    calls = []
    real = paths.mutual_strong

    def recording(u, v, tol, want_certificate=True):
        calls.append((u, v, want_certificate))  # keeps u, v alive: ids stay unique
        return real(u, v, tol, want_certificate)

    monkeypatch.setattr(paths, "mutual_strong", recording)
    kind, shape = case
    for i in range(3):
        calls.clear()
        path = _build(kind, shape, i)
        uncertified = [(id(u), id(v)) for u, v, cert in calls if not cert]
        assert uncertified and len(set(uncertified)) == len(uncertified)
        certified = [(u, v) for u, v, cert in calls if cert]
        assert len(certified) >= path.length
        if kind == "same_side":
            # no certified decision inside the summand: only the lifted
            # winner is re-verified, on the whole algebra
            assert len(certified) == path.length
            assert all(u.shape == path.vertices[0].shape for u, _ in certified)


@pytest.mark.parametrize("shape", [(2, 3), (4, 5)], ids=["2+3", "4+5"])
def test_direct_sum_certifies_only_the_returned_path(shape, monkeypatch):
    # the summand neighbors of the cross case are left to the search, so the
    # only certified decisions are verify_path's, one per returned edge
    from orthograph import paths

    certified = []
    real = paths.mutual_strong

    def recording(u, v, tol, want_certificate=True):
        if want_certificate:
            certified.append((u, v))
        return real(u, v, tol, want_certificate)

    monkeypatch.setattr(paths, "mutual_strong", recording)
    for i in range(5):
        certified.clear()
        path = connect_direct_sum(*_deficient_pair(shape, i), split=1)
        assert len(certified) == path.length


def test_kernel_ends_derived_once_per_endpoint(monkeypatch):
    # an endpoint's kernel data is kept on it, so a second search from the
    # same endpoint derives nothing for it again
    from collections import Counter

    from orthograph import paths

    derived = Counter()
    real = paths.abs_star

    def counting(e):
        derived[id(e)] += 1
        return real(e)

    monkeypatch.setattr(paths, "abs_star", counting)
    rng = np.random.default_rng(11)
    a, b1, b2 = (sample_element([3], "deficient:1", rng) for _ in range(3))
    connect(a, b1)
    connect(a, b2)
    assert derived == {id(a): 1, id(b1): 1, id(b2): 1}
