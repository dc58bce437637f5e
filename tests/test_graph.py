import numpy as np
import pytest

from orthograph import (
    Element,
    ShapeMismatch,
    SmallAlgebra,
    ZeroElement,
    augment_with_paths,
    build_graph,
    classify_isolated,
    components_and_distances,
    direct_sum,
    export_graph,
    graph_from_json,
    is_right_invertible,
    mutual_strong,
    sample_vertices,
)

from conftest import e11_m2, e22_m2


def test_build_graph_m2_example():
    g = build_graph([e11_m2(), e22_m2(), Element.identity([2])])
    assert g.order == 3
    assert g.adjacency[0, 1] and g.adjacency[1, 0]
    assert g.degrees()[2] == 0
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert not np.any(np.diag(g.adjacency))


def test_build_graph_deduplicates():
    g = build_graph([e11_m2(), 2.0 * e11_m2()])
    assert g.order == 1


def test_build_graph_validation():
    with pytest.raises(ZeroElement):
        build_graph([e11_m2(), Element.zero([2])])
    with pytest.raises(ShapeMismatch):
        build_graph([e11_m2(), Element.identity([3])])
    with pytest.raises(ZeroElement):
        build_graph([])


def test_edges_reverify(rng):
    verts = sample_vertices([3], 12, seed=7)
    g = build_graph(verts)
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if g.adjacency[i, j]:
                assert mutual_strong(
                    g.vertices[i], g.vertices[j], want_certificate=False
                ).adjacent


def test_components_m2_and_m1m1():
    g = build_graph([e11_m2(), e22_m2(), Element.identity([2])])
    rep = components_and_distances(g)
    assert sorted(len(c) for c in rep.components) == [1, 2]
    assert rep.diameters == (1, 0) or rep.diameters == (0, 1)
    assert rep.isolated == (2,)

    a = Element([1, 1], [[[1.0]], [[0.0]]])
    b = Element([1, 1], [[[0.0]], [[1.0]]])
    rep2 = components_and_distances(build_graph([a, b]))
    assert len(rep2.components) == 1
    assert rep2.diameters == (1,)


def test_empty_edge_set_components():
    g = build_graph([Element.identity([2]), 3.0 * e11_m2() + e22_m2()])
    rep = components_and_distances(g)
    assert len(rep.components) == 2
    assert all(len(c) == 1 for c in rep.components)


def test_classify_isolated_examples():
    verts = [Element.identity([3]), Element([3], [np.diag([1.0, 1.0, 0.0])])]
    rep = classify_isolated(verts)
    assert rep.isolated == (0,)
    assert rep.candidates == (1,)
    w = rep.witnesses[1]
    assert np.allclose(w.blocks[0], np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    full = [Element.identity([2, 2]), direct_sum(Element.identity([2]), e11_m2())]
    rep2 = classify_isolated(full)
    assert rep2.isolated == (0,)
    assert rep2.candidates == (1,)


def test_classify_full_rank_all_isolated():
    from orthograph import sample_element

    verts = [sample_element([3], "full", seed) for seed in range(100)]
    rep = classify_isolated(verts)
    assert len(rep.isolated) == 100


def test_augment_connects_non_isolated():
    verts = sample_vertices([3], 10, seed=11)
    g = build_graph(verts, provenance={"seed": 11})
    ag = augment_with_paths(g)
    assert ag.provenance.get("augmented") is True
    rep = components_and_distances(ag)
    noniso = [i for i, v in enumerate(ag.vertices) if not is_right_invertible(v)]
    comps = [c for c in rep.components if any(i in noniso for i in c)]
    assert len(comps) == 1
    assert all(i in comps[0] for i in noniso)
    for i in noniso:
        assert rep.eccentricity[i] <= 4


def test_augment_noop_when_connected():
    a = Element([3], [np.diag([1.0, 1.0, 0.0])])
    b = Element([3], [np.diag([0.0, 1.0, 1.0])])
    g = build_graph([a, b])
    assert g.adjacency[0, 1]
    ag = augment_with_paths(g)
    assert ag.order == 2


def test_augment_rejects_small_shapes():
    with pytest.raises(SmallAlgebra):
        augment_with_paths(build_graph([e11_m2(), e22_m2()]))


def test_augment_attaches_witness_to_lone_singular_vertex():
    lone = Element([3], [np.diag([1.0, 1.0, 0.0])])
    g = build_graph([lone, Element.identity([3])])
    ag = augment_with_paths(g)
    assert ag.order == 3  # witness vertex added
    assert ag.degrees()[0] == 1
    assert ag.degrees()[1] == 0  # the identity stays isolated


def test_export_json_round_trip():
    verts = sample_vertices([2], 8, seed=3)
    g = build_graph(verts, provenance={"seed": 3})
    text = export_graph(g, "json")
    back = graph_from_json(text)
    assert back.shape == g.shape
    assert back.order == g.order
    assert np.array_equal(back.adjacency, g.adjacency)
    assert back.indeterminate_pairs == g.indeterminate_pairs
    assert export_graph(back, "json") == text


def test_export_dot_structure():
    g = build_graph([e11_m2(), e22_m2(), Element.identity([2])])
    dot = export_graph(g, "dot")
    lines = dot.splitlines()
    assert lines[0] == "graph orthograph {"
    assert "  v0 -- v1;" in lines
    assert any("v2" in ln and "filled" in ln for ln in lines)
    with pytest.raises(ValueError):
        export_graph(g, "gexf")


def test_tie_band_pair_is_dashed_and_listed():
    # a pair engineered to sit exactly on the tolerance is excluded from
    # adjacency, listed as indeterminate, and drawn dashed
    knife = Element([2], [np.diag([1.0, 1.0 - 1e-7])])
    g = build_graph([knife, e11_m2(), e22_m2()])
    assert (0, 1) in g.indeterminate_pairs
    assert not g.adjacency[0, 1]
    dot = export_graph(g, "dot")
    assert "  v0 -- v1 [style=dashed];" in dot.splitlines()
    import json

    payload = json.loads(export_graph(g, "json"))
    assert [0, 1] in payload["indeterminate_pairs"]


def test_graph_json_rejects_bad_payloads():
    from orthograph import ParseError

    with pytest.raises(ParseError):
        graph_from_json("{nope")
    with pytest.raises(ParseError):
        graph_from_json('{"format_version": 99}')


def test_sample_vertices_mix():
    verts = sample_vertices([3], 20, seed=5)
    assert len(verts) == 20
    deficient = sum(1 for v in verts if not is_right_invertible(v))
    assert deficient >= 12  # 40% deficient + 30% projections + 20% witnesses


# Vertex count, edge list and tie-band pairs of `orthograph graph` runs,
# recorded before the strong form was decided in closed form.  Performance
# work must not move a single verdict on these seeds.
_ORTHO3_EDGES_SEED0 = [
    (0, 4), (0, 6), (0, 15), (0, 18), (0, 19), (1, 8), (2, 10), (3, 12), (4, 16),
    (6, 7), (6, 9), (6, 11), (6, 16), (7, 8), (8, 13), (8, 14), (8, 15), (9, 10),
    (10, 13), (10, 17), (10, 18), (11, 12), (12, 14), (12, 17), (12, 19), (15, 16),
    (16, 18), (16, 19),
]
_ORTHO3_EDGES_SEED1 = [e for e in _ORTHO3_EDGES_SEED0 if e not in ((0, 15), (0, 18), (0, 19))]
PINNED_GRAPHS = [
    (("3", 6, 0, True), 20, _ORTHO3_EDGES_SEED0, []),
    (("3", 6, 1, True), 20, _ORTHO3_EDGES_SEED1, []),
    (("3", 6, 2, True), 20, _ORTHO3_EDGES_SEED0, []),
    (("8,8,8,8", 4, 0, False), 4, [(0, 3)], []),
    (("8,8,8,8", 4, 1, False), 4, [(0, 3)], []),
]


@pytest.mark.parametrize("job,order,edges,indeterminate", PINNED_GRAPHS)
def test_graph_command_verdicts_pinned(job, order, edges, indeterminate, tmp_path, capsys):
    from orthograph.cli import main

    shape, samples, seed, augment = job
    argv = ["graph", "--shape", shape, "--samples", str(samples), "--seed", str(seed),
            "--out", str(tmp_path), "--format", "json"]
    assert main(argv + (["--augment"] if augment else [])) == 0
    capsys.readouterr()
    g = graph_from_json((tmp_path / "graph.json").read_text())
    assert g.order == order
    got = [(i, j) for i in range(g.order) for j in range(i + 1, g.order) if g.adjacency[i, j]]
    assert got == edges
    assert [list(p) for p in g.indeterminate_pairs] == indeterminate


def test_augmentation_dedupes_only_new_vertices(monkeypatch):
    # path ends and reused kernel projections are vertices the graph holds:
    # they must never be scanned against it again
    from orthograph import graph

    held, scanned, offenders = [], [], []
    insert, equal = graph._insert_vertex, graph.projective_equal

    def spy_insert(verts, *args):
        held[:] = [verts]
        return insert(verts, *args)

    def spy_equal(w, u, tol):
        scanned.append(w)
        offenders.extend(v for v in held[0] if v is w)
        return equal(w, u, tol)

    monkeypatch.setattr(graph, "_insert_vertex", spy_insert)
    monkeypatch.setattr(graph, "projective_equal", spy_equal)
    g = augment_with_paths(build_graph(sample_vertices([3], 6, 0)))
    assert g.order > 6 and scanned
    assert offenders == []
