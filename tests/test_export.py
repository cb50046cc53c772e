"""DOT and OFF emitters."""

import pytest

from kgraphs import build_simplex, build_sphere, export_dot, export_mesh
from kgraphs.errors import NoEmbedding
from kgraphs.surfaces import basic_surface


def test_dot_lists_every_edge_once():
    g = build_simplex(1)
    out = export_dot(g)
    # 3 vertices and one solid edge per degree-1 morphism
    assert out.count('"0"') >= 1
    assert out.count("style=solid") == 2  # 0 <= {0,1} and 0 <= {1,0}
    assert out.startswith("digraph {") and out.endswith("}\n")


def test_dot_uses_one_style_per_colour():
    out = export_dot(build_simplex(2))
    assert "style=solid" in out and "style=dashed" in out
    assert "style=dotted" not in out


def test_skeleton_dot():
    out = export_dot(basic_surface("P").skeleton)
    assert out.count("style=solid") == 4
    assert out.count("style=dashed") == 4


def test_mesh_of_low_dimensional_model_pads_to_3d():
    out = export_mesh(build_simplex(1))
    lines = out.splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = lines[1].split()
    assert (nv, nf) == ("3", "0")
    assert all(len(row.split()) == 3 for row in lines[2:5])


def test_mesh_of_sphere2_uses_noff():
    out = export_mesh(build_sphere(2))
    lines = out.splitlines()
    assert lines[0] == "nOFF"
    assert lines[1] == "4"
    assert lines[2] == "14 12 0"
    quads = [row for row in lines if row.startswith("4 ")]
    # every quad references four distinct vertex indices in range
    for q in quads[-12:]:
        idx = [int(x) for x in q.split()[1:]]
        assert len(idx) == 4 == len(set(idx))
        assert all(0 <= i < 14 for i in idx)


def test_mesh_requires_embedding():
    with pytest.raises(NoEmbedding):
        export_mesh(basic_surface("T"))
    with pytest.raises(NoEmbedding):
        export_mesh(basic_surface("T").skeleton)


def test_mesh_refuses_an_embedding_that_misses_vertices_or_mixes_dimensions():
    g = build_simplex(1)
    g.embedding = {v: (0, 0) for v in g.vertices[1:]}
    with pytest.raises(NoEmbedding, match=r"^embedding misses vertices \['0'\]$"):
        export_mesh(g)
    g.embedding = {v: (0,) * (1 + (v == "0")) for v in g.vertices}
    with pytest.raises(NoEmbedding, match="^embedding coordinates have mixed dimensions$"):
        export_mesh(g)
