"""Exports: GraphViz skeletons and OFF quad meshes.

Both read a model's cube view (`core.Cube`) one cube at a time, through
`cubes` and `_unit_faces(key)`, which raises on a broken model: the
vertices are its 0-cubes, an edge's endpoints are the two faces of a
1-cube, and a 2-cube's quad corners are read from the faces of its
faces.  The dot export draws the 1-skeleton with one style per
direction (1 solid, 2 dashed, anything higher dotted), arrows running
source -> range.  The mesh export needs a model that carries an exact
vertex embedding (the simplex and sphere builders provide one) and emits
one quad per 2-cube; coordinates are printed to 12 significant digits.
Points in fewer than 3 dimensions are zero-padded to 3 for plain OFF;
higher-dimensional embeddings use the nOFF variant.
"""

from __future__ import annotations

from .core import FiniteKGraph, cubes
from .errors import InvalidModel, NoEmbedding
from . import io as kio


def export_json(model) -> str:
    if isinstance(model, FiniteKGraph):
        return kio.kgraph_json(model)
    return kio.dumps(kio.model_doc(model))


def _style(direction: int) -> str:
    return {1: "solid", 2: "dashed"}.get(direction, "dotted")


def export_dot(model) -> str:
    """The 1-skeleton as a GraphViz digraph, deterministically ordered."""
    all_cubes = cubes(model)
    lines = ["digraph {"] + [f'  "{c.key}";' for c in all_cubes if c.dim == 0]
    for c in (c for c in all_cubes if c.dim == 1):
        ((direction, (s, r, _)),) = model._unit_faces(c.key).items()
        lines.append(f'  "{s}" -> "{r}" [label="{c.key}", style={_style(direction)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _ends(model, key, seen: dict) -> tuple:
    """(source, range) of a 1-cube: its side-1 and side-0 faces, read once
    per key into seen."""
    if key not in seen:
        faces = list(model._unit_faces(key).values())
        if len(faces) != 1:
            raise InvalidModel(f"{key!r}, a face of a 2-cube, is not a 1-cube")
        seen[key] = faces[0][:2]
    return seen[key]


def export_mesh(model) -> str:
    """OFF mesh of an embedded model: its vertices plus one quad per 2-cube."""
    embedding = getattr(model, "embedding", None)
    if embedding is None:
        raise NoEmbedding(
            "mesh export needs a model with an exact vertex embedding "
            "(surface skeletons and quotient builds carry none)"
        )
    all_cubes = cubes(model)
    vertex_ids = [c.key for c in all_cubes if c.dim == 0]
    missing = [v for v in vertex_ids if v not in embedding]
    if missing:
        raise NoEmbedding(f"embedding misses vertices {missing[:3]}")
    coords = [tuple(embedding[v]) for v in vertex_ids]
    dims = {len(c) for c in coords}
    if len(dims) != 1:
        raise NoEmbedding("embedding coordinates have mixed dimensions")
    dim = dims.pop()
    if dim < 3:
        coords = [c + (0,) * (3 - dim) for c in coords]
        dim = 3

    index = {v: i for i, v in enumerate(vertex_ids)}
    faces, seen = [], {}
    for cb in (c for c in all_cubes if c.dim == 2):
        # corners r(cube), r(hi_1), s(hi_1), r(hi_2): the unit steps in
        # directions i and j, taken from the range end
        (hi1, lo1, _), (hi2, _, _) = model._unit_faces(cb.key).values()
        s1, r1 = _ends(model, hi1, seen)
        quad = [_ends(model, lo1, seen)[1], r1, s1, _ends(model, hi2, seen)[1]]
        if not all(v in index for v in quad):
            raise InvalidModel(f"the corners {quad} of {cb.key!r} are not all vertices")
        faces.append([index[v] for v in quad])

    lines = []
    if dim == 3:
        lines.append("OFF")
    else:
        lines.append("nOFF")
        lines.append(str(dim))
    lines.append(f"{len(coords)} {len(faces)} 0")
    for c in coords:
        lines.append(" ".join(_fmt(x) for x in c))
    for f in faces:
        lines.append("4 " + " ".join(str(i) for i in f))
    return "\n".join(lines) + "\n"
