"""Finite higher-rank graphs: builders, congruence quotients, cubical homology."""

from .core import (
    Cube,
    FiniteKGraph,
    Morphism,
    Skeleton2Graph,
    VertexSetReport,
    Violation,
    cartesian_product,
    cubes,
    disjoint_union,
    face,
    induced_subgraph,
    is_exhaustive,
    mce,
    mce_set,
    validate_kgraph,
    validate_skeleton,
    vertex_predicate,
)
from .errors import (
    BadArgument,
    BadDirection,
    BadMarking,
    BadSplit,
    BadSurfaceSpec,
    DimensionTooLarge,
    ForeignId,
    HeightExceeded,
    InvalidModel,
    KGraphError,
    NoEmbedding,
    NotACongruence,
    NotComposable,
    NotHereditary,
    NotInjective,
    OutOfBox,
    OutOfRange,
    OverlappingClasses,
    ParseError,
    RankMismatch,
    UnknownId,
)
from .export import export_dot, export_json, export_mesh
from .homology import (
    ChainComplex,
    HomologyGroup,
    SNFResult,
    SparseIntMatrix,
    chain_complex,
    euler_characteristic,
    homology,
    smith_normal_form,
)
from .io import RelationDoc, bind_relation, dumps, kgraph_doc, loads, model_doc
from .quotient import (
    CongruenceVerdict,
    MorphismRelation,
    check_congruence,
    glue_on_common,
    pullback_hypotheses,
    quotient,
    relation_from_classes,
    relation_from_pairs,
)
from .simplex import (
    basis_point,
    build_simplex,
    build_sphere,
    build_wedge,
    count_placings,
    embed,
    enumerate_placings,
    height,
    is_placing,
    leq,
    placing_id,
    sphere_pole,
    tail_factor,
)
from .surfaces import (
    MarkedSkeleton,
    SurfaceSummand,
    basic_surface,
    compact_surface,
    connected_sum,
    regenerate_squares,
    validate_marking,
)

__all__ = [name for name in dir() if not name.startswith("_")]
