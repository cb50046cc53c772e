"""Exception types shared across the package.

Everything raised on purpose derives from KGraphError, so callers (in
particular the command line driver) can tell domain failures apart from
genuine bugs.  ParseError covers malformed input documents; the rest are
named after the operation contract they belong to.
"""

from __future__ import annotations


class KGraphError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KGraphError):
    """An input document is malformed (bad JSON shape, bad field, bad id)."""


class UnknownId(KGraphError):
    """A morphism or vertex id does not exist in the model at hand."""


class NotComposable(KGraphError):
    """compose(a, b) was asked for a pair with source(a) != range(b)."""


class BadSplit(KGraphError):
    """factorise(m, p) was asked for a split p that is not between 0 and d(m)."""


class InvalidModel(KGraphError):
    """The model violates its axioms, so the requested operation is meaningless."""


class DimensionTooLarge(KGraphError):
    """cubes(model, n) with n exceeding the rank of the model."""


class BadDirection(KGraphError):
    """face(c, i, side) with a direction the cube does not extend in."""


class RankMismatch(KGraphError):
    """A binary operation needs equal ranks and was handed different ones."""


class ForeignId(KGraphError):
    """A relation mentions an id that does not belong to its graph."""


class NotACongruence(KGraphError):
    """quotient() was handed a relation that fails the congruence conditions.

    Carries the failing CongruenceVerdict as ``verdict``.
    """

    def __init__(self, verdict):
        super().__init__(str(verdict))
        self.verdict = verdict


class NotInjective(KGraphError):
    """A gluing map is not injective; ``side`` says which one."""

    def __init__(self, side: str, message: str = ""):
        super().__init__(message or f"gluing map on side {side!r} is not injective")
        self.side = side


class NotHereditary(KGraphError):
    """A gluing image is neither hereditary nor co-hereditary.

    ``side`` names the offending copy and ``escapee`` a morphism id that
    leaves the image.
    """

    def __init__(self, side: str, escapee: str, message: str = ""):
        super().__init__(
            message
            or f"image on side {side!r} is not hereditary/co-hereditary; {escapee!r} escapes"
        )
        self.side = side
        self.escapee = escapee


class BadMarking(KGraphError):
    """A marked surface skeleton breaks one of the marking invariants."""


class BadSurfaceSpec(KGraphError, ValueError):
    """A surface spec names an unknown tag or no summands at all.

    Still a ValueError, so callers that caught the bare one keep working.
    """


class OverlappingClasses(KGraphError, ValueError):
    """An explicit relation lists a morphism in two classes (still a ValueError)."""


class BadArgument(KGraphError, ValueError):
    """An argument outside the domain of its call, such as constructor parts
    with duplicate ids or a wedge of no spheres (still a ValueError)."""


class OutOfRange(KGraphError):
    """A would-be placing has values outside {0, ..., k} or a bad shape."""


class HeightExceeded(KGraphError):
    """tail_factor(f, z) with z not dominated by the height of f."""


class OutOfBox(KGraphError):
    """An embedding was evaluated outside the unit box of its cube."""


class NoEmbedding(KGraphError):
    """Mesh export was asked for a model that carries no embedding."""
