"""Expected values the benchmark checks against.

None of these come from running kgraphs: they are the paper's counts,
recurrences and the classification of compact surfaces, so a wrong
answer from the library cannot also move the expectation.
"""

from __future__ import annotations

from math import comb

# |Sigma_k|, identities included (PAPER.md, criterion 02).
SIGMA_SIZE = {2: 37, 3: 365, 4: 4501}

# Cells of Sigma_4 per dimension (ROADMAP item 1).
SIGMA4_CELLS = (541, 1530, 1590, 720, 120)

# Catalog pieces: vertices per summand; every piece has 4 + 4 edges and 4 squares.
CATALOG_VERTICES = {"S": 6, "T": 4, "K": 4, "P": 5}
CATALOG_EDGES = 8
CATALOG_SQUARES = 4


def ordered_bell(n: int) -> int:
    """Ordered set partitions of an n-set: a(n) = sum_i C(n, i) a(n - i)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, i) * a[m - i] for i in range(1, m + 1)))
    return a[n]


def placings(k: int) -> int:
    """Placings of {0, ..., k} are ordered set partitions of k + 1 points."""
    return ordered_bell(k + 1)


def sphere_size(k: int) -> int:
    """|S^k|: two copies of Sigma_k share every morphism whose range is not
    the zero placing, so only the P_k morphisms out of 0 are doubled."""
    return SIGMA_SIZE[k] + placings(k)


def point_homology(top: int) -> list[tuple[int, tuple[int, ...]]]:
    return [(1, ())] + [(0, ())] * top


def sphere_homology(k: int) -> list[tuple[int, tuple[int, ...]]]:
    return [(1, ())] + [(0, ())] * (k - 1) + [(1, ())]


def wedge_homology(k: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    return [(1, ())] + [(0, ())] * (k - 1) + [(n, ())]


def surface_homology(tags) -> list[tuple[int, tuple[int, ...]]]:
    """Classification: a sum of g tori is (Z, Z^2g, Z); with any K or P in
    it, c crosscaps (T, K = 2 each, P = 1) give (Z, Z^(c-1) + Z/2, 0)."""
    t, k, p = (sum(1 for x in tags if x == tag) for tag in "TKP")
    if k == 0 and p == 0:
        return [(1, ()), (2 * t, ()), (1, ())]
    c = 2 * t + 2 * k + p
    return [(1, ()), (c - 1, (2,)), (0, ())]


def euler(groups) -> int:
    return sum((-1) ** n * betti for n, (betti, _) in enumerate(groups))


def surface_cells(tags) -> tuple[int, int, int]:
    """Vertices, edges and squares of the left fold of connected sums:
    each sum merges two vertices and swaps two squares for two new ones."""
    n = len(tags)
    vertices = sum(CATALOG_VERTICES[t] for t in tags) - 2 * (n - 1)
    return vertices, CATALOG_EDGES * n, CATALOG_SQUARES * n


def group_text(betti: int, torsion) -> str:
    """A group as the CLI's `homology` verb prints it (README format)."""
    parts = ["Z" if betti == 1 else f"Z^{betti}"] if betti else []
    parts += [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"
