"""Circle packings and gasket verification.

Circles here are oriented: each one carries a preferred side (its disk), so
an enclosing circle of a bounded packing and the half-plane sides of lines
need no special cases.  The representation is a Hermitian coefficient triple
(A, B, C) scaled to discriminant |B|^2 - AC = 1, with the disk being the set
where A|z|^2 + 2 Re(conj(B) z) + C <= 0.  Two such circles bound disjoint
disks tangent to each other exactly when their inversive product is -2,
which turns tangency detection, overlap detection, and the Descartes
quadruple flip into arithmetic on triples.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from .decomposition import _connected
from .groups import _format_lines
from .mobius import (
    INFINITY,
    MoebiusMap,
    SpherePoint,
    moebius_mapping,
    moebius_to_zero_one_inf,
    transform_hermitian,
)

__all__ = [
    "OverlappingCirclesError",
    "NoTangentTripleError",
    "OrientedCircle",
    "CirclePacking",
    "TangencyEdge",
    "TangencyGraph",
    "detect_tangencies",
    "tangency_point",
    "descartes_residual",
    "tangent_quadruple_flip",
    "standard_base_triple",
    "standard_base_quadruple",
    "STANDARD_TANGENCY_POINTS",
    "standard_gasket",
    "bounded_gasket",
    "normalize_to_standard_gasket",
    "apply_to_packing",
    "GasketVerdict",
    "is_apollonian_like",
    "load_packing",
    "dump_packing",
]


class OverlappingCirclesError(ValueError):
    """A packing contains a pair of circles whose disks overlap."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        super().__init__(f"overlapping circle pairs: {self.pairs[:8]}")


class NoTangentTripleError(ValueError):
    """No three mutually tangent circles were found."""


class OrientedCircle:
    """A circle or line with a chosen disk, as a discriminant-1 Hermitian triple.

    curvature is the A coefficient: 1/radius for a circle enclosing its
    interior, negative for a reversed (enclosing) circle, 0 for a line.
    """

    __slots__ = ("A", "B", "C")

    def __init__(self, A: float, B: complex, C: float):
        A = float(A)
        B = complex(B)
        C = float(C)
        disc = (B.real * B.real + B.imag * B.imag) - A * C
        if not disc > 0.0:
            raise ValueError(f"triple ({A}, {B}, {C}) has no real locus")
        t = 1.0 / math.sqrt(disc)
        self.A = A * t
        self.B = B * t
        self.C = C * t

    @classmethod
    def from_center_radius(cls, center: complex, radius: float) -> "OrientedCircle":
        """Circle whose disk is its interior."""
        if not radius > 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        center = complex(center)
        k = 1.0 / radius
        # This triple has discriminant exactly 1; rederiving it numerically
        # would cancel |center|^2 k^2 against itself and shift high
        # curvatures, so bypass the normalizing constructor.
        return cls._from_unit_triple(
            k,
            -center * k,
            (center.real * center.real + center.imag * center.imag - radius * radius) * k,
        )

    @classmethod
    def from_line(cls, normal: complex, offset: float) -> "OrientedCircle":
        """Line Re(conj(normal) z) = offset, disk = the side where that is <= offset."""
        normal = complex(normal)
        n = abs(normal)
        if n == 0.0:
            raise ValueError("line normal must be nonzero")
        return cls._from_unit_triple(0.0, normal / n, -2.0 * offset / n)

    @classmethod
    def from_three_points(cls, p: SpherePoint, q: SpherePoint, r: SpherePoint) -> "OrientedCircle":
        """The circle or line through three distinct sphere points; the real
        axis carried from (0, 1, infinity) onto (p, q, r)."""
        return cls.from_line(1j, 0.0).transform(moebius_to_zero_one_inf(p, q, r).inverse())

    @classmethod
    def _from_unit_triple(cls, A: float, B: complex, C: float) -> "OrientedCircle":
        """The circle of a triple already at unit discriminant, taken as is."""
        out = object.__new__(cls)
        out.A = A
        out.B = B
        out.C = C
        return out

    def reversed(self) -> "OrientedCircle":
        """Same locus, complementary disk."""
        return OrientedCircle._from_unit_triple(-self.A, -self.B, -self.C)

    @property
    def curvature(self) -> float:
        return self.A

    @property
    def is_line(self) -> bool:
        return abs(self.A) < 1e-9

    @property
    def center(self) -> SpherePoint:
        if self.is_line:
            return INFINITY
        return -self.B / self.A

    @property
    def radius(self) -> float:
        if self.is_line:
            return math.inf
        return 1.0 / abs(self.A)

    def line_geometry(self) -> tuple[complex, float]:
        """(unit normal, offset) with the disk on the <= side."""
        n = abs(self.B)
        return (self.B / n, -self.C / (2.0 * n))

    def evaluate(self, z: complex) -> float:
        z = complex(z)
        return self.A * abs(z) ** 2 + 2.0 * (self.B.conjugate() * z).real + self.C

    def contains(self, p: SpherePoint, tol: float = 1e-9) -> bool:
        """Whether p lies on the locus.  For a discriminant-1 triple the form
        divided by 1 + |z|^2 is, near the locus, about the chordal distance
        to it, so tol is a distance on the sphere, fair near infinity."""
        if p is INFINITY:
            return abs(self.A) < tol
        z = complex(p)
        return abs(self.evaluate(z)) / (1.0 + abs(z) ** 2) < tol

    def same_locus(self, other: "OrientedCircle", tol: float = 1e-9) -> bool:
        """Equal as unoriented circles: the discriminant-1 triple of a locus
        is unique up to sign, so compare componentwise against both signs."""
        plus = max(abs(self.A - other.A), abs(self.B - other.B), abs(self.C - other.C))
        minus = max(abs(self.A + other.A), abs(self.B + other.B), abs(self.C + other.C))
        return min(plus, minus) <= tol

    def transform(self, m: MoebiusMap) -> "OrientedCircle":
        # m has determinant 1, so the discriminant is preserved analytically.
        # Recomputing it here would subtract two large near-equal products
        # (|B|^2 and A*C), and renormalizing by that noisy value perturbs
        # high curvatures enough to spoil exact Descartes relations.
        return OrientedCircle._from_unit_triple(*transform_hermitian(m, self.A, self.B, self.C))

    def inversive_product(self, other: "OrientedCircle") -> float:
        """-2 for tangent disjoint disks, < -2 separated, in (-2, 2) crossing,
        2 for the same oriented circle, > 2 nested."""
        return (
            2.0 * (self.B * other.B.conjugate()).real
            - self.A * other.C
            - other.A * self.C
        )

    def __repr__(self) -> str:
        if self.is_line:
            n, d = self.line_geometry()
            return f"OrientedCircle.line(normal={n!r}, offset={d!r})"
        return f"OrientedCircle(center={self.center!r}, radius={self.radius!r}, curvature={self.A!r})"


def tangency_point(c1: OrientedCircle, c2: OrientedCircle) -> SpherePoint:
    """The common point of two tangent circles.

    The sum of the two triples is a point circline concentrated at the
    tangency; parallel tangent lines meet at infinity.
    """
    A = c1.A + c2.A
    B = c1.B + c2.B
    C = c1.C + c2.C
    scale = max(abs(A), abs(B), abs(C))
    if abs(A) < 1e-9 * scale:
        return INFINITY
    return -B / A


def descartes_residual(k1: float, k2: float, k3: float, k4: float) -> float:
    """(k1+k2+k3+k4)^2 - 2(k1^2+k2^2+k3^2+k4^2); zero for a mutually tangent
    quadruple, symmetric in the arguments."""
    s = k1 + k2 + k3 + k4
    return s * s - 2.0 * (k1 * k1 + k2 * k2 + k3 * k3 + k4 * k4)


def tangent_quadruple_flip(
    c1: OrientedCircle, c2: OrientedCircle, c3: OrientedCircle, c4: OrientedCircle
) -> OrientedCircle:
    """Replace c4 by the other circle tangent to c1, c2, c3.

    Componentwise 2(H1+H2+H3) - H4 on the normalized triples; this is the
    full-strength Descartes flip and works with lines and enclosing circles
    (a curvature-and-center version loses the offsets when two lines are
    present).
    """
    return OrientedCircle(
        2.0 * (c1.A + c2.A + c3.A) - c4.A,
        2.0 * (c1.B + c2.B + c3.B) - c4.B,
        2.0 * (c1.C + c2.C + c3.C) - c4.C,
    )


class CirclePacking:
    """A finite list of oriented circles."""

    def __init__(self, circles):
        self.circles: list[OrientedCircle] = list(circles)

    def __len__(self) -> int:
        return len(self.circles)

    def curvatures(self) -> list[float]:
        return [c.A for c in self.circles]


@dataclass(frozen=True)
class TangencyEdge:
    i: int
    j: int
    point: SpherePoint


class TangencyGraph:
    """The edges in (i, j) order, and adjacency[i] = {j: tangency point}."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges: list[TangencyEdge] = sorted(edges, key=lambda e: (e.i, e.j))
        adj: dict[int, dict[int, SpherePoint]] = {i: {} for i in range(n)}
        for e in self.edges:
            adj[e.i][e.j] = e.point
            adj[e.j][e.i] = e.point
        self.adjacency = adj

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adjacency.get(i, ())

    def edge_point(self, i: int, j: int) -> SpherePoint:
        return self.adjacency[i][j]

    def triangles(self):
        """Every mutually tangent (i, j, k) with i < j < k, in
        index-lexicographic order."""
        adj = self.adjacency
        for i in range(self.n):
            for j in sorted(x for x in adj[i] if x > i):
                for k in sorted(x for x in adj[i].keys() & adj[j].keys() if x > j):
                    yield i, j, k

    def is_connected(self) -> bool:
        return self.n == 0 or _connected(self.adjacency)


# Rounding allowance for the cap prune and the grid cells.  What it covers
# (the cap centres, the bound, the float inversive product against the
# exact one) is each within a few dozen ulps; tol enters the bound exactly
# and needs no share of it.
_SLACK = 4096.0 * sys.float_info.epsilon
# Caps finer than this level share its grid, so the three cell coordinates
# of every level pack into one int64 key.
_MAX_LEVEL = 20


def _cap_candidates(circles: list[OrientedCircle], tol: float):
    """Every pair (i, j), i < j, whose inversive product p may reach -2 - tol:
    int arrays in lexicographic order, and p of each pair.

    The disk of (A, B, C) is the spherical cap {u : s + w.u <= 0} with
    w = (2 Re B, 2 Im B, A - C) and s = A + C, centred at -w/|w| (the Lorentz
    picture of Graham-Lagarias-Mallows-Wilks-Yan).  Any two triples have
    p = (w_i.w_j - s_i s_j) / 2, so p >= -2 - tol exactly when the angle phi
    between the centres has

        cos(phi) >= c_i c_j - (4 + 2 tol) r_i r_j,   c = s/|w|, r = 1/|w|.

    At unit discriminant c = cos(theta) and 2r = sin(theta) for the angular
    radius theta, and this reads cos(phi) >= cos(theta_i + theta_j) -
    (tol/2) sin(theta_i) sin(theta_j).  Written in c and r it needs no unit
    discriminant, which the stored triple of a small circle has only up to
    the rounding of |B|^2 and AC.

    The chord 2 - 2 cos(phi) is then at most q_i + q_j, with
    q = 2(1 - c) + (4 + 2 tol) r^2, about 2 theta^2.  Caps with q < 4^-L form
    level L.  For each level, the caps of that level and finer ones are
    hashed into a grid of cell side sqrt(2 * 4^-L), and the level's own caps
    look up their 27 neighbour cells, so the work grows with the circles
    times the levels, not with the pairs.
    """
    import numpy as np

    empty = np.zeros(0, dtype=np.int64)
    if len(circles) < 2:
        return empty, empty, np.zeros(0)
    A = np.array([c.A for c in circles])
    Bre = np.array([c.B.real for c in circles])
    Bim = np.array([c.B.imag for c in circles])
    C = np.array([c.C for c in circles])
    norm = np.sqrt(4.0 * (Bre * Bre + Bim * Bim) + (A - C) * (A - C))
    centre = (-2.0 * Bre / norm, -2.0 * Bim / norm, (C - A) / norm)
    c = (A + C) / norm
    r = 1.0 / norm
    q = 2.0 * (1.0 - c) + (4.0 + 2.0 * tol) * r * r
    # frexp is exact: q < 2^e, so level (-e) // 2 has q < 4^-level.
    level = np.clip((-np.frexp(q)[1]) // 2, 0, _MAX_LEVEL)

    found_i, found_j = [], []
    for lev in sorted(set(level.tolist())):
        # Two caps of this level or finer that pass the prune are less than
        # sqrt(2 * 4^-lev) apart, up to rounding.  Level 0 holds every large
        # cap; a cell wider than the sphere makes all of them neighbours.
        h = math.sqrt(2.0 * 4.0 ** -lev + 4.0 * _SLACK) if lev else 4.0
        side = 2 * int(1.0 / h) + 7
        finer = np.flatnonzero(level >= lev)
        cx, cy, cz = (np.floor(x[finer] / h).astype(np.int64) + side // 2 for x in centre)
        keys = (cx * side + cy) * side + cz
        order = np.argsort(keys)
        sorted_keys = keys[order]
        # The level's own caps, taken in key order: searchsorted runs faster
        # on ascending needles.
        is_own = order[level[finer[order]] == lev]
        own, own_keys = finer[is_own], keys[is_own]
        lo, hi = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                # The three cells along z are consecutive keys.
                first = own_keys + ((dx * side + dy) * side - 1)
                lo.append(np.searchsorted(sorted_keys, first, "left"))
                hi.append(np.searchsorted(sorted_keys, first + 2, "right"))
        lo = np.concatenate(lo)
        counts = np.concatenate(hi) - lo
        b = np.repeat(np.tile(own, 9), counts)
        starts = np.repeat(np.cumsum(counts) - counts - lo, counts)
        a = finer[order[np.arange(len(b)) - starts]]
        # A pair within one level is seen from both ends and kept once.
        keep = (level[a] > lev) | (a > b)
        a, b = a[keep], b[keep]
        cos_phi = sum(x[a] * x[b] for x in centre)
        near = cos_phi >= c[a] * c[b] - (4.0 + 2.0 * tol) * r[a] * r[b] - _SLACK
        found_i.append(np.minimum(a[near], b[near]))
        found_j.append(np.maximum(a[near], b[near]))
    i = np.concatenate(found_i)
    j = np.concatenate(found_j)
    order = np.argsort(i * len(circles) + j)
    i, j = i[order], j[order]
    # OrientedCircle.inversive_product's operation order, so the
    # tangent/overlap split is bit-identical to it.
    p = 2.0 * (Bre[i] * Bre[j] + Bim[i] * Bim[j]) - A[i] * C[j] - A[j] * C[i]
    return i, j, p


def _scan_products(circles: list[OrientedCircle], tol: float):
    """(tangency graph, overlapping pairs, candidate pair count) from one
    pass over the pairs the cap index cannot rule out; each edge carries its
    tangency point, and the overlapping pairs come sorted."""
    i, j, p = _cap_candidates(circles, tol)
    tangent = abs(p + 2.0) <= tol
    crossing = ~tangent & (p > -2.0)
    edges = [
        TangencyEdge(a, b, tangency_point(circles[a], circles[b]))
        for a, b in zip(i[tangent].tolist(), j[tangent].tolist())
    ]
    overlap = list(zip(i[crossing].tolist(), j[crossing].tolist()))
    return TangencyGraph(len(circles), edges), overlap, len(p)


def detect_tangencies(packing: CirclePacking, tol: float = 1e-6) -> TangencyGraph:
    """Tangency graph of a packing, with the tangency point on each edge.

    Tolerance applies to the inversive product (deviation from -2).  Raises
    OverlappingCirclesError if any pair of disks overlaps deeper than tol;
    duplicated circles count as overlapping.
    """
    graph, overlap, _ = _scan_products(packing.circles, tol)
    if overlap:
        raise OverlappingCirclesError(overlap)
    return graph


# -- reference configurations ------------------------------------------------

def standard_base_triple() -> list[OrientedCircle]:
    """The standard gasket's anchor triple: the lower half-plane below
    Im z = 0, the upper half-plane above Im z = 1, and the circle of radius
    1/2 at i/2.  Pairwise tangency points: infinity, 0, and i."""
    return [
        OrientedCircle.from_line(1j, 0.0),
        OrientedCircle.from_line(-1j, -1.0),
        OrientedCircle.from_center_radius(0.5j, 0.5),
    ]


STANDARD_TANGENCY_POINTS: tuple[SpherePoint, SpherePoint, SpherePoint] = (
    INFINITY,
    0j,
    1j,
)


def standard_base_quadruple() -> list[OrientedCircle]:
    return standard_base_triple() + [OrientedCircle.from_center_radius(1.0 + 0.5j, 0.5)]


class _TripleSet:
    """Dedup set of normalized triples keyed on their rounded components.

    Takes the four real components rather than a circle so the DFS hot loop
    can test a triple before building any object for it.  A triple and its
    negation are the same locus, so each is keyed by its sign-canonical form
    (first nonzero component positive); otherwise mixed-sign seeds would
    shadow each other's orbits.
    """

    __slots__ = ("_seen",)
    GRID = 1e-8

    def __init__(self):
        self._seen: set[tuple[int, int, int, int]] = set()

    def try_add(self, A: float, Bre: float, Bim: float, C: float) -> bool:
        """Record the triple; False when it, its negation, or one within
        rounding of either was seen."""
        if (A, Bre, Bim, C) < (0.0, 0.0, 0.0, 0.0):
            A, Bre, Bim, C = -A, -Bre, -Bim, -C
        g = self.GRID
        comps = q0, q1, q2, q3 = (A / g, Bre / g, Bim / g, C / g)
        key = k0, k1, k2, k3 = (round(q0), round(q1), round(q2), round(q3))
        if key in self._seen:
            return False
        # Probe neighbor keys so equal triples straddling a rounding
        # boundary still collide.  Only a component within 0.01 of a
        # boundary has a neighbor key, so most triples take one lookup.
        if (
            abs(q0 - k0) > 0.49
            or abs(q1 - k1) > 0.49
            or abs(q2 - k2) > 0.49
            or abs(q3 - k3) > 0.49
        ):
            options = [
                (k, k + 1) if q - k > 0.49 else (k, k - 1) if q - k < -0.49 else (k,)
                for q, k in zip(comps, key)
            ]
            if any(probe in self._seen for probe in itertools.product(*options)):
                return False
        self._seen.add(key)
        return True


def _expand_quadruples(seed_quadruples, generations: int) -> list[OrientedCircle]:
    seen = _TripleSet()
    circles: list[OrientedCircle] = []

    def add(c: OrientedCircle) -> None:
        if seen.try_add(c.A, c.B.real, c.B.imag, c.C):
            circles.append(c)

    for quad in seed_quadruples:
        for c in quad:
            add(c)

    def grow(quad, skip: int, depth: int) -> None:
        if depth == 0:
            return
        for i in range(4):
            if i == skip:
                continue
            new = tangent_quadruple_flip(*(quad[j] for j in range(4) if j != i), quad[i])
            add(new)
            child = list(quad)
            child[i] = new
            grow(tuple(child), i, depth - 1)

    for quad in seed_quadruples:
        grow(tuple(quad), -1, generations)
    return circles


def standard_gasket(generations: int) -> CirclePacking:
    """Finite truncation of the standard gasket between the lines Im z = 0
    and Im z = 1, covering the columns -1..2 of unit circles and inscribing
    `generations` rounds of tangent circles."""
    low = OrientedCircle.from_line(1j, 0.0)
    high = OrientedCircle.from_line(-1j, -1.0)
    # Center column first, so the packing's first three circles are the
    # anchor triple with tangency points (infinity, 0, i).
    quadruples = [
        (
            low,
            high,
            OrientedCircle.from_center_radius(k + 0.5j, 0.5),
            OrientedCircle.from_center_radius(k + 1.0 + 0.5j, 0.5),
        )
        for k in (0, -1, 1)
    ]
    return CirclePacking(_expand_quadruples(quadruples, generations))


def bounded_gasket(generations: int) -> CirclePacking:
    """Finite truncation of the curvature (-1, 2, 2, 3) gasket inside the
    unit circle."""
    quad = (
        OrientedCircle.from_center_radius(0j, 1.0).reversed(),
        OrientedCircle.from_center_radius(0.5 + 0j, 0.5),
        OrientedCircle.from_center_radius(-0.5 + 0j, 0.5),
        OrientedCircle.from_center_radius(2j / 3, 1.0 / 3.0),
    )
    return CirclePacking(_expand_quadruples([quad], generations))


def apply_to_packing(m: MoebiusMap, packing: CirclePacking) -> CirclePacking:
    return CirclePacking([c.transform(m) for c in packing.circles])


def normalize_to_standard_gasket(
    packing: CirclePacking,
    tangency_tol: float = 1e-6,
) -> MoebiusMap:
    """The Moebius map taking one mutually tangent triple of the packing to
    the standard gasket's base triple.

    The triple's three pairwise tangency points are matched to the standard
    triple's points (infinity, 0, i): tangency points are Moebius-equivariant,
    so for gasket-equivalent packings this maps the whole packing onto the
    standard gasket.  The triple is the index-lexicographically first
    triangle of the tangency graph.  Indices survive transport by a map, so
    distorting a packing and normalizing it recovers the distortion's
    inverse; a size-based choice would not.  Shipped packings list their
    largest circles first, which keeps the three anchor points well spread.
    """
    return _anchor_map(detect_tangencies(packing, tangency_tol))


def _anchor_map(graph: TangencyGraph) -> MoebiusMap:
    """The map from the first triangle's tangency points to (infinity, 0, i)."""
    for i, j, k in graph.triangles():
        src = (graph.edge_point(i, j), graph.edge_point(i, k), graph.edge_point(j, k))
        return moebius_mapping(src, STANDARD_TANGENCY_POINTS)
    raise NoTangentTripleError("packing has no mutually tangent triple")


@dataclass(frozen=True)
class GasketVerdict:
    passed: bool
    connected: bool
    overlap_pairs: tuple[tuple[int, int], ...]
    worst_residual: float
    worst_quadruple: tuple[int, int, int, int] | None
    triangles_checked: int
    quadruples_checked: int
    failures: tuple[str, ...]
    # The tangency scan's work: pairs the cap index could not rule out, and
    # the tangent pairs among them.
    candidate_pairs: int
    tangent_pairs: int


def is_apollonian_like(
    packing: CirclePacking,
    residual_tol: float = 1e-5,
    tangency_tol: float = 1e-6,
    normalize: bool = False,
) -> GasketVerdict:
    """Desk-scale gasket check on a finite packing.

    Verifies that the tangency graph is connected, that no two disks cross,
    and that every quadruple formed by a mutually tangent triangle plus a
    circle tangent to all three has Descartes residual below residual_tol.

    With normalize, the residuals are those of the packing moved by the map
    normalize_to_standard_gasket returns, and that function's errors come
    first.  Inversive products are Moebius-invariant, so one tangency scan
    of the input serves both the map and the verdict.
    """
    circles = packing.circles
    graph, overlap, candidates = _scan_products(circles, tangency_tol)
    curv = [c.A for c in circles]
    if normalize:
        if overlap:
            raise OverlappingCirclesError(overlap)
        to_standard = _anchor_map(graph)
        curv = [c.transform(to_standard).A for c in circles]
    if len(circles) < 4:
        raise ValueError(f"need at least 4 circles, got {len(circles)}")
    connected = graph.is_connected()
    adj = graph.adjacency

    worst = 0.0
    worst_quad = None
    triangles = 0
    quadruples = 0
    for i, j, k in graph.triangles():
        triangles += 1
        for l in sorted(x for x in adj[i].keys() & adj[j].keys() & adj[k].keys() if x > k):
            quadruples += 1
            r = descartes_residual(curv[i], curv[j], curv[k], curv[l])
            if abs(r) > worst:
                worst = abs(r)
                worst_quad = (i, j, k, l)

    failures = []
    if not connected:
        failures.append("tangency graph disconnected")
    if overlap:
        failures.append(f"{len(overlap)} crossing pair(s)")
    if quadruples == 0:
        failures.append("no tangent quadruples found")
    if worst >= residual_tol:
        failures.append(
            f"worst Descartes residual {worst:.3g} at {worst_quad} exceeds {residual_tol:.3g}"
        )
    return GasketVerdict(
        passed=not failures,
        connected=connected,
        overlap_pairs=tuple(overlap),
        worst_residual=worst,
        worst_quadruple=worst_quad,
        triangles_checked=triangles,
        quadruples_checked=quadruples,
        failures=tuple(failures),
        candidate_pairs=candidates,
        tangent_pairs=len(graph.edges),
    )


# -- packing text format -------------------------------------------------------
#
#   C re im radius     circle (center, radius); negative radius = enclosing
#   L re im offset     line (unit normal re,im and offset); disk on the <= side
#
# '#' comments and blank lines allowed.

def load_packing(text: str) -> CirclePacking:
    circles: list[OrientedCircle] = []
    for line_no, line in _format_lines(text):
        parts = line.split()
        if len(parts) != 4 or parts[0] not in ("C", "L"):
            raise ValueError(f"line {line_no}: expected 'C re im radius' or 'L re im offset'")
        x, y, v = (float(p) for p in parts[1:])
        if parts[0] == "C":
            if v == 0.0:
                raise ValueError(f"line {line_no}: zero radius")
            c = OrientedCircle.from_center_radius(complex(x, y), abs(v))
            circles.append(c.reversed() if v < 0 else c)
        else:
            circles.append(OrientedCircle.from_line(complex(x, y), v))
    if not circles:
        raise ValueError("packing file defines no circles")
    return CirclePacking(circles)


def dump_packing(packing: CirclePacking) -> str:
    lines = []
    for c in packing.circles:
        if c.is_line:
            n, d = c.line_geometry()
            lines.append(f"L {n.real:.17g} {n.imag:.17g} {d:.17g}")
        else:
            m = c.center
            lines.append(f"C {m.real:.17g} {m.imag:.17g} {1.0 / c.A:.17g}")
    return "\n".join(lines) + "\n"
