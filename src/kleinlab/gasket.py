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
import struct
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .groups import _format_lines
from .mobius import (
    _transport,
    _transport_coeffs,
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
        return cls._from_unit_triple(0.0, *_line_triple(complex(normal), offset))

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
        return _line_geometry(self.B, self.C)

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
        # Taken as is: transform_hermitian's docstring says why nothing
        # renormalizes after a determinant-1 map.
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


def _line_triple(normal: complex, offset: float) -> tuple[complex, float]:
    """B and C of the line Re(conj(normal) z) = offset, its disk on the <=
    side: the unit normal and -2 offset / |normal|, at A = 0."""
    n = abs(normal)
    if n == 0.0:
        raise ValueError("line normal must be nonzero")
    return normal / n, -2.0 * offset / n


def _line_geometry(B: complex, C: float) -> tuple[complex, float]:
    """(unit normal, offset) of the line with coefficients B and C."""
    n = abs(B)
    return (B / n, -C / (2.0 * n))


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
    quadruple, symmetric in the arguments.  Takes numpy arrays too, with the
    same operations in the same order for each element."""
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
    """A finite list of oriented circles, held as `columns`: A, Re B, Im B
    and C of every circle in a (4, N) float array, as _columns lays them
    out.  A packing made by from_columns builds its `circles` on first
    read."""

    def __init__(self, circles):
        self.circles = list(circles)
        self.columns = _columns(self.circles)

    @classmethod
    def from_columns(cls, columns) -> "CirclePacking":
        out = object.__new__(cls)
        out.columns = columns
        return out

    @cached_property
    def circles(self) -> list[OrientedCircle]:
        return [
            OrientedCircle._from_unit_triple(A, complex(Bre, Bim), C)
            for A, Bre, Bim, C in zip(*self.columns.tolist())
        ]

    def circle(self, k: int) -> OrientedCircle:
        """Circle k, without building the others."""
        A, Bre, Bim, C = self.columns[:, k].tolist()
        return OrientedCircle._from_unit_triple(A, complex(Bre, Bim), C)

    @cached_property
    def lines(self):
        """Which circles are lines, as OrientedCircle.is_line tells."""
        return abs(self.columns[0]) < 1e-9

    @cached_property
    def centres(self):
        """Every OrientedCircle.center as a complex array, a line's as
        inf + inf j.  The operations are CPython's for -B / A, a complex
        over a float: numpy's complex division differs in the last place,
        and plain -Re B / A turns a centre's 0 into -0."""
        import numpy as np

        A, Bre, Bim, _ = self.columns
        ar, ai = -Bre, -Bim
        z = np.empty(len(A), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):  # lines are redone
            ratio = 0.0 / A
            z.real = (ar + ai * ratio) / A
            z.imag = (ai - ar * ratio) / A
        z[self.lines] = complex(math.inf, math.inf)
        return z

    def __len__(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class TangencyEdge:
    i: int
    j: int
    point: SpherePoint


def _csr_rows(indptr, indices, vertices):
    """(t, w) for every neighbour w of every vertices[t] in a CSR adjacency,
    t ascending and, within each t, in row order."""
    import numpy as np

    start = indptr[vertices]
    count = indptr[vertices + 1] - start
    owner = np.repeat(np.arange(len(vertices)), count)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    return owner, indices[start[owner] + offset]


def _contains(sorted_keys, keys):
    """Whether each of keys is in the nonempty sorted_keys."""
    import numpy as np

    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


class TangencyGraph:
    """The tangent pairs of a packing as int arrays i < j in lexicographic
    order, so their `keys` i * n + j ascend: the one edge table that
    `has_edge`, the degree order of the cliques and `is_connected` read.

    Tangency points are computed only where they are read: `edge_point`
    and the lazy `edges`.
    """

    def __init__(self, packing: CirclePacking, i, j):
        self.n = len(packing)
        self.packing = packing
        self.columns = packing.columns
        self.i, self.j = i, j
        self.keys = i * self.n + j

    def has_edge(self, i: int, j: int) -> bool:
        i, j = min(i, j), max(i, j)
        if not (0 <= i and j < self.n):
            return False
        key = i * self.n + j
        pos = int(self.keys.searchsorted(key))
        return pos < len(self.keys) and int(self.keys[pos]) == key

    def edge_point(self, i: int, j: int) -> SpherePoint:
        if not self.has_edge(i, j):
            raise KeyError((i, j))
        return tangency_point(self.packing.circle(min(i, j)), self.packing.circle(max(i, j)))

    @cached_property
    def edges(self) -> list[TangencyEdge]:
        """Every edge with its tangency point, in (i, j) order."""
        c = self.packing.circles
        return [
            TangencyEdge(a, b, tangency_point(c[a], c[b]))
            for a, b in zip(self.i.tolist(), self.j.tolist())
        ]

    @cached_property
    def _oriented(self):
        """Every edge pointed at its endpoint of higher (degree, index): the
        out-neighbour CSR and the sorted arc keys u * n + v.

        A clique is then found once, from its lowest vertex: each step
        follows an arc out of the clique's highest vertex so far, and arc
        lookups close it.  The tangency graph of a packing is planar, so
        this lists its triangles in O(E) (Chiba-Nishizeki, Arboricity and
        subgraph listing algorithms, SIAM J. Comput. 1985).
        """
        import numpy as np

        n = self.n
        degree = np.bincount(np.concatenate((self.i, self.j)), minlength=n)
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
        up = rank[self.i] < rank[self.j]
        src, dst = np.where(up, self.i, self.j), np.where(up, self.j, self.i)
        keys = src * n + dst
        order = np.argsort(keys)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        return indptr, dst[order], keys[order]

    def _extend(self, clique):
        """Every clique one vertex larger, each vertex list in the order of
        the arcs.  The given cliques are int arrays in arc order, listed by
        their first vertex, so the first lookups run in key order."""
        out_ptr, out, keys = self._oriented
        t, w = _csr_rows(out_ptr, out, clique[-1])
        for x in clique[:-1]:
            closed = _contains(keys, x[t] * self.n + w)
            t, w = t[closed], w[closed]
        return [x[t] for x in clique] + [w]

    def _by_index(self, clique):
        """The cliques with each one's vertices in ascending order, listed in
        index-lexicographic order."""
        import numpy as np

        clique = np.sort(np.stack(clique), axis=0)
        return clique[:, np.lexsort((*clique[:1:-1], clique[0] * self.n + clique[1]))]

    @cached_property
    def _arc_triangles(self):
        """Every triangle once, as three int arrays in arc order."""
        import numpy as np

        out_ptr, out, _ = self._oriented
        return self._extend([np.repeat(np.arange(self.n), np.diff(out_ptr)), out])

    @cached_property
    def _triangles(self):
        """Every mutually tangent (i, j, k), i < j < k, as a (3, T) int array
        in index-lexicographic order."""
        return self._by_index(self._arc_triangles)

    def _quadruples(self):
        """Every mutually tangent (i, j, k, l), i < j < k < l, as a (4, Q)
        int array in index-lexicographic order: the (i, j, k, l) of each
        triangle and each common neighbour l > k."""
        return self._by_index(self._extend(self._arc_triangles))

    def triangles(self):
        """Every mutually tangent (i, j, k) with i < j < k, in
        index-lexicographic order."""
        return zip(*self._triangles.tolist())

    def is_connected(self) -> bool:
        """A min-label pass with pointer jumping (Shiloach-Vishkin, J.
        Algorithms 3, 1982): each round hooks the larger root of every edge
        to the smaller, points every vertex at its root, and drops the edges
        inside one tree.  Each component ends rooted at its least vertex."""
        import numpy as np

        root = np.arange(self.n)
        i, j = self.i, self.j
        while len(i):
            ri, rj = root[i], root[j]
            np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
            while (root[root] != root).any():
                root = root[root]
            apart = root[i] != root[j]
            i, j = i[apart], j[apart]
        return not root.any()


# Rounding allowance for the cap prune and the grid cells.  What it covers
# (the cap centres, the bound, the float inversive product against the
# exact one) is each within a few dozen ulps; tol enters the bound exactly
# and needs no share of it.
_SLACK = 4096.0 * sys.float_info.epsilon
# Caps finer than this level share its grid.
_MAX_LEVEL = 20
# The finest cell of _near_pairs, that of level _MAX_LEVEL: its grid of
# about 2 / _FINEST_CELL cells a side has under 2^63 cells, one int64 key each.
_FINEST_CELL = math.sqrt(2.0 * 4.0 ** -_MAX_LEVEL)


def _columns(circles: list[OrientedCircle]):
    """A, Re B, Im B and C of every circle, as a (4, N) float array."""
    import numpy as np

    n = len(circles)
    A, B, C = (
        np.fromiter(map(attrgetter(name), circles), kind, n)
        for name, kind in (("A", float), ("B", complex), ("C", float))
    )
    return np.stack((A, B.real, B.imag, C))


def _near_pairs(points, h: float, own):
    """Int arrays (a, b) of every pair of the unit vectors `points` (x, y
    and z arrays) closer than h, and of some farther apart, each once, a ==
    b included; b is always a point the boolean array own selects.  Each
    own point looks up the 27 cells around it in a grid of cell side h, or
    _FINEST_CELL if that is larger (Bentley-Stanat-Williams, The complexity
    of finding fixed-radius near neighbors, IPL 6, 1977)."""
    import numpy as np

    h = max(h, _FINEST_CELL)
    side = 2 * int(1.0 / h) + 7
    cx, cy, cz = (np.floor(x / h).astype(np.int64) + side // 2 for x in points)
    keys = (cx * side + cy) * side + cz
    order = np.argsort(keys)
    sorted_keys = keys[order]
    # The own points, taken in key order: searchsorted runs faster on
    # ascending needles.
    own = order[own[order]]
    own_keys = keys[own]
    found = []
    # One neighbour offset at a time, keeping the own points with a hit.
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            # The three cells along z are consecutive keys.
            first = own_keys + ((dx * side + dy) * side - 1)
            lo = np.searchsorted(sorted_keys, first, "left")
            counts = np.searchsorted(sorted_keys, first + 2, "right") - lo
            hit = counts.nonzero()[0]
            found.append((lo[hit], counts[hit], own[hit]))
    lo, counts, b = map(np.concatenate, zip(*found))
    starts = np.repeat(np.cumsum(counts) - counts - lo, counts)
    return order[np.arange(len(starts)) - starts], np.repeat(b, counts)


def _cap_candidates(columns, tol: float):
    """Every pair (i, j), i < j, whose inversive product p may reach -2 - tol:
    int arrays in lexicographic order, and p of each pair.  columns holds
    the circles as CirclePacking.columns does.

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
    level L.  For each level, _near_pairs pairs the level's own caps with
    the caps of that level and finer ones less than about sqrt(2 * 4^-L)
    apart, so the work grows with the circles times the levels, not with
    the pairs.
    """
    import numpy as np

    A, Bre, Bim, C = columns
    empty = np.zeros(0, dtype=np.int64)
    if len(A) < 2:
        return empty, empty, np.zeros(0)
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
        finer = np.flatnonzero(level >= lev)
        a, b = _near_pairs([x[finer] for x in centre], h, level[finer] == lev)
        a, b = finer[a], finer[b]
        # A pair within one level is seen from both ends and kept once.
        keep = (level[a] > lev) | (a > b)
        a, b = a[keep], b[keep]
        cos_phi = sum(x[a] * x[b] for x in centre)
        near = cos_phi >= c[a] * c[b] - (4.0 + 2.0 * tol) * r[a] * r[b] - _SLACK
        found_i.append(np.minimum(a[near], b[near]))
        found_j.append(np.maximum(a[near], b[near]))
    i = np.concatenate(found_i)
    j = np.concatenate(found_j)
    order = np.argsort(i * len(A) + j)
    i, j = i[order], j[order]
    # OrientedCircle.inversive_product's operation order, so the
    # tangent/overlap split is bit-identical to it.
    p = 2.0 * (Bre[i] * Bre[j] + Bim[i] * Bim[j]) - A[i] * C[j] - A[j] * C[i]
    return i, j, p


# A "tangent" pair whose summed triple is this small against the pair's own
# components is one locus listed twice, a circle and its complement.
_ONE_LOCUS = 1e-9


def _scan_products(packing: CirclePacking, tol: float):
    """(tangency graph, overlapping pairs, candidate pair count) from one
    pass over the pairs the cap index cannot rule out; the overlapping pairs
    come sorted, and a circle listed with its complement is one of them.
    Raises ValueError unless 0 < tol < 4: from 4 on, |p + 2| <= tol takes
    every crossing pair, p in (-2, 2), for a tangent one."""
    import numpy as np

    if not 0.0 < tol < 4.0:
        raise ValueError(f"tangency tolerance must lie in (0, 4), got {tol}")
    columns = packing.columns
    i, j, p = _cap_candidates(columns, tol)
    near = np.flatnonzero(abs(p + 2.0) <= tol)
    a, b = columns[:, i[near]], columns[:, j[near]]
    one_locus = abs(a + b).max(axis=0) <= _ONE_LOCUS * np.maximum(abs(a), abs(b)).max(axis=0)
    crossing = p > -2.0
    crossing[near] = one_locus
    tangent = near[~one_locus]
    overlap = list(zip(i[crossing].tolist(), j[crossing].tolist()))
    return TangencyGraph(packing, i[tangent], j[tangent]), overlap, len(p)


def detect_tangencies(packing: CirclePacking, tol: float = 1e-6) -> TangencyGraph:
    """Tangency graph of a packing, with the tangency point on each edge.

    Tolerance applies to the inversive product (deviation from -2).  Raises
    OverlappingCirclesError if any pair of disks overlaps deeper than tol;
    duplicated circles count as overlapping.
    """
    graph, overlap, _ = _scan_products(packing, tol)
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


# A rounded triple as 32 bytes, four little-endian int64s.
_PACK_KEY = struct.Struct("<4q").pack


def _triple_key(k0: int, k1: int, k2: int, k3: int) -> bytes | tuple[int, int, int, int]:
    """_TripleSet's stored form of a rounded triple: packed, or the tuple
    itself when a component does not fit in int64.  A bytes key never
    equals a tuple, so the two forms never collide."""
    try:
        return _PACK_KEY(k0, k1, k2, k3)
    except struct.error:
        return (k0, k1, k2, k3)


class _TripleSet:
    """Dedup set of discriminant-1 triples keyed on their rounded components.

    Takes the four real components rather than a circle so the DFS can test
    a triple before building any object for it; wordtree._rounded_keys is
    the same rounding rule over arrays, for the DFS's level builder.  A
    triple and its
    negation are the same locus, so each is keyed by its sign-canonical form
    (first nonzero component positive); otherwise mixed-sign seeds would
    shadow each other's orbits.  Keys are stored as _triple_key packs them,
    32 bytes each where a tuple of four ints takes about 200.  The store is
    a set unless the caller passes another container with `in` and `add`.
    """

    __slots__ = ("_seen",)
    GRID = 1e-8

    def __init__(self, seen=None):
        self._seen = set() if seen is None else seen

    def try_add(self, A: float, Bre: float, Bim: float, C: float) -> bool:
        """Record the triple; False when it, its negation, or one within
        rounding of either was seen."""
        if (A, Bre, Bim, C) < (0.0, 0.0, 0.0, 0.0):
            A, Bre, Bim, C = -A, -Bre, -Bim, -C
        g = self.GRID
        comps = q0, q1, q2, q3 = (A / g, Bre / g, Bim / g, C / g)
        k0, k1, k2, k3 = rounded = (round(q0), round(q1), round(q2), round(q3))
        key = _triple_key(k0, k1, k2, k3)
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
                for q, k in zip(comps, rounded)
            ]
            if any(_triple_key(*probe) in self._seen for probe in itertools.product(*options)):
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
    """Every circle moved by m as OrientedCircle.transform moves it."""
    import numpy as np

    with np.errstate(all="ignore"):  # Python floats overflow without a word too
        return CirclePacking.from_columns(np.array(_transport(_transport_coeffs(m), *packing.columns)))


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
    if not graph._triangles.shape[1]:
        raise NoTangentTripleError("packing has no mutually tangent triple")
    i, j, k = graph._triangles[:, 0].tolist()
    src = (graph.edge_point(i, j), graph.edge_point(i, k), graph.edge_point(j, k))
    return moebius_mapping(src, STANDARD_TANGENCY_POINTS)


def _moved_curvatures(columns, m: MoebiusMap):
    """The curvature of every circle moved by m: transform_hermitian's A."""
    import numpy as np

    with np.errstate(all="ignore"):
        return _transport(_transport_coeffs(m), *columns)[0]


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
    import numpy as np

    graph, overlap, candidates = _scan_products(packing, tangency_tol)
    curv = graph.columns[0]
    if normalize:
        if overlap:
            raise OverlappingCirclesError(overlap)
        curv = _moved_curvatures(graph.columns, _anchor_map(graph))
    if len(packing) < 4:
        raise ValueError(f"need at least 4 circles, got {len(packing)}")
    connected = graph.is_connected()

    quad = graph._quadruples()
    residual = abs(descartes_residual(*curv[quad]))
    # The first largest |r| above 0, as a running `|r| > worst` keeps it;
    # a NaN never takes the lead.
    residual = np.where(residual > 0.0, residual, 0.0)
    triangles = graph._triangles.shape[1]
    quadruples = len(residual)
    worst = 0.0
    worst_quad = None
    if quadruples and residual.max() > 0.0:
        q = int(np.argmax(residual))
        worst = float(residual[q])
        worst_quad = tuple(quad[:, q].tolist())

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
        tangent_pairs=len(graph.i),
    )


# -- packing text format -------------------------------------------------------
#
#   C re im radius     circle (center, radius); negative radius = enclosing
#   L re im offset     line (unit normal re,im and offset); disk on the <= side
#
# '#' comments and blank lines allowed.

def load_packing(text: str) -> CirclePacking:
    """The packing of a text in the format above, parsed straight into
    columns.  Each triple takes the operations of from_center_radius (and
    reversed, for a negative radius) or from_line, and each bad line raises
    the error those would, after its line number.  A non-finite number is
    an error too, found in one pass after the lines parse."""
    import numpy as np

    # x, y and radius or offset of each row, three doubles to a row in one
    # flat array, which one bulk pass turns into the circles' triples;
    # (row, B, C) of each line.
    rows = array("d")
    lines: list[tuple[int, complex, float]] = []
    for line_no, line in _format_lines(text):
        try:
            parts = line.split()
            if len(parts) != 4 or parts[0] not in ("C", "L"):
                raise ValueError("expected 'C re im radius' or 'L re im offset'")
            x, y, v = map(float, parts[1:])
            if parts[0] == "C":
                if v == 0.0:
                    raise ValueError("zero radius")
                if not abs(v) > 0.0:
                    raise ValueError(f"radius must be positive, got {abs(v)}")
            else:
                lines.append((len(rows) // 3, *_line_triple(complex(x, y), v)))
            rows.extend((x, y, v))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    if not rows:
        raise ValueError("packing file defines no circles")
    # The table is filled in place: x, y and v go to rows 1-3, the parse
    # buffer is dropped, and each row is then overwritten by its component.
    columns = np.empty((4, len(rows) // 3))
    columns[1:] = np.frombuffer(rows, dtype=float).reshape(-1, 3).T
    del rows
    x, y, radius = columns[1:]
    finite = np.isfinite(columns[1:]).all(axis=0)
    if not finite.all():
        line_no, line = next(itertools.islice(_format_lines(text), int(finite.argmin()), None))
        raise ValueError(f"line {line_no}: numbers must be finite, got {line!r}")
    del finite
    flip = radius < 0.0
    # Python floats overflow to inf and nan without a word; so do these.
    with np.errstate(all="ignore"):
        np.abs(radius, out=radius)
        k = np.divide(1.0, radius, out=columns[0])
        t, u = x * x, y * y
        t += u
        t -= np.multiply(radius, radius, out=u)
        np.multiply(t, k, out=radius)  # C = (|centre|^2 - radius^2) k
        # B = -centre * k is a complex product with (k, 0), as CPython takes it.
        ar, ai = np.negative(x, out=x), np.negative(y, out=y)
        np.subtract(np.multiply(ar, k, out=t), np.multiply(ai, 0.0, out=u), out=t)
        np.add(np.multiply(ar, 0.0, out=u), np.multiply(ai, k, out=ai), out=ai)
        ar[:] = t
    del t, u
    np.negative(columns, out=columns, where=flip)  # in place: no second table
    for row, B, C in lines:
        columns[:, row] = (0.0, B.real, B.imag, C)
    return CirclePacking.from_columns(columns)


def dump_packing(packing: CirclePacking) -> str:
    return "\n".join(row for _, rows in _packing_rows(packing) for row in rows) + "\n"


# Circles per block that _packing_rows formats at a time.
_ROW_BLOCK = 1 << 10


def _packing_rows(packing: CirclePacking):
    """dump_packing's rows, formatted a block of _ROW_BLOCK circles at a
    time.  Each block is a pair of lists: the centres as 'x y' in %.17g,
    'inf inf' for a line, which the cloud rows of `dfs` reuse, and the
    rows."""
    import numpy as np

    z = packing.centres
    for lo in range(0, len(packing), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        columns = packing.columns[:, block]
        xy = list(map("%.17g %.17g".__mod__, zip(z.real[block].tolist(), z.imag[block].tolist())))
        with np.errstate(divide="ignore"):  # lines are redone
            radius = (1.0 / columns[0]).tolist()
        rows = list(map("C %s %.17g".__mod__, zip(xy, radius)))
        for k in np.flatnonzero(packing.lines[block]).tolist():
            _, Bre, Bim, C = columns[:, k].tolist()
            n, d = _line_geometry(complex(Bre, Bim), C)
            rows[k] = "L %.17g %.17g %.17g" % (n.real, n.imag, d)
        yield xy, rows
