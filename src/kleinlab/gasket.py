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
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
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
    the circles as CirclePacking.columns does.  Raises ValueError for the
    first circle whose |w| below is not finite in floats.

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
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(4.0 * (Bre * Bre + Bim * Bim) + (A - C) * (A - C))
    if not np.isfinite(norm).all():
        k = int(np.argmin(np.isfinite(norm)))
        raise ValueError(
            f"circle {k} lies outside the tangency scan's float range: (A, Re B, Im B, C) = "
            f"{tuple(columns[:, k].tolist())}"
        )
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


def _expand_quadruples(seed_quadruples, generations: int) -> list[OrientedCircle]:
    from .wordtree import _TripleSet

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
        curv = apply_to_packing(_anchor_map(graph), packing).columns[0]
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
    rows = (_join_rows([*parts, b"\n"]) for _, _, parts in _packing_rows(packing))
    return b"".join(rows).decode() or "\n"


# Circles per block that _packing_rows formats at a time.
_ROW_BLOCK = 1 << 11


def _packing_rows(packing: CirclePacking):
    """dump_packing's rows, formatted a block of _ROW_BLOCK circles at a
    time.  Each block is (x, y, parts): the centres' %.17g fields, inf for
    a line, which the cloud rows of `dfs` reuse, and the parts of the rows
    'C x y radius' and 'L nx ny offset' for _join_rows, without a newline."""
    import numpy as np

    z = packing.centres
    for lo in range(0, len(packing), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        columns = packing.columns[:, block]
        x, y = _fields(z.real[block], "%.17g"), _fields(z.imag[block], "%.17g")
        with np.errstate(divide="ignore"):  # lines are redone
            radius = _fields(1.0 / columns[0], "%.17g")
        kind = np.full((len(radius), 1), ord("C"), dtype=np.uint8)
        lines = np.flatnonzero(packing.lines[block]).tolist()
        row_x, row_y = x, y
        if lines:
            kind[lines] = ord("L")
            geometry = [
                _line_geometry(complex(Bre, Bim), C) for _, Bre, Bim, C in columns[:, lines].T.tolist()
            ]
            row_x = _put(x.copy(), lines, [b"%.17g" % n.real for n, _ in geometry])
            row_y = _put(y.copy(), lines, [b"%.17g" % n.imag for n, _ in geometry])
            radius = _put(radius, lines, [b"%.17g" % d for _, d in geometry])
        yield x, y, [kind, b" ", row_x, b" ", row_y, b" ", radius]


# -- bulk text formatting ------------------------------------------------------
#
# The text artifacts print floats as %.17g or %.4f.  _fields formats a float
# column in bulk into NUL-padded uint8 rows, each the bytes % gives, and
# _join_rows lays such fields beside constant text and drops the NULs.
#
# %.17g: the digits of x are N, the integer nearest |x| 10^(16 - X) for its
# decimal exponent X, with 10^16 <= N < 10^17.  The product is taken as a
# double-double, against 10^s held as hi + lo, by Dekker's exact product
# ("A floating-point technique for extending the available precision",
# Numer. Math. 18, 1971) with Veltkamp's split, since numpy has no fused
# multiply-add.  Its error is below 1e-14, so N is exact unless the product
# lies within 1e-7 of a half-integer, where % decides.  X comes from log10,
# which can be one off next to a power of ten, and the rounding can carry
# into an 18th digit: then N falls outside the range, and % decides too.
# So does N = 10^16 exactly, which an X one too high can produce.
#
# %.4f: the fraction of |x| is exact, and its product with 10^4 is off by at
# most 1.2e-12, so plain doubles round it exactly outside the same 1e-7
# window of a tie.
#
# Zero, values that are not finite, |x| outside [1e-30, 1e30] for %.17g and
# |x| >= 1e15 for %.4f take % too, each written into its row.  The %.17g
# bounds keep the tables a few kilobytes: the artifacts' numbers lie well
# inside them.

_SPLIT = 134217729.0  # 2^27 + 1
_TIE = 0.5 - 1e-7
# The exponents the %.17g tables cover, one past the bounds each way.
_X_MIN, _X_MAX = -31, 31


@cache
def _format_tables():
    """The kernel's lookup tables, built on first use.

    pow10: rows hi, hi's split and lo of 10^s, s = 16 - X, a column per X.
    four: the four ASCII digits of 0..9999 as one uint32.  tz4: the
    trailing zeros of 0..9999, four for 0.  keep: row k is k bytes 0xFF,
    then zeros, of 16: digits 1..k of a %.17g field, or a %.4f field's k
    last integer digits, reversed.
    g_rows: the %.17g field of each X, with the point and without, all but
    its sign and digits, in a layout of 45 columns: the sign, "0.000", the
    17 digits each followed by a slot for the point, and an exponent.
    point: the digit the point follows (16: none, in the "0.000" prefix).
    kept: the digits up to this one are kept though zero."""
    import numpy as np

    pow10 = []
    for X in range(_X_MIN, _X_MAX + 1):
        if X <= 16:
            hi = float(10 ** (16 - X))
            lo = float(10 ** (16 - X) - int(hi))
        else:
            d = 10 ** (X - 16)
            hi = 1 / d
            m, q = hi.as_integer_ratio()
            lo = (q - m * d) / (q * d)
        t = hi * _SPLIT  # Veltkamp's split of hi into two 26-bit halves
        half = t - (t - hi)
        pow10.append((hi, half, hi - half, lo))
    k = np.arange(10000, dtype=np.int16)
    digits = np.stack((k // 1000, k // 100 % 10, k // 10 % 10, k % 10), axis=1).astype(np.uint8)
    four = (digits + ord("0")).view("<u4").ravel()
    # Trailing zeros: the place of the last nonzero digit from the right.
    zero = digits[:, ::-1] == 0
    tz4 = np.where(zero.all(axis=1), 4, np.argmin(zero, axis=1)).astype(np.int8)
    keep = np.tri(17, 16, -1, dtype=np.uint8) * np.uint8(0xFF)
    g_rows = np.zeros((_X_MAX - _X_MIN + 1, 2, 45), dtype=np.uint8)
    point = np.zeros(len(g_rows), dtype=np.int64)
    kept = np.zeros(len(g_rows), dtype=np.int64)
    for i, X in enumerate(range(_X_MIN, _X_MAX + 1)):
        if -4 <= X < 0:
            text = b"0." + b"0" * (-X - 1)
            g_rows[i, :, 1:1 + len(text)] = np.frombuffer(text, dtype=np.uint8)
            point[i] = 16
        elif 0 <= X <= 16:
            point[i] = kept[i] = X
        else:
            text = b"e%+03d" % X
            g_rows[i, :, 40:40 + len(text)] = np.frombuffer(text, dtype=np.uint8)
        g_rows[i, 1, 7 + 2 * point[i]] = ord(".")
    return np.array(pow10).T.copy(), four, tz4, keep, g_rows.reshape(-1, 45), point, kept


def _g17_layout(last_point: int, prefix: bool, exponent: bool):
    """g_rows narrowed to the columns a block uses: point slots only after
    digits 0..last_point, and the "0.000" and exponent columns only when
    some value needs them.  Also the column of digit 0."""
    cols = [0, *(range(1, 6) if prefix else ())]
    for j in range(17):
        cols += [6 + 2 * j, 7 + 2 * j] if j <= last_point else [6 + 2 * j]
    cols += range(40, 45) if exponent else ()
    return _format_tables()[4].take(cols, axis=1), 6 if prefix else 1


def _put(field, rows: list[int], texts: list[bytes]):
    """A NUL-padded field with each of rows holding its text instead: field
    itself, or a wider copy when a text does not fit."""
    import numpy as np

    width = max(map(len, texts), default=0)
    if width > field.shape[1]:
        pad = np.zeros((len(field), width - field.shape[1]), dtype=np.uint8)
        field = np.concatenate((field, pad), axis=1)
    for k, text in zip(rows, texts):
        field[k] = 0
        field[k, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return field


def _fields(values, fmt: str):
    """One NUL-padded uint8 row per value of a float array: the bytes of
    fmt % value, for fmt "%.17g" or "%.4f"."""
    import numpy as np

    a = np.abs(values)
    out, fallback = (_g17 if fmt == "%.17g" else _f4)(a)
    out[:, 0] = np.signbit(values) * ord("-")
    rows = np.flatnonzero(fallback).tolist()
    return _put(out, rows, [(fmt % v).encode() for v in values[rows].tolist()])


def _g17(a):
    """%.17g fields of |x| for a = |x|, less the sign, and the rows that
    take %."""
    import numpy as np

    pow10, four, tz4, keep, _, point, kept = _format_tables()
    n = len(a)
    ok = (a >= 1e-30) & (a <= 1e30)
    a = np.where(ok, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    # N + f = a 10^(16 - X), N the nearest integer.  N is off where the
    # product lies below 2^53, which is below the range accepted.
    bh, bhh, bhl, bl = pow10.take(X - _X_MIN, axis=1)
    p = a * bh
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    f = ((ah * bhh - p) + ah * bhl + al * bhh) + al * bhl
    f += a * bl
    r = np.rint(f)
    f -= r
    N = p.astype(np.int64) + r.astype(np.int64)
    # Accepted: 10^16 < N < 10^17, by one unsigned compare.
    fallback = (N - (10**16 + 1)).view(np.uint64) >= 9 * 10**16 - 1
    fallback |= np.abs(f) > _TIE
    fallback |= ~ok
    N[fallback] = 10**16 + 1
    X[fallback] = 0
    # Digit 0, then four groups of four digits.
    lead = N // 10**16
    N -= lead * 10**16
    hi = N // 10**8
    halves = np.stack((hi, N - hi * 10**8), axis=1)
    q = halves // 10**4
    groups = np.stack((q, halves - q * 10**4), axis=2).reshape(n, 4)
    # The last nonzero digit, from the trailing zeros of each group.
    last = 16 - tz4.take(groups[:, 3])
    ends = np.flatnonzero(last == 12)
    if len(ends):
        tz = tz4.take(groups[ends])
        t2, t1 = tz[:, 2], tz[:, 1]
        last[ends] -= t2 + (t2 == 4) * (t1 + (t1 == 4) * tz[:, 0])
    # Columns for the exponents the block holds: X and the point's digit.
    low, high = int(X.min(initial=0)), int(X.max(initial=0))
    split = min(max(high, 0), 16) + 1
    table, d0 = _g17_layout(split - 1, low < 0 and high >= -4, low < -4 or high > 16)
    X -= _X_MIN
    pt = point.take(X)
    out = table.take(2 * X + (last > pt), axis=0)
    # Digit 0 is never dropped; digits 1..16 where they are kept, into the
    # columns with a point slot after them and then the plain ones.
    out[:, d0] = lead + ord("0")
    digits = four.take(groups)
    digits.view(np.uint64)[...] &= keep.view(np.uint64).take(np.maximum(last, kept.take(X)), axis=0)
    digits = digits.view(np.uint8)
    out[:, d0 + 2:d0 + 2 * split:2] = digits[:, :split - 1]
    # The plain columns as one void item a row: one copy, not 17 - split.
    plain = np.dtype((np.void, 17 - split))
    out[:, d0 + 2 * split:d0 + split + 17].view(plain)[...] = digits[:, split - 1:].view(plain)
    return out, fallback


def _f4(a):
    """%.4f fields of |x| for a = |x|, less the sign, and the rows that
    take %."""
    import numpy as np

    _, four, _, keep, *_ = _format_tables()
    n = len(a)
    ok = a < 1e15
    a = np.where(ok, a, 0.0)
    whole = np.floor(a)
    p = (a - whole) * 1e4
    frac = np.rint(p)
    fallback = ~ok | (np.abs(p - frac) > _TIE)
    carry = frac == 1e4
    whole += carry
    frac[carry] = 0.0
    whole = whole.astype(np.int64)
    # Four digits to a group, as many groups as the largest integer part needs.
    ng = (len(b"%d" % whole.max()) + 3) // 4 if n else 1
    groups = np.empty((n, ng + 1), dtype=np.int64)
    groups[:, ng] = frac
    rest = whole
    for j in range(ng - 1, 0, -1):
        q = rest // 10**4
        groups[:, j] = rest - q * 10**4
        rest = q
    groups[:, 0] = rest
    chars = four.take(groups).view(np.uint8).reshape(n, 4 * ng + 4)
    w = 4 * ng
    out = np.empty((n, w + 6), dtype=np.uint8)
    # Leading zeros become NULs, all but the units digit.
    digits = np.searchsorted(10 ** np.arange(1, w, dtype=np.int64), whole, side="right")
    np.bitwise_and(chars[:, :w], keep.take(digits + 1, axis=0)[:, w - 1::-1], out=out[:, 1:w + 1])
    out[:, w + 1] = ord(".")
    out[:, w + 2:] = chars[:, w:]
    return out, fallback


def _join_rows(parts) -> bytes:
    """Rows laid out from parts side by side, each part a constant bytes
    string or a NUL-padded uint8 field with a row per row, and every NUL
    dropped."""
    import numpy as np

    n = next(len(p) for p in parts if not isinstance(p, bytes))
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    out = np.empty((n, sum(widths)), dtype=np.uint8)
    col = 0
    for part, w in zip(parts, widths):
        out[:, col:col + w] = np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part
        col += w
    return out.tobytes().translate(None, b"\0")
