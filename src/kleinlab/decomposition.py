"""Validators and small models for boundary-decomposition machinery: typed
graph-of-groups splittings, finite tree systems of finite metric spaces with
their quotient limits, Gromov products, and local-cut-point combinatorics on
finite graphs.

Metric computations use exact rational arithmetic so quotient metrics can be
compared to oracles with equality rather than tolerances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm
from operator import add
from typing import Iterable

from .groups import _format_lines

__all__ = [
    "UnknownVertexError",
    "UnknownPointError",
    "MetricDegenerateError",
    "VertexType",
    "GoGVertex",
    "GoGEdge",
    "GraphOfGroups",
    "Violation",
    "ValidationReport",
    "validate_bowditch",
    "abc_example",
    "FiniteMetricSpace",
    "TreeSystem",
    "tree_system_limit",
    "gromov_product",
    "four_point_delta",
    "SimpleGraph",
    "local_cut_valency",
    "link_valency",
    "CutPair",
    "cut_pairs",
    "load_graph_of_groups",
    "load_simple_graph",
    "load_tree_system",
]


class UnknownVertexError(ValueError):
    pass


class UnknownPointError(ValueError):
    pass


class MetricDegenerateError(ValueError):
    """The quotient construction produced distance zero between points that
    were not identified."""


# -- graphs of groups ----------------------------------------------------------

class VertexType(Enum):
    TWO_ENDED = "two-ended"
    HANGING_FUCHSIAN = "hanging-fuchsian"
    RIGID = "rigid"


@dataclass(frozen=True)
class GoGVertex:
    id: str
    type: VertexType
    slots: int = 0
    label: str = ""


@dataclass(frozen=True)
class GoGEdge:
    """Undirected edge with an edge-group two-endedness flag.

    slot_u / slot_v give the peripheral slot the edge occupies at the
    corresponding endpoint, meaningful when that endpoint is a
    hanging-Fuchsian vertex.
    """

    u: str
    v: str
    two_ended: bool = True
    slot_u: int | None = None
    slot_v: int | None = None
    label: str = ""


def _connected(adjacency: dict) -> bool:
    """Whether a nonempty graph, given as vertex -> neighbours, is connected."""
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(adjacency)


class GraphOfGroups:
    def __init__(self, vertices: Iterable[GoGVertex], edges: Iterable[GoGEdge]):
        self.vertices: dict[str, GoGVertex] = {}
        for v in vertices:
            if v.id in self.vertices:
                raise ValueError(f"duplicate vertex id {v.id!r}")
            self.vertices[v.id] = v
        self.edges: list[GoGEdge] = list(edges)
        for e in self.edges:
            for end in (e.u, e.v):
                if end not in self.vertices:
                    raise UnknownVertexError(f"edge endpoint {end!r} is not a vertex")
        if not self.vertices:
            raise ValueError("graph of groups needs at least one vertex")
        adj: dict[str, list[str]] = {i: [] for i in self.vertices}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        if not _connected(adj):
            raise ValueError("underlying graph must be connected")

    def incident(self, vertex_id: str) -> list[GoGEdge]:
        return [e for e in self.edges if vertex_id in (e.u, e.v)]

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1


@dataclass(frozen=True)
class Violation:
    clause: str  # "i" = edge not two-ended, "ii" = same-type adjacency, "iii" = slots
    message: str
    subjects: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def clauses_failed(self) -> tuple[str, ...]:
        return tuple(sorted({v.clause for v in self.violations}))


def validate_bowditch(g: GraphOfGroups) -> ValidationReport:
    """Check the splitting-shape conditions: (i) every edge group is
    two-ended, (ii) no edge joins two vertices of the same type, (iii) the
    edges at each hanging-Fuchsian vertex occupy its peripheral slots
    bijectively.  Violations are report content, never exceptions."""
    violations: list[Violation] = []
    for idx, e in enumerate(g.edges):
        if not e.two_ended:
            violations.append(
                Violation("i", f"edge {e.u}-{e.v} is not two-ended", (e.u, e.v))
            )
        if g.vertices[e.u].type is g.vertices[e.v].type:
            violations.append(
                Violation(
                    "ii",
                    f"edge {e.u}-{e.v} joins two {g.vertices[e.u].type.value} vertices",
                    (e.u, e.v),
                )
            )
    for vid in sorted(g.vertices):
        vert = g.vertices[vid]
        if vert.type is not VertexType.HANGING_FUCHSIAN:
            continue
        used: dict[int, int] = {}
        problems: list[str] = []
        for e in g.incident(vid):
            slots_here = [s for end, s in ((e.u, e.slot_u), (e.v, e.slot_v)) if end == vid]
            for s in slots_here:
                if s is None:
                    problems.append(f"edge {e.u}-{e.v} occupies no slot")
                elif not (1 <= s <= vert.slots):
                    problems.append(f"edge {e.u}-{e.v} names slot {s} outside 1..{vert.slots}")
                else:
                    used[s] = used.get(s, 0) + 1
        for s, count in sorted(used.items()):
            if count > 1:
                problems.append(f"slot {s} used by {count} edges")
        missing = [s for s in range(1, vert.slots + 1) if s not in used]
        if missing:
            problems.append(f"slot(s) {missing} unfilled")
        if problems:
            violations.append(
                Violation("iii", f"vertex {vid}: " + "; ".join(problems), (vid,))
            )
    return ValidationReport(tuple(violations))


def abc_example() -> GraphOfGroups:
    """The star-shaped splitting with one rigid hub, three two-ended curve
    vertices, and three single-slot hanging-Fuchsian leaves."""
    vertices = [GoGVertex("R", VertexType.RIGID, label="solid core")]
    edges = []
    for name in "abc":
        t = f"T{name}"
        h = f"H{name}"
        vertices.append(GoGVertex(t, VertexType.TWO_ENDED, label=f"curve {name}"))
        vertices.append(GoGVertex(h, VertexType.HANGING_FUCHSIAN, slots=1, label=f"band {name}"))
        edges.append(GoGEdge("R", t, two_ended=True))
        edges.append(GoGEdge(t, h, two_ended=True, slot_v=1))
    return GraphOfGroups(vertices, edges)


# -- finite metric spaces and tree systems -------------------------------------

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"distance entries must be rational, got {type(x).__name__}")


class FiniteMetricSpace:
    """Finite point set with an exact rational metric, validated on
    construction: symmetry, zero diagonal, positivity, triangle inequality.

    The space stores its metric scaled to integers: d(i, j) is
    `Fraction(_scaled[i][j], _den)`, with `_den` the lcm of the entries'
    denominators.  The checks and `tree_system_limit` run on that form,
    which Python ints keep exact at any size."""

    def __init__(self, points: Iterable[str], matrix):
        self.points: tuple[str, ...] = tuple(str(p) for p in points)
        n = len(self.points)
        if len(set(self.points)) != n or n == 0:
            raise ValueError("points must be nonempty and distinct")
        m = [[_as_fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
        den = lcm(*(x.denominator for row in m for x in row))
        d = [[x.numerator * (den // x.denominator) for x in row] for row in m]
        for i in range(n):
            if d[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {self.points[i]}")
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise ValueError("matrix not symmetric")
                if i != j and d[i][j] <= 0:
                    raise ValueError("off-diagonal distances must be positive")
        # d is symmetric, so d[i][k] + d[k][j] runs along rows i and j; and
        # (i, j, k) fails exactly when (j, i, k) does, so the lexicographically
        # first failure has i < j.
        for i in range(n - 1):
            row_i = d[i]
            for j in range(i + 1, n):
                if row_i[j] > min(map(add, row_i, d[j])):
                    k = next(k for k in range(n) if row_i[j] > row_i[k] + d[k][j])
                    raise ValueError(
                        f"triangle inequality fails at "
                        f"({self.points[i]}, {self.points[j]}, {self.points[k]})"
                    )
        self._den = den
        self._scaled = d
        self._index = {p: i for i, p in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def index(self, p: str) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise UnknownPointError(f"point {p!r} not in space") from None

    def distance(self, p: str, q: str) -> Fraction:
        return Fraction(self._scaled[self.index(p)][self.index(q)], self._den)

    def matrix(self) -> list[list[Fraction]]:
        den = self._den
        return [[Fraction(x, den) for x in row] for row in self._scaled]


class TreeSystem:
    """A finite tree of finite metric spaces with gluing bijections.

    gluings maps each tree edge (t1, t2) to a list of point-name pairs
    (p in K_t1, q in K_t2); per edge the first components are distinct and
    the second components are distinct, so the pairs form a bijection
    between two subsets.
    """

    def __init__(
        self,
        spaces: dict[str, FiniteMetricSpace],
        tree_edges: Iterable[tuple[str, str]],
        gluings: dict[tuple[str, str], list[tuple[str, str]]],
    ):
        self.spaces = dict(spaces)
        self.tree_edges = [tuple(e) for e in tree_edges]
        self.gluings = {tuple(k): list(v) for k, v in gluings.items()}
        ids = set(self.spaces)
        if not ids:
            raise ValueError("tree system needs at least one vertex space")
        adj: dict[str, set[str]] = {t: set() for t in ids}
        for t1, t2 in self.tree_edges:
            if t1 not in ids or t2 not in ids:
                raise UnknownVertexError(f"tree edge ({t1}, {t2}) uses unknown vertex")
            if t1 == t2 or t2 in adj[t1]:
                raise ValueError("tree edges must be distinct and loop-free")
            adj[t1].add(t2)
            adj[t2].add(t1)
        if len(self.tree_edges) != len(ids) - 1 or not _connected(adj):
            raise ValueError("edges must form a tree on the vertex spaces")
        for edge in self.tree_edges:
            pairs = self.gluings.get(edge)
            if not pairs:
                raise ValueError(f"edge {edge} has an empty gluing")
            t1, t2 = edge
            left = [p for p, _ in pairs]
            right = [q for _, q in pairs]
            if len(set(left)) != len(left) or len(set(right)) != len(right):
                raise ValueError(f"gluing along {edge} is not a bijection")
            for p in left:
                self.spaces[t1].index(p)
            for q in right:
                self.spaces[t2].index(q)
        edges = set(self.tree_edges)
        for edge in self.gluings:
            if edge not in edges:
                raise ValueError(f"gluing given for non-edge {edge}")


def tree_system_limit(system: TreeSystem) -> FiniteMetricSpace:
    """Quotient of the disjoint union of the vertex spaces by the gluings,
    with the shortest-chain metric through identified points.

    Quotient points are named t:p after the lexicographically smallest
    member of their class.
    """
    nodes = [(t, p) for t in sorted(system.spaces) for p in system.spaces[t].points]
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            # Keep the lexicographically smaller representative.
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx

    for (t1, t2), pairs in system.gluings.items():
        for p, q in pairs:
            union((t1, p), (t2, q))

    classes = sorted({find(x) for x in nodes})
    class_index = {rep: i for i, rep in enumerate(classes)}
    n = len(classes)

    # Every space's scaled metric, rescaled to one common denominator.
    den = lcm(*(space._den for space in system.spaces.values()))
    adjacency: list[dict[int, int]] = [dict() for _ in range(n)]
    for t in sorted(system.spaces):
        space = system.spaces[t]
        scale = den // space._den
        cls = [class_index[find((t, p))] for p in space.points]
        for (a, i), (b, j) in combinations(enumerate(cls), 2):
            if i == j:
                continue
            w = space._scaled[a][b] * scale
            if j not in adjacency[i] or w < adjacency[i][j]:
                adjacency[i][j] = w
                adjacency[j][i] = w

    # Exact Dijkstra from every class, on the integers over den.
    dist = [[Fraction(0)] * n for _ in range(n)]
    for s in range(n):
        best: dict[int, int] = {s: 0}
        done: set[int] = set()
        heap: list[tuple[int, int]] = [(0, s)]
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            done.add(x)
            for y, w in adjacency[x].items():
                nd = d + w
                if y not in best or nd < best[y]:
                    best[y] = nd
                    heapq.heappush(heap, (nd, y))
        for x in range(n):
            if x != s:
                if x not in best:
                    raise MetricDegenerateError(
                        "quotient is disconnected; no finite distance"
                    )
                if best[x] == 0:
                    raise MetricDegenerateError(
                        f"distinct classes {classes[s]} and {classes[x]} at distance 0"
                    )
                dist[s][x] = Fraction(best[x], den)

    names = [f"{t}:{p}" for t, p in classes]
    return FiniteMetricSpace(names, dist)


def gromov_product(space: FiniteMetricSpace, x: str, y: str, z: str) -> Fraction:
    """(y, z)_x = (d(x,y) + d(x,z) - d(y,z)) / 2; nonnegative by the
    triangle inequality."""
    return (space.distance(x, y) + space.distance(x, z) - space.distance(y, z)) / 2


def four_point_delta(space: FiniteMetricSpace) -> Fraction:
    """Worst four-point hyperbolicity defect:
    max over (x, y, z, w) of min((x,z)_w, (y,z)_w) - (x,y)_w, floored at 0.
    Trees give 0."""
    worst = Fraction(0)
    pts = space.points
    for w in pts:
        for x in pts:
            for y in pts:
                for z in pts:
                    defect = min(
                        gromov_product(space, w, x, z), gromov_product(space, w, y, z)
                    ) - gromov_product(space, w, x, y)
                    if defect > worst:
                        worst = defect
    return worst


# -- finite-graph cut analysis ---------------------------------------------------

class SimpleGraph:
    """Undirected graph without loops or multi-edges."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.adjacency: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed")
            if u not in self.adjacency or v not in self.adjacency:
                raise UnknownVertexError(f"edge ({u}, {v}) uses unknown vertex")
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]]) -> "SimpleGraph":
        edges = list(edges)
        seen: list[str] = []
        have = set()
        for u, v in edges:
            for x in (u, v):
                if x not in have:
                    have.add(x)
                    seen.append(x)
        return cls(seen, edges)

    def __contains__(self, v: str) -> bool:
        return v in self.adjacency

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adjacency.values()) // 2

    def _components(self, removed: set[str]) -> list[set[str]]:
        out = []
        seen: set[str] = set()
        for start in self.vertices:
            if start in removed or start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in self.adjacency[x]:
                    if y not in removed and y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        return len(self._components(set())) <= 1


def _require_vertex(g: SimpleGraph, v: str) -> None:
    if v not in g.adjacency:
        raise UnknownVertexError(f"vertex {v!r} not in graph")


def local_cut_valency(g: SimpleGraph, v: str) -> int:
    """Number of connected components of G - v that contain a neighbor of v
    (for connected G, every component does)."""
    _require_vertex(g, v)
    nbrs = g.adjacency[v]
    return sum(1 for comp in g._components({v}) if comp & nbrs)


def link_valency(g: SimpleGraph, v: str) -> int:
    """Number of connected components of the subgraph induced on the
    neighbors of v.

    This is the sharper analog of the number of ends at a point: on the
    tangency graph of a circle packing with tangency points inserted as
    subdivision vertices, every subdivision vertex gets link valency 2 even
    though the graph minus that vertex stays connected."""
    _require_vertex(g, v)
    return len(g._components(set(g.vertices) - g.adjacency[v]))


@dataclass(frozen=True)
class CutPair:
    pair: tuple[str, str]
    components: int
    flagged: bool


def _lowpoint_forest(adj: list[list[int]], x: int):
    """One iterative Hopcroft-Tarjan pass over the graph without vertex x.

    Returns the vertices in discovery order, and per vertex its discovery
    index, low point, subtree size and DFS parent (-1 for the roots, one
    per component of G - x, and for x itself).  A subtree occupies the
    discovery interval [disc[v], disc[v] + size[v]).  Low points also follow
    the tree edge back to the parent, which the articulation test
    low[c] >= disc[parent] tolerates."""
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    size = [1] * n
    parent = [-1] * n
    order: list[int] = []
    for r in range(n):
        if r == x or disc[r] >= 0:
            continue
        disc[r] = low[r] = len(order)
        order.append(r)
        stack = [(r, iter(adj[r]))]
        while stack:
            v, it = stack[-1]
            for u in it:
                if u == x:
                    continue
                if disc[u] < 0:
                    parent[u] = v
                    disc[u] = low[u] = len(order)
                    order.append(u)
                    stack.append((u, iter(adj[u])))
                    break
                if disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    size[p] += size[v]
    return order, disc, low, size, parent


def cut_pairs(g: SimpleGraph) -> list[CutPair]:
    """All vertex pairs whose removal disconnects the graph.

    A pair is flagged when every component of the complement is adjacent to
    both removed vertices; such pairs are the combinatorial stand-in for
    cut pairs with matching valency on both sides.

    One lowpoint pass over G - x serves every partner y > x, so the cost is
    O(V (V + E)).  The components of G - {x, y} are y's separated child
    subtrees, the rest of y's component unless y is its root, and the other
    components of G - x, which never touch y.
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if len(g.vertices) < 4:
        raise ValueError("need at least 4 vertices")
    names = sorted(g.vertices)
    index = {v: i for i, v in enumerate(names)}
    adj = [[index[u] for u in g.adjacency[v]] for v in names]
    n = len(names)
    out: list[CutPair] = []
    for x in range(n):
        order, disc, low, size, parent = _lowpoint_forest(adj, x)
        others = sum(1 for v in order if parent[v] < 0) - 1
        near_x = bytearray(n)
        for u in adj[x]:
            near_x[u] = 1
        # seen[k]: neighbours of x among the first k discovered vertices
        seen = list(accumulate((near_x[v] for v in order), initial=0))
        for y in range(x + 1, n):
            dy = disc[y]
            split = [c for c in adj[y] if parent[c] == y and low[c] >= dy]
            rooted = parent[y] < 0
            components = len(split) + (not rooted) + others
            if components <= 1:
                continue
            # Other components of G - x never touch y.  Split subtrees and the
            # parent side touch y; x's neighbours other than y that are in no
            # split subtree lie on the parent side.
            flagged = False
            if not others:
                touching = [seen[disc[c] + size[c]] - seen[disc[c]] for c in split]
                flagged = all(touching) and (
                    rooted or len(adj[x]) - near_x[y] - sum(touching) > 0
                )
            out.append(CutPair((names[x], names[y]), components, flagged))
    return out


# -- text formats ---------------------------------------------------------------

def load_graph_of_groups(text: str) -> GraphOfGroups:
    """Line format: `vertex <id> <type> [slots=n]` with type one of rigid,
    two-ended, hanging-fuchsian; `edge <id1> <id2> twoended=<bool>
    [slot=<k>] [slot2=<k>]` where slot binds at the first hanging-Fuchsian
    endpoint and slot2 at the second."""
    vertices: list[GoGVertex] = []
    edges: list[GoGEdge] = []
    types = {t.value: t for t in VertexType}
    # slot= binds by the types of the vertices declared above the edge line
    vtypes: dict[str, VertexType] = {}
    for line_no, line in _format_lines(text):
        parts = line.split()
        if parts[0] == "vertex" and len(parts) >= 3:
            vid, vtype = parts[1], parts[2]
            if vtype not in types:
                raise ValueError(f"line {line_no}: unknown vertex type {vtype!r}")
            slots = 0
            for extra in parts[3:]:
                k, _, val = extra.partition("=")
                if k == "slots":
                    slots = int(val)
                else:
                    raise ValueError(f"line {line_no}: unknown option {extra!r}")
            vertices.append(GoGVertex(vid, types[vtype], slots=slots))
            vtypes[vid] = types[vtype]
        elif parts[0] == "edge" and len(parts) >= 3:
            u, v = parts[1], parts[2]
            two_ended = True
            slot = slot2 = None
            for extra in parts[3:]:
                k, _, val = extra.partition("=")
                if k == "twoended":
                    if val not in ("true", "false"):
                        raise ValueError(f"line {line_no}: twoended must be true/false")
                    two_ended = val == "true"
                elif k == "slot":
                    slot = int(val)
                elif k == "slot2":
                    slot2 = int(val)
                else:
                    raise ValueError(f"line {line_no}: unknown option {extra!r}")
            slot_u = slot_v = None
            hf = VertexType.HANGING_FUCHSIAN
            if slot is not None:
                if vtypes.get(u) is hf:
                    slot_u = slot
                elif vtypes.get(v) is hf:
                    slot_v = slot
                else:
                    slot_u = slot
            if slot2 is not None:
                slot_v = slot2
            edges.append(GoGEdge(u, v, two_ended=two_ended, slot_u=slot_u, slot_v=slot_v))
        else:
            raise ValueError(f"line {line_no}: cannot parse {line!r}")
    return GraphOfGroups(vertices, edges)


def load_simple_graph(text: str) -> SimpleGraph:
    """One edge per line: `u v`."""
    edges = []
    for line_no, line in _format_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'u v'")
        edges.append((parts[0], parts[1]))
    return SimpleGraph.from_edges(edges)


def load_tree_system(text: str) -> TreeSystem:
    """Line format:

        space <id> <n>      followed by n `row` lines of n rational entries
        tree-edge <t1> <t2>
        glue <t1> <t2> <p> <q>   identify point p of t1 with point q of t2

    Points are named 0..n-1 per space; entries accept fractions like 3/2."""
    spaces: dict[str, FiniteMetricSpace] = {}
    tree_edges: list[tuple[str, str]] = []
    gluings: dict[tuple[str, str], list[tuple[str, str]]] = {}
    lines = _format_lines(text)
    for line_no, line in lines:
        parts = line.split()
        if parts[0] == "space" and len(parts) == 3:
            sid, n = parts[1], int(parts[2])
            matrix = []
            # range(n) comes first, so a space of n <= 0 points takes no line.
            for _, (row_no, row_line) in zip(range(n), lines):
                row_parts = row_line.split()
                if row_parts[0] != "row" or len(row_parts) != n + 1:
                    raise ValueError(
                        f"line {row_no}: space {sid}: expected 'row' with {n} entries"
                    )
                matrix.append([Fraction(x) for x in row_parts[1:]])
            if len(matrix) != n:
                raise ValueError(f"line {line_no}: space {sid}: missing rows")
            spaces[sid] = FiniteMetricSpace([str(k) for k in range(n)], matrix)
        elif parts[0] == "tree-edge" and len(parts) == 3:
            tree_edges.append((parts[1], parts[2]))
        elif parts[0] == "glue" and len(parts) == 5:
            key = (parts[1], parts[2])
            gluings.setdefault(key, []).append((parts[3], parts[4]))
        else:
            raise ValueError(f"line {line_no}: cannot parse {line!r}")
    return TreeSystem(spaces, tree_edges, gluings)
