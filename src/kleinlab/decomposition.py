"""Validators and small models for boundary-decomposition machinery: typed
graph-of-groups splittings, finite tree systems of finite metric spaces with
their quotient limits, and local-cut-point combinatorics on finite graphs.

Metric computations use exact rational arithmetic so quotient metrics can be
compared to oracles with equality rather than tolerances.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, combinations, repeat
from math import gcd, inf, lcm
from operator import add
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .groups import _format_lines

if TYPE_CHECKING:
    from fractions import Fraction

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
    "SimpleGraph",
    "local_cut_valency",
    "local_cut_valencies",
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


def _components(vertices, neighbours) -> list[set]:
    """The vertex sets of the components of the graph on a sized collection
    of vertices, in order of their first vertex, where neighbours(x) lists
    the neighbours of x; a neighbour outside vertices is passed over."""
    left = set(vertices)
    out = []
    for start in vertices:
        if start in left:
            left.remove(start)
            component, stack = {start}, [start]
            while stack:
                for y in neighbours(stack.pop()):
                    if y in left:
                        left.remove(y)
                        component.add(y)
                        stack.append(y)
            out.append(component)
    return out


# -- graphs of groups ----------------------------------------------------------

class VertexType(Enum):
    TWO_ENDED = "two-ended"
    HANGING_FUCHSIAN = "hanging-fuchsian"
    RIGID = "rigid"


class GoGVertex(NamedTuple):
    id: str
    type: VertexType
    slots: int = 0


class GoGEdge(NamedTuple):
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
        if len(_components(adj, adj.__getitem__)) != 1:
            raise ValueError("underlying graph must be connected")

    def incident(self, vertex_id: str) -> list[GoGEdge]:
        return [e for e in self.edges if vertex_id in (e.u, e.v)]

    def is_tree(self) -> bool:
        return len(self.edges) == len(self.vertices) - 1


class Violation(NamedTuple):
    clause: str  # "i" = edge not two-ended, "ii" = same-type adjacency, "iii" = slots
    message: str
    subjects: tuple[str, ...]


class ValidationReport(NamedTuple):
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
    vertices, and three single-slot hanging-Fuchsian leaves: the bundled
    presets/abc-example.gog."""
    from importlib import resources

    gog = resources.files("kleinlab").joinpath("presets", "abc-example.gog")
    return load_graph_of_groups(gog.read_text())


# -- finite metric spaces and tree systems -------------------------------------

def _as_fractions(matrix, n: int) -> list[list[Fraction]]:
    """matrix[i][j] for i, j < n as Fractions, each entry a Fraction, an
    int, a str or a float."""
    from fractions import Fraction

    def as_fraction(x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str, float)):
            return Fraction(x)
        raise TypeError(f"distance entries must be rational, got {type(x).__name__}")

    return [[as_fraction(matrix[i][j]) for j in range(n)] for i in range(n)]


class FiniteMetricSpace:
    """Finite point set with an exact rational metric, validated on
    construction: symmetry, zero diagonal, positivity, triangle inequality.

    The space stores its metric scaled to integers: d(i, j) is
    `Fraction(_scaled[i][j], _den)`, with `_den` the lcm of the entries'
    denominators.  The checks and `tree_system_limit` run on that form,
    which Python ints keep exact at any size.  `tree_system_limit` builds
    its quotient with `_from_scaled`, which skips these checks: the
    quotient passes `_certify_shortest_paths` instead."""

    def __init__(self, points: Iterable[str], matrix):
        n = self._set_points(points)
        m = _as_fractions(matrix, n)
        den = lcm(*(x.denominator for row in m for x in row))
        self._set_metric([[x.numerator * (den // x.denominator) for x in row] for row in m], den)

    @classmethod
    def _from_scaled(cls, points: Iterable[str], scaled: list[list[int]], den: int):
        """The space with d(i, j) = scaled[i][j] / den, built without
        Fractions and without checks: the caller vouches for the metric.
        den is first reduced by the entries' gcd, so the space equals the
        one __init__ gives for the same distances."""
        space = cls.__new__(cls)
        space._set_points(points)
        g = gcd(den, *(x for row in scaled for x in row))
        space._den = den // g
        space._scaled = [[x // g for x in row] for row in scaled]
        return space

    def _set_points(self, points: Iterable[str]) -> int:
        self.points: tuple[str, ...] = tuple(str(p) for p in points)
        n = len(self.points)
        if len(set(self.points)) != n or n == 0:
            raise ValueError("points must be nonempty and distinct")
        self._index = {p: i for i, p in enumerate(self.points)}
        return n

    def _set_metric(self, d: list[list[int]], den: int) -> None:
        """Check the integer matrix d over den and store it."""
        n = len(self.points)
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

    def __len__(self) -> int:
        return len(self.points)

    def index(self, p: str) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise UnknownPointError(f"point {p!r} not in space") from None

    def distance(self, p: str, q: str) -> Fraction:
        from fractions import Fraction

        return Fraction(self._scaled[self.index(p)][self.index(q)], self._den)

    def matrix(self) -> list[list[Fraction]]:
        from fractions import Fraction

        den = self._den
        return [[Fraction(x, den) for x in row] for row in self._scaled]

    def row_texts(self) -> list[str]:
        """Each row of `matrix()` as the space-separated str of its
        Fractions, written from the scaled integers without building one."""
        den = self._den
        texts = []
        for row in self._scaled:
            parts = []
            for x in row:
                g = gcd(x, den)
                parts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
            texts.append(" ".join(parts))
        return texts


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
        if len(self.tree_edges) != len(ids) - 1 or len(_components(adj, adj.__getitem__)) != 1:
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
    import heapq

    glued: dict[tuple[str, str], list[tuple[str, str]]] = {
        (t, p): [] for t in sorted(system.spaces) for p in system.spaces[t].points
    }
    for (t1, t2), pairs in system.gluings.items():
        for p, q in pairs:
            glued[t1, p].append((t2, q))
            glued[t2, q].append((t1, p))
    # Each class is a component of the gluings, named after its least member.
    members = sorted(_components(glued, glued.__getitem__), key=min)
    classes = [min(c) for c in members]
    class_index = {x: i for i, c in enumerate(members) for x in c}
    n = len(classes)

    # Every space's scaled metric, rescaled to one common denominator.
    den = lcm(*(space._den for space in system.spaces.values()))
    lightest: list[dict[int, int]] = [dict() for _ in range(n)]
    for t in sorted(system.spaces):
        space = system.spaces[t]
        scale = den // space._den
        cls = [class_index[t, p] for p in space.points]
        for (a, i), (b, j) in combinations(enumerate(cls), 2):
            if i == j:
                continue
            w = space._scaled[a][b] * scale
            if j not in lightest[i] or w < lightest[i][j]:
                lightest[i][j] = w
                lightest[j][i] = w
    adjacency = [list(edges.items()) for edges in lightest]

    # Exact Dijkstra from every class, on the integers over den; `far`
    # exceeds every path's length, so it marks a class not reached.
    far = 1 + sum(w for edges in adjacency for _, w in edges)
    dist = []
    for s in range(n):
        best = [far] * n
        best[s] = 0
        heap: list[tuple[int, int]] = [(0, s)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > best[x]:  # a stale entry: x was settled nearer
                continue
            for y, w in adjacency[x]:
                nd = d + w
                if nd < best[y]:
                    best[y] = nd
                    heapq.heappush(heap, (nd, y))
        for x in range(n):
            if x != s:
                if best[x] == far:
                    raise MetricDegenerateError(
                        "quotient is disconnected; no finite distance"
                    )
                if best[x] == 0:
                    raise MetricDegenerateError(
                        f"distinct classes {classes[s]} and {classes[x]} at distance 0"
                    )
        dist.append(best)

    _certify_shortest_paths(dist, adjacency)
    names = [f"{t}:{p}" for t, p in classes]
    return FiniteMetricSpace._from_scaled(names, dist, den)


def _certify_shortest_paths(dist: list[list[int]], adjacency: list[list[tuple[int, int]]]) -> None:
    """Check, in O(n E), that dist is the shortest-path metric of the graph
    whose edges x-y of positive weight w are the pairs (y, w) in
    adjacency[x] (Ahuja, Magnanti and Orlin, Network Flows, 1993, 5.2).

    dist must be symmetric, and each source s must have dist[s][s] == 0
    and, for each other x, dist[s][x] equal to the least dist[s][y] + w
    over x's edges: no edge shortens a path from s, and following a tight
    edge from x strictly lowers the distance, down to s along a path as
    long as dist[s][x].  Shortest-path distances over positive weights
    satisfy every metric axiom, so this is as strict as a triple scan.
    By symmetry, dist[x] holds x's distance from every source, so the
    sources are checked together, one class x at a time."""
    for x, (row, column) in enumerate(zip(dist, zip(*dist))):
        if row != list(column):
            raise ValueError(f"quotient distances from class {x} are not symmetric")
    n = len(dist)
    for x, edges in enumerate(adjacency):
        row = dist[x]
        # nearest[s]: the least dist[s][y] + w over x's edges (y, w).
        via = [map(add, dist[y], repeat(w)) for y, w in edges]
        nearest = list(map(min, [inf] * n, *via)) if via else [inf] * n
        nearest[x] = 0
        if row != nearest:
            s = next(s for s in range(n) if row[s] != nearest[s])
            raise ValueError(f"quotient distance from class {s} to class {x} is no shortest path")


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
        return cls(dict.fromkeys(x for edge in edges for x in edge), edges)

    def __contains__(self, v: str) -> bool:
        return v in self.adjacency

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adjacency.values()) // 2

    def is_connected(self) -> bool:
        return len(_components(self.adjacency, self.adjacency.__getitem__)) <= 1


def _require_vertex(g: SimpleGraph, v: str) -> None:
    if v not in g.adjacency:
        raise UnknownVertexError(f"vertex {v!r} not in graph")


def local_cut_valency(g: SimpleGraph, v: str) -> int:
    """Number of connected components of G - v that contain a neighbor of v
    (for connected G, every component does)."""
    _require_vertex(g, v)
    return local_cut_valencies(g)[v]


def local_cut_valencies(g: SimpleGraph) -> dict[str, int]:
    """`local_cut_valency` of every vertex, from one lowpoint pass over G.

    The components of G - v that touch v are the subtrees of the DFS
    children c of v with low[c] >= disc[v], which no back edge joins to the
    rest, and, unless v is a root, the side of v's parent.  Every child of
    a root passes that test, since nothing in its component is discovered
    before the root."""
    names, adj = _indexed(g)
    _, disc, low, _, parent = _lowpoint_forest(adj, -1)
    count = [int(p >= 0) for p in parent]
    for c, p in enumerate(parent):
        if p >= 0 and low[c] >= disc[p]:
            count[p] += 1
    return dict(zip(names, count))


def link_valency(g: SimpleGraph, v: str) -> int:
    """Number of connected components of the subgraph induced on the
    neighbors of v.

    This is the sharper analog of the number of ends at a point: on the
    tangency graph of a circle packing with tangency points inserted as
    subdivision vertices, every subdivision vertex gets link valency 2 even
    though the graph minus that vertex stays connected."""
    _require_vertex(g, v)
    return len(_components(g.adjacency[v], g.adjacency.__getitem__))


class CutPair(NamedTuple):
    pair: tuple[str, str]
    components: int
    flagged: bool


def _indexed(g: SimpleGraph) -> tuple[list[str], list[list[int]]]:
    """The vertex names in sorted order, and each one's neighbours by index."""
    names = sorted(g.vertices)
    index = {v: i for i, v in enumerate(names)}
    return names, [[index[u] for u in g.adjacency[v]] for v in names]


def _lowpoint_forest(adj: list[list[int]], x: int):
    """One iterative Hopcroft-Tarjan pass over the graph without vertex x
    (over the whole graph when x is -1).

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
    names, adj = _indexed(g)
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

def _number(kind, text: str, line_no: int):
    """kind(text), int or Fraction; a bad one is a ValueError naming the line."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") is the latter
        what = "an integer" if kind is int else "a rational"
        raise ValueError(f"line {line_no}: expected {what}, got {text!r}") from None


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
                    slots = _number(int, val, line_no)
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
                    slot = _number(int, val, line_no)
                elif k == "slot2":
                    slot2 = _number(int, val, line_no)
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
    from fractions import Fraction

    spaces: dict[str, FiniteMetricSpace] = {}
    tree_edges: list[tuple[str, str]] = []
    gluings: dict[tuple[str, str], list[tuple[str, str]]] = {}
    lines = _format_lines(text)
    for line_no, line in lines:
        parts = line.split()
        if parts[0] == "space" and len(parts) == 3:
            sid, n = parts[1], _number(int, parts[2], line_no)
            if sid in spaces:
                raise ValueError(f"line {line_no}: duplicate space {sid}")
            matrix = []
            # range(n) comes first, so a space of n <= 0 points takes no line.
            for _, (row_no, row_line) in zip(range(n), lines):
                row_parts = row_line.split()
                if row_parts[0] != "row" or len(row_parts) != n + 1:
                    raise ValueError(
                        f"line {row_no}: space {sid}: expected 'row' with {n} entries"
                    )
                matrix.append([_number(Fraction, x, row_no) for x in row_parts[1:]])
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
