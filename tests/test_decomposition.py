import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from kleinlab.decomposition import (
    CutPair,
    FiniteMetricSpace,
    GoGEdge,
    GoGVertex,
    GraphOfGroups,
    SimpleGraph,
    TreeSystem,
    UnknownPointError,
    UnknownVertexError,
    VertexType,
    _certify_shortest_paths,
    _components,
    abc_example,
    cut_pairs,
    link_valency,
    load_graph_of_groups,
    load_simple_graph,
    load_tree_system,
    local_cut_valencies,
    local_cut_valency,
    tree_system_limit,
    validate_bowditch,
)
from kleinlab.gasket import bounded_gasket, detect_tangencies

from gasketgraph import subdivided_gasket_edges


# -- splitting-shape validation ---------------------------------------------


def abc_parts():
    vertices = [GoGVertex("R", VertexType.RIGID)]
    edges = []
    for name in "abc":
        t, h = f"T{name}", f"H{name}"
        vertices.append(GoGVertex(t, VertexType.TWO_ENDED))
        vertices.append(GoGVertex(h, VertexType.HANGING_FUCHSIAN, slots=1))
        edges.append(GoGEdge("R", t))
        edges.append(GoGEdge(t, h, slot_v=1))
    return vertices, edges


def test_abc_example_shape_and_validity():
    g = abc_example()
    assert len(g.vertices) == 7
    assert len(g.edges) == 6
    assert g.is_tree()
    report = validate_bowditch(g)
    assert report.passed
    assert report.clauses_failed == ()


def _not_two_ended_hub_edge(vertices, edges):
    edges[0] = GoGEdge("R", "Ta", two_ended=False)
    return ("i",)


def _not_two_ended_band_edge(vertices, edges):
    edges[1] = GoGEdge("Ta", "Ha", two_ended=False, slot_v=1)
    return ("i",)


def _curve_touches_curve(vertices, edges):
    edges[0] = GoGEdge("Ta", "Tb")
    return ("ii",)


def _band_touches_band(vertices, edges):
    edges.append(GoGEdge("Ha", "Hb"))
    return ("ii", "iii")


def _rigid_touches_rigid(vertices, edges):
    vertices.append(GoGVertex("R2", VertexType.RIGID))
    edges.append(GoGEdge("R", "R2"))
    return ("ii",)


def _unfilled_slot(vertices, edges):
    vertices[2] = GoGVertex("Ha", VertexType.HANGING_FUCHSIAN, slots=2)
    return ("iii",)


def _doubly_used_slot(vertices, edges):
    edges.append(GoGEdge("R", "Ha", slot_v=1))
    return ("iii",)


def _slotless_band_edge(vertices, edges):
    edges.append(GoGEdge("Tb", "Ha"))
    return ("iii",)


def _out_of_range_slot(vertices, edges):
    edges[1] = GoGEdge("Ta", "Ha", slot_v=5)
    return ("iii",)


def _band_with_no_slots(vertices, edges):
    vertices[6] = GoGVertex("Hc", VertexType.HANGING_FUCHSIAN, slots=0)
    edges[5] = GoGEdge("Tc", "Hc")
    return ("iii",)


MUTATIONS = [
    _not_two_ended_hub_edge,
    _not_two_ended_band_edge,
    _curve_touches_curve,
    _band_touches_band,
    _rigid_touches_rigid,
    _unfilled_slot,
    _doubly_used_slot,
    _slotless_band_edge,
    _out_of_range_slot,
    _band_with_no_slots,
]


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__.lstrip("_"))
def test_mutated_example_fails_expected_clause(mutate):
    vertices, edges = abc_parts()
    expected = mutate(vertices, edges)
    report = validate_bowditch(GraphOfGroups(vertices, edges))
    assert not report.passed
    assert report.clauses_failed == expected


def test_graph_of_groups_construction_errors():
    with pytest.raises(UnknownVertexError):
        GraphOfGroups([GoGVertex("R", VertexType.RIGID)], [GoGEdge("R", "X")])
    with pytest.raises(ValueError):
        GraphOfGroups([], [])
    with pytest.raises(ValueError):
        # two components
        GraphOfGroups(
            [GoGVertex("R", VertexType.RIGID), GoGVertex("S", VertexType.RIGID)], []
        )
    with pytest.raises(ValueError):
        vertices, edges = abc_parts()
        GraphOfGroups(vertices + [vertices[0]], edges)


def test_load_graph_of_groups_text():
    text = """
    # a hub, one curve, one band
    vertex R rigid
    vertex T two-ended
    vertex H hanging-fuchsian slots=1
    edge R T twoended=true
    edge T H slot=1
    """
    g = load_graph_of_groups(text)
    assert g.vertices["H"].slots == 1
    assert g.vertices["T"].type is VertexType.TWO_ENDED
    assert len(g.edges) == 2
    band_edge = g.edges[1]
    assert (band_edge.slot_u, band_edge.slot_v) == (None, 1)
    assert validate_bowditch(g).passed


def test_slot_binds_by_vertices_declared_above_the_edge():
    # H is declared after the edge line, so slot= sees no hanging-Fuchsian
    # endpoint and binds at the first endpoint, T.
    g = load_graph_of_groups(
        """
        vertex R rigid
        vertex T two-ended
        edge R T twoended=true
        edge T H slot=1
        vertex H hanging-fuchsian slots=1
        edge R H slot=1
        """
    )
    assert [(e.slot_u, e.slot_v) for e in g.edges] == [(None, None), (1, None), (None, 1)]
    report = validate_bowditch(g)
    assert report.clauses_failed == ("iii",)
    assert report.violations[0].message == "vertex H: edge T-H occupies no slot"


def test_load_graph_of_groups_errors():
    with pytest.raises(ValueError) as err:
        load_graph_of_groups("vertex R granite\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError) as err:
        load_graph_of_groups("vertex R rigid\nvertex S rigid color=red\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ValueError):
        load_graph_of_groups("vertex R rigid\nedge R S twoended=maybe\n")
    with pytest.raises(ValueError):
        load_graph_of_groups("frobnicate\n")
    with pytest.raises(UnknownVertexError):
        load_graph_of_groups("vertex R rigid\nedge R S\n")


# -- finite metric spaces -----------------------------------------------------


def segment(length):
    return FiniteMetricSpace(["0", "1"], [[0, length], [length, 0]])


def test_metric_space_accepts_rationals_exactly():
    s = FiniteMetricSpace(["a", "b"], [[0, Fraction(3, 2)], ["3/2", 0]])
    d = s.distance("a", "b")
    assert isinstance(d, Fraction)
    assert d == Fraction(3, 2)
    assert s.matrix()[0][1] == Fraction(3, 2)


def test_metric_space_validation():
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])  # zero off-diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, -1], [-1, 0]])  # negative
    with pytest.raises(ValueError):
        # d(a,c) > d(a,b) + d(b,c)
        FiniteMetricSpace(
            ["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        )
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(UnknownPointError):
        segment(1).distance("0", "z")


def reference_metric_error(points, matrix):
    """The checks of FiniteMetricSpace on Fractions with the plain triple
    loop: the message the space must raise, or None if it must accept."""
    n = len(points)
    m = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if m[i][i] != 0:
            return f"nonzero diagonal at {points[i]}"
        for j in range(n):
            if m[i][j] != m[j][i]:
                return "matrix not symmetric"
            if i != j and m[i][j] <= 0:
                return "off-diagonal distances must be positive"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m[i][j] > m[i][k] + m[k][j]:
                    return f"triangle inequality fails at ({points[i]}, {points[j]}, {points[k]})"
    return None


def assert_metric_checks_match_reference(points, matrix):
    """FiniteMetricSpace on the entries against the reference; and, on a
    metric, _from_scaled on integers over a common denominator with a spare
    factor 6, which it must reduce away.  _from_scaled checks nothing: the
    quotient it builds is certified by _certify_shortest_paths."""
    expected = reference_metric_error(points, matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    den = 6 * lcm(*(x.denominator for row in m for x in row))
    scaled = [[int(x * den) for x in row] for row in m]
    if expected is None:
        space = FiniteMetricSpace(points, matrix)
        assert space.matrix() == m
        from_scaled = FiniteMetricSpace._from_scaled(points, scaled, den)
        assert (from_scaled.points, from_scaled._scaled, from_scaled._den) == (
            space.points, space._scaled, space._den
        )
    else:
        with pytest.raises(ValueError) as err:
            FiniteMetricSpace(points, matrix)
        assert str(err.value) == expected
    return expected


def random_float_metric(rng, size):
    """metric_closure of random weights with denominators up to 13 and some
    exact float weights; entries whose value a float holds exactly are
    handed over as floats."""
    weights = {}
    for i, j in combinations(range(size), 2):
        if rng.random() < 0.2:
            weights[(i, j)] = Fraction(rng.uniform(0.25, 12.0))
        else:
            weights[(i, j)] = Fraction(rng.randint(1, 40), rng.randint(1, 13))
    d = metric_closure(size, weights)
    return [[float(x) if float(x) == x else x for x in row] for row in d]


def test_metric_space_checks_match_fraction_reference():
    rng = random.Random(20261018)
    floats = triangles = 0
    for _ in range(120):
        size = rng.randint(2, 8)
        points = [f"p{k}" for k in rng.sample(range(100), size)]
        d = random_float_metric(rng, size)
        floats += sum(isinstance(x, float) for row in d for x in row if x)
        assert assert_metric_checks_match_reference(points, d) is None

        # Raise one entry past a detour through a third point: the first
        # failure then lies on that pair, and the message names it.
        if size >= 3:
            i, j = sorted(rng.sample(range(size), 2))
            k = rng.choice([c for c in range(size) if c not in (i, j)])
            bad = [row[:] for row in d]
            bad[i][j] = bad[j][i] = Fraction(d[i][k]) + Fraction(d[k][j]) + Fraction(1, 26)
            got = assert_metric_checks_match_reference(points, bad)
            assert got.startswith(f"triangle inequality fails at ({points[i]}, {points[j]}, ")
            triangles += 1

        i, j = rng.sample(range(size), 2)
        bad = [row[:] for row in d]
        bad[i][j] = Fraction(d[i][j]) + Fraction(1, 7)
        assert assert_metric_checks_match_reference(points, bad) == "matrix not symmetric"
        bad = [row[:] for row in d]
        bad[i][j] = bad[j][i] = 0
        assert assert_metric_checks_match_reference(points, bad) == (
            "off-diagonal distances must be positive"
        )
        bad[i][i] = Fraction(1, 13)
        # Several faults at once: the one the reference meets first is named.
        for a, b in (rng.sample(range(size), 2) for _ in range(2)):
            bad[a][b] = rng.choice([0, Fraction(d[a][b]) * 2])
        assert assert_metric_checks_match_reference(points, bad) is not None
    assert floats > 100
    assert triangles > 50


def test_metric_space_keeps_binary_float_denominators_exact():
    # 0.1 is 3602879701896397 / 2**55 as a float; 1/3 is no float at all.
    far = Fraction(0.1) + Fraction(1, 3)
    d = [[0, 0.1, far], [0.1, 0, Fraction(1, 3)], [far, Fraction(1, 3), 0]]
    assert assert_metric_checks_match_reference(["a", "b", "c"], d) is None
    d[0][2] = d[2][0] = far + Fraction(1, 2**55)
    assert assert_metric_checks_match_reference(["a", "b", "c"], d) == (
        "triangle inequality fails at (a, c, b)"
    )


# -- tree systems and their limits --------------------------------------------


def test_limit_of_single_space_is_a_relabeling():
    space = FiniteMetricSpace(["0", "1", "2"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    limit = tree_system_limit(TreeSystem({"A": space}, [], {}))
    assert limit.points == ("A:0", "A:1", "A:2")
    assert limit.distance("A:0", "A:2") == 2
    point = tree_system_limit(TreeSystem({"A": FiniteMetricSpace(["0"], [[0]])}, [], {}))
    assert (point.points, point.row_texts()) == (("A:0",), ["0"])


def test_limit_of_two_glued_segments_is_a_path():
    system = TreeSystem(
        {"A": segment(1), "B": segment(2)},
        [("A", "B")],
        {("A", "B"): [("1", "0")]},
    )
    limit = tree_system_limit(system)
    assert limit.points == ("A:0", "A:1", "B:1")
    assert limit.distance("A:0", "A:1") == 1
    assert limit.distance("A:1", "B:1") == 2
    assert limit.distance("A:0", "B:1") == 3


def tripod():
    spaces = {name: segment(1) for name in "ABC"}
    return tree_system_limit(
        TreeSystem(
            spaces,
            [("A", "B"), ("A", "C")],
            {("A", "B"): [("1", "1")], ("A", "C"): [("1", "1")]},
        )
    )


def test_limit_of_three_wedged_segments_is_a_tripod():
    limit = tripod()
    assert limit.points == ("A:0", "A:1", "B:0", "C:0")
    for leaf in ("A:0", "B:0", "C:0"):
        assert limit.distance(leaf, "A:1") == 1
    assert limit.distance("B:0", "C:0") == 2
    assert limit.distance("A:0", "B:0") == limit.distance("A:0", "C:0") == 2


def test_tree_system_validation():
    with pytest.raises(ValueError):
        TreeSystem({}, [], {})
    with pytest.raises(UnknownVertexError):
        TreeSystem({"A": segment(1)}, [("A", "B")], {("A", "B"): [("1", "0")]})
    with pytest.raises(ValueError):
        # not a tree: two vertices, no edge
        TreeSystem({"A": segment(1), "B": segment(1)}, [], {})
    with pytest.raises(ValueError):
        # empty gluing
        TreeSystem({"A": segment(1), "B": segment(1)}, [("A", "B")], {})
    with pytest.raises(ValueError):
        # right side repeats a point
        TreeSystem(
            {"A": segment(1), "B": segment(1)},
            [("A", "B")],
            {("A", "B"): [("0", "0"), ("1", "0")]},
        )
    with pytest.raises(ValueError):
        # gluing names an edge the tree does not have
        TreeSystem(
            {"A": segment(1), "B": segment(1)},
            [("A", "B")],
            {("A", "B"): [("1", "0")], ("B", "A"): [("1", "0")]},
        )


def test_load_tree_system_text():
    text = """
    space A 2
    row 0 1
    row 1 0
    space B 2
    row 0 2
    row 2 0
    tree-edge A B
    glue A B 1 0
    """
    limit = tree_system_limit(load_tree_system(text))
    assert limit.distance("A:0", "B:1") == 3


def test_load_tree_system_errors():
    with pytest.raises(ValueError):
        load_tree_system("space A 2\nrow 0 1\n")
    with pytest.raises(ValueError):
        load_tree_system("space A 2\nrow 0 1 7\nrow 1 0\n")
    segment_a = "space A 2\nrow 0 1\nrow 1 0\n"
    with pytest.raises(ValueError, match="^line 4: duplicate space A$"):
        load_tree_system(segment_a + "space A 2\nrow 0 5\nrow 5 0\n"
                         "space B 2\nrow 0 2\nrow 2 0\ntree-edge A B\nglue A B 1 0\n")


def metric_closure(n, weights):
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = Fraction(0)
    for (i, j), w in weights.items():
        if dist[i][j] is None or w < dist[i][j]:
            dist[i][j] = dist[j][i] = w
    big = sum(weights.values()) + 1
    for i in range(n):
        for j in range(n):
            if dist[i][j] is None:
                dist[i][j] = big
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


def random_space(rng, size):
    weights = {
        (i, j): Fraction(rng.randint(1, 12), rng.randint(1, 4))
        for i, j in combinations(range(size), 2)
    }
    return FiniteMetricSpace([str(i) for i in range(size)], metric_closure(size, weights))


def oracle_limit(system):
    """Independent quotient metric: union-find plus Floyd-Warshall, against
    the library's per-source Dijkstra."""
    nodes = [(t, p) for t in sorted(system.spaces) for p in system.spaces[t].points]
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x] = parent[parent[x]]
        return x

    for (t1, t2), pairs in system.gluings.items():
        for p, q in pairs:
            a, b = find((t1, p)), find((t2, q))
            if a != b:
                parent[max(a, b)] = min(a, b)
    classes = sorted({find(x) for x in nodes})
    index = {rep: i for i, rep in enumerate(classes)}
    n = len(classes)
    weights = {}
    for t in sorted(system.spaces):
        space = system.spaces[t]
        for p, q in combinations(space.points, 2):
            i, j = index[find((t, p))], index[find((t, q))]
            if i == j:
                continue
            key = (min(i, j), max(i, j))
            w = space.distance(p, q)
            if key not in weights or w < weights[key]:
                weights[key] = w
    names = [f"{t}:{p}" for t, p in classes]
    return names, metric_closure(n, weights)


def random_tree_system(rng, n_spaces, max_size=6):
    """Criterion 7's shape: a random tree of random_space spaces of 2 to
    max_size points, each edge glued along 1 to min(sizes) point pairs.
    Returns the system and its number of glued pairs."""
    names = [f"S{k}" for k in range(n_spaces)]
    spaces = {name: random_space(rng, rng.randint(2, max_size)) for name in names}
    tree_edges = []
    gluings = {}
    glued_pairs = 0
    for t in range(1, n_spaces):
        parent = names[rng.randrange(t)]
        child = names[t]
        tree_edges.append((parent, child))
        k = rng.randint(1, min(len(spaces[parent]), len(spaces[child])))
        left = rng.sample(range(len(spaces[parent])), k)
        right = rng.sample(range(len(spaces[child])), k)
        gluings[(parent, child)] = [(str(p), str(q)) for p, q in zip(left, right)]
        glued_pairs += k
    return TreeSystem(spaces, tree_edges, gluings), glued_pairs


def assert_limit_matches_oracle(system):
    """The limit equals oracle_limit's, and the checked constructor, with
    its triple scan, accepts it."""
    limit = tree_system_limit(system)
    expect_names, expect_matrix = oracle_limit(system)
    assert limit.points == tuple(expect_names)
    assert limit.matrix() == expect_matrix
    checked = FiniteMetricSpace(limit.points, limit.matrix())
    assert (checked._scaled, checked._den) == (limit._scaled, limit._den)
    return limit


def test_random_tree_systems_match_independent_oracle():
    rng = random.Random(20260819)
    for _ in range(50):
        system, glued_pairs = random_tree_system(rng, rng.randint(1, 5))
        limit = assert_limit_matches_oracle(system)
        assert len(limit) == sum(len(s) for s in system.spaces.values()) - glued_pairs


def test_tree_system_of_forty_spaces_matches_oracle():
    # Spaces of 2-4 points keep the Fraction Floyd-Warshall oracle, cubic
    # in the classes, well under a second.
    system, glued_pairs = random_tree_system(random.Random(20261020), 40, max_size=4)
    limit = assert_limit_matches_oracle(system)
    assert len(limit) == sum(len(s) for s in system.spaces.values()) - glued_pairs > 40


def test_tree_system_with_coprime_and_float_denominators_matches_oracle():
    rng = random.Random(71113)
    spaces = {}
    for name, den in (("A", 7), ("B", 11), ("C", 13)):
        weights = {
            (i, j): Fraction(rng.randint(1, 3 * den), den) for i, j in combinations(range(5), 2)
        }
        spaces[name] = FiniteMetricSpace([str(i) for i in range(5)], metric_closure(5, weights))
    spaces["F"] = FiniteMetricSpace(["0", "1", "2", "3"], random_float_metric(rng, 4))
    system = TreeSystem(
        spaces,
        [("A", "B"), ("B", "C"), ("A", "F")],
        {
            ("A", "B"): [("0", "4"), ("3", "1")],
            ("B", "C"): [("2", "2")],
            ("A", "F"): [("1", "0"), ("4", "3")],
        },
    )
    limit = assert_limit_matches_oracle(system)
    denominators = {x.denominator for row in limit.matrix() for x in row}
    assert any(d % 7 == 0 for d in denominators) and any(d % 13 == 0 for d in denominators)


def random_weighted_graph(rng, n):
    """A connected graph on n vertices, a random tree plus about n more
    edges, with integral weights 1-12: its adjacency as (y, w) lists and
    its shortest-path matrix as ints."""
    weights = {}
    for x in range(1, n):
        weights[rng.randrange(x), x] = rng.randint(1, 12)
    for _ in range(n if n > 1 else 0):
        i, j = sorted(rng.sample(range(n), 2))
        weights[i, j] = rng.randint(1, 12)
    adjacency = [[] for _ in range(n)]
    for (i, j), w in weights.items():
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    closure = metric_closure(n, {k: Fraction(w) for k, w in weights.items()})
    return adjacency, [[int(x) for x in row] for row in closure]


def test_certificate_rejects_every_one_entry_edit():
    rng = random.Random(20261020)
    for n in (1, 2, 5, 9):
        adjacency, dist = random_weighted_graph(rng, n)
        _certify_shortest_paths(dist, adjacency)
        for s in range(n):
            bad = [row[:] for row in dist]
            bad[s][s] = 1
            with pytest.raises(ValueError, match="is no shortest path"):
                _certify_shortest_paths(bad, adjacency)
            for x in range(s + 1, n):
                for delta in (1, -1):
                    bad = [row[:] for row in dist]
                    bad[s][x] += delta
                    bad[x][s] += delta
                    with pytest.raises(ValueError, match="is no shortest path"):
                        _certify_shortest_paths(bad, adjacency)
                bad = [row[:] for row in dist]
                bad[x][s] += 1
                with pytest.raises(ValueError, match=f"from class {s} are not symmetric"):
                    _certify_shortest_paths(bad, adjacency)


@pytest.mark.parametrize("den", [1, 6, 2**64 * 15, 2**70 + 1])
def test_row_texts_are_the_fractions_str(den):
    values = [0, den, 7 * den, 3, 10, 2**65, 2**64 * 15 + 1, 2**64 * den]
    n = len(values)
    scaled = [values[k:] + values[:k] for k in range(n)]
    space = FiniteMetricSpace._from_scaled([str(k) for k in range(n)], scaled, den)
    assert space.row_texts() == [" ".join(str(Fraction(x, den)) for x in row) for row in scaled]


# -- graphs, valencies, cut pairs ----------------------------------------------


def path_graph(names):
    return SimpleGraph.from_edges(list(zip(names, names[1:])))


def cycle_graph(names):
    return SimpleGraph.from_edges(list(zip(names, names[1:])) + [(names[-1], names[0])])


def test_simple_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        SimpleGraph(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        SimpleGraph(["a", "a"], [])
    with pytest.raises(UnknownVertexError):
        SimpleGraph(["a"], [("a", "b")])
    g = SimpleGraph.from_edges([("a", "b"), ("b", "a")])
    assert g.edge_count() == 1


def test_load_simple_graph():
    g = load_simple_graph("a b\nb c  # chain\n\n")
    assert g.edge_count() == 2
    with pytest.raises(ValueError) as err:
        load_simple_graph("a b c\n")
    assert "line 1" in str(err.value)


def test_valencies_on_a_path():
    g = path_graph("abcde")
    assert [local_cut_valency(g, v) for v in "abcde"] == [1, 2, 2, 2, 1]
    assert [link_valency(g, v) for v in "abcde"] == [1, 2, 2, 2, 1]


def test_valencies_on_a_cycle():
    g = cycle_graph("abcde")
    for v in "abcde":
        assert local_cut_valency(g, v) == 1
        assert link_valency(g, v) == 2


def test_valencies_on_star_and_clique():
    star = SimpleGraph.from_edges([("z", "p"), ("z", "q"), ("z", "r")])
    assert local_cut_valency(star, "z") == 3
    assert link_valency(star, "z") == 3
    assert local_cut_valency(star, "p") == 1
    k4 = SimpleGraph.from_edges(
        [(a, b) for a, b in combinations("wxyz", 2)]
    )
    for v in "wxyz":
        assert local_cut_valency(k4, v) == 1
        assert link_valency(k4, v) == 1


def theta_graph():
    edges = []
    for branch in "abc":
        edges += [("u", branch + "1"), (branch + "1", branch + "2"), (branch + "2", "v")]
    return SimpleGraph.from_edges(edges)


def test_valencies_on_theta():
    g = theta_graph()
    for v in ("u", "v", "a1", "b2"):
        assert local_cut_valency(g, v) == 1
    assert link_valency(g, "u") == 3
    assert link_valency(g, "a1") == 2


def test_local_cut_valency_marks_articulation_points():
    g = path_graph("abcde")
    articulation = {v for v in "abcde" if local_cut_valency(g, v) >= 2}
    assert articulation == {"b", "c", "d"}
    assert local_cut_valency(g, "a") == 1
    with pytest.raises(UnknownVertexError):
        local_cut_valency(g, "zz")


def pair_map(pairs):
    return {p.pair: p for p in pairs}


def test_cut_pairs_on_a_path():
    got = pair_map(cut_pairs(path_graph("abcde")))
    assert set(got) == {
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("b", "e"),
        ("c", "d"), ("c", "e"),
    }
    assert got[("b", "d")].components == 3
    assert not any(p.flagged for p in got.values())


def test_cut_pairs_on_cycles():
    got5 = pair_map(cut_pairs(cycle_graph("abcde")))
    assert len(got5) == 5
    for p in got5.values():
        assert p.components == 2
        assert p.flagged
    got4 = pair_map(cut_pairs(cycle_graph("abcd")))
    assert set(got4) == {("a", "c"), ("b", "d")}
    assert all(p.flagged for p in got4.values())


def test_cut_pairs_on_clique_and_star():
    k4 = SimpleGraph.from_edges([(a, b) for a, b in combinations("wxyz", 2)])
    assert cut_pairs(k4) == []
    star = SimpleGraph.from_edges([("z", "p"), ("z", "q"), ("z", "r")])
    got = pair_map(cut_pairs(star))
    assert set(got) == {("p", "z"), ("q", "z"), ("r", "z")}
    assert not any(p.flagged for p in got.values())


def test_cut_pairs_on_theta():
    got = pair_map(cut_pairs(theta_graph()))
    assert len(got) == 7
    assert got[("u", "v")].components == 3
    assert all(p.flagged for p in got.values())


def components_without(g, removed):
    """The components of g minus the removed vertices."""
    rest = [v for v in g.vertices if v not in removed]
    return _components(rest, g.adjacency.__getitem__)


def brute_cut_pairs(g):
    """One component search per vertex pair."""
    out = []
    for x, y in combinations(sorted(g.vertices), 2):
        comps = components_without(g, {x, y})
        if len(comps) <= 1:
            continue
        flagged = all((c & g.adjacency[x]) and (c & g.adjacency[y]) for c in comps)
        out.append(CutPair((x, y), len(comps), flagged))
    return out


def random_tree_edges(rng, n):
    return [(rng.randrange(k), k) for k in range(1, n)]


def cycle_with_chords_edges(rng, n):
    edges = [(k, (k + 1) % n) for k in range(n)]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        edges.append((a, b))
    return edges


def theta_edges(rng):
    edges = []
    hubs = (0, 1)
    fresh = 2
    for _ in range(rng.randint(3, 4)):
        prev = hubs[0]
        for _ in range(rng.randint(0 if not edges else 1, 3)):
            edges.append((prev, fresh))
            prev, fresh = fresh, fresh + 1
        edges.append((prev, hubs[1]))
    return edges


def connected_edges(rng, n):
    edges = random_tree_edges(rng, n)
    for _ in range(rng.randint(0, n)):
        edges.append(tuple(rng.sample(range(n), 2)))
    return edges


def relabelled(rng, edges):
    """The graph on the edges, its vertices renamed at random so that
    sorted order does not follow the construction."""
    ends = sorted({v for e in edges for v in e}, key=str)
    names = rng.sample(range(10 * len(ends)), len(ends))
    label = {v: f"v{k}" for v, k in zip(ends, names)}
    return SimpleGraph.from_edges([(label[a], label[b]) for a, b in edges])


def test_cut_pairs_match_all_pairs_search():
    rng = random.Random(20261018)
    builders = [
        lambda: random_tree_edges(rng, rng.randint(4, 14)),
        lambda: [(k, k + 1) for k in range(rng.randint(3, 11))],
        lambda: [(0, k) for k in range(1, rng.randint(4, 10))],
        lambda: cycle_with_chords_edges(rng, rng.randint(4, 12)),
        lambda: theta_edges(rng),
        lambda: list(combinations(range(4), 2)),
        lambda: connected_edges(rng, rng.randint(4, 14)),
    ]
    graphs = [relabelled(rng, builders[k % len(builders)]()) for k in range(350)]
    graphs += [relabelled(rng, subdivided_gasket_edges(2)), relabelled(rng, subdivided_gasket_edges(3))]
    found = flagged = lonely = 0
    for g in graphs:
        expected = brute_cut_pairs(g)
        assert cut_pairs(g) == expected
        found += len(expected)
        flagged += sum(p.flagged for p in expected)
        for x in g.vertices:
            pieces = components_without(g, {x})
            if len(pieces) > 1:
                lonely += sum(1 for c in pieces if len(c) == 1 and min(c) > x)
    assert found > 3000 and flagged > 300
    # x a cut vertex and y alone in its component of G - x
    assert lonely > 300


def brute_local_cut_valency(g, v):
    """One component search over G - v: the components that hold a
    neighbour of v."""
    return sum(1 for c in components_without(g, {v}) if c & g.adjacency[v])


def labelled(rng, n, edges):
    """The graph on vertices 0..n-1, isolated ones included, renamed at
    random so that sorted order does not follow the construction."""
    label = [f"v{k}" for k in rng.sample(range(10 * n), n)]
    return SimpleGraph(label, [(label[a], label[b]) for a, b in edges])


def disjoint_union(*parts):
    """(vertex count, edges) of the disjoint union of (n, edges) parts."""
    n, edges = 0, []
    for size, part in parts:
        edges += [(a + n, b + n) for a, b in part]
        n += size
    return n, edges


def test_local_cut_valencies_match_a_component_search_per_vertex():
    rng = random.Random(20261020)

    def tree():
        n = rng.randint(1, 14)
        return n, random_tree_edges(rng, n)

    def cycle():
        n = rng.randint(3, 12)
        return n, cycle_with_chords_edges(rng, n)

    def connected():
        n = rng.randint(2, 14)
        return n, connected_edges(rng, n)

    def theta():
        edges = theta_edges(rng)
        return max(max(e) for e in edges) + 1, edges

    def disconnected():
        builders = (tree, cycle, connected, theta, lambda: (1, []))
        return disjoint_union(*(rng.choice(builders)() for _ in range(rng.randint(2, 4))))

    builders = (tree, cycle, connected, theta, disconnected, lambda: (rng.randint(1, 5), []))
    graphs = [labelled(rng, *builders[k % len(builders)]()) for k in range(600)]
    graphs += [relabelled(rng, subdivided_gasket_edges(2)), relabelled(rng, subdivided_gasket_edges(3))]
    seen = set()
    for g in graphs:
        expected = {v: brute_local_cut_valency(g, v) for v in g.vertices}
        assert local_cut_valencies(g) == expected
        v = rng.choice(g.vertices)
        assert local_cut_valency(g, v) == expected[v]
        seen.update(expected.values())
    # isolated vertices, leaves and cycle vertices, and cut vertices of
    # every valency up to a star's
    assert set(range(6)) <= seen


def test_cut_pairs_input_validation():
    with pytest.raises(ValueError):
        cut_pairs(SimpleGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]))
    with pytest.raises(ValueError):
        cut_pairs(SimpleGraph.from_edges([("a", "b"), ("b", "c")]))


def test_gasket_subdivision_graph_valencies():
    # circles become vertices, each tangency point becomes a degree-2
    # subdivision vertex between its two circles
    packing = bounded_gasket(3)
    graph = detect_tangencies(packing)
    edges = []
    for e in graph.edges:
        t = f"t{e.i}_{e.j}"
        edges.append((f"c{e.i}", t))
        edges.append((t, f"c{e.j}"))
    g = SimpleGraph.from_edges(edges)
    for e in graph.edges:
        t = f"t{e.i}_{e.j}"
        assert link_valency(g, t) == 2
        assert local_cut_valency(g, t) == 1
    for i in range(len(packing.circles)):
        v = f"c{i}"
        degree = len(g.adjacency[v])
        assert degree >= 3
        assert link_valency(g, v) == degree
