"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single verdict line (CRITERION n: PASS/FAIL - detail)
and then asserts, so the full list of verdicts survives in the run log.
"""

import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

from kleinlab.decomposition import (
    GoGEdge,
    GoGVertex,
    GraphOfGroups,
    FiniteMetricSpace,
    SimpleGraph,
    TreeSystem,
    VertexType,
    abc_example,
    cut_pairs,
    link_valency,
    local_cut_valency,
    tree_system_limit,
    validate_bowditch,
)
from kleinlab.gasket import (
    OrientedCircle,
    apply_to_packing,
    bounded_gasket,
    detect_tangencies,
    is_apollonian_like,
    normalize_to_standard_gasket,
    standard_gasket,
)
from kleinlab.groups import (
    Alphabet,
    MarkedGroup,
    check_relations,
    enumerate_reduced_words,
    identity_distance,
    load_presentation,
    reduced_word_count,
    solve_parabolic_commutator,
)
from kleinlab.limitset import (
    DfsConfig,
    Rectangle,
    _sphere_point,
    limit_points_by_fixed_points,
    limit_set_dfs,
)
from kleinlab.mobius import MoebiusMap, sphere_coords

from childenv import child_env
from randommap import random_map


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def strip_seeds():
    return (
        OrientedCircle.from_line(-1j, -0.5),
        OrientedCircle.from_line(1j, -0.5),
        OrientedCircle.from_center_radius(-0.5, 0.5),
        OrientedCircle.from_center_radius(0.5, 0.5),
    )


def test_criterion_1_solver_constants():
    sol = solve_parabolic_commutator()
    commutator = sol.group.evaluate("[a,b]")
    tr = commutator.trace
    fixed = complex(commutator.fixed_points()[0][0])
    dev_c = abs(sol.parameter * sol.parameter + 4.0)
    dev_tr = abs(tr * tr - 4.0)
    dev_fp = abs(fixed - (-1 + 1j) / 2)
    ok = dev_c < 1e-12 and dev_tr < 1e-12 and dev_fp < 1e-9
    assert report(
        1,
        ok,
        f"|c^2+4|={dev_c:.2e} (<1e-12), |tr^2-4|={dev_tr:.2e} (<1e-12), "
        f"|fixed-(-1+i)/2|={dev_fp:.2e} (<1e-9)",
    ), "solver constants out of tolerance"


def test_criterion_2_cloud_invariance_one_depth_up():
    """Generator and inverse images of the depth-8 cloud lie in the depth-10 cloud.

    The cloud holds the fixed points of reduced words up to the given length.
    For a letter g, g(fix(w)) = fix(g w g^-1). In a free group the reduced
    length of g w g^-1 is at most |w| when w starts with g^-1 or ends with g,
    and |w| + 2 otherwise; it has the parity of |w| and is never |w| + 1. So
    depth 9 adds no image of a depth-8 point and depth 10 holds them all.
    Depth 10 is the gated bound; the depth-9 gap is printed, non-gating.
    """
    group = solve_parabolic_commutator().group
    c8 = limit_points_by_fixed_points(group, 8)

    def worst_gap(cloud):
        tree = cKDTree(np.array([sphere_coords(_sphere_point(z)) for z in cloud.z.tolist()]))
        worst = 0.0
        for letter in "abAB":
            g = group.letter_map(letter)
            moved = np.array([sphere_coords(g.apply(_sphere_point(z))) for z in c8.z.tolist()])
            worst = max(worst, float(tree.query(moved)[0].max()))
        return worst

    gap9 = worst_gap(limit_points_by_fixed_points(group, 9))
    gap10 = worst_gap(limit_points_by_fixed_points(group, 10))
    ok = gap10 < 1e-6
    assert report(
        2,
        ok,
        f"worst chordal gap from a,b,A,B images of the depth-8 cloud to the "
        f"depth-10 cloud is {gap10:.6e} (bound 1e-6); to the depth-9 cloud "
        f"{gap9:.6e} (non-gating: g fix(w) = fix(g w g^-1), whose reduced "
        f"length has the parity of |w|, so depth 9 adds no image)",
    ), f"depth-8 cloud images stray {gap10:.3e} from the depth-10 cloud"


def test_criterion_3_gasket_verdict_of_dfs_output():
    t0 = time.perf_counter()
    group = solve_parabolic_commutator().group
    cfg = DfsConfig(
        epsilon=1e-3,
        max_depth=64,
        seeds=strip_seeds(),
        window=Rectangle(-1.0, -1.0, 2.0, 2.0),
    )
    result = limit_set_dfs(group, cfg)
    packing = result.packing
    verdict = is_apollonian_like(packing, residual_tol=1e-5, normalize=True)
    elapsed = time.perf_counter() - t0
    ok = verdict.passed and verdict.worst_residual < 1e-5 and elapsed < 60.0
    assert report(
        3,
        ok,
        f"{len(packing)} circles, verdict "
        f"{'pass' if verdict.passed else 'fail'}, worst residual "
        f"{verdict.worst_residual:.2e} (<1e-5) over {verdict.quadruples_checked} "
        f"quadruples, {elapsed:.1f}s (<60s)",
    ), "normalized circle family failed the gasket verdict"


def test_criterion_4_normalization_roundtrip():
    rng = random.Random(20260819)
    packing = standard_gasket(2)
    worst = 0.0
    for _ in range(100):
        g = random_map(rng)
        recovered = normalize_to_standard_gasket(apply_to_packing(g, packing))
        worst = max(worst, identity_distance(recovered.compose(g)))
    ok = worst < 1e-6
    assert report(
        4, ok, f"100 random distortions recovered, worst projective deviation {worst:.2e} (<1e-6)"
    ), f"round-trip deviation {worst:.3e}"


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


def mutation_suite():
    def m1(v, e):
        e[0] = GoGEdge("R", "Ta", two_ended=False)

    def m2(v, e):
        e[1] = GoGEdge("Ta", "Ha", two_ended=False, slot_v=1)

    def m3(v, e):
        e[0] = GoGEdge("Ta", "Tb")

    def m4(v, e):
        e.append(GoGEdge("Ha", "Hb"))

    def m5(v, e):
        v.append(GoGVertex("R2", VertexType.RIGID))
        e.append(GoGEdge("R", "R2"))

    def m6(v, e):
        v[2] = GoGVertex("Ha", VertexType.HANGING_FUCHSIAN, slots=2)

    def m7(v, e):
        e.append(GoGEdge("R", "Ha", slot_v=1))

    def m8(v, e):
        e.append(GoGEdge("Tb", "Ha"))

    def m9(v, e):
        e[1] = GoGEdge("Ta", "Ha", slot_v=5)

    def m10(v, e):
        v[6] = GoGVertex("Hc", VertexType.HANGING_FUCHSIAN, slots=0)
        e[5] = GoGEdge("Tc", "Hc")

    return [
        ("hub edge not two-ended", m1, ("i",)),
        ("band edge not two-ended", m2, ("i",)),
        ("curve adjacent to curve", m3, ("ii",)),
        ("band adjacent to band", m4, ("ii", "iii")),
        ("rigid adjacent to rigid", m5, ("ii",)),
        ("unfilled slot", m6, ("iii",)),
        ("slot used twice", m7, ("iii",)),
        ("slotless band edge", m8, ("iii",)),
        ("slot out of range", m9, ("iii",)),
        ("band with no slots", m10, ("iii",)),
    ]


def test_criterion_5_splitting_validator():
    base_ok = validate_bowditch(abc_example()).passed
    wrong = []
    for name, mutate, expected in mutation_suite():
        vertices, edges = abc_parts()
        mutate(vertices, edges)
        rep = validate_bowditch(GraphOfGroups(vertices, edges))
        if rep.passed or rep.clauses_failed != expected:
            wrong.append(f"{name}: got {rep.clauses_failed}, want {expected}")
    ok = base_ok and not wrong
    assert report(
        5,
        ok,
        "shipped example passes; all 10 single-mutation variants flag the expected clause"
        if ok
        else f"example pass={base_ok}; mismatches: {wrong}",
    ), wrong


def test_criterion_6_relator_check_distinguishes_markings():
    alphabet = Alphabet(["a", "b", "c"])
    text = resources.files("kleinlab").joinpath("presets", "borromean.txt").read_text()
    presentation = load_presentation(text, alphabet)
    ident = MoebiusMap.identity()
    trivial = MarkedGroup(alphabet, {"a": ident, "b": ident, "c": ident})
    rep_trivial = check_relations(trivial, presentation, tol=1e-9)
    hw = solve_parabolic_commutator().group
    bound = MarkedGroup(
        alphabet,
        {"a": hw.letter_map("a"), "b": hw.letter_map("b")},
        bindings={"c": "[a,b]"},
    )
    rep_bound = check_relations(bound, presentation, tol=1e-9)
    min_dist = min(rep_bound.distances)
    ok = rep_trivial.passed and not rep_bound.passed and min_dist > 0.1
    assert report(
        6,
        ok,
        f"trivial marking satisfies all 3 relators (worst {rep_trivial.worst():.1e}); "
        f"commutator-bound marking violates all of them (min distance {min_dist:.3f} > 0.1)",
    ), "relator check did not separate the two markings"


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


def oracle_limit(system):
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
    return names, metric_closure(len(classes), weights)


def test_criterion_7_tree_limits_match_oracle():
    rng = random.Random(20260819)
    matched = 0
    trials = 50
    for _ in range(trials):
        n_spaces = rng.randint(1, 5)
        names = [f"S{k}" for k in range(n_spaces)]
        spaces = {}
        for name in names:
            size = rng.randint(2, 6)
            weights = {
                (i, j): Fraction(rng.randint(1, 12), rng.randint(1, 4))
                for i, j in combinations(range(size), 2)
            }
            spaces[name] = FiniteMetricSpace(
                [str(i) for i in range(size)], metric_closure(size, weights)
            )
        tree_edges = []
        gluings = {}
        for t in range(1, n_spaces):
            parent, child = names[rng.randrange(t)], names[t]
            tree_edges.append((parent, child))
            k = rng.randint(1, min(len(spaces[parent]), len(spaces[child])))
            left = rng.sample(range(len(spaces[parent])), k)
            right = rng.sample(range(len(spaces[child])), k)
            gluings[(parent, child)] = [(str(p), str(q)) for p, q in zip(left, right)]
        system = TreeSystem(spaces, tree_edges, gluings)
        limit = tree_system_limit(system)
        expect_names, expect_matrix = oracle_limit(system)
        if limit.points == tuple(expect_names) and limit.matrix() == expect_matrix:
            matched += 1
    ok = matched == trials
    assert report(
        7, ok, f"{matched}/{trials} random tree systems match the independent oracle exactly"
    ), f"only {matched}/{trials} matched"


def test_criterion_8_cut_analysis_hand_values_and_gasket():
    problems = []

    path = SimpleGraph.from_edges(list(zip("abcd", "bcde")))
    if [local_cut_valency(path, v) for v in "abcde"] != [1, 2, 2, 2, 1]:
        problems.append("path valencies")
    path_pairs = cut_pairs(path)
    if len(path_pairs) != 7 or any(p.flagged for p in path_pairs):
        problems.append("path cut pairs")

    cycle5 = SimpleGraph.from_edges(list(zip("abcde", "bcdea")))
    if any(local_cut_valency(cycle5, v) != 1 or link_valency(cycle5, v) != 2 for v in "abcde"):
        problems.append("cycle valencies")
    c5_pairs = cut_pairs(cycle5)
    if len(c5_pairs) != 5 or not all(p.flagged and p.components == 2 for p in c5_pairs):
        problems.append("cycle cut pairs")

    star = SimpleGraph.from_edges([("z", "p"), ("z", "q"), ("z", "r")])
    if local_cut_valency(star, "z") != 3 or any(p.flagged for p in cut_pairs(star)):
        problems.append("star")

    k4 = SimpleGraph.from_edges([(a, b) for a, b in combinations("wxyz", 2)])
    if cut_pairs(k4) or any(local_cut_valency(k4, v) != 1 for v in "wxyz"):
        problems.append("K4")

    theta_edges = []
    for branch in "abc":
        theta_edges += [("u", branch + "1"), (branch + "1", branch + "2"), (branch + "2", "v")]
    theta = SimpleGraph.from_edges(theta_edges)
    theta_pairs = {p.pair: p for p in cut_pairs(theta)}
    if (
        len(theta_pairs) != 7
        or not all(p.flagged for p in theta_pairs.values())
        or theta_pairs[("u", "v")].components != 3
        or link_valency(theta, "u") != 3
    ):
        problems.append("theta")

    packing = bounded_gasket(3)
    graph = detect_tangencies(packing)
    edges = []
    for e in graph.edges:
        t = f"t{e.i}_{e.j}"
        edges.append((f"c{e.i}", t))
        edges.append((t, f"c{e.j}"))
    subdivision = SimpleGraph.from_edges(edges)
    bad_subdivision = sum(
        1
        for e in graph.edges
        if link_valency(subdivision, f"t{e.i}_{e.j}") != 2
    )
    if bad_subdivision:
        problems.append(f"{bad_subdivision} subdivision vertices off valency 2")

    ok = not problems
    assert report(
        8,
        ok,
        f"path/cycle/star/K4/theta hand values match; all {len(graph.edges)} "
        f"tangency subdivision vertices of the depth-3 gasket graph have valency 2"
        if ok
        else f"mismatches: {problems}",
    ), problems


def test_criterion_9_enumeration_and_determinism(tmp_path):
    alphabet = Alphabet(["a", "b"])
    by_length = {}
    for word in enumerate_reduced_words(alphabet, 10):
        by_length[len(word)] = by_length.get(len(word), 0) + 1
    formula_ok = all(
        by_length[n] == 4 * 3 ** (n - 1) == reduced_word_count(2, n)
        for n in range(1, 11)
    )

    args = [
        sys.executable, "-m", "kleinlab.cli", "dfs",
        "--epsilon", "0.005", "--depth", "64",
        "--window=-1,-1,2,2", "--resolution", "400", "--out", "run",
    ]
    dirs = (tmp_path / "one", tmp_path / "two")
    for d in dirs:
        d.mkdir()
        proc = subprocess.run(
            args, cwd=d, env=child_env(), capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
    wall = re.search(r"^wall time \S+ \((\S+) words/s\)$", proc.stdout, re.M)
    rate = wall.group(1) if wall else "?"
    identical = all(
        (dirs[0] / f"run{sfx}").read_bytes() == (dirs[1] / f"run{sfx}").read_bytes()
        for sfx in (".circles.txt", ".cloud.txt", ".ppm", ".svg", ".stats.json")
    )

    ok = formula_ok and identical
    assert report(
        9,
        ok,
        f"reduced-word counts match 4*3^(n-1) for n<=10; two dfs runs are "
        f"byte-identical across all 5 artifacts; the dfs visited {rate} words/s "
        f"at eps 5e-3 (non-gating)",
    ), f"formula_ok={formula_ok} identical={identical}"
