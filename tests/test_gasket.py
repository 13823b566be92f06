import itertools
import math
import random
from importlib import resources

import pytest

from kleinlab.gasket import (
    CirclePacking,
    NoTangentTripleError,
    OrientedCircle,
    OverlappingCirclesError,
    STANDARD_TANGENCY_POINTS,
    apply_to_packing,
    bounded_gasket,
    descartes_residual,
    detect_tangencies,
    dump_packing,
    is_apollonian_like,
    load_packing,
    normalize_to_standard_gasket,
    standard_base_quadruple,
    standard_base_triple,
    standard_gasket,
    tangency_point,
    tangent_quadruple_flip,
    _cap_candidates,
    _scan_products,
    _TripleSet,
)
from kleinlab.groups import load_marking
from kleinlab.limitset import DfsConfig, Rectangle, limit_set_dfs
from kleinlab.mobius import INFINITY, MoebiusMap, chordal_distance

from randommap import random_map


def test_descartes_residual_values():
    assert descartes_residual(-1, 2, 2, 3) == 0
    assert descartes_residual(0, 0, 1, 1) == 0
    assert descartes_residual(0, 0, 2, 2) == 0
    assert descartes_residual(1, 1, 1, 1) == 8


def test_descartes_residual_is_symmetric():
    vals = (-1.0, 2.0, 2.0, 3.0)
    results = {descartes_residual(*p) for p in itertools.permutations(vals)}
    assert results == {0.0}
    vals = (0.5, 1.5, 2.5, 4.0)
    results = {descartes_residual(*p) for p in itertools.permutations(vals)}
    assert len(results) == 1


def test_oriented_circle_geometry():
    c = OrientedCircle.from_center_radius(1 - 1j, 0.25)
    assert c.center == pytest.approx(1 - 1j)
    assert c.radius == pytest.approx(0.25)
    assert c.curvature == pytest.approx(4.0)
    assert not c.is_line
    r = c.reversed()
    assert r.curvature == pytest.approx(-4.0)
    assert r.center == pytest.approx(1 - 1j)


def test_oriented_circle_line():
    line = OrientedCircle.from_line(-1j, -0.5)  # disk Im z >= 1/2
    assert line.is_line
    assert line.curvature == 0.0
    assert line.evaluate(2j) < 0  # interior
    assert line.evaluate(0) > 0
    n, d = line.line_geometry()
    assert n == pytest.approx(-1j)
    assert d == pytest.approx(-0.5)


def test_transform_translates_center():
    c = OrientedCircle.from_center_radius(0, 1.0)
    shift = MoebiusMap(1, 1, 0, 1)
    img = c.transform(shift)
    assert img.center == pytest.approx(1.0)
    assert img.radius == pytest.approx(1.0)
    assert img.curvature == pytest.approx(1.0)


def test_transform_keeps_unit_discriminant():
    # determinant-1 transport preserves |B|^2 - AC exactly, which the exact
    # Descartes checks downstream rely on
    rng = random.Random(41)
    c = OrientedCircle.from_center_radius(0.3 + 0.4j, 0.7)
    for _ in range(20):
        img = c.transform(random_map(rng))
        disc = abs(img.B) ** 2 - img.A * img.C
        assert disc == pytest.approx(1.0, abs=1e-9)


def test_triple_set_dedups_across_rounding_boundary():
    grid = _TripleSet.GRID
    # A sits 0.496 and 0.504 grid steps past 2: the two triples round to
    # different keys yet are 8e-11 apart, so the neighbour probe must match.
    low = (2.496 * grid, 0.3, -0.7, 0.25)
    high = (2.504 * grid, 0.3, -0.7, 0.25)
    assert high[0] - low[0] < 1e-10
    assert round(low[0] / grid) != round(high[0] / grid)
    for first, second in ((low, high), (high, low)):
        seen = _TripleSet()
        assert seen.try_add(*first)
        assert not seen.try_add(*second)
        assert not seen.try_add(*first)
        # A triple's negation is the same locus.
        assert not seen.try_add(*(-q for q in first))
        assert not seen.try_add(*(-q for q in second))
        # Three grid steps away in any one component is a different triple.
        far = [list(first) for _ in range(4)]
        for i in range(4):
            far[i][i] += 3 * grid
            assert seen.try_add(*far[i])


def full_probe_try_add(seen, grid, A, Bre, Bim, C):
    """_TripleSet.try_add without the one-lookup fast path: the triple is
    made sign-canonical (first nonzero component positive), then every
    neighbor key of a component within 0.01 of a rounding boundary is
    probed."""
    for q in (A, Bre, Bim, C):
        if q != 0.0:
            if q < 0.0:
                A, Bre, Bim, C = -A, -Bre, -Bim, -C
            break
    comps = (A / grid, Bre / grid, Bim / grid, C / grid)
    key = tuple(round(q) for q in comps)
    options = []
    for q, k in zip(comps, key):
        opts = [k]
        if q - k > 0.49:
            opts.append(k + 1)
        elif q - k < -0.49:
            opts.append(k - 1)
        options.append(opts)
    if any(probe in seen for probe in itertools.product(*options)):
        return False
    seen.add(key)
    return True


def test_triple_set_fast_path_matches_full_probe():
    grid = _TripleSet.GRID
    rng = random.Random(73)
    # Components on a coarse lattice of grid steps, nudged to within 0.02 of
    # a rounding boundary or onto a key, so that near-duplicates, boundary
    # straddlers and exact repeats are all common.
    def component():
        return (rng.randrange(-3, 4) + rng.choice((0.0, 0.5)) + rng.uniform(-0.02, 0.02)) * grid

    triples = [tuple(component() for _ in range(4)) for _ in range(20000)]
    fast, reference = _TripleSet(), set()
    decisions = [fast.try_add(*t) for t in triples]
    assert decisions == [full_probe_try_add(reference, grid, *t) for t in triples]
    assert fast._seen == reference
    assert 0 < sum(decisions) < len(decisions)


def test_tangency_point_of_touching_circles():
    c1 = OrientedCircle.from_center_radius(0, 1.0)
    c2 = OrientedCircle.from_center_radius(2.0, 1.0)
    assert c1.inversive_product(c2) == pytest.approx(-2.0)
    assert tangency_point(c1, c2) == pytest.approx(1.0)


def test_tangency_point_of_parallel_lines():
    low, high, middle = standard_base_triple()
    assert tangency_point(low, high) is INFINITY
    assert tangency_point(low, middle) == pytest.approx(0)
    assert tangency_point(high, middle) == pytest.approx(1j)


def test_detect_tangencies_examples():
    packing = CirclePacking(
        [
            OrientedCircle.from_center_radius(0, 1.0),
            OrientedCircle.from_center_radius(2.0, 1.0),
            OrientedCircle.from_center_radius(10.0, 1.0),
        ]
    )
    graph = detect_tangencies(packing)
    assert graph.has_edge(0, 1)
    assert not graph.has_edge(0, 2)
    assert not graph.has_edge(1, 2)
    assert graph.edge_point(0, 1) == pytest.approx(1.0)


def test_detect_tangencies_base_triple():
    graph = detect_tangencies(CirclePacking(standard_base_triple()))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert graph.has_edge(i, j)
    assert graph.edge_point(0, 1) is INFINITY


def test_detect_tangencies_rejects_overlap():
    packing = CirclePacking(
        [
            OrientedCircle.from_center_radius(0, 1.0),
            OrientedCircle.from_center_radius(1.0, 1.0),
        ]
    )
    with pytest.raises(OverlappingCirclesError):
        detect_tangencies(packing)


def test_tangency_graph_is_moebius_invariant():
    rng = random.Random(43)
    packing = standard_gasket(1)
    edges = {(e.i, e.j) for e in detect_tangencies(packing).edges}
    for _ in range(5):
        g = random_map(rng)
        moved = detect_tangencies(apply_to_packing(g, packing), tol=1e-6)
        assert {(e.i, e.j) for e in moved.edges} == edges


def test_tangency_points_transport():
    rng = random.Random(47)
    packing = CirclePacking(standard_base_triple())
    base = detect_tangencies(packing)
    g = random_map(rng)
    moved = detect_tangencies(apply_to_packing(g, packing))
    for e in base.edges:
        expected = g.apply(e.point)
        assert chordal_distance(moved.edge_point(e.i, e.j), expected) < 1e-7


def test_quadruple_flip_strip():
    low, high, c0 = standard_base_triple()
    c1 = OrientedCircle.from_center_radius(1.0 + 0.5j, 0.5)
    assert descartes_residual(low.A, high.A, c0.A, c1.A) == 0
    flipped = tangent_quadruple_flip(low, high, c0, c1)
    assert flipped.center == pytest.approx(-1 + 0.5j)
    assert flipped.radius == pytest.approx(0.5)


def test_quadruple_flip_bounded():
    outer = OrientedCircle.from_center_radius(0, 1.0).reversed()
    left = OrientedCircle.from_center_radius(-0.5, 0.5)
    right = OrientedCircle.from_center_radius(0.5, 0.5)
    top = OrientedCircle.from_center_radius(2j / 3, 1.0 / 3.0)
    bottom = tangent_quadruple_flip(outer, left, right, top)
    assert bottom.center == pytest.approx(-2j / 3)
    assert bottom.curvature == pytest.approx(3.0)
    # flip is an involution on the quadruple
    again = tangent_quadruple_flip(outer, left, right, bottom)
    assert again.center == pytest.approx(top.center)
    assert again.radius == pytest.approx(top.radius)


def test_bounded_gasket_first_generation_curvatures():
    curvatures = sorted(round(c.curvature, 9) for c in bounded_gasket(1).circles)
    assert curvatures == [-1.0, 2.0, 2.0, 3.0, 3.0, 6.0, 6.0, 15.0]


def test_standard_gasket_counts_and_anchor():
    packing = standard_gasket(2)
    assert len(packing.circles) == 38
    # the first three circles are the anchor triple
    graph = detect_tangencies(CirclePacking(packing.circles[:3]))
    assert graph.edge_point(0, 1) is INFINITY
    assert graph.edge_point(0, 2) == pytest.approx(0)
    assert graph.edge_point(1, 2) == pytest.approx(1j)


def test_standard_gasket_curvatures_are_even_integers():
    for c in standard_gasket(2).circles:
        k = c.curvature
        assert k == round(k)
        assert round(k) % 2 == 0


def test_normalize_standard_is_identity():
    u = normalize_to_standard_gasket(standard_gasket(1))
    assert u.almost_equal(MoebiusMap.identity(), tol=1e-9)


def test_normalize_recovers_known_distortion():
    rng = random.Random(53)
    packing = standard_gasket(2)
    for _ in range(10):
        g = random_map(rng)
        recovered = normalize_to_standard_gasket(apply_to_packing(g, packing))
        assert recovered.compose(g).almost_equal(MoebiusMap.identity(), tol=1e-6)


def test_normalize_needs_a_triangle():
    packing = CirclePacking(
        [
            OrientedCircle.from_center_radius(0, 1.0),
            OrientedCircle.from_center_radius(2.0, 1.0),
            OrientedCircle.from_center_radius(4.0, 1.0),
            OrientedCircle.from_center_radius(6.0, 1.0),
        ]
    )
    with pytest.raises(NoTangentTripleError):
        normalize_to_standard_gasket(packing)


def test_is_apollonian_like_passes_bounded_truncation():
    verdict = is_apollonian_like(bounded_gasket(3))
    assert verdict.passed
    assert verdict.connected
    assert verdict.overlap_pairs == ()
    assert verdict.quadruples_checked == 53
    assert verdict.worst_residual == 0.0


def test_is_apollonian_like_flags_perturbed_radius():
    circles = list(bounded_gasket(2).circles)
    bad = OrientedCircle.from_center_radius(
        circles[3].center, circles[3].radius * 1.05
    )
    circles[3] = bad
    verdict = is_apollonian_like(CirclePacking(circles), tangency_tol=0.2)
    assert not verdict.passed
    assert verdict.failures


def test_verdict_is_local_under_deletion():
    # The verdict checks each quadruple it finds, not that the packing is
    # complete: removing any one circle leaves a packing that passes.
    circles = bounded_gasket(3).circles
    assert len(circles) == 56
    for k in range(len(circles)):
        assert is_apollonian_like(CirclePacking(circles[:k] + circles[k + 1 :])).passed, k


def test_verdict_fails_when_any_radius_moves_by_1e4():
    circles = bounded_gasket(3).circles
    rng = random.Random(79)
    for k, c in enumerate(circles):
        moved = OrientedCircle.from_center_radius(c.center, c.radius + rng.choice((-1e-4, 1e-4)))
        packing = list(circles)
        packing[k] = moved.reversed() if c.curvature < 0 else moved
        assert not is_apollonian_like(CirclePacking(packing)).passed, k


def test_is_apollonian_like_needs_four_circles():
    with pytest.raises(ValueError):
        is_apollonian_like(CirclePacking(standard_base_triple()))


def test_packing_roundtrip_through_text():
    packing = CirclePacking(standard_base_quadruple())
    text = dump_packing(packing)
    loaded = load_packing(text)
    assert len(loaded.circles) == 4
    for original, parsed in zip(packing.circles, loaded.circles):
        assert parsed.A == pytest.approx(original.A, abs=1e-15)
        assert parsed.B.real == pytest.approx(original.B.real, abs=1e-15)
        assert parsed.B.imag == pytest.approx(original.B.imag, abs=1e-15)
        assert parsed.C == pytest.approx(original.C, abs=1e-15)


def test_packing_text_enclosing_circle():
    packing = CirclePacking([OrientedCircle.from_center_radius(0, 1.0).reversed()])
    text = dump_packing(packing)
    loaded = load_packing(text)
    assert loaded.circles[0].curvature == pytest.approx(-1.0)


def test_load_packing_accepts_comments():
    text = "# header\n\nC 0 0 1\nL 0 -1 -0.5\n"
    packing = load_packing(text)
    assert len(packing.circles) == 2
    assert packing.circles[1].is_line


def test_load_packing_rejects_garbage():
    with pytest.raises(ValueError) as err:
        load_packing("C 0 0 1\nQ 1 2 3\n")
    assert "2" in str(err.value)


def test_loaded_circles_keep_exact_discriminant():
    # the text format stores center/radius; reconstruction must not
    # renormalize, or high-curvature circles drift and Descartes residuals
    # blow up far past any useful tolerance
    c = OrientedCircle.from_center_radius(0.251 + 0.377j, 1.0 / 13794.0)
    disc = abs(c.B) ** 2 - c.A * c.C
    assert disc == pytest.approx(1.0, abs=1e-7)
    reloaded = load_packing(dump_packing(CirclePacking([c]))).circles[0]
    assert reloaded.curvature == pytest.approx(13794.0, rel=1e-12)


def hw_gasket_packing(epsilon):
    """The circles of `dfs --preset hw-gasket` at the given epsilon."""
    preset = resources.files("kleinlab").joinpath("presets")
    group = load_marking(preset.joinpath("hw-marking.txt").read_text())
    seeds = load_packing(preset.joinpath("hw-seeds.txt").read_text()).circles
    config = DfsConfig(
        epsilon=epsilon, max_depth=64, seeds=tuple(seeds), window=Rectangle(-1.0, -1.0, 2.0, 2.0)
    )
    return CirclePacking([e.circle for e in limit_set_dfs(group, config).circles])


def test_triangles_match_brute_force():
    graph = detect_tangencies(bounded_gasket(3))
    brute = [
        (i, j, k)
        for i, j, k in itertools.combinations(range(graph.n), 3)
        if graph.has_edge(i, j) and graph.has_edge(i, k) and graph.has_edge(j, k)
    ]
    assert brute
    assert list(graph.triangles()) == brute


def test_normalized_verdict_matches_two_scan_composition():
    # One scan of the input, carried through normalization, must give the
    # verdict of normalizing first and rescanning the moved packing.
    rng = random.Random(59)
    gasket = standard_gasket(2)
    packings = [apply_to_packing(random_map(rng), gasket) for _ in range(10)]
    packings += [bounded_gasket(3), hw_gasket_packing(1e-2)]
    for packing in packings:
        moved = apply_to_packing(normalize_to_standard_gasket(packing), packing)
        expected = is_apollonian_like(moved)
        assert expected.passed
        assert is_apollonian_like(packing, normalize=True) == expected


def test_normalized_verdict_raises_normalization_errors_first():
    overlapping = CirclePacking(
        [OrientedCircle.from_center_radius(x, 1.0) for x in (0.0, 1.0, 5.0, 9.0)]
    )
    with pytest.raises(OverlappingCirclesError):
        is_apollonian_like(overlapping, normalize=True)
    assert is_apollonian_like(overlapping).overlap_pairs == ((0, 1),)
    chain = CirclePacking(
        [OrientedCircle.from_center_radius(x, 1.0) for x in (0.0, 2.0, 4.0, 6.0)]
    )
    with pytest.raises(NoTangentTripleError):
        is_apollonian_like(chain, normalize=True)
    with pytest.raises(NoTangentTripleError):
        is_apollonian_like(CirclePacking(standard_base_triple()[:2]), normalize=True)
    with pytest.raises(ValueError, match="need at least 4 circles"):
        is_apollonian_like(CirclePacking(standard_base_triple()), normalize=True)


def all_pairs_scan(circles, tol):
    """The tangency scan by brute force: every pair's inversive product."""
    edges, overlap = [], []
    for i, j in itertools.combinations(range(len(circles)), 2):
        p = circles[i].inversive_product(circles[j])
        if abs(p + 2.0) <= tol:
            edges.append((i, j, tangency_point(circles[i], circles[j])))
        elif p > -2.0:
            overlap.append((i, j))
    return edges, overlap


def assert_scan_matches_all_pairs(circles, tol):
    graph, overlap, _ = _scan_products(circles, tol)
    edges, expected_overlap = all_pairs_scan(circles, tol)
    assert [(e.i, e.j, e.point) for e in graph.edges] == edges
    assert overlap == expected_overlap
    # The index's products are bit for bit those of inversive_product.
    i, j, p = _cap_candidates(circles, tol)
    assert p.tolist() == [circles[a].inversive_product(circles[b]) for a, b in zip(i, j)]
    return graph, overlap


def gapped_pair(x, radius, gap):
    """Two circles at height 1/2 whose inversive product is -2 - gap."""
    distance = math.sqrt(4.0 * radius * radius + gap * radius * radius)
    return [
        OrientedCircle.from_center_radius(complex(x, 0.5), radius),
        OrientedCircle.from_center_radius(complex(x + distance, 0.5), radius),
    ]


def test_scan_matches_all_pairs_on_dfs_packing():
    graph, overlap = assert_scan_matches_all_pairs(hw_gasket_packing(1e-2).circles, 1e-6)
    assert len(graph.edges) == 4101
    assert overlap == []


def test_scan_matches_all_pairs_on_distorted_packings():
    rng = random.Random(61)
    packing = hw_gasket_packing(2e-2)
    for _ in range(4):
        graph, _ = assert_scan_matches_all_pairs(
            apply_to_packing(random_map(rng), packing).circles, 1e-6
        )
        assert len(graph.edges) == 1593


@pytest.mark.parametrize("tol", [1e-6, 1e-2])
def test_scan_matches_all_pairs_on_lines_and_gaps(tol):
    # Two lines bounding the strip 0 <= Im z <= 1 with two unit-diameter
    # circles between them, an enclosing circle (whose outside overlaps both
    # lines' half-planes), and two circle pairs inside the strip gapped to
    # inversive products -2 - tol/2 (tangent within tol) and -2 - 2 tol (not).
    circles = [
        OrientedCircle.from_line(1j, 0.0),
        OrientedCircle.from_line(-1j, -1.0),
        OrientedCircle.from_center_radius(0.5j, 0.5),
        OrientedCircle.from_center_radius(1.0 + 0.5j, 0.5),
        OrientedCircle.from_center_radius(0j, 20.0).reversed(),
    ]
    circles += gapped_pair(4.0, 0.25, tol / 2) + gapped_pair(8.0, 0.25, 2 * tol)
    assert circles[5].inversive_product(circles[6]) == pytest.approx(-2 - tol / 2, abs=1e-12)
    assert circles[7].inversive_product(circles[8]) == pytest.approx(-2 - 2 * tol, abs=1e-12)
    graph, overlap = assert_scan_matches_all_pairs(circles, tol)
    # the parallel lines touch at infinity
    strip = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert [(e.i, e.j) for e in graph.edges] == strip + [(5, 6)]
    assert overlap == [(0, 4), (1, 4)]


def test_scan_matches_all_pairs_below_the_finest_level():
    # Circles of radius 1e-9 to 1e-6, finer than the finest grid level,
    # share its cells.
    rng = random.Random(71)
    circles = [OrientedCircle.from_center_radius(0.3 + 0.2j, 0.1)]
    for _ in range(60):
        radius = 10 ** rng.uniform(-9, -6)
        centre = complex(0.3 + rng.uniform(-3e-6, 3e-6), 0.3 + rng.uniform(-3e-6, 3e-6))
        circles.append(OrientedCircle.from_center_radius(centre, radius))
    circles += gapped_pair(0.3, 1e-8, 0.0)
    graph, overlap = assert_scan_matches_all_pairs(circles, 1e-6)
    assert graph.has_edge(61, 62)
    assert overlap


def test_overlap_pairs_are_sorted():
    # Three overlapping pairs, listed so that no pair's circles are adjacent.
    xs = (0.0, 9.0, 20.0, 1.0, 21.0, 10.0)
    packing = CirclePacking([OrientedCircle.from_center_radius(x, 1.0) for x in xs])
    expected = ((0, 3), (1, 5), (2, 4))
    assert is_apollonian_like(packing).overlap_pairs == expected
    with pytest.raises(OverlappingCirclesError) as err:
        detect_tangencies(packing)
    assert err.value.pairs == expected
    with pytest.raises(OverlappingCirclesError) as err:
        is_apollonian_like(packing, normalize=True)
    assert err.value.pairs == expected


def test_cap_index_candidates_track_tangencies():
    # The index is output-sensitive: its candidates are at most twice the
    # pairs that touch or overlap (at eps 1e-3: 81,795 tangent pairs).
    circles = hw_gasket_packing(1e-3).circles
    candidates = len(_cap_candidates(circles, 1e-6)[0])
    graph, overlap, _ = _scan_products(circles, 1e-6)
    print(
        f"\ncap index at eps 1e-3: {candidates} candidate pairs for "
        f"{len(graph.edges)} tangent and {len(overlap)} overlapping pairs"
    )
    assert len(graph.edges) == 81795
    assert candidates <= 2 * (len(graph.edges) + len(overlap))


def test_verdict_counts_scan_work():
    verdict = is_apollonian_like(hw_gasket_packing(1e-2))
    assert verdict.passed
    assert (verdict.candidate_pairs, verdict.tangent_pairs) == (4101, 4101)


def test_scan_does_not_depend_on_row_order():
    circles = hw_gasket_packing(1e-2).circles
    perm = list(range(len(circles)))
    random.Random(67).shuffle(perm)
    shuffled = [circles[k] for k in perm]
    assert perm[:4] != [0, 1, 2, 3]
    assert len(_cap_candidates(shuffled, 1e-6)[0]) == len(_cap_candidates(circles, 1e-6)[0])
    edges = {(e.i, e.j) for e in _scan_products(circles, 1e-6)[0].edges}
    moved = {
        (min(perm[e.i], perm[e.j]), max(perm[e.i], perm[e.j]))
        for e in _scan_products(shuffled, 1e-6)[0].edges
    }
    assert moved == edges
