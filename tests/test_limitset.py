import itertools
import math
import random
import re
from importlib import resources

import numpy as np
import pytest
from scipy.spatial import cKDTree

from kleinlab.gasket import (
    CirclePacking,
    OrientedCircle,
    is_apollonian_like,
    load_packing,
)
from kleinlab.groups import (
    Alphabet,
    MarkedGroup,
    enumerate_reduced_words,
    load_marking,
    reduced_word_count,
    solve_parabolic_commutator,
)
from kleinlab import limitset, mobius, wordtree
from kleinlab.limitset import (
    DfsConfig,
    DfsStats,
    EllipticOnlyError,
    LimitSetCloud,
    Rectangle,
    limit_points_by_fixed_points,
    limit_set_dfs,
    render,
    _circle_meets_window,
    _meets_window,
    _sphere_point,
)
from kleinlab.mobius import INFINITY, MapClass, MoebiusMap, chordal_distance, sphere_coords
from kleinlab.wordtree import _TripleSet, _triple_key

from dfsoracle import preorder_oracle
from hausdorff import hausdorff_distance
from randommap import random_map
from renderoracle import render_oracle

WINDOW = Rectangle(-1.0, -1.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def group():
    return solve_parabolic_commutator().group


def strip_seeds():
    return (
        OrientedCircle.from_line(-1j, -0.5),
        OrientedCircle.from_line(1j, -0.5),
        OrientedCircle.from_center_radius(-0.5, 0.5),
        OrientedCircle.from_center_radius(0.5, 0.5),
    )


def cloud_of(points):
    cloud = LimitSetCloud(1e-9)
    cloud.extend(points, ["x" * i for i in range(len(points))])
    return cloud


def greedy_oracle(points, tol):
    """Indices of the points an all-pairs in-order greedy keeps: each one
    whose sphere lift is at squared distance tol**2 or more from the lift
    of every point kept before it."""
    lifts = np.array([sphere_coords(p) for p in points]).reshape(-1, 3)
    kept = []
    for k, (x, y, z) in enumerate(lifts):
        px, py, pz = lifts[kept].T
        if not np.any((px - x) ** 2 + (py - y) ** 2 + (pz - z) ** 2 < tol * tol):
            kept.append(k)
    return kept


def fixed_point_candidates(group, depth):
    """(fixed point, word) of each reduced word, evaluated on its own, in
    length-lexicographic order."""
    out = []
    for word in enumerate_reduced_words(group.alphabet, depth):
        m = group.evaluate(word)
        if m.classify() not in (MapClass.IDENTITY, MapClass.ELLIPTIC):
            out.append((m.attracting_fixed_point(), word))
    return out


def test_rectangle_parse_and_validation():
    w = Rectangle.parse(" -1, -1, 2, 1 ")
    assert (w.x0, w.y0, w.x1, w.y1) == (-1.0, -1.0, 2.0, 1.0)
    assert w.contains(0.5j)
    assert not w.contains(3.0)
    with pytest.raises(ValueError):
        Rectangle(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Rectangle.parse("1,2,3")
    for corners in ((0, 0, 1, math.inf), (-math.inf, 0, 1, 1), (0, 0, math.nan, 1)):
        with pytest.raises(ValueError):
            Rectangle(*corners)
    # Finite corners, but a side that overflows.
    with pytest.raises(ValueError, match="must be finite"):
        Rectangle(-1e308, 0.0, 1e308, 1.0)


def test_render_rejects_a_raster_over_the_pixel_cap():
    # 8192 x 8192 pixels is the cap; one row more is refused before the
    # raster is allocated, and so is a window tall enough to overflow.
    assert limitset._MAX_PIXELS == 8192 * 8192
    empty = CirclePacking([])
    assert limitset._raster_size(Rectangle(0.0, 0.0, 1.0, 1.0), 8192) == (8192, 8192)
    with pytest.raises(ValueError, match="a 8192 x 8193 raster is 67117056 pixels"):
        render(empty, [], Rectangle(0.0, 0.0, 8192.0, 8193.0), 8192)
    with pytest.raises(ValueError, match="over the 67108864"):
        render(empty, [], Rectangle(0.0, -1e308, 1e-300, 1e308 / 2), 16)
    with pytest.raises(ValueError, match="over the 67108864"):
        render(empty, [], Rectangle(0.0, 0.0, 1.0, 1.0), 10**400)


def test_cloud_dedups_points_past_the_square_overflow():
    # 1e200 and 2e200 lift within 1e-200 of the north pole: one point.
    cloud = LimitSetCloud(1e-9)
    assert cloud.extend([1e200, 2e200, 1 + 1j], ["a", "b", "c"]).tolist() == [True, False, True]
    assert cloud.words == ["a", "c"]


def test_fixed_point_cloud_of_diagonal_map():
    diag = MarkedGroup(Alphabet(["a"]), {"a": MoebiusMap(2, 0, 0, 0.5)})
    cloud = limit_points_by_fixed_points(diag, 3)
    assert cloud.z.tolist() == [complex(math.inf, math.inf), 0j]
    assert cloud.words == ["a", "A"]
    assert cloud.z[np.isfinite(cloud.z)].tolist() == [0j]


def test_fixed_point_cloud_rejects_elliptic_group():
    rot = MarkedGroup(Alphabet(["a"]), {"a": MoebiusMap(0, -1, 1, 0)})
    with pytest.raises(EllipticOnlyError):
        limit_points_by_fixed_points(rot, 2)


def test_cloud_contains_generator_and_commutator_points(group):
    cloud = limit_points_by_fixed_points(group, 4)
    assert np.isinf(cloud.z.real).any()
    finite = cloud.z[np.isfinite(cloud.z)]
    for target in (0j, (-1 + 1j) / 2):
        assert abs(finite - target).min() < 1e-9


def no_compose(*args):
    raise AssertionError("a word was composed")


def test_points_refuses_over_the_word_cap_before_composing(group, monkeypatch):
    # Rank 2 has 3,188,644 nontrivial reduced words up to length 13 and
    # 9,565,936 up to length 14; 2^22 lies between.
    assert limitset._MAX_WORDS == 1 << 22
    words = list(itertools.accumulate(reduced_word_count(2, n) for n in range(1, 15)))
    assert words[12:] == [3188644, 9565936]
    monkeypatch.setattr(MoebiusMap, "compose", no_compose)
    monkeypatch.setattr(mobius, "_compose_rows", no_compose)
    for depth in (14, 30, 10**9):
        with pytest.raises(ValueError, match=f"depth {depth} at rank 2 needs more than the 4194304"):
            limit_points_by_fixed_points(group, depth)


def test_word_cap_counts_bound_letters(monkeypatch):
    # With the cap at the 52 words of rank 2 up to length 3, a rank-2
    # marking runs depth 3; binding c = [a,b] makes it rank 3, whose depth
    # 3 has 186 words, while its depth 2 (36 words) still runs.
    gens = "gen a = [[1,0],[1,0];[0,0],[1,0]]\ngen b = [[1,0],[0,0];[0,2],[1,0]]\n"
    rank2, rank3 = load_marking(gens), load_marking(gens + "bind c = [a,b]\n")
    monkeypatch.setattr(limitset, "_MAX_WORDS", 52)
    assert len(limit_points_by_fixed_points(rank2, 3)) > 0
    assert len(limit_points_by_fixed_points(rank3, 2)) > 0
    with pytest.raises(ValueError, match="depth 4 at rank 2 needs more than the 52 words"):
        limit_points_by_fixed_points(rank2, 4)
    with pytest.raises(ValueError, match="depth 3 at rank 3 needs more than the 52 words"):
        limit_points_by_fixed_points(rank3, 3)


def letter_total(rank, depth):
    return sum(n * reduced_word_count(rank, n) for n in range(1, depth + 1))


def test_letter_cap_bounds_the_word_text(group, monkeypatch):
    # Rank 1 has two words of each length, so the word cap alone admits
    # depth 2^21; its letters, depth (depth + 1), pass 2^26 after 8,191.
    assert limitset._MAX_LETTERS == 1 << 26
    assert letter_total(1, 8191) == 8191 * 8192 <= 1 << 26 < letter_total(1, 8192)
    assert letter_total(2, 13) == 39858076
    diag = MarkedGroup(Alphabet(["a"]), {"a": MoebiusMap(2, 0, 0, 0.5)})
    # Rank 1 has 20 letters up to depth 4 and 30 up to 5; rank 2 has 28 up
    # to depth 2 and 136 up to 3.
    monkeypatch.setattr(limitset, "_MAX_LETTERS", 28)
    assert limit_points_by_fixed_points(diag, 4).words == ["a", "A"]
    assert len(limit_points_by_fixed_points(group, 2)) > 0
    monkeypatch.setattr(MoebiusMap, "compose", no_compose)
    monkeypatch.setattr(mobius, "_compose_rows", no_compose)
    for depth in (5, 8192, 10**9):
        with pytest.raises(ValueError, match=f"depth {depth} at rank 1 needs more than the 28 letters"):
            limit_points_by_fixed_points(diag, depth)
    with pytest.raises(ValueError, match="depth 3 at rank 2 needs more than the 28 letters"):
        limit_points_by_fixed_points(group, 3)


def test_points_classifies_only_the_fallback_rows(group, monkeypatch):
    # The kernel classifies and solves in bulk; only a^n and A^n, on the
    # pole branch (c = 0), go through the scalar path, two per level.
    calls = []
    classify = MoebiusMap.classify
    monkeypatch.setattr(MoebiusMap, "classify", lambda m, *a: calls.append(m) or classify(m, *a))
    cloud = limit_points_by_fixed_points(group, 6)
    assert len(cloud) == 1302
    assert len(calls) == 12
    assert all(m.c == 0 for m in calls)


def special_marking(a):
    """a beside a seeded random second generator."""
    return MarkedGroup(Alphabet("ab"), {"a": a, "b": random_map(random.Random(5))})


@pytest.mark.parametrize(
    "marking",
    [("random", seed) for seed in range(60)] + [
        ("diagonal", MoebiusMap(2, 0, 0, 0.5)),
        ("parabolic", MoebiusMap(1, 1, 0, 1)),
        ("elliptic", MoebiusMap(0, -1, 1, 0)),
    ],
    ids=lambda marking: f"{marking[0]}-{marking[1]}" if marking[0] == "random" else marking[0],
)
def test_kernel_matches_scalar_path_bit_for_bit(marking, monkeypatch):
    # Every candidate point and word the level kernel hands the cloud
    # equals the scalar MoebiusMap path's, word by word, to the last bit.
    kind, value = marking
    if kind == "random":
        rng = random.Random(value)
        names = "ab" if value % 2 else "abc"
        group = MarkedGroup(Alphabet(names), {x: random_map(rng) for x in names})
    else:
        group = special_marking(value)
    depth = 5 if group.alphabet.rank == 2 else 4
    offered = []
    extend = LimitSetCloud.extend
    monkeypatch.setattr(
        LimitSetCloud, "extend", lambda cloud, *args: offered.append(args) or extend(cloud, *args)
    )
    limit_points_by_fixed_points(group, depth)
    [(z, words)] = offered
    candidates = fixed_point_candidates(group, depth)
    assert words == [w for _, w in candidates]
    assert z.tobytes() == limitset._plane([p for p, _ in candidates]).tobytes()


def test_kernel_falls_back_on_the_pole_branch(monkeypatch):
    # The diagonal and c = 0 parabolic generators put a^n on the pole
    # branch, which only the scalar attracting_fixed_point solves.
    solved = []
    attracting = MoebiusMap.attracting_fixed_point
    monkeypatch.setattr(
        MoebiusMap, "attracting_fixed_point", lambda m: solved.append(m) or attracting(m)
    )
    for a in (MoebiusMap(2, 0, 0, 0.5), MoebiusMap(1, 1, 0, 1)):
        solved.clear()
        limit_points_by_fixed_points(special_marking(a), 4)
        assert solved and all(
            abs(m.c) < mobius._POLE_EPS * (abs(m.a) + abs(m.b) + abs(m.c) + abs(m.d))
            for m in solved
        )


def test_cloud_sizes_are_reproducible(group):
    sizes = [len(limit_points_by_fixed_points(group, d)) for d in range(1, 7)]
    assert sizes == [2, 10, 38, 122, 422, 1302]


def test_fixed_point_cloud_matches_word_by_word_oracle(group):
    candidates = fixed_point_candidates(group, 6)
    cloud = limit_points_by_fixed_points(group, 6)
    assert len(cloud) == 1302
    kept = [candidates[k] for k in greedy_oracle([p for p, _ in candidates], 1e-9)]
    assert cloud.z.tolist() == limitset._plane([p for p, _ in kept]).tolist()
    assert cloud.words == [w for _, w in kept]


def test_deeper_cloud_extends_shallower_one(group):
    c4 = limit_points_by_fixed_points(group, 4)
    c5 = limit_points_by_fixed_points(group, 5)
    assert len(c5) > len(c4)
    assert c5.words[: len(c4)] == c4.words
    assert c5.z[: len(c4)].tolist() == c4.z.tolist()


def test_cloud_is_nearly_invariant_two_depths_up(group):
    # a generator image of a length-d fixed point is the fixed point of a
    # conjugate word of length at most d + 2
    c5 = limit_points_by_fixed_points(group, 5)
    c7 = limit_points_by_fixed_points(group, 7)
    tree = cKDTree(np.array([sphere_coords(_sphere_point(z)) for z in c7.z.tolist()]))
    for letter in "aAbB":
        g = group.letter_map(letter)
        moved = np.array([sphere_coords(g.apply(_sphere_point(z))) for z in c5.z.tolist()])
        assert tree.query(moved)[0].max() < 1e-9


def test_dfs_with_huge_epsilon_emits_only_seeds(group):
    result = limit_set_dfs(group, DfsConfig(epsilon=10.0, max_depth=5, seeds=strip_seeds()))
    assert result.stats.words_visited == 4
    assert result.stats.circles_emitted == 4
    assert result.stats.branches_pruned == 4
    assert result.stats.depth_exhausted_branches == 0
    assert result.stats.max_depth_reached == 0
    assert result.words == [""] * 4


def test_dfs_is_deterministic(group):
    cfg = DfsConfig(epsilon=0.2, max_depth=14, seeds=strip_seeds(), window=WINDOW)
    r1 = limit_set_dfs(group, cfg)
    r2 = limit_set_dfs(group, cfg)
    assert r1.words == r2.words
    assert r1.packing.columns.tobytes() == r2.packing.columns.tobytes()
    assert r1.packing.centres[r1.in_cloud].tolist() == r2.packing.centres[r2.in_cloud].tolist()
    assert r1.stats.words_visited == r2.stats.words_visited
    assert r1.stats.circles_emitted == r2.stats.circles_emitted


def test_dfs_stats_at_fixed_settings(group):
    cfg = DfsConfig(epsilon=0.2, max_depth=14, seeds=strip_seeds(), window=WINDOW)
    stats = limit_set_dfs(group, cfg).stats
    assert stats.circles_emitted == 33
    assert stats.words_visited == 48


def test_halving_epsilon_emits_more_circles(group):
    counts = []
    for eps in (0.4, 0.2, 0.1):
        cfg = DfsConfig(epsilon=eps, max_depth=14, seeds=strip_seeds(), window=WINDOW)
        counts.append(limit_set_dfs(group, cfg).stats.circles_emitted)
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]
    assert counts == [19, 33, 63]


def test_dfs_emitted_circles_are_word_images_of_seeds(group):
    seeds = strip_seeds()
    cfg = DfsConfig(epsilon=0.05, max_depth=14, seeds=seeds, window=WINDOW)
    result = limit_set_dfs(group, cfg)
    for k in range(0, len(result.packing), 17):
        if not result.words[k]:
            continue
        m = group.evaluate(result.words[k])
        A, Bre, Bim, C = result.packing.columns[:, k].tolist()
        best = min(
            max(abs(img.A - A), abs(img.B - complex(Bre, Bim)), abs(img.C - C))
            for img in (s.transform(m) for s in seeds)
        )
        assert best < 1e-9


def test_dfs_preserves_seed_tangencies(group):
    # the four seeds are mutually tangent (a 0,0,2,2 Descartes quadruple);
    # transport by any word keeps every pairwise inversive product at -2
    seeds = strip_seeds()
    for i in range(4):
        for j in range(i + 1, 4):
            assert seeds[i].inversive_product(seeds[j]) == pytest.approx(-2.0)
    for word in ("a", "b", "aB", "Aab", "bbA"):
        m = group.evaluate(word)
        moved = [s.transform(m) for s in seeds]
        for i in range(4):
            for j in range(i + 1, 4):
                assert moved[i].inversive_product(moved[j]) == pytest.approx(-2.0, abs=1e-6)


def test_dfs_config_validation(group):
    with pytest.raises(ValueError):
        DfsConfig(epsilon=0.0, max_depth=5, seeds=strip_seeds())
    with pytest.raises(ValueError):
        DfsConfig(epsilon=0.1, max_depth=0, seeds=strip_seeds())
    with pytest.raises(ValueError):
        DfsConfig(epsilon=0.1, max_depth=5, seeds=())


def test_hausdorff_basics():
    a = cloud_of([0j, 1j, 0.5 + 0.5j])
    w = Rectangle(-2.0, -2.0, 2.0, 2.0)
    assert hausdorff_distance(a, a, w) == 0.0
    assert hausdorff_distance(cloud_of([0j]), cloud_of([1.0 + 0j]), w) == pytest.approx(1.0)
    shifted = cloud_of((a.z + 0.5).tolist())
    assert hausdorff_distance(a, shifted, w) == pytest.approx(0.5)


def test_hausdorff_ignores_infinity_and_needs_window_points():
    w = Rectangle(-1.0, -1.0, 1.0, 1.0)
    a = cloud_of([INFINITY, 0j])
    assert hausdorff_distance(a, cloud_of([0j]), w) == 0.0
    with pytest.raises(ValueError, match="no finite points"):
        hausdorff_distance(a, cloud_of([5.0 + 0j]), w)


def test_hausdorff_between_successive_clouds(group):
    c5 = limit_points_by_fixed_points(group, 5)
    c6 = limit_points_by_fixed_points(group, 6)
    assert hausdorff_distance(c5, c6, WINDOW) == pytest.approx(
        0.20710678118654746, rel=1e-9
    )


def test_clouds_converge_to_deep_reference(group):
    clouds = {d: limit_points_by_fixed_points(group, d) for d in range(3, 10)}
    gaps = [hausdorff_distance(clouds[d], clouds[9], WINDOW) for d in range(3, 9)]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.07


def test_render_blank_canvas():
    out = render(CirclePacking([]), [], Rectangle(0.0, 0.0, 2.0, 1.0), 64)
    header = b"P6\n64 32\n255\n"
    assert out.ppm.startswith(header)
    assert len(out.ppm) == len(header) + 64 * 32 * 3
    assert set(out.ppm[len(header):]) == {255}
    assert out.svg.count("<circle") == 0
    assert out.svg.count("#c80000") == 0


def test_render_single_circle_and_point():
    w = Rectangle(-2.0, -2.0, 2.0, 2.0)
    # The cloud point is the circle's centre.
    out = render(CirclePacking([OrientedCircle.from_center_radius(0, 1.0)]), [True], w, 128)
    assert out.svg.count("<circle") == 1
    assert out.svg.count('fill="#c80000"') == 1
    m = re.search(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="([0-9.]+)"', out.svg)
    assert (float(m.group(1)), float(m.group(2))) == (64.0, 64.0)
    assert float(m.group(3)) == pytest.approx(32.0)
    assert out.ppm.count(b"\xc8\x00\x00") >= 1


def test_render_comment_appears_in_both_outputs():
    out = render(CirclePacking([]), [], Rectangle(0.0, 0.0, 1.0, 1.0), 32, comment="run 7")
    assert b"# run 7\n" in out.ppm.split(b"255\n")[0]
    assert "<!-- run 7 -->" in out.svg


def test_render_roundtrip_preserves_gasket_structure(group):
    # scrape the circle elements back out of the SVG and check that the
    # rebuilt packing still verifies; pixel coordinates are uniformly scaled,
    # which Descartes residuals and inversive products both survive
    cfg = DfsConfig(epsilon=0.05, max_depth=14, seeds=strip_seeds(), window=WINDOW)
    result = limit_set_dfs(group, cfg)
    out = render(result.packing, result.in_cloud, WINDOW, 800)
    rows = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="([0-9.]+)"', out.svg)
    lines = int(result.packing.lines.sum())
    assert len(rows) == len(result.packing) - lines
    rebuilt = CirclePacking(
        [
            OrientedCircle.from_center_radius(complex(float(cx), float(cy)), float(r))
            for cx, cy, r in rows
        ]
    )
    verdict = is_apollonian_like(rebuilt, residual_tol=1e-2, tangency_tol=1e-3)
    assert verdict.passed
    assert verdict.connected
    assert verdict.quadruples_checked >= 50


def assert_render_matches_oracle(circles, in_cloud, window, resolution, comment=None):
    """render against the per-pixel renderer it replaced: the same PPM and
    SVG bytes."""
    got = render(CirclePacking(circles), in_cloud, window, resolution, comment)
    want = render_oracle(circles, in_cloud, window, resolution, comment)
    assert got.svg == want.svg
    assert got.ppm == want.ppm
    return got


def test_render_matches_per_pixel_oracle_on_dfs():
    window = Rectangle(-1.0, -1.0, 2.0, 2.0)
    result = hw_dfs(1e-2, window)
    comment = "kleinlab dfs --epsilon 1e-2"
    got = render(result.packing, result.in_cloud, window, 800, comment)
    circles = result.packing.circles
    assert got == assert_render_matches_oracle(circles, result.in_cloud, window, 800, comment)
    assert "<!-- kleinlab dfs - -epsilon 1e-2 -->" in got.svg


def test_render_matches_per_pixel_oracle_on_edge_cases(monkeypatch):
    s = 64.0  # pixels per unit in the unit window at resolution 64
    window = Rectangle(0.0, 0.0, 1.0, 1.0)
    px = lambda x, y: complex(x / s, 1.0 - y / s)  # noqa: E731
    circles = [
        # Outline samples and dots at x or y in (-1, 0) px: int() puts them
        # on pixel 0, floor would drop them.
        OrientedCircle.from_center_radius(px(-0.5, 20.0), 10.0 / s),
        OrientedCircle.from_center_radius(px(30.0, -0.5), 10.0 / s),
        OrientedCircle.from_center_radius(px(-0.5, 10.0), 0.2 / s),
        OrientedCircle.from_center_radius(px(10.0, -0.7), 0.2 / s),
        # A dot and an outline either side of 0.4 px of radius.
        OrientedCircle.from_center_radius(px(40.0, 40.0), (0.4 - 1e-9) / s),
        OrientedCircle.from_center_radius(px(50.0, 40.0), (0.4 + 1e-9) / s),
        # 4096 samples, the cap, on an arc through the window.
        OrientedCircle.from_center_radius(0.5 - 8.0j, 8.3),
        # Enclosing circles.
        OrientedCircle.from_center_radius(0.5 + 0.5j, 0.3).reversed(),
        OrientedCircle.from_center_radius(0.25 + 0.75j, 0.05).reversed(),
        # Horizontal, vertical and diagonal lines, and one beside the window.
        OrientedCircle.from_line(1j, 0.5),
        OrientedCircle.from_line(1, 0.25),
        OrientedCircle.from_line((1 + 1j) / math.sqrt(2), 0.5),
        OrientedCircle.from_line(1j, 3.0),
    ]
    # Cloud points at infinity (the last line's centre), at an enclosing
    # circle's centre, and at the centres of dots in, on the edge of and
    # beside the window.
    in_cloud = [False] * len(circles)
    in_cloud[7] = in_cloud[-1] = True
    for z in (5 + 5j, complex(-0.0, 0.25), 0.999 + 0.001j, 1 + 1j, -0.01 + 0.5j):
        circles.append(OrientedCircle.from_center_radius(z, 1e-3))
        in_cloud.append(True)
    comment = "kleinlab dfs --out run\nconfig: a--b"
    out = assert_render_matches_oracle(circles, in_cloud, window, 64, comment)
    assert out.svg.count("<line") == 3
    assert out.svg.count('fill="#c80000"') == 4
    assert "<!-- kleinlab dfs - -out run\nconfig: a- -b -->" in out.svg
    # The same circles in a window twice as wide as it is high.
    assert_render_matches_oracle(circles, in_cloud, Rectangle(-1.0, -0.5, 2.0, 1.0), 90, comment)
    no_cloud = [False] * len(circles)
    assert_render_matches_oracle(circles[::-1], no_cloud, Rectangle(-0.5, 0.0, 1.5, 0.75), 37)
    # Outlines split over many passes, and SVG elements formatted a few
    # circles at a time, the lines and cloud squares in later blocks.
    monkeypatch.setattr(limitset, "_SAMPLES_PER_PASS", 100)
    monkeypatch.setattr(limitset, "_SVG_BLOCK", 3)
    assert_render_matches_oracle(circles, in_cloud, window, 64, comment)


def test_render_outlines_take_math_cos_and_sin(monkeypatch):
    # numpy's cos and sin agree with libm's on some builds and not on
    # others.  With math's turned by 0.05 rad, the oracle's outlines move,
    # and render's must move with them.
    cos, sin = math.cos, math.sin
    monkeypatch.setattr(math, "cos", lambda t: cos(t + 0.05))
    monkeypatch.setattr(math, "sin", lambda t: sin(t + 0.05))
    circles = [
        OrientedCircle.from_center_radius(0.5 + 0.5j, 0.3),
        OrientedCircle.from_center_radius(0.2 + 0.3j, 0.1).reversed(),
    ]
    assert_render_matches_oracle(circles, [False, False], Rectangle(0.0, 0.0, 1.0, 1.0), 64)


def hw_marking_and_seeds():
    """The hw-gasket preset's marked group and its seed circles."""
    preset = resources.files("kleinlab").joinpath("presets")
    group = load_marking(preset.joinpath("hw-marking.txt").read_text())
    seeds = load_packing(preset.joinpath("hw-seeds.txt").read_text()).circles
    return group, tuple(seeds)


def hw_dfs(epsilon, window):
    """limit_set_dfs with the hw-gasket preset's marking and seeds."""
    group, seeds = hw_marking_and_seeds()
    config = DfsConfig(epsilon=epsilon, max_depth=64, seeds=seeds, window=window)
    return limit_set_dfs(group, config)


def conjugated_hw(g):
    """The hw-gasket seen through g: each generator x becomes g x g^-1 and
    each seed is moved by g.  Its triples are no longer integral."""
    group, seeds = hw_marking_and_seeds()
    images = {x: g.compose(group.letter_map(x)).compose(g.inverse()) for x in group.alphabet.names}
    return MarkedGroup(group.alphabet, images), tuple(s.transform(g) for s in seeds)


@pytest.mark.parametrize("conjugator", [None, 1, 2, 3], ids=["hw", "random1", "random2", "random3"])
def test_dfs_rows_are_their_words_folded_onto_the_seed(conjugator):
    # The DFS applies transform_hermitian's products inline and renormalizes
    # nothing, so each row is its word folded letter by letter onto its seed
    # through OrientedCircle.transform, bit for bit, integral marking or not.
    if conjugator is None:
        group, seeds = hw_marking_and_seeds()
    else:
        group, seeds = conjugated_hw(random_map(random.Random(conjugator)))
    for seed in seeds:
        result = limit_set_dfs(group, DfsConfig(epsilon=1e-2, max_depth=64, seeds=(seed,)))
        assert len(result.words) > 100
        folded = []
        for word in result.words:
            c = seed
            for x in reversed(word):
                c = c.transform(group.letter_map(x))
            folded.append((c.A, c.B.real, c.B.imag, c.C))
        assert result.packing.columns.tobytes() == np.array(folded).T.tobytes()


def test_conjugated_gasket_passes_the_verdict():
    # A determinant-1 map keeps the Descartes relation exactly, so the hw
    # gasket moved by a Moebius map must still verify; renormalizing each
    # DFS node by its recomputed discriminant left residuals of 0.26 here.
    group, seeds = conjugated_hw(MoebiusMap(1 + 0.3j, 0.37, 0.21 - 0.1j, 1.13))
    result = limit_set_dfs(group, DfsConfig(epsilon=3e-3, max_depth=64, seeds=seeds))
    verdict = is_apollonian_like(result.packing, normalize=True)
    assert verdict.passed, verdict.failures
    assert verdict.worst_residual < 1e-6


def assert_window_pass_matches_scalar(circles, window):
    rows = np.array([(c.A, c.B.real, c.B.imag, c.C) for c in circles]).reshape(-1, 4)
    expected = [_circle_meets_window(c.A, c.B, c.C, window) for c in circles]
    assert _meets_window(rows, window).tolist() == expected
    return expected


@pytest.mark.parametrize(
    "window",
    [Rectangle(-1.0, -1.0, 2.0, 2.0), WINDOW, Rectangle(-0.2, 0.3, 0.05, 0.35)],
)
def test_window_pass_matches_scalar_test_on_dfs_circles(window):
    circles = hw_dfs(1e-2, None).packing.circles
    assert len(circles) > 1369
    expected = assert_window_pass_matches_scalar(circles, window)
    assert any(expected) and not all(expected)


def test_window_pass_matches_scalar_test_on_edge_cases():
    w = WINDOW  # x in [-1, 2], y in [-1, 1]
    mid = complex(0.5, 0.0)
    circles = []
    # Tangent to each edge from inside and from outside.
    for point, inward in ((-1.0, 1), (2.0, -1), (0.5 - 1j, 1j), (0.5 + 1j, -1j)):
        for side in (1, -1):
            circles.append(OrientedCircle.from_center_radius(point + side * 0.25 * inward, 0.25))
    for corner in w.corners():
        # Through each corner, centred outside and inside the window.
        for offset in (0.3 + 0.4j, -0.3 - 0.4j, 0.3 - 0.4j, -0.3 + 0.4j):
            circles.append(OrientedCircle.from_center_radius(corner + offset, 0.5))
    # Through all four corners, containing the window, inside it.
    circles.append(OrientedCircle.from_center_radius(mid, abs(w.corners()[0] - mid)))
    circles.append(OrientedCircle.from_center_radius(mid, 5.0))
    circles.append(OrientedCircle.from_center_radius(mid, 0.2))
    # Lines through the window, along an edge, through a corner, beside it.
    circles.append(OrientedCircle.from_line(1j, 0.0))
    circles.append(OrientedCircle.from_line(1j, 1.0))
    circles.append(OrientedCircle.from_line((1 + 1j) / math.sqrt(2), 3.0 / math.sqrt(2)))
    circles.append(OrientedCircle.from_line(1j, 3.0))
    circles += [c.reversed() for c in circles]
    # Centred beyond the corner (2, 1), with r equal to dmin as np.hypot
    # rounds it; math.hypot rounds dmin one ulp the other way.
    last_place = [
        (2.7495351542782602, -6.326073352470525, -3.3117325976706784),
        (2.2303736817005593, -5.239906672690806, -2.857199631025584),
        (1.1595221068715122, -3.181421727857764, -1.6657878702303257),
        (1.2154975757657593, -3.344549800838393, -1.62221357339776),
    ]
    circles += [
        OrientedCircle._from_unit_triple(A, complex(Bre, Bim), (Bre * Bre + Bim * Bim - 1.0) / A)
        for A, Bre, Bim in last_place
    ]
    expected = assert_window_pass_matches_scalar(circles, w)
    # Only the circle around the window and the line beside it miss it,
    # and two of the last-place rows.
    assert expected.count(False) == 6


def assert_extend_matches_oracle(points, tol):
    """LimitSetCloud.extend against greedy_oracle: in one call, and split
    across two calls followed by try_add for the last few points."""
    words = ["ab"[k % 2] * (k % 7) for k in range(len(points))]
    kept = greedy_oracle(points, tol)
    expected = (limitset._plane([points[k] for k in kept]).tolist(), [words[k] for k in kept])
    bulk = LimitSetCloud(tol)
    bulk.extend(points, words)
    assert (bulk.z.tolist(), bulk.words) == expected
    a, b = len(points) // 3, len(points) - 10
    staged = LimitSetCloud(tol)
    staged.extend(points[:a], words[:a])
    staged.extend(points[a:b], words[a:b])
    added = [staged.try_add(p, w) for p, w in zip(points[b:], words[b:])]
    assert (staged.z.tolist(), staged.words) == expected
    assert added == [k in kept for k in range(b, len(points))]
    return kept


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 1e-13])
def test_cloud_extend_matches_try_add_on_dfs_centres(tol):
    centres = [c.center for c in hw_dfs(1e-2, None).packing.circles]
    assert centres.count(INFINITY) == 2
    assert len(assert_extend_matches_oracle(centres, tol)) == len(centres) - 1


@pytest.mark.parametrize("tol, kept", [(1e-9, 4146), (1e-6, 4146), (1e-3, 3522), (1e-13, 4146)])
def test_cloud_extend_matches_oracle_on_fixed_point_candidates(group, tol, kept):
    points = [p for p, _ in fixed_point_candidates(group, 7)]
    assert len(points) == 4372
    assert len(assert_extend_matches_oracle(points, tol)) == kept


def plane_point(u):
    """Inverse of sphere_coords for a unit vector off the north pole."""
    return complex(u[0], u[1]) / (1.0 - u[2])


def assert_planted_pairs_match_oracle(tol, margin):
    """Seeded points, each with a planted duplicate at chord tol(1 - margin)
    and a planted new point at tol(1 + margin), through
    assert_extend_matches_oracle."""
    rng = random.Random(83)
    points = []
    for _ in range(1000):
        p = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        u = np.array(sphere_coords(p))
        t = np.cross(u, [rng.gauss(0, 1) for _ in range(3)])
        t /= np.linalg.norm(t)
        near, far = (
            plane_point(u * math.cos(a) + side * t * math.sin(a))
            for side, a in ((1, 2 * math.asin(tol * (1 - margin) / 2)),
                            (-1, 2 * math.asin(tol * (1 + margin) / 2)))
        )
        assert chordal_distance(p, near) < tol < chordal_distance(p, far)
        points += [p, near, far]
    rng.shuffle(points)
    kept = assert_extend_matches_oracle(points, tol)
    assert 2000 <= len(kept) < 3000


def test_cloud_extend_matches_try_add_on_planted_pairs():
    assert_planted_pairs_match_oracle(1e-6, 1e-6)


def test_cloud_extend_matches_oracle_on_planted_pairs_at_cell_floor():
    # At 1e-13 the grid keeps its floor cell gasket._FINEST_CELL, about
    # 1.35e-6, far wider than the planted pairs; a margin of 1e-6 of 1e-13
    # would be lost in the lifts' rounding.
    assert_planted_pairs_match_oracle(1e-13, 0.1)


def test_cloud_extend_matches_try_add_across_cell_boundaries():
    # Pairs straddling a cell boundary along each axis, at 0.6 tol
    # (duplicates) and 1.5 tol (distinct): of the grid extend hashes into,
    # cell 2 tol, and of grids of cell 4 tol shifted by 0 or half a cell.
    tol = 1e-6
    rng = random.Random(89)
    points = []
    for axis in range(3):
        for cell, shift in ((4 * tol, 0.0), (4 * tol, 0.5), (2 * tol, 0.0)):
            b = (round(0.3 / cell) - shift) * cell
            for chord in (0.6 * tol, 1.5 * tol):
                phi = rng.uniform(0.0, 2.0 * math.pi)
                u = np.insert(math.sqrt(1 - b * b) * np.array([math.cos(phi), math.sin(phi)]), axis, b)
                t = np.eye(3)[axis] - b * u
                t /= np.linalg.norm(t)
                a = math.asin(chord / 2)
                pair = [u * math.cos(a) + side * t * math.sin(a) for side in (-1, 1)]
                assert pair[0][axis] < b < pair[1][axis]
                points += [plane_point(v) for v in pair]
    points += [INFINITY, 1 + 1j, INFINITY]
    kept = assert_extend_matches_oracle(points, tol)
    assert len(kept) == len(points) - 9 - 1


# One generator, a translation, and one seed: each level of the word tree
# holds at most two nodes, so every node below the seed is expanded on
# demand, one level after another down to depth 1000.
PARABOLIC_CHAIN = ("gen a = [[1,0],[1,0];[0,0],[1,0]]\n", "C 0 0.5 0.25\n")
G1 = MoebiusMap(1 + 0.3j, 0.37, 0.21 - 0.1j, 1.13)


def preorder_case(name):
    """(group, config) of a named traversal that _preorder must replay
    exactly as the oracle runs it."""
    kind, _, eps = name.partition("@")
    max_depth = 64
    if kind == "chain":
        group = load_marking(PARABOLIC_CHAIN[0])
        seeds = tuple(load_packing(PARABOLIC_CHAIN[1]).circles)
        return group, DfsConfig(epsilon=1e-6, max_depth=4096, seeds=seeds)
    if kind == "hw" or kind == "hw-depth6":
        group, seeds = hw_marking_and_seeds()
        max_depth = 6 if kind == "hw-depth6" else 64
    elif kind == "g1":
        group, seeds = conjugated_hw(G1)
    else:  # random<k>
        group, seeds = conjugated_hw(random_map(random.Random(int(kind[len("random"):]))))
    return group, DfsConfig(epsilon=float(eps), max_depth=max_depth, seeds=seeds)


def assert_preorder_matches_oracle(group, config):
    expected_stats, stats = DfsStats(), DfsStats()
    coeffs, words, flags = preorder_oracle(group, config, expected_stats)
    rows, got_words, got_flags = limitset._preorder(group, config, stats)
    assert rows.shape == (len(words), 4)
    assert rows.tobytes() == coeffs.tobytes()
    assert got_words == words
    assert got_flags == flags
    assert stats == expected_stats
    return expected_stats


ORACLE_CASES = [
    "hw@1e-2", "hw@3e-3", "hw@1e-3", "hw-depth6@1e-3",
    "g1@1e-2", "g1@3e-3",
    *(f"random{k}@{eps}" for k in (1, 2, 3) for eps in ("1e-2", "3e-3")),
    "chain",
]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_preorder_matches_the_scalar_oracle(name):
    stats = assert_preorder_matches_oracle(*preorder_case(name))
    if name == "hw-depth6@1e-3":
        assert stats.depth_exhausted_branches > 0
    if name == "chain":
        assert stats.max_depth_reached == 1000


def test_conjugated_markings_reach_the_near_boundary_probe(monkeypatch):
    # The conjugates' triples are not integral, so some of their keys lie
    # next to a rounding boundary; replay hands those nodes to try_add.
    near = []
    keys = wordtree._rounded_keys

    def counted(*columns):
        out = keys(*columns)
        near.append(int(out[1].sum()))
        return out

    monkeypatch.setattr(wordtree, "_rounded_keys", counted)
    assert_preorder_matches_oracle(*preorder_case("g1@3e-3"))
    assert sum(near) > 100


def test_preorder_matches_the_oracle_in_every_seed_order():
    group, seeds = hw_marking_and_seeds()
    for order in itertools.permutations(seeds):
        assert_preorder_matches_oracle(group, DfsConfig(epsilon=1e-2, max_depth=64, seeds=order))


@pytest.mark.parametrize("width", [0, 1 << 40], ids=["all-bulk", "all-on-demand"])
@pytest.mark.parametrize("name", ["hw@1e-2", "hw-depth6@1e-3", "g1@3e-3", "random2@1e-2", "chain"])
def test_both_replay_paths_match_the_oracle(name, width, monkeypatch):
    # Width 0 grows every level in bulk; a huge width grows only the seeds,
    # so that replay expands every other node on demand through the key
    # store, whose ids then cover only the seeds' keys.
    monkeypatch.setattr(wordtree, "_BULK_WIDTH", width)
    assert_preorder_matches_oracle(*preorder_case(name))


def stand_in_hashes(keys):
    """A hash of 16 values in place of _key_hashes: most keys share one."""
    return (keys[:, 0] & 15).astype(np.uint64)


def stand_in_hash(key):
    """stand_in_hashes of one key packed by _triple_key."""
    return int.from_bytes(key[:8], "little") & 15


INT64_MAX = (1 << 63) - 1


def test_key_hash_of_one_key_is_key_hashes_of_its_row():
    # find hashes a packed key with _key_hash, enter a row with
    # _key_hashes: the two must agree on every int64 key.
    rng = np.random.default_rng(3)
    edges = np.array([0, 1, -1, INT64_MAX, -INT64_MAX, -INT64_MAX - 1], dtype=np.int64)
    rows = np.concatenate((
        rng.integers(-INT64_MAX - 1, INT64_MAX, size=(200, 4), endpoint=True),
        rng.integers(-5, 5, size=(100, 4)),
        rng.choice(edges, size=(100, 4)),
    ))
    hashes = wordtree._key_hashes(rows).tolist()
    assert [wordtree._key_hash(_triple_key(*row)) for row in rows.tolist()] == hashes


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_key_hashes_are_distinct_on_small_lattices(r):
    # Xor-ed component products cancel on small keys: [-2, 2]^4 had 261
    # distinct hashes for its 625 keys.  A row whose hash another key
    # holds leaves the bulk path, so a small lattice must not collide.
    axis = np.arange(-r, r + 1, dtype=np.int64)
    rows = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 4)
    hashes = wordtree._key_hashes(rows)
    assert len(np.unique(hashes)) == len(rows) == (2 * r + 1) ** 4
    sample = rows[:: max(1, len(rows) // 500)]
    assert [wordtree._key_hash(_triple_key(*row)) for row in sample.tolist()] == (
        wordtree._key_hashes(sample).tolist()
    )


@pytest.mark.parametrize("stand_in", [False, True], ids=["key-hashes", "16-value-hash"])
def test_key_table_numbers_keys_as_unique_does(stand_in, monkeypatch):
    if stand_in:
        monkeypatch.setattr(wordtree, "_key_hashes", stand_in_hashes)
        monkeypatch.setattr(wordtree, "_key_hash", stand_in_hash)
    rng = np.random.default_rng(11)
    pool = rng.integers(-INT64_MAX - 1, INT64_MAX, size=(300, 4), endpoint=True)
    table = wordtree._KeyTable()
    depths, got_keys, got_ids, got_entered = [], [], [], []
    for depth in range(6):
        # Fresh keys, keys of earlier levels and repeats within the level.
        n = int(rng.integers(1, 400))
        keys = pool[rng.integers(0, len(pool), size=n)]
        fresh = rng.random(n) < 0.3
        keys[fresh] = rng.integers(-INT64_MAX - 1, INT64_MAX, size=(int(fresh.sum()), 4), endpoint=True)
        node = sum(map(len, got_keys)) + np.arange(n, dtype=np.int32)
        ids, entered = table.enter(keys, node, depth)
        depths.append(np.full(n, depth))
        got_keys.append(keys)
        got_ids.append(ids)
        got_entered.append(entered)
    rows, ids, entered = np.concatenate(got_keys), np.concatenate(got_ids), np.concatenate(got_entered)
    depth = np.concatenate(depths)
    _, first, same = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    same = same.ravel()
    # A tag's holder is the first key that came with it; a row of any
    # other key with that tag gets no id.
    tags = wordtree._key_hashes(rows).tolist()
    holder = {}
    for i, tag in enumerate(tags):
        holder.setdefault(tag, same[i])
    keyed = np.array([holder[tag] == k for tag, k in zip(tags, same.tolist())])
    if stand_in:
        assert 0 < keyed.sum() < len(rows)
    else:
        assert keyed.all()
    assert ((ids >= 0) == keyed).all()
    # Ids are equal exactly when the keys are.
    pairs = np.unique(np.stack((same[keyed], ids[keyed])), axis=1)
    assert pairs.shape[1] == len(np.unique(same[keyed])) == len(np.unique(ids[keyed]))
    # Each new key enters with its first row as its node, at its depth.
    is_first = np.zeros(len(rows), dtype=bool)
    is_first[first] = True
    assert (entered == (is_first & keyed)).all()
    assert (table.node[ids[entered]] == np.flatnonzero(entered)).all()
    assert (table.depth[ids[entered]] == depth[entered]).all()
    triples = table.finish()
    assert [triples.find(_triple_key(*row)) for row in rows.tolist()] == [
        i if i >= 0 else None for i in ids.tolist()
    ]
    assert triples.find((1 << 63, 0, 0, 0)) is None
    absent = rng.integers(-INT64_MAX - 1, INT64_MAX, size=(50, 4), endpoint=True)
    assert not (absent[:, None] == rows[None]).all(axis=2).any()
    assert all(triples.find(_triple_key(*row)) is None for row in absent.tolist())


@pytest.mark.parametrize("stand_in", [False, True], ids=["key-hashes", "16-value-hash"])
def test_numbered_triple_set_answers_as_a_plain_one(stand_in, monkeypatch):
    # The set _KeyTable.finish returns holds its numbered keys as flags and
    # any other key in a set; a plain _TripleSet holds every key in its
    # set.  Fed the same triples, the two must answer alike.
    if stand_in:
        monkeypatch.setattr(wordtree, "_key_hashes", stand_in_hashes)
        monkeypatch.setattr(wordtree, "_key_hash", stand_in_hash)
    grid = _TripleSet.GRID
    rng = random.Random(59)
    lattice = [tuple(rng.randrange(-2, 3) * grid for _ in range(4)) for _ in range(150)]
    pool = list(lattice)
    # Copies of lattice triples with one or two components moved to within
    # 0.0049 grid step of a rounding boundary, on either side of it.
    for _ in range(150):
        row = list(rng.choice(lattice))
        for i in rng.sample(range(4), rng.randint(1, 2)):
            row[i] += (0.5 + rng.choice((-1, 1)) * rng.uniform(0.0, 0.0049)) * grid
        pool.append(tuple(row))
    pool.append((2.0**64 * grid, grid, 0.0, -grid))  # a tuple key
    table = wordtree._KeyTable()
    for depth in range(3):
        rows = np.array(rng.sample(pool, 100))
        keys, _, packed = wordtree._rounded_keys(*rows.T)
        table.enter(keys[packed], np.arange(int(packed.sum()), dtype=np.int32), depth)
    numbered, plain = table.finish(), _TripleSet()
    draws = [tuple(rng.choice((1.0, -1.0)) * x for x in rng.choice(pool)) for _ in range(3000)]
    answers = [numbered.try_add(*t) for t in draws]
    assert answers == [plain.try_add(*t) for t in draws]
    assert 0 < sum(answers) < len(answers)
    assert any(numbered.seen) and numbered.other


@pytest.mark.parametrize("name", ["hw@1e-2", "g1@1e-2"])
def test_preorder_is_exact_when_key_hashes_collide(name, monkeypatch):
    # With a hash of 16 values nearly every key shares its hash with
    # others: at most 16 keys get an id, and every row whose hash a
    # different key holds gets none, so that replay hands it to try_add.
    # The result may not change.
    monkeypatch.setattr(wordtree, "_key_hashes", stand_in_hashes)
    monkeypatch.setattr(wordtree, "_key_hash", stand_in_hash)
    unkeyed = []
    enter = wordtree._KeyTable.enter

    def counted(self, keys, node, depth):
        ids, entered = enter(self, keys, node, depth)
        unkeyed.append(int((ids < 0).sum()))
        return ids, entered

    monkeypatch.setattr(wordtree._KeyTable, "enter", counted)
    assert_preorder_matches_oracle(*preorder_case(name))
    assert sum(unkeyed) > 0


def test_preorder_keeps_try_adds_tuple_keys_and_overflow():
    # A triple with a component past int64 has a tuple key, which replay
    # leaves to try_add; its negation is the same locus.  An infinite
    # component raises OverflowError from round(), as the oracle does.
    group, seeds = hw_marking_and_seeds()
    far = OrientedCircle.from_center_radius(3e12, 1e11)
    config = DfsConfig(epsilon=1e-2, max_depth=64, seeds=(far, *seeds, far.reversed()))
    assert assert_preorder_matches_oracle(group, config).words_visited > 1000
    assert abs(far.C) / _TripleSet.GRID > 2.0**63
    broken = OrientedCircle._from_unit_triple(0.0, complex(math.inf, 0.0), 1.0)
    config = DfsConfig(epsilon=1e-2, max_depth=64, seeds=(*seeds, broken))
    with pytest.raises(OverflowError):
        preorder_oracle(group, config, DfsStats())
    with pytest.raises(OverflowError):
        limitset._preorder(group, config, DfsStats())
